"""File formats: model JSON, value/policy dumps, trajectory CSV, manifests.

A model file is a single JSON document:

    {
      "assets": 2,
      "factors": {"transition": [[...], ...]},
      "shocks":  {"probs": [...]},
      "returns": [[[per asset] per shock] per factor],
      "costs":   {"buy": [...], "sell": [...], "fixed": 0.1,
                  "variant": "additive"}
    }

Probabilities may be numbers or decimal strings, never booleans; each row
passes ``market.check_stochastic_rows`` (finite, non-negative, stochastic
within 1e-9) and is then renormalized.  The optional ``assets`` key, when
present, must be the integer length of the last axis of ``returns``.
Every other rule belongs to the constructors: ``MarketModel`` refuses
returns that are not finite and > 0, ``CostSpec`` rates outside [0, 1) and
a fixed charge that is not finite and >= 0, and both refuse booleans in
their tables, each with a ValueError naming the field.

Value functions and policies serialize as a CSV body plus a JSON side-car
header carrying the grid spec, discount, model hash and seed; every CLI run
additionally writes a manifest listing inputs, content hashes and wall
time.

The grid owns the table layout: a dump has one CSV row per index of
``grid.shape``, and reading it back fills tables of the shape that the
header's grid spec gives.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from importlib import resources
from typing import Optional

import numpy as np

from .costs import CostSpec
from .grid import Policy, StateGrid, ValueFunction
from .market import (SIMPLEX_TOL, MarketModel, check_stochastic_rows,
                     readonly_table)


def _renormalize_rows(mat, what):
    mat = np.atleast_2d(readonly_table(mat, what))
    return mat / check_stochastic_rows(mat, what)[:, None]


def _key(doc: dict, key: str, where: str):
    """``doc[key]``, or a ValueError naming the key and where it is missing."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: must be a JSON object")
    if key not in doc:
        raise ValueError(f"{where}: missing key {key!r}")
    return doc[key]


def parse_model_dict(doc: dict):
    """Build (MarketModel, CostSpec or None) from a parsed model document."""
    if not (isinstance(doc, dict) and all(isinstance(doc.get(k, {}), dict)
                                          for k in ("factors", "shocks", "costs"))):
        raise ValueError("a model must be a JSON object, and so must its "
                         "factors, shocks and costs sections")
    factors = _key(doc, "factors", "model")
    shocks = _key(doc, "shocks", "model")
    transition = _renormalize_rows(
        _key(factors, "transition", "model section 'factors'"),
        "model section 'factors': transition")
    probs = _renormalize_rows(_key(shocks, "probs", "model section 'shocks'"),
                              "model section 'shocks': probs")[0]
    model = MarketModel(transition=transition, shock_probs=probs,
                        returns=_key(doc, "returns", "model"))
    n_assets = doc.get("assets", model.n_assets)
    if (isinstance(n_assets, bool) or not isinstance(n_assets, int)
            or n_assets != model.n_assets):
        raise ValueError(f"model key 'assets' must be the integer "
                         f"{model.n_assets}, the length of the last axis of "
                         f"returns, got {n_assets!r}")
    spec = None
    if "costs" in doc:
        c = doc["costs"]
        spec = CostSpec(
            buy=_key(c, "buy", "model section 'costs'"),
            sell=_key(c, "sell", "model section 'costs'"),
            fixed=c.get("fixed", 0.0),
            variant=c.get("variant", "additive"),
        )
        if spec.n_assets != n_assets:
            raise ValueError("cost rate vectors must have one entry per asset")
    return model, spec


def load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_dict(json.load(fh))


def bundled_model_path() -> str:
    """Filesystem path of the model shipped with the package."""
    return str(resources.files("growthopt").joinpath("data", "two_asset.json"))


def atomic_write_text(path: str, text: str) -> None:
    """Write a file atomically (temp file + rename) in its directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _float_cell(v: float) -> str:
    return repr(float(v))


# ----------------------------------------------------------------------
# value function / policy dumps
# ----------------------------------------------------------------------

def dump_solution(v: ValueFunction, policy: Policy, path_base: str,
                  model_hash: str, seed: Optional[int] = None) -> dict:
    """Write <base>.csv (one row per state) and <base>.json (header).

    Returns the header dict.  CSV columns: node index, wealth index, factor,
    the node's proportion coordinates, wealth, value, impulse flag and the
    target node's coordinates; wealth index and wealth are blank on grids
    without a wealth axis.
    """
    grid = v.grid
    d = grid.n_assets
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header_cols = (["node", "wealth_idx", "z"]
                   + [f"pi_prev_{i}" for i in range(d)] + ["x", "value", "impulse"]
                   + [f"target_{i}" for i in range(d)])
    writer.writerow(header_cols)
    for idx in np.ndindex(grid.shape):
        p, *j, z = idx
        writer.writerow([p, j[0] if j else "", z]
                        + [_float_cell(c) for c in grid.nodes[p]]
                        + [_float_cell(grid.wealth[j[0]]) if j else "",
                           _float_cell(v.values[idx]), int(policy.impulse[idx])]
                        + [_float_cell(c) for c in grid.nodes[policy.target[idx]]])
    atomic_write_text(path_base + ".csv", buf.getvalue())
    header = {
        "kind": "value_policy",
        "variant": v.variant,
        "beta": v.beta,
        "grid": grid.spec_dict(),
        "model_hash": model_hash,
        "seed": seed,
    }
    atomic_write_text(path_base + ".json",
                      json.dumps(header, indent=2, sort_keys=True) + "\n")
    return header


def _grid_node(grid: StateGrid, pi: np.ndarray, where: str) -> int:
    """Index of the grid node that ``pi`` names within SIMPLEX_TOL, or a
    ValueError naming ``where``."""
    # off the simplex there is no nearest node; NaN fails both tests
    if pi.min() >= -SIMPLEX_TOL and abs(pi.sum() - 1.0) <= SIMPLEX_TOL:
        node = grid.node_index(pi)
        if np.abs(grid.nodes[node] - pi).max() <= SIMPLEX_TOL:
            return node
    raise ValueError(f"{where}: target {pi.tolist()} is not a node of the "
                     f"mesh-{grid.mesh_order} grid within {SIMPLEX_TOL}")


def load_policy(path_base: str) -> Policy:
    """Rebuild a Policy from a dump written by :func:`dump_solution`.

    The header's grid section goes to ``StateGrid.build``, which refuses
    settings it cannot run; its message is prefixed with the file and
    section.  That grid decides the table shape.  Every CSV row must name
    one state of that grid by in-range indices (a blank wealth index where
    the grid has no wealth axis) and a target that is one of its nodes
    within ``SIMPLEX_TOL``, and every state must appear exactly once.
    Anything else is refused with a ValueError naming the file, and the key
    or line where there is one.
    """
    header_path = path_base + ".json"
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    g = _key(header, "grid", header_path)
    beta = _key(header, "beta", header_path)
    if beta != "average" and not (isinstance(beta, float)
                                  and 0.0 < beta < 1.0):
        raise ValueError(f"{header_path}: key 'beta' must be a number in "
                         f"(0, 1) or \"average\", got {beta!r}")
    in_grid = f"{header_path} section 'grid'"
    spec = {k: _key(g, k, in_grid) for k in ("n_assets", "mesh_order", "n_z")}
    if g.get("wealth") is not None:
        in_wealth = f"{header_path} section 'grid.wealth'"
        spec.update((k, _key(g["wealth"], k, in_wealth))
                    for k in ("x_min", "x_max", "n_x"))
    try:
        grid = StateGrid.build(**spec)
    except ValueError as exc:
        raise ValueError(f"{in_grid}: {exc}") from None
    impulse = np.zeros(grid.shape, dtype=bool)
    target = np.zeros(grid.shape, dtype=np.int64)
    seen = np.zeros(grid.shape, dtype=bool)
    path = path_base + ".csv"
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        cols = next(reader, None)
        if cols is None:
            raise ValueError(f"{path}: empty, no header row")
        for col in ("target_0", "impulse"):
            if col not in cols:
                raise ValueError(f"{path}: header has no {col!r} column")
        d = grid.n_assets
        tgt_at, imp_at = cols.index("target_0"), cols.index("impulse")
        for row in reader:
            where = f"{path} line {reader.line_num}"
            try:
                idx = tuple(int(c) for c in row[:3] if c != "")
                tgt = [float(c) for c in row[tgt_at:tgt_at + d]]
            except ValueError:
                raise ValueError(f"{where}: a state index or target "
                                 "coordinate is not a number") from None
            if (len(row) != len(cols) or len(idx) != len(grid.shape)
                    or not all(0 <= i < n for i, n in zip(idx, grid.shape))):
                raise ValueError(f"{where}: row does not name a state of a "
                                 f"grid with tables of shape {grid.shape}")
            if seen[idx]:
                raise ValueError(f"{where}: state {idx} appears twice")
            seen[idx] = True
            if row[imp_at] not in ("0", "1"):
                raise ValueError(f"{where}: impulse cell {row[imp_at]!r} is "
                                 "neither 0 nor 1")
            impulse[idx] = row[imp_at] == "1"
            target[idx] = _grid_node(grid, np.array(tgt), where)
    if not seen.all():
        missing = tuple(int(i) for i in np.argwhere(~seen)[0])
        raise ValueError(f"{path}: no row for state {missing} "
                         f"({int((~seen).sum())} states missing)")
    return Policy(grid=grid, impulse=impulse, target=target, beta=beta,
                  model_hash=header.get("model_hash"))


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------

def trajectory_csv(traj) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    d = traj.pi.shape[1]
    writer.writerow(["t", "z", "xi"] + [f"pi_prev_{i}" for i in range(d)]
                    + ["transacted"] + [f"pi_{i}" for i in range(d)]
                    + ["e_applied", "x_prev", "x"])
    # one .tolist() per column: csv writes a Python float as its repr, the
    # same text as _float_cell
    for t, z, xi, pi_prev, transacted, pi, e, x_prev, x in zip(
            traj.t.tolist(), traj.z.tolist(), traj.xi.tolist(),
            traj.pi_prev.tolist(), traj.transacted.tolist(), traj.pi.tolist(),
            traj.e_applied.tolist(), traj.x_prev.tolist(), traj.x.tolist()):
        writer.writerow([t, z, xi, *pi_prev, int(transacted), *pi, e, x_prev, x])
    return buf.getvalue()


def ld_tail_csv(result) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["T", "p_hat", "eps", "tail_prob", "n_paths"])
    for r in result.rows:
        writer.writerow([r["T"], _float_cell(r["p_hat"]), _float_cell(r["eps"]),
                         _float_cell(r["tail_prob"]), r["n_paths"]])
    return buf.getvalue()
