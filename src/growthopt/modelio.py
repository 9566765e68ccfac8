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

Probabilities may be numbers or decimal strings.  Rows off stochastic by at
most 1e-9 are renormalized, larger errors are rejected.  Value functions
and policies serialize as a CSV body plus a JSON side-car header carrying
the grid spec, discount, model hash and seed; every CLI run additionally
writes a manifest listing inputs, content hashes and wall time.
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
from .market import MarketModel

RENORM_TOL = 1e-9


def _to_float_array(obj):
    return np.array(obj, dtype=float)


def _renormalize_rows(mat, what):
    mat = np.atleast_2d(_to_float_array(mat))
    sums = mat.sum(axis=1)
    err = np.abs(sums - 1.0).max()
    if err > RENORM_TOL:
        raise ValueError(f"{what} rows off stochastic by {err:.3e} (> {RENORM_TOL})")
    return mat / sums[:, None]


def parse_model_dict(doc: dict):
    """Build (MarketModel, CostSpec or None) from a parsed model document."""
    transition = _renormalize_rows(doc["factors"]["transition"], "transition")
    probs = _renormalize_rows(doc["shocks"]["probs"], "shock probs")[0]
    returns = _to_float_array(doc["returns"])
    if returns.ndim != 3:
        raise ValueError("returns must be nested [factor][shock][asset]")
    n_assets = int(doc.get("assets", returns.shape[2]))
    if returns.shape != (transition.shape[0], probs.shape[0], n_assets):
        raise ValueError(
            f"returns shape {returns.shape} inconsistent with "
            f"{transition.shape[0]} factors, {probs.shape[0]} shocks, "
            f"{n_assets} assets"
        )
    model = MarketModel(transition=transition, shock_probs=probs, returns=returns)
    spec = None
    if "costs" in doc:
        c = doc["costs"]
        spec = CostSpec(
            buy=_to_float_array(c["buy"]),
            sell=_to_float_array(c["sell"]),
            fixed=float(c.get("fixed", 0.0)),
            variant=c.get("variant", "additive"),
        )
        if spec.n_assets != n_assets:
            raise ValueError("cost rate vectors must have one entry per asset")
    return model, spec


def load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_dict(json.load(fh))


def bundled_model_path(name: str = "two_asset") -> str:
    """Filesystem path of a model shipped with the package."""
    return str(resources.files("growthopt").joinpath("data", f"{name}.json"))


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

def _state_rows(grid: StateGrid, wealth_axis: bool):
    for p in range(grid.n_nodes):
        if wealth_axis:
            for j in range(grid.n_wealth):
                for z in range(grid.n_z):
                    yield (p, j, z, grid.nodes[p], grid.wealth[j])
        else:
            for z in range(grid.n_z):
                yield (p, None, z, grid.nodes[p], None)


def dump_solution(v: ValueFunction, policy: Policy, path_base: str,
                  model_hash: str, seed: Optional[int] = None) -> dict:
    """Write <base>.csv (one row per state) and <base>.json (header).

    Returns the header dict.  CSV columns: node index, wealth index, factor,
    the node's proportion coordinates, wealth, value, impulse flag and the
    target node's coordinates.
    """
    grid = v.grid
    d = grid.n_assets
    wealth_axis = v.variant == "fixed"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header_cols = (["node", "wealth_idx", "z"]
                   + [f"pi_prev_{i}" for i in range(d)] + ["x", "value", "impulse"]
                   + [f"target_{i}" for i in range(d)])
    writer.writerow(header_cols)
    for p, j, z, node, x in _state_rows(grid, wealth_axis):
        if wealth_axis:
            val = v.values[p, j, z]
            imp = policy.impulse[p, j, z]
            tgt = grid.nodes[policy.target[p, j, z]]
        else:
            val = v.values[p, z]
            imp = policy.impulse[p, z]
            tgt = grid.nodes[policy.target[p, z]]
        writer.writerow([p, "" if j is None else j, z]
                        + [_float_cell(c) for c in node]
                        + ["" if x is None else _float_cell(x), _float_cell(val),
                           int(imp)]
                        + [_float_cell(c) for c in tgt])
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


def load_policy(path_base: str) -> Policy:
    """Rebuild a Policy from a dump written by :func:`dump_solution`."""
    with open(path_base + ".json", "r", encoding="utf-8") as fh:
        header = json.load(fh)
    g = header["grid"]
    wealth = g.get("wealth")
    grid = StateGrid.build(
        n_assets=g["n_assets"], mesh_order=g["mesh_order"], n_z=g["n_z"],
        x_min=None if wealth is None else wealth["x_min"],
        x_max=None if wealth is None else wealth["x_max"],
        n_x=None if wealth is None else wealth["n_x"],
        interpolation=g["interpolation"],
    )
    if header["variant"] == "fixed":
        shape = (grid.n_nodes, grid.n_wealth, grid.n_z)
    else:
        shape = (grid.n_nodes, grid.n_z)
    impulse = np.zeros(shape, dtype=bool)
    target = np.zeros(shape, dtype=np.int64)
    with open(path_base + ".csv", "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        cols = next(reader)
        d = grid.n_assets
        tgt_at = cols.index("target_0")
        for row in reader:
            p, j, z = int(row[0]), row[1], int(row[2])
            tgt_node = np.array([float(c) for c in row[tgt_at:tgt_at + d]])
            idx = grid.node_index(tgt_node)
            if header["variant"] == "fixed":
                impulse[p, int(j), z] = row[cols.index("impulse")] == "1"
                target[p, int(j), z] = idx
            else:
                impulse[p, z] = row[cols.index("impulse")] == "1"
                target[p, z] = idx
    return Policy(grid=grid, impulse=impulse, target=target, beta=header["beta"],
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
    for k in range(traj.t.shape[0]):
        writer.writerow(
            [int(traj.t[k]), int(traj.z[k]), int(traj.xi[k])]
            + [_float_cell(v) for v in traj.pi_prev[k]]
            + [int(traj.transacted[k])]
            + [_float_cell(v) for v in traj.pi[k]]
            + [_float_cell(traj.e_applied[k]), _float_cell(traj.x_prev[k]),
               _float_cell(traj.x[k])]
        )
    return buf.getvalue()


def read_trajectory_csv(path: str) -> dict:
    """Load a trajectory dump as a dict of column arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        cols = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    data = np.array(rows)
    out = {}
    d = sum(1 for c in cols if c.startswith("pi_prev_"))
    for name in ("t", "z", "xi"):
        out[name] = data[:, cols.index(name)].astype(np.int64)
    out["pi_prev"] = data[:, cols.index("pi_prev_0"):cols.index("pi_prev_0") + d]
    out["pi"] = data[:, cols.index("pi_0"):cols.index("pi_0") + d]
    out["transacted"] = data[:, cols.index("transacted")].astype(bool)
    for name in ("e_applied", "x_prev", "x"):
        out[name] = data[:, cols.index(name)]
    return out


def ld_tail_csv(result) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["T", "p_hat", "eps", "tail_prob", "n_paths"])
    for r in result.rows:
        writer.writerow([r["T"], _float_cell(r["p_hat"]), _float_cell(r["eps"]),
                         _float_cell(r["tail_prob"]), r["n_paths"]])
    return buf.getvalue()
