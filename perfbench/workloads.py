"""The four benchmark workloads and the checks on their answers.

Every workload runs the bundled two-asset model.  ``setup`` is one set-up
repetition, ``op`` is one timed operation and ``check`` returns the
problems found in that operation's answers (an empty list when it is
correct).  Inputs derive from the run seed only.

Answer tolerances come from the solve tolerance and the Monte Carlo
standard error, never from timings.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

import layers
from growthopt import cli, modelio, simulate
from growthopt.average import build_mimicking
from growthopt.costs import cost_constants
from growthopt.grid import StateGrid
from growthopt.market import growth_floor

# acceptance scale: mesh 8, 16 wealth nodes on [1e-3, 1e4]
MESH, X_MIN, X_MAX, N_X = 8, 1e-3, 1e4, 16
BETAS = [0.9, 0.99, 0.995, 0.999]
TOL = 1e-7
# the simulate and paths set-up solves the policy on a shorter schedule so
# that set-up can be repeated; its wealth-free policy equals the one solved
# on BETAS and its wealth-dependent policy differs in 0.7 % of the states
SETUP_BETAS = [0.9, 0.99]

# Reference answers of the acceptance-scale `optimal` solve (tol 1e-7).
LAMBDA_REF = 0.0838583259245679
LAMBDA_EXTRAP_REF = 0.08385693409103868
MIN_SLACK_REF = -0.005837515948288546
MEAN_SLACK_REF = -0.0009950347624419758
# beta -> variant -> (hold-only warm-start sweeps, main sweeps)
SWEEPS_REF = {
    0.9: {"proportional": (149, 138), "fixed": (149, 138)},
    0.99: {"proportional": (1791, 1668), "fixed": (1791, 1668)},
    0.995: {"proportional": (3728, 3482), "fixed": (3728, 3482)},
    0.999: {"proportional": (20283, 19046), "fixed": (20283, 19046)},
}
# `ldcheck` slope of 100,000 paths, t_max 256, seed 808
LD_SLOPE_REF, LD_SLOPE_SE_REF = -0.036618059246269576, 0.0003644383835731722

Z = 5.0  # a Monte Carlo answer may miss its reference by Z standard errors

SIM_PATHS, SIM_T, SIM_X0 = 50, 2500, 100.0   # CLI defaults for x0 and z0
PATH_T, PATH_PAIRS, PROP_X0, MIMIC_X0 = 300, 50, 1.0, 50.0
LD_PATHS, LD_T_MAX = 100_000, 256


def lambda_tol(betas=BETAS, tol=TOL) -> float:
    """Two solves within ``tol`` of one fixed point give growth estimates
    (1 - beta) * max v that differ by at most 2 (1 - beta) tol."""
    return 2.0 * (1.0 - betas[-1]) * tol


def extrap_tol(betas=BETAS, tol=TOL) -> float:
    """Propagate the per-beta bound through the two-point extrapolation."""
    g1, g2 = 1.0 - betas[-2], 1.0 - betas[-1]
    return (g1 * 2.0 * g2 * tol + g2 * 2.0 * g1 * tol) / (g1 - g2)


def slack_tol(tol=TOL) -> float:
    """w = peak - value moves by 2 tol, so w - E w moves by 4 tol, and the
    growth rate by its own bound."""
    return 4.0 * tol + lambda_tol(tol=tol)


def check_optimal(doc: dict) -> list[str]:
    problems = []
    pairs = [("lambda", doc["lambda"], LAMBDA_REF, lambda_tol()),
             ("lambda_extrapolated", doc["lambda_extrapolated"],
              LAMBDA_EXTRAP_REF, extrap_tol()),
             ("min_slack", doc["residual_summary"]["min_slack"], MIN_SLACK_REF,
              slack_tol()),
             ("mean_slack", doc["residual_summary"]["mean_slack"],
              MEAN_SLACK_REF, slack_tol())]
    for name, got, ref, tol in pairs:
        if not abs(got - ref) <= tol:
            problems.append(f"{name} {got!r} differs from {ref!r} by more "
                            f"than {tol:.1e}")
    iters = doc["diagnostics"]["iterations"]
    for beta, per in SWEEPS_REF.items():
        want = [per["proportional"][1], per["fixed"][1]]
        if iters.get(str(beta)) != want:
            problems.append(f"main sweeps at beta {beta}: "
                            f"{iters.get(str(beta))} != {want}")
    return problems


def check_solve_reports(reports: list, n_ops: int) -> list[str]:
    """Warm-start and main sweeps of every traced solve of the timed ops."""
    problems = []
    if len(reports) != n_ops * 2 * len(BETAS):
        problems.append(f"{len(reports)} traced solves for {n_ops} operations")
    for beta, variant, warm, main in reports:
        want = SWEEPS_REF.get(beta, {}).get(variant)
        if want != (warm, main):
            problems.append(f"sweeps at beta {beta} ({variant}): "
                            f"{warm} + {main}, expected {want}")
    return problems


def check_simulate(doc: dict, x0: float = SIM_X0, T: int = SIM_T) -> list[str]:
    """growth_mean is (1/T) ln X_T, which carries ln(x0)/T on top of the
    growth of wealth; window_mean covers the second half of the horizon and
    has about twice the variance of the full-horizon mean."""
    problems = []
    if doc["annihilated_paths"]:
        problems.append(f"{doc['annihilated_paths']} paths annihilated")
        return problems
    se = doc["growth_se"]
    gap = doc["growth_mean"] - math.log(x0) / T - LAMBDA_REF
    if not abs(gap) <= Z * se + lambda_tol():
        problems.append(f"growth_mean - ln(x0)/T misses lambda by {gap:.3e} "
                        f"(se {se:.2e})")
    wgap = doc["window_mean"] - LAMBDA_REF
    if not abs(wgap) <= Z * math.sqrt(2.0) * se + lambda_tol():
        problems.append(f"window_mean misses lambda by {wgap:.3e} "
                        f"(se {se:.2e})")
    return problems


def check_path(res: dict) -> list[str]:
    problems = []
    if res["annihilated"]:
        problems.append(f"path {res['path']} annihilated")
    if res["floor_violations"]:
        problems.append(f"path {res['path']}: {res['floor_violations']} "
                        "wealth-floor violations")
    if res["share_error"]:
        problems.append(f"path {res['path']}: {res['share_error']}")
    return problems


def check_ldcheck(doc: dict) -> list[str]:
    problems = []
    if not doc["decaying"]:
        problems.append("tail probabilities do not decay")
    tol = Z * math.hypot(doc["slope_se"], LD_SLOPE_SE_REF)
    if not abs(doc["slope"] - LD_SLOPE_REF) <= tol:
        problems.append(f"slope {doc['slope']:.5f} misses {LD_SLOPE_REF:.5f} "
                        f"by more than {tol:.1e}")
    return problems


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_config(path: str, betas) -> None:
    doc = {"grid": {"simplex_order": MESH,
                    "wealth": {"x_min": X_MIN, "x_max": X_MAX, "n_x": N_X}},
           "betas": betas, "tolerances": {"tol": TOL}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class Workload:
    name = ""
    min_ops = 1

    def __init__(self, tmp: str, seed: int):
        self.tmp = tmp
        self.seed = seed
        self.model_path = modelio.bundled_model_path()
        self.answers: list = []
        self.latencies: list[float] = []  # per path, where an op has paths

    def _load(self):
        model, spec = modelio.load_model(self.model_path)
        grid = StateGrid.build(model.n_assets, MESH, model.n_factors,
                               x_min=X_MIN, x_max=X_MAX, n_x=N_X)
        return model, spec, grid

    def _solve_policy(self) -> list[str]:
        cfg = os.path.join(self.tmp, "setup.json")
        _write_config(cfg, SETUP_BETAS)
        self.policy_dir = os.path.join(self.tmp, "policy")
        rc = cli.main(["--config", cfg, "--model", self.model_path,
                       "--output-dir", self.policy_dir, "optimal"])
        return [] if rc == 0 else [f"set-up optimal exited {rc}"]

    def op_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def steps(self, result) -> int:
        return 0

    def check_trace(self, tracer, n_ops: int) -> list[str]:
        return []

    def summary(self) -> dict:
        """Answers of the run, short enough to print on one line."""
        return {"per_op": self.answers}


class Optimal(Workload):
    """CLI ``optimal`` at acceptance scale: all work is in ``dp``."""

    name = "optimal"

    def setup(self) -> list[str]:
        self._load()
        self.cfg = os.path.join(self.tmp, "optimal.json")
        _write_config(self.cfg, BETAS)
        return []

    def op(self, i: int):
        out = os.path.join(self.tmp, "out")
        return out, cli.main(["--config", self.cfg, "--model", self.model_path,
                              "--output-dir", out, "optimal"])

    def check(self, i: int, result) -> list[str]:
        out, rc = result
        if rc != 0:
            return [f"optimal exited {rc}"]
        doc = _read_json(os.path.join(out, "optimal.json"))
        self.answers.append({
            "lambda": doc["lambda"],
            "lambda_extrapolated": doc["lambda_extrapolated"],
            "min_slack": doc["residual_summary"]["min_slack"],
            "mean_slack": doc["residual_summary"]["mean_slack"],
            "main_sweeps": doc["diagnostics"]["iterations"]})
        return check_optimal(doc)

    def check_trace(self, tracer, n_ops: int) -> list[str]:
        reports = layers.solve_reports(tracer)
        self.answers.append({"traced_sweeps": sorted(set(reports))})
        return check_solve_reports(reports, n_ops)


class Simulate(Workload):
    """CLI ``simulate`` twice per operation: the mimicking strategy on the
    wealth-free policy, then the wealth-dependent grid policy."""

    name = "simulate"

    def setup(self) -> list[str]:
        self._load()
        return self._solve_policy()

    def op(self, i: int):
        rcs = []
        for mode, policy in (("auto", "policy_prop"), ("off", "policy")):
            out = os.path.join(self.tmp, mode)
            rcs.append((mode, out, cli.main([
                "--model", self.model_path, "--output-dir", out,
                "--T", str(SIM_T), "--n-paths", str(SIM_PATHS),
                "--seed", str(self.op_seed(i)), "simulate",
                "--policy", os.path.join(self.policy_dir, policy),
                "--mimic", mode])))
        return rcs

    def check(self, i: int, result) -> list[str]:
        problems = []
        for mode, out, rc in result:
            if rc != 0:
                problems.append(f"simulate --mimic {mode} exited {rc}")
                continue
            doc = _read_json(os.path.join(out, "simulate.json"))
            self.answers.append({k: doc[k] for k in (
                "mimicking", "seed", "growth_mean", "growth_se", "window_mean",
                "annihilated_paths")})
            problems += check_simulate(doc)
        return problems

    def steps(self, result) -> int:
        # average_growth plus the recorded trajectory of path 0
        return len(result) * (SIM_PATHS + 1) * SIM_T


def path_result(traj, constants, path: int) -> dict:
    """Wealth-floor and share-space checks of one simulated path."""
    floor = simulate.wealth_floor_check(traj, constants)
    share_error, residual = "", 0.0
    try:
        residual = simulate.to_share_holdings(traj, np.ones(traj.pi.shape[1])
                                              ).max_residual
    except RuntimeError as exc:
        share_error = str(exc)
    return {"path": path, "steps": traj.n_steps,
            "annihilated": bool(traj.annihilated),
            "floor_violations": floor.violations, "share_residual": residual,
            "share_error": share_error}


class Paths(Workload):
    """Short scalar ``simulate.run`` paths with both path checks, as in the
    wealth-floor acceptance criterion.  Paths come in pairs: one of the
    proportional policy on the zero-fixed spec, one of the mimicking
    strategy on the fixed spec.  An operation is a batch of pairs, long
    enough to span the machine's speed swings: a median over single paths
    flips between the fast and the slow state of the machine."""

    name = "paths"
    min_ops = 5  # 500 paths: p98 of the path latency has ten beyond it

    def setup(self) -> list[str]:
        model, spec, _ = self._load()
        problems = self._solve_policy()
        if problems:
            return problems
        base = modelio.load_policy(os.path.join(self.policy_dir, "policy_prop"))
        floor_rate, _ = growth_floor(model)
        self.constants = cost_constants(spec, floor_rate)
        self.model = model
        self.kinds = [
            (spec.without_fixed(), simulate.GridPolicyStrategy(base), PROP_X0),
            (spec, simulate.MimickingStrategy(
                build_mimicking(base, self.constants)), MIMIC_X0)]
        return []

    def op(self, i: int):
        results = []
        for stream in range(i * PATH_PAIRS, (i + 1) * PATH_PAIRS):
            for kind, (spec, strategy, x0) in enumerate(self.kinds):
                t = time.perf_counter()
                traj = simulate.run(self.model, spec, strategy, [0.5, 0.5], x0,
                                    0, PATH_T, seed=2 * self.seed + kind,
                                    stream=stream)
                results.append(path_result(traj, self.constants,
                                           2 * stream + kind))
                self.latencies.append(time.perf_counter() - t)
        return results

    def check(self, i: int, result) -> list[str]:
        self.answers += result
        return [p for res in result for p in check_path(res)]

    def steps(self, result) -> int:
        return sum(res["steps"] for res in result)

    def summary(self) -> dict:
        a = self.answers
        return {"paths": len(a),
                "floor_violations": sum(r["floor_violations"] for r in a),
                "annihilated": sum(r["annihilated"] for r in a),
                "max_share_residual": max(r["share_residual"] for r in a),
                "share_errors": sum(bool(r["share_error"]) for r in a)}


class Ldcheck(Workload):
    """CLI ``ldcheck`` at the large-deviations acceptance scale."""

    name = "ldcheck"

    def setup(self) -> list[str]:
        modelio.load_model(self.model_path)
        return []

    def op(self, i: int):
        out = os.path.join(self.tmp, "out")
        return out, cli.main(["--model", self.model_path, "--output-dir", out,
                              "--n-paths", str(LD_PATHS),
                              "--seed", str(self.op_seed(i)), "ldcheck",
                              "--t-max", str(LD_T_MAX)])

    def check(self, i: int, result) -> list[str]:
        out, rc = result
        if rc != 0:
            return [f"ldcheck exited {rc}"]
        doc = _read_json(os.path.join(out, "ldcheck.json"))
        self.answers.append({k: doc[k] for k in ("slope", "slope_se",
                                                 "decaying")})
        return check_ldcheck(doc)

    def steps(self, result) -> int:
        return LD_PATHS * LD_T_MAX


WORKLOADS = {w.name: w for w in (Optimal, Simulate, Paths, Ldcheck)}
