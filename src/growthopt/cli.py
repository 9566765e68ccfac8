"""Batch front door: validate / solve / optimal / simulate / ldcheck / verify.

Every subcommand loads a model JSON (plus costs), runs one stage of the
pipeline and writes its artifacts atomically into the output directory
together with a manifest recording inputs, content hashes, package version
and wall time, in total and per stage.  Every JSON file it writes is
strict JSON: a number that is not finite is written as ``null``.
Configuration comes from an optional JSON config file with flag overrides;
there is no interactive mode.

Exit codes: 0 success, 1 domain or assumption failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, average, dp, market, modelio, simulate, verify
from .costs import cost_constants, worst_case_drag
from .grid import StateGrid, check_settings


@dataclass
class RunConfig:
    model_path: str = ""
    mesh_order: int = 8
    x_min: float = 1e-3
    x_max: float = 1e4
    n_x: int = 16
    betas: list = field(default_factory=lambda: [0.9, 0.99, 0.995, 0.999])
    tol: float = 1e-6
    T: int = 2000
    n_paths: int = 100
    seed: int = 12345
    x0: float = 100.0
    z0: int = 0
    output_dir: str = "out"

    def validate_fields(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be a finite number > 0, "
                             f"got {self.tol!r}")
        check_settings(mesh_order=self.mesh_order, x_min=self.x_min,
                       x_max=self.x_max, n_x=self.n_x)


# keys of each config file section; each sets the RunConfig field of its
# name, except grid.simplex_order, which sets mesh_order
_CONFIG_KEYS = {(): ("model_path", "betas", "output_dir"),
                ("grid",): ("simplex_order",),
                ("grid", "wealth"): ("x_min", "x_max", "n_x"),
                ("tolerances",): ("tol",),
                ("simulation",): ("T", "n_paths", "seed", "x0", "z0")}


_FIELD_TYPES = typing.get_type_hints(RunConfig)
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list of numbers"}


def _fits(val, kind) -> bool:
    """Whether a config value suits a RunConfig field of type ``kind``: a
    bool is not an int, and an int is accepted as a float."""
    if kind is list:
        return isinstance(val, list) and all(_fits(v, float) for v in val)
    if kind is float:
        kind = (int, float)
    return isinstance(val, kind) and not isinstance(val, bool)


def _config_fields(doc, section=()) -> dict:
    """RunConfig fields set by one config section and the sections in it."""
    name = f"section {'.'.join(section)}" if section else "top level"
    if not isinstance(doc, dict):
        raise ValueError(f"config {name} must be a JSON object")
    fields = {}
    for key, val in doc.items():
        if section + (key,) in _CONFIG_KEYS:
            fields.update(_config_fields(val, section + (key,)))
        elif key in _CONFIG_KEYS[section]:
            attr = "mesh_order" if key == "simplex_order" else key
            kind = _FIELD_TYPES[attr]
            if not _fits(val, kind):
                raise ValueError(f"config key {key!r} must be "
                                 f"{_TYPE_NAMES[kind]}, got {val!r}")
            fields[attr] = val
        else:
            raise ValueError(f"unknown config key {key!r} in {name}")
    return fields


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        cfg = RunConfig(**_config_fields(doc))
    for name in ("model", "output_dir", "seed", "T", "n_paths", "mesh_order",
                 "x_max"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, "model_path" if name == "model" else name, val)
    cfg.validate_fields()
    return cfg


def _plain(obj):
    """``obj`` with numpy values made Python ones and every non-finite
    number made None, so that it dumps as strict JSON (``null``)."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(doc: dict) -> str:
    return json.dumps(_plain(doc), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


class Runner:
    def __init__(self, cfg: RunConfig, command: str):
        self.cfg = cfg
        self.command = command
        self.started = time.time()
        self.outputs = {}
        self.stage_seconds = {}
        self.model, self.spec = modelio.load_model(cfg.model_path)
        if self.spec is None:
            raise ValueError("model file carries no 'costs' section")
        # the mesh's node count needs the model's asset count
        check_settings(n_assets=self.model.n_assets,
                       mesh_order=cfg.mesh_order)
        self.model_hash = modelio.model_fingerprint(self.model, self.spec)

    def grid(self) -> StateGrid:
        c = self.cfg
        return StateGrid.build(self.model.n_assets, c.mesh_order,
                               self.model.n_factors, x_min=c.x_min,
                               x_max=c.x_max, n_x=c.n_x)

    def out(self, name: str) -> str:
        return f"{self.cfg.output_dir}/{name}"

    def write_text(self, name: str, text: str):
        path = self.out(name)
        modelio.atomic_write_text(path, text)
        self.outputs[name] = _sha256(path)

    def write_json(self, name: str, doc: dict):
        self.write_text(name, _json_text(doc))

    def register(self, name: str):
        self.outputs[name] = _sha256(self.out(name))

    @contextlib.contextmanager
    def stage(self, name: str):
        """Record the wall seconds of the block as the stage ``name``."""
        clock = time.perf_counter()
        yield
        self.stage_seconds[name] = time.perf_counter() - clock

    def finish(self):
        manifest = {
            "command": self.command,
            "package_version": __version__,
            "config": asdict(self.cfg),
            "model_hash": self.model_hash,
            "outputs": self.outputs,
            "timing": {
                "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                            time.gmtime(self.started)),
                "wall_time_s": round(time.time() - self.started, 3),
                "stages_s": {k: round(v, 6)
                             for k, v in self.stage_seconds.items()},
            },
        }
        modelio.atomic_write_text(self.out("manifest.json"),
                                  _json_text(manifest))


def cmd_validate(cfg: RunConfig) -> int:
    # loading the model ran the structural checks: a model that was built
    # is row stochastic with finite, positive returns
    runner = Runner(cfg, "validate")
    n, kappa = market.mixing_step(runner.model)
    ok = n is not None
    doc = {"checks": {"uniform_mixing": {
        "passed": ok,
        "detail": f"kappa_{n} = {kappa:.6f}" if ok
        else f"kappa_n = 1 for all n <= {market.MIXING_HORIZON}"}}}
    if ok:
        # a stationary floor rate above the worst proportional drag is the
        # condition for wealth to grow under any admissible strategy
        eta = worst_case_drag(runner.spec)
        floor_rate, _ = market.growth_floor(runner.model)
        exceeds = bool(eta < floor_rate)
        doc.update(kappa=kappa, mixing_step=n, floor_rate=floor_rate, eta=eta,
                   growth_exceeds_drag=exceeds,
                   stationary=market.invariant_measure(runner.model).tolist())
        if not exceeds:
            ok = False
            doc["checks"]["growth_exceeds_drag"] = {
                "passed": False,
                "detail": f"eta {eta:.6g} >= floor rate {floor_rate:.6g}",
            }
        else:
            try:
                cc = cost_constants(runner.spec, floor_rate)
                doc["constants"] = {
                    "eta_m": cc.eta_m,
                    "wealth_threshold": cc.wealth_threshold,
                    "resync_wealth": cc.resync_wealth,
                    "x_star": cc.x_star,
                }
            except ValueError as exc:
                ok = False
                doc["checks"]["cost_constants"] = {"passed": False,
                                                   "detail": str(exc)}
    doc["ok"] = ok
    runner.write_json("validate.json", doc)
    runner.finish()
    for name, entry in doc["checks"].items():
        print(f"[{'PASS' if entry['passed'] else 'FAIL'}] {name}: {entry['detail']}")
    if ok:
        print(f"kappa={doc['kappa']:.6f} floor_rate={doc['floor_rate']:.6g} "
              f"eta={doc['eta']:.6g}")
    return 0 if ok else 1


def cmd_solve(cfg: RunConfig, beta: float) -> int:
    runner = Runner(cfg, "solve")
    with runner.stage("solve"):
        tables = dp.build_tables(runner.model, runner.spec, runner.grid())
        vf, pol, rep = dp.solve_discounted(tables, beta, tol=cfg.tol)
    modelio.dump_solution(vf, pol, runner.out("value_beta"), runner.model_hash,
                          seed=cfg.seed)
    runner.register("value_beta.csv")
    runner.register("value_beta.json")
    runner.write_json("solve_report.json", {
        "beta": beta, "variant": rep.variant, "iterations": rep.iterations,
        "init_iterations": rep.init_iterations, "final_diff": rep.final_diff,
        "error_bound": rep.error_bound,
    })
    runner.finish()
    print(f"solved beta={beta} ({rep.variant}) in {rep.iterations} iterations; "
          f"sup-norm error <= {rep.error_bound:.2e}")
    return 0


def cmd_optimal(cfg: RunConfig) -> int:
    runner = Runner(cfg, "optimal")
    report = average.vanishing_discount(runner.model, runner.spec,
                                        runner.grid(), cfg.betas, tol=cfg.tol)
    runner.stage_seconds.update(report.stage_seconds)
    with runner.stage("dump"):
        for base, value, policy in (
                ("policy", report.value, report.policy),
                ("policy_prop", report.prop_value, report.prop_policy)):
            modelio.dump_solution(value, policy, runner.out(base),
                                  runner.model_hash, seed=cfg.seed)
            runner.register(f"{base}.csv")
            runner.register(f"{base}.json")
    doc = report.to_json_dict()
    doc["policy_ref"] = "policy"
    runner.write_json("optimal.json", doc)
    runner.finish()
    print(f"growth rate {report.growth_rate:.6f} "
          f"(extrapolated {report.growth_rate_extrapolated:.6f}); "
          f"estimates per beta: "
          + ", ".join(f"{b}:{l:.6f}" for b, l in zip(report.betas,
                                                     report.growth_estimates)))
    return 0


def cmd_simulate(cfg: RunConfig, policy_base: str, mimic: str) -> int:
    runner = Runner(cfg, "simulate")
    policy = modelio.load_policy(policy_base)
    if policy.model_hash != runner.model_hash:
        g, m = policy.grid, runner.model
        raise ValueError(
            f"policy {policy_base} does not fit model {cfg.model_path}: "
            f"policy has model_hash {policy.model_hash}, {g.n_assets} assets, "
            f"{g.n_z} factor states; model has model_hash "
            f"{runner.model_hash}, {m.n_assets} assets, {m.n_factors} "
            "factor states")
    wants_mimic = (mimic == "on") or (mimic == "auto" and policy.wealth_free
                                      and runner.spec.fixed > 0)
    if wants_mimic:
        if not policy.wealth_free:
            raise ValueError("mimicking requires a wealth-free base policy")
        floor_rate, _ = market.growth_floor(runner.model)
        constants = cost_constants(runner.spec, floor_rate)
        strategy = simulate.MimickingStrategy(
            average.build_mimicking(policy, constants))
    else:
        strategy = simulate.GridPolicyStrategy(policy)
    pi0 = np.full(runner.model.n_assets, 1.0 / runner.model.n_assets)
    est = simulate.average_growth(runner.model, runner.spec, strategy, pi0,
                                  cfg.x0, cfg.z0, cfg.T, cfg.n_paths, cfg.seed)
    runner.write_text("trajectory.csv", modelio.trajectory_csv(est.trajectory))
    runner.write_json("simulate.json", {
        "growth_mean": est.mean, "growth_se": est.std_error,
        "window_mean": est.window_mean, "T": est.T, "n_paths": est.n_paths,
        "annihilated_paths": est.annihilated_paths, "seed": cfg.seed,
        "policy_ref": policy_base, "mimicking": bool(wants_mimic),
    })
    runner.finish()
    print(f"growth {est.mean:.6f} +- {est.std_error:.2e} "
          f"({est.n_paths} paths, T={est.T})"
          + (f"; {est.annihilated_paths} paths annihilated" if est.flagged else ""))
    return 1 if est.flagged else 0


def cmd_ldcheck(cfg: RunConfig, eps, t_max: int) -> int:
    # horizons are t_max // 8 times {1, 2, 3, 4, 6, 8}, the shortest >= 4
    if t_max < 32:
        raise ValueError(f"--t-max must be at least 32, got {t_max}")
    runner = Runner(cfg, "ldcheck")
    floor_rate, floor_returns = market.growth_floor(runner.model)
    if eps is None:
        log_floor = np.log(floor_returns)
        eps = 0.25 * (floor_rate - float(log_floor.min()))
        # a constant floor makes eps 0, or a rounding error away from it
        if not eps > 0.0 or log_floor.min() == log_floor.max():
            raise ValueError(
                "the worst-asset log return does not vary, so the default "
                "eps, a quarter of its stationary mean minus its minimum, "
                "is 0: give --eps")
    base = t_max // 8
    t_grid = [base * k for k in (1, 2, 3, 4, 6, 8)]
    result = simulate.ld_tail(runner.model, t_grid, eps, cfg.n_paths, cfg.seed)
    runner.write_text("ld_tail.csv", modelio.ld_tail_csv(result))
    runner.write_json("ldcheck.json", {
        "eps": eps, "slope": result.slope, "slope_se": result.slope_se,
        "decaying": result.decaying(), "floor_rate": result.floor_rate,
    })
    runner.finish()
    print(f"tail slope {result.slope:.5f} +- {result.slope_se:.5f} "
          f"({'decaying' if result.decaying() else 'no decay detected'})")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    runner = Runner(cfg, "verify")
    results = verify.run_all(runner.model, runner.spec, seed=cfg.seed)
    for res in results:
        print(res.line())
    runner.write_json("verify.json", {
        r.name: {"passed": r.passed, "detail": r.detail} for r in results})
    runner.finish()
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="growthopt",
                                description=__doc__.splitlines()[0])
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--model", help="model JSON path (overrides config)")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--T", type=int, dest="T")
    p.add_argument("--n-paths", type=int, dest="n_paths")
    p.add_argument("--mesh-order", type=int, dest="mesh_order")
    p.add_argument("--x-max", type=float, dest="x_max")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate")
    sp = sub.add_parser("solve")
    sp.add_argument("--beta", type=float, required=True)
    sub.add_parser("optimal")
    sp = sub.add_parser("simulate")
    sp.add_argument("--policy", required=True,
                    help="path base of a policy dump (without extension)")
    sp.add_argument("--mimic", choices=["auto", "on", "off"], default="auto")
    sp = sub.add_parser("ldcheck")
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--t-max", type=int, default=256, dest="t_max",
                    help="longest horizon (at least 32)")
    sub.add_parser("verify")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if not cfg.model_path:
            print("error: no model file given (use --model or a config file)",
                  file=sys.stderr)
            return 2
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "solve":
            return cmd_solve(cfg, args.beta)
        if args.command == "optimal":
            return cmd_optimal(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.policy, args.mimic)
        if args.command == "ldcheck":
            return cmd_ldcheck(cfg, args.eps, args.t_max)
        if args.command == "verify":
            return cmd_verify(cfg)
        return 2
    except (ValueError, RuntimeError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
