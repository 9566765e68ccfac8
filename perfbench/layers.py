"""Layer boundaries of growthopt and the per-layer metrics built from spans.

Modules import their collaborators by name (``from .costs import
solve_e_batch``), so each wrapper is installed on the name the caller looks
up, not on the defining module.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import numpy as np

from spans import Tracer, self_times

# name, unit of every per-layer metric, in the order they are reported
METRICS = [
    ("dp.build_tables_s", "s"),
    ("dp.build_tables_calls", "count"),
    ("dp.solve_discounted_s", "s"),
    ("dp.sweeps.fixed", "count"),
    ("dp.sweeps.prop", "count"),
    ("dp.us_per_sweep.fixed", "us"),
    ("dp.us_per_sweep.prop", "us"),
    ("dp.table_bytes", "bytes-computed"),
    ("average.vanishing_discount_self_s", "s"),
    ("average.bellman_residual_s", "s"),
    ("costs.solve_e_batch_s", "s"),
    ("costs.solve_e_batch_calls", "count"),
    ("costs.solve_e_batch_rows", "count"),
    ("costs.us_per_row", "us"),
    ("market.sample_factor_paths_s", "s"),
    ("market.sample_factor_paths_calls", "count"),
    ("market.draws", "count"),
    ("rng.make_rng_calls", "count"),
    ("grid.nearest_node_s", "s"),
    ("grid.nearest_node_calls", "count"),
    ("simulate.decide_batch_s", "s"),
    ("simulate.decide_batch_calls", "count"),
    ("simulate.average_growth_self_s", "s"),
    ("simulate.us_per_path_step", "us"),
    ("simulate.run_self_s", "s"),
    ("simulate.wealth_floor_check_s", "s"),
    ("simulate.to_share_holdings_s", "s"),
    ("simulate.trade_rate", "rows/step"),
    ("simulate.annihilated_paths", "count"),
    ("simulate.ld_tail_self_s", "s"),
    ("modelio.dump_solution_s", "s"),
    ("modelio.load_policy_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _table_bytes(tables):
    return {"bytes": sum(v.nbytes for v in vars(tables).values()
                         if isinstance(v, np.ndarray))}


def _sweeps(result):
    rep = result[2]
    return {"variant": rep.variant, "beta": rep.beta,
            "warm": rep.init_iterations, "main": rep.iterations}


def _rows_from(caller):
    return lambda e: {"rows": int(np.shape(e)[0]), "caller": caller}


def _draws(result):
    z = result[0]
    return {"draws": 2 * z.shape[0] * (z.shape[1] - 1)}


def _estimate(est):
    return {"steps": est.n_paths * est.T, "annihilated": est.annihilated_paths}


def _trajectory(traj):
    return {"steps": traj.n_steps, "annihilated": int(traj.annihilated)}


def targets():
    """(owner, attribute, span name, post hook) for every wrapped call."""
    from growthopt import average, cli, dp, modelio, simulate
    from growthopt.grid import StateGrid

    out = [
        (cli, "main", "cli.main", None),
        (modelio, "dump_solution", "modelio.dump_solution", None),
        (modelio, "load_policy", "modelio.load_policy", None),
        (average, "vanishing_discount", "average.vanishing_discount", None),
        (average, "bellman_residual", "average.bellman_residual", None),
        (average, "build_tables", "dp.build_tables", _table_bytes),
        (average, "solve_discounted", "dp.solve_discounted", _sweeps),
        (dp, "solve_e_batch", "costs.solve_e_batch", _rows_from("dp")),
        (simulate, "solve_e_batch", "costs.solve_e_batch",
         _rows_from("simulate")),
        (simulate, "sample_factor_paths", "market.sample_factor_paths", _draws),
        (simulate, "make_rng", "rng.make_rng", None),
        (StateGrid, "nearest_node", "grid.nearest_node", None),
        (simulate, "average_growth", "simulate.average_growth", _estimate),
        (simulate, "run", "simulate.run", _trajectory),
        (simulate, "wealth_floor_check", "simulate.wealth_floor_check", None),
        (simulate, "to_share_holdings", "simulate.to_share_holdings", None),
        (simulate, "ld_tail", "simulate.ld_tail", None),
    ]
    for cls in vars(simulate).values():
        if (isinstance(cls, type) and issubclass(cls, simulate.Strategy)
                and "decide_batch" in vars(cls)):
            out.append((cls, "decide_batch", "simulate.decide_batch", None))
    return out


def install(tracer: Tracer) -> None:
    for owner, attr, name, post in targets():
        tracer.install(owner, attr, name, post)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _counts(span, self_s) -> dict:
    """Work counted on one span, keyed below the span's name."""
    a = span.attrs or {}
    out = {"s": span.duration, "self": self_s, "calls": 1}
    if span.name == "dp.solve_discounted":
        out["sweeps." + a["variant"]] = a["warm"] + a["main"]
        out["self." + a["variant"]] = self_s
    elif span.name == "costs.solve_e_batch":
        out["rows"] = a["rows"]
        out["rows." + a["caller"]] = a["rows"]
    elif span.name == "market.sample_factor_paths":
        out["draws"] = a["draws"]
    elif span.name in ("simulate.average_growth", "simulate.run"):
        out["steps"] = a["steps"]
        out["annihilated"] = a["annihilated"]
    return out


def layer_metrics(tracer: Tracer, timed_ops: int, overhead_s: float) -> dict:
    """Per-layer figures of one timed operation.

    Spans of the timed phase are summed and divided by the number of
    operations it ran.  A layer that no timed operation reaches reports its
    figures from the traced set-up instead, so that on ``simulate`` and
    ``paths`` the ``dp`` metrics describe the policy solve of one set-up.
    """
    phases = {"setup": {}, "timed": {}}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        per = phases[span.phase].setdefault(span.name, {})
        for key, value in _counts(span, self_s).items():
            per[key] = per.get(key, 0.0) + value
    tot: dict[str, float] = {}
    for name in phases["setup"].keys() | phases["timed"].keys():
        if name in phases["timed"]:
            per = {k: v / timed_ops for k, v in phases["timed"][name].items()}
        else:
            per = phases["setup"][name]
        tot.update({f"{name}.{k}": v for k, v in per.items()})
    tot["dp.table_bytes"] = max(
        [float(s.attrs["bytes"]) for s in tracer.spans
         if s.name == "dp.build_tables"], default=0.0)

    g = lambda key: tot.get(key, 0.0)
    steps = g("simulate.average_growth.steps") + g("simulate.run.steps")
    sim_s = g("simulate.average_growth.s") + g("simulate.run.s")
    return {
        "dp.build_tables_s": g("dp.build_tables.s"),
        "dp.build_tables_calls": g("dp.build_tables.calls"),
        "dp.solve_discounted_s": g("dp.solve_discounted.s"),
        "dp.sweeps.fixed": g("dp.solve_discounted.sweeps.fixed"),
        "dp.sweeps.prop": g("dp.solve_discounted.sweeps.proportional"),
        "dp.us_per_sweep.fixed": _ratio(
            g("dp.solve_discounted.self.fixed"),
            g("dp.solve_discounted.sweeps.fixed"), 1e6),
        "dp.us_per_sweep.prop": _ratio(
            g("dp.solve_discounted.self.proportional"),
            g("dp.solve_discounted.sweeps.proportional"), 1e6),
        "dp.table_bytes": g("dp.table_bytes"),
        "average.vanishing_discount_self_s":
            g("average.vanishing_discount.self"),
        "average.bellman_residual_s": g("average.bellman_residual.s"),
        "costs.solve_e_batch_s": g("costs.solve_e_batch.s"),
        "costs.solve_e_batch_calls": g("costs.solve_e_batch.calls"),
        "costs.solve_e_batch_rows": g("costs.solve_e_batch.rows"),
        "costs.us_per_row": _ratio(g("costs.solve_e_batch.s"),
                                   g("costs.solve_e_batch.rows"), 1e6),
        "market.sample_factor_paths_s": g("market.sample_factor_paths.s"),
        "market.sample_factor_paths_calls":
            g("market.sample_factor_paths.calls"),
        "market.draws": g("market.sample_factor_paths.draws"),
        "rng.make_rng_calls": g("rng.make_rng.calls"),
        "grid.nearest_node_s": g("grid.nearest_node.s"),
        "grid.nearest_node_calls": g("grid.nearest_node.calls"),
        "simulate.decide_batch_s": g("simulate.decide_batch.self"),
        "simulate.decide_batch_calls": g("simulate.decide_batch.calls"),
        "simulate.average_growth_self_s": g("simulate.average_growth.self"),
        "simulate.us_per_path_step": _ratio(sim_s, steps, 1e6),
        "simulate.run_self_s": g("simulate.run.self"),
        "simulate.wealth_floor_check_s": g("simulate.wealth_floor_check.s"),
        "simulate.to_share_holdings_s": g("simulate.to_share_holdings.s"),
        "simulate.trade_rate": _ratio(g("costs.solve_e_batch.rows.simulate"),
                                      steps),
        "simulate.annihilated_paths": (g("simulate.average_growth.annihilated")
                                      + g("simulate.run.annihilated")),
        "simulate.ld_tail_self_s": g("simulate.ld_tail.self"),
        "modelio.dump_solution_s": g("modelio.dump_solution.s"),
        "modelio.load_policy_s": g("modelio.load_policy.s"),
        "cli.self_s": g("cli.main.self"),
        "trace.overhead_s": overhead_s,
    }


def solve_reports(tracer: Tracer) -> list:
    """(beta, variant, warm-start sweeps, main sweeps) of every timed solve."""
    return [(s.attrs["beta"], s.attrs["variant"], s.attrs["warm"],
             s.attrs["main"])
            for s in tracer.spans
            if s.name == "dp.solve_discounted" and s.phase == "timed"]
