"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from run import Tally, measure  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def record(tracer, *events):
    """Open a span for each name and close it for each ``None``."""
    open_ = []
    for name in events:
        if name is None:
            tracer.end(open_.pop())
        else:
            open_.append(tracer.begin(name))


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 7]
    tr = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 7, 10]))
    record(tr, "root", "a", "g", None, None, "b", None, None)
    names = [s.name for s in tr.spans]
    assert names == ["root", "a", "g", "b"]
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
    assert self_times(tr.spans) == [5, 2, 1, 2]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, -1, "timed"), Span("a", 1.0, 0, "timed"),
             Span("b", 3.0, 0, "timed")]
    spans[0].end, spans[1].end, spans[2].end = 10.0, 4.0, 6.0
    assert self_times(spans) == [5.0, 3.0, 3.0]


def test_spans_close_in_order():
    tr = Tracer(clock=fake_clock(range(10)))
    outer = tr.begin("outer")
    tr.begin("inner")
    try:
        tr.end(outer)
    except RuntimeError:
        pass
    else:
        raise AssertionError("closing the outer span first must fail")


def test_wrappers_record_and_restore_originals():
    import growthopt.simulate as sim

    before = [(owner, attr, vars(owner)[attr])
              for owner, attr, _, _ in layers.targets()]
    tr = Tracer()
    layers.install(tr)
    try:
        for owner, attr, original in before:
            assert getattr(owner, attr).__wrapped__ is original
        sim.make_rng(1, 2)
    finally:
        tr.uninstall()
    assert [s.name for s in tr.spans] == ["rng.make_rng"]
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


def reference_optimal_doc(**changes):
    doc = {"lambda": workloads.LAMBDA_REF,
           "lambda_extrapolated": workloads.LAMBDA_EXTRAP_REF,
           "residual_summary": {"min_slack": workloads.MIN_SLACK_REF,
                                "mean_slack": workloads.MEAN_SLACK_REF},
           "diagnostics": {"iterations": {
               str(b): [v["proportional"][1], v["fixed"][1]]
               for b, v in workloads.SWEEPS_REF.items()}}}
    doc.update(changes)
    return doc


def test_reference_answers_pass():
    assert workloads.check_optimal(reference_optimal_doc()) == []
    reports = [(b, var, *sw) for b, per in workloads.SWEEPS_REF.items()
               for var, sw in per.items()]
    assert workloads.check_solve_reports(reports, 1) == []


def test_wrong_lambda_raises_fail_frac():
    tally = Tally()
    tally.record(workloads.check_optimal(reference_optimal_doc()))
    tally.record(workloads.check_optimal(
        reference_optimal_doc(**{"lambda": workloads.LAMBDA_REF + 1e-6})))
    assert tally.failed == 1 and tally.fail_frac == 0.5


def test_changed_sweep_count_fails():
    reports = [(0.999, "fixed", 20284, 19046)]
    assert workloads.check_solve_reports(reports, 1)


def test_simulate_check_removes_initial_wealth_term():
    se = 1.4e-4
    doc = {"annihilated_paths": 0, "growth_se": se,
           "window_mean": workloads.LAMBDA_REF,
           "growth_mean": workloads.LAMBDA_REF
           + math.log(workloads.SIM_X0) / workloads.SIM_T}
    assert workloads.check_simulate(doc) == []
    doc["growth_mean"] = workloads.LAMBDA_REF + 6 * se
    assert workloads.check_simulate(doc)


def test_forced_floor_violation_raises_fail_frac():
    import growthopt as go

    model, spec = go.load_model(go.bundled_model_path())
    floor_rate, _ = go.growth_floor(model)
    constants = go.cost_constants(spec, floor_rate)
    traj = go.run(model, spec, go.NoTransactionStrategy(), [0.5, 0.5], 50.0,
                  0, 20, seed=1)
    tally = Tally()
    tally.record(workloads.check_path(workloads.path_result(traj, constants, 0)))
    traj.x_prev[10:] *= 0.5
    traj.x[10:] *= 0.5
    res = workloads.path_result(traj, constants, 1)
    assert res["floor_violations"] > 0
    tally.record(workloads.check_path(res))
    assert tally.failed == 1 and tally.fail_frac > 0


def test_ldcheck_check_uses_both_standard_errors():
    se = workloads.LD_SLOPE_SE_REF
    tol = workloads.Z * math.hypot(se, se)
    ok = {"decaying": True, "slope": workloads.LD_SLOPE_REF + 0.9 * tol,
          "slope_se": se}
    assert workloads.check_ldcheck(ok) == []
    assert workloads.check_ldcheck(dict(ok, slope=ok["slope"] + 0.2 * tol))
    assert workloads.check_ldcheck(dict(ok, decaying=False))


def test_layer_metrics_per_timed_operation_else_setup():
    tr = Tracer(clock=fake_clock([0, 1, 1, 2, 2, 3, 4, 6, 7, 9]))
    record(tr, "dp.build_tables", None, "rng.make_rng", None)
    tr.spans[0].attrs = {"bytes": 100}
    tr.phase = "timed"
    record(tr, *["rng.make_rng", None] * 3)
    m = layers.layer_metrics(tr, 3, 0.0)
    # build_tables ran only in set-up; make_rng counts its timed calls only
    assert m["dp.build_tables_calls"] == 1 and m["dp.build_tables_s"] == 1
    assert m["rng.make_rng_calls"] == 1
    assert m["dp.table_bytes"] == 100
    assert set(m) == {name for name, _ in layers.METRICS}
    assert all(np.isfinite(v) for v in m.values())


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.METRICS
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mb"}


def test_rescale_takes_the_mean_of_the_probes_around_an_interval():
    assert speed.rescale(4.0, speed.REF_S, speed.REF_S) == 4.0
    # a machine running at half speed doubles both the interval and probes
    assert math.isclose(speed.rescale(8.0, 1.5 * speed.REF_S,
                                      2.5 * speed.REF_S), 4.0)


class SleepWorkload:
    def __init__(self, wall):
        self.wall = wall

    def op(self, i):
        import time
        time.sleep(self.wall)
        return i

    def check(self, i, result):
        return []

    def steps(self, result):
        return 1


def test_measure_starts_no_operation_that_would_overrun():
    import time
    tally = Tally()
    start = time.perf_counter()
    probes = [speed.probe()]
    walls, scaled, steps = measure(SleepWorkload(0.05), 1.0, tally, probes)
    # each operation takes its sleep plus one probe
    assert time.perf_counter() - start < 1.5
    assert len(walls) == len(scaled) == steps == tally.attempted >= 1
    assert len(probes) == len(walls) + 1
    walls, _, _ = measure(SleepWorkload(0.0), 0.0, tally, probes, min_ops=3)
    assert len(walls) == 3
