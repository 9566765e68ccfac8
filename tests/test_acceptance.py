"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything runs at desk scale on the bundled two-asset model (or small
purpose-built models) within minutes.  Tolerances are pinned here, not
calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import growthopt as go
from growthopt.costs import min_diminution, min_trade_wealth, transaction_equation

from conftest import ACCEPTANCE_LINES

BETAS = [0.9, 0.99, 0.995, 0.999]


def record(num: int, ok: bool, detail: str):
    ACCEPTANCE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def bundle():
    return go.load_model(go.bundled_model_path())


@pytest.fixture(scope="module")
def grid_main(bundle):
    model, _ = bundle
    return go.StateGrid.build(model.n_assets, 8, model.n_factors,
                              x_min=1e-3, x_max=1e4, n_x=16)


@pytest.fixture(scope="module")
def cross_main(bundle, grid_main):
    model, spec = bundle
    return go.cross_check_costs(model, spec, grid_main, BETAS, tol=1e-7)


def random_cost_batches(n_specs, per_spec, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_specs):
        d = int(rng.integers(1, 4))
        spec = go.CostSpec(
            buy=rng.uniform(0.0, 0.04, d),
            sell=rng.uniform(0.0, 0.04, d),
            fixed=float(rng.uniform(0.0, 0.6)) if rng.random() < 0.75 else 0.0,
            variant="max" if rng.random() < 0.3 else "additive",
        )
        prev = rng.dirichlet(np.ones(d), per_spec)
        new = rng.dirichlet(np.ones(d), per_spec)
        x = rng.uniform(0.05, 60.0, per_spec)
        yield spec, prev, new, x, rng


def test_criterion_1_e_solver_exactness():
    t0 = time.monotonic()
    n_total = 0
    worst_gap = 0.0
    worst_eq = 0.0
    for spec, prev, new, x, _ in random_cost_batches(50, 200, seed=101):
        exact = go.solve_e_batch(spec, prev, new, x)
        oracle = go.bisect_e(spec, prev, new, x)
        worst_gap = max(worst_gap, float(np.abs(exact - oracle).max()))
        if np.any((exact > 0) != (oracle > 0)):
            record(1, False, "root/zero dichotomy disagrees with the oracle")
        pos = np.nonzero(exact > 0)[0]
        sub = pos[:: max(1, len(pos) // 40)]
        for i in sub:
            worst_eq = max(worst_eq, abs(
                transaction_equation(spec, prev[i], new[i], x[i], exact[i]) - 1.0))
        n_total += len(prev)
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-10 and worst_eq <= 1e-12 and elapsed < 5.0
    record(1, ok, f"{n_total} samples, max |exact-bisect| {worst_gap:.1e}, "
                  f"max |F(e)-1| {worst_eq:.1e}, {elapsed:.2f}s")


def test_criterion_2_diminution_bound_suite():
    violations = 0
    n_total = 0
    for spec, prev, new, x, rng in random_cost_batches(50, 200, seed=202):
        c_hat = spec.max_rate
        sell_max = float(spec.sell.max())
        e_prop = go.solve_e_batch(spec.without_fixed(), prev, new,
                                  np.ones(len(prev)))
        e = go.solve_e_batch(spec, prev, new, x)
        # worst-case drag bounds
        violations += int((1 - e_prop > 2 * c_hat / (1 - c_hat) + 1e-12).sum())
        violations += int(
            (1 - e > (2 * c_hat + spec.fixed / x) / (1 - c_hat) + 1e-12).sum())
        # monotone in wealth, capped by the proportional fraction
        x_lo = x * rng.uniform(0.1, 1.0, len(x))
        e_lo = go.solve_e_batch(spec, prev, new, x_lo)
        violations += int((e_lo > e + 1e-12).sum())
        violations += int((e > e_prop + 1e-12).sum())
        if spec.fixed > 0:
            x_star = min_trade_wealth(spec)
            x_hi = np.maximum(x, x_star * 1.25)
            e_hi = go.solve_e_batch(spec, prev, new, x_hi)
            cap = spec.fixed / ((1 - sell_max) * x_hi)
            violations += int((e_prop - e_hi > cap + 1e-12).sum())
            m = x_star * 1.5
            floor_m = min_diminution(spec, m)
            sample = go.solve_e_batch(spec, prev, new, np.full(len(prev), m))
            sample = sample[sample > 0]
            if sample.size and sample.min() < floor_m - 1e-12:
                violations += 1  # vertex pairs failed to bound the infimum
            x_m = np.maximum(x, m)
            e_m = go.solve_e_batch(spec, prev, new, x_m)
            log_cap = spec.fixed / ((1 - sell_max) * x_m * floor_m)
            violations += int((np.log(e_prop / e_m) > log_cap + 1e-12).sum())
        n_total += len(prev)
    record(2, violations == 0,
           f"{n_total} samples across 50 random cost specs, "
           f"{violations} violations")


def test_criterion_3_discounted_solver_oracle(bundle):
    model, _ = bundle
    free = go.CostSpec(buy=[0.0, 0.0], sell=[0.0, 0.0], fixed=0.0)
    grid = go.StateGrid.build(2, 8, 2)
    beta = 0.95
    vf, _, _ = go.solve_discounted(go.build_tables(model, free, grid),
                                   beta, tol=1e-8)
    # independent oracle: free rebalancing collapses the state to the factor
    h = np.array([[go.expected_log_return(model, node, z) for z in range(2)]
                  for node in grid.nodes])
    v_or = np.zeros(2)
    for _ in range(3000):
        v_or = h.max(axis=0) + beta * (model.transition @ v_or)
    sup_gap = float(np.abs(vf.values - v_or[None, :]).max())

    tables = go.build_tables(model, free, grid)
    rng = np.random.default_rng(3)
    contraction_ok = True
    for _ in range(100):
        a, b = rng.normal(size=(2, grid.n_nodes, 2))
        ta = go.bellman_step(go.ValueFunction(grid, a, beta), tables).values
        tb = go.bellman_step(go.ValueFunction(grid, b, beta), tables).values
        if np.abs(ta - tb).max() > beta * np.abs(a - b).max() + 1e-12:
            contraction_ok = False
    ok = sup_gap <= 1e-6 and contraction_ok
    record(3, ok, f"cost-free DP sup gap {sup_gap:.2e}, "
                  f"contraction on 100 pairs: {contraction_ok}")


def test_criterion_4_span_bound(bundle, grid_main):
    model, spec = bundle
    bound = go.span_bound(model, spec, grid_main)
    spans, sups = [], []
    tables = go.build_tables(model, spec.without_fixed(), grid_main)
    for beta in (0.9, 0.99, 0.999, 0.9999):
        vf, _, _ = go.solve_discounted(tables, beta, tol=1e-3)
        spans.append(go.span_seminorm(vf))
        sups.append(vf.sup_norm())
    blow_up = all(a < b for a, b in zip(sups, sups[1:]))
    ok = all(s <= bound for s in spans) and blow_up
    record(4, ok, f"spans {['%.4f' % s for s in spans]} <= bound {bound:.4f}; "
                  f"sup norms rise {['%.0f' % s for s in sups]}")


def test_criterion_5_growth_rate_oracle(bundle):
    model, _ = bundle
    free = go.CostSpec(buy=[0.0, 0.0], sell=[0.0, 0.0], fixed=0.0)
    grid = go.StateGrid.build(2, 16, 2)
    report, _ = go.vanishing_discount(model, free, grid,
                                      [0.99, 0.999, 0.9995], tol=1e-7)
    theta = go.invariant_measure(model)
    best = [max(go.expected_log_return(model, node, z) for node in grid.nodes)
            for z in range(2)]
    oracle = float(theta @ np.array(best))
    gap = abs(report.growth_rate - oracle)
    record(5, gap <= 1e-4,
           f"vanishing-discount rate {report.growth_rate:.6f} vs "
           f"free-rebalancing oracle {oracle:.6f} (|gap| {gap:.1e})")


def test_criterion_6_cross_check(bundle, grid_main, cross_main):
    model, spec = bundle
    grid_wide = go.StateGrid.build(model.n_assets, 8, model.n_factors,
                                   x_min=1e-3, x_max=1e5, n_x=16)
    cross_wide = go.cross_check_costs(model, spec, grid_wide, BETAS, tol=1e-7)
    shrinks = abs(cross_wide.difference) < abs(cross_main.difference)
    ok = cross_main.ok and shrinks
    record(6, ok,
           f"|rate_fixed - rate_prop| = {abs(cross_main.difference):.2e} "
           f"<= 5e-3; x_max x10 shrinks it to {abs(cross_wide.difference):.2e}")


def test_criterion_7_closed_loop(bundle, cross_main):
    model, spec = bundle
    report = cross_main.fixed_report
    lam = report.growth_rate
    pi0 = np.array([0.5, 0.5])

    est = go.average_growth(model, spec, go.GridPolicyStrategy(report.policy),
                            pi0, 1.0, 0, T=5000, n_paths=400, seed=710)
    tol = max(3 * est.std_error, 1e-2)
    gap_policy = abs(est.mean - lam)

    floor_rate, _ = go.growth_floor(model)
    constants = go.cost_constants(spec, floor_rate)
    mimic = go.MimickingStrategy(go.build_mimicking(report.prop_policy,
                                                    constants))
    est_m = go.average_growth(model, spec, mimic, pi0, 1.0, 0, T=5000,
                              n_paths=400, seed=711)
    tol_m = max(3 * est_m.std_error, 1e-2)
    gap_mimic = abs(est_m.mean - lam)
    ok = (not est.flagged and not est_m.flagged
          and gap_policy <= tol and gap_mimic <= tol_m)
    record(7, ok,
           f"policy growth {est.mean:.5f} vs rate {lam:.5f} "
           f"(gap {gap_policy:.1e} <= {tol:.1e}); mimicking "
           f"{est_m.mean:.5f} (gap {gap_mimic:.1e} <= {tol_m:.1e})")


def cramer_rate(probs, values, threshold):
    """1-D large deviation rate by numeric Legendre transform."""
    probs = np.asarray(probs)
    values = np.asarray(values)

    def neg_g(lam):
        return -(lam * threshold - math.log(float(probs @ np.exp(lam * values))))

    res = minimize_scalar(neg_g, bounds=(-200.0, 0.0), method="bounded",
                          options={"xatol": 1e-12})
    return -res.fun


def test_criterion_8_large_deviations(bundle):
    model, _ = bundle
    floor_rate, floor_returns = go.growth_floor(model)
    eps = 0.25 * (floor_rate - float(np.log(floor_returns).min()))
    res = go.ld_tail(model, [32, 64, 96, 128, 192, 256], eps, 100_000,
                     seed=808)
    decays = res.decaying()

    iid = go.MarketModel(transition=[[1.0]], shock_probs=[0.5, 0.5],
                         returns=[[[1.25], [0.9]]])
    rate_iid, floors_iid = go.growth_floor(iid)
    eps_iid = 0.25 * (rate_iid - float(np.log(floors_iid).min()))
    res_iid = go.ld_tail(iid, [16, 32, 48, 64, 96, 128], eps_iid, 150_000,
                         seed=809)
    oracle = cramer_rate([0.5, 0.5], np.log([1.25, 0.9]), rate_iid - eps_iid)
    ratio = -res_iid.slope / oracle
    ok = decays and 0.5 <= ratio <= 2.0
    record(8, ok,
           f"bundled slope {res.slope:.4f} +- {res.slope_se:.4f} (95% "
           f"negative: {decays}); iid slope/Cramer = {ratio:.2f} in [0.5, 2]")


def test_criterion_9_wealth_floor(bundle, cross_main):
    model, spec = bundle
    floor_rate, _ = go.growth_floor(model)
    constants = go.cost_constants(spec, floor_rate)
    report = cross_main.fixed_report
    # each batch of 500 paths records every path, bit-identical to a run
    # on its stream alone
    prop = go.run(model, spec.without_fixed(),
                  go.GridPolicyStrategy(report.prop_policy), [0.5, 0.5], 1.0,
                  0, 300, seed=909, stream=range(500))
    mimicking = go.build_mimicking(report.prop_policy, constants)
    mimic = go.run(model, spec, go.MimickingStrategy(mimicking), [0.5, 0.5],
                   50.0, 0, 300, seed=910, stream=range(500))
    violations = sum(wealth_viol(traj, constants) for traj in prop + mimic)
    record(9, violations == 0, f"{len(prop + mimic)} paths x 300 steps, "
                               f"{violations} wealth-floor violations")


def wealth_viol(traj, constants):
    return go.wealth_floor_check(traj, constants).violations


def test_criterion_10_cost_sandwich(bundle, grid_main, cross_main):
    model, spec = bundle
    lower = go.CostSpec(spec.buy, spec.sell, 0.0, "additive")
    upper = go.CostSpec(spec.buy, spec.sell, spec.fixed, "additive")
    max_spec = go.CostSpec(spec.buy, spec.sell, spec.fixed, "max")
    cand = lambda n1, n2, s: go.share_cost(max_spec, n1, n2, s)
    sandwich = go.general_cost_check(lower, cand, upper, n_samples=2000,
                                     rng=np.random.default_rng(10))

    cross_max = go.cross_check_costs(model, max_spec, grid_main, BETAS,
                                     tol=1e-7)
    gap = abs(cross_max.growth_rate_fixed - cross_main.growth_rate_fixed)
    ok = sandwich.ok and gap <= 5e-3
    record(10, ok, f"sandwich report ok={sandwich.ok}; "
                   f"|rate_max - rate_additive| = {gap:.2e} <= 5e-3")


def test_criterion_11_reproducibility(tmp_path):
    from growthopt.cli import main
    model = go.bundled_model_path()
    bodies = {}
    for out in ("r1", "r2"):
        out_dir = str(tmp_path / out)
        assert main(["--model", model, "--output-dir", out_dir,
                     "--mesh-order", "4", "--seed", "4242", "optimal"]) == 0
        assert main(["--model", model, "--output-dir", out_dir, "--T", "300",
                     "--n-paths", "20", "--seed", "4242", "simulate",
                     "--policy", f"{out_dir}/policy", "--mimic", "off"]) == 0
        bodies[out] = {name: (tmp_path / out / name).read_bytes()
                       for name in ("policy.csv", "policy_prop.csv",
                                    "trajectory.csv")}
    ok = bodies["r1"] == bodies["r2"]
    record(11, ok, "cmd_optimal + cmd_simulate rerun with the same seed "
                   "gives byte-identical CSV bodies")
