"""Programmatic property suites behind the CLI ``verify`` subcommand.

Each suite re-checks one family of invariants at configurable sample
counts: exactness of the rebalance solver against the bracketing oracle,
the diminution bounds and monotonicities, cost subadditivity, mixing
submultiplicativity, concavity and boundedness of the expected log return,
ergodic averages, Bellman contraction, wealth monotonicity of solved
values, trajectory reproducibility and the cost sandwich.  All checks are
report-style; nothing raises on failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs as co
from . import dp, market, simulate
from .grid import StateGrid, ValueFunction
from .rng import make_rng

LOG_RETURN_PAIRS = 200  # proportion pairs of the log-return check
CONTRACTION_BETA = 0.9  # discount of the contraction check
CONTRACTION_PAIRS = 10  # value pairs of the contraction check


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _random_spec(rng, d):
    buy = rng.uniform(0.0, 0.03, d)
    sell = rng.uniform(0.0, 0.03, d)
    fixed = float(rng.uniform(0.0, 0.5)) if rng.random() < 0.7 else 0.0
    variant = "max" if rng.random() < 0.3 else "additive"
    return co.CostSpec(buy=buy, sell=sell, fixed=fixed, variant=variant)


def check_e_solver(n_samples: int = 2000, seed: int = 0) -> CheckResult:
    """Exact solver vs 200-step bisection, plus the root/zero dichotomy, on
    simplex rows and on rows short in the same asset before and after."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    eq_worst = 0.0
    for _ in range(max(1, n_samples // 200)):
        d = int(rng.integers(1, 4))
        spec = _random_spec(rng, d)
        prev = rng.dirichlet(np.ones(d), 200)
        new = rng.dirichlet(np.ones(d), 200)
        if d > 1:
            # a quarter of the rows short in asset 1 before and after the
            # trade, whose breakpoint lies past 0
            rows = rng.random(200) < 0.25
            for pi in (prev, new):
                short = rng.uniform(0.05, 1.0, rows.sum())
                pi[rows, 0] += pi[rows, 1] + short
                pi[rows, 1] = -short
        x = rng.uniform(0.05, 50.0, 200)
        exact = co.solve_e_batch(spec, prev, new, x)
        oracle = co.bisect_e(spec, prev, new, x)
        worst = max(worst, float(np.abs(exact - oracle).max()))
        pos = exact > 0.0
        f = co.transaction_equation(spec, prev[pos], new[pos], x[pos],
                                    exact[pos])
        eq_worst = max(eq_worst, float(np.abs(f - 1.0).max(initial=0.0)))
        if np.any(pos != (oracle > 0.0)):
            return CheckResult("e_solver_exactness", False,
                               "feasibility dichotomy disagrees with oracle")
    ok = worst <= 1e-10 and eq_worst <= 1e-12
    return CheckResult("e_solver_exactness", ok,
                       f"max |exact-oracle| {worst:.2e}, max |F(root)-1| {eq_worst:.2e}")


def check_diminution_bounds(n_samples: int = 2000, seed: int = 1) -> CheckResult:
    """Worst-case drag bounds and monotonicity/gap estimates of the solver."""
    rng = np.random.default_rng(seed)
    for _ in range(max(1, n_samples // 200)):
        d = int(rng.integers(1, 4))
        spec = _random_spec(rng, d)
        c_hat = spec.max_rate
        prev = rng.dirichlet(np.ones(d), 200)
        new = rng.dirichlet(np.ones(d), 200)
        x = rng.uniform(0.05, 50.0, 200)
        e_prop = co.solve_e_batch(spec.without_fixed(), prev, new, np.ones(200))
        if np.any(1.0 - e_prop > 2 * c_hat / (1 - c_hat) + 1e-12):
            return CheckResult("diminution_bounds", False, "proportional bound broken")
        e = co.solve_e_batch(spec, prev, new, x)
        bound = (2 * c_hat + spec.fixed / x) / (1 - c_hat)
        if np.any(1.0 - e > bound + 1e-12):
            return CheckResult("diminution_bounds", False, "fixed-cost bound broken")
        e_hi = co.solve_e_batch(spec, prev, new, x * 2.0)
        if np.any(e > e_hi + 1e-12) or np.any(e_hi > e_prop + 1e-12):
            return CheckResult("diminution_bounds", False,
                               "monotonicity in wealth broken")
        if spec.fixed > 0:
            # the gap grows at the rate charged on the shrinking legs of the
            # rebalance, i.e. the sell rates
            x_star = co.min_trade_wealth(spec)
            x_big = np.maximum(x, x_star * 1.5)
            e_big = co.solve_e_batch(spec, prev, new, x_big)
            gap = e_prop - e_big
            cap = spec.fixed / ((1 - spec.sell.max()) * x_big)
            if np.any(gap > cap + 1e-12):
                return CheckResult("diminution_bounds", False,
                                   "diminution gap bound broken")
    return CheckResult("diminution_bounds", True, f"{n_samples} samples clean")


def check_cost_subadditivity(n_samples: int = 1000, seed: int = 2) -> CheckResult:
    """Triangle inequality of the proportional cost and merged rebalances."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        d = int(rng.integers(2, 4))
        spec = _random_spec(rng, d)
        a, b, c = rng.dirichlet(np.ones(d), 3)
        direct = co.proportional_cost(spec, a, c)
        via = co.proportional_cost(spec, a, b) + co.proportional_cost(spec, b, c)
        if direct > via + 1e-12:
            return CheckResult("cost_subadditivity", False,
                               f"triangle broken by {direct - via:.2e}")
        x = float(rng.uniform(0.5, 20.0))
        e1 = co.solve_e(spec, a, b, x)
        if e1 > 0:
            e2 = co.solve_e(spec, b, c, x * e1)
            e_direct = co.solve_e(spec, a, c, x)
            if e_direct < e1 * e2 - 1e-12:
                return CheckResult("cost_subadditivity", False,
                                   "merged rebalance worse than two-step")
    return CheckResult("cost_subadditivity", True, f"{n_samples} triples clean")


def check_mixing(model) -> CheckResult:
    """Submultiplicativity of the mixing coefficient and stationarity."""
    kappas = {n: market.dobrushin(model, n) for n in range(1, 9)}
    for n in range(1, 5):
        for m in range(1, 5):
            if kappas[n + m] > kappas[n] * kappas[m] + 1e-12:
                return CheckResult("chain_mixing", False,
                                   f"kappa_{n+m} > kappa_{n} * kappa_{m}")
    theta = market.invariant_measure(model)
    resid = float(np.abs(theta @ model.transition - theta).max())
    ok = resid <= 1e-10
    return CheckResult("chain_mixing", ok, f"stationary residual {resid:.2e}")


def check_log_return(model, seed: int = 4) -> CheckResult:
    """Bounds and midpoint concavity of the expected log return on
    LOG_RETURN_PAIRS random proportion pairs."""
    rng = np.random.default_rng(seed)
    lo = float(np.log(model.returns).min())
    hi = float(np.log(model.returns).max())
    for _ in range(LOG_RETURN_PAIRS):
        z = int(rng.integers(model.n_factors))
        p1, p2 = rng.dirichlet(np.ones(model.n_assets), 2)
        h1 = market.expected_log_return(model, p1, z)
        h2 = market.expected_log_return(model, p2, z)
        hm = market.expected_log_return(model, 0.5 * (p1 + p2), z)
        if not (lo - 1e-12 <= h1 <= hi + 1e-12):
            return CheckResult("log_return", False, "bound broken")
        if hm < 0.5 * (h1 + h2) - 1e-12:
            return CheckResult("log_return", False, "midpoint concavity broken")
    return CheckResult("log_return", True, f"{LOG_RETURN_PAIRS} pairs clean")


def check_ergodic_average(model, T: int = 100_000, reps: int = 16,
                          seed: int = 5) -> CheckResult:
    """Time averages of state indicators against the stationary law, 3 sigma.

    The states are counted block by block as the market walk yields them,
    so memory does not grow with T; an integer count over T is the
    indicator mean bit for bit."""
    theta = market.invariant_measure(model)
    rng = make_rng(seed)
    counts = np.zeros((model.n_factors, reps), dtype=np.int64)
    for _, z, _ in market._walk(model, np.zeros(reps, dtype=np.int64), T,
                                rng):
        for state in range(model.n_factors):
            counts[state] += np.count_nonzero(z == state, axis=0)
    worst = 0.0
    for state in range(model.n_factors):
        freq = counts[state] / T
        se = freq.std(ddof=1) / np.sqrt(reps)
        dev = abs(freq.mean() - theta[state])
        if se > 0 and dev > 3 * se:
            return CheckResult("ergodic_average", False,
                               f"state {state}: |{freq.mean():.5f} - "
                               f"{theta[state]:.5f}| > 3 x {se:.5f}")
        worst = max(worst, dev)
    return CheckResult("ergodic_average", True, f"max deviation {worst:.2e}")


def check_contraction(model, spec, grid, seed: int = 6) -> CheckResult:
    """|T v - T w| <= beta |v - w| at CONTRACTION_BETA on
    CONTRACTION_PAIRS random value pairs."""
    beta = CONTRACTION_BETA
    rng = np.random.default_rng(seed)
    tables = dp.build_tables(model, spec, grid)
    grid = tables.grid
    worst = 0.0
    for _ in range(CONTRACTION_PAIRS):
        v = rng.normal(size=grid.shape)
        w = rng.normal(size=grid.shape)
        tv = dp.bellman_step(ValueFunction(grid, v, beta), tables).values
        tw = dp.bellman_step(ValueFunction(grid, w, beta), tables).values
        lhs = np.abs(tv - tw).max()
        rhs = beta * np.abs(v - w).max()
        worst = max(worst, lhs - rhs)
        if lhs > rhs + 1e-10:
            return CheckResult("contraction", False,
                               f"|Tv-Tw| exceeds beta|v-w| by {lhs - rhs:.2e}")
    return CheckResult("contraction", True, f"worst margin {worst:.2e}")


def check_wealth_monotone(model, spec, grid) -> CheckResult:
    if spec.fixed == 0:
        return CheckResult("wealth_monotonicity", True,
                           "no wealth axis for proportional costs")
    vf, _, _ = dp.solve_discounted(dp.build_tables(model, spec, grid), 0.95,
                                   tol=1e-7)
    slip = float(np.diff(vf.values, axis=1).min())
    ok = slip >= -1e-9
    return CheckResult("wealth_monotonicity", ok, f"worst wealth step {slip:.2e}")


def check_reproducibility(model, spec, seed: int = 7) -> CheckResult:
    pi0 = np.full(model.n_assets, 1.0 / model.n_assets)
    strat = simulate.NoTransactionStrategy()
    t1 = simulate.run(model, spec, strat, pi0, 10.0, 0, 200, seed)
    t2 = simulate.run(model, spec, strat, pi0, 10.0, 0, 200, seed)
    same = (t1.x_prev.tobytes() == t2.x_prev.tobytes()
            and t1.z.tobytes() == t2.z.tobytes()
            and t1.pi_prev.tobytes() == t2.pi_prev.tobytes())
    return CheckResult("reproducibility", same,
                       "identical seeds give identical trajectories")


def check_sandwich(spec, n_samples: int = 1000, seed: int = 8) -> CheckResult:
    """Max-form cost sits between the proportional and additive bounds."""
    lower = co.CostSpec(spec.buy, spec.sell, 0.0, "additive")
    upper = co.CostSpec(spec.buy, spec.sell, max(spec.fixed, 0.25), "additive")
    mid = co.CostSpec(spec.buy, spec.sell, upper.fixed, "max")
    cand = lambda n1, n2, s: co.share_cost(mid, n1, n2, s)
    rep = co.general_cost_check(lower, cand, upper, n_samples=n_samples,
                                rng=np.random.default_rng(seed))
    return CheckResult("cost_sandwich", rep.ok,
                       f"{rep.n_samples} samples, "
                       f"{rep.lower_violations}/{rep.upper_violations}/"
                       f"{rep.subadditivity_violations} violations")


def run_all(model, spec, n_samples: int = 2000, seed: int = 0):
    """Run every suite on the given model/spec at the given sample scale."""
    grid = StateGrid.build(model.n_assets, 6, model.n_factors,
                           x_min=1e-2, x_max=1e3, n_x=8)
    return [
        check_e_solver(n_samples, seed),
        check_diminution_bounds(n_samples, seed + 1),
        check_cost_subadditivity(max(200, n_samples // 4), seed + 2),
        check_mixing(model),
        check_log_return(model, seed + 4),
        check_ergodic_average(model, 50_000, 8, seed + 5),
        check_contraction(model, spec, grid, seed + 6),
        check_wealth_monotone(model, spec, grid),
        check_reproducibility(model, spec, seed + 7),
        check_sandwich(spec, max(200, n_samples // 4), seed + 8),
    ]
