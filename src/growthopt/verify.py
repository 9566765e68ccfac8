"""Programmatic property suites behind the CLI ``verify`` subcommand.

Each suite re-checks one family of invariants at configurable sample
counts: exactness of the rebalance solver against the bracketing oracle,
the diminution bounds and monotonicities, cost subadditivity, mixing
submultiplicativity, concavity and boundedness of the expected log return,
ergodic averages, Bellman contraction, wealth monotonicity of solved
values, trajectory reproducibility and the cost sandwich.  All checks are
report-style: nothing raises on failure, though an argument that leaves a
check nothing to measure is refused.  Each reads the package through
its public names: the ergodic check walks rep ``r`` on stream ``(seed,
r)`` through ``market.sample_factor_paths``, one block at a time, as the
simulation engine walks path ``r``.

The module also holds what only the checks use: ``bisect_e``, the
bracketing oracle of ``costs.solve_e_batch``, which evaluates
``costs.transaction_equation`` alone, and ``general_cost_check``, which
samples a share-space cost candidate, taking rows as ``costs.share_cost``
does, against a proportional/fixed sandwich.  The package root binds both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import costs as co
from . import dp, market, simulate
from .grid import StateGrid, ValueFunction

LOG_RETURN_PAIRS = 200  # proportion pairs of the log-return check
CONTRACTION_BETA = 0.9  # discount of the contraction check
CONTRACTION_PAIRS = 10  # value pairs of the contraction check
BISECT_STEPS = 200  # halvings of a root's bracket
SEARCH_STEPS = 18  # refinements of the grid search, each 8 times narrower
_SEARCH_GRID = np.linspace(0.0, 1.0, 17)


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


def bisect_e(spec: co.CostSpec, pi_prev, pi_new, wealth) -> np.ndarray:
    """Bracketing oracle for the surviving fraction (batch capable).

    Independent of the segment solver, it only evaluates the convex F:
    F(1) >= 1, so the root is the right end of {F <= 1}.  A row with F(0)
    < 1 brackets it by [0, 1]; any other row by [least point of F, 1], or
    has none if F is not below 1 there.  The least point, within 2**-54,
    is that of 17 points across a bracket narrowed to the two grid steps
    around it.  Bisection then halves every bracket ``BISECT_STEPS`` times.
    """
    pi_prev = np.atleast_2d(np.asarray(pi_prev, dtype=float))
    pi_new = np.atleast_2d(np.asarray(pi_new, dtype=float))
    wealth = np.atleast_1d(np.asarray(wealth, dtype=float))
    rows = (spec, pi_prev, pi_new, wealth)
    lo, hi = np.zeros(len(wealth)), np.ones(len(wealth))
    dip = ~(co.transaction_equation(*rows, lo) < 1.0)  # NaN rows search too
    if dip.any():
        dips = (spec, pi_prev[dip, None], pi_new[dip, None], wealth[dip, None])
        start, width = np.zeros((np.count_nonzero(dip), 1)), 1.0
        for _ in range(SEARCH_STEPS):
            x = start + width * _SEARCH_GRID
            least = co.transaction_equation(*dips, x).argmin(axis=1)[:, None]
            width /= 8.0
            left = np.take_along_axis(x, np.maximum(least - 1, 0), 1)
            start = np.minimum(left, 1.0 - width)
        lo[dip] = np.take_along_axis(x, least, 1)[:, 0]
    feasible = co.transaction_equation(*rows, lo) < 1.0
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        high = co.transaction_equation(*rows, mid) > 1.0
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    root = np.where(feasible, 0.5 * (lo + hi), 0.0)
    # exact boundary root at 1 (no-op rebalance with no fixed charge)
    at_one = co.transaction_equation(*rows, np.ones(len(root)))
    root[np.abs(at_one - 1.0) <= 1e-12] = 1.0
    return root


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
        oracle = bisect_e(spec, prev, new, x)
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

    Rep ``r`` walks stream ``(seed, r)`` from state 0, as the engine walks
    path ``r``: one ``market.sample_factor_paths`` call per
    ``market.block_steps`` block, each from the last state of the block
    before, so memory does not grow with T, and a walk of one path steps in
    Python ints.  An integer count over T is the indicator mean bit for
    bit.  T and reps must be integers, T >= 1 for a time average and reps
    >= 2 for a standard error; anything else raises a ValueError naming
    it."""
    T, reps = market.check_integer("T", T), market.check_integer("reps", reps)
    for name, val, least in (("T", T, 1), ("reps", reps, 2)):
        if val < least:
            raise ValueError(f"{name} must be >= {least}, got {val}")
    theta = market.invariant_measure(model)
    counts = np.zeros((model.n_factors, reps), dtype=np.int64)
    for r in range(reps):
        rng, z_last = [market.make_rng(seed, r)], np.zeros(1, dtype=np.int64)
        for t0 in range(0, T, market.block_steps(1, T)):
            z, _ = market.sample_factor_paths(
                model, z_last, market.block_steps(1, T - t0), rng)
            counts[:, r] += np.bincount(z[0, 1:], minlength=model.n_factors)
            z_last = z[:, -1]
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


@dataclass
class CostSandwichReport:
    """Sampling check of lower <= candidate <= upper and subadditivity."""

    n_samples: int
    lower_violations: int
    upper_violations: int
    subadditivity_violations: int
    worst_lower_gap: float
    worst_upper_gap: float
    worst_subadd_gap: float

    @property
    def ok(self) -> bool:
        return (
            self.lower_violations == 0
            and self.upper_violations == 0
            and self.subadditivity_violations == 0
        )


def general_cost_check(lower: co.CostSpec, candidate: Callable,
                       upper: co.CostSpec, n_samples: int,
                       rng: np.random.Generator) -> CostSandwichReport:
    """Check a share-space cost oracle against a proportional/fixed sandwich.

    ``candidate(holdings_before, holdings_after, prices)`` takes rows, as
    ``costs.share_cost`` does, and is evaluated once on ``n_samples`` random
    holdings triples and price vectors; the report counts pointwise bound
    violations and failures of subadditivity along the triple.
    """
    tol = 1e-12  # rounding of a share-space charge
    d = lower.n_assets
    # per sample: three holdings vectors in [0, 10), then prices in [0.5, 2)
    n1, n2, n3, s = rng.uniform([[0.0]] * 3 + [[0.5]], [[10.0]] * 3 + [[2.0]],
                                size=(n_samples, 4, d)).transpose(1, 0, 2)
    c12, c13, c23 = (np.broadcast_to(candidate(a, b, s), n_samples)
                     for a, b in ((n1, n2), (n1, n3), (n2, n3)))
    lo = co.share_cost(lower, n1, n2, s)
    up = co.share_cost(upper, n1, n2, s)
    lo_viol = c12 < lo - tol
    up_viol = c12 > up + tol
    sub_viol = c13 > c12 + c23 + tol
    return CostSandwichReport(
        n_samples=n_samples,
        lower_violations=int(lo_viol.sum()),
        upper_violations=int(up_viol.sum()),
        subadditivity_violations=int(sub_viol.sum()),
        worst_lower_gap=float((lo - c12)[lo_viol].max(initial=0.0)),
        worst_upper_gap=float((c12 - up)[up_viol].max(initial=0.0)),
        worst_subadd_gap=float((c13 - c12 - c23)[sub_viol].max(initial=0.0)),
    )


def check_sandwich(spec, n_samples: int = 1000, seed: int = 8) -> CheckResult:
    """Max-form cost sits between the proportional and additive bounds."""
    lower = co.CostSpec(spec.buy, spec.sell, 0.0, "additive")
    upper = co.CostSpec(spec.buy, spec.sell, max(spec.fixed, 0.25), "additive")
    mid = co.CostSpec(spec.buy, spec.sell, upper.fixed, "max")
    cand = lambda n1, n2, s: co.share_cost(mid, n1, n2, s)
    rep = general_cost_check(lower, cand, upper, n_samples=n_samples,
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
