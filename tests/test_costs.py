"""Transaction cost solver, bounds, and derived constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthopt import (CostSpec, bisect_e, cost_constants,
                       general_cost_check, min_diminution, min_trade_wealth,
                       proportional_cost, share_cost, solve_e, solve_e_batch)
from growthopt.costs import drag_at_wealth, transaction_equation, worst_case_drag


def spec_2(buy=0.01, sell=0.01, fixed=0.0, variant="additive"):
    return CostSpec(buy=[buy, buy], sell=[sell, sell], fixed=fixed,
                    variant=variant)


@st.composite
def simplex_points(draw, d):
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
    arr = np.array(raw)
    return arr / arr.sum()


@st.composite
def cost_specs(draw, d):
    buy = draw(st.lists(st.floats(0.0, 0.05), min_size=d, max_size=d))
    sell = draw(st.lists(st.floats(0.0, 0.05), min_size=d, max_size=d))
    fixed = draw(st.sampled_from([0.0, 0.1, 1.0]))
    variant = draw(st.sampled_from(["additive", "max"]))
    return CostSpec(buy=buy, sell=sell, fixed=fixed, variant=variant)


def bisect_min_trade_wealth(spec, bisect_iters=128):
    """Oracle: bisection for the infimum wealth at which every vertex
    rebalance is affordable (the solver's feasibility is monotone in
    wealth).  It stops once lo and hi are adjacent floats, after which the
    remaining halvings would leave both unchanged."""
    d = spec.n_assets
    eye = np.eye(d)
    pairs_prev = np.repeat(eye, d, axis=0)
    pairs_new = np.tile(eye, (d, 1))

    def all_feasible(wealth):
        e = solve_e_batch(spec, pairs_prev, pairs_new, np.full(d * d, wealth))
        return bool((e > 0.0).all())

    lo = spec.fixed * 1e-9
    hi = max(spec.fixed * 4.0, 1e-6)
    while not all_feasible(hi):
        hi *= 2.0
        assert hi <= 1e30, "no finite feasibility threshold found"
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if all_feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestProportionalCost:
    def test_zero_on_no_move(self):
        assert proportional_cost(spec_2(), [0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_full_switch_by_hand(self):
        # sell all of asset 1 (0.01) and buy all of asset 2 (0.01)
        assert proportional_cost(spec_2(), [1, 0], [0, 1]) == pytest.approx(
            0.02, abs=1e-15)

    def test_piecewise_linear_in_scaling(self):
        # cost of (pi_prev -> delta * pi) is affine between the breakpoints
        # delta_i = pi_prev_i / pi_i and kinks exactly there
        spec = spec_2(0.02, 0.03)
        pi_prev = np.array([0.7, 0.3])
        pi = np.array([0.4, 0.6])
        breaks = sorted(pi_prev / pi)  # 0.5 and 1.75 -> only 0.5 in [0, 1]
        deltas = [0.1, 0.3, 0.5, 0.7, 0.9]
        costs = [proportional_cost(spec, pi_prev, d * pi) for d in deltas]
        # affine on [0, 0.5] and on [0.5, 1]
        assert costs[1] - costs[0] == pytest.approx(costs[2] - costs[1], abs=1e-12)
        assert costs[3] - costs[2] == pytest.approx(costs[4] - costs[3], abs=1e-12)
        slope_left = (costs[1] - costs[0]) / 0.2
        slope_right = (costs[4] - costs[3]) / 0.2
        assert slope_left != pytest.approx(slope_right, abs=1e-9)
        assert 0.0 < breaks[0] < 1.0 < breaks[1]

    def test_rejects_outside_subsimplex(self):
        with pytest.raises(ValueError):
            proportional_cost(spec_2(), [0.5, 0.5], [0.8, 0.4])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_subadditive_on_simplex_triples(self, data):
        spec = data.draw(cost_specs(3))
        a = data.draw(simplex_points(3))
        b = data.draw(simplex_points(3))
        c = data.draw(simplex_points(3))
        direct = proportional_cost(spec, a, c)
        assert direct <= proportional_cost(spec, a, b) \
            + proportional_cost(spec, b, c) + 1e-12


class TestSolveE:
    def test_identity_no_fixed_is_exactly_one(self):
        assert solve_e(spec_2(), [0.3, 0.7], [0.3, 0.7], 5.0) == 1.0

    def test_full_switch_hand_value(self):
        # delta (1 + buy) = 1 - sell  =>  delta = 0.99 / 1.01
        assert solve_e(spec_2(), [1, 0], [0, 1], 7.0) == pytest.approx(
            0.99 / 1.01, abs=1e-15)

    def test_full_switch_with_fixed(self):
        spec = spec_2(fixed=1.0)
        assert solve_e(spec, [1, 0], [0, 1], 100.0) == pytest.approx(
            0.98 / 1.01, abs=1e-15)

    def test_unaffordable_returns_zero(self):
        spec = spec_2(fixed=1.0)
        assert solve_e(spec, [1, 0], [0, 1], 0.5) == 0.0

    def test_prop_version_drops_fixed(self):
        spec = spec_2(fixed=1.0)
        prop = spec.without_fixed()
        assert solve_e(prop, [1, 0], [0, 1], 1.0) == pytest.approx(
            0.99 / 1.01, abs=1e-15)
        assert solve_e(prop, [0.5, 0.5], [0.5, 0.5], 1.0) == 1.0

    def test_max_variant_hand_value(self):
        # max(C/x, cost) + delta = 1; fixed part dominates here
        spec = spec_2(0.001, 0.001, fixed=2.0, variant="max")
        e = solve_e(spec, [0.5, 0.5], [0.4, 0.6], 10.0)
        assert e == pytest.approx(1.0 - 0.2, abs=1e-12)

    def test_root_solves_equation(self):
        rng = np.random.default_rng(0)
        for variant in ("additive", "max"):
            spec = CostSpec(buy=[0.02, 0.01, 0.03], sell=[0.01, 0.025, 0.0],
                            fixed=0.2, variant=variant)
            for _ in range(200):
                prev, new = rng.dirichlet(np.ones(3), 2)
                x = rng.uniform(0.3, 30)
                e = solve_e(spec, prev, new, x)
                if e > 0:
                    f = transaction_equation(spec, prev, new, x, e)
                    assert abs(f - 1.0) <= 1e-12

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_bisection(self, data):
        spec = data.draw(cost_specs(2))
        prev = data.draw(simplex_points(2))
        new = data.draw(simplex_points(2))
        x = data.draw(st.floats(0.05, 100.0))
        exact = solve_e(spec, prev, new, x)
        oracle = float(bisect_e(spec, prev[None], new[None], np.array([x]))[0])
        assert exact == pytest.approx(oracle, abs=1e-10)
        assert (exact > 0) == (oracle > 0)


class TestDiminutionBounds:
    def test_proportional_lower_bound(self):
        rng = np.random.default_rng(1)
        spec = CostSpec(buy=[0.02, 0.03], sell=[0.01, 0.04], fixed=0.0)
        c_hat = spec.max_rate
        prev = rng.dirichlet(np.ones(2), 5000)
        new = rng.dirichlet(np.ones(2), 5000)
        e = solve_e_batch(spec, prev, new, np.ones(5000))
        assert (1.0 - e <= 2 * c_hat / (1 - c_hat) + 1e-12).all()
        assert (e >= math.exp(-worst_case_drag(spec)) - 1e-12).all()

    def test_fixed_cost_lower_bound(self):
        rng = np.random.default_rng(2)
        spec = CostSpec(buy=[0.02, 0.03], sell=[0.01, 0.04], fixed=0.5)
        c_hat = spec.max_rate
        prev = rng.dirichlet(np.ones(2), 5000)
        new = rng.dirichlet(np.ones(2), 5000)
        x = rng.uniform(0.05, 40, 5000)
        e = solve_e_batch(spec, prev, new, x)
        assert (1.0 - e <= (2 * c_hat + spec.fixed / x) / (1 - c_hat) + 1e-12).all()

    def test_monotone_in_wealth(self):
        rng = np.random.default_rng(3)
        spec = CostSpec(buy=[0.01, 0.02], sell=[0.02, 0.01], fixed=0.3)
        prev = rng.dirichlet(np.ones(2), 2000)
        new = rng.dirichlet(np.ones(2), 2000)
        x = rng.uniform(0.31, 20, 2000)
        e_lo = solve_e_batch(spec, prev, new, x)
        e_hi = solve_e_batch(spec, prev, new, 3 * x)
        e_prop = solve_e_batch(spec.without_fixed(), prev, new, np.ones(2000))
        assert (e_lo <= e_hi + 1e-15).all()
        assert (e_hi <= e_prop + 1e-15).all()

    def test_gap_bound_above_threshold(self):
        # gap to the proportional fraction shrinks like C over wealth, at
        # the rate charged on the shrinking legs (sell rates)
        rng = np.random.default_rng(4)
        spec = CostSpec(buy=[0.01, 0.02], sell=[0.03, 0.01], fixed=0.4)
        x_star = min_trade_wealth(spec)
        prev = rng.dirichlet(np.ones(2), 2000)
        new = rng.dirichlet(np.ones(2), 2000)
        x = x_star * 1.2 + rng.uniform(0, 30, 2000)
        e = solve_e_batch(spec, prev, new, x)
        e_prop = solve_e_batch(spec.without_fixed(), prev, new, np.ones(2000))
        cap = spec.fixed / ((1 - spec.sell.max()) * x)
        assert (e_prop - e <= cap + 1e-12).all()

    def test_log_gap_bound(self):
        rng = np.random.default_rng(5)
        spec = CostSpec(buy=[0.01, 0.02], sell=[0.03, 0.01], fixed=0.4)
        m = min_trade_wealth(spec) * 1.5
        floor = min_diminution(spec, m)
        prev = rng.dirichlet(np.ones(2), 2000)
        new = rng.dirichlet(np.ones(2), 2000)
        x = m + rng.uniform(0, 30, 2000)
        e = solve_e_batch(spec, prev, new, x)
        e_prop = solve_e_batch(spec.without_fixed(), prev, new, np.ones(2000))
        cap = spec.fixed / ((1 - spec.sell.max()) * x * floor)
        assert (np.log(e_prop / e) <= cap + 1e-12).all()

    def test_merged_rebalance_never_worse(self):
        rng = np.random.default_rng(6)
        spec = CostSpec(buy=[0.02, 0.01, 0.015], sell=[0.01, 0.02, 0.005],
                        fixed=0.2)
        for _ in range(500):
            a, b, c = rng.dirichlet(np.ones(3), 3)
            x = rng.uniform(1.0, 20.0)
            e1 = solve_e(spec, a, b, x)
            if e1 == 0:
                continue
            e2 = solve_e(spec, b, c, x * e1)
            assert solve_e(spec, a, c, x) >= e1 * e2 - 1e-12


class TestConstants:
    def test_zero_rates_zero_drag(self):
        spec = CostSpec(buy=[0.0, 0.0], sell=[0.0, 0.0], fixed=0.0)
        cc = cost_constants(spec, floor_rate=0.01)
        assert cc.eta == 0.0
        assert cc.eta_m == 0.0
        assert cc.x_star == 0.0

    def test_one_percent_rate_arithmetic(self):
        spec = spec_2(0.01, 0.01)
        eta = worst_case_drag(spec)
        assert eta == pytest.approx(-math.log(1 - 0.02 / 0.99), abs=1e-15)
        assert math.exp(-eta) == pytest.approx(1 - 0.02 / 0.99, abs=1e-12)

    def test_drag_decreases_to_eta_with_wealth(self):
        spec = spec_2(0.01, 0.01, fixed=1.0)
        eta = worst_case_drag(spec)
        drags = [drag_at_wealth(spec, m) for m in (1e2, 1e4, 1e6, 1e8)]
        assert all(a > b for a, b in zip(drags, drags[1:]))
        assert drags[-1] == pytest.approx(eta, abs=1e-7)
        assert all(d > eta for d in drags)

    def test_constants_consistency(self):
        spec = spec_2(0.003, 0.003, fixed=0.1)
        cc = cost_constants(spec, floor_rate=0.0129)
        assert cc.eta_m < 0.0129
        assert cc.eta < cc.eta_m
        assert cc.resync_wealth == pytest.approx(
            cc.wealth_threshold * math.exp(cc.eta_m), abs=1e-12)
        assert math.exp(-cc.eta) == pytest.approx(
            1 - 2 * cc.max_rate / (1 - cc.max_rate), abs=1e-12)

    def test_rejects_when_drag_beats_growth(self):
        spec = spec_2(0.4, 0.4)  # eta is infinite
        with pytest.raises(ValueError):
            cost_constants(spec, floor_rate=0.05)
        with pytest.raises(ValueError):
            cost_constants(spec_2(0.01, 0.01), floor_rate=1e-4)

    def test_x_star_closed_forms(self):
        spec = CostSpec(buy=[0.01, 0.02], sell=[0.05, 0.03], fixed=0.7)
        # additive: feasibility needs sell-all cost + C/x < 1, worst at the
        # vertex with the largest sell rate
        assert min_trade_wealth(spec) == pytest.approx(0.7 / (1 - 0.05), rel=1e-9)
        spec_max = CostSpec(buy=[0.01, 0.02], sell=[0.05, 0.03], fixed=0.7,
                            variant="max")
        assert min_trade_wealth(spec_max) == pytest.approx(0.7, rel=1e-9)

    def test_x_star_equals_the_bisection(self):
        # the closed form plus ulp steps lands on the float the bisection
        # over vertex pairs converged to, bit for bit
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            spec = CostSpec(buy=rng.uniform(0.0, 0.5, d),
                            sell=rng.uniform(0.0, 0.5, d),
                            fixed=float(10.0 ** rng.uniform(-6.0, 3.0)),
                            variant=str(rng.choice(["additive", "max"])))
            assert min_trade_wealth(spec) == bisect_min_trade_wealth(spec), \
                spec

    def test_vertices_are_worst_case_for_feasibility(self):
        rng = np.random.default_rng(8)
        spec = CostSpec(buy=[0.01, 0.02, 0.03], sell=[0.04, 0.01, 0.02],
                        fixed=0.5)
        x_star = min_trade_wealth(spec)
        prev = rng.dirichlet(np.ones(3), 10_000)
        new = rng.dirichlet(np.ones(3), 10_000)
        e = solve_e_batch(spec, prev, new, np.full(10_000, x_star * 1.0000001))
        assert (e > 0).all()


class TestCostSandwich:
    def test_additive_is_its_own_bounds(self):
        spec = CostSpec(buy=[0.01, 0.02], sell=[0.02, 0.01], fixed=0.3)
        cand = lambda n1, n2, s: share_cost(spec, n1, n2, s)
        rep = general_cost_check(spec, cand, spec, n_samples=500,
                                 rng=np.random.default_rng(0))
        assert rep.ok

    def test_max_variant_between_additive_bounds(self):
        buy, sell, fixed = [0.01, 0.02], [0.02, 0.01], 0.3
        lower = CostSpec(buy=buy, sell=sell, fixed=0.0)
        upper = CostSpec(buy=buy, sell=sell, fixed=fixed)
        mid = CostSpec(buy=buy, sell=sell, fixed=fixed, variant="max")
        cand = lambda n1, n2, s: share_cost(mid, n1, n2, s)
        rep = general_cost_check(lower, cand, upper, n_samples=1000,
                                 rng=np.random.default_rng(1))
        assert rep.ok

    def test_zero_cost_fails_lower_bound(self):
        lower = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=0.0)
        rep = general_cost_check(lower, lambda *a: 0.0, lower, n_samples=200,
                                 rng=np.random.default_rng(2))
        assert not rep.ok
        assert rep.lower_violations > 0


class TestShareCost:
    def test_matches_proportion_space_charge(self):
        spec = CostSpec(buy=[0.01, 0.03], sell=[0.02, 0.01], fixed=0.4)
        rng = np.random.default_rng(9)
        for _ in range(100):
            prev, new = rng.dirichlet(np.ones(2), 2)
            x = rng.uniform(1.0, 20.0)
            e = solve_e(spec, prev, new, x)
            if e == 0:
                continue
            s = rng.uniform(0.5, 3.0, 2)
            n_before = prev * x / s
            n_after = new * x * e / s
            charge = share_cost(spec, n_before, n_after, s)
            assert x - charge == pytest.approx(x * e, rel=1e-12)
