"""Transaction cost solver, bounds, and derived constants."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthopt import (CostSpec, bisect_e, cost_constants,
                       general_cost_check, min_diminution, min_trade_wealth,
                       proportional_cost, share_cost, solve_e, solve_e_batch)
from growthopt.costs import (_solve_prop_root_batch, drag_at_wealth,
                             transaction_equation, worst_case_drag)


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


class TestCostSpecChecks:
    @pytest.mark.parametrize("fixed", [math.nan, math.inf, -0.1, None,
                                       "abc", [0.1], True])
    def test_fixed_must_be_finite_and_non_negative(self, fixed):
        with pytest.raises(ValueError, match=re.escape(
                f"fixed cost {fixed!r} must be finite and >= 0")):
            CostSpec([0.01, 0.01], [0.01, 0.01], fixed)

    def test_fixed_is_stored_as_a_float(self):
        spec = CostSpec([0.01, 0.01], [0.01, 0.01], 1)
        assert type(spec.fixed) is float and spec.fixed == 1.0

    @pytest.mark.parametrize("buy", ["abc", [[0.01], 0.01]])
    def test_rates_must_be_numbers(self, buy):
        with pytest.raises(ValueError, match="buy is not a table of numbers"):
            CostSpec(buy, [0.01, 0.01])

    @pytest.mark.parametrize("field", ["buy", "sell"])
    def test_rates_must_not_be_booleans(self, field):
        rates = {"buy": [0.01, 0.01], "sell": [0.01, 0.01]}
        rates[field] = [0.01, False]
        with pytest.raises(ValueError, match=re.escape(
                f"{field}[1] is False: a table must hold numbers, not "
                "booleans")):
            CostSpec(**rates, fixed=0.1)

    @pytest.mark.parametrize("field", ["buy", "sell"])
    @pytest.mark.parametrize("rate", [math.nan, -0.01, 1.0, math.inf])
    def test_rates_must_lie_in_unit_interval(self, field, rate):
        rates = {"buy": [0.01, 0.01], "sell": [0.01, 0.01]}
        rates[field] = [0.01, rate]
        with pytest.raises(ValueError, match=rf"{field} rates \[0\.01, "
                           rf".*\] must lie in \[0, 1\)"):
            CostSpec(**rates, fixed=0.1)

    @pytest.mark.parametrize("buy, sell", [([], []), ([0.01], [0.01, 0.01]),
                                           ([[0.01]], [[0.01]])])
    def test_rates_must_be_equal_vectors(self, buy, sell):
        with pytest.raises(ValueError, match="non-empty vectors"):
            CostSpec(buy, sell)

    def test_edges_are_accepted(self):
        spec = CostSpec([0.0, 0.999], [0.0, 0.5], 0.0)
        assert spec.max_rate == 0.999 and min_trade_wealth(spec) == 0.0


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


    @pytest.mark.parametrize("variant", ["additive", "max"])
    def test_rejects_nan_wealth(self, two_asset, variant):
        spec = dataclasses.replace(two_asset[1], variant=variant)
        with pytest.raises(ValueError, match="strictly positive"):
            solve_e(spec, [0.5, 0.5], [1, 0], math.nan)
        with pytest.raises(ValueError, match="strictly positive"):
            solve_e_batch(spec, [[0.5, 0.5]] * 2, [[1, 0]] * 2,
                          [3.0, math.nan])

    @pytest.mark.parametrize("wealth", [[10.0], [0.05], [1.0, 2.0, 3.0]])
    def test_rejects_a_wealth_count_other_than_the_row_count(self, wealth):
        with pytest.raises(ValueError, match="one wealth per rebalance"):
            solve_e_batch(spec_2(fixed=0.1), [[0.5, 0.5], [0.2, 0.8]],
                          [[1, 0], [0, 1]], wealth)

    @pytest.mark.parametrize("variant", ["additive", "max"])
    @pytest.mark.parametrize("wealth", [math.nan, 0.0, -0.0, -2.0, -math.inf])
    def test_one_row_refuses_the_wealth_a_batch_refuses(self, variant,
                                                        wealth):
        spec = spec_2(fixed=0.1, variant=variant)
        for n in (1, 2):  # the one-row path and the numpy path
            with pytest.raises(ValueError,
                               match="^wealth must be strictly positive$"):
                solve_e_batch(spec, [[0.5, 0.5]] * n, [[1.0, 0.0]] * n,
                              [wealth] * n)

    @pytest.mark.parametrize("wealth", [[], [1.0, 2.0], [1.0, 2.0, 3.0]])
    def test_one_row_refuses_a_wealth_count_other_than_one(self, wealth):
        count = len(wealth)
        with pytest.raises(ValueError, match="^need one wealth per "
                           f"rebalance: {count} wealth values for 1 rows$"):
            solve_e_batch(spec_2(fixed=0.1), [[0.5, 0.5]], [[1, 0]], wealth)

    @pytest.mark.parametrize("prev_shape, new_shape", [
        ((1, 3), (1, 2)), ((1, 2), (1, 1)), ((1, 2), (3, 2)), ((3, 2), (1, 2)),
        ((3, 1), (3, 1)), ((3, 2), (3, 3)), ((2, 1, 2), (2, 1, 2))],
        ids=["prev assets", "new assets", "new rows", "broadcast target",
             "batch assets", "batch new assets", "3-d"])
    def test_rows_of_another_shape_are_refused(self, prev_shape, new_shape):
        # before the check a wrong asset count failed inside numpy, and a
        # single target row was broadcast over every row of pi_prev
        prev, new = np.full(prev_shape, 0.5), np.full(new_shape, 0.5)
        message = (f"need rows of 2 proportions: pi_prev has shape "
                   f"{prev_shape}, pi_new {new_shape}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_e_batch(spec_2(), prev, new, np.ones(prev_shape[0]))


def oracle_solve_e_batch(spec, pi_prev, pi_new, wealth):
    """``solve_e_batch`` as it was before the lean rewrite: the same segment
    solve written with ``np.where``, ``np.clip``, ``np.concatenate`` and
    2-D fancy gathers, and the identical-row check of the max variant run on
    every call; the segment solve decides every additive row, and a row with
    no candidate at or below its target brackets (1, 0), which the clip
    sends to 0."""

    def prop_root(pi_prev, pi_new, target=None):
        n = pi_prev.shape[0]
        if target is None:
            target = np.ones(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            brk = np.where(pi_new != 0.0, pi_prev / pi_new, np.inf)
        cand = np.concatenate(
            [np.zeros((n, 1)), np.clip(brk, 0.0, 1.0), np.ones((n, 1))],
            axis=1)
        cand.sort(axis=1)
        tilde = cand[:, :, None] * pi_new[:, None, :]
        diff = tilde - pi_prev[:, None, :]
        g = (np.maximum(diff, 0.0) @ spec.buy
             + np.maximum(-diff, 0.0) @ spec.sell + cand)
        below = g <= target[:, None]
        idx = np.where(below, np.arange(cand.shape[1])[None, :], -1).max(axis=1)
        rows = np.arange(n)
        at_end = idx == cand.shape[1] - 1
        idx_lo = np.where(at_end, idx - 1, idx)
        d_lo = cand[rows, idx_lo]
        d_hi = cand[rows, idx_lo + 1]
        g_lo = g[rows, idx_lo]
        g_hi = g[rows, idx_lo + 1]
        width = np.where(d_hi > d_lo, d_hi - d_lo, 1.0)
        slope = (g_hi - g_lo) / width
        root = d_lo + (target - g_lo) / np.where(slope > 0, slope, np.inf)
        root = np.clip(root, d_lo, d_hi)
        return np.where(at_end, 1.0, root)

    pi_prev = np.atleast_2d(np.asarray(pi_prev, dtype=float))
    pi_new = np.atleast_2d(np.asarray(pi_new, dtype=float))
    wealth = np.atleast_1d(np.asarray(wealth, dtype=float))
    fixed_frac = spec.fixed / wealth
    identical = (pi_prev == pi_new).all(axis=1)
    if spec.variant == "additive":
        return prop_root(pi_prev, pi_new, 1.0 - fixed_frac)
    root = prop_root(pi_prev, pi_new)
    root[identical] = 1.0
    cap = 1.0 - fixed_frac
    out = np.minimum(root, cap)
    out[cap <= 0.0] = 0.0
    return out


def random_rebalances(rng, n, d, kind):
    """``n`` rebalances among ``d`` assets with wealth; ``kind`` mixes in
    rows of one sort: identical, vertex, leveraged targets (a negative
    proportion), leveraged holdings whose sell charge alone exceeds 1, rows
    short in the same asset before and after (a breakpoint past 0), exact
    zero breakpoints (-0.0 holdings) or quarter-lattice proportions."""
    prev, new = rng.dirichlet(np.ones(d), n), rng.dirichlet(np.ones(d), n)
    rows = rng.random(n) < 0.4
    m = int(rows.sum())
    if kind == "identical":
        new[rows] = prev[rows]
    elif kind == "vertex":
        prev[rows] = np.eye(d)[rng.integers(0, d, m)]
        new[~rows] = np.eye(d)[rng.integers(0, d, n - m)]
    elif kind == "leveraged_target" and d > 1:
        new[rows, 0] += 1.5
        new[rows, 1] -= 1.5
    elif kind == "leveraged_holdings" and d > 1:
        prev[rows, 0] += 40.0
        prev[rows, 1] -= 40.0
    elif kind == "short_to_short" and d > 1:
        prev[rows, 0] += 0.5
        prev[rows, 1] -= 0.5
        new[rows, 0] += 0.6
        new[rows, 1] -= 0.6
    elif kind == "signed_zero":
        prev[rows, 0] = -0.0
    elif kind == "lattice":
        prev, new = np.round(prev * 4) / 4, np.round(new * 4) / 4
    # low wealth makes fixed charges unaffordable, inf makes them vanish
    wealth = rng.choice([0.05, 0.3, 1.0, 20.0, 1e4, np.inf], n)
    return prev, new, wealth


REBALANCE_KINDS = ["plain", "identical", "vertex", "leveraged_target",
                   "leveraged_holdings", "signed_zero", "lattice",
                   "short_to_short"]


class TestLeanSolver:
    @pytest.mark.parametrize("variant", ["additive", "max"])
    @pytest.mark.parametrize("fixed", [0.0, 0.1, 5.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_bit_identical_to_oracle(self, variant, fixed, d):
        rng = np.random.default_rng([d, int(fixed * 10), len(variant)])
        checked = 0
        for kind in REBALANCE_KINDS:
            for n in (1, 3, 200):
                buy, sell = rng.uniform(0.0, 0.3, (2, d))
                spec = CostSpec(buy=buy, sell=sell, fixed=fixed,
                                variant=variant)
                prev, new, wealth = random_rebalances(rng, n, d, kind)
                got = solve_e_batch(spec, prev, new, wealth)
                want = oracle_solve_e_batch(spec, prev, new, wealth)
                assert got.tobytes() == want.tobytes(), (kind, n)
                checked += n
        assert checked == len(REBALANCE_KINDS) * 204

    @pytest.mark.parametrize("variant", ["additive", "max"])
    @pytest.mark.parametrize("fixed", [0.0, 0.1, 5.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_rows_alone_equal_their_batch_rows(self, variant, fixed, d):
        # a batch of one finite row is solved in Python floats, and a
        # batch of one is what a single simulated path hands the solver
        rng = np.random.default_rng([d, int(fixed * 10), len(variant), 26])
        for kind in REBALANCE_KINDS:
            buy, sell = rng.uniform(0.0, 0.3, (2, d))
            spec = CostSpec(buy=buy, sell=sell, fixed=fixed, variant=variant)
            prev, new, wealth = random_rebalances(rng, 40, d, kind)
            new[0, -1] = np.nan  # a NaN proportion
            prev[1] = -0.0  # -0.0 holdings, a -0.0 breakpoint per asset
            batch = solve_e_batch(spec, prev, new, wealth)
            # the max variant refuses a row whose fixed charge takes it all
            assert np.isnan(batch[0]) == (variant == "additive"
                                          or fixed < wealth[0])
            assert not np.isnan(batch[1:]).any()
            for i in range(40):
                rows = slice(i, i + 1)
                alone = solve_e_batch(spec, prev[rows], new[rows],
                                      wealth[rows])
                assert alone.dtype == batch.dtype and alone.shape == (1,)
                if np.isnan(batch[i]):
                    # numpy's loops give a NaN a sign that depends on the
                    # width of the batch, in the numpy path as well
                    assert np.isnan(alone[0])
                else:
                    assert alone.tobytes() == batch[rows].tobytes(), (kind,
                                                                      i)

    @pytest.mark.parametrize("variant", ["additive", "max"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_solve_e_is_the_one_row_batch(self, variant, d):
        rng = np.random.default_rng([d, len(variant), 26])
        for kind in ("plain", "identical", "vertex"):
            buy, sell = rng.uniform(0.0, 0.3, (2, d))
            spec = CostSpec(buy=buy, sell=sell, fixed=0.1, variant=variant)
            prev, new, wealth = random_rebalances(rng, 20, d, kind)
            batch = solve_e_batch(spec, prev, new, wealth)
            for i in range(20):
                e = solve_e(spec, prev[i], new[i], wealth[i])
                assert type(e) is float
                assert np.float64(e).tobytes() == batch[i].tobytes()
                assert e == solve_e_batch(spec, prev[i], new[i], wealth[i])[0]

    def test_a_root_on_a_signed_zero_breakpoint_is_positive_zero(self):
        # the target 1 - 0.75 equals the sell-all charge 0.25, so the root
        # lies on the -0.0 breakpoint of the first asset, and the clip to
        # that bracket keeps the +0.0 root on both paths
        spec = CostSpec(buy=[0.1, 0.2], sell=[0.3, 0.25], fixed=0.75)
        for n in (1, 2):
            e = solve_e_batch(spec, [[-0.0, 1.0]] * n, [[0.5, 0.5]] * n,
                              [1.0] * n)
            assert e.tobytes() == np.zeros(n).tobytes()

    def test_cases_reach_every_branch(self):
        # unaffordable rows, roots at 1, and rows with no candidate at or
        # below the target (the max variant does not filter those)
        rng = np.random.default_rng(5)
        spec = CostSpec(buy=[0.3, 0.3], sell=[0.3, 0.3], fixed=5.0)
        prev, new, wealth = random_rebalances(rng, 200, 2, "identical")
        e = solve_e_batch(spec, prev, new, wealth)
        assert (e == 0.0).any() and (e == 1.0).any() and (e > 0).any()
        spec = dataclasses.replace(spec, variant="max")
        prev, new, _ = random_rebalances(rng, 200, 2, "leveraged_holdings")
        sell_all = np.maximum(prev, 0.0) @ spec.sell  # the charge at delta 0
        assert (sell_all > 1.0).any()
        got = solve_e_batch(spec, prev, new, np.full(200, 1e4))
        want = oracle_solve_e_batch(spec, prev, new, np.full(200, 1e4))
        assert got.tobytes() == want.tobytes()
        assert (got[sell_all > 1.0] == 0.0).all()


@st.composite
def mixed_rebalances(draw):
    """An additive spec and a batch mixing plain, vertex, unmoved, leveraged
    and lattice rows with wealth from unaffordable to infinite."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 10))
    rate = st.floats(0.0, 0.3)
    spec = CostSpec(buy=draw(st.lists(rate, min_size=d, max_size=d)),
                    sell=draw(st.lists(rate, min_size=d, max_size=d)),
                    fixed=draw(st.sampled_from([0.0, 0.1, 0.75, 5.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prev, new = rng.dirichlet(np.ones(d), n), rng.dirichlet(np.ones(d), n)
    for i in range(n):
        kind = draw(st.sampled_from(["plain", "vertex", "unmoved",
                                     "leveraged_holdings", "leveraged_target",
                                     "lattice"]))
        if kind == "vertex":
            prev[i] = np.eye(d)[rng.integers(d)]
        elif kind == "unmoved":
            new[i] = prev[i]
        elif kind == "leveraged_holdings" and d > 1:
            prev[i, 0] += 4.0
            prev[i, 1] -= 4.0
        elif kind == "leveraged_target" and d > 1:
            new[i, 0] += 1.5
            new[i, 1] -= 1.5
        elif kind == "lattice":
            prev[i], new[i] = np.round(prev[i] * 4) / 4, np.round(new[i] * 4) / 4
    wealth = np.array(draw(st.lists(
        st.sampled_from([0.05, 0.3, 0.75, 1.0, 20.0, 1e4, np.inf])
        | st.floats(1e-3, 1e6), min_size=n, max_size=n)))
    return spec, prev, new, wealth


class TestUnaffordableRows:
    """The additive solve's zeros and ones: +0.0 where no delta in [0, 1]
    brings the charges to the target, 1.0 on unmoved rows at fixed 0, and
    rows solved as they would be alone."""

    @staticmethod
    def spec(fixed):
        # the sell-all charge of holding asset 0 only is exactly 0.25
        return CostSpec(buy=[0.01, 0.02], sell=[0.25, 0.1], fixed=fixed)

    @pytest.mark.parametrize("fixed, case", [(0.75, "g(0) = target"),
                                             (0.8, "g(0) > target"),
                                             (5.0, "target < 0")])
    def test_unaffordable_rows_return_plus_zero(self, fixed, case):
        spec = self.spec(fixed)
        prev = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        new = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        if case == "g(0) = target":
            assert prev[0] @ spec.sell == 1.0 - fixed / 1.0 == 0.25
        e = solve_e_batch(spec, prev, new, np.ones(3))
        assert e.tobytes() == np.zeros(3).tobytes()  # +0.0, sign bit clear
        # a -0.0 holding puts a -0.0 breakpoint next to the candidate 0
        e = solve_e_batch(spec, [[1.0, -0.0]], [[0.5, 0.5]], [1.0])
        assert e.tobytes() == np.zeros(1).tobytes()

    def test_affordable_just_above_the_target(self):
        # one ulp more wealth than the g(0) = target row needs
        spec = self.spec(0.75)
        wealth = np.nextafter(1.0, 2.0)
        e = solve_e_batch(spec, [[1.0, 0.0]], [[0.0, 1.0]], [wealth])
        assert 0.0 < e[0] < 1e-12

    def test_unmoved_rows_at_fixed_zero_return_one(self):
        # the second row sells 4 and buys 3: its sell-all charge alone is
        # above 1, so no move away from it is affordable
        spec = CostSpec(buy=[0.2, 0.3], sell=[0.3, 0.0], fixed=0.0)
        prev = np.array([[0.3, 0.7], [4.0, -3.0], [4.0, -3.0], [1.0, 0.0]])
        new = np.array([[0.3, 0.7], [4.0, -3.0], [3.0, -2.0], [0.0, 1.0]])
        assert prev[1] @ spec.sell > 1.0
        e = solve_e_batch(spec, prev, new, np.full(4, 2.0))
        assert e[:2].tolist() == [1.0, 1.0]
        assert e[2] == 0.0 and not np.signbit(e[2]) and 0.0 < e[3] < 1.0
        oracle = bisect_e(spec, prev, new, np.full(4, 2.0))
        assert oracle[:3].tolist() == [1.0, 1.0, 0.0]
        assert oracle[3] == pytest.approx(e[3], abs=1e-10)

    def test_a_leveraged_target_is_affordable_past_its_dip(self):
        # g(0) is above the target, but g falls with delta until asset 0's
        # breakpoint and crosses the target again near 0.069: the segment
        # solve decides the row and returns that root
        spec = CostSpec(buy=[0.23493513, 0.11664212, 0.06551107],
                        sell=[0.47782538, 0.03539573, 0.264653], fixed=0.75)
        prev = np.array([[0.15718383, 0.74512427, 0.09769189]])
        new = np.array([[2.40690689, -1.42487664, 0.01796975]])
        prev /= prev.sum()
        new /= new.sum()
        wealth = np.array([0.999 * 0.75 / (1.0 - prev[0] @ spec.sell)])
        target = 1.0 - spec.fixed / wealth
        assert prev @ spec.sell > target
        e = solve_e_batch(spec, prev, new, wealth)
        assert 0.06 < e[0] < 0.08
        assert e.tobytes() == _solve_prop_root_batch(spec, prev, new,
                                                     target).tobytes()
        assert transaction_equation(spec, prev, new, wealth, e) == \
            pytest.approx([1.0], abs=1e-12)
        assert transaction_equation(spec, prev[0], new[0], wealth[0],
                                    e[0]) == pytest.approx(1.0, abs=1e-12)
        # the oracle brackets the root past the dip of the equation
        assert transaction_equation(spec, prev, new, wealth, 0.0) > 1.0
        assert bisect_e(spec, prev, new, wealth) == pytest.approx(e, abs=1e-10)

    @given(mixed_rebalances())
    @settings(max_examples=300, deadline=None)
    def test_batches_match_rows_and_the_oracle(self, case):
        spec, prev, new, wealth = case
        got = solve_e_batch(spec, prev, new, wealth)
        rows = np.concatenate([solve_e_batch(spec, prev[i:i + 1],
                                             new[i:i + 1], wealth[i:i + 1])
                               for i in range(len(wealth))])
        assert got.tobytes() == rows.tobytes()
        assert got.tobytes() == oracle_solve_e_batch(
            spec, prev, new, wealth).tobytes()
        oracle = bisect_e(spec, prev, new, wealth)
        assert got == pytest.approx(oracle, abs=1e-10)
        assert ((got > 0.0) == (oracle > 0.0)).all()


class TestOracleAndEquation:
    """``transaction_equation`` evaluates rows as it does one rebalance, and
    ``bisect_e``, which only evaluates it, agrees with the segment solve on
    every kind of row the solve takes."""

    @pytest.mark.parametrize("variant", ["additive", "max"])
    @pytest.mark.parametrize("kind", REBALANCE_KINDS)
    def test_equation_rows_equal_per_row_calls(self, variant, kind):
        rng = np.random.default_rng([REBALANCE_KINDS.index(kind),
                                     len(variant)])
        for d in (1, 2, 3, 5):
            buy, sell = rng.uniform(0.0, 0.3, (2, d))
            spec = CostSpec(buy=buy, sell=sell, fixed=0.1, variant=variant)
            prev, new, wealth = random_rebalances(rng, 50, d, kind)
            delta = rng.uniform(0.0, 1.0, 50)
            rows = transaction_equation(spec, prev, new, wealth, delta)
            alone = [transaction_equation(spec, *row)
                     for row in zip(prev, new, wealth, delta)]
            assert all(type(f) is float for f in alone)
            assert rows.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("variant", ["additive", "max"])
    @pytest.mark.parametrize("fixed", [0.0, 0.1, 5.0])
    @pytest.mark.parametrize("kind", REBALANCE_KINDS)
    def test_oracle_agrees_with_the_solve(self, variant, fixed, kind):
        rng = np.random.default_rng([REBALANCE_KINDS.index(kind),
                                     int(fixed * 10), len(variant)])
        for d in (1, 2, 3, 5):
            buy, sell = rng.uniform(0.0, 0.3, (2, d))
            spec = CostSpec(buy=buy, sell=sell, fixed=fixed, variant=variant)
            prev, new, wealth = random_rebalances(rng, 100, d, kind)
            e = solve_e_batch(spec, prev, new, wealth)
            oracle = bisect_e(spec, prev, new, wealth)
            assert e == pytest.approx(oracle, abs=1e-10)
            assert ((e > 0.0) == (oracle > 0.0)).all()
            roots = e > 0.0
            assert transaction_equation(
                spec, prev[roots], new[roots], wealth[roots], e[roots]
            ) == pytest.approx(np.ones(roots.sum()), abs=1e-12)

    def test_oracle_finds_roots_past_a_dip(self):
        # leveraged targets at wealth just above the fixed charge, kept
        # where F(0) is above 1: each root the solve finds lies past a dip
        rng = np.random.default_rng(19)
        spec = CostSpec(buy=[0.02, 0.01, 0.03], sell=[0.9, 0.02, 0.1],
                        fixed=0.5)
        prev, new, _ = random_rebalances(rng, 1000, 3, "leveraged_target")
        wealth = np.full(1000, 0.6)
        dip = transaction_equation(spec, prev, new, wealth, 0.0) > 1.0
        prev, new, wealth = prev[dip], new[dip], wealth[dip]
        e = solve_e_batch(spec, prev, new, wealth)
        oracle = bisect_e(spec, prev, new, wealth)
        assert (e > 0.0).sum() > 50
        assert e == pytest.approx(oracle, abs=1e-10)
        assert ((e > 0.0) == (oracle > 0.0)).all()


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


def oracle_cost_check(lower, candidate, upper, n_samples, rng):
    """The sandwich check one sample at a time, as it was written before
    candidates took rows: the same draws, bounds and gaps."""
    tol = 1e-12
    counts, worst = [0, 0, 0], [0.0, 0.0, 0.0]
    for _ in range(n_samples):
        n1, n2, n3 = rng.uniform(0.0, 10.0, size=(3, lower.n_assets))
        s = rng.uniform(0.5, 2.0, size=lower.n_assets)
        c12, c13, c23 = (float(candidate(a, b, s))
                         for a, b in ((n1, n2), (n1, n3), (n2, n3)))
        lo = share_cost(lower, n1, n2, s)
        up = share_cost(upper, n1, n2, s)
        for k, (bad, gap) in enumerate(((c12 < lo - tol, lo - c12),
                                        (c12 > up + tol, c12 - up),
                                        (c13 > c12 + c23 + tol,
                                         c13 - c12 - c23))):
            if bad:
                counts[k] += 1
                worst[k] = max(worst[k], gap)
    return (n_samples, *counts, *worst)


class TestSandwichBatch:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("order", ["sandwich", "reversed"])
    def test_report_equals_the_per_sample_loop(self, d, order):
        # reversed bounds make every count and gap nonzero
        rng = np.random.default_rng(d)
        buy, sell = rng.uniform(0.0, 0.05, (2, d))
        lower = CostSpec(buy=buy, sell=sell, fixed=0.0)
        upper = CostSpec(buy=buy, sell=sell, fixed=0.3)
        mid = CostSpec(buy=buy, sell=sell, fixed=0.3, variant="max")
        if order == "reversed":
            lower, upper = upper, lower
        cand = lambda n1, n2, s: share_cost(mid, n1, n2, s)
        rep = general_cost_check(lower, cand, upper, n_samples=400,
                                 rng=np.random.default_rng(7))
        want = oracle_cost_check(lower, cand, upper, 400,
                                 np.random.default_rng(7))
        assert dataclasses.astuple(rep) == want
        assert rep.ok == (order == "sandwich")


class TestShareCost:
    @pytest.mark.parametrize("variant", ["additive", "max"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_rows_equal_per_row_calls(self, variant, d):
        rng = np.random.default_rng([d, len(variant)])
        spec = CostSpec(buy=rng.uniform(0.0, 0.05, d),
                        sell=rng.uniform(0.0, 0.05, d), fixed=0.3,
                        variant=variant)
        before, after = rng.uniform(0.0, 10.0, (2, 500, d))
        prices = rng.uniform(0.5, 2.0, (500, d))
        rows = share_cost(spec, before, after, prices)
        alone = [share_cost(spec, *trade)
                 for trade in zip(before, after, prices)]
        assert all(type(c) is float for c in alone)
        assert rows.tobytes() == np.array(alone).tobytes()

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
