"""Discounted impulse DP: operators, solver, span, gap checks."""

import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import random_model
from dp_oracle import (impulse_operator, oracle_branches,
                       oracle_continuation_fixed, oracle_continuation_prop,
                       oracle_policy, oracle_slack, oracle_solve,
                       oracle_tables, per_sweep_iterate)
from growthopt import (CostSpec, MarketModel, StateGrid, ValueFunction,
                       bellman_residual, bellman_step, build_tables,
                       bundled_model_path, expected_log_return, load_model,
                       min_trade_wealth, mixing_step, solve_discounted, solve_e,
                       solve_e_batch, span_bound, span_seminorm)
from growthopt import dp


def flat_model(rate=1.05):
    return MarketModel(transition=[[1.0]], shock_probs=[1.0],
                       returns=[[[rate]]])


def zero_spec(d):
    return CostSpec(buy=np.zeros(d), sell=np.zeros(d), fixed=0.0)


def brute_impulse(v, model, spec, state):
    """Enumeration oracle for the single-rebalance operator."""
    grid = v.grid
    if v.variant == "fixed":
        p0, j, z = state
        x = grid.wealth[j]
    else:
        p0, z = state
        x = 1.0
    best, best_idx = -np.inf, None
    for p in range(grid.n_nodes):
        e = solve_e(spec, grid.nodes[p0], grid.nodes[p], x)
        if e == 0.0:
            continue
        if v.variant == "fixed":
            # independent log-linear interpolation of the wealth axis
            lw = np.log(grid.wealth)
            pos = np.clip(np.log(x * e), lw[0], lw[-1])
            j0 = min(int((pos - lw[0]) / (lw[1] - lw[0])), len(lw) - 2)
            frac = (pos - lw[j0]) / (lw[1] - lw[0])
            cont = (1 - frac) * v.values[p, j0, z] + frac * v.values[p, j0 + 1, z]
        else:
            cont = v.values[p, z]
        val = math.log(e) + cont
        if val > best:
            best, best_idx = val, p
    return best, best_idx


class TestImpulseOperator:
    def test_constant_value_no_fixed_cost(self, model2):
        spec = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=0.0)
        grid = StateGrid.build(2, 4, 2)
        v = ValueFunction(grid, np.full((5, 2), 3.25), beta=0.9)
        val, idx = impulse_operator(v, model2, spec, (2, 0))
        assert val == pytest.approx(3.25, abs=1e-12)
        assert idx == 2  # rebalancing away only loses wealth

    def test_single_asset_degenerate(self, single_asset_model):
        spec = CostSpec(buy=[0.01], sell=[0.01], fixed=0.2)
        grid = StateGrid.build(1, 4, 1, x_min=1.0, x_max=100.0, n_x=8)
        rng = np.random.default_rng(0)
        v = ValueFunction(grid, rng.normal(size=(1, 8, 1)), 0.9)
        val, idx = impulse_operator(v, single_asset_model, spec, (0, 4, 0))
        ref = brute_impulse(v, single_asset_model, spec, (0, 4, 0))
        assert idx == 0
        assert val == pytest.approx(ref[0], abs=1e-12)

    def test_matches_enumeration_on_random_values(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=8)
        rng = np.random.default_rng(1)
        v = ValueFunction(grid, rng.normal(size=(5, 8, 2)), 0.95)
        for _ in range(40):
            state = (int(rng.integers(5)), int(rng.integers(8)),
                     int(rng.integers(2)))
            got = impulse_operator(v, model2, spec2, state)
            ref = brute_impulse(v, model2, spec2, state)
            assert got[1] == ref[1]
            assert got[0] == pytest.approx(ref[0], abs=1e-10)

    def test_all_infeasible_marker(self, model2, spec2):
        # wealth below the fixed charge: every rebalance annihilates
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e-2, n_x=4)
        v = ValueFunction(grid, np.zeros((5, 4, 2)), 0.9)
        val, idx = impulse_operator(v, model2, spec2, (0, 0, 0))
        assert val == -np.inf and idx is None


class TestBellmanStep:
    def test_fixed_point_single_asset(self):
        model = flat_model(1.05)
        spec = zero_spec(1)
        grid = StateGrid.build(1, 1, 1)
        h = math.log(1.05)
        beta = 0.9
        v = ValueFunction(grid, np.full((1, 1), h / (1 - beta)), beta)
        out = bellman_step(v, build_tables(model, spec, grid))
        np.testing.assert_allclose(out.values, v.values, atol=1e-12)

    def test_one_step_from_zero_by_hand(self, model2):
        # two-node mesh: the step value is max(h(p, z), ln e + h(p', z))
        spec = CostSpec(buy=[0.02, 0.02], sell=[0.02, 0.02], fixed=0.0)
        grid = StateGrid.build(2, 1, 2)
        v = ValueFunction(grid, np.zeros((2, 2)), 0.9)
        out = bellman_step(v, build_tables(model2, spec, grid))
        ln_e = math.log(solve_e(spec, [1, 0], [0, 1], 1.0))
        for z in range(2):
            h = [expected_log_return(model2, grid.nodes[p], z) for p in range(2)]
            for p in range(2):
                expected = max(h[p], ln_e + h[1 - p])
                assert out.values[p, z] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("fixed", [0.0, 0.2])
    def test_contraction(self, model2, fixed):
        spec = CostSpec(buy=[0.01, 0.02], sell=[0.02, 0.01], fixed=fixed)
        if fixed > 0:
            grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=8)
        else:
            grid = StateGrid.build(2, 4, 2)
        tables = build_tables(model2, spec, grid)
        rng = np.random.default_rng(2)
        beta = 0.9
        for _ in range(100):
            a = rng.normal(size=grid.shape)
            b = rng.normal(size=grid.shape)
            ta = bellman_step(ValueFunction(grid, a, beta), tables).values
            tb = bellman_step(ValueFunction(grid, b, beta), tables).values
            assert np.abs(ta - tb).max() <= beta * np.abs(a - b).max() + 1e-12

    def test_proportional_values_on_a_wealth_grid(self, model2, spec2):
        # the grid decides the layout: values without a wealth axis belong
        # on the grid without one, and are refused on a wealth grid
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=8)
        v = np.random.default_rng(4).normal(size=(5, 2))
        with pytest.raises(ValueError, match=r"values has shape \(5, 2\), "
                           r"but tables on its grid have shape \(5, 8, 2\)"):
            ValueFunction(grid, v, 0.9)
        flat = ValueFunction(grid.without_wealth(), v, 0.9)
        assert flat.variant == "proportional"
        out = bellman_step(flat, build_tables(model2, spec2.without_fixed(),
                                              flat.grid))
        assert out.grid is flat.grid and out.values.shape == (5, 2)

    def test_rejects_tables_of_the_other_variant(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=8)
        wealth_tables = build_tables(model2, spec2, grid)
        flat_tables = build_tables(model2, spec2.without_fixed(),
                                   grid.without_wealth())
        prop = ValueFunction(grid.without_wealth(), np.zeros((5, 2)), 0.9)
        fixed = ValueFunction(grid, np.zeros((5, 8, 2)), 0.9)
        with pytest.raises(ValueError, match="without a wealth axis"):
            bellman_step(prop, wealth_tables)
        with pytest.raises(ValueError, match="with a wealth axis"):
            bellman_step(fixed, flat_tables)

    def test_rejects_tables_of_a_smaller_grid(self, model2, spec2):
        # the gathers of a 4-node wealth axis stay inside an 8-node value
        # table, so without the check the step reads the wrong entries
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=8)
        coarse = build_tables(model2, spec2, StateGrid.build(
            2, 4, 2, x_min=1e-2, x_max=1e3, n_x=4))
        fixed = ValueFunction(grid, np.zeros((5, 8, 2)), 0.9)
        with pytest.raises(ValueError, match="do not fit tables built for "
                           r"shape \(5, 4, 2\)"):
            bellman_step(fixed, coarse)

    def test_preserves_wealth_monotonicity(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=12)
        rng = np.random.default_rng(3)
        base = np.sort(rng.normal(size=(5, 12, 2)), axis=1)
        v = ValueFunction(grid, base, 0.95)
        tables = build_tables(model2, spec2, grid)
        for _ in range(5):
            v = bellman_step(v, tables)
            assert (np.diff(v.values, axis=1) >= -1e-12).all()


class TestBellmanStepOracle:
    def test_fixed_variant_matches_per_state_loop(self, model2, spec2):
        # independent per-state reimplementation of the declared
        # discretization: nearest node by exhaustive distance, log-linear
        # wealth interpolation, continuation table composed per target
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=8)
        rng = np.random.default_rng(7)
        v = rng.normal(size=(grid.n_nodes, 8, 2))
        beta = 0.93
        out = bellman_step(ValueFunction(grid, v, beta),
                           build_tables(model2, spec2, grid)).values
        lw = np.log(grid.wealth)
        dlw = lw[1] - lw[0]

        def interp_v(p, x, z):
            pos = min(max((math.log(x) - lw[0]) / dlw, 0.0), len(lw) - 1.0)
            j0 = min(int(pos), len(lw) - 2)
            fr = pos - j0
            return (1 - fr) * v[p, j0, z] + fr * v[p, j0 + 1, z]

        def ev(p, x, z):
            total = 0.0
            for q in range(2):
                for s in range(2):
                    zeta = model2.returns[q, s]
                    growth = float(grid.nodes[p] @ zeta)
                    dia = grid.nodes[p] * zeta / growth
                    pidx = int(np.argmin(
                        np.linalg.norm(grid.nodes - dia, axis=1)))
                    total += model2.transition[z, q] * model2.shock_probs[s] \
                        * interp_v(pidx, x * growth, q)
            return total

        def cont_at(p, x, z):
            return expected_log_return(model2, grid.nodes[p], z) \
                + beta * ev(p, x, z)

        for _ in range(30):
            p0 = int(rng.integers(grid.n_nodes))
            j = int(rng.integers(8))
            z = int(rng.integers(2))
            x = grid.wealth[j]
            best = cont_at(p0, x, z)
            for p in range(grid.n_nodes):
                if p == p0:
                    continue
                e = solve_e(spec2, grid.nodes[p0], grid.nodes[p], x)
                if e == 0.0:
                    continue
                pos = min(max((math.log(x * e) - lw[0]) / dlw, 0.0),
                          len(lw) - 1.0)
                j0 = min(int(pos), len(lw) - 2)
                fr = pos - j0
                val = math.log(e) + (1 - fr) * cont_at(p, grid.wealth[j0], z) \
                    + fr * cont_at(p, grid.wealth[j0 + 1], z)
                best = max(best, val)
            assert out[p0, j, z] == pytest.approx(best, abs=1e-10)


class TestBuildTables:
    """``build_tables`` alone maps a cost to its grid: a fixed charge needs
    the wealth axis, a spec without one is built without it."""

    def test_refuses_a_fixed_charge_without_a_wealth_axis(self, model2,
                                                          spec2):
        # built as proportional tables before, dropping the fixed charge
        with pytest.raises(ValueError, match="fixed-cost problems need a "
                           "wealth axis on the grid"):
            build_tables(model2, spec2, StateGrid.build(2, 4, 2))

    def test_builds_a_proportional_spec_without_the_wealth_axis(self, model2,
                                                                spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        prop = spec2.without_fixed()
        t = build_tables(model2, prop, grid)
        flat = build_tables(model2, prop, grid.without_wealth())
        assert t.variant == "proportional" and t.free is None
        assert not t.grid.has_wealth_axis and t.grid.shape == (5, 2)
        for name in ("h_tab", "hold_idx", "move_ln_e"):
            assert np.array_equal(getattr(t, name), getattr(flat, name))

    def test_companion_holds_the_cost_without_its_fixed_charge(self, model2,
                                                               spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        free = build_tables(model2, spec2, grid).free
        prop = build_tables(model2, spec2.without_fixed(), grid)
        assert free.variant == "proportional" and free.grid.shape == (5, 2)
        for name in ("h_tab", "hold_idx", "move_ln_e"):
            assert np.array_equal(getattr(free, name), getattr(prop, name))

    def test_companion_then_owner_solve_builds_nothing(self, model2, spec2,
                                                       monkeypatch):
        # the proportional solve on ``t.free`` and the fixed-cost solve on
        # ``t`` take the tables as they are: no build, one warm start
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        t = build_tables(model2, spec2, grid)
        built, warm = [], []
        iterate = dp._iterate

        def spy_iterate(update, v, beta, stop_tol, what, *args):
            if what == "hold-only warm start":
                warm.append(beta)
            return iterate(update, v, beta, stop_tol, what, *args)

        monkeypatch.setattr(dp, "build_tables", lambda *a: built.append(a))
        monkeypatch.setattr(dp, "_iterate", spy_iterate)
        vp, _, rep_p = solve_discounted(t.free, 0.9, tol=1e-7)
        vf, _, rep_f = solve_discounted(t, 0.9, tol=1e-7)
        assert built == [] and warm == [0.9]
        assert vp.grid is t.free.grid and vf.grid is t.grid
        assert rep_p.init_iterations == rep_f.init_iterations > 0


class TestSolveDiscounted:
    def test_single_asset_value_and_empty_impulse_region(self):
        model = flat_model(1.05)
        spec = zero_spec(1)
        grid = StateGrid.build(1, 1, 1)
        vf, pol, rep = solve_discounted(build_tables(model, spec, grid),
                                        0.9, tol=1e-9)
        assert vf.values[0, 0] == pytest.approx(math.log(1.05) / 0.1, abs=1e-7)
        assert not pol.impulse.any()

    def test_costfree_matches_independent_dp(self, model2, free_spec2):
        # oracle: with free rebalancing the state collapses to the factor,
        # V(z) = max_p h(p, z) + beta * sum_q P(z, q) V(q); no impulse
        # machinery involved
        grid = StateGrid.build(2, 8, 2)
        beta = 0.95
        vf, pol, _ = solve_discounted(build_tables(model2, free_spec2, grid),
                                      beta, tol=1e-8)
        h = np.array([[expected_log_return(model2, node, z) for z in range(2)]
                      for node in grid.nodes])
        v_or = np.zeros(2)
        for _ in range(2000):
            v_or = h.max(axis=0) + beta * (model2.transition @ v_or)
        diff = np.abs(vf.values - v_or[None, :]).max()
        assert diff <= 1e-6

    def test_value_sup_bound(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
        beta = 0.9
        vf, _, rep = solve_discounted(build_tables(model2, spec2, grid),
                                      beta, tol=1e-6)
        tables = build_tables(model2, spec2.without_fixed(), grid.without_wealth())
        h_inf = float(np.abs(tables.h_tab).max())
        # ln e without the sentinel on the diagonal
        ln_e = tables.move_ln_e
        ln_e_min = float(ln_e.min(initial=0.0, where=ln_e > dp.NEG))
        bound = (h_inf + abs(ln_e_min)) / (1 - beta)
        assert bound < 10.0
        assert np.abs(vf.values).max() <= bound + 1e-9

    def test_wealth_monotone_after_convergence(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=10)
        vf, _, _ = solve_discounted(build_tables(model2, spec2, grid),
                                    0.95, tol=1e-7)
        assert (np.diff(vf.values, axis=1) >= -1e-10).all()

    def test_policy_targets_always_affordable(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=10)
        vf, pol, _ = solve_discounted(build_tables(model2, spec2, grid),
                                      0.95, tol=1e-7)
        p, j, z = np.nonzero(pol.impulse)
        e = solve_e_batch(spec2, grid.nodes[p], grid.nodes[pol.target[p, j, z]],
                          grid.wealth[j])
        assert p.size and (e > 0).all()

    def test_stop_rule_close_to_fixed_point(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
        tol = 1e-5
        vf, _, rep = solve_discounted(build_tables(model2, spec2, grid),
                                      0.9, tol=tol)
        again = bellman_step(vf, build_tables(model2, spec2, grid))
        assert np.abs(again.values - vf.values).max() <= tol * (1 - 0.9) / 0.9
        assert rep.error_bound <= tol


    def test_rejects_nonpositive_tol(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2)
        for tol in (0.0, -1e-6, float("nan")):
            with pytest.raises(ValueError):
                solve_discounted(build_tables(model2, spec2.without_fixed(),
                                              grid), 0.9, tol=tol)

    def test_rejects_infinite_tol(self, model2, spec2):
        # an infinite tol stops after one sweep with a meaningless bound
        tables = build_tables(model2, spec2.without_fixed(),
                              StateGrid.build(2, 4, 2))
        with pytest.raises(ValueError, match="tol must be a finite number > "
                           "0, got inf"):
            solve_discounted(tables, 0.9, tol=float("inf"))


class TestSolveDigests:
    """Values and policies of the bundled model at acceptance scale, pinned
    by digest, so that a sweep kernel that moves a single bit fails here."""

    @pytest.mark.parametrize("fixed, digests", [
        (True, ("50e5c3e1a2d5b27a99bc0670b61c156cfb299d59ea450dfcdcae047ff55cfa56",
                "7339b759b6ab3b7d8ff0da538a6fe66f00a2e8ddec18105ac817b7741666eaa2")),
        (False, ("e9f5a74dfd95b2455362209282a9eae345e2a03fb586df28257548cec815c3b3",
                 "6a285e485c60b13619b1f2cd380dbbf672dfa48f3fde67f4582122e02ee12086")),
    ])
    def test_bundled_model_beta_099(self, fixed, digests):
        model, spec = load_model(bundled_model_path())
        if not fixed:
            spec = spec.without_fixed()
        grid = StateGrid.build(2, 8, 2, x_min=1e-3, x_max=1e4, n_x=16)
        vf, pol, rep = solve_discounted(build_tables(model, spec, grid),
                                        0.99, tol=1e-7)
        assert (rep.init_iterations, rep.iterations) == (1791, 1668)
        assert (hashlib.sha256(vf.values.tobytes()).hexdigest(),
                hashlib.sha256(pol.impulse.tobytes()
                               + pol.target.astype(np.int64).tobytes()
                               ).hexdigest()) == digests


class TestStopRule:
    def test_stalled_step_raises_at_the_contraction_cap(self):
        # a step stuck above the tolerance, as rounding leaves it when tol is
        # below the floor, stops after about twice the contraction's count
        calls = []

        def stuck(v, out):
            calls.append(1)
            return np.subtract(1.0, v, out=out)

        beta, stop_tol = 0.9, 1e-12
        with pytest.raises(RuntimeError, match="step tolerance"):
            dp._iterate(stuck, np.zeros(3), beta, stop_tol, "stuck")
        assert len(calls) <= 2 * math.log(stop_tol) / math.log(beta) + 17

    def test_non_finite_step_raises_at_once(self):
        calls = []

        def blow_up(v, out):
            calls.append(1)
            return np.add(v, np.inf, out=out)

        with pytest.raises(RuntimeError, match="non-finite"):
            dp._iterate(blow_up, np.zeros(3), 0.9, 1e-9, "blow-up")
        assert len(calls) == 1

    def test_tiny_tol_reaches_exact_fixed_point(self, model2, spec2):
        # on this grid the sweeps land on an exact floating-point fixed
        # point, so a tol far below rounding still ends, within the cap
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e2, n_x=6)
        _, _, rep = solve_discounted(build_tables(model2, spec2, grid),
                                     0.9, tol=1e-300)
        assert rep.final_diff == 0.0


def per_sweep_outcome(update, v, beta, stop_tol):
    """(values, count, step) or the error message of the stop rule checked
    after every sweep, for an update ``update(v, out)``."""
    try:
        return per_sweep_iterate(lambda u: update(u, np.empty_like(u)), v,
                                 beta, stop_tol, "update")
    except RuntimeError as exc:
        return str(exc)


def look_back_outcome(update, v, beta, stop_tol):
    try:
        return dp._iterate(update, v, beta, stop_tol, "update")
    except RuntimeError as exc:
        return str(exc)


class TestLookBackStop:
    """The stop rule looks back over a batch of sweeps and must return the
    sweep, count and step, or raise the error, of a check after every
    sweep."""

    @pytest.mark.parametrize("fixed", [0.0, 0.2])
    def test_thirty_tolerances_match_the_per_sweep_rule(self, model2, spec2,
                                                        fixed):
        spec = CostSpec(buy=spec2.buy, sell=spec2.sell, fixed=fixed)
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        prop_grid = grid if fixed else grid.without_wealth()
        beta = 0.9
        offsets = set()
        for tol in np.logspace(-1.5, -10.0, 30):
            vf, pol, rep = solve_discounted(build_tables(model2, spec, grid),
                                            beta, tol=tol)
            values, impulse, target, k_init, k_main = oracle_solve(
                model2, spec, prop_grid, beta, tol)
            assert np.array_equal(vf.values, values)
            assert np.array_equal(pol.impulse, impulse)
            assert np.array_equal(pol.target, target)
            assert (rep.init_iterations, rep.iterations) == (k_init, k_main)
            # a count k > 1 stops at position (k - 2) mod SWEEP_BATCH of
            # its batch, after the one-sweep first batch
            offsets.update((k - 2) % dp.SWEEP_BATCH for k in (k_init, k_main))
        assert len(offsets) >= 20

    def test_one_sweep_batches_give_the_same_solve(self, model2, spec2,
                                                   monkeypatch):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        vf, pol, rep = solve_discounted(build_tables(model2, spec2, grid),
                                        0.95, tol=1e-8)
        monkeypatch.setattr(dp, "RING_BUDGET", 0)
        vf1, pol1, rep1 = solve_discounted(build_tables(model2, spec2, grid),
                                           0.95, tol=1e-8)
        assert np.array_equal(vf.values, vf1.values)
        assert np.array_equal(pol.target, pol1.target)
        assert (rep.init_iterations, rep.iterations, rep.final_diff) == (
            rep1.init_iterations, rep1.iterations, rep1.final_diff)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("at", [2, 3, 40, 65, 66, 100])
    def test_non_finite_step_mid_batch_names_the_same_sweep(self, bad, at):
        def update(v, out):
            calls.append(1)
            np.multiply(v, 0.99, out=out)
            np.add(out, 1.0, out=out)
            if len(calls) == at:
                out[1] = bad
            return out

        outcomes = []
        for rule in (per_sweep_outcome, look_back_outcome):
            calls = []
            outcomes.append(rule(update, np.zeros(3), 0.99, 1e-300))
        assert outcomes[0] == outcomes[1] == (
            f"update: non-finite step {abs(bad)} at sweep {at}")

    @pytest.mark.parametrize("beta, stop_tol", [
        (0.9, 1e-12), (0.5, 1e-9), (0.99, 1e-6), (0.999, 1e-3)])
    def test_stall_raises_at_the_same_sweep(self, beta, stop_tol):
        calls = []

        def stuck(v, out):
            calls.append(1)
            return np.subtract(1.0, v, out=out)

        want = per_sweep_outcome(stuck, np.zeros(3), beta, stop_tol)
        calls.clear()
        got = look_back_outcome(stuck, np.zeros(3), beta, stop_tol)
        cap = 2.0 * math.log(stop_tol) / math.log(beta) + 16
        assert "did not reach step tolerance" in want
        assert got == want
        assert len(calls) <= cap + 1

    @pytest.mark.parametrize("stop_tol", [0.3, 1e-3, 1e-7, 1e-12])
    def test_contraction_stops_at_the_same_sweep(self, stop_tol):
        # steps 2**-k: the first sweep at or below stop_tol is returned,
        # with its values and step, not a later sweep of its batch
        def halve(v, out):
            np.multiply(v, 0.5, out=out)
            return np.add(out, 1.0, out=out)

        want = per_sweep_outcome(halve, np.zeros(4), 0.5, stop_tol)
        got = look_back_outcome(halve, np.zeros(4), 0.5, stop_tol)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


class TestOneTransactionRule:
    def test_second_impulse_never_improves(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=16)
        vf, _, _ = solve_discounted(build_tables(model2, spec2, grid),
                                    0.95, tol=1e-7)
        # apply the impulse operator to every state, then once more on top;
        # stay on high wealth nodes so stencils avoid the unaffordable region
        mv = np.full_like(vf.values, -1e18)
        for p in range(grid.n_nodes):
            for j in range(grid.n_wealth):
                for z in range(2):
                    val, _ = impulse_operator(vf, model2, spec2, (p, j, z))
                    if np.isfinite(val):
                        mv[p, j, z] = val
        mvf = ValueFunction(grid, mv, vf.beta)
        for p in range(grid.n_nodes):
            for j in range(8, grid.n_wealth - 1):
                for z in range(2):
                    once, _ = impulse_operator(vf, model2, spec2, (p, j, z))
                    twice, _ = impulse_operator(mvf, model2, spec2, (p, j, z))
                    assert twice <= once + 1e-9


class TestSpan:
    def test_constant_value_zero_span(self):
        grid = StateGrid.build(2, 4, 2)
        v = ValueFunction(grid, np.full((5, 2), 7.0), 0.9)
        assert span_seminorm(v) == 0.0

    def test_free_rebalance_single_factor_span_zero(self):
        model = MarketModel(transition=[[1.0]], shock_probs=[0.6, 0.4],
                            returns=[[[1.1, 0.95], [0.9, 1.08]]])
        grid = StateGrid.build(2, 8, 1)
        vf, _, _ = solve_discounted(build_tables(model, zero_spec(2), grid),
                                    0.95, tol=1e-9)
        assert span_seminorm(vf) <= 1e-7

    def test_rejects_fixed_variant(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e2, n_x=4)
        vf, _, _ = solve_discounted(build_tables(model2, spec2, grid),
                                    0.9, tol=1e-5)
        with pytest.raises(ValueError):
            span_seminorm(vf)

    def test_span_below_bound_moderate_beta(self, model2, spec2):
        grid = StateGrid.build(2, 8, 2)
        bound = span_bound(model2, spec2, grid)
        # ln e read with the sweeps' sentinel diagonal would give about 1e18
        assert bound == 0.26606097162684333
        prop_tables = build_tables(model2, spec2.without_fixed(), grid)
        for beta in (0.9, 0.99):
            vf, _, _ = solve_discounted(prop_tables, beta, tol=1e-7)
            assert span_seminorm(vf) <= bound

    @pytest.mark.parametrize("d, mesh, fixed, variant", [
        (3, 4, 0.05, "max"), (1, 1, 0.0, "additive")])
    def test_bound_takes_the_worst_drag_of_the_oracle_tables(
            self, d, mesh, fixed, variant):
        # the sweeps' ln e with its sentinel diagonal left out gives the
        # drag of an independent ln e table, bit for bit
        rng = np.random.default_rng(17)
        model = random_model(rng, d=d)
        spec = CostSpec(buy=rng.uniform(0.0, 0.03, d),
                        sell=rng.uniform(0.0, 0.03, d), fixed=fixed,
                        variant=variant)
        grid = StateGrid.build(d, mesh, 2)
        t = oracle_tables(model, spec, grid)
        n, kappa = mixing_step(model)
        h_sp = float(t.h_tab.max() - t.h_tab.min())
        want = (n * h_sp - (n + 2) * float(t.ln_e_prop.min())) / (1.0 - kappa)
        assert span_bound(model, spec, grid) == want


@dataclass
class GapReport:
    """Comparison of proportional and fixed-cost values on shared axes."""

    nonnegative: bool
    monotone_in_wealth: bool
    min_gap: float
    max_gap_per_wealth: np.ndarray

    @property
    def ok(self) -> bool:
        return self.nonnegative and self.monotone_in_wealth


def value_gap_check(v_fixed: ValueFunction, v_prop: ValueFunction,
                    slack: float = 1e-6) -> GapReport:
    """Check prop value >= fixed value and that the gap shrinks with wealth.

    ``slack`` absorbs the value-iteration tolerances of the two solves.
    """
    if v_fixed.variant != "fixed" or v_prop.variant != "proportional":
        raise ValueError("expected a fixed-cost and a proportional value function")
    gap = v_prop.values[:, None, :] - v_fixed.values  # (n_p, n_x, n_z)
    worse_with_wealth = np.diff(gap, axis=1).max() if gap.shape[1] > 1 else 0.0
    return GapReport(
        nonnegative=bool(gap.min() >= -slack),
        monotone_in_wealth=bool(worse_with_wealth <= slack),
        min_gap=float(gap.min()),
        max_gap_per_wealth=gap.max(axis=(0, 2)),
    )


class TestValueGap:
    def test_zero_fixed_cost_zero_gap(self, model2):
        spec = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=0.0)
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e2, n_x=6)
        v_prop, _, _ = solve_discounted(build_tables(model2, spec, grid),
                                        0.9, tol=1e-8)
        fixed_like = ValueFunction(
            grid, np.repeat(v_prop.values[:, None, :], 6, axis=1), 0.9)
        rep = value_gap_check(fixed_like, v_prop, slack=1e-9)
        assert rep.ok
        assert abs(rep.min_gap) <= 1e-12
        assert rep.max_gap_per_wealth.max() <= 1e-12

    def test_fixed_cost_gap_positive_and_monotone(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=10)
        beta = 0.95
        v_fix, _, _ = solve_discounted(build_tables(model2, spec2, grid),
                                       beta, tol=1e-7)
        v_prop, _, _ = solve_discounted(
            build_tables(model2, spec2.without_fixed(), grid), beta, tol=1e-7)
        rep = value_gap_check(v_fix, v_prop, slack=1e-5)
        assert rep.ok
        assert rep.max_gap_per_wealth[0] > 1e-3  # scarce wealth hurts
        assert rep.max_gap_per_wealth[0] >= rep.max_gap_per_wealth[-1]


class TestGridRefinement:
    def test_growth_estimate_stabilizes_under_mesh_refinement(self, model2,
                                                              spec2):
        # halving the mesh changes the growth estimate by a shrinking amount
        beta = 0.99
        est = []
        for order in (4, 8, 16):
            grid = StateGrid.build(2, order, 2)
            vf, _, _ = solve_discounted(
                build_tables(model2, spec2.without_fixed(), grid), beta,
                tol=1e-8)
            est.append((1 - beta) * vf.values.max())
        assert abs(est[2] - est[1]) <= abs(est[1] - est[0]) + 1e-12


def kernel_cases():
    rng = np.random.default_rng(11)
    model3 = random_model(rng, n_z=3, n_s=3, d=3)
    spec3 = CostSpec(buy=[0.01, 0.02, 0.015], sell=[0.02, 0.01, 0.01],
                     fixed=0.05)
    return {
        "2-asset": (None, dict(n_assets=2, mesh_order=8, n_z=2)),
        "3-asset": ((model3, spec3), dict(n_assets=3, mesh_order=4, n_z=3)),
    }


KERNEL_CASES = kernel_cases()


@pytest.fixture(params=sorted(KERNEL_CASES))
def kernel_case(request, model2, spec2):
    problem, grid_args = KERNEL_CASES[request.param]
    model, spec = problem or (model2, spec2)
    return model, spec, grid_args


class TestKernelsMatchReference:
    @pytest.mark.parametrize("variant", ["fixed", "proportional"])
    def test_random_values(self, kernel_case, variant):
        model, spec, grid_args = kernel_case
        if variant == "fixed":
            # the rebalance tables leave out the leading wealth columns in
            # which every rebalance is unaffordable: some columns, none,
            # all but x = inf, and none of a single column
            x_star = min_trade_wealth(spec)
            axes = [(1e-3, 1e3, 7), (2.0 * x_star, 1e3, 5),
                    (1e-3, 0.5 * x_star, 4), (1.0, 2.0, 1)]
            grids = [StateGrid.build(x_min=x_min, x_max=x_max, n_x=n_x,
                                     **grid_args)
                     for x_min, x_max, n_x in axes]
        else:
            spec = spec.without_fixed()
            grids = [StateGrid.build(**grid_args)]
        rng = np.random.default_rng(5)
        barred = []
        for grid in grids:
            t = build_tables(model, spec, grid)
            ref = oracle_tables(model, spec, grid)
            barred.append(t.n_barred)
            for beta in (1.0, 0.93):
                for _ in range(5):
                    v = rng.normal(scale=3.0, size=grid.shape)
                    cont, vals = dp._branches(v, t, beta)
                    r_cont, r_max, r_argmax = oracle_branches(v, ref, beta,
                                                              variant)
                    assert np.array_equal(cont, r_cont)
                    assert np.array_equal(vals.max(axis=1), r_max)
                    assert np.array_equal(vals.argmax(axis=1), r_argmax)
                    step = bellman_step(ValueFunction(grid, v, beta), t)
                    assert np.array_equal(step.values,
                                          np.maximum(r_cont, r_max))
        if variant == "fixed":
            assert barred[0] > 0 and barred[1:] == [0, 4, 0]

    @pytest.mark.parametrize("fixed", [0.0, 0.2])
    def test_solve_matches_reference_iteration(self, model2, spec2, fixed):
        spec = CostSpec(buy=spec2.buy, sell=spec2.sell, fixed=fixed)
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        prop_grid = grid if fixed else grid.without_wealth()
        for beta in (0.9, 0.97):
            vf, pol, rep = solve_discounted(build_tables(model2, spec, grid),
                                            beta, tol=1e-7)
            values, impulse, target, k_init, k_main = oracle_solve(
                model2, spec, prop_grid, beta, 1e-7)
            assert np.array_equal(vf.values, values)
            assert np.array_equal(pol.impulse, impulse)
            assert np.array_equal(pol.target, target)
            assert (rep.init_iterations, rep.iterations) == (k_init, k_main)


class TestWealthFreeWarmStart:
    """Holding pays no charge and h has no wealth axis, so from zero every
    hold-only iterate on a wealth grid is constant along wealth and equals
    the wealth-free iterate; the solver runs the warm start without the
    wealth axis and broadcasts it."""

    @pytest.mark.parametrize("x_min, x_max, n_x", [(1e-3, 1e4, 16),
                                                   (0.99, 1.01, 4)],
                             ids=["acceptance", "clamped"])
    def test_fixed_grid_hold_iteration_is_the_broadcast(self, model2, spec2,
                                                        x_min, x_max, n_x):
        grid = StateGrid.build(2, 8, 2, x_min=x_min, x_max=x_max, n_x=n_x)
        flat = grid.without_wealth()
        port = np.einsum("pd,qsd->pqs", grid.nodes, model2.returns)
        x_step = grid.wealth[None, :, None, None] * port[:, None]
        # market steps leave the wealth range at both ends, where the
        # gathers clamp
        assert (x_step < x_min).any() and (x_step > x_max).any()
        t = oracle_tables(model2, spec2, grid)
        t_flat = oracle_tables(model2, spec2, flat)
        tables = build_tables(model2, spec2, grid)
        for beta in (0.9, 0.99):
            stop_tol = 1e-7 * (1.0 - beta) / beta
            v_fix, k_fix, _ = per_sweep_iterate(
                lambda v: oracle_continuation_fixed(v, t, beta),
                np.zeros(grid.shape), beta, stop_tol, "fixed-grid hold")
            v_free, k_free, _ = per_sweep_iterate(
                lambda v: oracle_continuation_prop(v, t_flat, beta),
                np.zeros(flat.shape), beta, stop_tol, "wealth-free hold")
            assert k_fix == k_free
            gap = np.abs(v_fix - v_free[:, None, :]).max()
            assert gap <= 1e-12 * np.abs(v_fix).max()
            _, _, rep = solve_discounted(tables, beta, tol=1e-7)
            assert rep.init_iterations == k_fix
            key, v_warm, k_warm, _ = tables.free.solved
            assert key == (beta, stop_tol) and k_warm == k_fix
            assert np.array_equal(v_warm, v_free)

    def test_kept_warm_start_is_keyed_by_beta_and_tol(self, model2, spec2):
        # solves that share tables reuse the warm start only at the same
        # (beta, tol); every solve equals one on tables of its own
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        tables = build_tables(model2, spec2, grid)
        for beta, tol in [(0.9, 1e-7), (0.9, 1e-5), (0.95, 1e-5),
                          (0.9, 1e-7)]:
            for s, t in [(spec2.without_fixed(), tables.free),
                         (spec2, tables)]:
                vf, pol, rep = solve_discounted(t, beta, tol=tol)
                vf1, pol1, rep1 = solve_discounted(
                    build_tables(model2, s, grid), beta, tol=tol)
                assert np.array_equal(vf.values, vf1.values)
                assert np.array_equal(pol.target, pol1.target)
                assert (rep.init_iterations, rep.iterations) == (
                    rep1.init_iterations, rep1.iterations)


# grids on which the proportional problem that rides in the x = inf column
# stops with the fixed-cost one (acceptance) or long after it, and on which
# the rebalance tables leave out some wealth columns (acceptance), none
# (above x* = 0.1003, of one column too) or all but x = inf (below x*, where
# no state can trade, so the fixed-cost solve stops at its first sweep), on
# the bundled model at beta 0.99 and tol 1e-7: name -> (mesh, x_min, x_max,
# n_x, fixed charge or None for the bundled one, fixed-cost and proportional
# sweeps, columns left out)
FUSED_GRIDS = {
    "acceptance": (8, 1e-3, 1e4, 16, None, 1668, 1668, 5),
    "narrow": (4, 0.5, 2.0, 4, 0.3, 181, 1668, 0),
    "clamped": (4, 0.99, 1.01, 4, None, 1534, 1668, 0),
    "unbarred": (4, 0.2, 1e3, 6, None, 1668, 1668, 0),
    "all_barred": (4, 1e-3, 0.05, 4, None, 1, 1668, 4),
    "one_column": (4, 1.0, 2.0, 1, None, 1533, 1668, 0),
}


@pytest.fixture(params=sorted(FUSED_GRIDS))
def fused_case(request):
    mesh, x_min, x_max, n_x, fixed, k_fix, k_prop, n_barred = \
        FUSED_GRIDS[request.param]
    model, spec = load_model(bundled_model_path())
    if fixed is not None:
        spec = CostSpec(buy=spec.buy, sell=spec.sell, fixed=fixed)
    grid = StateGrid.build(2, mesh, 2, x_min=x_min, x_max=x_max, n_x=n_x)
    return model, spec, grid, k_fix, k_prop, n_barred


def solve_bits(vf, pol, rep):
    return (vf.values.tobytes(), pol.impulse.tobytes(), pol.target.tobytes(),
            rep.init_iterations, rep.iterations, rep.final_diff)


class TestFusedSweeps:
    """A fixed-cost solve sweeps the proportional problem along in the
    x = inf column of its tables until both have stopped and records its
    solution on ``free``; each problem stops at its own sweep, bit for bit
    as when solved alone."""

    BETA, TOL = 0.99, 1e-7

    def test_kept_proportional_solve_equals_a_standalone_one(self,
                                                             fused_case):
        model, spec, grid, k_fix, k_prop, n_barred = fused_case
        t = build_tables(model, spec, grid)
        assert t.n_barred == n_barred
        fixed = solve_discounted(t, self.BETA, tol=self.TOL)
        assert t.free.solved[3] is not None
        kept = solve_discounted(t.free, self.BETA, tol=self.TOL)
        alone = solve_discounted(build_tables(model, spec.without_fixed(),
                                              grid), self.BETA, tol=self.TOL)
        assert solve_bits(*kept) == solve_bits(*alone)
        assert (fixed[2].iterations, kept[2].iterations) == (k_fix, k_prop)
        # each variant is the iteration checked after every sweep, from the
        # warm start, with the reference kernels; its greedy policy and the
        # stationarity slack of that policy are the reference ones too
        stop_tol = self.TOL * (1.0 - self.BETA) / self.BETA
        v_warm = t.free.solved[1]
        for (vf, pol, rep), variant, g, s, tables in [
                (fixed, "fixed", grid, spec, t),
                (kept, "proportional", grid.without_wealth(),
                 spec.without_fixed(), t.free)]:
            ref = oracle_tables(model, s, g)
            v0 = np.broadcast_to(v_warm[:, None, :], g.shape) \
                if variant == "fixed" else v_warm
            values, k, diff = per_sweep_iterate(
                lambda v: np.maximum(*oracle_branches(v, ref, self.BETA,
                                                      variant)[:2]),
                v0, self.BETA, stop_tol, "value iteration")
            assert vf.values.tobytes() == values.tobytes()
            assert (rep.iterations, rep.final_diff) == (k, diff)
            impulse, target = oracle_policy(values, ref, self.BETA, variant)
            assert pol.impulse.tobytes() == impulse.tobytes()
            assert pol.target.tobytes() == target.tobytes()
            w = values.max() - values
            rate = (1.0 - self.BETA) * values.max()
            slack = bellman_residual(pol, w, rate, tables).slack
            assert slack.tobytes() == oracle_slack(impulse, target, w, rate,
                                                   ref, variant).tobytes()

    def test_no_more_sweeps_than_two_separate_loops(self, fused_case,
                                                    monkeypatch):
        # the fixed-cost solve sweeps as often as the longer of its two
        # parts iterated alone on its tables, and the proportional solve
        # after it at the same key sweeps nothing
        model, spec, grid = fused_case[:3]
        sweep, iterate = dp._sweep, dp._iterate
        calls = []

        def spy_sweep(values, t, beta, out):
            calls.append(t.variant)
            return sweep(values, t, beta, out)

        def spy_iterate(*args):
            calls.append("iterate")
            return iterate(*args)

        monkeypatch.setattr(dp, "_sweep", spy_sweep)
        t = build_tables(model, spec, grid)
        solve_discounted(t, self.BETA, tol=self.TOL)
        fused = calls.count("fixed")
        v0 = np.broadcast_to(t.free.solved[1][:, None, :], t.kernel_shape)
        stop_tol = self.TOL * (1.0 - self.BETA) / self.BETA
        alone = []
        for part in dp._FIXED_PARTS:
            calls.clear()
            dp._iterate(dp._sweep, v0, self.BETA, stop_tol, (part,), t,
                        self.BETA)
            alone.append(len(calls))
        assert fused == max(alone)
        # two loops: the fixed-cost part alone, and the proportional problem
        # on tables of its own
        calls.clear()
        solve_discounted(build_tables(model, spec.without_fixed(), grid),
                         self.BETA, tol=self.TOL)
        assert fused <= alone[0] + calls.count("proportional")
        monkeypatch.setattr(dp, "_iterate", spy_iterate)
        calls.clear()
        solve_discounted(t.free, self.BETA, tol=self.TOL)
        assert calls == []

    def test_either_order_gives_the_same_bits_and_one_warm_start(
            self, model2, spec2, monkeypatch):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        iterate = dp._iterate
        runs = []

        def spy_iterate(update, v, beta, stop_tol, what, *args):
            runs.append(what if isinstance(what, str)
                        else tuple(part[0] for part in what))
            return iterate(update, v, beta, stop_tol, what, *args)

        monkeypatch.setattr(dp, "_iterate", spy_iterate)
        bits = {}
        for order in ("proportional first", "fixed first"):
            t = build_tables(model2, spec2, grid)
            solves = ([t.free, t] if order == "proportional first"
                      else [t, t.free])
            runs.clear()
            out = {tables.variant: solve_bits(*solve_discounted(tables, 0.9,
                                                                tol=1e-7))
                   for tables in solves}
            bits[order] = out
            assert runs.count("hold-only warm start") == 1
            assert len(runs) == (3 if order == "proportional first" else 2)
        assert bits["proportional first"] == bits["fixed first"]

    def test_a_solve_at_another_key_sweeps_afresh(self, model2, spec2,
                                                  monkeypatch):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        t = build_tables(model2, spec2, grid)
        solve_discounted(t, 0.9, tol=1e-7)
        iterate = dp._iterate
        runs = []

        def spy_iterate(update, v, beta, stop_tol, what, *args):
            runs.append(what)
            return iterate(update, v, beta, stop_tol, what, *args)

        monkeypatch.setattr(dp, "_iterate", spy_iterate)
        for beta, tol, swept in [(0.9, 1e-7, []),
                                 (0.9, 1e-5, ["hold-only warm start",
                                              "value iteration"]),
                                 (0.95, 1e-5, ["hold-only warm start",
                                               "value iteration"]),
                                 (0.95, 1e-5, [])]:
            runs.clear()
            got = solve_discounted(t.free, beta, tol=tol)
            assert runs == swept
            fresh = solve_discounted(
                build_tables(model2, spec2.without_fixed(), grid), beta,
                tol=tol)
            assert solve_bits(*got) == solve_bits(*fresh)
            assert t.free.solved[0] == (beta, tol * (1.0 - beta) / beta)

    def test_kept_values_are_not_the_callers(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        t = build_tables(model2, spec2, grid)
        solve_discounted(t, 0.9, tol=1e-7)
        vp, _, _ = solve_discounted(t.free, 0.9, tol=1e-7)
        want = vp.values.copy()
        vp.values[:] = 0.0
        again, _, _ = solve_discounted(t.free, 0.9, tol=1e-7)
        assert np.array_equal(again.values, want)


def halve(v, out):
    np.multiply(v, 0.5, out=out)
    return np.add(out, 1.0, out=out)


class TestFusedStopRule:
    """A fused iteration checks every part on its own: a part that blows up
    or stalls raises the error, at the sweep, that the check after every
    sweep of that part alone raises, also after the other part has stopped
    and the update sweeps it along unchecked."""

    PARTS = (("halve", np.s_[:, 0]), ("update", np.s_[:, 1]))

    def fused_outcome(self, part, v, beta, stop_tol):
        def fused(u, out):
            halve(u[:, 0], out[:, 0])
            part(u[:, 1], out[:, 1])
            return out

        try:
            return dp._iterate(fused, np.zeros((3, 2)), beta, stop_tol,
                               self.PARTS)
        except RuntimeError as exc:
            return str(exc)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("at", [2, 3, 40, 65, 66, 100])
    def test_non_finite_step_in_one_part(self, bad, at):
        def update(v, out):
            calls.append(1)
            np.multiply(v, 0.99, out=out)
            np.add(out, 1.0, out=out)
            if len(calls) == at:
                out[1] = bad
            return out

        calls = []
        want = per_sweep_outcome(update, np.zeros(3), 0.99, 1e-300)
        calls = []
        got = self.fused_outcome(update, np.zeros(3), 0.99, 1e-300)
        assert got == want == (
            f"update: non-finite step {abs(bad)} at sweep {at}")

    @pytest.mark.parametrize("beta, stop_tol", [
        (0.9, 1e-12), (0.5, 1e-9), (0.99, 1e-6), (0.999, 1e-3)])
    def test_stall_in_one_part(self, beta, stop_tol):
        def stuck(v, out):
            return np.subtract(1.0, v, out=out)

        want = per_sweep_outcome(stuck, np.zeros(3), beta, stop_tol)
        got = self.fused_outcome(stuck, np.zeros(3), beta, stop_tol)
        assert "did not reach step tolerance" in want
        assert got == want

    @pytest.mark.parametrize("stop_tol", [0.3, 1e-3, 1e-7, 1e-12])
    def test_each_part_stops_at_its_own_sweep(self, stop_tol):
        def slow(v, out):
            np.multiply(v, 0.9, out=out)
            return np.add(out, 1.0, out=out)

        got = self.fused_outcome(slow, np.zeros(3), 0.9, stop_tol)
        for (values, k, diff), update in zip(got, [halve, slow]):
            want = per_sweep_outcome(update, np.zeros(3), 0.9, stop_tol)
            assert np.array_equal(values, want[0]) and (k, diff) == want[1:]
