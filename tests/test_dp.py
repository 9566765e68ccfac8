"""Discounted impulse DP: operators, solver, span, gap checks."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_model
from growthopt import (CostSpec, MarketModel, StateGrid, ValueFunction,
                       bellman_step, build_tables, expected_log_return,
                       impulse_operator, solve_discounted, solve_e,
                       solve_e_batch, span_bound, span_seminorm,
                       value_gap_check)
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
        out = bellman_step(v, model, spec)
        np.testing.assert_allclose(out.values, v.values, atol=1e-12)

    def test_one_step_from_zero_by_hand(self, model2):
        # two-node mesh: the step value is max(h(p, z), ln e + h(p', z))
        spec = CostSpec(buy=[0.02, 0.02], sell=[0.02, 0.02], fixed=0.0)
        grid = StateGrid.build(2, 1, 2)
        v = ValueFunction(grid, np.zeros((2, 2)), 0.9)
        out = bellman_step(v, model2, spec)
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
            ta = bellman_step(ValueFunction(grid, a, beta), model2, spec,
                              tables).values
            tb = bellman_step(ValueFunction(grid, b, beta), model2, spec,
                              tables).values
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
        out = bellman_step(flat, model2, spec2.without_fixed())
        assert out.grid is flat.grid and out.values.shape == (5, 2)

    def test_rejects_tables_of_the_other_variant(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=8)
        wealth_tables = build_tables(model2, spec2, grid)
        flat_tables = build_tables(model2, spec2.without_fixed(),
                                   grid.without_wealth())
        prop = ValueFunction(grid.without_wealth(), np.zeros((5, 2)), 0.9)
        fixed = ValueFunction(grid, np.zeros((5, 8, 2)), 0.9)
        with pytest.raises(ValueError, match="without a wealth axis"):
            bellman_step(prop, model2, spec2.without_fixed(), wealth_tables)
        with pytest.raises(ValueError, match="with a wealth axis"):
            bellman_step(fixed, model2, spec2, flat_tables)

    def test_rejects_tables_of_a_smaller_grid(self, model2, spec2):
        # the gathers of a 4-node wealth axis stay inside an 8-node value
        # table, so without the check the step reads the wrong entries
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=8)
        coarse = build_tables(model2, spec2, StateGrid.build(
            2, 4, 2, x_min=1e-2, x_max=1e3, n_x=4))
        fixed = ValueFunction(grid, np.zeros((5, 8, 2)), 0.9)
        with pytest.raises(ValueError, match="do not fit tables built for "
                           r"shape \(5, 4, 2\)"):
            bellman_step(fixed, model2, spec2, coarse)

    def test_preserves_wealth_monotonicity(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=12)
        rng = np.random.default_rng(3)
        base = np.sort(rng.normal(size=(5, 12, 2)), axis=1)
        v = ValueFunction(grid, base, 0.95)
        for _ in range(5):
            v = bellman_step(v, model2, spec2)
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
        out = bellman_step(ValueFunction(grid, v, beta), model2, spec2).values
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


class TestSolveDiscounted:
    def test_single_asset_value_and_empty_impulse_region(self):
        model = flat_model(1.05)
        spec = zero_spec(1)
        grid = StateGrid.build(1, 1, 1)
        vf, pol, rep = solve_discounted(model, spec, grid, 0.9, tol=1e-9)
        assert vf.values[0, 0] == pytest.approx(math.log(1.05) / 0.1, abs=1e-7)
        assert not pol.impulse.any()

    def test_costfree_matches_independent_dp(self, model2, free_spec2):
        # oracle: with free rebalancing the state collapses to the factor,
        # V(z) = max_p h(p, z) + beta * sum_q P(z, q) V(q); no impulse
        # machinery involved
        grid = StateGrid.build(2, 8, 2)
        beta = 0.95
        vf, pol, _ = solve_discounted(model2, free_spec2, grid, beta, tol=1e-8)
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
        vf, _, rep = solve_discounted(model2, spec2, grid, beta, tol=1e-6)
        tables = build_tables(model2, spec2.without_fixed(), grid.without_wealth())
        bound = (rep.h_inf + abs(float(tables.ln_e_prop.min()))) / (1 - beta)
        assert np.abs(vf.values).max() <= bound + 1e-9

    def test_wealth_monotone_after_convergence(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=10)
        vf, _, _ = solve_discounted(model2, spec2, grid, 0.95, tol=1e-7)
        assert (np.diff(vf.values, axis=1) >= -1e-10).all()

    def test_policy_targets_always_affordable(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=10)
        vf, pol, _ = solve_discounted(model2, spec2, grid, 0.95, tol=1e-7)
        p, j, z = np.nonzero(pol.impulse)
        e = solve_e_batch(spec2, grid.nodes[p], grid.nodes[pol.target[p, j, z]],
                          grid.wealth[j])
        assert p.size and (e > 0).all()

    def test_stop_rule_close_to_fixed_point(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
        tol = 1e-5
        vf, _, rep = solve_discounted(model2, spec2, grid, 0.9, tol=tol)
        again = bellman_step(vf, model2, spec2)
        assert np.abs(again.values - vf.values).max() <= tol * (1 - 0.9) / 0.9
        assert rep.error_bound <= tol


    def test_rejects_nonpositive_tol(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2)
        for tol in (0.0, -1e-6, float("nan")):
            with pytest.raises(ValueError):
                solve_discounted(model2, spec2.without_fixed(), grid, 0.9,
                                 tol=tol)


class TestStopRule:
    def test_stalled_step_raises_at_the_contraction_cap(self):
        # a step stuck above the tolerance, as rounding leaves it when tol is
        # below the floor, stops after about twice the contraction's count
        calls = []

        def stuck(v):
            calls.append(1)
            return 1.0 - v

        beta, stop_tol = 0.9, 1e-12
        with pytest.raises(RuntimeError, match="step tolerance"):
            dp._iterate(stuck, np.zeros(3), beta, stop_tol, "stuck")
        assert len(calls) <= 2 * math.log(stop_tol) / math.log(beta) + 17

    def test_non_finite_step_raises_at_once(self):
        calls = []

        def blow_up(v):
            calls.append(1)
            return v + np.inf

        with pytest.raises(RuntimeError, match="non-finite"):
            dp._iterate(blow_up, np.zeros(3), 0.9, 1e-9, "blow-up")
        assert len(calls) == 1

    def test_tiny_tol_reaches_exact_fixed_point(self, model2, spec2):
        # on this grid the sweeps land on an exact floating-point fixed
        # point, so a tol far below rounding still ends, within the cap
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e2, n_x=6)
        _, _, rep = solve_discounted(model2, spec2, grid, 0.9, tol=1e-300)
        assert rep.final_diff == 0.0


class TestOneTransactionRule:
    def test_second_impulse_never_improves(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=16)
        vf, _, _ = solve_discounted(model2, spec2, grid, 0.95, tol=1e-7)
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
        vf, _, _ = solve_discounted(model, zero_spec(2), grid, 0.95, tol=1e-9)
        assert span_seminorm(vf) <= 1e-7

    def test_rejects_fixed_variant(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e2, n_x=4)
        vf, _, _ = solve_discounted(model2, spec2, grid, 0.9, tol=1e-5)
        with pytest.raises(ValueError):
            span_seminorm(vf)

    def test_span_below_bound_moderate_beta(self, model2, spec2):
        grid = StateGrid.build(2, 8, 2)
        bound = span_bound(model2, spec2, grid)
        for beta in (0.9, 0.99):
            vf, _, _ = solve_discounted(model2, spec2.without_fixed(), grid,
                                        beta, tol=1e-7)
            assert span_seminorm(vf) <= bound


class TestValueGap:
    def test_zero_fixed_cost_zero_gap(self, model2):
        spec = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=0.0)
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e2, n_x=6)
        v_prop, _, _ = solve_discounted(model2, spec, grid, 0.9, tol=1e-8)
        fixed_like = ValueFunction(
            grid, np.repeat(v_prop.values[:, None, :], 6, axis=1), 0.9)
        rep = value_gap_check(fixed_like, v_prop, slack=1e-9)
        assert rep.ok
        assert abs(rep.min_gap) <= 1e-12
        assert rep.max_gap_per_wealth.max() <= 1e-12

    def test_fixed_cost_gap_positive_and_monotone(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=10)
        beta = 0.95
        v_fix, _, _ = solve_discounted(model2, spec2, grid, beta, tol=1e-7)
        v_prop, _, _ = solve_discounted(model2, spec2.without_fixed(), grid,
                                        beta, tol=1e-7)
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
            vf, _, _ = solve_discounted(model2, spec2.without_fixed(), grid,
                                        beta, tol=1e-8)
            est.append((1 - beta) * vf.values.max())
        assert abs(est[2] - est[1]) <= abs(est[1] - est[0]) + 1e-12


# ----------------------------------------------------------------------
# reference kernels: per-sweep broadcast fancy indexing into the value
# table, as the solver computed its sweeps before the flat gather tables
# ----------------------------------------------------------------------

def oracle_tables(model, spec, grid):
    nodes = grid.nodes
    n_p = grid.n_nodes
    port = np.einsum("pd,qsd->pqs", nodes, model.returns)
    step_lr = np.log(port)
    dia = nodes[:, None, None, :] * model.returns[None, :, :, :] / port[..., None]
    dia_idx = grid.nearest_node(dia.reshape(-1, grid.n_assets)).reshape(port.shape)
    w_zs = model.transition[:, :, None] * model.shock_probs[None, None, :]
    h_tab = np.einsum("pqs,zqs->pz", step_lr, w_zs)
    prev = np.repeat(nodes, n_p, axis=0)
    new = np.tile(nodes, (n_p, 1))
    e_prop = solve_e_batch(spec.without_fixed(), prev, new,
                           np.ones(n_p * n_p)).reshape(n_p, n_p)
    t = SimpleNamespace(w_zs=w_zs, dia_idx=dia_idx, h_tab=h_tab,
                        ln_e_prop=np.log(e_prop))
    if not grid.has_wealth_axis:
        return t
    n_x = grid.n_wealth
    wealth = grid.wealth
    e_fac = solve_e_batch(spec, np.repeat(prev, n_x, axis=0),
                          np.repeat(new, n_x, axis=0),
                          np.tile(wealth, n_p * n_p)).reshape(n_p, n_p, n_x)
    t.ln_e_fac = np.where(e_fac > 0.0,
                          np.log(np.where(e_fac > 0.0, e_fac, 1.0)), dp.NEG)
    x_after = np.where(e_fac > 0.0, wealth[None, None, :] * e_fac, wealth[0])
    t.imp_j0, t.imp_frac = grid.wealth_pos(x_after)
    x_step = wealth[None, :, None, None] * np.exp(step_lr[:, None, :, :])
    t.stp_j0, t.stp_frac = grid.wealth_pos(x_step)
    t.stp_j1 = np.minimum(t.stp_j0 + 1, n_x - 1)
    return t


def oracle_continuation_prop(values, t, beta):
    zb = np.arange(t.w_zs.shape[0])[None, :, None]
    gathered = values[t.dia_idx, zb]
    ev = np.einsum("pqs,zqs->pz", gathered, t.w_zs)
    return t.h_tab + beta * ev


def oracle_transaction_prop(cont, t):
    n_p = cont.shape[0]
    vals = t.ln_e_prop[:, :, None] + cont[None, :, :]
    idx = np.arange(n_p)
    vals[idx, idx, :] = dp.NEG
    return vals.max(axis=1), vals.argmax(axis=1)


def oracle_continuation_fixed(values, t, beta):
    n_z = t.w_zs.shape[0]
    dia = t.dia_idx[:, None, :, :]
    zb = np.arange(n_z)[None, None, :, None]
    v_lo = values[dia, t.stp_j0, zb]
    v_hi = values[dia, t.stp_j1, zb]
    vw = (1.0 - t.stp_frac) * v_lo + t.stp_frac * v_hi
    ev = np.einsum("pjqs,zqs->pjz", vw, t.w_zs)
    return t.h_tab[:, None, :] + beta * ev


def oracle_transaction_fixed(cont, t):
    n_p, n_x, n_z = cont.shape
    tgt = np.arange(n_p)[None, :, None]
    j1 = np.minimum(t.imp_j0 + 1, n_x - 1)
    g_lo = cont[tgt, t.imp_j0]
    g_hi = cont[tgt, j1]
    gw = (1.0 - t.imp_frac[..., None]) * g_lo + t.imp_frac[..., None] * g_hi
    vals = t.ln_e_fac[..., None] + gw
    idx = np.arange(n_p)
    vals[idx, idx, :, :] = dp.NEG
    return vals.max(axis=1), vals.argmax(axis=1)


def oracle_branches(values, t, beta, variant):
    if variant == "proportional":
        cont = oracle_continuation_prop(values, t, beta)
        return (cont,) + oracle_transaction_prop(cont, t)
    cont = oracle_continuation_fixed(values, t, beta)
    return (cont,) + oracle_transaction_fixed(cont, t)


def oracle_solve(model, spec, grid, beta, tol):
    """Value iteration with the reference kernels and the solver's stop rule."""
    variant = "fixed" if spec.fixed > 0 else "proportional"
    t = oracle_tables(model, spec, grid)
    stop_tol = tol * (1.0 - beta) / beta

    def iterate(update, v):
        for k in range(1, 10**6):
            v_new = update(v)
            diff = float(np.abs(v_new - v).max())
            v = v_new
            if diff <= stop_tol:
                return v, k
        raise AssertionError("reference value iteration did not stop")

    shape = (grid.n_nodes, grid.n_wealth, grid.n_z) if variant == "fixed" \
        else (grid.n_nodes, grid.n_z)
    hold = oracle_continuation_fixed if variant == "fixed" \
        else oracle_continuation_prop
    v_init, k_init = iterate(lambda v: hold(v, t, beta), np.zeros(shape))

    def update(v):
        cont, trans, _ = oracle_branches(v, t, beta, variant)
        return np.maximum(cont, trans)

    values, k_main = iterate(update, v_init)
    cont, trans, argmax = oracle_branches(values, t, beta, variant)
    impulse = trans > cont + dp.TIE_EPS
    own = np.arange(grid.n_nodes).reshape((-1,) + (1,) * (values.ndim - 1))
    return values, impulse, np.where(impulse, argmax, own), k_init, k_main


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
            grid = StateGrid.build(x_min=1e-3, x_max=1e3, n_x=7, **grid_args)
            shape = (grid.n_nodes, grid.n_wealth, grid.n_z)
        else:
            spec = spec.without_fixed()
            grid = StateGrid.build(**grid_args)
            shape = (grid.n_nodes, grid.n_z)
        t = build_tables(model, spec, grid)
        ref = oracle_tables(model, spec, grid)
        rng = np.random.default_rng(5)
        for beta in (1.0, 0.93):
            for _ in range(5):
                v = rng.normal(scale=3.0, size=shape)
                cont, vals = dp._branches(v, t, beta)
                r_cont, r_max, r_argmax = oracle_branches(v, ref, beta, variant)
                assert np.array_equal(cont, r_cont)
                assert np.array_equal(vals.max(axis=1), r_max)
                assert np.array_equal(vals.argmax(axis=1), r_argmax)

    @pytest.mark.parametrize("fixed", [0.0, 0.2])
    def test_solve_matches_reference_iteration(self, model2, spec2, fixed):
        spec = CostSpec(buy=spec2.buy, sell=spec2.sell, fixed=fixed)
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        prop_grid = grid if fixed else grid.without_wealth()
        for beta in (0.9, 0.97):
            vf, pol, rep = solve_discounted(model2, spec, grid, beta, tol=1e-7)
            values, impulse, target, k_init, k_main = oracle_solve(
                model2, spec, prop_grid, beta, 1e-7)
            assert np.array_equal(vf.values, values)
            assert np.array_equal(pol.impulse, impulse)
            assert np.array_equal(pol.target, target)
            assert (rep.init_iterations, rep.iterations) == (k_init, k_main)
