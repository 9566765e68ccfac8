"""Vanishing-discount sweep, stationarity residual, mimicking policy."""

import math

import numpy as np
import pytest

from conftest import random_model
from growthopt import (CostConstants, CostSpec, GridPolicyStrategy,
                       MimickingPolicy, MimickingStrategy, Policy, StateGrid,
                       average_growth, bellman_residual, build_mimicking,
                       build_tables, expected_log_return, invariant_measure,
                       span_bound, vanishing_discount)
from dp_oracle import (oracle_continuation_fixed, oracle_continuation_prop,
                       oracle_tables)

BETAS = [0.9, 0.99, 0.995, 0.999]
CROSS_TOL = 5e-3  # allowed gap of the fixed-cost and proportional rates


def relative_value(report):
    """w = peak minus value at the largest discount, as the residual takes
    it."""
    return report.peak_values[-1] - report.value.values


def free_rebalancing_rate(model, nodes):
    """Oracle: stationary average of the best mesh log return per factor."""
    theta = invariant_measure(model)
    best = [max(expected_log_return(model, node, z) for node in nodes)
            for z in range(model.n_factors)]
    return float(theta @ np.array(best))


class TestVanishingDiscount:
    def test_free_rebalancing_oracle(self, model2):
        spec = CostSpec(buy=[0.0, 0.0], sell=[0.0, 0.0], fixed=0.0)
        grid = StateGrid.build(2, 8, 2)
        report = vanishing_discount(model2, spec, grid,
                                    [0.99, 0.999, 0.9995], tol=1e-7)
        oracle = free_rebalancing_rate(model2, grid.nodes)
        assert report.growth_rate == pytest.approx(oracle, abs=1e-4)
        assert report.policy.wealth_free

    def test_single_asset_stationary_expectation(self, single_asset_model):
        spec = CostSpec(buy=[0.01], sell=[0.01], fixed=0.0)
        grid = StateGrid.build(1, 1, 1)
        report = vanishing_discount(single_asset_model, spec, grid,
                                    [0.9, 0.99], tol=1e-8)
        oracle = 0.5 * (math.log(1.1) + math.log(0.98))
        # single factor state: every estimate is exact, not just the limit
        for est in report.growth_estimates:
            assert est == pytest.approx(oracle, abs=1e-7)

    def test_estimate_bounds(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
        report = vanishing_discount(model2, spec2, grid, BETAS, tol=1e-5)
        lo = float(np.log(model2.returns).min())
        hi = float(np.log(model2.returns).max())
        for est in report.growth_estimates:
            assert lo - 1e-9 <= est <= hi + 1e-9

    def test_relative_value_nonnegative_and_bounded(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
        report = vanishing_discount(model2, spec2, grid, BETAS, tol=1e-6)
        for w_min, w_max in report.relative_value_range:
            assert w_min >= -1e-5
        # at the top wealth node the relative value stays bounded in beta
        top = relative_value(report)[:, -1, :]
        assert top.max() <= span_bound(model2, spec2, grid) + 1.0

    def test_policy_stability_diagnostic(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
        report = vanishing_discount(model2, spec2, grid, [0.99, 0.995],
                                    tol=1e-6)
        assert 0.0 <= report.policy_change_fraction <= 1.0

    def test_rejects_bad_schedules(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
        with pytest.raises(ValueError):
            vanishing_discount(model2, spec2, grid, [0.99, 0.9])
        with pytest.raises(ValueError):
            vanishing_discount(model2, spec2, grid, [0.9, 1.0])

    def test_report_serializes(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
        report = vanishing_discount(model2, spec2, grid, [0.9, 0.99],
                                    tol=1e-5)
        doc = report.to_json_dict()
        assert set(doc) >= {"betas", "m_beta", "lambda_estimates", "lambda",
                            "residual_summary"}
        assert doc["residual_summary"] == {
            "min_slack": report.residual.min_slack,
            "mean_slack": report.residual.mean_slack}

    @pytest.mark.parametrize("fixed", [0.0, 0.05], ids=["proportional",
                                                        "fixed"])
    def test_report_carries_the_residual_of_its_policy(self, model2, spec2,
                                                       fixed):
        spec = CostSpec(spec2.buy, spec2.sell, fixed)
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
        report = vanishing_discount(model2, spec, grid, [0.9, 0.99], tol=1e-6)
        assert report.policy.beta == "average"
        assert report.value.grid.shape == report.policy.grid.shape
        assert report.value.variant == ("fixed" if fixed else "proportional")
        res = bellman_residual(report.policy, relative_value(report),
                               report.growth_rate,
                               build_tables(model2, spec, grid))
        assert res.slack.tobytes() == report.residual.slack.tobytes()
        assert (res.min_slack, res.mean_slack) == (report.residual.min_slack,
                                                   report.residual.mean_slack)
        assert "residual" in report.stage_seconds


def oracle_bellman_residual(policy, w, growth_rate, model, spec):
    """Slack per state from hand-written gathers, one per Bellman branch,
    over reference tables built independently of ``dp``'s gather tables
    and sweep kernels."""
    t = oracle_tables(model, spec, policy.grid)
    tgt = policy.target
    if policy.wealth_free:
        w_cont = oracle_continuation_prop(w, t, 1.0) - t.h_tab
        n_p, n_z = w.shape
        p_idx, z_idx = np.ogrid[:n_p, :n_z]
        hold_slack = t.h_tab + w - w_cont - growth_rate
        trans_eta = t.h_tab[tgt, z_idx] + t.ln_e_prop[p_idx, tgt]
        trans_slack = trans_eta + w - w_cont[tgt, z_idx] - growth_rate
    else:
        w_cont = oracle_continuation_fixed(w, t, 1.0) - t.h_tab[:, None, :]
        n_p, n_x, n_z = w.shape
        p_idx, j_idx, z_idx = np.ogrid[:n_p, :n_x, :n_z]
        hold_slack = t.h_tab[:, None, :] + w - w_cont - growth_rate
        # post-cost wealth cell of the target, interpolated in log-wealth
        at = (p_idx, tgt, j_idx)
        j0, frac = t.imp_j0[at], t.imp_frac[at]
        j1 = np.minimum(j0 + 1, n_x - 1)
        ew = (1.0 - frac) * w_cont[tgt, j0, z_idx] + frac * w_cont[tgt, j1, z_idx]
        trans_slack = (t.h_tab[tgt, z_idx] + t.ln_e_fac[at] + w - ew
                       - growth_rate)
    return np.where(policy.impulse, trans_slack, hold_slack)


@pytest.fixture(scope="module")
def residual_cases(two_asset):
    """name -> (policy, relative value, growth rate, model, spec, tables)."""
    model, spec = two_asset
    grid = StateGrid.build(2, 8, 2, x_min=1e-3, x_max=1e4, n_x=16)
    rep = vanishing_discount(model, spec, grid, BETAS, tol=1e-7)
    tables = build_tables(model, spec, grid)
    w_prop = rep.prop_value.values.max() - rep.prop_value.values
    cases = {
        "acceptance": (rep.policy, relative_value(rep), rep.growth_rate, model,
                       spec, tables),
        "acceptance_prop": (rep.prop_policy, w_prop, rep.growth_rate, model,
                            spec, tables.free),
        "rate_plus_0.01": (rep.policy, relative_value(rep),
                           rep.growth_rate + 0.01, model, spec, tables),
    }
    max_spec = CostSpec(spec.buy, spec.sell, spec.fixed, "max")
    grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
    rep = vanishing_discount(model, max_spec, grid, [0.9, 0.99], tol=1e-6)
    cases["max_variant"] = (rep.policy, relative_value(rep), rep.growth_rate,
                            model, max_spec, build_tables(model, max_spec,
                                                          grid))
    model3 = random_model(np.random.default_rng(7), n_z=3, d=3)
    spec3 = CostSpec(buy=[0.01, 0.02, 0.015], sell=[0.02, 0.01, 0.005],
                     fixed=0.05)
    grid = StateGrid.build(3, 3, 3, x_min=1e-2, x_max=1e3, n_x=6)
    rep = vanishing_discount(model3, spec3, grid, [0.9, 0.95], tol=1e-6)
    cases["three_assets"] = (rep.policy, relative_value(rep), rep.growth_rate,
                             model3, spec3, build_tables(model3, spec3, grid))
    return cases


class TestBellmanResidual:
    @pytest.mark.parametrize("name", ["acceptance", "acceptance_prop",
                                      "rate_plus_0.01", "max_variant",
                                      "three_assets"])
    def test_matches_hand_written_branches(self, residual_cases, name):
        policy, w, rate, model, spec, tables = residual_cases[name]
        # both branches occur, so both gathers are compared
        assert policy.impulse.any() and not policy.impulse.all()
        res = bellman_residual(policy, w, rate, tables)
        ref = oracle_bellman_residual(policy, w, rate, model, spec)
        assert np.abs(res.slack - ref).max() <= 1e-12

    def test_rejects_tables_that_do_not_fit(self, residual_cases):
        policy, w, rate, model, spec, tables = residual_cases["acceptance"]
        prop_policy, w_prop = residual_cases["acceptance_prop"][:2]
        flat = build_tables(model, spec.without_fixed(),
                            policy.grid.without_wealth())
        with pytest.raises(ValueError, match="with a wealth axis"):
            bellman_residual(policy, w, rate, flat)
        with pytest.raises(ValueError, match="without a wealth axis"):
            bellman_residual(prop_policy, w_prop, rate, tables)
        coarse = build_tables(model, spec, StateGrid.build(
            2, 8, 2, x_min=1e-3, x_max=1e4, n_x=4))
        with pytest.raises(ValueError, match=r"\(9, 16, 2\) do not fit "
                           r"tables built for shape \(9, 4, 2\)"):
            bellman_residual(policy, w, rate, coarse)

    def test_single_state_slack_zero(self, single_asset_model):
        spec = CostSpec(buy=[0.01], sell=[0.01], fixed=0.0)
        grid = StateGrid.build(1, 1, 1)
        report = vanishing_discount(single_asset_model, spec, grid,
                                    [0.9, 0.99], tol=1e-9)
        res = bellman_residual(report.policy, relative_value(report),
                               report.growth_rate,
                               build_tables(single_asset_model, spec, grid))
        assert abs(res.min_slack) <= 1e-8
        assert abs(res.mean_slack) <= 1e-8

    def test_free_model_slack_small(self, model2):
        # finite-discount slack is -(1-beta) E w; at beta close to one it
        # clears a 1e-6 floor on this mesh
        spec = CostSpec(buy=[0.0, 0.0], sell=[0.0, 0.0], fixed=0.0)
        grid = StateGrid.build(2, 8, 2)
        report = vanishing_discount(model2, spec, grid, [0.999, 0.9999],
                                    tol=1e-7)
        res = bellman_residual(report.policy, relative_value(report),
                               report.growth_rate,
                               build_tables(model2, spec, grid))
        assert res.min_slack >= -1e-6

    def test_perturbed_rate_breaks_slack(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=8)
        report = vanishing_discount(model2, spec2, grid, BETAS, tol=1e-6)
        res = bellman_residual(report.policy, relative_value(report),
                               report.growth_rate + 0.01,
                               build_tables(model2, spec2, grid))
        assert res.min_slack <= -0.009


class TestCrossCheck:
    def test_zero_fixed_cost_identical_runs(self, model2):
        spec = CostSpec(buy=[0.005, 0.005], sell=[0.005, 0.005], fixed=0.0)
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        rep = vanishing_discount(model2, spec, grid, [0.9, 0.99], tol=1e-6)
        assert rep.growth_rate_fixed - rep.growth_rate == 0.0

    def test_bundled_model_agreement(self, model2, spec2):
        grid = StateGrid.build(2, 4, 2, x_min=1e-3, x_max=1e4, n_x=12)
        rep = vanishing_discount(model2, spec2, grid, [0.99, 0.999], tol=1e-7)
        assert abs(rep.growth_rate_fixed - rep.growth_rate) <= CROSS_TOL
        assert rep.growth_rate_fixed <= rep.growth_rate + 1e-9


def tiny_base_policy():
    grid = StateGrid.build(2, 1, 1)
    impulse = np.array([[False], [True]])  # rebalance node 1 -> node 0
    target = np.array([[0], [0]])
    return Policy(grid=grid, impulse=impulse, target=target, beta=0.99)


def constants(m=15.0, m_star=16.0):
    return CostConstants(max_rate=0.01, eta=0.02, eta_m=math.log(m_star / m),
                         wealth_threshold=m, resync_wealth=m_star, x_star=0.5)


class TestMimicking:
    def test_rejects_wealth_indexed_base(self, model2, spec2):
        from growthopt import solve_discounted
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=4)
        _, pol, _ = solve_discounted(build_tables(model2, spec2, grid),
                                     0.9, tol=1e-4)
        with pytest.raises(ValueError):
            build_mimicking(pol, constants())

    @pytest.mark.parametrize("threshold, resync, field", [
        (10.0, 5.0, "resync_wealth"), (0.0, 1.0, "wealth_threshold"),
        (-1.0, 1.0, "wealth_threshold"), (math.nan, 1.0, "wealth_threshold"),
        (math.inf, math.inf, "wealth_threshold"), (1.0, math.nan,
                                                   "resync_wealth"),
        (1.0, math.inf, "resync_wealth"), (1.0, -2.0, "resync_wealth")])
    def test_levels_out_of_order_or_range_are_refused(self, threshold, resync,
                                                      field):
        # a resync level below the threshold let a recovering path trade
        # below the threshold
        with pytest.raises(ValueError, match=field):
            MimickingPolicy(tiny_base_policy(), threshold, resync)

    def test_equal_levels_are_accepted(self):
        mim = MimickingPolicy(tiny_base_policy(), 15.0, 15.0)
        assert mim.resync_wealth == mim.wealth_threshold

    def test_mimics_base_above_resync_level(self):
        mim = build_mimicking(tiny_base_policy(), constants())
        strat = MimickingStrategy(mim)
        base = GridPolicyStrategy(mim.base)
        strat.reset(1)
        pi = np.array([[0.0, 1.0]])  # node 1 in the order-1 mesh
        for x in (20.0, 30.0, 18.0, 25.0):
            got = strat.decide_batch(pi, np.array([x]), np.array([0]))
            want = base.decide_batch(pi, np.array([x]), np.array([0]))
            assert got[0][0] == want[0][0]
            np.testing.assert_array_equal(got[1], want[1])

    def test_never_transacts_below_threshold(self):
        mim = build_mimicking(tiny_base_policy(), constants())
        strat = MimickingStrategy(mim)
        strat.reset(1)
        pi = np.array([[0.0, 1.0]])
        for x in (14.0, 10.0, 5.0, 14.9):
            mask, _ = strat.decide_batch(pi, np.array([x]), np.array([0]))
            assert not mask[0]

    def test_single_resync_after_recovery(self):
        # dip below the threshold, hover in the dead band, then recover:
        # exactly one transaction fires, at the resync crossing
        mim = build_mimicking(tiny_base_policy(), constants())
        strat = MimickingStrategy(mim)
        strat.reset(1)
        # (proportions, wealth, expect a transaction?); node 1 = (1, 0) is
        # where the base rebalances to node 0 = (0, 1)
        script = [
            ([1.0, 0.0], 20.0, True),    # follow base: rebalance
            ([0.0, 1.0], 14.0, False),   # dipped below threshold: freeze
            ([0.0, 1.0], 15.5, False),   # recovering, still in dead band
            ([0.6, 0.4], 15.9, False),   # drifted, still waiting
            ([0.6, 0.4], 16.5, True),    # crossed resync level: one re-sync
            ([0.0, 1.0], 17.0, False),   # back to following base (holds)
        ]
        for t, (pi, x, expect) in enumerate(script):
            mask, tgt = strat.decide_batch(np.array([pi]), np.array([x]),
                                           np.array([0]))
            assert bool(mask[0]) == expect, f"step {t}"
            if mask[0]:
                np.testing.assert_array_equal(tgt[0], [0.0, 1.0])


class TestTauberian:
    def test_simulated_growth_below_discounted_sup(self, model2, spec2):
        grid = StateGrid.build(2, 8, 2, x_min=1e-3, x_max=1e4, n_x=12)
        report = vanishing_discount(model2, spec2, grid, [0.9, 0.99],
                                    tol=1e-6)
        est = average_growth(model2, spec2, GridPolicyStrategy(report.policy),
                             [0.5, 0.5], 1.0, 0, T=1500, n_paths=60, seed=21)
        cap = max((1 - b) * m for b, m in zip(report.betas,
                                              report.variant_peak_values))
        assert est.mean <= cap + 3 * est.std_error + 1e-3
