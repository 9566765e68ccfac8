"""Trajectory engine, growth estimates, pathwise checks."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from growthopt import (CostSpec, FixedTargetStrategy, GridPolicyStrategy,
                       MarketModel, MimickingStrategy, NoTransactionStrategy,
                       StateGrid, Trajectory, average_growth, build_mimicking,
                       build_tables, cost_constants, growth_floor,
                       invariant_measure, market, Policy, ld_tail, make_rng,
                       run, sample_factor_paths, simulate, solve_discounted,
                       share_cost, solve_e_batch, to_share_holdings,
                       wealth_floor_check)
from growthopt.costs import worst_case_drag
from growthopt.market import DRAW_BUDGET, block_steps, check_simplex

from test_market import SHOCK_LAWS, searchsorted_paths, shock_model


def deterministic_model(r1=1.1, r2=1.05):
    return MarketModel(transition=[[1.0]], shock_probs=[1.0],
                       returns=[[[r1, r2]]])


def no_cost(d=2):
    return CostSpec(buy=np.zeros(d), sell=np.zeros(d), fixed=0.0)


def three_asset_model():
    """Two persistent factors, two shocks, three assets."""
    return MarketModel(transition=[[0.8, 0.2], [0.3, 0.7]],
                       shock_probs=[0.6, 0.4],
                       returns=[[[1.09, 1.02, 0.97], [0.96, 1.05, 1.01]],
                                [[1.03, 0.98, 1.07], [1.01, 1.06, 0.95]]])


class FactorTargetStrategy(FixedTargetStrategy):
    """Rebalance to the target in factor 0 only; hold in the others."""

    def decide_batch(self, pi_prev, x_prev, z):
        mask, tgt = super().decide_batch(pi_prev, x_prev, z)
        return mask & (z == 0), tgt


class TestRun:
    def test_no_transaction_telescoping(self, single_asset_model):
        spec = CostSpec(buy=[0.01], sell=[0.01], fixed=0.0)
        traj = run(single_asset_model, spec, NoTransactionStrategy(), [1.0],
                   5.0, 0, 300, seed=3)
        log_sum = np.log(traj.returns[1:, 0]).sum()
        assert math.log(traj.x_prev[-1] / traj.x_prev[0]) == pytest.approx(
            log_sum, abs=1e-9)
        assert not traj.transacted.any()

    def test_costfree_rebalancing_product(self, model2):
        target = np.array([0.3, 0.7])
        traj = run(model2, no_cost(), FixedTargetStrategy(target), [0.5, 0.5],
                   2.0, 0, 200, seed=5)
        assert (traj.e_applied == 1.0).all()
        growths = np.einsum("td,td->t", traj.pi[:-1], traj.returns[1:])
        assert traj.x_prev[-1] == pytest.approx(2.0 * np.prod(growths), rel=1e-9)

    def test_two_step_hand_recursion(self):
        model = deterministic_model()
        spec = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=0.0)
        traj = run(model, spec, FixedTargetStrategy([0.0, 1.0]), [1.0, 0.0],
                   100.0, 0, 2, seed=0)
        e = 0.99 / 1.01
        assert traj.transacted[0]
        assert traj.e_applied[0] == pytest.approx(e, abs=1e-15)
        assert traj.x[0] == pytest.approx(100.0 * e, rel=1e-12)
        # after the switch the portfolio rides asset 2 at 1.05 per step
        assert traj.x_prev[1] == pytest.approx(100.0 * e * 1.05, rel=1e-12)
        assert not traj.transacted[1]
        assert traj.x_prev[2] == pytest.approx(100.0 * e * 1.05 ** 2, rel=1e-12)

    def test_bit_reproducible(self, model2, spec2):
        a = run(model2, spec2, NoTransactionStrategy(), [0.5, 0.5], 10.0, 1,
                500, seed=11)
        b = run(model2, spec2, NoTransactionStrategy(), [0.5, 0.5], 10.0, 1,
                500, seed=11)
        for field in ("z", "xi", "pi_prev", "pi", "x_prev", "x", "returns"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_proportions_stay_on_simplex(self, model2):
        traj = run(model2, no_cost(), FixedTargetStrategy([0.25, 0.75]),
                   [0.5, 0.5], 1.0, 0, 1000, seed=13)
        assert np.abs(traj.pi_prev.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(traj.pi.sum(axis=1) - 1.0).max() <= 1e-12

    def test_state_recursion_identities(self, model2, spec2):
        # pre-transaction proportions drift with the realized returns and
        # wealth compounds the post-transaction portfolio return
        traj = run(model2, spec2, FixedTargetStrategy([0.3, 0.7]), [0.6, 0.4],
                   40.0, 0, 300, seed=61)
        assert not traj.annihilated
        for t in range(traj.n_steps):
            zeta = traj.returns[t + 1]
            drift = traj.pi[t] * zeta
            np.testing.assert_allclose(traj.pi_prev[t + 1], drift / drift.sum(),
                                       atol=1e-12)
            assert traj.x_prev[t + 1] == pytest.approx(
                traj.x[t] * float(traj.pi[t] @ zeta), rel=1e-12)
            if traj.transacted[t]:
                assert traj.x[t] == pytest.approx(
                    traj.x_prev[t] * traj.e_applied[t], rel=1e-12)
            else:
                assert traj.x[t] == traj.x_prev[t]

    def test_annihilation_terminates_flagged(self):
        model = deterministic_model()
        spec = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=1.0)
        traj = run(model, spec, FixedTargetStrategy([0.0, 1.0]), [1.0, 0.0],
                   0.5, 0, 10, seed=0)
        assert traj.annihilated
        assert traj.n_steps == 0  # dies on the first prescribed rebalance
        assert traj.x[-1] == 0.0


class TestAverageGrowth:
    def test_single_asset_matches_stationary_mean(self, single_asset_model):
        spec = CostSpec(buy=[0.0], sell=[0.0], fixed=0.0)
        est = average_growth(single_asset_model, spec, NoTransactionStrategy(),
                             [1.0], 1.0, 0, T=2000, n_paths=200, seed=17)
        oracle = 0.5 * (math.log(1.1) + math.log(0.98))
        assert abs(est.mean - oracle) <= 3 * est.std_error
        assert not est.flagged

    def test_matches_scalar_runs_per_stream(self, model2, spec2):
        strat = FixedTargetStrategy([0.5, 0.5])
        est = average_growth(model2, spec2, strat, [0.5, 0.5], 50.0, 0, T=50,
                             n_paths=5, seed=23)
        assert not est.flagged
        for i in range(5):
            traj = run(model2, spec2, FixedTargetStrategy([0.5, 0.5]),
                       [0.5, 0.5], 50.0, 0, 50, seed=23, stream=i)
            assert est.per_path[i] == pytest.approx(
                math.log(traj.x_prev[-1]) / 50, rel=1e-12)

    def test_scalar_and_batch_agree_on_annihilation(self, model2, spec2):
        # fixed charges at tiny wealth grind every-step rebalancing to zero
        strat = FixedTargetStrategy([0.5, 0.5])
        est = average_growth(model2, spec2, strat, [0.5, 0.5], 1.0, 0, T=50,
                             n_paths=1, seed=23)
        traj = run(model2, spec2, FixedTargetStrategy([0.5, 0.5]), [0.5, 0.5],
                   1.0, 0, 50, seed=23, stream=0)
        assert est.flagged and traj.annihilated

    def test_annihilated_paths_flag_loudly(self):
        model = deterministic_model()
        spec = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=1.0)
        est = average_growth(model, spec, FixedTargetStrategy([0.0, 1.0]),
                             [1.0, 0.0], 0.5, 0, T=10, n_paths=4, seed=0)
        assert est.flagged
        assert est.annihilated_paths == 4
        assert est.mean == -np.inf

    def test_annihilated_paths_reach_no_strategy_with_zero_wealth(
            self, two_asset):
        # a trade every step at wealth 0.3 against a fixed charge of 0.1
        # annihilates every path; a wealth-indexed policy took log(0) in
        # grid.wealth_pos on each later step of an annihilated path
        model, spec = two_asset
        grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
        vertex = {tuple(p): i for i, p in enumerate(grid.nodes.tolist())}
        target = np.empty(grid.shape, dtype=np.int64)
        target[..., 0], target[..., 1] = vertex[0.0, 1.0], vertex[1.0, 0.0]
        policy = Policy(grid=grid, impulse=np.ones(grid.shape, dtype=bool),
                        target=target, beta=0.99)
        wealth_seen = []

        class Spy(GridPolicyStrategy):
            def decide_batch(self, pi_prev, x_prev, z):
                wealth_seen.append(x_prev.min())
                return super().decide_batch(pi_prev, x_prev, z)

        est = average_growth(model, spec, Spy(policy), [0.5, 0.5], 0.3, 0,
                             T=200, n_paths=40, seed=1)
        assert est.annihilated_paths == 40 and est.mean == -np.inf
        assert (est.per_path == -np.inf).all()
        assert min(wealth_seen) > 0.0
        traj = est.trajectory
        assert traj.annihilated and traj.e_applied[-1] == 0.0
        assert traj.x[-1] == 0.0 and traj.x_prev[-1] > 0.0

    def test_window_diagnostic_close_to_mean_in_steady_state(
            self, single_asset_model):
        spec = CostSpec(buy=[0.0], sell=[0.0], fixed=0.0)
        est = average_growth(single_asset_model, spec, NoTransactionStrategy(),
                             [1.0], 1.0, 0, T=4000, n_paths=100, seed=19)
        assert abs(est.window_mean - est.mean) <= 5 * est.std_error

    def test_rejects_horizon_below_two(self, model2, spec2):
        # the second-half window of T = 1 holds no step
        with pytest.raises(ValueError, match="T >= 2"):
            average_growth(model2, spec2, NoTransactionStrategy(), [0.5, 0.5],
                           1.0, 0, T=1, n_paths=4, seed=1)
        traj = run(model2, spec2, NoTransactionStrategy(), [0.5, 0.5], 1.0, 0,
                   1, seed=1)
        assert traj.n_steps == 1

    def test_proportion_drift_raises_like_scalar_run(self, monkeypatch):
        # a leveraged target whose gross return nearly cancels: the drifted
        # proportions, each near 1e8, sum to 1 only up to about 6e-9
        k, gap = 1e3, 1e-5
        model = MarketModel(transition=[[1.0]], shock_probs=[1.0],
                            returns=[[[1.0, 1.0 + (1.0 - gap) / k, 1.0]]])
        spec = CostSpec(buy=[0.0] * 3, sell=[0.0] * 3, fixed=0.0)
        monkeypatch.setattr(simulate, "solve_e_batch",
                            lambda spec, a, b, x: np.ones(len(a)))
        target = [k, -k, 1.0]
        with pytest.raises(RuntimeError, match="drift"):
            average_growth(model, spec, FixedTargetStrategy(target),
                           [1 / 3] * 3, 1.0, 0, T=3, n_paths=4, seed=0)
        with pytest.raises(RuntimeError, match="drift"):
            run(model, spec, FixedTargetStrategy(target), [1 / 3] * 3, 1.0, 0,
                3, seed=0)


def oracle_run(model, spec, strategy, pi0, x0, z0, T, seed, stream=0):
    """The scalar step loop that ``run`` was before it became a batch of one:
    Python-float growth and logs, and proportions renormalized every step."""
    pi0 = check_simplex(pi0, model.n_assets)
    rng = make_rng(seed, stream)
    z_path, xi_path = sample_factor_paths(model, np.array([z0]), T, rng)
    z_path, xi_path = z_path[0], xi_path[0]
    strategy.reset(1)
    d = model.n_assets
    rows = T + 1
    rec = {
        "pi_prev": np.empty((rows, d)), "pi": np.empty((rows, d)),
        "transacted": np.zeros(rows, dtype=bool), "e": np.ones(rows),
        "x_prev": np.empty(rows), "x": np.empty(rows),
        "returns": np.ones((rows, d)),
    }
    cap = simulate.LOG_CAP
    pi_prev = pi0.copy()
    lx = math.log(x0)
    annihilated = False
    last = T
    for t in range(T + 1):
        x_prev_val = math.exp(min(lx, cap)) if lx > -math.inf else 0.0
        rec["pi_prev"][t] = pi_prev
        rec["x_prev"][t] = x_prev_val
        pi = pi_prev
        e_val = 1.0
        transacted = False
        if t < T and not annihilated:
            mask, tgt = strategy.decide_batch(pi_prev[None, :],
                                              np.array([x_prev_val]),
                                              z_path[t:t + 1])
            if mask[0] and np.any(tgt[0] != pi_prev):
                transacted = True
                e_val = float(solve_e_batch(spec, pi_prev[None, :],
                                            tgt[0][None, :],
                                            np.array([x_prev_val]))[0])
                if e_val == 0.0:
                    annihilated = True
                    lx = -math.inf
                else:
                    pi = tgt[0].copy()
                    lx += math.log(e_val)
        rec["transacted"][t] = transacted
        rec["e"][t] = e_val
        rec["pi"][t] = pi
        rec["x"][t] = math.exp(min(lx, cap)) if lx > -math.inf else 0.0
        if annihilated:
            last = t
            break
        if t == T:
            break
        zeta = model.returns[z_path[t + 1], xi_path[t + 1]]
        growth = float(pi @ zeta)
        pi_next = pi * zeta / growth
        drift = abs(pi_next.sum() - 1.0)
        if drift > 1e-9:
            raise RuntimeError(f"proportion drift {drift:.3e} exceeds 1e-9")
        pi_prev = pi_next / pi_next.sum()
        lx += math.log(growth)
        rec["returns"][t + 1] = zeta
    n = last + 1
    return Trajectory(
        t=np.arange(n), z=z_path[:n], xi=xi_path[:n],
        pi_prev=rec["pi_prev"][:n], transacted=rec["transacted"][:n],
        pi=rec["pi"][:n], e_applied=rec["e"][:n], x_prev=rec["x_prev"][:n],
        x=rec["x"][:n], returns=rec["returns"][:n], annihilated=annihilated,
        spec=spec,
    )


@pytest.fixture(scope="module")
def engine_cases(two_asset):
    """name -> (model, spec, strategy factory, pi0, x0, z0, T, seed)."""
    model, spec = two_asset
    wealth_grid = StateGrid.build(2, 4, 2, x_min=1e-2, x_max=1e3, n_x=6)
    _, wealth_policy, _ = solve_discounted(
        build_tables(model, spec, wealth_grid), 0.95, tol=1e-6)
    assert not wealth_policy.wealth_free
    _, prop_policy, _ = solve_discounted(
        build_tables(model, spec.without_fixed(), StateGrid.build(2, 8, 2)),
        0.95, tol=1e-6)
    mimicking = build_mimicking(prop_policy,
                                cost_constants(spec, growth_floor(model)[0]))
    fixed = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=1.0)
    return {
        "no_trade": (model, spec, NoTransactionStrategy, [0.5, 0.5], 10.0, 1,
                     300, 11),
        "fixed_target": (model, spec, lambda: FixedTargetStrategy([0.3, 0.7]),
                         [0.6, 0.4], 40.0, 0, 300, 61),
        # fixed charges grind every-step rebalancing to zero at step 18
        "fixed_target_annihilated": (
            model, spec, lambda: FixedTargetStrategy([0.5, 0.5]), [0.5, 0.5],
            1.0, 0, 50, 23),
        "fixed_target_annihilated_at_once": (
            deterministic_model(), fixed,
            lambda: FixedTargetStrategy([0.0, 1.0]), [1.0, 0.0], 0.5, 0, 10, 0),
        "grid_policy_wealth": (model, spec,
                               lambda: GridPolicyStrategy(wealth_policy),
                               [0.5, 0.5], 0.5, 0, 300, 71),
        "grid_policy": (model, spec.without_fixed(),
                        lambda: GridPolicyStrategy(prop_policy), [0.5, 0.5],
                        1.0, 1, 300, 79),
        # starts below the wealth threshold (about 14.7): frozen, then one
        # re-sync once wealth passes the resync level
        "mimicking": (model, spec, lambda: MimickingStrategy(mimicking),
                      [0.5, 0.5], 10.0, 0, 300, 73),
        # streams 0 and 6 survive; the others annihilate at steps 23 to 38
        "fixed_target_some_annihilated": (
            model, spec, lambda: FixedTargetStrategy([0.5, 0.5]), [0.5, 0.5],
            1.5, 0, 40, 23),
        # three assets, short in the third after the first trade: the
        # proportions drift between trades and the drift check runs
        "factor_target_short_3": (
            three_asset_model(),
            CostSpec(buy=[0.004, 0.006, 0.005], sell=[0.005, 0.004, 0.006],
                     fixed=0.05),
            lambda: FactorTargetStrategy([0.7, 0.5, -0.2]), [0.5, 0.3, 0.2],
            20.0, 1, 300, 89),
    }


ENGINE_CASES = ["no_trade", "fixed_target", "fixed_target_annihilated",
                "fixed_target_annihilated_at_once", "grid_policy_wealth",
                "mimicking", "factor_target_short_3"]
EXACT_FIELDS = ("t", "z", "xi", "transacted", "annihilated")
FLOAT_FIELDS = ("pi_prev", "pi", "e_applied", "x_prev", "x", "returns")


class TestOneEngine:
    @pytest.mark.parametrize("name", ENGINE_CASES)
    def test_run_matches_scalar_oracle(self, engine_cases, name):
        model, spec, make, pi0, x0, z0, T, seed = engine_cases[name]
        for stream in (0, 3):
            got = run(model, spec, make(), pi0, x0, z0, T, seed, stream=stream)
            want = oracle_run(model, spec, make(), pi0, x0, z0, T, seed,
                              stream=stream)
            for f in EXACT_FIELDS:
                np.testing.assert_array_equal(getattr(got, f),
                                              getattr(want, f), err_msg=f)
            for f in FLOAT_FIELDS:
                np.testing.assert_allclose(getattr(got, f), getattr(want, f),
                                           rtol=1e-12, atol=0, err_msg=f)
            assert got.spec is spec

    def test_cases_reach_their_branches(self, engine_cases):
        def traj(name):
            model, spec, make, pi0, x0, z0, T, seed = engine_cases[name]
            return run(model, spec, make(), pi0, x0, z0, T, seed)
        assert traj("fixed_target_annihilated").n_steps == 18
        assert traj("fixed_target_annihilated").annihilated
        assert traj("fixed_target_annihilated_at_once").n_steps == 0
        assert traj("grid_policy_wealth").transacted.any()
        mim = traj("mimicking")
        levels = engine_cases["mimicking"][2]().mimicking
        frozen = mim.x_prev < levels.wealth_threshold
        assert frozen[0] and not mim.transacted[frozen].any()
        resync = np.flatnonzero(mim.transacted)[0]
        assert mim.x_prev[resync] >= levels.resync_wealth
        model, spec, make, pi0, x0, z0, T, seed = engine_cases[
            "fixed_target_some_annihilated"]
        batch = run(model, spec, make(), pi0, x0, z0, T, seed,
                    stream=range(8))
        assert [p.annihilated for p in batch].count(False) == 2
        assert len({p.n_steps for p in batch}) > 2
        short = traj("factor_target_short_3")
        assert short.pi_prev.shape[1] == 3 and not short.annihilated
        assert (short.pi[short.transacted] < 0.0).any()
        # holds between trades, so the rows of the growth sum vary
        assert 0 < short.transacted.sum() < short.n_steps

    @pytest.mark.parametrize("name", ENGINE_CASES)
    def test_run_is_row_0_of_the_batch(self, engine_cases, name):
        model, spec, make, pi0, x0, z0, T, seed = engine_cases[name]
        one = run(model, spec, make(), pi0, x0, z0, T, seed, stream=0)
        est = average_growth(model, spec, make(), pi0, x0, z0, T, n_paths=5,
                             seed=seed)
        assert_same_trajectory(one, est.trajectory)
        batch = run(model, spec, make(), pi0, x0, z0, T, seed,
                    stream=range(5))
        assert_same_trajectory(batch[0], est.trajectory)
        # every row of a batch is its stream's batch of one, bit for bit:
        # the final log wealth and the one at the half horizon
        wide = simulate._simulate(model, spec, make(), pi0, x0, z0, T, seed,
                                  range(5))
        for i in range(5):
            alone = simulate._simulate(model, spec, make(), pi0, x0, z0, T,
                                       seed, [i])
            for k in (0, 1):
                assert wide[k][i].tobytes() == alone[k][0].tobytes(), (i, k)

    @pytest.mark.parametrize("x0, z0, message", [
        (0.0, 0, "initial wealth must be positive"),
        (-1.0, 0, "initial wealth must be positive"),
        (float("nan"), 0, "initial wealth must be positive"),
        (math.inf, 0, "initial wealth must be positive and finite, got inf"),
        (float("nan"), 0, "positive and finite, got nan"),
        (1.0, 2, "initial factor state 2 outside"),
        (1.0, -1, "initial factor state -1 outside")])
    def test_rejects_bad_start(self, model2, spec2, x0, z0, message):
        with pytest.raises(ValueError, match=message):
            run(model2, spec2, NoTransactionStrategy(), [0.5, 0.5], x0, z0, 10,
                seed=1)
        with pytest.raises(ValueError, match=message):
            average_growth(model2, spec2, NoTransactionStrategy(), [0.5, 0.5],
                           x0, z0, T=10, n_paths=3, seed=1)

    @pytest.mark.parametrize("pi0", [[math.nan, math.nan], [math.nan, 1.0],
                                     [math.inf, -math.inf]])
    def test_run_refuses_non_finite_proportions(self, model2, spec2, pi0):
        # NaN passed the simplex check once, and the run read NaN wealth
        with pytest.raises(ValueError, match="not finite or outside"):
            run(model2, spec2, NoTransactionStrategy(), pi0, 1.0, 0, 10,
                seed=1)

    @pytest.mark.parametrize("pi0", [[math.nan, math.nan], [math.nan, 1.0],
                                     [math.inf, -math.inf]])
    def test_average_growth_refuses_non_finite_proportions(self, model2,
                                                           spec2, pi0):
        with pytest.raises(ValueError, match="not finite or outside"):
            average_growth(model2, spec2, NoTransactionStrategy(), pi0, 1.0,
                           0, T=10, n_paths=3, seed=1)


def assert_same_trajectory(a, b):
    """Every field of two trajectories equal, arrays in dtype, shape and
    bytes."""
    for f in dataclasses.fields(Trajectory):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert x.tobytes() == y.tobytes(), f.name
        elif f.name == "spec":
            assert x is y
        else:
            assert x == y, f.name


class TestRunOverManyStreams:
    @pytest.mark.parametrize("streams", [range(8), [6, 0, 3, 5],
                                         np.array([1, 6, 2])],
                             ids=["range", "list", "numpy"])
    @pytest.mark.parametrize("name", ["fixed_target_some_annihilated",
                                      "mimicking", "grid_policy_wealth",
                                      "grid_policy", "factor_target_short_3"])
    def test_entry_k_is_the_run_of_stream_k(self, engine_cases, name,
                                            streams):
        model, spec, make, pi0, x0, z0, T, seed = engine_cases[name]
        batch = run(model, spec, make(), pi0, x0, z0, T, seed, stream=streams)
        if name.startswith("grid_policy"):  # the one-row lookups trade too
            assert any(traj.transacted.any() for traj in batch)
        assert isinstance(batch, list) and len(batch) == len(streams)
        for k, traj in enumerate(batch):
            # a numpy array hands out numpy ints, each a batch of one
            alone = run(model, spec, make(), pi0, x0, z0, T, seed,
                        stream=streams[k])
            assert isinstance(alone, Trajectory)
            assert_same_trajectory(traj, alone)

    @pytest.mark.parametrize("empty", [[], range(0), np.array([], dtype=int)],
                             ids=["list", "range", "numpy"])
    def test_empty_sequence_raises(self, model2, spec2, empty):
        with pytest.raises(ValueError, match="at least one stream"):
            run(model2, spec2, NoTransactionStrategy(), [0.5, 0.5], 1.0, 0,
                10, seed=1, stream=empty)

    @pytest.mark.parametrize("stream", [1.7, "a", [0, 2.5]],
                             ids=["float", "text", "float-in-list"])
    def test_non_integer_stream_raises(self, model2, spec2, stream):
        # a cast to uint64 would run stream 1.7 as stream 1
        bad = stream[-1] if isinstance(stream, list) else stream
        with pytest.raises(ValueError, match=f"stream .*got {bad!r}"):
            run(model2, spec2, NoTransactionStrategy(), [0.5, 0.5], 1.0, 0,
                10, seed=1, stream=stream)


class TestOneRowTrades:
    def test_a_step_of_one_trading_row_is_solved_as_its_run(
            self, engine_cases, monkeypatch):
        # a wide batch hands the solver the rows that trade at a step; on a
        # step where one row trades, it takes the one-row path of a run
        model, spec, make, pi0, x0, z0, T, seed = engine_cases["mimicking"]
        assert spec.fixed > 0.0
        widths = []

        def counted(spec, pi_prev, pi_new, wealth):
            widths.append(len(pi_prev))
            return solve_e_batch(spec, pi_prev, pi_new, wealth)

        monkeypatch.setattr(simulate, "solve_e_batch", counted)
        batch = run(model, spec, make(), pi0, x0, z0, T, seed,
                    stream=range(8))
        monkeypatch.undo()
        assert 1 in widths and max(widths) > 1
        for k, traj in enumerate(batch):
            assert traj.transacted.any()
            assert_same_trajectory(traj, run(model, spec, make(), pi0, x0, z0,
                                             T, seed, stream=k))


class TestRowPath:
    @pytest.mark.parametrize("name, cls", [
        ("mimicking", MimickingStrategy),
        ("grid_policy_wealth", GridPolicyStrategy)])
    def test_a_run_calls_the_names_bound_in_simulate(
            self, engine_cases, monkeypatch, name, cls):
        # a profiler that wraps these names in simulate, and the
        # strategy's decide_batch, sees every trade, step and walk block
        # of a single path
        model, spec, make, pi0, x0, z0, T, seed = engine_cases[name]
        calls = {"solve": 0, "rng": 0, "decide": 0}

        def counting(key, fn):
            def counted(*args):
                calls[key] += 1
                return fn(*args)
            return counted

        blocks = counted_blocks(monkeypatch)
        for owner, attr, key in [(simulate, "solve_e_batch", "solve"),
                                 (simulate, "make_rng", "rng"),
                                 (cls, "decide_batch", "decide")]:
            monkeypatch.setattr(owner, attr,
                                counting(key, getattr(owner, attr)))
        traj = run(model, spec, make(), pi0, x0, z0, T, seed, stream=2)
        monkeypatch.undo()
        assert not traj.annihilated and traj.transacted.any()
        assert calls == {"solve": np.count_nonzero(traj.transacted),
                         "rng": 1, "decide": T}
        assert {m for m, _ in blocks} == {1}
        assert sum(k for _, k in blocks) == T

    def test_a_single_path_holds_little_beyond_its_record(self, two_asset):
        # the row step keeps its states before each decision in 8-byte
        # doubles until it writes them into the record; as Python lists of
        # floats they took the peak to 6.8 times the record here
        model, spec = two_asset
        args = (model, spec.without_fixed(), FixedTargetStrategy([0.5, 0.5]),
                [0.5, 0.5], 1.0, 0)
        run(*args, 50, seed=3)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            traj = run(*args, 5000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = sum(v.nbytes for v in vars(traj).values()
                     if isinstance(v, np.ndarray))
        assert np.count_nonzero(traj.transacted) > 4000  # a trade a step
        assert peak <= 3.0 * record, peak / record


def oracle_simulate(model, spec, strategy, pi0, x0, z0, T, seed, streams,
                    record=1):
    """``simulate._simulate`` as it was before it streamed its market: all
    (n, T + 1) factor/shock states of the batch in one
    ``sample_factor_paths`` call and every step's returns gathered up
    front."""
    pi0 = check_simplex(pi0, model.n_assets)
    n, d, r = len(streams), model.n_assets, record
    z, xi = sample_factor_paths(model, np.full(n, z0), T,
                                [make_rng(seed, s) for s in streams])
    zeta = model.returns[z.T[1:], xi.T[1:]]
    strategy.reset(n)
    pi_prev = np.broadcast_to(pi0, (n, d)).copy()
    ones = np.ones(d)
    lx = np.full(n, math.log(x0))
    alive = np.ones(n, dtype=bool)
    all_alive = True
    signed = bool((pi0 < 0).any())
    t_half = T - T // 2
    lx_half = np.empty(n)
    rec_pi_prev, rec_pi = np.empty((r, T + 1, d)), np.empty((r, T + 1, d))
    rec_lx_prev, rec_lx = np.zeros((r, T + 1)), np.zeros((r, T + 1))
    rec_e, rec_traded = np.ones((r, T + 1)), np.zeros((r, T + 1), dtype=bool)
    for t in range(T):
        if t == t_half:
            lx_half[:] = lx
        x_prev = np.exp(np.minimum(lx, simulate.LOG_CAP))
        rec_pi_prev[:, t] = pi_prev[:r]
        rec_lx_prev[:, t] = lx[:r]
        mask, tgt = strategy.decide_batch(pi_prev, x_prev, z[:, t])
        go = mask if all_alive else mask & alive
        if np.count_nonzero(go):
            idx = (go & (tgt != pi_prev).any(axis=1)).nonzero()[0]
            if idx.size:
                new = tgt[idx]
                e = solve_e_batch(spec, pi_prev[idx], new, x_prev[idx])
                traded, e_all = idx, e
                if np.count_nonzero(e > 0.0) < idx.size:
                    dead = idx[e == 0.0]
                    alive[dead] = False
                    lx[dead] = -np.inf
                    all_alive = False
                    idx, new, e = idx[e > 0.0], new[e > 0.0], e[e > 0.0]
                lx[idx] += np.log(e)
                pi_prev[idx] = new
                signed = signed or np.count_nonzero(new < 0.0) > 0
                if traded[0] < r:
                    rec = traded[:traded.searchsorted(r)]
                    rec_e[rec, t] = e_all[:rec.size]
                    rec_traded[rec, t] = True
                    rec_pi[rec, t] = pi_prev[rec]
                    rec_lx[rec, t] = lx[rec]
        if not all_alive and not np.count_nonzero(alive):
            break
        step = zeta[t]
        growth = np.einsum("nd,nd->n", pi_prev, step)
        pi_next = pi_prev * step / growth[:, None]
        if signed:
            drift = np.abs(pi_next @ ones - 1.0).max(where=alive, initial=0.0)
            if drift > 1e-9:
                raise RuntimeError(f"proportion drift {drift:.3e} exceeds 1e-9")
        if all_alive:
            lx += np.log(growth)
            pi_prev = pi_next
        else:
            np.add(lx, np.log(growth), out=lx, where=alive)
            np.copyto(pi_prev, pi_next, where=alive[:, None])
    rec_pi_prev[:, T] = pi_prev[:r]
    rec_lx_prev[:, T] = lx[:r]
    rec_pi = np.where(rec_traded[:, :, None], rec_pi, rec_pi_prev)
    x_prev = np.exp(np.minimum(rec_lx_prev, simulate.LOG_CAP))
    x = np.where(rec_traded, np.exp(np.minimum(rec_lx, simulate.LOG_CAP)),
                 x_prev)
    returns = np.ones((r, T + 1, d))
    returns[:, 1:] = zeta[:, :r].swapaxes(0, 1)
    rows = np.where(alive[:r], T + 1, rec_e.argmin(axis=1) + 1)
    trajs = [Trajectory(
        t=np.arange(m), z=z[k, :m].copy(), xi=xi[k, :m].copy(),
        pi_prev=rec_pi_prev[k, :m], transacted=rec_traded[k, :m],
        pi=rec_pi[k, :m], e_applied=rec_e[k, :m], x_prev=x_prev[k, :m],
        x=x[k, :m], returns=returns[k, :m], annihilated=not alive[k],
        spec=spec) for k, m in enumerate(rows.tolist())]
    return lx, lx_half, alive, trajs


def counted_blocks(monkeypatch):
    """(paths, steps) of every ``sample_factor_paths`` call the engine
    makes from now on."""
    calls = []
    sample = simulate.sample_factor_paths

    def counted(model, z0, T, rng):
        calls.append((len(z0), T))
        return sample(model, z0, T, rng)

    monkeypatch.setattr(simulate, "sample_factor_paths", counted)
    return calls


# engine case, paths, horizon: each horizon is at least three walk blocks
# of its batch and a remainder, so blocks meet inside the run
STREAMED_CASES = [
    ("mimicking", 500, 300),
    ("grid_policy_wealth", 500, 300),
    # four paths in five annihilate, from step 17 on, most of them inside
    # a block of 16 steps
    ("fixed_target_some_annihilated", 2000, 56),
    # every path annihilates by step 43: the loop stops in the third block
    ("fixed_target_all_annihilated", 2000, 100),
]


class TestStreamedEngine:
    """The engine drawing one walk block per call against the one that drew
    the whole horizon at once: the same bytes."""

    @pytest.fixture(scope="class")
    def cases(self, engine_cases):
        model, spec, make, pi0, _, z0, _, seed = engine_cases[
            "fixed_target_some_annihilated"]
        return dict(engine_cases, fixed_target_all_annihilated=(
            model, spec, make, pi0, 0.95, z0, 100, seed))

    @pytest.mark.parametrize("name, n, T", STREAMED_CASES)
    def test_average_growth_matches_the_materializing_engine(
            self, cases, monkeypatch, name, n, T):
        model, spec, make, pi0, x0, z0, _, seed = cases[name]
        k = block_steps(n, T)
        assert T > 3 * k and T % k, (T, k)
        calls = counted_blocks(monkeypatch)
        got = average_growth(model, spec, make(), pi0, x0, z0, T, n, seed)
        monkeypatch.setattr(simulate, "_simulate", oracle_simulate)
        want = average_growth(model, spec, make(), pi0, x0, z0, T, n, seed)
        assert got.per_path.tobytes() == want.per_path.tobytes()
        for f in ("mean", "std_error", "window_mean"):
            assert np.float64(getattr(got, f)).tobytes() == \
                np.float64(getattr(want, f)).tobytes(), f
        assert got.annihilated_paths == want.annihilated_paths
        assert_same_trajectory(got.trajectory, want.trajectory)
        # one call per block, of every path, until the loop stops
        assert {m for m, _ in calls} == {n}
        steps = [t for _, t in calls]
        assert steps == [min(k, T - i * k) for i in range(len(steps))]
        if name == "fixed_target_all_annihilated":
            assert got.annihilated_paths == n
            assert len(steps) == 3 < -(-T // k)
        else:
            assert sum(steps) == T
        if name == "fixed_target_some_annihilated":
            assert 0 < got.annihilated_paths < n

    @pytest.mark.parametrize("name, n, T", STREAMED_CASES)
    def test_run_matches_the_materializing_engine(self, cases, monkeypatch,
                                                  name, n, T):
        model, spec, make, pi0, x0, z0, _, seed = cases[name]
        streams = list(range(n - 1, -1, -1))
        got = run(model, spec, make(), pi0, x0, z0, T, seed, stream=streams)
        monkeypatch.setattr(simulate, "_simulate", oracle_simulate)
        want = run(model, spec, make(), pi0, x0, z0, T, seed, stream=streams)
        assert len(got) == len(want) == n
        for a, b in zip(got, want):
            assert_same_trajectory(a, b)

    def test_memory_does_not_grow_with_horizon(self, two_asset):
        # the materializing engine peaked at 26.6 and 103.3 MB here
        model, spec = two_asset
        peaks = []
        for T in (2000, 8000):
            tracemalloc.start()
            try:
                average_growth(model, spec, NoTransactionStrategy(),
                               [0.5, 0.5], 100.0, 0, T, 400, seed=83)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


def oracle_mimicking_decide(mimicking, recovering, pi_prev, x_prev, z):
    """The masks and fancy assignments that ``MimickingStrategy.decide_batch``
    was before it became one mask expression; returns the new recovery bits
    too."""
    n = pi_prev.shape[0]
    base_mask, base_tgt = GridPolicyStrategy(mimicking.base).decide_batch(
        pi_prev, x_prev, z)
    below = x_prev < mimicking.wealth_threshold
    resync = recovering & (x_prev >= mimicking.resync_wealth)
    waiting = recovering & ~resync
    follow = ~below & ~recovering
    mask = np.zeros(n, dtype=bool)
    targets = pi_prev.copy()
    mask[resync] = True
    targets[resync] = base_tgt[resync]
    mask[follow] = base_mask[follow]
    targets[follow] = np.where(base_mask[follow, None], base_tgt[follow],
                               targets[follow])
    mask[below | waiting] = False
    return mask, targets, (recovering | below) & ~resync


class TestMimickingDecision:
    def test_one_mask_expression_matches_the_assignments(self, two_asset):
        model, spec = two_asset
        rng = np.random.default_rng(19)
        grid = StateGrid.build(2, 4, 2)
        base = Policy(grid=grid, impulse=rng.random(grid.shape) < 0.5,
                      target=rng.integers(grid.n_nodes, size=grid.shape),
                      beta=0.99)
        mimicking = build_mimicking(base, cost_constants(
            spec, growth_floor(model)[0]))
        m, m_star = mimicking.wealth_threshold, mimicking.resync_wealth
        assert m_star >= m
        strat = MimickingStrategy(mimicking)
        n = 40
        strat.reset(n)
        recovering = np.zeros(n, dtype=bool)
        reached = set()
        for t in range(250):
            pi_prev = rng.dirichlet(np.ones(2), n)
            x_prev = np.exp(rng.uniform(np.log(m / 2), np.log(2 * m_star), n))
            z = rng.integers(2, size=n)
            cases = np.select(
                [x_prev < m, recovering & (x_prev >= m_star), recovering],
                ["below", "resync", "waiting"], "follow")
            reached.update(cases.tolist())
            mask, tgt = strat.decide_batch(pi_prev, x_prev, z)
            want_mask, want_tgt, recovering = oracle_mimicking_decide(
                mimicking, recovering, pi_prev, x_prev, z)
            assert np.array_equal(mask, want_mask), t
            assert np.array_equal(tgt[mask], want_tgt[mask]), t
            assert np.array_equal(strat._recovering, recovering), t
        assert reached == {"below", "waiting", "resync", "follow"}


def oracle_grid_decide(policy, pi_prev, x_prev, z):
    """``GridPolicyStrategy.decide_batch`` before its flat tables: a tuple
    fancy index into the policy tables and a gather through the nodes."""
    grid = policy.grid
    wealth = (grid.nearest_wealth(x_prev),) if grid.has_wealth_axis else ()
    idx = (grid.nearest_node(pi_prev),) + wealth + (z,)
    return policy.impulse[idx], grid.nodes[policy.target[idx]]


def random_policy(rng, grid):
    return Policy(grid=grid, impulse=rng.random(grid.shape) < 0.5,
                  target=rng.integers(grid.n_nodes, size=grid.shape),
                  beta=0.99)


class TestGridDecisionTables:
    @pytest.mark.parametrize("d, wealth", [(2, False), (2, True), (3, False),
                                           (3, True)])
    def test_flat_tables_match_the_tuple_index(self, d, wealth):
        rng = np.random.default_rng(10 * d + wealth)
        m, n_z = 4, 3
        grid = StateGrid.build(d, m, n_z, *((1e-2, 1e3, 6) if wealth else ()))
        policy = random_policy(rng, grid)
        strat = GridPolicyStrategy(policy)
        # random rows; midpoints of two nodes, whose coordinates sit
        # halfway between lattice points where the nodes differ by an odd
        # count; the nodes
        nodes = grid.nodes
        pairs = rng.integers(grid.n_nodes, size=(40, 2))
        halfway = 0.5 * (nodes[pairs[:, 0]] + nodes[pairs[:, 1]])
        pi = np.vstack([rng.dirichlet(np.ones(d), 60), halfway, nodes])
        n = pi.shape[0]
        # wealth on the grid, halfway between nodes in log-wealth, and
        # beyond both ends
        grid_x = grid.wealth if wealth else np.geomspace(1e-2, 1e3, 6)
        x = np.concatenate([
            np.exp(rng.uniform(np.log(1e-4), np.log(1e5), n - 19)),
            grid_x, np.sqrt(grid_x[1:] * grid_x[:-1]),
            [1e-300, 1e-3, 5e3, 1e300, np.inf, 1e-2, 1e3, 50.0]])
        z = rng.integers(n_z, size=n)
        mask, tgt = strat.decide_batch(pi, x, z)
        want_mask, want_tgt = oracle_grid_decide(policy, pi, x, z)
        assert mask.dtype == want_mask.dtype
        assert mask.tobytes() == want_mask.tobytes()
        assert tgt.shape == want_tgt.shape
        assert tgt.tobytes() == want_tgt.tobytes()
        if wealth:  # the lookups reach both ends of the wealth grid
            j = grid.nearest_wealth(x)
            assert j.min() == 0 and j.max() == grid.n_wealth - 1

    def test_one_row_batches(self):
        rng = np.random.default_rng(3)
        grid = StateGrid.build(2, 8, 2, 1e-3, 1e4, 16)
        policy = random_policy(rng, grid)
        strat = GridPolicyStrategy(policy)
        for _ in range(50):
            pi = rng.dirichlet(np.ones(2), 1)
            x = np.exp(rng.uniform(-10.0, 12.0, 1))
            z = rng.integers(2, size=1)
            got = strat.decide_batch(pi, x, z)
            want = oracle_grid_decide(policy, pi, x, z)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_one_row_decisions_cannot_write_into_the_tables(self):
        rng = np.random.default_rng(4)
        grid = StateGrid.build(2, 8, 2, 1e-3, 1e4, 16)
        policy = random_policy(rng, grid)
        impulse, target = policy.impulse.copy(), policy.target.copy()
        strat = GridPolicyStrategy(policy)
        pi = np.array([[0.3, 0.7]])
        mask, tgt = strat.decide_batch(pi, np.array([2.0]), np.array([1]))
        assert mask.shape == (1,) and tgt.shape == (1, 2)
        for arr in (mask, tgt):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        again = strat.decide_batch(pi, np.array([2.0]), np.array([1]))
        assert again[0].tobytes() == mask.tobytes()
        assert again[1].tobytes() == tgt.tobytes()
        assert np.array_equal(policy.impulse, impulse)
        assert np.array_equal(policy.target, target)


class TestMimickingGateTruthTable:
    """Every recovery bit, wealth case and base decision at once."""

    @pytest.mark.parametrize("base_trades", [False, True])
    def test_matches_the_assignments(self, two_asset, base_trades):
        model, spec = two_asset
        rng = np.random.default_rng(7)
        grid = StateGrid.build(2, 4, 2)
        base = Policy(grid=grid, impulse=np.full(grid.shape, base_trades),
                      target=rng.integers(grid.n_nodes, size=grid.shape),
                      beta=0.99)
        mimicking = build_mimicking(base, cost_constants(
            spec, growth_floor(model)[0]))
        m, m_star = mimicking.wealth_threshold, mimicking.resync_wealth
        assert m < m_star
        wealth = {"below": m / 2, "at threshold": m,
                  "between": 0.5 * (m + m_star), "at resync": m_star,
                  "above": 2 * m_star, "nan": np.nan}
        cases = list(itertools.product([False, True], wealth))
        n = len(cases)
        recovering = np.array([rec for rec, _ in cases])
        x = np.array([wealth[w] for _, w in cases])
        pi = rng.dirichlet(np.ones(2), n)
        z = rng.integers(2, size=n)
        strat = MimickingStrategy(mimicking)
        strat.reset(n)
        strat._recovering = recovering.copy()
        mask, tgt = strat.decide_batch(pi, x, z)
        want_mask, want_tgt, want_rec = oracle_mimicking_decide(
            mimicking, recovering, pi, x, z)
        assert mask.tobytes() == want_mask.tobytes()
        # rows without a trade keep their proportions
        assert tgt.tobytes() == want_tgt.tobytes()
        assert strat._recovering.tobytes() == want_rec.tobytes()
        follow = dict(zip(cases, mask.tolist()))
        assert follow[False, "nan"] == base_trades
        assert follow[True, "at resync"] and not follow[True, "nan"]
        assert not any(follow[rec, "below"] for rec in (False, True))
        # every row again as a batch of one, which gates in Python bools
        for j in range(n):
            one = MimickingStrategy(mimicking)
            one.reset(1)
            one._recovering[0] = recovering[j]
            rows = slice(j, j + 1)
            got_mask, got_tgt = one.decide_batch(pi[rows], x[rows], z[rows])
            assert got_mask.dtype == mask.dtype and got_mask.shape == (1,)
            assert got_mask.tobytes() == mask[rows].tobytes(), cases[j]
            assert got_tgt.shape == (1, 2)
            assert got_tgt.tobytes() == tgt[rows].tobytes(), cases[j]
            assert one._recovering.tobytes() == want_rec[rows].tobytes()


class TestWealthFloor:
    def test_no_transaction_path_has_slack(self, model2, spec2):
        floor_rate, _ = growth_floor(model2)
        cc = cost_constants(spec2, floor_rate)
        traj = run(model2, spec2.without_fixed(), NoTransactionStrategy(),
                   [0.5, 0.5], 1.0, 0, 400, seed=29)
        rep = wealth_floor_check(traj, cc)
        assert rep.ok
        assert rep.min_margin >= 0.0
        assert rep.rate == cc.eta

    def test_heavy_rebalancing_stays_above_floor(self, model2):
        spec = CostSpec(buy=[0.001, 0.001], sell=[0.001, 0.001], fixed=0.0)
        floor_rate, _ = growth_floor(model2)
        cc = cost_constants(spec, floor_rate)
        for stream in range(10):
            traj = run(model2, spec, FixedTargetStrategy([0.2, 0.8]),
                       [0.8, 0.2], 1.0, 0, 500, seed=31, stream=stream)
            assert wealth_floor_check(traj, cc).ok

    def test_synthetic_violation_detected(self, model2, spec2):
        floor_rate, _ = growth_floor(model2)
        cc = cost_constants(spec2, floor_rate)
        traj = run(model2, spec2.without_fixed(), NoTransactionStrategy(),
                   [0.5, 0.5], 1.0, 0, 50, seed=37)
        # force wealth below anything the drag bound allows
        traj.x_prev[10] *= math.exp(-(cc.eta * 10 + 1.0))
        rep = wealth_floor_check(traj, cc)
        assert not rep.ok


    def test_annihilated_path_counts_one_violation(self, model2, spec2):
        # wealth 0.05 cannot pay the fixed charge of 0.1 of the first
        # rebalance: no step is taken, and the annihilation is the one
        # violation
        floor_rate, _ = growth_floor(model2)
        cc = cost_constants(spec2, floor_rate)
        traj = run(model2, spec2, FixedTargetStrategy([0.5, 0.5]),
                   [1.0, 0.0], 0.05, 0, 50, seed=3)
        assert traj.annihilated and traj.n_steps == 0
        rep = wealth_floor_check(traj, cc)
        assert (rep.violations, rep.min_margin) == (1, 0.0)
        assert wealth_floor_check(dataclasses.replace(traj, annihilated=False),
                                  cc).ok


class TestLdTail:
    def test_oversized_eps_gives_zero_probabilities(self, model2):
        floor_rate, floor_returns = growth_floor(model2)
        eps = 1.01 * (floor_rate - float(np.log(floor_returns).min()))
        res = ld_tail(model2, [8, 16, 32], eps, 2000, seed=41)
        assert all(r["tail_prob"] == 0.0 for r in res.rows)

    def test_tail_probabilities_decay(self, model2):
        floor_rate, floor_returns = growth_floor(model2)
        eps = 0.25 * (floor_rate - float(np.log(floor_returns).min()))
        res = ld_tail(model2, [32, 64, 96, 128, 192, 256], eps, 30_000, seed=43)
        probs = [r["tail_prob"] for r in res.rows]
        n = res.rows[0]["n_paths"]
        for a, b in zip(probs, probs[1:]):
            noise = 3 * math.sqrt(max(a * (1 - a), 1e-9) / n)
            assert b <= a + noise
        assert res.decaying()

    def test_rejects_nonpositive_eps(self, model2):
        with pytest.raises(ValueError):
            ld_tail(model2, [8], 0.0, 100, seed=1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_eps(self, model2, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            ld_tail(model2, [8], eps, 100, seed=1)

    @pytest.mark.parametrize("T_grid, n_paths", [
        ([0, 8], 100), ([-3, 8], 100), ([], 100), ([8], 0)])
    def test_rejects_bad_horizons_and_path_counts(self, model2, T_grid,
                                                  n_paths):
        with pytest.raises(ValueError):
            ld_tail(model2, T_grid, 0.01, n_paths, seed=1)

    @pytest.mark.parametrize("T_grid, repeated", [
        ([8, 8, 16], 8), ([16, 8, 16], 16), ([np.int64(8), 8], 8)])
    def test_refuses_a_repeated_horizon_before_any_draw(
            self, model2, monkeypatch, T_grid, repeated):
        # the fit would weigh the one estimate at that horizon twice
        def no_draw(*args):
            raise AssertionError("drew before refusing")
        monkeypatch.setattr(market, "make_rng", no_draw)
        with pytest.raises(ValueError,
                           match=f"horizon {repeated} is repeated in T_grid"):
            ld_tail(model2, T_grid, 0.01, 1000, seed=1)

    def test_lives_in_market_and_is_bound_in_simulate(self):
        # the CLI calls, and the benchmark tracer wraps, simulate.ld_tail
        assert simulate.ld_tail is market.ld_tail
        assert market.ld_tail.__module__ == "growthopt.market"


class TestIntegerArguments:
    """States, horizons, path counts, seeds and streams are integers: a
    float or a bool is refused by name before any draw, never truncated or
    passed on to numpy."""

    @pytest.mark.parametrize("call, message", [
        (lambda m, s: average_growth(m, s, NoTransactionStrategy(), [0.5, 0.5],
                                     1.0, z0=0.5, T=10, n_paths=2, seed=1),
         "z0 must be an integer, got 0.5"),
        (lambda m, s: run(m, s, NoTransactionStrategy(), [0.5, 0.5], 1.0,
                          True, 10, seed=1),
         "z0 must be an integer, got True"),
        (lambda m, s: run(m, s, NoTransactionStrategy(), [0.5, 0.5], 1.0,
                          np.float64(1.0), 10, seed=1),
         r"z0 must be an integer, got np.float64\(1.0\)"),
        (lambda m, s: run(m, s, NoTransactionStrategy(), [0.5, 0.5], 1.0, 0,
                          10.0, seed=1),
         "T must be an integer, got 10.0"),
        (lambda m, s: average_growth(m, s, NoTransactionStrategy(), [0.5, 0.5],
                                     1.0, 0, T=10.0, n_paths=2, seed=1),
         "T must be an integer, got 10.0"),
        (lambda m, s: average_growth(m, s, NoTransactionStrategy(), [0.5, 0.5],
                                     1.0, 0, T=10, n_paths=2.0, seed=1),
         "n_paths must be an integer, got 2.0"),
        (lambda m, s: run(m, s, NoTransactionStrategy(), [0.5, 0.5], 1.0, 0,
                          10, seed=True),
         r"seed must be an integer in \[0, 2\*\*64\), got True"),
        (lambda m, s: run(m, s, NoTransactionStrategy(), [0.5, 0.5], 1.0, 0,
                          10, seed=1, stream=True),
         r"stream must be an integer in \[0, 2\*\*64\), got True"),
        (lambda m, s: ld_tail(m, [3.7, 8.2], 0.01, 1000, seed=1),
         "each horizon in T_grid must be an integer, got 3.7"),
        (lambda m, s: ld_tail(m, [True, 8], 0.01, 1000, seed=1),
         "each horizon in T_grid must be an integer, got True"),
        (lambda m, s: ld_tail(m, np.array([8.0, 16.0]), 0.01, 1000, seed=1),
         r"each horizon in T_grid must be an integer, got np.float64\(8.0\)"),
        (lambda m, s: ld_tail(m, [8], 0.01, 2.5, seed=1),
         "n_paths must be an integer, got 2.5"),
    ], ids=["average_growth z0 float", "run z0 bool", "run z0 numpy float",
            "run T float", "average_growth T float",
            "average_growth n_paths float", "run seed bool",
            "run stream bool", "ld_tail horizons float",
            "ld_tail horizon bool", "ld_tail horizons numpy float",
            "ld_tail n_paths float"])
    def test_refuses_a_non_integer_by_name(self, model2, spec2, call,
                                           message):
        with pytest.raises(ValueError, match=message):
            call(model2, spec2)

    def test_numpy_integers_run_as_python_integers(self, model2, spec2):
        args = (model2, spec2, NoTransactionStrategy(), [0.5, 0.5], 1.0)
        want = average_growth(*args, 1, T=20, n_paths=3, seed=5)
        got = average_growth(*args, np.int64(1), T=np.int32(20),
                             n_paths=np.int64(3), seed=5)
        assert got.per_path.tobytes() == want.per_path.tobytes()
        want = ld_tail(model2, [8, 16], 0.01, 500, seed=5)
        got = ld_tail(model2, np.array([8, 16]), 0.01, np.int64(500), seed=5)
        assert got.rows == want.rows
        assert all(type(r["T"]) is int for r in got.rows)


def oracle_ld_tail(model, T_grid, eps, n_paths, seed,
                   paths=sample_factor_paths):
    """Materializing ld_tail: all ``paths``, then log floor returns by a 2-D
    fancy index and a cumulative sum over time."""
    T_grid = sorted(int(t) for t in T_grid)
    floor_rate, floor_returns = growth_floor(model)
    rng = make_rng(seed)
    z_init = rng.choice(model.n_factors, size=n_paths,
                        p=invariant_measure(model))
    z, xi = paths(model, z_init, T_grid[-1], rng)
    csum = np.cumsum(np.log(floor_returns)[z[:, 1:], xi[:, 1:]], axis=1)
    rows = [{"T": T, "p_hat": floor_rate, "eps": eps,
             "tail_prob": float(np.mean(csum[:, T - 1] / T
                                        <= floor_rate - eps)),
             "n_paths": n_paths} for T in T_grid]
    ts = np.array([r["T"] for r in rows], dtype=float)
    ps = np.array([r["tail_prob"] for r in rows])
    mask = ps > 0
    y = np.log(ps[mask])
    x = ts[mask]
    wts = 1.0 / ((1.0 - ps[mask]) / (n_paths * ps[mask]))
    xm = np.average(x, weights=wts)
    ym = np.average(y, weights=wts)
    sxx = np.sum(wts * (x - xm) ** 2)
    return (rows, float(np.sum(wts * (x - xm) * (y - ym)) / sxx),
            float(math.sqrt(1.0 / sxx)))


def ld_eps(model):
    floor_rate, floor_returns = growth_floor(model)
    return 0.25 * (floor_rate - float(np.log(floor_returns).min()))


class TestLdTailStreaming:
    # n = 300 walks blocks of many steps, n past half the budget one step;
    # the horizons come unsorted (a repeated one is refused)
    @pytest.mark.parametrize("T_grid, n_paths", [
        ([40, 1, 7, 250, 3], 300),
        ([6, 1, 4, 2], DRAW_BUDGET // 2 + 1)])
    def test_matches_materializing_oracle(self, model2, T_grid, n_paths):
        eps = ld_eps(model2)
        got = ld_tail(model2, T_grid, eps, n_paths, seed=61)
        rows, slope, slope_se = oracle_ld_tail(model2, T_grid, eps, n_paths,
                                               seed=61)
        assert sum(r["tail_prob"] > 0 for r in rows) >= 2
        assert got.rows == rows
        assert (got.slope, got.slope_se) == (slope, slope_se)

    def test_memory_does_not_grow_with_horizon(self, model2):
        eps = ld_eps(model2)
        peaks = []
        for t_max in (64, 512):
            tracemalloc.start()
            try:
                ld_tail(model2, [t_max // 2, t_max], eps, 20_000, seed=67)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestLdTailFold:
    """ld_tail with threshold-count shocks and flat gathers against the
    fold it replaced: ``searchsorted`` shocks and a 2-D fancy index."""

    @pytest.mark.parametrize("law", SHOCK_LAWS)
    @pytest.mark.parametrize("T_grid, n_paths", [
        ([1, 2, 5, 40, 250], 300), ([1, 2, 3], DRAW_BUDGET // 2 + 1)])
    def test_matches_searchsorted_oracle(self, law, T_grid, n_paths):
        model = shock_model(SHOCK_LAWS[law])
        eps = ld_eps(model)
        got = ld_tail(model, T_grid, eps, n_paths, seed=71)
        rows, slope, slope_se = oracle_ld_tail(model, T_grid, eps, n_paths,
                                               seed=71,
                                               paths=searchsorted_paths)
        assert sum(r["tail_prob"] > 0 for r in rows) >= 2
        assert got.rows == rows
        assert np.array([got.slope, got.slope_se]).tobytes() == \
            np.array([slope, slope_se]).tobytes()


class TestShareHoldings:
    def test_no_transactions_constant_holdings(self, model2):
        traj = run(model2, no_cost(), NoTransactionStrategy(), [0.4, 0.6],
                   3.0, 0, 100, seed=47)
        rec = to_share_holdings(traj, [10.0, 20.0])
        assert np.abs(np.diff(rec.holdings, axis=0)).max() <= 1e-12
        np.testing.assert_allclose(rec.holdings[0] * [10.0, 20.0],
                                   [0.4 * 3.0, 0.6 * 3.0], rtol=1e-12)

    def test_one_transaction_balances_to_1e12(self):
        model = deterministic_model()
        spec = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=1.0)
        traj = run(model, spec, FixedTargetStrategy([0.0, 1.0]), [1.0, 0.0],
                   100.0, 0, 3, seed=0)
        assert traj.transacted[0]
        assert traj.e_applied[0] == pytest.approx(0.98 / 1.01, abs=1e-15)
        rec = to_share_holdings(traj, [50.0, 25.0])
        assert rec.max_residual <= 1e-12

    def test_annihilated_path_consistent(self):
        # a prescribed rebalance with wealth below the fixed charge cannot
        # be executed: wealth is wiped, bookkeeping stays consistent
        model = deterministic_model()
        spec = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=1.0)
        traj = run(model, spec, FixedTargetStrategy([0.0, 1.0]), [1.0, 0.0],
                   0.5, 0, 5, seed=0)
        assert traj.annihilated
        rec = to_share_holdings(traj, [1.0, 1.0])
        assert (rec.holdings[-1] == 0.0).all()

    def test_random_paths_reconcile(self, model2, spec2):
        for stream in range(5):
            traj = run(model2, spec2, FixedTargetStrategy([0.3, 0.7]),
                       [0.6, 0.4], 50.0, 0, 200, seed=53, stream=stream)
            rec = to_share_holdings(traj, [12.0, 8.0])
            assert rec.max_residual <= 1e-11

    @pytest.mark.parametrize("s0", [
        [math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf], [0.0, 1.0],
        [1.0, -2.0], [1.0], [1.0, 1.0, 1.0]],
        ids=["nan", "inf", "-inf", "zero", "negative", "short", "long"])
    def test_refuses_initial_prices_that_are_not_finite_and_positive(
            self, model2, s0):
        # a NaN or infinite price makes every residual NaN, and a NaN
        # residual never raises: the check would pass without having run
        traj = run(model2, no_cost(), FixedTargetStrategy([0.3, 0.7]),
                   [0.6, 0.4], 2.0, 0, 20, seed=59)
        with pytest.raises(ValueError, match="initial prices must be a "
                           "positive vector per asset"):
            to_share_holdings(traj, s0)


def oracle_to_share_holdings(traj, s0):
    """``to_share_holdings`` as it was before it checked all steps at once:
    one Python iteration per step, raising at the first failing check."""
    s0 = np.asarray(s0, dtype=float)
    prices = s0 * np.cumprod(traj.returns, axis=0)
    with np.errstate(invalid="ignore"):
        holdings = traj.pi * traj.x[:, None] / prices
    holdings[traj.x == 0.0] = 0.0
    max_resid = 0.0
    tol = simulate.PATH_TOL
    for t in range(1, traj.t.shape[0]):
        prev_value = float(holdings[t - 1] @ prices[t])
        scale = max(traj.x_prev[t], 1.0)
        if abs(prev_value - traj.x_prev[t]) > tol * scale:
            raise RuntimeError("pre-transaction wealth reconstruction failed "
                               f"at step {t}")
        if traj.transacted[t] and traj.x[t] > 0.0:
            cost = share_cost(traj.spec, holdings[t - 1], holdings[t],
                              prices[t])
            resid = abs(holdings[t] @ prices[t] - (prev_value - cost))
            max_resid = max(max_resid, resid / scale)
            if resid > tol * scale:
                raise RuntimeError(f"self-financing violated at step {t}: "
                                   f"residual {resid:.3e}")
        elif not traj.transacted[t]:
            resid = float(np.abs(holdings[t] - holdings[t - 1]).max())
            scale = max(1.0, float(np.abs(holdings[t - 1]).max()))
            if resid > tol * scale:
                raise RuntimeError(f"holdings drifted without a transaction "
                                   f"at step {t}")
    return prices, holdings, max_resid


def scaled(traj, **edits):
    """Copy of ``traj`` with rows of some fields scaled: field=((row,
    factor), ...)."""
    fields = {}
    for name, rows in edits.items():
        arr = getattr(traj, name).copy()
        for row, factor in rows:
            arr[row] = arr[row] * factor
        fields[name] = arr
    return dataclasses.replace(traj, **fields)


class TestShareHoldingsVectorized:
    @pytest.mark.parametrize("name", ENGINE_CASES)
    def test_matches_the_loop_on_engine_paths(self, engine_cases, name):
        model, spec, make, pi0, x0, z0, T, seed = engine_cases[name]
        for stream in (0, 3):
            traj = run(model, spec, make(), pi0, x0, z0, T, seed,
                       stream=stream)
            s0 = [12.0, 8.0, 10.0][:traj.pi.shape[1]]
            rec = to_share_holdings(traj, s0)
            prices, holdings, max_resid = oracle_to_share_holdings(traj, s0)
            np.testing.assert_array_equal(rec.prices, prices)
            np.testing.assert_array_equal(rec.holdings, holdings)
            assert abs(rec.max_residual - max_resid) <= 1e-15 * max(
                1.0, max_resid)
            if traj.transacted[1:].any() and not traj.annihilated:
                assert max_resid > 0.0

    @pytest.mark.parametrize("edit, message", [
        (lambda a, b, c: {"x_prev": ((b, 1.001),)},
         "pre-transaction wealth reconstruction failed at step {b}"),
        (lambda a, b, c: {"x": ((a, 1.001),)},
         "self-financing violated at step {a}"),
        (lambda a, b, c: {"pi": ((b, 1.001),)},
         "holdings drifted without a transaction at step {b}"),
        # the first failing step wins, whatever fails later
        (lambda a, b, c: {"pi": ((b, 1.001),), "x_prev": ((c, 1.001),)},
         "holdings drifted without a transaction at step {b}"),
        (lambda a, b, c: {"x": ((a, 1.001),), "pi": ((c, 1.001),)},
         "self-financing violated at step {a}"),
        # within a step the reconstruction is checked first
        (lambda a, b, c: {"x_prev": ((a, 1.001),), "x": ((a, 1.001),)},
         "pre-transaction wealth reconstruction failed at step {a}")])
    def test_raises_like_the_loop(self, engine_cases, edit, message):
        model, spec, make, pi0, x0, z0, T, seed = engine_cases["mimicking"]
        traj = run(model, spec, make(), pi0, x0, z0, T, seed)
        trades = np.nonzero(traj.transacted)[0]
        a = int(trades[trades > 0][0])          # a trade
        b = int(np.nonzero(~traj.transacted)[0][3])  # a hold
        c = max(a, b) + 5
        assert b != a and not traj.transacted[c]
        bad = scaled(traj, **edit(a, b, c))
        with pytest.raises(RuntimeError) as new:
            to_share_holdings(bad, [12.0, 8.0])
        with pytest.raises(RuntimeError) as old:
            oracle_to_share_holdings(bad, [12.0, 8.0])
        assert str(new.value) == str(old.value)
        assert str(new.value).startswith(message.format(a=a, b=b))

