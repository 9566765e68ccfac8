"""Factor chain, shocks and ergodic invariants."""

import hashlib
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from growthopt import (CostSpec, MarketModel, NoTransactionStrategy,
                       bundled_model_path, dobrushin, expected_log_return,
                       growth_floor, invariant_measure, load_model, make_rng,
                       mixing_step, sample_factor_paths)
from growthopt import market
from growthopt.cli import main
from growthopt.costs import worst_case_drag
from growthopt.market import DRAW_BUDGET
from growthopt.simulate import run

from conftest import random_model


def two_state(p00=0.9, p11=0.8):
    return MarketModel(
        transition=[[p00, 1 - p00], [1 - p11, p11]],
        shock_probs=[0.5, 0.5],
        returns=[[[1.1, 1.0], [0.95, 1.05]], [[1.0, 1.1], [1.05, 0.95]]],
    )


def validate_cli(tmp_path, transition=None, rate=None):
    """Run CLI ``validate`` on the bundled model, its factor chain replaced
    by ``transition`` and its buy and sell rates by ``rate`` if given;
    returns (exit code, validate.json)."""
    with open(bundled_model_path()) as fh:
        doc = json.load(fh)
    if transition is not None:
        doc["factors"]["transition"] = transition
    if rate is not None:
        doc["costs"]["buy"] = doc["costs"]["sell"] = [rate, rate]
    (tmp_path / "model.json").write_text(json.dumps(doc))
    code = main(["--model", str(tmp_path / "model.json"), "--output-dir",
                 str(tmp_path / "out"), "validate"])
    return code, json.loads((tmp_path / "out" / "validate.json").read_text())


class TestValidate:
    @pytest.mark.parametrize("transition", [[[1.0, 0.0], [0.0, 1.0]],
                                            [[0.0, 1.0], [1.0, 0.0]]],
                             ids=["identity", "periodic"])
    def test_non_mixing_chain_fails(self, tmp_path, transition):
        m = MarketModel(transition=transition, shock_probs=[1.0],
                        returns=np.ones((2, 1, 1)))
        assert mixing_step(m) == (None, 1.0)
        code, doc = validate_cli(tmp_path, transition)
        assert code == 1 and doc["ok"] is False
        assert doc["checks"] == {"uniform_mixing": {
            "passed": False, "detail": "kappa_n = 1 for all n <= 64"}}

    def test_checks_are_the_computed_ones(self, tmp_path):
        code, doc = validate_cli(tmp_path)
        assert code == 0 and doc["ok"] is True
        assert doc["checks"] == {"uniform_mixing": {
            "passed": True, "detail": "kappa_1 = 0.700000"}}
        assert set(doc["constants"]) == {"eta_m", "wealth_threshold",
                                         "resync_wealth", "x_star"}

    def test_mixing_chain_passes_with_step_one(self):
        n, kappa = mixing_step(two_state())
        assert n == 1 and kappa == pytest.approx(0.7)

    def test_zero_return_raises_at_construction(self):
        with pytest.raises(ValueError, match=r"returns\[0\]\[0\]\[0\] is "
                           r"0\.0: returns must be finite and > 0"):
            MarketModel(transition=[[1.0]], shock_probs=[1.0],
                        returns=[[[0.0]]])


class TestReturnChecks:
    @pytest.mark.parametrize("value", [0.0, -0.5, np.nan, np.inf, -np.inf])
    def test_constructor_refuses_bad_return(self, value):
        returns = np.full((2, 2, 2), 1.05)
        returns[1, 0, 1] = value
        with pytest.raises(ValueError, match=r"returns\[1\]\[0\]\[1\] is "
                           ".*: returns must be finite and > 0"):
            MarketModel(transition=np.eye(2), shock_probs=[0.5, 0.5],
                        returns=returns)

    @pytest.mark.parametrize("returns", [[[[1.0], [1.0, 2.0]]],
                                         [[["1.05", "x"]]]])
    def test_constructor_refuses_non_numbers(self, returns):
        with pytest.raises(ValueError, match="returns is not a table of "
                           "numbers"):
            MarketModel(transition=[[1.0]], shock_probs=[1.0],
                        returns=returns)

    def test_constructor_refuses_booleans(self):
        # float() reads JSON true as 1.0, so a boolean return or
        # probability would pass every later check
        returns = np.full((2, 2, 2), 1.05).tolist()
        returns[0][0][0] = True
        with pytest.raises(ValueError, match=re.escape(
                "returns[0][0][0] is True: a table must hold numbers, not "
                "booleans")):
            MarketModel(transition=np.eye(2), shock_probs=[0.5, 0.5],
                        returns=returns)
        with pytest.raises(ValueError, match=re.escape(
                "transition[0][0] is True: a table must hold numbers")):
            MarketModel(transition=[[True, False], [0.5, 0.5]],
                         shock_probs=[0.5, 0.5], returns=np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="shock_probs is a boolean "
                           "array"):
            MarketModel(transition=np.eye(2), shock_probs=np.array([True,
                                                                    False]),
                        returns=np.ones((2, 2, 2)))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2, 1), (2, 2, 0),
                                       (1, 2, 2), (2, 3, 2)])
    def test_constructor_refuses_bad_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                "returns must have shape (n_factors, n_shocks, n_assets) = "
                f"(2, 2, d >= 1), got {shape}")):
            MarketModel(transition=np.eye(2), shock_probs=[0.5, 0.5],
                        returns=np.ones(shape))


class TestProbabilityChecks:
    @pytest.mark.parametrize("transition, probs, message", [
        # a law off the simplex that sums to 1, which sampled shock 0 at
        # every step before the constructor checked it
        ([[0.9, 0.1], [0.2, 0.8]], [1.25, -0.25],
         r"shock_probs row 0 holds \[1.25, -0.25\]: probabilities must be "
         "finite and non-negative"),
        ([[0.9, 0.1], [0.2, 0.8]], [np.nan, 0.5], "shock_probs row 0"),
        ([[0.9, 0.1], [np.inf, 0.8]], [0.5, 0.5], "transition row 1"),
        ([[0.9, 0.1], [0.2, 0.7]], [0.5, 0.5],
         r"transition rows off stochastic by 1\.000e-01 \(> 1e-09\)"),
        ([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5 + 2e-9],
         "shock_probs rows off stochastic by 2")])
    def test_constructor_refuses(self, transition, probs, message):
        with pytest.raises(ValueError, match=message):
            MarketModel(transition=transition, shock_probs=probs,
                        returns=np.ones((2, 2, 2)))

    def test_rounding_within_tolerance_passes(self):
        m = MarketModel(transition=[[0.9, 0.1 + 5e-10], [0.2, 0.8]],
                        shock_probs=[0.5, 0.5 - 5e-10],
                        returns=np.ones((2, 2, 2)))
        assert m.n_factors == m.n_shocks == 2


class TestInvariantMeasure:
    def test_single_state(self):
        m = MarketModel(transition=[[1.0]], shock_probs=[1.0],
                        returns=[[[1.05]]])
        np.testing.assert_allclose(invariant_measure(m), [1.0])

    def test_two_state_linear_solve_oracle(self):
        # theta P = theta with sum 1, solved by hand: theta = (2/3, 1/3)
        theta = invariant_measure(two_state())
        np.testing.assert_allclose(theta, [2 / 3, 1 / 3], atol=1e-12)

    def test_doubly_stochastic_is_uniform(self):
        m = MarketModel(transition=[[0.3, 0.7], [0.7, 0.3]],
                        shock_probs=[1.0], returns=np.ones((2, 1, 1)))
        np.testing.assert_allclose(invariant_measure(m), [0.5, 0.5], atol=1e-12)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_model(rng, n_z=int(rng.integers(2, 6)))
            theta = invariant_measure(m)
            assert np.abs(theta @ m.transition - theta).max() <= 1e-10
            assert abs(theta.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n_z", [65, 100])
    def test_large_chain_matches_the_eigenvector(self, n_z):
        m = random_model(np.random.default_rng(n_z), n_z=n_z)
        theta = invariant_measure(m)
        vals, vecs = np.linalg.eig(m.transition.T)
        want = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        np.testing.assert_allclose(theta, want / want.sum(), atol=1e-12)
        assert np.abs(theta @ m.transition - theta).max() <= 1e-12

    def test_block_diagonal_chain_gives_a_stationary_law(self):
        # two closed classes: any mixture of their laws is stationary, and
        # the solve returns one of them
        p = np.zeros((5, 5))
        p[:2, :2] = [[0.9, 0.1], [0.2, 0.8]]
        p[2:, 2:] = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]
        m = MarketModel(transition=p, shock_probs=[1.0],
                        returns=np.ones((5, 1, 1)))
        theta = invariant_measure(m)
        assert theta.min() >= 0.0 and theta[:2].sum() > 0 < theta[2:].sum()
        assert abs(theta.sum() - 1.0) <= 1e-12
        assert np.abs(theta @ p - theta).max() <= 1e-12


class TestDobrushin:
    def test_identity_is_one(self):
        m = MarketModel(transition=np.eye(2), shock_probs=[1.0],
                        returns=np.ones((2, 1, 1)))
        assert dobrushin(m, 1) == 1.0

    def test_two_state_hand_value(self):
        # half the L1 distance of the rows: (|0.9-0.2| + |0.1-0.8|)/2 = 0.7
        assert dobrushin(two_state(), 1) == pytest.approx(0.7, abs=1e-15)

    def test_matches_subset_enumeration(self):
        # independent oracle: maximize P^n(z, B) - P^n(z', B) over subsets B
        m = two_state(0.85, 0.6)
        for n in (1, 2, 3):
            p_n = np.linalg.matrix_power(m.transition, n)
            best = 0.0
            for size in range(3):
                for b in itertools.combinations(range(2), size):
                    mask = np.zeros(2)
                    mask[list(b)] = 1.0
                    probs = p_n @ mask
                    best = max(best, probs.max() - probs.min())
            assert dobrushin(m, n) == pytest.approx(best, abs=1e-14)

    def test_submultiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = random_model(rng, n_z=3, mix=0.4)
            kappa = {n: dobrushin(m, n) for n in range(1, 9)}
            for n, k in itertools.product(range(1, 5), range(1, 5)):
                assert kappa[n + k] <= kappa[n] * kappa[k] + 1e-12


class TestGrowthFloor:
    def test_returns_e_gives_unit_rate(self):
        m = MarketModel(transition=[[0.7, 0.3], [0.4, 0.6]],
                        shock_probs=[0.5, 0.5],
                        returns=np.full((2, 2, 1), np.e))
        rate, _ = growth_floor(m)
        assert rate == pytest.approx(1.0, abs=1e-12)

    def test_constant_two_asset_table(self):
        m = MarketModel(transition=[[1.0]], shock_probs=[1.0],
                        returns=[[[1.2, 0.9]]])
        rate, floor = growth_floor(m)
        assert floor[0, 0] == 0.9
        assert rate == pytest.approx(np.log(0.9), abs=1e-14)

    def test_weighted_sum_against_direct_formula(self):
        m = MarketModel(
            transition=[[0.9, 0.1], [0.2, 0.8]],
            shock_probs=[0.5, 0.5],
            returns=[[[1.1], [1.0]], [[0.95], [1.05]]],
        )
        rate, _ = growth_floor(m)
        expected = (2 / 3) * 0.5 * (np.log(1.1) + np.log(1.0)) \
            + (1 / 3) * 0.5 * (np.log(0.95) + np.log(1.05))
        assert rate == pytest.approx(expected, abs=1e-14)

    def test_monte_carlo_cross_check(self):
        m = two_state()
        rate, floor = growth_floor(m)
        rng = make_rng(11)
        z, xi = sample_factor_paths(m, np.zeros(8, dtype=np.int64), 40_000, rng)
        log_floor = np.log(floor)
        means = log_floor[z[:, 1:], xi[:, 1:]].mean(axis=1)
        se = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(means.mean() - rate) <= 3 * se + 1e-4


class TestExpectedLogReturn:
    def test_single_asset_reduction(self):
        m = two_state()
        for z in range(2):
            by_hand = sum(
                m.transition[z, q] * m.shock_probs[s] * np.log(m.returns[q, s, 0])
                for q in range(2) for s in range(2)
            )
            one_asset = MarketModel(transition=m.transition,
                                    shock_probs=m.shock_probs,
                                    returns=m.returns[:, :, :1])
            assert expected_log_return(one_asset, [1.0], z) == pytest.approx(
                by_hand, abs=1e-14)

    def test_state_independent_when_returns_constant(self):
        m = MarketModel(transition=[[0.6, 0.4], [0.3, 0.7]],
                        shock_probs=[1.0],
                        returns=np.broadcast_to([1.07, 0.99], (2, 1, 2)).copy())
        h0 = expected_log_return(m, [0.4, 0.6], 0)
        h1 = expected_log_return(m, [0.4, 0.6], 1)
        assert h0 == pytest.approx(h1, abs=1e-14)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        for _ in range(25):
            pi = rng.dirichlet([1.0, 1.0])
            z = int(rng.integers(2))
            brute = 0.0
            for q in range(m.n_factors):
                for s in range(m.n_shocks):
                    brute += m.transition[z, q] * m.shock_probs[s] \
                        * np.log(pi @ m.returns[q, s])
            assert expected_log_return(m, pi, z) == pytest.approx(brute, abs=1e-13)

    def test_bounds_and_concavity(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, d=3)
        lo, hi = np.log(m.returns).min(), np.log(m.returns).max()
        for _ in range(50):
            z = int(rng.integers(2))
            p1, p2 = rng.dirichlet(np.ones(3), 2)
            h1 = expected_log_return(m, p1, z)
            assert lo - 1e-12 <= h1 <= hi + 1e-12
            mid = expected_log_return(m, (p1 + p2) / 2, z)
            h2 = expected_log_return(m, p2, z)
            assert mid >= 0.5 * (h1 + h2) - 1e-12

    def test_rejects_off_simplex(self):
        m = two_state()
        with pytest.raises(ValueError):
            expected_log_return(m, [0.7, 0.7], 0)


def step(model: MarketModel, z: int, rng: np.random.Generator):
    """Scalar draw oracle: (z', xi') for one step from factor state ``z``.

    The factor uniform is consumed before the shock uniform; the batched
    path sampler uses the same order so single steps and whole paths agree
    draw for draw.
    """
    if not 0 <= z < model.n_factors:
        raise ValueError(f"factor state {z} out of range")
    cum_p = np.cumsum(model.transition[z])
    cum_nu = np.cumsum(model.shock_probs)
    z_next = int(np.searchsorted(cum_p, rng.random(), side="right"))
    xi_next = int(np.searchsorted(cum_nu, rng.random(), side="right"))
    return min(z_next, model.n_factors - 1), min(xi_next, model.n_shocks - 1)


class TestStep:
    def test_single_state_chain_stays(self, single_asset_model):
        rng = make_rng(0)
        for _ in range(10):
            z, _ = step(single_asset_model, 0, rng)
            assert z == 0

    def test_degenerate_shock_constant(self):
        m = MarketModel(transition=[[1.0]], shock_probs=[1.0],
                        returns=[[[1.02]]])
        rng = make_rng(1)
        assert all(step(m, 0, rng)[1] == 0 for _ in range(10))

    def test_empirical_frequencies_within_3_sigma(self):
        m = two_state()
        n = 1_000_000
        rng = make_rng(42)
        z, _ = sample_factor_paths(m, np.zeros(n, dtype=np.int64), 1, rng)
        freq = (z[:, 1] == 1).mean()
        p = m.transition[0, 1]
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * sigma

    def test_step_matches_path_sampler(self):
        m = two_state()
        z_path, xi_path = sample_factor_paths(m, np.array([0]), 50, make_rng(9))
        rng = make_rng(9)
        z = 0
        for t in range(1, 51):
            z, xi = step(m, z, rng)
            assert z == z_path[0, t]
            assert xi == xi_path[0, t]

    def test_reproducible(self):
        m = two_state()
        a = sample_factor_paths(m, np.zeros(4, dtype=np.int64), 100, make_rng(3))
        b = sample_factor_paths(m, np.zeros(4, dtype=np.int64), 100, make_rng(3))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def oracle_paths(model, z0, T, rng):
    """Step-by-step sampler: per step, n factor uniforms then n shock uniforms."""
    n = len(z0)
    cum_p = np.cumsum(model.transition, axis=1)
    cum_nu = np.cumsum(model.shock_probs)
    z = np.empty((n, T + 1), dtype=np.int64)
    xi = np.empty((n, T + 1), dtype=np.int64)
    z[:, 0] = z0
    xi[:, 0] = -1
    for t in range(1, T + 1):
        u_z = rng.random(n)
        idx = (u_z[:, None] >= cum_p[z[:, t - 1]]).sum(axis=1)
        z[:, t] = np.minimum(idx, model.n_factors - 1)
        u_xi = rng.random(n)
        xi[:, t] = np.minimum((u_xi[:, None] >= cum_nu[None, :]).sum(axis=1),
                              model.n_shocks - 1)
    return z, xi


def searchsorted_paths(model, z0, T, rng):
    """``oracle_paths`` with the shock draw the walk made before it counted
    thresholds: ``searchsorted`` on the cumulative shock law, then the
    clamp to the last shock state."""
    n = len(z0)
    cum_p = np.cumsum(model.transition, axis=1)
    cum_nu = np.cumsum(model.shock_probs)
    z = np.empty((n, T + 1), dtype=np.int64)
    xi = np.empty((n, T + 1), dtype=np.int64)
    z[:, 0] = z0
    xi[:, 0] = -1
    for t in range(1, T + 1):
        u_z = rng.random(n)
        idx = (u_z[:, None] >= cum_p[z[:, t - 1]]).sum(axis=1)
        z[:, t] = np.minimum(idx, model.n_factors - 1)
        xi[:, t] = np.minimum(np.searchsorted(cum_nu, rng.random(n),
                                              side="right"),
                              model.n_shocks - 1)
    return z, xi


# shock laws for the threshold-count oracle tests: zero-probability atoms
# repeat a cumulative entry, and a law summing to 0.9 exercises the clamp
SHOCK_LAWS = {
    "one atom": [1.0],
    "two atoms": [0.3, 0.7],
    "three atoms": [0.2, 0.5, 0.3],
    "five atoms": [0.1, 0.25, 0.15, 0.3, 0.2],
    "zero atoms": [0.0, 0.4, 0.0, 0.0, 0.6],
    "last entry below one": [0.3, 0.3, 0.3],
}


def unchecked_model(transition, shock_probs, returns):
    """A MarketModel built past the constructor's probability checks, so
    that its rows may end below 1: the walk clamps a uniform beyond the
    last cumulative entry to the last state."""
    model = object.__new__(MarketModel)
    for name, table in (("transition", transition),
                        ("shock_probs", shock_probs), ("returns", returns)):
        object.__setattr__(model, name, np.asarray(table, dtype=float))
    return model


def shock_model(law):
    rng = np.random.default_rng(len(law))
    trans = rng.dirichlet(np.ones(3), size=3)
    return unchecked_model(transition=trans, shock_probs=law,
                           returns=rng.uniform(0.85, 1.25, (3, len(law), 2)))


class Scripted:
    """Per-path stand-in for a Generator that hands out given uniforms."""

    def __init__(self, u):
        self.u, self.pos = u, 0

    def random(self, shape):
        out = self.u[self.pos:self.pos + shape[0]]
        self.pos += shape[0]
        return out


def block_steps(n):
    return max(1, DRAW_BUDGET // (2 * n))


class TestSampleFactorPaths:
    model = random_model(np.random.default_rng(8), n_z=3, n_s=4)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("blocks", [0, 2])
    def test_stream_list_matches_one_path_calls(self, n, blocks):
        # T = 1, or a T past two blocks that is not a multiple of the block
        T = 1 if blocks == 0 else blocks * block_steps(n) + 3
        z0 = np.arange(n) % self.model.n_factors
        z, xi = sample_factor_paths(self.model, z0, T,
                                    [make_rng(4, i) for i in range(n)])
        assert z.shape == xi.shape == (n, T + 1)
        for i in range(n):
            zi, xii = sample_factor_paths(self.model, z0[i:i + 1], T,
                                          make_rng(4, i))
            assert np.array_equal(z[i], zi[0]) and np.array_equal(xi[i], xii[0])
            zo, xio = oracle_paths(self.model, z0[i:i + 1], T, make_rng(4, i))
            assert np.array_equal(zi, zo) and np.array_equal(xii, xio)

    # below the budget a block holds many steps, above it one step
    @pytest.mark.parametrize("n, T", [(7, 3 * block_steps(7) + 5),
                                      (DRAW_BUDGET // 2 + 1, 3)])
    def test_shared_generator_matches_oracle(self, n, T):
        z0 = np.random.default_rng(n).integers(self.model.n_factors, size=n)
        got = sample_factor_paths(self.model, z0, T, make_rng(6))
        want = oracle_paths(self.model, z0, T, make_rng(6))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_batch_row_matches_run_stream(self):
        m, T, n, seed = two_state(), 40, 6, 17
        spec = CostSpec(buy=[0.01, 0.01], sell=[0.01, 0.01], fixed=0.0)
        z, xi = sample_factor_paths(m, np.full(n, 1), T,
                                    [make_rng(seed, i) for i in range(n)])
        for s in range(n):
            traj = run(m, spec, NoTransactionStrategy(), [0.5, 0.5], 1.0, 1,
                       T, seed=seed, stream=s)
            assert np.array_equal(traj.z, z[s]) and np.array_equal(traj.xi, xi[s])

    @pytest.mark.parametrize("n_z", [1, 2, 5])
    def test_factor_draw_matches_path_major_count(self, n_z):
        # the walk counts u >= cum_pT[:, z] down the factor axis; the
        # path-major form it replaced gathered cum_p[z] and counted along
        # rows.  Rows here may end below 1.0, and some uniforms sit exactly
        # on a cumulative entry or above the last one.
        rng = np.random.default_rng(30 + n_z)
        trans = rng.dirichlet(np.ones(n_z), size=n_z)
        trans[::2] *= 1.0 - 1e-6
        cum_p = np.cumsum(trans, axis=1)
        n, T = 9, 40
        u = rng.random((n, T, 2))
        u[:, ::3, 0] = rng.choice(cum_p.ravel(), size=u[:, ::3, 0].shape)
        u[:, 1::7, 0] = 1.0 - 1e-7
        model = unchecked_model(transition=trans, shock_probs=[1.0],
                                returns=np.ones((n_z, 1, 1)))
        z0 = np.arange(n) % n_z
        z, _ = sample_factor_paths(model, z0, T,
                                   [Scripted(u[i]) for i in range(n)])
        want = np.empty((n, T + 1), dtype=np.int64)
        want[:, 0] = z0
        for t in range(1, T + 1):
            idx = (u[:, t - 1, 0][:, None]
                   >= cum_p[want[:, t - 1]]).sum(axis=1)
            want[:, t] = np.minimum(idx, n_z - 1)
        assert np.array_equal(z, want)
        if n_z > 1:
            assert len(np.unique(want)) == n_z

    @pytest.mark.parametrize("law", SHOCK_LAWS)
    @pytest.mark.parametrize("n, T", [(7, 3 * block_steps(7) + 5),
                                      (DRAW_BUDGET // 2 + 1, 3)])
    def test_shared_generator_matches_searchsorted(self, law, n, T):
        # blocks of many steps below half the budget, of one step above it
        model = shock_model(SHOCK_LAWS[law])
        z0 = np.arange(n) % model.n_factors
        got = sample_factor_paths(model, z0, T, make_rng(6))
        want = searchsorted_paths(model, z0, T, make_rng(6))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("law", SHOCK_LAWS)
    def test_stream_list_matches_searchsorted(self, law):
        model = shock_model(SHOCK_LAWS[law])
        n, T = 5, 300
        z0 = np.arange(n) % model.n_factors
        z, xi = sample_factor_paths(model, z0, T,
                                    [make_rng(4, i) for i in range(n)])
        for i in range(n):
            zo, xio = searchsorted_paths(model, z0[i:i + 1], T, make_rng(4, i))
            assert z[i:i + 1].tobytes() == zo.tobytes()
            assert xi[i:i + 1].tobytes() == xio.tobytes()

    @pytest.mark.parametrize("law", SHOCK_LAWS)
    def test_shock_on_a_cumulative_entry(self, law):
        # uniforms exactly on each cumulative entry, at 0 and just below 1
        model = shock_model(SHOCK_LAWS[law])
        cum_nu = np.cumsum(model.shock_probs)
        rng = np.random.default_rng(40)
        n, T = 9, 40
        u = rng.random((n, T, 2))
        u[:, ::3, 1] = rng.choice(cum_nu, size=u[:, ::3, 1].shape)
        u[:, 1::7, 1] = 1.0 - 1e-7
        u[:, 2::11, 1] = 0.0
        _, xi = sample_factor_paths(model, np.zeros(n, dtype=np.int64), T,
                                    [Scripted(u[i]) for i in range(n)])
        want = np.minimum(np.searchsorted(cum_nu, u[:, :, 1], side="right"),
                          model.n_shocks - 1)
        assert xi[:, 1:].tobytes() == want.tobytes()
        assert np.isin(cum_nu, u[:, :, 1]).all()

    @pytest.mark.parametrize("rng", [make_rng(1), []],
                             ids=["shared", "per path"])
    def test_no_paths(self, rng):
        z, xi = sample_factor_paths(two_state(), np.zeros(0, dtype=np.int64),
                                    50, rng)
        assert z.shape == xi.shape == (0, 51)

    def test_rejects_wrong_generator_count(self):
        with pytest.raises(ValueError):
            sample_factor_paths(two_state(), np.zeros(3, dtype=np.int64), 5,
                                [make_rng(0, i) for i in range(2)])


def chunk_sizes(T, n, n_z):
    """Steps of every chunk of a walk of n paths over T steps, block by
    block: a chunk is the first step and as many maps as have their
    comparisons, n_z * (n_z - 1) * n each, within DRAW_BUDGET // 32, or
    one step where fewer than 16 maps fit."""
    k_max = min(T, block_steps(n))
    n_maps = DRAW_BUDGET // 32 // (n_z * max(1, n_z - 1) * n)
    chunk = min(k_max, n_maps + 1) if n_maps >= 16 else 1
    sizes = []
    for t0 in range(0, T, k_max):
        k = min(k_max, T - t0)
        sizes += [min(chunk, k - j) for j in range(0, k, chunk)]
    return sizes


@pytest.fixture()
def composed(monkeypatch):
    """The map count of every composition the walk runs, in order."""
    lengths = []
    compose = market._compose

    def counted(u_z, *args):
        lengths.append(len(u_z))
        return compose(u_z, *args)

    monkeypatch.setattr(market, "_compose", counted)
    return lengths


def assert_same_states(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestComposedWalk:
    """The factor walk through one-step maps composed by doubling, against
    the step-by-step oracle at and around chunk boundaries.  Each test also
    checks which chunks were composed, so that a walk that fell back to
    single steps could not pass it.

    The chain mostly steps s -> s + 1 mod 3, so that most one-step maps
    are permutations: the maps of a mixing chain soon send every state to
    one, and a composition that dropped an early map would still read the
    right states.
    """

    model = MarketModel(transition=np.roll(np.eye(3), 1, axis=1) * 0.9
                        + 0.1 / 3,
                        shock_probs=[0.1, 0.25, 0.3, 0.35],
                        returns=np.full((3, 4, 2), 1.01))

    @staticmethod
    def chunk(n, n_z=3):
        return DRAW_BUDGET // 32 // (n_z * max(1, n_z - 1) * n) + 1

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("where", ["chunk - 1", "chunk", "chunk + 1",
                                       "several chunks"])
    def test_stream_list_at_chunk_boundaries(self, composed, n, where):
        size = self.chunk(n)
        T = {"chunk - 1": size - 1, "chunk": size, "chunk + 1": size + 1,
             "several chunks": 3 * size + 5}[where]
        z0 = np.arange(n) % self.model.n_factors
        got = sample_factor_paths(self.model, z0, T,
                                  [make_rng(4, i) for i in range(n)])
        for i in range(n):
            want = oracle_paths(self.model, z0[i:i + 1], T, make_rng(4, i))
            assert_same_states((got[0][i:i + 1], got[1][i:i + 1]), want)
        sizes = chunk_sizes(T, n, 3)
        assert composed == [c - 1 for c in sizes if c > 1]
        assert max(sizes) == min(T, size)

    @pytest.mark.parametrize("where", ["chunk - 1", "chunk", "chunk + 1",
                                       "several chunks", "several blocks"])
    def test_shared_generator_at_chunk_boundaries(self, composed, where):
        n = 7
        size = self.chunk(n)
        T = {"chunk - 1": size - 1, "chunk": size, "chunk + 1": size + 1,
             "several chunks": 3 * size + 5,
             "several blocks": 2 * block_steps(n) + size + 1}[where]
        z0 = np.random.default_rng(n).integers(self.model.n_factors, size=n)
        got = sample_factor_paths(self.model, z0, T, make_rng(6))
        assert_same_states(got, oracle_paths(self.model, z0, T, make_rng(6)))
        assert composed == [c - 1 for c in chunk_sizes(T, n, 3) if c > 1]

    def test_every_map_count_up_to_70(self, composed):
        # a one-path walk of T <= 70 steps is one chunk of T - 1 maps, so
        # these cover every count of doubling passes up to 7, and the
        # counts just past each power of two
        for T in range(1, 71):
            z0 = np.array([T % self.model.n_factors])
            got = sample_factor_paths(self.model, z0, T, [make_rng(8, T)])
            assert_same_states(got, oracle_paths(self.model, z0, T,
                                                 make_rng(8, T)))
        assert composed == list(range(1, 70))

    def test_one_factor_model(self, composed):
        # cum_pT is empty: every map sends the one state to itself
        model = MarketModel(transition=[[1.0]], shock_probs=[0.2, 0.5, 0.3],
                            returns=[[[1.1], [0.9], [1.0]]])
        n = 3
        T = 3 * self.chunk(n, 1) + 2
        got = sample_factor_paths(model, np.zeros(n, dtype=np.int64), T,
                                  [make_rng(9, i) for i in range(n)])
        for i in range(n):
            want = oracle_paths(model, np.zeros(1, dtype=np.int64), T,
                                make_rng(9, i))
            assert_same_states((got[0][i:i + 1], got[1][i:i + 1]), want)
        assert not got[0].any() and len(composed) >= 3

    @pytest.mark.parametrize("n_z", [2, 4])
    def test_rows_ending_below_one(self, composed, n_z):
        # a uniform above the last cumulative entry clamps to the last
        # state, and one on an entry counts it, in every composed chunk
        rng = np.random.default_rng(50 + n_z)
        trans = rng.dirichlet(np.ones(n_z), size=n_z)
        trans[::2] *= 1.0 - 1e-3
        cum_p = np.cumsum(trans, axis=1)
        n = 2
        T = 3 * self.chunk(n, n_z) + 7
        u = rng.random((n, T, 2))
        u[:, ::3, 0] = rng.choice(cum_p.ravel(), size=u[:, ::3, 0].shape)
        u[:, 1::7, 0] = 1.0 - 1e-7
        model = unchecked_model(transition=trans, shock_probs=[1.0],
                                returns=np.ones((n_z, 1, 1)))
        z0 = np.arange(n) % n_z
        z, _ = sample_factor_paths(model, z0, T,
                                   [Scripted(u[i]) for i in range(n)])
        want = np.empty((n, T + 1), dtype=np.int64)
        want[:, 0] = z0
        for t in range(1, T + 1):
            idx = (u[:, t - 1, 0][:, None]
                   >= cum_p[want[:, t - 1]]).sum(axis=1)
            want[:, t] = np.minimum(idx, n_z - 1)
        assert z.tobytes() == want.tobytes()
        assert (want == n_z - 1).any() and len(composed) >= 3

    # 3 factors: 21 paths hold 16 maps per chunk, 22 paths 15, and half the
    # draw budget in paths makes one-step blocks
    @pytest.mark.parametrize("n, composes", [(21, True), (22, False),
                                             (DRAW_BUDGET // 2 + 1, False)])
    def test_width_limits_of_the_composition(self, composed, n, composes):
        T = 3 * min(self.chunk(n), block_steps(n)) + 5
        z0 = np.arange(n) % self.model.n_factors
        got = sample_factor_paths(self.model, z0, T, make_rng(12))
        assert_same_states(got, oracle_paths(self.model, z0, T, make_rng(12)))
        assert bool(composed) == composes
        assert composed == [c - 1 for c in chunk_sizes(T, n, 3) if c > 1]

    def test_memory_stays_within_the_buffers(self, two_asset):
        # the draw buffer and the two state buffers, allocated once per
        # walk; beyond them the shock count of a block takes a comparison
        # array and numpy's cast buffer, and the maps of a chunk at most
        # 64 KB more (scanning a whole block at once would take 1 MB)
        model = two_asset[0]
        n, T = 50, 2500
        k = block_steps(n)
        buffers = k * 2 * n * 8 + 2 * k * n * 8
        xi, u = np.zeros((k, n), dtype=np.int64), np.random.random((k, 2, n))
        tracemalloc.start()
        try:
            np.add(xi, u[:, 1] >= 0.5, out=xi)
            shock_count = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rngs = [make_rng(5, i) for i in range(n)]
        z0 = np.zeros(n, dtype=np.int64)
        tracemalloc.start()
        try:
            for _ in market._walk(model, z0, T, rngs):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= buffers + shock_count + 64 * 1024, (
            peak - buffers - shock_count)


def stream_digests(n, T, rng):
    model, _ = load_model(bundled_model_path())
    z, xi = sample_factor_paths(model, np.arange(n) % model.n_factors, T, rng)
    return (hashlib.sha256(z.tobytes()).hexdigest(),
            hashlib.sha256(xi.tobytes()).hexdigest())


class TestMakeRng:
    def test_float_seed_raises(self):
        with pytest.raises(ValueError, match=r"seed must be an integer in "
                           r"\[0, 2\*\*64\), got 3\.9"):
            make_rng(3.9)

    @pytest.mark.parametrize("stream", [1.7, "1", None])
    def test_non_integer_stream_raises(self, stream):
        with pytest.raises(ValueError, match=f"stream .*got {stream!r}"):
            make_rng(0, stream)

    def test_out_of_range_raises(self):
        # 2**64 must not escape as an OverflowError from the key array
        for args in ((-1,), (0, -2), (2**64,), (0, 2**64)):
            with pytest.raises(ValueError, match=r"in \[0, 2\*\*64\)"):
                make_rng(*args)
        make_rng(2**64 - 1, np.uint64(2**64 - 1))

    @pytest.mark.parametrize("args", [(True,), (False,), (0, True),
                                      (0, False)],
                             ids=["seed True", "seed False", "stream True",
                                  "stream False"])
    def test_a_bool_is_refused(self, args):
        # operator.index reads True as 1: seed True would key seed 1
        name = "seed" if len(args) == 1 else "stream"
        with pytest.raises(ValueError, match=rf"{name} must be an integer in "
                           rf"\[0, 2\*\*64\), got {args[-1]}"):
            make_rng(*args)

    def test_numpy_integers_key_the_same_stream(self):
        want = make_rng(5, 3).random(4)
        for seed, stream in ((np.int64(5), np.uint32(3)), (5, np.int8(3)),
                             (np.uint64(5), 3)):
            assert np.array_equal(make_rng(seed, stream).random(4), want)


class TestStreamDigests:
    """Factor and shock states of the bundled model, pinned by digest.

    The other path tests compare the walk with oracles that draw from the
    same generators, so a change in how the walk consumes its streams that
    the oracles followed would pass them; these digests would not.
    """

    def test_shared_generator_many_steps_per_block(self):
        assert stream_digests(1000, 300, make_rng(808)) == (
            "617b1c190f82317a454968a5fccf851e0a2f3cf7a33920e6a1737114332f2214",
            "8074f39ef71b1fb7ce043353c730d7eb8ba941c6ea82a66ce765b174b4b2587f")

    def test_shared_generator_one_step_per_block(self):
        assert stream_digests(DRAW_BUDGET // 2 + 1, 3, make_rng(808)) == (
            "34690c22a713d2188fef58706e3a6babb2d7b74b5d824deed46210ed829e706c",
            "5a5920d9796d0223251eb1148dbb6ffaba7d03172dd756cf899a97e4b48bad27")

    def test_per_path_generators(self):
        rngs = [make_rng(1003, s) for s in range(50)]
        assert stream_digests(50, 2500, rngs) == (
            "a1ed84a949d55245e853ba3c226ccea2124ef99a0d27594627e9271d826939c0",
            "9143ca4bbd669fc80ca659129453faada654986923ba0d0681e2ef22d5a31728")


class TestErgodicReport:
    def test_time_average_of_indicator(self):
        m = two_state()
        theta = invariant_measure(m)
        rng = make_rng(12)
        reps = 16
        z, _ = sample_factor_paths(m, np.zeros(reps, dtype=np.int64), 100_000, rng)
        freq = (z[:, 1:] == 0).mean(axis=1)
        se = freq.std(ddof=1) / np.sqrt(reps)
        assert abs(freq.mean() - theta[0]) <= 3 * se

    def test_growth_gate(self, tmp_path):
        # CLI validate reports the library's invariants and gates on
        # eta < floor rate: the bundled costs pass, a drag above the floor
        # and an infinite one (written as null) fail
        for rate in (None, 0.01, 0.4):
            run_dir = tmp_path / str(rate)
            run_dir.mkdir()
            code, doc = validate_cli(run_dir, rate=rate)
            model, spec = load_model(str(run_dir / "model.json"))
            n, kappa = mixing_step(model)
            floor_rate, _ = growth_floor(model)
            eta = worst_case_drag(spec)
            exceeds = eta < floor_rate
            assert exceeds is (rate is None)
            assert doc["kappa"] == kappa and doc["mixing_step"] == n == 1
            assert doc["floor_rate"] == floor_rate
            assert doc["eta"] == (eta if math.isfinite(eta) else None)
            assert doc["stationary"] == invariant_measure(model).tolist()
            assert doc["growth_exceeds_drag"] is exceeds
            assert doc["ok"] is exceeds and code == (0 if exceeds else 1)
            assert ("growth_exceeds_drag" in doc["checks"]) is not exceeds
