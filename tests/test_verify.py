"""Self-check suites of ``growthopt verify``."""

import numpy as np
import pytest

from conftest import random_model
from growthopt import make_rng, market, verify


@pytest.mark.parametrize("fixed", [False, True])
def test_run_all_passes_on_the_default_grid(two_asset, fixed):
    # the default grid has a wealth axis; without a fixed cost the
    # proportional checks must run on its collapsed form
    model, spec = two_asset
    if not fixed:
        spec = spec.without_fixed()
    results = verify.run_all(model, spec, n_samples=200)
    assert [r.line() for r in results if not r.passed] == []


def oracle_check_ergodic_average(model, T, reps, seed):
    """``verify.check_ergodic_average`` with all (reps, T + 1) factor states
    at once: one per-path batch, rep ``r`` on stream ``(seed, r)``."""
    theta = market.invariant_measure(model)
    z, _ = market.sample_factor_paths(model, np.zeros(reps, dtype=np.int64),
                                      T, [make_rng(seed, r)
                                          for r in range(reps)])
    worst = 0.0
    for state in range(model.n_factors):
        freq = (z[:, 1:] == state).mean(axis=1)
        se = freq.std(ddof=1) / np.sqrt(reps)
        dev = abs(freq.mean() - theta[state])
        if se > 0 and dev > 3 * se:
            return verify.CheckResult(
                "ergodic_average", False, f"state {state}: |{freq.mean():.5f}"
                f" - {theta[state]:.5f}| > 3 x {se:.5f}")
        worst = max(worst, dev)
    return verify.CheckResult("ergodic_average", True,
                              f"max deviation {worst:.2e}")


@pytest.mark.parametrize("T, reps, seed, passed", [
    (100_000, 16, 5, True),   # the default: blocks of 32,768 steps and less
    (50_000, 8, 5, True),     # as run_all calls it
    # on the bundled model the start in state 0 lifts the mean occupancy of
    # state 0 by about ten standard errors over 20 steps of 3,000 reps and
    # over 10 steps of 1,000, so the check fails whatever the seed
    (20, 3000, 0, False),
    (10, 1000, 3, False),
])
@pytest.mark.parametrize("n_z", [2, 3])
def test_ergodic_average_counts_like_the_materializing_check(
        two_asset, T, reps, seed, passed, n_z):
    model = (two_asset[0] if n_z == 2
             else random_model(np.random.default_rng(17), n_z=3))
    got = verify.check_ergodic_average(model, T, reps, seed)
    assert got == oracle_check_ergodic_average(model, T, reps, seed)
    if n_z == 2:
        assert got.passed == passed


@pytest.mark.parametrize("T, reps, name", [
    (0, 8, "T"),         # no step to average: a deviation of 0 passed
    (-5, 8, "T"),
    (10.0, 8, "T"),      # a float is refused, not truncated
    (50_000, 1, "reps"),  # one rep has no standard error: a NaN passed
    (50_000, 0, "reps"),
    (50_000, True, "reps"),
])
def test_ergodic_average_refuses_arguments_that_measure_nothing(
        model2, T, reps, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        verify.check_ergodic_average(model2, T, reps)
