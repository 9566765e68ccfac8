"""Self-check suites of ``growthopt verify``."""

import pytest

from growthopt import verify


@pytest.mark.parametrize("fixed", [False, True])
def test_run_all_passes_on_the_default_grid(two_asset, fixed):
    # the default grid has a wealth axis; without a fixed cost the
    # proportional checks must run on its collapsed form
    model, spec = two_asset
    if not fixed:
        spec = spec.without_fixed()
    results = verify.run_all(model, spec, n_samples=200)
    assert [r.line() for r in results if not r.passed] == []
