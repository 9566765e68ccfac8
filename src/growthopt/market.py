"""Finite Markov-modulated market: factor chain, i.i.d. shocks, return table.

The market is driven by a factor chain on ``{0..n_factors-1}`` with row
stochastic transition matrix, and an i.i.d. shock sequence on
``{0..n_shocks-1}`` with law ``shock_probs``.  Gross one-step returns of the
``n_assets`` assets are read from ``returns[z, xi, i]`` where ``z`` is the
factor state realized at the *end* of the step and ``xi`` the shock.

Besides holding the model, this module computes its ergodic invariants:
stationary distribution, Dobrushin mixing coefficient, the stationary growth
floor of the worst asset, and the conditional expected log return of a fixed
proportion vector.

Paths are sampled by one walk, ``_walk``, vectorized across paths and fed
from bounded blocks of uniforms; it yields the states block by block.
``sample_factor_paths`` stores them as (n, T+1) arrays, and
``simulate.ld_tail`` folds each block into running sums as it arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

SIMPLEX_TOL = 1e-9
MIXING_HORIZON = 64  # longest n searched for a Dobrushin coefficient < 1
DRAW_BUDGET = 1 << 16  # uniforms held at once by the path sampler (~0.5 MB)


def check_stochastic_rows(mat, what: str) -> np.ndarray:
    """Row sums of the 2-D probability table ``mat``; a ValueError naming
    ``what`` unless its entries are finite and non-negative and each row
    sums to 1 within SIMPLEX_TOL."""
    # NaN fails both comparisons
    bad = ~((mat >= 0.0) & (mat < np.inf))
    if bad.any():
        row = int(np.nonzero(bad.any(axis=1))[0][0])
        raise ValueError(f"{what} row {row} holds {mat[row].tolist()}: "
                         "probabilities must be finite and non-negative")
    sums = mat.sum(axis=1)
    err = np.abs(sums - 1.0).max()
    if err > SIMPLEX_TOL:
        raise ValueError(f"{what} rows off stochastic by {err:.3e} "
                         f"(> {SIMPLEX_TOL})")
    return sums


def _as_readonly(a):
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MarketModel:
    """Immutable market description.

    Attributes:
        transition: (n_z, n_z) row-stochastic factor transition matrix.
        shock_probs: (n_s,) probability vector of the shock atoms.
        returns: (n_z, n_s, d) strictly positive gross return factors.
    """

    transition: np.ndarray
    shock_probs: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "transition", _as_readonly(self.transition))
        object.__setattr__(self, "shock_probs", _as_readonly(self.shock_probs))
        object.__setattr__(self, "returns", _as_readonly(self.returns))
        if self.transition.ndim != 2 or self.transition.shape[0] != self.transition.shape[1]:
            raise ValueError("transition must be a square matrix")
        if self.shock_probs.ndim != 1:
            raise ValueError("shock_probs must be a vector")
        if self.returns.shape != (self.n_factors, self.n_shocks, self.n_assets):
            raise ValueError(
                "returns must have shape (n_factors, n_shocks, n_assets), got %s"
                % (self.returns.shape,)
            )
        check_stochastic_rows(self.transition, "transition")
        check_stochastic_rows(self.shock_probs[None], "shock_probs")

    @property
    def n_factors(self) -> int:
        return self.transition.shape[0]

    @property
    def n_shocks(self) -> int:
        return self.shock_probs.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[2]


@dataclass
class ValidationReport:
    """Outcome of the numeric model checks, one entry per named check."""

    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(passed for passed, _ in self.checks.values())

    def add(self, name, passed, detail=""):
        self.checks[name] = (bool(passed), detail)

    def failures(self):
        return [name for name, (passed, _) in self.checks.items() if not passed]


@dataclass
class ErgodicReport:
    """Stationary and mixing invariants of the factor/shock dynamics.

    ``eta`` is the worst-case log wealth drag of a single proportional
    rebalance (supplied by the cost side); ``growth_exceeds_drag`` records
    whether the stationary floor rate dominates it, which is the condition
    for wealth to grow under any admissible strategy.
    """

    stationary: np.ndarray
    mixing_step: int
    kappa: float
    floor_rate: float
    eta: Optional[float] = None
    growth_exceeds_drag: Optional[bool] = None


def dobrushin(model: MarketModel, n: int) -> float:
    """Dobrushin coefficient of the n-step transition matrix.

    On a finite space the worst-case difference of n-step distributions over
    all measurable sets equals half the maximum L1 distance between rows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p_n = np.linalg.matrix_power(model.transition, n)
    diff = p_n[:, None, :] - p_n[None, :, :]
    return float(0.5 * np.abs(diff).sum(axis=2).max())


def mixing_step(model: MarketModel):
    """(n, kappa_n): smallest n <= MIXING_HORIZON with Dobrushin kappa_n < 1.

    Returns (None, 1.0) when no such n exists, which means the chain does
    not mix uniformly within the horizon.
    """
    for n in range(1, MIXING_HORIZON + 1):
        kappa = dobrushin(model, n)
        if kappa < 1.0 - 1e-12:
            return n, kappa
    return None, 1.0


def invariant_measure(model: MarketModel) -> np.ndarray:
    """Stationary distribution of the factor chain, residual <= 1e-12.

    Small chains are solved directly as a constrained linear system; larger
    ones fall back to power iteration.  Raises RuntimeError when no
    distribution with the required residual is found (mixing failure).
    """
    p = model.transition
    n = model.n_factors
    theta = None
    if n <= 64:
        a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        if sol.min() > -1e-10:
            theta = np.clip(sol, 0.0, None)
            theta /= theta.sum()
    if theta is None or np.abs(theta @ p - theta).max() > 1e-12:
        theta = np.full(n, 1.0 / n)
        for _ in range(1_000_000):
            nxt = theta @ p
            if np.abs(nxt - theta).max() <= 1e-13:
                theta = nxt
                break
            theta = nxt
        theta = theta / theta.sum()
    residual = np.abs(theta @ p - theta).max()
    if residual > 1e-12 or theta.min() < -1e-12:
        raise RuntimeError(
            f"stationary distribution did not converge (residual {residual:.3e}); "
            "the factor chain does not mix"
        )
    return theta


def growth_floor(model: MarketModel):
    """Stationary mean log of the per-step worst asset return.

    Returns (floor_rate, floor_returns) where floor_returns[z, xi] is the
    minimum over assets of the gross return and floor_rate its expectation
    under stationary factor x shock law.
    """
    floor_returns = model.returns.min(axis=2)
    theta = invariant_measure(model)
    floor_rate = float(theta @ (np.log(floor_returns) @ model.shock_probs))
    return floor_rate, floor_returns


def check_simplex(pi, n_assets: int) -> np.ndarray:
    """Validate a proportion vector and return it as an array."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (n_assets,):
        raise ValueError(f"proportion vector must have length {n_assets}")
    if pi.min() < -SIMPLEX_TOL or abs(pi.sum() - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"proportion vector outside the unit simplex: {pi}")
    return pi


def expected_log_return(model: MarketModel, pi, z: int) -> float:
    """Expected one-step log growth of proportions ``pi`` from factor ``z``.

    The expectation runs over the next factor state and the shock:
    sum_{z'} P(z, z') sum_xi nu(xi) ln(pi . returns[z', xi]).
    """
    pi = check_simplex(pi, model.n_assets)
    port = model.returns @ pi  # (n_z, n_s)
    return float(model.transition[z] @ (np.log(port) @ model.shock_probs))


def step(model: MarketModel, z: int, rng: np.random.Generator):
    """Draw (z', xi') for one step from factor state ``z``.

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


def sample_factor_paths(model: MarketModel, z0, T: int, rng):
    """Simulate ``len(z0)`` factor/shock paths of length T, vectorized.

    ``rng`` is either one Generator shared by all paths or a sequence of
    Generators, one per path; ``_walk`` describes the order in which they
    are drawn.  Path ``i`` of a per-path batch equals a one-path call on
    ``rng[i]`` and a run of ``step`` on it, draw for draw.

    Returns integer arrays z, xi of shape (n, T+1); column 0 holds the
    initial factor states and xi[:, 0] = -1 (no shock arrives at time 0).
    They are views of time-major storage, filled block by block from the
    walk, so a column ``z[:, t]`` is contiguous.
    """
    z0 = np.asarray(z0, dtype=np.int64)
    z = np.empty((T + 1, z0.shape[0]), dtype=np.int64)
    xi = np.empty_like(z)
    z[0] = z0
    xi[0] = -1
    for t0, z_blk, xi_blk in _walk(model, z0, T, rng):
        z[t0:t0 + len(z_blk)] = z_blk
        xi[t0:t0 + len(xi_blk)] = xi_blk
    return z.T, xi.T


def _walk(model: MarketModel, z0, T: int, rng):
    """The one factor/shock walk: yield steps 1..T of all paths in blocks.

    Each item is ``(t0, z, xi)``: time-major (k, n) integer arrays with the
    factor and shock states of steps t0..t0+k-1.  ``sample_factor_paths``
    stores the blocks; ``simulate.ld_tail`` folds each block into running
    sums and drops it, so its memory does not grow with T.  The walk reads
    the last row of ``z`` again for the next block, but never ``xi``, which
    its consumer may overwrite.

    Every step consumes a factor uniform and then a shock uniform.  A
    shared Generator draws a block as one (k, 2, n) array (factors of step
    t for all paths, their shocks, then step t+1); a per-path Generator
    draws (k, 2) for its own path only.  The block length comes from
    ``DRAW_BUDGET``, so the draw buffer stays near 0.5 MB for any batch;
    above half the budget in paths a block is one step.

    A state is the count of cumulative probabilities at or below its
    uniform, clamped to the last state: step by step for the factor, from
    the row of the previous state, and for a whole block at once for the
    shock, one comparison per atom.  On the non-decreasing cumulative rows
    of a model with non-negative probabilities, the count is the
    ``searchsorted(..., side="right")`` index that ``step`` draws.
    """
    n = z0.shape[0]
    if isinstance(rng, np.random.Generator):
        def draw(k):
            return rng.random((k, 2, n))
    else:
        rngs = list(rng)
        if len(rngs) != n:
            raise ValueError(f"need one generator per path: {len(rngs)} for {n}")

        def draw(k):
            u = np.empty((k, 2, n))
            for c, r in enumerate(rngs):
                u[:, :, c] = r.random((k, 2))
            return u
    # transposed cumulative rows: a step gathers one column per path and
    # counts down the short factor axis, the same counts as along rows
    cum_pT = np.cumsum(model.transition, axis=1).T
    cum_nu = np.cumsum(model.shock_probs)
    k_max = max(1, DRAW_BUDGET // max(1, 2 * n))
    prev = z0
    for t0 in range(1, T + 1, k_max):
        k = min(k_max, T + 1 - t0)
        u = draw(k)
        # shocks are i.i.d., so a whole block is sampled at once
        u_xi = u[:, 1]
        xi = np.zeros((k, n), dtype=np.int64)
        for c in cum_nu:
            np.add(xi, u_xi >= c, out=xi)
        np.minimum(xi, model.n_shocks - 1, out=xi)
        z = np.empty((k, n), dtype=np.int64)
        for j in range(k):
            hits = u[j, 0] >= cum_pT.take(prev, axis=1)
            prev = np.minimum(hits.sum(axis=0), model.n_factors - 1, out=z[j])
        yield t0, z, xi


def validate(model: MarketModel) -> ValidationReport:
    """Run all structural and mixing checks, report-style (never raises)."""
    report = ValidationReport()
    row_err = np.abs(model.transition.sum(axis=1) - 1.0).max()
    report.add(
        "transition_row_stochastic",
        row_err <= 1e-12 and model.transition.min() >= 0.0,
        f"max row-sum error {row_err:.2e}",
    )
    shock_err = abs(model.shock_probs.sum() - 1.0)
    report.add(
        "shock_probs_normalized",
        shock_err <= 1e-12 and model.shock_probs.min() >= 0.0,
        f"sum error {shock_err:.2e}",
    )
    rmin = model.returns.min()
    report.add("returns_positive", rmin > 0.0, f"min return {rmin}")
    n, kappa = mixing_step(model)
    report.add(
        "uniform_mixing",
        n is not None,
        f"kappa_{n} = {kappa:.6f}" if n is not None
        else f"kappa_n = 1 for all n <= {MIXING_HORIZON}",
    )
    return report


def ergodic_report(model: MarketModel, eta: Optional[float] = None
                   ) -> ErgodicReport:
    """Assemble stationary distribution, mixing data and the growth floor."""
    n, kappa = mixing_step(model)
    if n is None:
        raise RuntimeError("factor chain does not mix within "
                           f"{MIXING_HORIZON} steps")
    theta = invariant_measure(model)
    floor_rate, _ = growth_floor(model)
    exceeds = None if eta is None else bool(eta < floor_rate)
    return ErgodicReport(
        stationary=theta,
        mixing_step=n,
        kappa=kappa,
        floor_rate=floor_rate,
        eta=eta,
        growth_exceeds_drag=exceeds,
    )
