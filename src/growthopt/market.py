"""Finite Markov-modulated market: factor chain, i.i.d. shocks, return table.

The market is driven by a factor chain on ``{0..n_factors-1}`` with row
stochastic transition matrix, and an i.i.d. shock sequence on
``{0..n_shocks-1}`` with law ``shock_probs``.  Gross one-step returns of the
``n_assets`` assets are read from ``returns[z, xi, i]`` where ``z`` is the
factor state realized at the *end* of the step and ``xi`` the shock.

``MarketModel`` is the one owner of model validity: it refuses, with a
ValueError naming the field, tables that hold anything but numbers (a
boolean included), tables of the wrong shape, probability rows that are
not finite, non-negative and stochastic within ``SIMPLEX_TOL``
(``check_stochastic_rows``), and any return that is not finite and > 0.
A model that was built can be solved, simulated and checked.

Besides holding the model, this module computes its ergodic invariants:
stationary distribution, Dobrushin mixing coefficient, the stationary growth
floor of the worst asset, and the conditional expected log return of a fixed
proportion vector.

Paths are sampled by one walk, ``_walk``, vectorized across paths and fed
from bounded blocks of uniforms (``block_steps`` steps each); it yields the
states block by block, and a narrow walk composes the factor steps of a
block by doubling.  ``sample_factor_paths`` stores a walk as (n, T+1)
arrays.  The simulation engine asks it for one block per call and
continues from the block's last factor state on the same generators, so
its memory is O(n * block) rather than O(n * T), while ``ld_tail`` and
``verify.check_ergodic_average`` fold each block of ``_walk`` into
running sums or counts as it arrives.

``ld_tail``, the large-deviations check of the growth floor, ends the
module: it reads the walk alone, with no strategy and no costs, and it is
the one consumer that overwrites a block's shock states, so it sits with
the walk whose block contract it relies on.  ``simulate`` binds it under
the name the CLI calls.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .rng import make_rng

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


def _first_bool(a, name: str):
    """Name of the first boolean entry of a (possibly nested) list, or
    None."""
    if isinstance(a, (bool, np.bool_)):
        return f"{name} is {bool(a)}"
    if isinstance(a, np.ndarray) and a.dtype.kind == "b":
        return f"{name} is a boolean array"
    if isinstance(a, (list, tuple)):
        for i, x in enumerate(a):
            found = _first_bool(x, f"{name}[{i}]")
            if found is not None:
                return found
    return None


def readonly_table(a, name: str) -> np.ndarray:
    """``a`` as a read-only float array; a ValueError naming ``name`` if it
    is not a (possibly nested) list of numbers of one shape.  A boolean is
    not a number here, although float() reads JSON true as 1.0."""
    found = _first_bool(a, name)
    if found is not None:
        raise ValueError(f"{found}: a table must hold numbers, not booleans")
    try:
        arr = np.array(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a table of numbers: {exc}") from None
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MarketModel:
    """Immutable market description; construction refuses invalid tables.

    Attributes:
        transition: (n_z, n_z) row-stochastic factor transition matrix.
        shock_probs: (n_s,) probability vector of the shock atoms.
        returns: (n_z, n_s, d) finite, strictly positive gross return factors.
    """

    transition: np.ndarray
    shock_probs: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        for name in ("transition", "shock_probs", "returns"):
            object.__setattr__(self, name,
                               readonly_table(getattr(self, name), name))
        if self.transition.ndim != 2 or self.transition.shape[0] != self.transition.shape[1]:
            raise ValueError("transition must be a square matrix")
        if self.shock_probs.ndim != 1:
            raise ValueError("shock_probs must be a vector")
        if (self.returns.ndim != 3 or self.n_assets < 1
                or self.returns.shape[:2] != (self.n_factors, self.n_shocks)):
            raise ValueError(
                "returns must have shape (n_factors, n_shocks, n_assets) = "
                f"({self.n_factors}, {self.n_shocks}, d >= 1), got "
                f"{self.returns.shape}")
        check_stochastic_rows(self.transition, "transition")
        check_stochastic_rows(self.shock_probs[None], "shock_probs")
        # NaN fails both comparisons
        bad = ~((self.returns > 0.0) & (self.returns < np.inf))
        if bad.any():
            z, xi, i = (int(k) for k in np.argwhere(bad)[0])
            raise ValueError(f"returns[{z}][{xi}][{i}] is "
                             f"{self.returns[z, xi, i]}: returns must be "
                             "finite and > 0")

    @property
    def n_factors(self) -> int:
        return self.transition.shape[0]

    @property
    def n_shocks(self) -> int:
        return self.shock_probs.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[2]


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

    Solved as one constrained linear system (least squares), at any chain
    size.  Raises RuntimeError when the solution is negative beyond 1e-10
    or misses the residual (mixing failure).
    """
    p = model.transition
    n = model.n_factors
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    theta = np.clip(sol, 0.0, None)
    theta /= theta.sum()
    residual = np.abs(theta @ p - theta).max()
    if residual > 1e-12 or sol.min() < -1e-10:
        raise RuntimeError(
            f"no stationary distribution (residual {residual:.3e}, least "
            f"entry {sol.min():.3e}); the factor chain does not mix"
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


def check_integer(name: str, val) -> int:
    """``val`` as an int if it is a Python or numpy integer and not a bool,
    as ``grid.check_settings`` takes its integer keys; anything else, a
    float above all, which would truncate, raises a ValueError naming
    ``name``."""
    if isinstance(val, bool) or not isinstance(val, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {val!r}")
    return int(val)


def expected_log_return(model: MarketModel, pi, z: int) -> float:
    """Expected one-step log growth of proportions ``pi`` from factor ``z``.

    The expectation runs over the next factor state and the shock:
    sum_{z'} P(z, z') sum_xi nu(xi) ln(pi . returns[z', xi]).
    """
    pi = check_simplex(pi, model.n_assets)
    port = model.returns @ pi  # (n_z, n_s)
    return float(model.transition[z] @ (np.log(port) @ model.shock_probs))


def block_steps(n: int, T: int) -> int:
    """Steps in one block of a walk of ``n`` paths with ``T`` steps left:
    as many as ``DRAW_BUDGET`` uniforms hold, at least one and at most T."""
    return max(1, min(T, DRAW_BUDGET // max(1, 2 * n)))


def sample_factor_paths(model: MarketModel, z0, T: int, rng):
    """Simulate ``len(z0)`` factor/shock paths of length T, vectorized.

    ``rng`` is either one Generator shared by all paths or a sequence of
    Generators, one per path; ``_walk`` describes the order in which they
    are drawn, and how a narrow walk reads the factor states of a chunk of
    steps through composed one-step maps.  The states are those of a
    step-by-step draw, and path ``i`` of a per-path batch equals a one-path
    call on ``rng[i]``, draw for draw.

    A walk may be drawn in pieces: a call from the last factor states of
    the one before, on the same generators, continues it draw for draw.
    The simulation engine calls it once per block, with T =
    ``block_steps(n, steps left)``, so it holds O(n * block) states at a
    time rather than O(n * T).

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
    stores the blocks; ``ld_tail`` and the ergodic check of ``verify`` fold
    each block into running sums or counts and drop it, so their memory
    does not grow with T.  The walk reads the last row of ``z`` again for
    the next block, but never ``xi``, which its consumer may overwrite.
    Every block is written over the previous one, into buffers allocated
    once per walk, so a consumer must be done with a block before it asks
    for the next.

    Every step consumes a factor uniform and then a shock uniform.  A
    shared Generator draws a block as one (k, 2, n) array (factors of step
    t for all paths, their shocks, then step t+1); a per-path Generator
    draws (k, 2) for its own path only.  The block length comes from
    ``block_steps``, so the draw buffer stays near 0.5 MB for any batch;
    above half the budget in paths a block is one step.

    A state is the count of cumulative probabilities, all but the last, at
    or below its uniform, one comparison per atom: for the shock, for a
    whole block at once; for the factor, against the row of the previous
    state.  On the non-decreasing cumulative rows of a model with
    non-negative probabilities, the last atom could only raise a count
    from n - 1 to n, so the count is the ``searchsorted(..., side="right")``
    index of the uniform in the full cumulative row, clamped to n - 1: the
    draw of one step taken alone.

    The factor of a block is walked in chunks.  The first step of a chunk
    counts from the previous state.  Each later step is a map of every
    state to its count, and doubling composes the maps into prefix maps
    (step j after step j - 1, then j - 2, j - 4, ...), so that one gather
    of the chunk's first state reads every later state of the chunk.  The
    counts are those of the step-by-step walk, so the states are too.  A
    map of n paths has n_factors * n entries and takes n_factors - 1
    comparisons per entry; the comparisons of a chunk, and each of the two
    buffers its maps fill, hold at most ``DRAW_BUDGET // 32`` entries.  A
    walk too wide for 16 maps per chunk (n_factors * (n_factors - 1) * n
    above 128), and so any walk of one-step blocks, counts every step from
    the previous state.
    """
    n = z0.shape[0]
    n_z = model.n_factors
    k_max = block_steps(n, T)
    # steps per chunk: the first and the ones its maps hold; fewer than
    # 16 maps cost more numpy calls than the steps they replace
    n_maps = DRAW_BUDGET // 32 // (n_z * max(1, n_z - 1) * n) if n else 0
    chunk = min(k_max, n_maps + 1) if n_maps >= 16 else 1
    # a walk of many paths has one-step blocks: fresh arrays of its width
    # every step made a step's cost hang on whether the allocator kept or
    # returned their memory, which page faults then paid for
    u_buf = np.empty((k_max, 2, n))
    z_buf = np.empty((k_max, n), dtype=np.int64)
    xi_buf = np.empty((k_max, n), dtype=np.int64)
    if isinstance(rng, np.random.Generator):
        def draw(k):
            return rng.random(out=u_buf[:k])
    else:
        rngs = list(rng)
        if len(rngs) != n:
            raise ValueError(f"need one generator per path: {len(rngs)} for {n}")

        def draw(k):
            u = u_buf[:k]
            for c, r in enumerate(rngs):
                u[:, :, c] = r.random((k, 2))
            return u
    # transposed cumulative rows: a step gathers one column per path and
    # counts down the short factor axis, the same counts as along rows
    cum_pT = np.cumsum(model.transition, axis=1)[:, :-1].T
    cum_nu = np.cumsum(model.shock_probs)[:-1]
    if chunk > 1:
        maps = np.empty((2, chunk - 1, n_z, n), dtype=np.int64)
        # flat start of each step's map
        offs = np.arange(0, (chunk - 1) * n_z * n, n_z * n).reshape(-1, 1, 1)
        col = np.arange(n)
    prev = z0
    for t0 in range(1, T + 1, k_max):
        k = min(k_max, T + 1 - t0)
        u = draw(k)
        # shocks are i.i.d., so a whole block is sampled at once
        u_xi = u[:, 1]
        xi = xi_buf[:k]
        xi.fill(0)
        for c in cum_nu:
            np.add(xi, u_xi >= c, out=xi)
        z = z_buf[:k]
        for j in range(0, k, chunk):
            hits = u[j, 0] >= cum_pT.take(prev, axis=1)
            # np.add.reduce with the count's dtype: np.sum(hits, out=...)
            # costs about 2 us more per step of a one-path walk
            prev = np.add.reduce(hits, axis=0, dtype=np.int64, out=z[j])
            m = min(chunk, k - j) - 1
            if m:
                out = z[j + 1:j + 1 + m]
                _compose(u[j + 1:j + 1 + m, 0], cum_pT, prev,
                         maps[:, :m], offs[:m], col, out)
                prev = out[-1]
        yield t0, z, xi


def _compose(u_z, cum_pT, prev, maps, offs, col, out):
    """``out[i]`` = the factor states after steps 0..i of the factor
    uniforms ``u_z`` (m, n), from the states ``prev``.

    Entry (i, s, c) of a map is ``n * state + c``: the state after step i
    from state s on path c, at its flat position in a step's (n_z, n) map.
    Adding the flat start of step i then addresses step i's map, so one
    gather composes a map with an earlier one.
    """
    m, n = u_z.shape
    a, b = maps
    np.add.reduce(u_z[:, None, None, :] >= cum_pT[:, :, None], axis=1,
                  dtype=np.int64, out=a)
    a *= n
    a += col
    shift = 1
    while shift < m:
        # b[i] = a[i] after a[i - shift], gathered in place of its indices:
        # each is read before its slot is written, and mode "raise" would
        # copy the output
        idx = b[shift:]
        np.add(a[:-shift], offs[shift:], out=idx)
        np.take(a.reshape(-1), idx, out=idx, mode="clip")
        b[:shift] = a[:shift]
        a, b = b, a
        shift *= 2
    idx = offs[:, 0] + (prev * n + col)
    np.take(a.reshape(-1), idx, out=idx, mode="clip")
    idx -= col
    np.floor_divide(idx, n, out=out)


@dataclass
class LdTailResult:
    """Empirical decay of the probability of a depressed growth average."""

    rows: list                    # dicts: T, p_hat, eps, tail_prob, n_paths
    slope: float                  # fitted d ln P / dT (negative = decay)
    slope_se: float
    floor_rate: float

    def decaying(self) -> bool:
        """Whether the fitted slope is below zero at 1.96 standard errors."""
        return self.slope + 1.96 * self.slope_se < 0.0


def ld_tail(model: MarketModel, T_grid, eps: float, n_paths: int,
            seed: int) -> LdTailResult:
    """Tail probabilities of the average worst-asset log return per horizon.

    For each horizon T, estimates P[(1/T) sum ln floor-return <= floor_rate
    - eps] over ``n_paths`` factor/shock paths simulated from the
    stationary law of the factor chain, and fits a weighted least squares
    slope to ln P against T (variance weights from the binomial counts).

    The paths are streamed: each keeps one running sum of its log floor
    returns, fed block by block from the market walk, and the tail
    frequency is read off when the step count reaches a horizon.  Memory
    depends on ``n_paths`` only, not on the horizons.  The horizons and
    ``n_paths`` must be integers: a float is refused, not truncated.  A
    horizon given twice is refused too: the fit would count its one
    estimate as two independent ones.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    T_grid = sorted(check_integer("each horizon in T_grid", t) for t in T_grid)
    if not T_grid:
        raise ValueError("T_grid must hold at least one horizon")
    if T_grid[0] < 1:
        raise ValueError(f"horizons must be >= 1, got {T_grid[0]}")
    for t, t_next in zip(T_grid, T_grid[1:]):
        if t == t_next:
            raise ValueError(f"horizon {t} is repeated in T_grid")
    n_paths = check_integer("n_paths", n_paths)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    floor_rate, floor_returns = growth_floor(model)
    # log_floor[z, xi] is entry xi * n_factors + z of this flat table
    log_floor = np.log(floor_returns).T.ravel()
    rng = make_rng(seed)
    z_init = rng.choice(model.n_factors, size=n_paths,
                        p=invariant_measure(model))
    threshold = floor_rate - eps
    tail = dict.fromkeys(T_grid)
    # a sequential sum, as np.cumsum along time: the same bits per horizon
    csum = np.zeros(n_paths)
    lr_buf = None
    for t0, z, xi in _walk(model, z_init, T_grid[-1], rng):
        # one flat gather per block, at indices made in place in the shock
        # states, which the walk does not read again
        xi *= model.n_factors
        xi += z
        # into one buffer, as the walk writes its blocks; the indices are in
        # range by construction, and mode "clip" writes straight into out,
        # where the default mode "raise" copies through a temporary
        if lr_buf is None:
            lr_buf = np.empty(xi.shape)
        lrs = log_floor.take(xi, out=lr_buf[:len(xi)], mode="clip")
        for t, lr in enumerate(lrs, start=t0):
            csum += lr
            if t in tail:
                tail[t] = float(np.mean(csum / t <= threshold))
    rows = [{"T": T, "p_hat": floor_rate, "eps": eps, "tail_prob": tail[T],
             "n_paths": n_paths} for T in T_grid]
    ts = np.array([r["T"] for r in rows], dtype=float)
    ps = np.array([r["tail_prob"] for r in rows])
    mask = ps > 0
    if mask.sum() >= 2:
        y = np.log(ps[mask])
        x = ts[mask]
        var = (1.0 - ps[mask]) / (n_paths * ps[mask])
        wts = 1.0 / var
        xm = np.average(x, weights=wts)
        ym = np.average(y, weights=wts)
        sxx = np.sum(wts * (x - xm) ** 2)
        slope = float(np.sum(wts * (x - xm) * (y - ym)) / sxx)
        slope_se = float(math.sqrt(1.0 / sxx))
    else:
        slope, slope_se = float("nan"), float("inf")
    return LdTailResult(rows=rows, slope=slope, slope_se=slope_se,
                        floor_rate=floor_rate)
