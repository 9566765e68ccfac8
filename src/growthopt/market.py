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
stationary distribution (by GTH elimination), Dobrushin mixing coefficient,
the stationary growth floor of the worst asset (by elementwise products
and sums), and the conditional expected log return of a fixed proportion
vector, whose proportions ``check_simplex`` refuses unless finite and on
the simplex.  Neither the stationary law nor the floor calls a BLAS
kernel, so both have the same bits on every machine.

All randomness flows through ``make_rng``, which keys a Philox generator
by an integer ``(seed, stream)`` pair, so every experiment is
bit-reproducible from a recorded seed and distinct pairs give streams
that do not overlap; ``simulate`` binds it under the name the engine
calls.  Paths are sampled by one walk, ``_walk``, vectorized across paths
and fed from bounded blocks of raw 64-bit words (``block_steps`` steps
each) of the bit generators of ``WORD_GENERATORS``, Philox among them,
which it compares with exact integer thresholds; it yields the states
block by block, and the factor states of a walk of one path are stepped
in Python ints.  ``sample_factor_paths`` stores a walk as (n, T+1)
arrays.  The simulation engine and ``verify.check_ergodic_average`` ask
it for one block per call and continue from the block's last factor state
on the same generators, so their memory is O(n * block) rather than
O(n * T), while ``ld_tail``, the one reader of ``_walk`` itself, folds
each block into running sums as it arrives.

``ld_tail``, the large-deviations check of the growth floor, ends the
module: it reads the walk alone, with no strategy and no costs, and it is
the one consumer that overwrites a block's shock states, so it sits with
the walk whose block contract it relies on.  ``simulate`` binds it under
the name the CLI calls.
"""

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-9
MIXING_HORIZON = 64  # longest n searched for a Dobrushin coefficient < 1
DRAW_BUDGET = 1 << 16  # words held at once by the path sampler (~0.5 MB)
# the numpy.random bit generators whose random() is (r >> 11) * 2**-53 of
# one 64-bit word r; by name, because numpy loads numpy.random when its
# attribute is first read, which at import took its peak RSS up 5.9 MB
WORD_GENERATORS = ("Philox", "PCG64", "PCG64DXSM", "SFC64")


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

    Solved by the GTH algorithm (Grassmann, Taksar & Heyman 1985): states
    n-1, n-2, ..., 0 are censored out of the chain in turn, each pivot the
    probability of leaving the state, summed rather than taken as one minus
    the rest, and the law is built back up from state 0.  It subtracts
    nothing and calls no BLAS kernel, so its bits do not depend on the
    machine.  A state with a zero pivot is closed in the censored chain:
    it is a root of weight one, and the states below it that reach it,
    transient, are left with no mass, so a chain of several closed classes
    gets a mixture of their laws.  Raises RuntimeError when the law misses
    the residual.
    """
    p = np.array(model.transition)
    n = model.n_factors
    leak = np.zeros(n)  # probability of reaching a root above the state
    roots = np.zeros(n, dtype=bool)
    for k in range(n - 1, -1, -1):
        pivot = p[k, :k].sum() + leak[k]
        if pivot > 0.0:
            p[:k, k] /= pivot
            p[:k, :k] += np.multiply.outer(p[:k, k], p[k, :k])
            leak[:k] += p[:k, k] * leak[k]
        else:
            roots[k] = True
            leak[:k] += p[:k, k]
    theta = roots.astype(float)
    for j in np.flatnonzero(~roots):
        theta[j] = (theta[:j] * p[:j, j]).sum()
    theta /= theta.sum()
    residual = np.abs(theta @ model.transition - theta).max()
    if not residual <= 1e-12:
        raise RuntimeError(f"no stationary distribution: residual "
                           f"{residual:.3e} above 1e-12")
    return theta


def growth_floor(model: MarketModel):
    """Stationary mean log of the per-step worst asset return.

    Returns (floor_rate, floor_returns) where floor_returns[z, xi] is the
    minimum over assets of the gross return and floor_rate its expectation
    under stationary factor x shock law.
    """
    floor_returns = model.returns.min(axis=2)
    theta = invariant_measure(model)
    # elementwise products and pairwise sums, not BLAS products, so the
    # rate has the same bits on every BLAS kernel
    floor_rate = float((theta * (np.log(floor_returns)
                                 * model.shock_probs).sum(axis=1)).sum())
    return floor_rate, floor_returns


def check_simplex(pi, n_assets: int) -> np.ndarray:
    """``pi`` as an array; a ValueError unless it is a vector of
    ``n_assets`` finite proportions on the unit simplex, within
    SIMPLEX_TOL."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (n_assets,):
        raise ValueError(f"proportion vector must have length {n_assets}")
    # NaN fails both comparisons, and an infinity one of them
    if not (pi.min() >= -SIMPLEX_TOL and abs(pi.sum() - 1.0) <= SIMPLEX_TOL):
        raise ValueError("proportion vector not finite or outside the unit "
                         f"simplex: {pi}")
    return pi


def check_integer(name: str, val) -> int:
    """``val`` as an int if it is a Python or numpy integer and not a bool,
    as ``grid.check_settings`` takes its integer keys; anything else, a
    float above all, which would truncate, raises a ValueError naming
    ``name``."""
    if isinstance(val, bool) or not isinstance(val, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {val!r}")
    return int(val)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Philox generator keyed by (seed, stream).

    Both must be integers in [0, 2**64), Python or numpy; a float is
    refused rather than truncated, so stream 1.7 never runs as stream 1,
    and so is a bool, so seed True never runs as seed 1.
    """
    key = []
    for name, val in (("seed", seed), ("stream", stream)):
        try:
            # operator.index reads True as 1, numpy's True_ not at all
            key.append(-1 if isinstance(val, bool) else operator.index(val))
        except TypeError:
            key.append(-1)  # not an integer: refused below
        if not 0 <= key[-1] < 2**64:
            raise ValueError(f"{name} must be an integer in [0, 2**64), "
                             f"got {val!r}")
    key = np.array(key, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    as many as ``DRAW_BUDGET`` words hold, at least one and at most T."""
    return max(1, min(T, DRAW_BUDGET // max(1, 2 * n)))


def sample_factor_paths(model: MarketModel, z0, T: int, rng):
    """Simulate ``len(z0)`` factor/shock paths of length T, vectorized.

    ``rng`` is either one Generator shared by all paths or a sequence of
    Generators, one per path, each on a bit generator of
    ``WORD_GENERATORS``; ``_walk`` describes the order in which their
    64-bit words are drawn, how a state is decided on a word, and how a
    walk of one path steps its factor in Python ints.  The states are those
    of a step-by-step draw of ``random()`` doubles, and path ``i`` of a
    per-path batch equals a one-path call on ``rng[i]``, draw for draw.

    A walk may be drawn in pieces: a call from the last factor states of
    the one before, on the same generators, continues it draw for draw.
    The simulation engine calls it once per block, with T =
    ``block_steps(n, steps left)``, so it holds O(n * block) states at a
    time rather than O(n * T).

    ``z0`` must be a vector of integer factor states and T an integer
    >= 0; anything else raises a ValueError naming it.  Returns integer
    arrays z, xi of shape (n, T+1); column 0 holds the initial factor
    states and xi[:, 0] = -1 (no shock arrives at time 0).  They are views
    of time-major storage, filled block by block from the walk, so a column
    ``z[:, t]`` is contiguous.
    """
    T = check_integer("T", T)
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    z0 = np.asarray(z0)
    if z0.ndim != 1 or z0.dtype.kind not in "iu":
        raise ValueError(f"z0 must be a vector of integer factor states, "
                         f"got {z0.dtype} of shape {z0.shape}")
    if np.count_nonzero((z0 < 0) | (z0 >= model.n_factors)):
        raise ValueError(f"z0 holds states outside [0, {model.n_factors}): "
                         f"{z0.min()}..{z0.max()}")
    z0 = z0.astype(np.int64, copy=False)
    z = np.empty((T + 1, z0.shape[0]), dtype=np.int64)
    xi = np.empty_like(z)
    z[0] = z0
    xi[0] = -1
    for t0, z_blk, xi_blk in _walk(model, z0, T, rng):
        z[t0:t0 + len(z_blk)] = z_blk
        xi[t0:t0 + len(xi_blk)] = xi_blk
    return z.T, xi.T


def _thresholds(cum):
    """Word thresholds of the cumulative probabilities ``cum``: a word r
    shifted right by 11 is at or above K = ceil(min(max(c, 0), 1) * 2**53)
    exactly when random()'s double of it, (r >> 11) * 2**-53, is at or
    above c.  The scaling and the ceiling are exact."""
    return np.ceil(np.clip(cum, 0.0, 1.0) * 2.0**53).astype(np.int64)


def _count(w, K, out):
    """``out`` = the count of the thresholds ``K``, numbers or rows of one
    per word, at or below the words ``w``; the first is written straight
    into ``out``, with no fill pass."""
    if not len(K):
        out.fill(0)
        return out
    if len(K) > 1 and np.may_share_memory(w, out):
        w = w.copy()
    np.greater_equal(w, K[0], out=out)
    for c in K[1:]:
        np.add(out, w >= c, out=out)
    return out


def _walk(model: MarketModel, z0, T: int, rng):
    """The one factor/shock walk: yield steps 1..T of all paths in blocks.

    Each item is ``(t0, z, xi)``: time-major (k, n) integer arrays with the
    factor and shock states of steps t0..t0+k-1.  ``sample_factor_paths``
    stores the blocks; ``ld_tail`` folds each block into running sums and
    drops it, so its memory does not grow with T.  The walk reads the last
    row of ``z`` again for the next block, but never ``xi``, which its
    consumer may overwrite.  Every block is written over the previous one,
    into buffers allocated once per walk, so a consumer must be done with a
    block before it asks for the next.

    Every step consumes a factor word and then a shock word, raw 64-bit
    output of a bit generator of ``WORD_GENERATORS``, whose ``random()`` is
    (r >> 11) * 2**-53 of word r; each word is shifted right by 11 and
    compared with the thresholds of ``_thresholds``, so every state is the
    one a draw of doubles gives.  A shared Generator draws a block as one
    (k, 2, n) array (factors of step t for all paths, their shocks, then
    step t+1), or, where blocks are one step long, the n factor words, the
    factor step, then the n shock words; a per-path Generator draws (k, 2)
    for its own path, into the state buffers that its counts overwrite.
    The block length comes from ``block_steps``, so the words held stay
    near 0.5 MB for any batch, and a walk of one path holds its block's
    factor words once more as Python ints, about 1.3 MB; above half the
    budget in paths a block is one step.

    A state is the count of thresholds, all but the last atom's, at or
    below its word, one comparison per atom: for the shock, for a whole
    block at once; for the factor, against the row of the previous state,
    step by step.  On the non-decreasing thresholds of a model with
    non-negative probabilities, the last atom could only raise a count
    from n - 1 to n, so the count is the ``searchsorted(..., side="right")``
    index of the double in the full cumulative row, clamped to n - 1: the
    draw of one step taken alone.  A walk of one path, where a numpy call
    costs more than the step it makes, reads a block's factor words as
    Python ints and takes each count by ``bisect_right`` in the previous
    state's thresholds; a wider walk counts a step of all its paths at
    once.
    """
    n = z0.shape[0]
    k_max = block_steps(n, T)
    shared = isinstance(rng, np.random.Generator)
    bgs = [rng.bit_generator] if shared else [r.bit_generator for r in rng]
    if not shared and len(bgs) != n:
        raise ValueError(f"need one generator per path: {len(bgs)} for {n}")
    known = tuple(getattr(np.random, name) for name in WORD_GENERATORS)
    for bg in bgs:
        if not isinstance(bg, known):
            raise ValueError(f"{type(bg).__name__} does not make its doubles "
                             "from the top 53 bits of one 64-bit word")
    # a walk of many paths has one-step blocks: fresh arrays of its width
    # every step made a step's cost hang on whether the allocator kept or
    # returned their memory, which page faults then paid for; the words of
    # a shared generator are the one such array left
    z_buf = np.empty((k_max, n), dtype=np.int64)
    xi_buf = np.empty((k_max, n), dtype=np.int64)
    k_buf = np.empty((model.n_factors - 1, n), dtype=np.int64)

    def words(*shape):
        # shifted words are below 2**53, so they compare as int64 numbers
        w = bgs[0].random_raw(shape)
        return np.right_shift(w, 11, out=w).view(np.int64)
    # transposed cumulative rows: a step gathers one column per path and
    # counts down the short factor axis, the same counts as along rows
    K_pT = _thresholds(np.cumsum(model.transition, axis=1)[:, :-1].T)
    K_nu = _thresholds(np.cumsum(model.shock_probs)[:-1])
    # each state's thresholds, for the steps of one path
    rows = K_pT.T.tolist()

    def step(w_z, prev, out):
        # the thresholds of each path's row, in range by construction:
        # mode "clip" writes straight into k_buf, where "raise" copies
        return _count(w_z, np.take(K_pT, prev, axis=1, out=k_buf,
                                   mode="clip"), out)

    prev = z0
    for t0 in range(1, T + 1, k_max):
        k = min(k_max, T + 1 - t0)
        z, xi = z_buf[:k], xi_buf[:k]
        if shared and k_max == 1:
            # each half's words are dropped before the next half is drawn
            prev = step(words(n), prev, z[0])
            _count(words(n), K_nu, xi[0])
            yield t0, z, xi
            continue
        if shared:
            w_z, w_xi = words(k, 2, n).transpose(1, 0, 2)
        else:
            # no draw buffer: the last states are copied out of the way
            prev = prev.copy()
            for c, bg in enumerate(bgs):
                z[:, c], xi[:, c] = bg.random_raw((k, 2)).T.view(np.int64)
            for w in (z, xi):
                np.right_shift(w.view(np.uint64), 11, out=w.view(np.uint64))
            w_z, w_xi = z, xi
        # shocks are i.i.d., so a whole block is counted at once
        _count(w_xi, K_nu, xi)
        if n == 1:
            # a numpy call costs more than a step of one path: its words
            # become Python ints, each overwritten by the state it decides
            w_z = w_z[:, 0].tolist()
            s = int(prev[0])
            for j, w in enumerate(w_z):
                s = w_z[j] = bisect_right(rows[s], w)
            z[:, 0] = w_z
            prev = z[-1]
        else:
            for j in range(k):
                prev = step(w_z[j], prev, z[j])
        del w_z, w_xi
        yield t0, z, xi


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
