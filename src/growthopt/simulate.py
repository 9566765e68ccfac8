"""Monte Carlo engine for portfolio trajectories under a strategy.

One step of the exact recursion: the strategy inspects the pre-transaction
state (proportions, wealth, factor), optionally rebalances (wealth shrinks
by the surviving fraction from the cost solver; an unaffordable rebalance
annihilates the path), then the market moves: proportions drift with the
realized returns and wealth multiplies by the portfolio gross return.

One step loop, ``_simulate``, steps a batch of paths vectorized across
paths and records the first paths of the batch, row by row into path-major
arrays, as one ``Trajectory`` each.  ``average_growth`` runs it on streams
0..n_paths-1 and records path 0 only.  ``run`` records every path of its
batch: an int stream is a batch of one, a sequence of streams one batch
with a ``Trajectory`` per stream.  Path ``i`` of a batch consumes exactly
the stream ``(seed, i)``, so ``run(..., stream=i)`` reproduces it bit for
bit.  Wealth is tracked in logs so horizons of many thousands of steps
cannot overflow.  A batch walks all its factor/shock paths vectorized
across paths over the per-path Philox streams, one block per
``market.sample_factor_paths`` call, each call continuing from the last
factor states of the block before; the loop steps through a block before
it draws the next, so it holds O(n * block) market states rather than
O(n * T), and stops drawing when it stops early.  A narrow batch, a single
path above all, reads the factor states of a block through one-step maps
composed by doubling rather than one step at a time.  The
large-deviations check ``ld_tail`` consumes the same walk block by block
and keeps only a running sum per path.

A step costs a few numpy calls on arrays of a few rows, so the strategies
keep their per-step work to a handful of calls: ``GridPolicyStrategy``
reads a decision by two ``take``s from flat tables built once, and
``MimickingStrategy`` gates it with two ``where``s.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .average import MimickingPolicy
from .costs import CostSpec, share_cost, solve_e_batch
from .grid import Policy
from .market import (MarketModel, _walk, block_steps, check_simplex,
                     growth_floor, invariant_measure, sample_factor_paths)
from .rng import make_rng

LOG_CAP = 700.0  # exp cap; beyond this fixed costs are a zero fraction anyway
PATH_TOL = 1e-9  # relative rounding allowed by the path checks


def model_fingerprint(model: MarketModel, spec: CostSpec) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.transition).tobytes())
    h.update(np.ascontiguousarray(model.shock_probs).tobytes())
    h.update(np.ascontiguousarray(model.returns).tobytes())
    h.update(np.ascontiguousarray(spec.buy).tobytes())
    h.update(np.ascontiguousarray(spec.sell).tobytes())
    h.update(np.float64(spec.fixed).tobytes())
    h.update(spec.variant.encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

class Strategy:
    """Decision rule consulted before every market step.

    A decision reads the pre-transaction state alone (proportions, wealth
    and factor), as the paper's Markov strategies do.  ``decide_batch``
    returns (mask, targets) for rows of that state: rows with a True mask
    request a rebalance to the corresponding target proportions.
    Strategies with internal per-path state must honor ``reset``.
    """

    def reset(self, n_paths: int = 1) -> None:
        pass

    def decide_batch(self, pi_prev, x_prev, z):
        raise NotImplementedError


class NoTransactionStrategy(Strategy):
    def decide_batch(self, pi_prev, x_prev, z):
        n = pi_prev.shape[0]
        return np.zeros(n, dtype=bool), pi_prev


class FixedTargetStrategy(Strategy):
    """Rebalance to a constant target whenever proportions have drifted."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def decide_batch(self, pi_prev, x_prev, z):
        n = pi_prev.shape[0]
        mask = np.any(pi_prev != self.target[None, :], axis=1)
        return mask, np.broadcast_to(self.target, (n, self.target.size))


class GridPolicyStrategy(Strategy):
    """Follow a solved greedy policy, deciding at the nearest grid state.

    The rebalance/hold decision is discrete, so lookups snap to the nearest
    simplex node (and nearest wealth node for wealth-dependent policies)
    instead of interpolating.  The policy is read into flat tables once, at
    construction: the impulse flags and the target proportions of every
    state in the order of ``grid.shape``, so that a decision is two
    ``take``s at the state's flat index.
    """

    def __init__(self, policy: Policy):
        self.policy = policy
        grid = policy.grid
        self._impulse = policy.impulse.ravel()
        self._targets = grid.nodes[policy.target.ravel()]
        # flat index of a state: node * stride (+ wealth node * n_z) + z
        self._stride = math.prod(grid.shape[1:])

    def decide_batch(self, pi_prev, x_prev, z):
        grid = self.policy.grid
        # fresh sums: on a few rows an in-place add costs more than a new one
        idx = grid.nearest_node(pi_prev) * self._stride + z
        if grid.has_wealth_axis:
            idx = idx + grid.nearest_wealth(x_prev) * grid.n_z
        return self._impulse.take(idx), self._targets.take(idx, axis=0)


class MimickingStrategy(Strategy):
    """Wealth-gated wrapper of a proportional policy (one recovery bit).

    Below the wealth threshold the strategy freezes and arms its recovery
    flag; it re-syncs to the base target once wealth passes the resync
    level, and otherwise follows the base policy.  The resync level is at
    least the threshold (``cost_constants`` sets it to M exp(eta_m)), so a
    path below the threshold never re-syncs, and the gate reads each
    recovering path's wealth against the resync level alone and every
    other path's against the threshold alone.  Rows without a trade keep
    their proportions as targets.
    """

    def __init__(self, mimicking: MimickingPolicy):
        self.mimicking = mimicking
        self.base = GridPolicyStrategy(mimicking.base)
        self._recovering = np.zeros(1, dtype=bool)

    def reset(self, n_paths: int = 1) -> None:
        self._recovering = np.zeros(n_paths, dtype=bool)

    def decide_batch(self, pi_prev, x_prev, z):
        rec = self._recovering
        if rec.shape[0] != pi_prev.shape[0]:
            raise RuntimeError("call reset(n_paths) before a new batch")
        base_mask, base_tgt = self.base.decide_batch(pi_prev, x_prev, z)
        resync = x_prev >= self.mimicking.resync_wealth
        below = x_prev < self.mimicking.wealth_threshold
        # NaN wealth is neither below nor resynced: it follows the base
        # policy when not recovering, as ~below lets it
        mask = np.where(rec, resync, base_mask & ~below)
        self._recovering = np.where(rec, ~resync, below)
        return mask, np.where(mask[:, None], base_tgt, pi_prev)


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------

@dataclass
class Trajectory:
    """Step-by-step record of one simulated path.

    Row t holds the pre-transaction state at time t, the decision taken,
    and the post-transaction state; the final row carries the arrival state
    with no decision.  ``returns`` row t is the gross return vector realized
    on the step into t (ones at t = 0).
    """

    t: np.ndarray
    z: np.ndarray
    xi: np.ndarray
    pi_prev: np.ndarray
    transacted: np.ndarray
    pi: np.ndarray
    e_applied: np.ndarray
    x_prev: np.ndarray
    x: np.ndarray
    returns: np.ndarray
    annihilated: bool
    spec: CostSpec

    @property
    def n_steps(self) -> int:
        return self.t.shape[0] - 1


def _simulate(model: MarketModel, spec: CostSpec, strategy: Strategy, pi0,
              x0: float, z0: int, T: int, seed: int, streams, record: int = 1):
    """The one step loop: paths of the given streams of ``seed``, T steps.

    Returns the final log wealth per path, the log wealth at step
    T - T // 2, the surviving paths and a ``Trajectory`` for each of the
    first ``record`` streams, which for an annihilated path ends at the row
    of its trade.  An annihilated path keeps stepping like a live one,
    masked only from trading, so that no strategy reads a zero wealth; its
    log wealth is set to -inf when the batch ends.  The market comes from
    ``_market_steps`` one walk block at a time; the loop, and with it the
    drawing, stops early once every path has annihilated.
    """
    pi0 = check_simplex(pi0, model.n_assets)
    if not 0 < x0 < math.inf:
        raise ValueError(f"initial wealth must be positive and finite, "
                         f"got {x0}")
    if not 0 <= z0 < model.n_factors:
        raise ValueError(f"initial factor state {z0} outside "
                         f"[0, {model.n_factors})")
    if T < 1 or len(streams) < 1:
        raise ValueError("need T >= 1 and at least one stream")
    n, d, r = len(streams), model.n_assets, record
    # the market rows of the first r paths, path-major, as the walk draws
    # them: factor and shock states, and the returns of the step into t
    rec_z = np.empty((r, T + 1), dtype=np.int64)
    rec_z[:, 0] = z0
    rec_xi = np.empty_like(rec_z)
    rec_xi[:, 0] = -1
    returns = np.ones((r, T + 1, d))
    market = _market_steps(model, z0, T, [make_rng(seed, s) for s in streams],
                           rec_z, rec_xi, returns)

    strategy.reset(n)
    pi_prev = np.broadcast_to(pi0, (n, d)).copy()
    ones = np.ones(d)  # row sums of the proportions, for the drift check
    lx = np.full(n, math.log(x0))
    alive = np.ones(n, dtype=bool)
    all_alive = True
    # a market step scales every proportion by a positive return, so rows
    # without a negative proportion sum to 1 up to d ulps and cannot drift
    signed = bool((pi0 < 0).any())
    t_half = T - T // 2
    lx_half = np.empty(n)
    # the recording of the first r paths, path-major: row t of a path holds
    # its state before the decision at t and, where it trades, after it
    rec_pi_prev, rec_pi = np.empty((r, T + 1, d)), np.empty((r, T + 1, d))
    rec_lx_prev, rec_lx = np.zeros((r, T + 1)), np.zeros((r, T + 1))
    rec_e, rec_traded = np.ones((r, T + 1)), np.zeros((r, T + 1), dtype=bool)
    for t, (z_t, step) in enumerate(market):
        if t == t_half:
            lx_half[:] = lx
        x_prev = np.exp(np.minimum(lx, LOG_CAP))
        rec_pi_prev[:, t] = pi_prev[:r]
        rec_lx_prev[:, t] = lx[:r]
        mask, tgt = strategy.decide_batch(pi_prev, x_prev, z_t)
        go = mask if all_alive else mask & alive
        # np.count_nonzero and .nonzero() skip the Python layer of .any()
        if np.count_nonzero(go):
            idx = (go & (tgt != pi_prev).any(axis=1)).nonzero()[0]
            if idx.size:
                new = tgt[idx]
                e = solve_e_batch(spec, pi_prev[idx], new, x_prev[idx])
                traded, e_all = idx, e
                if np.count_nonzero(e > 0.0) < idx.size:
                    alive[idx[e == 0.0]] = False
                    all_alive = False
                    idx, new, e = idx[e > 0.0], new[e > 0.0], e[e > 0.0]
                lx[idx] += np.log(e)
                pi_prev[idx] = new
                signed = signed or np.count_nonzero(new < 0.0) > 0
                if traded[0] < r:  # a recorded path traded
                    rec = traded[:traded.searchsorted(r)]
                    rec_e[rec, t] = e_all[:rec.size]
                    rec_traded[rec, t] = True
                    rec_pi[rec, t] = pi_prev[rec]
                    rec_lx[rec, t] = lx[rec]
        if not all_alive and not np.count_nonzero(alive):
            break
        growth = np.einsum("nd,nd->n", pi_prev, step)
        pi_next = pi_prev * step / growth[:, None]
        if signed:
            drift = np.abs(pi_next @ ones - 1.0).max(where=alive, initial=0.0)
            if drift > 1e-9:
                raise RuntimeError(f"proportion drift {drift:.3e} exceeds 1e-9")
        lx += np.log(growth)
        pi_prev = pi_next
    lx[~alive] = -np.inf
    rec_pi_prev[:, T] = pi_prev[:r]
    rec_lx_prev[:, T] = lx[:r]
    rec_pi = np.where(rec_traded[:, :, None], rec_pi, rec_pi_prev)
    rec_lx[rec_e == 0.0] = -np.inf  # the trade that annihilated leaves x = 0

    x_prev = np.exp(np.minimum(rec_lx_prev, LOG_CAP))
    x = np.where(rec_traded, np.exp(np.minimum(rec_lx, LOG_CAP)), x_prev)
    # an annihilated path ends at the row of its trade with e == 0
    rows = np.where(alive[:r], T + 1, rec_e.argmin(axis=1) + 1)
    trajs = [Trajectory(
        t=np.arange(m), z=rec_z[k, :m], xi=rec_xi[k, :m],
        pi_prev=rec_pi_prev[k, :m], transacted=rec_traded[k, :m],
        pi=rec_pi[k, :m], e_applied=rec_e[k, :m], x_prev=x_prev[k, :m],
        x=x[k, :m], returns=returns[k, :m], annihilated=not alive[k],
        spec=spec) for k, m in enumerate(rows.tolist())]
    return lx, lx_half, alive, trajs


def _market_steps(model: MarketModel, z0: int, T: int, rngs, rec_z, rec_xi,
                  rec_returns):
    """The market of ``_simulate``: for t = 0..T-1, the factor states of
    all paths at t and their gross returns (n, d) on the step into t + 1.

    The walk is drawn one block per ``sample_factor_paths`` call, of
    ``block_steps`` steps, from the last factor states of the block before
    on the same per-path generators, so that path i is the walk of
    ``rngs[i]`` draw for draw.  A block's returns are gathered when it is
    drawn, and its rows 1.. of the first ``len(rec_z)`` paths are copied
    into ``rec_z``, ``rec_xi`` and ``rec_returns``.  The states held are
    O(n * block), and a consumer that stops iterating stops the drawing.
    """
    n, r = len(rngs), rec_z.shape[0]
    z_last = np.full(n, z0)
    t0 = 0
    while t0 < T:
        k = block_steps(n, T - t0)
        z, xi = sample_factor_paths(model, z_last, k, rngs)
        zeta = model.returns[z.T[1:], xi.T[1:]]  # (k, n, d)
        rows = slice(t0 + 1, t0 + k + 1)
        rec_z[:, rows] = z[:r, 1:]
        rec_xi[:, rows] = xi[:r, 1:]
        rec_returns[:, rows] = zeta[:, :r].swapaxes(0, 1)
        for j in range(k):
            yield z[:, j], zeta[j]
        z_last = z[:, k]
        t0 += k


def run(model: MarketModel, spec: CostSpec, strategy: Strategy, pi0, x0: float,
        z0: int, T: int, seed: int, stream=0):
    """Simulate stream ``stream`` of ``seed`` for T steps; a path ends early
    on annihilation.  An int ``stream`` gives its ``Trajectory``; a sequence
    of streams runs as one batch and gives a list of one ``Trajectory`` per
    stream, entry k equal to ``run(..., stream=stream[k])`` bit for bit."""
    streams = [stream] if np.ndim(stream) == 0 else list(stream)
    trajs = _simulate(model, spec, strategy, pi0, x0, z0, T, seed, streams,
                      len(streams))[3]
    return trajs[0] if np.ndim(stream) == 0 else trajs


@dataclass
class GrowthEstimate:
    """Monte Carlo estimate of the average log growth rate."""

    mean: float
    std_error: float
    n_paths: int
    T: int
    annihilated_paths: int
    window_mean: float          # growth over the second half of the horizon
    per_path: np.ndarray = field(repr=False)
    trajectory: Trajectory = field(repr=False)  # path 0, as ``run`` records it

    @property
    def flagged(self) -> bool:
        return self.annihilated_paths > 0


def average_growth(model: MarketModel, spec: CostSpec, strategy: Strategy,
                   pi0, x0: float, z0: int, T: int, n_paths: int,
                   seed: int) -> GrowthEstimate:
    """Estimate (1/T) E ln X_(T) over ``n_paths`` independent paths.

    Path ``i`` is stream ``i`` of ``seed``.  Annihilated paths contribute
    -inf and flag the estimate; the second half window mean is reported as
    a stationarity diagnostic for the fixed-horizon average, so T >= 2.
    """
    if T < 2:
        raise ValueError(f"average_growth needs T >= 2 for its second-half "
                         f"window, got T={T}")
    lx, lx_half, alive, (traj,) = _simulate(model, spec, strategy, pi0, x0,
                                            z0, T, seed, range(n_paths))
    per_path = lx / T  # (1/T) ln X_(T)
    n_dead = int((~alive).sum())
    if n_dead == 0:
        mean = float(per_path.mean())
        se = float(per_path.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        window = float(((lx - lx_half) / (T // 2)).mean())
    else:
        mean, se, window = float("-inf"), float("nan"), float("nan")
    return GrowthEstimate(mean=mean, std_error=se, n_paths=n_paths, T=T,
                          annihilated_paths=n_dead, window_mean=window,
                          per_path=per_path, trajectory=traj)


# ----------------------------------------------------------------------
# verification of simulated paths
# ----------------------------------------------------------------------

@dataclass
class FloorCheckReport:
    """Pathwise wealth floor: wealth never falls below the drag-discounted
    product of worst-asset returns."""

    violations: int
    min_margin: float       # min over t of ln X_(t) minus the floor
    rate: float             # drag rate used (eta or eta_m)

    @property
    def ok(self) -> bool:
        return self.violations == 0


def wealth_floor_check(traj: Trajectory, constants) -> FloorCheckReport:
    """Check X_(t) >= X_(0) exp(-rate*t) * prod of worst-asset returns.

    The rate is the proportional drag for zero-fixed-cost runs and the
    threshold-inflated drag for fixed-cost runs (where the strategy is
    expected to trade only above the wealth threshold); a log-wealth margin
    below -PATH_TOL counts as a violation.
    """
    rate = constants.eta_m if traj.spec.fixed > 0 else constants.eta
    floor_lr = np.log(traj.returns.min(axis=1))
    floor_lr[0] = 0.0
    lhs = np.log(np.where(traj.x_prev > 0, traj.x_prev, np.nan))
    bound = math.log(traj.x_prev[0]) - rate * traj.t + np.cumsum(floor_lr)
    margin = lhs - bound
    violations = int(np.sum(margin < -PATH_TOL))
    if traj.annihilated:
        violations += 1
    return FloorCheckReport(violations=violations,
                            min_margin=float(np.nanmin(margin)), rate=rate)


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
    depends on ``n_paths`` only, not on the horizons.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    T_grid = sorted(int(t) for t in T_grid)
    if not T_grid:
        raise ValueError("T_grid must hold at least one horizon")
    if T_grid[0] < 1:
        raise ValueError(f"horizons must be >= 1, got {T_grid[0]}")
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


@dataclass
class ShareRecord:
    """Share-space reconstruction of a proportion-space trajectory."""

    prices: np.ndarray
    holdings: np.ndarray
    max_residual: float


def to_share_holdings(traj: Trajectory, s0) -> ShareRecord:
    """Rebuild prices and share counts and verify self-financing.

    Between transactions holdings must stay constant; at a transaction the
    post-trade portfolio value must equal the pre-trade value minus the
    share-space transaction charge.  A residual above PATH_TOL times
    wealth raises, since it indicates an engine inconsistency.  All steps
    are checked at once; the error names the first failing step, and within
    a step the wealth reconstruction is checked first.  NaN residuals (from
    an overflowed price) never raise.
    """
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (traj.pi.shape[1],) or s0.min() <= 0:
        raise ValueError("initial prices must be a positive vector per asset")
    prices = s0 * np.cumprod(traj.returns, axis=0)
    with np.errstate(invalid="ignore"):
        holdings = traj.pi * traj.x[:, None] / prices
        holdings[traj.x == 0.0] = 0.0
        # step t compares row t with row t - 1, at the prices of step t
        before, after, p = holdings[:-1], holdings[1:], prices[1:]
        x_prev, traded = traj.x_prev[1:], traj.transacted[1:]
        prev_value = np.einsum("td,td->t", before, p)
        scale = np.maximum(x_prev, 1.0)
        recon = np.abs(prev_value - x_prev) > PATH_TOL * scale
        trade = traded & (traj.x[1:] > 0.0)
        resid = np.zeros(x_prev.shape[0])
        resid[trade] = np.abs(
            np.einsum("td,td->t", after[trade], p[trade])
            - (prev_value[trade]
               - share_cost(traj.spec, before[trade], after[trade], p[trade])))
        financing = resid > PATH_TOL * scale
        moved = np.abs(after - before).max(axis=1)
        held = np.fmax(np.abs(before).max(axis=1), 1.0)
        drift = ~traded & (moved > PATH_TOL * held)
    failed = recon | financing | drift
    if failed.any():
        i = int(failed.argmax())
        t = i + 1
        if recon[i]:
            raise RuntimeError("pre-transaction wealth reconstruction failed "
                               f"at step {t}")
        if financing[i]:
            raise RuntimeError(f"self-financing violated at step {t}: "
                               f"residual {resid[i]:.3e}")
        raise RuntimeError(f"holdings drifted without a transaction "
                           f"at step {t}")
    # fmax skips NaN ratios, as the loop's max() did
    max_resid = float(np.fmax.reduce(resid / scale, initial=0.0))
    return ShareRecord(prices=prices, holdings=holdings, max_residual=max_resid)
