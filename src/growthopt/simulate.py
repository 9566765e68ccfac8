"""Monte Carlo engine for portfolio trajectories under a strategy.

One step of the exact recursion: the strategy inspects the pre-transaction
state (proportions, wealth, factor), optionally rebalances (wealth shrinks
by the surviving fraction from the cost solver; an unaffordable rebalance
annihilates the path), then the market moves: proportions drift with the
realized returns and wealth multiplies by the portfolio gross return.

One engine, ``_simulate``, steps a batch of paths and records the first
paths of the batch, row by row into path-major arrays, as one
``Trajectory`` each.  ``average_growth`` runs it on streams 0..n_paths-1
and records path 0 only.  ``run`` records every path of its
batch: an int stream is a batch of one, a sequence of streams one batch
with a ``Trajectory`` per stream.  Path ``i`` of a batch consumes exactly
the stream ``(seed, i)``, so ``run(..., stream=i)`` reproduces it bit for
bit.  Wealth is tracked in logs so horizons of many thousands of steps
cannot overflow.  A batch walks all its factor/shock paths vectorized
across paths over the per-path Philox streams, one block per
``market.sample_factor_paths`` call, each call continuing from the last
factor states of the block before; the loop steps through a block before
it draws the next, so it holds O(n * block) market states rather than
O(n * T), and stops drawing when it stops early.  The walk of a batch of
one path steps its factor states in Python ints, as ``_step_row`` steps
that path's portfolio in Python numbers.  The
large-deviations check ``ld_tail`` reads the market walk alone, with no
strategy and no costs, so it lives in ``market``; it is bound here under
the name ``simulate.ld_tail`` that the CLI calls, as are the path checks
of ``pathcheck``.

A step of a wide batch costs a few numpy calls on arrays of a few rows,
so the strategies keep their per-step work to a handful of calls:
``GridPolicyStrategy`` reads a decision by two ``take``s from flat tables
built once, at the flat indices of ``StateGrid.state_indices``, the grid's
own layout, and ``MimickingStrategy`` gates it with two ``where``s.  On a
batch of one row, as ``run`` steps a single stream, a numpy call on one
element costs more than the arithmetic it does, so the engine and the
strategies step that row in Python numbers.  The engine's ``_step_row``
keeps the proportions as a list of floats and the log wealth as a float;
it keeps numpy where Python would round differently: the growth is the
batch's ``einsum`` on the (1, d) row (a Python left-to-right sum differs
from it on about a third of random rows at three assets or more), and
``exp`` and ``log`` are numpy's on scalars (``math.exp`` differs from
``np.exp`` in the last bit on about 5 % of arguments, ``math.log`` from
``np.log`` on about 0.5 %).  The grid policy reads its tables at
``StateGrid.state_index``, and the mimicking gate compares Python floats
and bools.  The batch width picks the path, in the engine as in the
strategies, and both paths give the same bits, NaN wealth included.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .average import MimickingPolicy
from .costs import CostSpec, solve_e_batch
from .grid import Policy
from .market import (MarketModel, block_steps, check_integer, check_simplex,
                     ld_tail, make_rng, sample_factor_paths)
from .pathcheck import (PATH_TOL, FloorCheckReport, ShareRecord,
                        to_share_holdings, wealth_floor_check)

LOG_CAP = 700.0  # exp cap; beyond this fixed costs are a zero fraction anyway

# np.einsum without its array-function dispatch, as ``dp`` binds it: on a
# batch of one the dispatch costs a third of the call; same code, same bits
_einsum = getattr(np.einsum, "__wrapped__", np.einsum)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

class Strategy:
    """Decision rule consulted before every market step.

    A decision reads the pre-transaction state alone (proportions, wealth
    and factor), as the paper's Markov strategies do.  ``decide_batch``
    returns (mask, targets) for rows of that state: rows with a True mask
    request a rebalance to the corresponding target proportions.  Either
    may be a read-only view, so a caller copies before writing.
    Strategies with internal per-path state must honor ``reset``.
    """

    def reset(self, n_paths: int = 1) -> None:
        pass

    def decide_batch(self, pi_prev, x_prev, z):
        raise NotImplementedError


class NoTransactionStrategy(Strategy):
    def decide_batch(self, pi_prev, x_prev, z):
        return np.zeros(len(pi_prev), dtype=bool), pi_prev


class FixedTargetStrategy(Strategy):
    """Rebalance to a constant target whenever proportions have drifted."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def decide_batch(self, pi_prev, x_prev, z):
        mask = np.any(pi_prev != self.target, axis=1)
        return mask, np.broadcast_to(self.target, pi_prev.shape)


class GridPolicyStrategy(Strategy):
    """Follow a solved greedy policy, deciding at the nearest grid state.

    The rebalance/hold decision is discrete, so lookups snap to the nearest
    simplex node (and nearest wealth node for wealth-dependent policies)
    instead of interpolating.  The policy is read into flat tables once, at
    construction: the impulse flags and the target proportions of every
    state in the order of ``grid.shape``, so that a decision is two
    ``take``s at the state's flat index.  A batch of one row reads the
    tables at ``grid.state_index`` instead, through read-only views; a
    wider batch at ``grid.state_indices``.
    """

    def __init__(self, policy: Policy):
        self.policy = policy
        self._impulse = policy.impulse.ravel()
        self._targets = policy.grid.nodes[policy.target.ravel()]
        self._impulse.flags.writeable = self._targets.flags.writeable = False

    def decide_batch(self, pi_prev, x_prev, z):
        grid = self.policy.grid
        if len(pi_prev) == 1:
            i = grid.state_index(pi_prev[0].tolist(), x_prev[0], z[0])
            return self._impulse[i, None], self._targets[i, None]
        idx = grid.state_indices(pi_prev, x_prev, z)
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
        rec, m = self._recovering, self.mimicking
        if len(rec) != len(pi_prev):
            raise RuntimeError("call reset(n_paths) before a new batch")
        base_mask, base_tgt = self.base.decide_batch(pi_prev, x_prev, z)
        if len(rec) == 1:  # the gate below, in Python bools
            x, was = float(x_prev[0]), rec[0]
            resync, below = x >= m.resync_wealth, x < m.wealth_threshold
            go = resync if was else base_mask[0] and not below
            rec[0] = not resync if was else below
            return np.array([go]), base_tgt if go else pi_prev
        resync = x_prev >= m.resync_wealth
        below = x_prev < m.wealth_threshold
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
    """The one engine: paths of the given streams of ``seed``, T steps.

    Returns the final log wealth per path, the log wealth at step
    T - T // 2, the surviving paths and a ``Trajectory`` for each of the
    first ``record`` streams, which for an annihilated path ends at the row
    of its trade.  An annihilated path's log wealth, at both steps, is -inf.
    The market comes from ``_market_steps`` one walk block at a time, and
    the batch width picks the step loop: ``_step_row`` for a batch of one,
    ``_step_batch`` for any other.  Both record the first ``record`` paths
    into the same arrays, which this function turns into trajectories, and
    both give the same bits for a path.
    """
    pi0 = check_simplex(pi0, model.n_assets)
    if not 0 < x0 < math.inf:
        raise ValueError(f"initial wealth must be positive and finite, "
                         f"got {x0}")
    z0, T = check_integer("z0", z0), check_integer("T", T)
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
    # the recording of the first r paths, path-major: row t of a path holds
    # its state before the decision at t and, where it trades, after it
    rec_pi_prev, rec_pi = np.empty((r, T + 1, d)), np.empty((r, T + 1, d))
    rec_lx_prev, rec_lx = np.zeros((r, T + 1)), np.zeros((r, T + 1))
    rec_e, rec_traded = np.ones((r, T + 1)), np.zeros((r, T + 1), dtype=bool)
    recs = rec_pi_prev, rec_pi, rec_lx_prev, rec_lx, rec_e, rec_traded

    strategy.reset(n)
    t_half = T - T // 2
    if n == 1:
        out = _step_row(market, strategy, spec, pi0, x0, t_half, recs)
    else:
        out = _step_batch(market, strategy, spec, pi0, x0, n, t_half, recs)
    lx, lx_half, alive, pi_prev = out
    lx[~alive] = lx_half[~alive] = -np.inf
    rec_pi_prev[:, T] = pi_prev
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


def _step_batch(market, strategy, spec, pi0, x0, n, t_half, recs):
    """Step n paths vectorized across paths, recording the first
    ``len(recs[0])`` of them into the record arrays ``recs``.  Returns the
    final log wealth, the log wealth at ``t_half``, the surviving paths and
    the final proportions of the recorded paths.  An annihilated path keeps
    stepping like a live one, masked only from trading, so that no strategy
    reads a zero wealth; the loop, and with it the drawing, stops early
    once every path has annihilated."""
    rec_pi_prev, rec_pi, rec_lx_prev, rec_lx, rec_e, rec_traded = recs
    r, d = rec_pi.shape[0], len(pi0)
    pi_prev = np.broadcast_to(pi0, (n, d)).copy()
    ones = np.ones(d)  # row sums of the proportions, for the drift check
    lx = np.full(n, math.log(x0))
    alive = np.ones(n, dtype=bool)
    all_alive = True
    # a market step scales every proportion by a positive return, so rows
    # without a negative proportion sum to 1 up to d ulps and cannot drift
    signed = bool((pi0 < 0).any())
    lx_half = np.empty(n)
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
        growth = _einsum("nd,nd->n", pi_prev, step)
        pi_next = pi_prev * step / growth[:, None]
        if signed:
            _check_drift(pi_next, ones, alive)
        lx += np.log(growth)
        pi_prev = pi_next
    return lx, lx_half, alive, pi_prev[:r]


def _step_row(market, strategy, spec, pi0, x0, t_half, recs):
    """``_step_batch`` for a batch of one path, in Python numbers.

    The proportions are a list of floats and the log wealth a float.  The
    states before each decision are kept in flat arrays of doubles, 8
    bytes a number as in ``recs``, and written into ``recs`` once, at the
    end (as lists of floats they took several times the memory of the
    record); a trade is written into ``recs`` as it happens.

    Numpy stays wherever Python would round differently, so that the path
    keeps the bits of its row in a wide batch: growth is the same einsum on
    the (1, d) row, ``exp`` and ``log`` are numpy's, and the drift check is
    the batch's.  ``p * s / g`` is IEEE arithmetic in both.  The loop stops
    at the trade that annihilates the path."""
    rec_pi_prev, rec_pi, rec_lx_prev, rec_lx, rec_e, rec_traded = recs
    pi, lx, lx_half, alive = pi0.tolist(), math.log(x0), math.nan, True
    signed, ones = any(p < 0.0 for p in pi), np.ones(len(pi))
    pis, lxs = array("d"), array("d")
    for t, (z_t, step) in enumerate(market):
        if t == t_half:
            lx_half = lx
        row, x = np.array([pi]), np.array([np.exp(min(lx, LOG_CAP))])
        pis.extend(pi)
        lxs.append(lx)
        mask, tgt = strategy.decide_batch(row, x, z_t)
        if mask[0] and (new := tgt[0].tolist()) != pi:
            new_row = np.array([new])
            e = solve_e_batch(spec, row, new_row, x).item()
            if e > 0.0:
                lx += float(np.log(e))
                pi, row = new, new_row
                signed = signed or any(p < 0.0 for p in new)
            rec_e[0, t], rec_traded[0, t] = e, True
            rec_pi[0, t], rec_lx[0, t] = pi, lx
            if e == 0.0:
                alive = False
                break
        g = _einsum("nd,nd->n", row, step).item()
        pi_next = [p * s / g for p, s in zip(pi, step[0].tolist())]
        if signed:
            _check_drift(np.array([pi_next]), ones, True)
        lx += float(np.log(g))
        pi = pi_next
    m = len(lxs)
    rec_pi_prev[0, :m] = np.frombuffer(pis).reshape(m, -1)
    rec_lx_prev[0, :m] = np.frombuffer(lxs)
    return np.array([lx]), np.array([lx_half]), np.array([alive]), [pi]


def _check_drift(pi_next, ones, alive):
    """Refuse a step whose live rows of proportions no longer sum to 1."""
    drift = np.abs(pi_next @ ones - 1.0).max(where=alive, initial=0.0)
    if drift > 1e-9:
        raise RuntimeError(f"proportion drift {drift:.3e} exceeds 1e-9")


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
    T, n_paths = check_integer("T", T), check_integer("n_paths", n_paths)
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
