"""Monte Carlo engine for portfolio trajectories under a strategy.

One step of the exact recursion: the strategy inspects the pre-transaction
state (proportions, wealth, factor), optionally rebalances (wealth shrinks
by the surviving fraction from the cost solver; an unaffordable rebalance
annihilates the path), then the market moves: proportions drift with the
realized returns and wealth multiplies by the portfolio gross return.

Wealth is tracked in logs so horizons of many thousands of steps cannot
overflow.  Paths are reproducible: path ``i`` of a batch consumes exactly
the stream ``(seed, i)``, so a single-path rerun reproduces it bit for bit.
A batch samples all its factor/shock paths in one call: one walk vectorized
across paths over the per-path Philox streams, each drawn in bounded blocks
(``market.sample_factor_paths``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .average import MimickingPolicy
from .costs import CostSpec, share_cost, solve_e_batch
from .grid import Policy
from .market import MarketModel, check_simplex, sample_factor_paths
from .rng import make_rng

LOG_CAP = 700.0  # exp cap; beyond this fixed costs are a zero fraction anyway


def model_fingerprint(model: MarketModel, spec: Optional[CostSpec] = None) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.transition).tobytes())
    h.update(np.ascontiguousarray(model.shock_probs).tobytes())
    h.update(np.ascontiguousarray(model.returns).tobytes())
    if spec is not None:
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

    ``decide_batch`` returns (mask, targets): rows with a True mask request
    a rebalance to the corresponding target proportions.  Strategies with
    internal per-path state must honor ``reset``.
    """

    def reset(self, n_paths: int = 1) -> None:
        pass

    def decide_batch(self, pi_prev, x_prev, z, t):
        raise NotImplementedError


class NoTransactionStrategy(Strategy):
    def decide_batch(self, pi_prev, x_prev, z, t):
        n = pi_prev.shape[0]
        return np.zeros(n, dtype=bool), pi_prev


class FixedTargetStrategy(Strategy):
    """Rebalance to a constant target whenever proportions have drifted."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def decide_batch(self, pi_prev, x_prev, z, t):
        n = pi_prev.shape[0]
        mask = np.any(pi_prev != self.target[None, :], axis=1)
        return mask, np.broadcast_to(self.target, (n, self.target.size))


class GridPolicyStrategy(Strategy):
    """Follow a solved greedy policy, deciding at the nearest grid state.

    The rebalance/hold decision is discrete, so lookups snap to the nearest
    simplex node (and nearest wealth node for wealth-dependent policies)
    instead of interpolating.
    """

    def __init__(self, policy: Policy):
        self.policy = policy

    def decide_batch(self, pi_prev, x_prev, z, t):
        grid = self.policy.grid
        p_idx = grid.nearest_node(pi_prev)
        if self.policy.wealth_free:
            mask = self.policy.impulse[p_idx, z]
            tgt_idx = self.policy.target[p_idx, z]
        else:
            j_idx = grid.nearest_wealth(x_prev)
            mask = self.policy.impulse[p_idx, j_idx, z]
            tgt_idx = self.policy.target[p_idx, j_idx, z]
        return mask, grid.nodes[tgt_idx]


class MimickingStrategy(Strategy):
    """Wealth-gated wrapper of a proportional policy (one recovery bit).

    Below the wealth threshold the strategy freezes and arms its recovery
    flag; it re-syncs to the base target once wealth passes the resync
    level, and otherwise follows the base policy.
    """

    def __init__(self, mimicking: MimickingPolicy):
        self.mimicking = mimicking
        self.base = GridPolicyStrategy(mimicking.base)
        self._recovering = np.zeros(1, dtype=bool)

    def reset(self, n_paths: int = 1) -> None:
        self._recovering = np.zeros(n_paths, dtype=bool)

    def decide_batch(self, pi_prev, x_prev, z, t):
        n = pi_prev.shape[0]
        if self._recovering.shape[0] != n:
            raise RuntimeError("call reset(n_paths) before a new batch")
        m = self.mimicking.wealth_threshold
        m_star = self.mimicking.resync_wealth
        base_mask, base_tgt = self.base.decide_batch(pi_prev, x_prev, z, t)

        below = x_prev < m
        resync = self._recovering & (x_prev >= m_star)
        waiting = self._recovering & ~resync
        follow = ~below & ~self._recovering

        mask = np.zeros(n, dtype=bool)
        targets = pi_prev.copy()
        mask[resync] = True
        targets[resync] = base_tgt[resync]
        mask[follow] = base_mask[follow]
        targets[follow] = np.where(base_mask[follow, None], base_tgt[follow],
                                   targets[follow])
        mask[below | waiting] = False

        self._recovering = (self._recovering | below) & ~resync
        return mask, targets


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
    seed: int
    stream: int
    model_hash: str
    fixed_cost: bool
    annihilated: bool
    spec: CostSpec

    @property
    def n_steps(self) -> int:
        return self.t.shape[0] - 1

    def log_growth(self) -> float:
        """(1/T) ln of final over initial pre-transaction wealth."""
        if self.annihilated:
            return float("-inf")
        return float((math.log(self.x_prev[-1]) - math.log(self.x_prev[0]))
                     / self.n_steps)


def run(model: MarketModel, spec: CostSpec, strategy: Strategy, pi0, x0: float,
        z0: int, T: int, seed: int, stream: int = 0) -> Trajectory:
    """Simulate one path of T steps; terminates early on annihilation."""
    pi0 = check_simplex(pi0, model.n_assets)
    if x0 <= 0:
        raise ValueError("initial wealth must be positive")
    if T < 1:
        raise ValueError("T must be >= 1")
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
    pi_prev = pi0.copy()
    lx = math.log(x0)
    annihilated = False
    last = T
    for t in range(T + 1):
        x_prev_val = math.exp(min(lx, LOG_CAP)) if lx > -math.inf else 0.0
        rec["pi_prev"][t] = pi_prev
        rec["x_prev"][t] = x_prev_val
        pi = pi_prev
        e_val = 1.0
        transacted = False
        if t < T and not annihilated:
            mask, tgt = strategy.decide_batch(pi_prev[None, :],
                                              np.array([x_prev_val]),
                                              z_path[t:t + 1], t)
            if mask[0] and np.any(tgt[0] != pi_prev):
                transacted = True
                e_val = float(solve_e_batch(spec, pi_prev[None, :], tgt[0][None, :],
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
        rec["x"][t] = math.exp(min(lx, LOG_CAP)) if lx > -math.inf else 0.0
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
        x=rec["x"][:n], returns=rec["returns"][:n], seed=seed, stream=stream,
        model_hash=model_fingerprint(model, spec), fixed_cost=spec.fixed > 0,
        annihilated=annihilated, spec=spec,
    )


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

    @property
    def flagged(self) -> bool:
        return self.annihilated_paths > 0


def average_growth(model: MarketModel, spec: CostSpec, strategy: Strategy,
                   pi0, x0: float, z0: int, T: int, n_paths: int,
                   seed: int) -> GrowthEstimate:
    """Estimate (1/T) E ln X_(T) over ``n_paths`` independent paths.

    Annihilated paths contribute -inf and flag the estimate; the second
    half window mean is reported as a stationarity diagnostic for the
    fixed-horizon average.
    """
    pi0 = check_simplex(pi0, model.n_assets)
    if T < 1 or n_paths < 1:
        raise ValueError("T and n_paths must be >= 1")
    d = model.n_assets
    z, xi = sample_factor_paths(model, np.full(n_paths, z0), T,
                                [make_rng(seed, i) for i in range(n_paths)])

    strategy.reset(n_paths)
    pi_prev = np.broadcast_to(pi0, (n_paths, d)).copy()
    lx = np.full(n_paths, math.log(x0))
    alive = np.ones(n_paths, dtype=bool)
    t_half = T - T // 2
    lx_half = np.empty(n_paths)
    for t in range(T):
        if t == t_half:
            lx_half[:] = lx
        x_prev = np.exp(np.minimum(lx, LOG_CAP))
        mask, tgt = strategy.decide_batch(pi_prev, x_prev, z[:, t], t)
        really = mask & alive & np.any(tgt != pi_prev, axis=1)
        if really.any():
            e = solve_e_batch(spec, pi_prev[really], tgt[really], x_prev[really])
            idx = np.nonzero(really)[0]
            dead = idx[e == 0.0]
            ok = idx[e > 0.0]
            alive[dead] = False
            lx[dead] = -np.inf
            lx[ok] += np.log(e[e > 0.0])
            pi_prev[ok] = tgt[ok]
        zeta = model.returns[z[:, t + 1], xi[:, t + 1]]
        growth = np.einsum("nd,nd->n", pi_prev, zeta)
        lx = np.where(alive, lx + np.log(growth), -np.inf)
        pi_next = pi_prev * zeta / growth[:, None]
        pi_prev = np.where(alive[:, None], pi_next, pi_prev)

    per_path = lx / T  # (1/T) ln X_(T)
    n_dead = int((~alive).sum())
    if n_dead == 0:
        mean = float(per_path.mean())
        se = float(per_path.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        window = float(((lx - lx_half) / (T - t_half)).mean())
    else:
        mean, se, window = float("-inf"), float("nan"), float("nan")
    return GrowthEstimate(mean=mean, std_error=se, n_paths=n_paths, T=T,
                          annihilated_paths=n_dead, window_mean=window,
                          per_path=per_path)


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


def wealth_floor_check(traj: Trajectory, constants, rate: Optional[float] = None,
                       tol: float = 1e-9) -> FloorCheckReport:
    """Check X_(t) >= X_(0) exp(-rate*t) * prod of worst-asset returns.

    The rate defaults to the proportional drag for zero-fixed-cost runs and
    to the threshold-inflated drag for fixed-cost runs (where the strategy
    is expected to trade only above the wealth threshold).
    """
    if rate is None:
        rate = constants.eta_m if traj.fixed_cost else constants.eta
    floor_lr = np.log(traj.returns.min(axis=1))
    floor_lr[0] = 0.0
    n = traj.t.shape[0]
    t_arr = np.arange(n)
    lhs = np.log(np.where(traj.x_prev > 0, traj.x_prev, np.nan))
    bound = math.log(traj.x_prev[0]) - rate * t_arr + np.cumsum(floor_lr)
    margin = lhs - bound
    violations = int(np.sum(margin < -tol))
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

    def decaying(self, z: float = 1.96) -> bool:
        return self.slope + z * self.slope_se < 0.0


def ld_tail(model: MarketModel, T_grid, eps: float, n_paths: int, seed: int,
            z0: Optional[int] = None) -> LdTailResult:
    """Tail probabilities of the average worst-asset log return per horizon.

    For each horizon T, estimates P[(1/T) sum ln floor-return <= floor_rate
    - eps] over ``n_paths`` simulated factor/shock paths, and fits a
    weighted least squares slope to ln P against T (variance weights from
    the binomial counts).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    from .market import growth_floor, invariant_measure

    T_grid = sorted(int(t) for t in T_grid)
    t_max = T_grid[-1]
    floor_rate, floor_returns = growth_floor(model)
    log_floor = np.log(floor_returns)
    rng = make_rng(seed)
    if z0 is None:
        theta = invariant_measure(model)
        z_init = rng.choice(model.n_factors, size=n_paths, p=theta)
    else:
        z_init = np.full(n_paths, z0, dtype=np.int64)
    z, xi = sample_factor_paths(model, z_init, t_max, rng)
    lr = log_floor[z[:, 1:], xi[:, 1:]]
    csum = np.cumsum(lr, axis=1)
    threshold = floor_rate - eps
    rows = []
    for T in T_grid:
        tail = float(np.mean(csum[:, T - 1] / T <= threshold))
        rows.append({"T": T, "p_hat": floor_rate, "eps": eps,
                     "tail_prob": tail, "n_paths": n_paths})
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


def to_share_holdings(traj: Trajectory, s0, tol: float = 1e-9) -> ShareRecord:
    """Rebuild prices and share counts and verify self-financing.

    Between transactions holdings must stay constant; at a transaction the
    post-trade portfolio value must equal the pre-trade value minus the
    share-space transaction charge.  A residual above ``tol`` times wealth
    raises, since it indicates an engine inconsistency.
    """
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (traj.pi.shape[1],) or s0.min() <= 0:
        raise ValueError("initial prices must be a positive vector per asset")
    prices = s0 * np.cumprod(traj.returns, axis=0)
    with np.errstate(invalid="ignore"):
        holdings = traj.pi * traj.x[:, None] / prices
    holdings[traj.x == 0.0] = 0.0
    max_resid = 0.0
    for t in range(1, traj.t.shape[0]):
        prev_value = float(holdings[t - 1] @ prices[t])
        scale = max(traj.x_prev[t], 1.0)
        if abs(prev_value - traj.x_prev[t]) > tol * scale:
            raise RuntimeError("pre-transaction wealth reconstruction failed "
                               f"at step {t}")
        if traj.transacted[t] and traj.x[t] > 0.0:
            cost = share_cost(traj.spec, holdings[t - 1], holdings[t], prices[t])
            resid = abs(holdings[t] @ prices[t] - (prev_value - cost))
            max_resid = max(max_resid, resid / scale)
            if resid > tol * scale:
                raise RuntimeError(f"self-financing violated at step {t}: "
                                   f"residual {resid:.3e}")
        elif not traj.transacted[t]:
            resid = float(np.abs(holdings[t] - holdings[t - 1]).max())
            if resid > tol * max(1.0, float(np.abs(holdings[t - 1]).max())):
                raise RuntimeError(f"holdings drifted without a transaction "
                                   f"at step {t}")
    return ShareRecord(prices=prices, holdings=holdings, max_residual=max_resid)
