"""Checks of one simulated path against the paper's pathwise bounds.

``wealth_floor_check`` compares a path's wealth with the floor that the
worst-asset returns and the cost drag guarantee; ``to_share_holdings``
rebuilds the path in share space and verifies that every step is
self-financing.  Both read a finished ``simulate.Trajectory`` alone, and
both are bound in ``simulate`` under the names they have always had there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .costs import share_cost

if TYPE_CHECKING:
    from .simulate import Trajectory

PATH_TOL = 1e-9  # relative rounding allowed by the path checks


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
    an overflowed price) never raise.  The initial prices must be finite
    and > 0, one per asset, or no step could be checked.
    """
    s0 = np.asarray(s0, dtype=float)
    # NaN fails both comparisons
    if (s0.shape != (traj.pi.shape[1],)
            or not np.all((s0 > 0.0) & (s0 < np.inf))):
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
