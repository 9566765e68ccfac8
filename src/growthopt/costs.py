"""Transaction cost mathematics in proportion space.

A rebalance from pre-transaction proportions ``pi_prev`` to target ``pi``
survives with a wealth fraction delta in (0, 1] solving

    cost(pi_prev, delta * pi) + C / wealth + delta = 1        (additive)
    max(cost(pi_prev, delta * pi), C / wealth) + delta = 1    (max variant)

where ``cost`` charges buy rates on proportion increases and sell rates on
decreases.  Both left-hand sides are strictly increasing piecewise-linear
functions of delta, so the root is unique when it exists; ``solve_e``
computes it exactly by scanning the linear segments.  ``bisect_e`` is an
independent bracketing oracle kept for verification.

The module also derives the cost constants that gate the average-growth
theory: the worst-case log drag ``eta`` of a proportional rebalance, its
fixed-cost-inflated version ``eta_m`` at a wealth threshold, and the minimal
wealth ``x_star`` above which every rebalance is affordable (closed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .market import check_simplex

VARIANTS = ("additive", "max")


@dataclass(frozen=True)
class CostSpec:
    """Per-asset proportional rates plus a fixed charge per transaction."""

    buy: np.ndarray
    sell: np.ndarray
    fixed: float = 0.0
    variant: str = "additive"

    def __post_init__(self):
        buy = np.array(self.buy, dtype=float)
        sell = np.array(self.sell, dtype=float)
        buy.setflags(write=False)
        sell.setflags(write=False)
        object.__setattr__(self, "buy", buy)
        object.__setattr__(self, "sell", sell)
        if buy.shape != sell.shape or buy.ndim != 1:
            raise ValueError("buy and sell rates must be vectors of equal length")
        if buy.min() < 0 or sell.min() < 0 or buy.max() >= 1 or sell.max() >= 1:
            raise ValueError("proportional rates must lie in [0, 1)")
        if self.fixed < 0:
            raise ValueError("fixed cost must be >= 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    @property
    def n_assets(self) -> int:
        return self.buy.shape[0]

    @property
    def max_rate(self) -> float:
        return float(max(self.buy.max(), self.sell.max()))

    def without_fixed(self) -> "CostSpec":
        return CostSpec(self.buy, self.sell, 0.0, self.variant)


@dataclass(frozen=True)
class CostConstants:
    """Derived scalars used by the average-growth construction.

    eta            worst-case -ln of the surviving fraction of a purely
                   proportional rebalance (inf when rates are too large)
    eta_m          same including the fixed charge at wealth ``wealth_threshold``
    wealth_threshold   smallest searched wealth M with eta_m below the
                   stationary growth floor
    resync_wealth  M * exp(eta_m); re-entry level of the wealth-gated policy
    x_star         infimum wealth above which every rebalance is feasible
    """

    max_rate: float
    eta: float
    eta_m: float
    wealth_threshold: float
    resync_wealth: float
    x_star: float


def proportional_cost(spec: CostSpec, pi_prev, pi_tilde) -> float:
    """Proportional cost of moving proportions pi_prev -> pi_tilde.

    ``pi_tilde`` may lie in the sub-simplex (coordinate sum <= 1): it is the
    scaled-down post-transaction proportion vector.
    """
    pi_prev = check_simplex(pi_prev, spec.n_assets)
    pi_tilde = np.asarray(pi_tilde, dtype=float)
    if pi_tilde.shape != (spec.n_assets,):
        raise ValueError("pi_tilde has wrong length")
    if pi_tilde.min() < -1e-9 or pi_tilde.sum() > 1.0 + 1e-9:
        raise ValueError(f"pi_tilde outside the sub-simplex: {pi_tilde}")
    d = pi_tilde - pi_prev
    return float(spec.buy @ np.clip(d, 0.0, None) + spec.sell @ np.clip(-d, 0.0, None))


def _cost_batch(spec, pi_prev, pi_tilde):
    d = pi_tilde - pi_prev
    return np.maximum(d, 0.0) @ spec.buy + np.maximum(-d, 0.0) @ spec.sell


def _solve_prop_root_batch(spec, pi_prev, pi_new, target):
    """Exact roots of cost(pi_prev, delta*pi_new) + delta = target, vectorized.

    The left side g is strictly increasing and piecewise linear with
    breakpoints at delta_i = pi_prev_i / pi_new_i; evaluating it on the
    sorted breakpoint grid brackets the root, which is then solved on its
    linear segment.  Callers guarantee a root exists in (0, 1]: the value
    at 0 is the total sell charge and the value at 1 is >= 1 >= target.

    The batches of a simulation are a few rows, so the cost of a call is
    the number of numpy calls: arrays are filled in place and the bracket
    is read by flat ``take``.
    """
    n, d = pi_prev.shape
    k = d + 2
    # candidates 0, the breakpoints clipped to [0, 1], and 1; an asset with
    # pi_new <= 0 has its breakpoint at infinity, which clips to 1
    cand = np.empty((n, k))
    cand.fill(1.0)
    cand[:, 0] = 0.0
    brk = cand[:, 1:-1]
    np.divide(pi_prev, pi_new, out=brk, where=pi_new > 0.0)
    np.maximum(0.0, brk, out=brk)
    np.minimum(brk, 1.0, out=brk)
    cand.sort(axis=1)
    diff = cand[:, :, None] * pi_new[:, None, :]
    diff -= pi_prev[:, None, :]
    g = np.maximum(diff, 0.0) @ spec.buy
    np.negative(diff, out=diff)
    np.maximum(diff, 0.0, out=diff)
    g += diff @ spec.sell
    g += cand
    below = g <= target[:, None]
    # the rightmost candidate at or below target brackets the root with its
    # successor; g is monotone only in exact arithmetic, so search the mask
    # from the right instead of counting it
    last = np.arange(k - 1, n * k, k)  # flat position of each row's last
    top = last - below[:, ::-1].argmax(axis=1)
    at_end = top == last
    lo = top - at_end
    hi = lo + 1
    ends = np.count_nonzero(at_end)
    if ends:
        # a row with no candidate at or below target brackets (last, first),
        # which the clip below sends to 0; the others have their root at 1
        none = at_end & ~below[:, -1]
        at_end &= ~none
        lo[none] += 1
        hi[none] -= k - 1
    d_lo, d_hi = cand.take(lo), cand.take(hi)
    g_lo, g_hi = g.take(lo), g.take(hi)
    width = d_hi - d_lo
    slope = g_hi - g_lo
    np.divide(slope, width, out=slope, where=width > 0.0)  # else width 1
    root = target - g_lo
    root /= np.where(slope > 0.0, slope, np.inf)
    root += d_lo
    np.maximum(root, d_lo, out=root)
    np.minimum(root, d_hi, out=root)
    if ends:
        root[at_end] = 1.0
    return root


def solve_e_batch(spec: CostSpec, pi_prev, pi_new, wealth) -> np.ndarray:
    """Surviving wealth fractions for a batch of rebalances (exact).

    Rows with no root in (0, 1] return 0, encoding an unaffordable
    transaction.  A rebalance onto itself with no fixed charge returns
    exactly 1.0: g(1) = cost + 1 is exactly 1 on a row that does not move,
    so the segment solve returns 1.0 wherever the target is 1.
    """
    pi_prev = np.atleast_2d(np.asarray(pi_prev, dtype=float))
    pi_new = np.atleast_2d(np.asarray(pi_new, dtype=float))
    wealth = np.atleast_1d(np.asarray(wealth, dtype=float))
    n = pi_prev.shape[0]
    if wealth.shape != (n,):
        raise ValueError(f"need one wealth per rebalance: {wealth.shape[0]} "
                         f"wealth values for {n} rows")
    # np.count_nonzero skips the Python layer of .all(); NaN fails the test
    if np.count_nonzero(wealth > 0.0) != n:
        raise ValueError("wealth must be strictly positive")
    fixed_frac = spec.fixed / wealth
    if spec.variant == "additive":
        # root of cost + delta = 1 - C/wealth on the breakpoint grid
        target = 1.0 - fixed_frac
        feasible = pi_prev @ spec.sell < target
        n_ok = np.count_nonzero(feasible)
        if n_ok == n:
            return _solve_prop_root_batch(spec, pi_prev, pi_new, target)
        out = np.zeros(n)
        if n_ok:
            out[feasible] = _solve_prop_root_batch(
                spec, pi_prev[feasible], pi_new[feasible], target[feasible])
        # a row that does not move stays put even where selling it all
        # would be unaffordable
        out[(pi_prev == pi_new).all(axis=1) & (fixed_frac == 0.0)] = 1.0
        return out
    # max variant: the left side is the max of two increasing functions, so
    # the root is the smaller of their individual roots
    out = _solve_prop_root_batch(spec, pi_prev, pi_new, np.ones(n))
    cap = 1.0 - fixed_frac
    np.minimum(out, cap, out=out)
    out[cap <= 0.0] = 0.0
    return out


def solve_e(spec: CostSpec, pi_prev, pi_new, wealth: float) -> float:
    """Surviving wealth fraction of a single rebalance (0 when unaffordable)."""
    pi_prev = check_simplex(pi_prev, spec.n_assets)
    pi_new = check_simplex(pi_new, spec.n_assets)
    return float(solve_e_batch(spec, pi_prev[None, :], pi_new[None, :],
                               np.array([wealth]))[0])


def transaction_equation(spec: CostSpec, pi_prev, pi_new, wealth: float,
                         delta: float) -> float:
    """Left-hand side of the self-financing equation at fraction ``delta``."""
    pi_prev = np.asarray(pi_prev, dtype=float)
    pi_new = np.asarray(pi_new, dtype=float)
    c = proportional_cost(spec, pi_prev, delta * pi_new)
    if spec.variant == "additive":
        return c + spec.fixed / wealth + delta
    return max(c, spec.fixed / wealth) + delta


def bisect_e(spec: CostSpec, pi_prev, pi_new, wealth, iters: int = 200) -> np.ndarray:
    """Bracketing oracle for the surviving fraction (batch capable).

    Kept independent of the exact segment solver: it only evaluates the
    self-financing equation, halving [0, 1] ``iters`` times.
    """
    pi_prev = np.atleast_2d(np.asarray(pi_prev, dtype=float))
    pi_new = np.atleast_2d(np.asarray(pi_new, dtype=float))
    wealth = np.atleast_1d(np.asarray(wealth, dtype=float))
    fixed_frac = spec.fixed / wealth

    def f(delta):
        tilde = delta[:, None] * pi_new
        c = _cost_batch(spec, pi_prev, tilde)
        if spec.variant == "additive":
            return c + fixed_frac + delta
        return np.maximum(c, fixed_frac) + delta

    lo = np.zeros(pi_prev.shape[0])
    hi = np.ones(pi_prev.shape[0])
    feasible = f(lo) < 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        high = f(mid) > 1.0
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    root = 0.5 * (lo + hi)
    # exact boundary root at 1 (no-op rebalance with no fixed charge)
    exact_one = np.abs(f(np.ones_like(root)) - 1.0) <= 1e-12
    root = np.where(exact_one, 1.0, root)
    return np.where(feasible, root, 0.0)


def _eta_from_rate(c_hat: float, extra: float = 0.0) -> float:
    arg = 1.0 - (2.0 * c_hat + extra) / (1.0 - c_hat)
    if arg <= 0.0:
        return math.inf
    return -math.log(arg)


def worst_case_drag(spec: CostSpec) -> float:
    """eta: -ln of the guaranteed lower bound on the proportional fraction."""
    return _eta_from_rate(spec.max_rate)


def drag_at_wealth(spec: CostSpec, wealth: float) -> float:
    """eta_m: the drag bound including the fixed charge spread over ``wealth``."""
    return _eta_from_rate(spec.max_rate, spec.fixed / wealth)


def min_trade_wealth(spec: CostSpec) -> float:
    """x_star: infimum wealth above which every rebalance has positive survival.

    Feasibility is monotone in wealth and worst over the simplex vertices
    (selling a single fully-held asset maximizes the sell charge), where it
    holds above C / (1 - max sell) (additive) or C (max variant).  Stepping
    from there by ulps finds the smallest float the solver accepts.
    """
    if spec.fixed == 0.0:
        return 0.0
    d = spec.n_assets
    eye = np.eye(d)
    pairs_prev = np.repeat(eye, d, axis=0)
    pairs_new = np.tile(eye, (d, 1))

    def all_feasible(wealth):
        e = solve_e_batch(spec, pairs_prev, pairs_new,
                          np.full(d * d, wealth))
        return bool((e > 0.0).all())

    max_sell = spec.sell.max() if spec.variant == "additive" else 0.0
    x = spec.fixed / (1.0 - float(max_sell))
    while not all_feasible(x):
        x = float(np.nextafter(x, math.inf))
    while all_feasible(below := float(np.nextafter(x, 0.0))):
        x = below
    return x


def min_diminution(spec: CostSpec, wealth: float) -> float:
    """Smallest surviving fraction over vertex rebalance pairs at ``wealth``."""
    d = spec.n_assets
    eye = np.eye(d)
    pairs_prev = np.repeat(eye, d, axis=0)
    pairs_new = np.tile(eye, (d, 1))
    e = solve_e_batch(spec, pairs_prev, pairs_new, np.full(d * d, wealth))
    return float(e.min())


def cost_constants(spec: CostSpec, floor_rate: float) -> CostConstants:
    """Derive (eta, eta_m, M, M*, x_star) and enforce the growth gate.

    Raises ValueError when the proportional drag already reaches the
    stationary floor rate, or when no searched wealth threshold brings the
    fixed-cost-inflated drag below it.
    """
    eta = worst_case_drag(spec)
    if not eta < floor_rate:
        raise ValueError(
            f"rebalance drag eta={eta:.6g} must stay below the growth floor "
            f"{floor_rate:.6g}; costs are too large for long-run growth"
        )
    x_star = min_trade_wealth(spec)
    if spec.fixed == 0.0:
        m = 1.0
        eta_m = eta
    else:
        wealth_grid = np.geomspace(x_star * 1.01, 1e6 * spec.fixed, 256)
        etas = np.array([drag_at_wealth(spec, m) for m in wealth_grid])
        ok = np.where(etas < floor_rate)[0]
        if ok.size == 0:
            raise ValueError(
                "no wealth threshold on the search grid brings the fixed-cost "
                "drag below the growth floor"
            )
        m = float(wealth_grid[ok[0]])
        eta_m = float(etas[ok[0]])
    return CostConstants(
        max_rate=spec.max_rate,
        eta=eta,
        eta_m=eta_m,
        wealth_threshold=m,
        resync_wealth=m * math.exp(eta_m),
        x_star=x_star,
    )


def share_cost(spec: CostSpec, holdings_before, holdings_after, prices) -> float:
    """Transaction cost in share space for the spec's variant.

    Buy rates charge increases of holdings value, sell rates decreases; this
    convention makes the share-space charge equal the proportion-space
    charge times pre-transaction wealth (plus the fixed part), so the two
    descriptions of a self-financing trade balance exactly.  Rows of 2-D
    arguments are separate trades, and their charges return as an array.
    """
    n1 = np.asarray(holdings_before, dtype=float)
    n2 = np.asarray(holdings_after, dtype=float)
    s = np.asarray(prices, dtype=float)
    d = (n2 - n1) * s
    prop = np.maximum(d, 0.0) @ spec.buy + np.maximum(-d, 0.0) @ spec.sell
    if spec.variant == "additive":
        cost = prop + spec.fixed
    else:
        cost = np.maximum(prop, spec.fixed)
    return float(cost) if np.ndim(cost) == 0 else cost


@dataclass
class CostSandwichReport:
    """Sampling check of lower <= candidate <= upper and subadditivity."""

    n_samples: int
    lower_violations: int
    upper_violations: int
    subadditivity_violations: int
    worst_lower_gap: float
    worst_upper_gap: float
    worst_subadd_gap: float

    @property
    def ok(self) -> bool:
        return (
            self.lower_violations == 0
            and self.upper_violations == 0
            and self.subadditivity_violations == 0
        )


def general_cost_check(lower: CostSpec, candidate: Callable, upper: CostSpec,
                       n_samples: int = 2000,
                       rng: Optional[np.random.Generator] = None
                       ) -> CostSandwichReport:
    """Check a share-space cost oracle against a proportional/fixed sandwich.

    ``candidate(holdings_before, holdings_after, prices)`` is sampled on
    random holdings triples and price vectors; the report counts pointwise
    bound violations and failures of subadditivity along the triple.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    tol = 1e-12  # rounding of a share-space charge
    d = lower.n_assets
    lo_viol = up_viol = sub_viol = 0
    worst_lo = worst_up = worst_sub = 0.0
    for _ in range(n_samples):
        n1, n2, n3 = rng.uniform(0.0, 10.0, size=(3, d))
        s = rng.uniform(0.5, 2.0, size=d)
        c12 = candidate(n1, n2, s)
        lo = share_cost(lower, n1, n2, s)
        up = share_cost(upper, n1, n2, s)
        if c12 < lo - tol:
            lo_viol += 1
            worst_lo = max(worst_lo, lo - c12)
        if c12 > up + tol:
            up_viol += 1
            worst_up = max(worst_up, c12 - up)
        c13 = candidate(n1, n3, s)
        c23 = candidate(n2, n3, s)
        if c13 > c12 + c23 + tol:
            sub_viol += 1
            worst_sub = max(worst_sub, c13 - c12 - c23)
    return CostSandwichReport(
        n_samples=n_samples,
        lower_violations=lo_viol,
        upper_violations=up_viol,
        subadditivity_violations=sub_viol,
        worst_lower_gap=worst_lo,
        worst_upper_gap=worst_up,
        worst_subadd_gap=worst_sub,
    )
