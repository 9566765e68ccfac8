"""Transaction cost mathematics in proportion space.

A rebalance from pre-transaction proportions ``pi_prev`` to target ``pi``
survives with a wealth fraction delta in (0, 1] solving

    cost(pi_prev, delta * pi) + C / wealth + delta = 1        (additive)
    max(cost(pi_prev, delta * pi), C / wealth) + delta = 1    (max variant)

where ``cost`` charges buy rates on proportion increases and sell rates on
decreases.  Both left-hand sides are convex piecewise-linear functions of
delta, at least 1 at delta = 1.  For a target in the simplex they are
strictly increasing, so the root is unique when it exists; a target with a
negative proportion can make them dip below the right-hand side past 0, and
the root taken is then the largest.  ``solve_e`` computes it exactly by
scanning the linear segments.  ``bisect_e``, an independent bracketing
oracle kept for verification, only evaluates ``transaction_equation`` and
is valid on every row the solver takes.  ``_charge`` writes every charge.

The module also derives the cost constants that gate the average-growth
theory: the worst-case log drag ``eta`` of a proportional rebalance, its
fixed-cost-inflated version ``eta_m`` at a wealth threshold, and the minimal
wealth ``x_star`` above which every rebalance is affordable (closed form).
``general_cost_check`` samples a share-space cost candidate, which takes
rows as ``share_cost`` does, against a proportional/fixed sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .market import check_simplex, readonly_table

VARIANTS = ("additive", "max")


@dataclass(frozen=True)
class CostSpec:
    """Per-asset proportional rates plus a fixed charge per transaction.

    Construction refuses, with a ValueError naming the field, rates outside
    [0, 1) (NaN included) and a fixed charge that is not finite and >= 0.
    """

    buy: np.ndarray
    sell: np.ndarray
    fixed: float = 0.0
    variant: str = "additive"

    def __post_init__(self):
        buy = readonly_table(self.buy, "buy")
        sell = readonly_table(self.sell, "sell")
        try:  # a bool is not a charge; NaN is refused below
            fixed = (math.nan if isinstance(self.fixed, bool)
                     else float(self.fixed))
        except (TypeError, ValueError):
            fixed = math.nan
        if buy.shape != sell.shape or buy.ndim != 1 or buy.size == 0:
            raise ValueError("buy and sell rates must be non-empty vectors "
                             "of equal length")
        for name, rates in (("buy", buy), ("sell", sell)):
            # NaN fails both comparisons
            if not ((rates >= 0.0) & (rates < 1.0)).all():
                raise ValueError(f"{name} rates {rates.tolist()} must lie "
                                 "in [0, 1)")
        if not 0.0 <= fixed < math.inf:
            raise ValueError(f"fixed cost {self.fixed!r} must be finite "
                             "and >= 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        object.__setattr__(self, "buy", buy)
        object.__setattr__(self, "sell", sell)
        object.__setattr__(self, "fixed", fixed)

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


def _charge(spec: CostSpec, moves, fixed):
    """Charges of the rows of ``moves``: buy rates on increases, sell rates
    on decreases, and ``fixed`` added (additive) or as a floor (max).  Each
    row is a one-row product, so it has the same bits alone or in a batch
    (many rows would run BLAS gemv, whose fused multiply-adds round
    differently)."""
    moves = np.asarray(moves, dtype=float)[..., None, :]
    prop = (np.maximum(moves, 0.0) @ spec.buy
            + np.maximum(-moves, 0.0) @ spec.sell)[..., 0]
    if spec.variant == "additive":
        return prop + fixed
    return np.maximum(prop, fixed)


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
    return float(_charge(spec, pi_tilde - pi_prev, 0.0))


def _solve_prop_root_batch(spec, pi_prev, pi_new, target):
    """Largest roots of cost(pi_prev, delta*pi_new) + delta = target in
    [0, 1], vectorized; 0 where there is none.

    The left side g is convex and piecewise linear with breakpoints at
    delta_i = pi_prev_i / pi_new_i, and g(1) >= 1, so {g <= target} is an
    interval and its right end is the largest root.  Evaluating g on the
    sorted breakpoint grid brackets that root, which is then solved on its
    linear segment.  g increases when pi_new lies in the simplex; a
    negative proportion in pi_new can make it fall below the target past 0.

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
    # np.clip(root, d_lo, d_hi) bit for bit: on a tie np.maximum and
    # np.minimum return their second operand, and np.clip keeps the root,
    # so a +0.0 root stays +0.0 at a -0.0 breakpoint
    np.maximum(d_lo, root, out=root)
    np.minimum(d_hi, root, out=root)
    if ends:
        root[at_end] = 1.0
    return root


def solve_e_batch(spec: CostSpec, pi_prev, pi_new, wealth) -> np.ndarray:
    """Surviving wealth fractions for a batch of rebalances (exact).

    Rows with no root in (0, 1] return +0.0, encoding an unaffordable
    transaction.  The segment solve decides every row: it returns the
    largest root, so a target with a negative proportion, whose g can dip
    below the target 1 - C/wealth past 0, is affordable at the root after
    the dip even where its sell-all charge g(0) exceeds that target.  A
    rebalance onto itself with no fixed charge returns exactly 1.0: g(1) =
    cost + 1 is exactly 1 on a row that does not move, so the segment solve
    returns 1.0 wherever the target is 1, also where selling everything
    would be unaffordable.
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
        return _solve_prop_root_batch(spec, pi_prev, pi_new, 1.0 - fixed_frac)
    # max variant: the left side is the max of two convex functions, so its
    # largest root is the smaller of theirs
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


def transaction_equation(spec: CostSpec, pi_prev, pi_new, wealth, delta):
    """Left-hand side F of the self-financing equation at fraction ``delta``.

    Rows of ``pi_prev`` and ``pi_new`` broadcast against ``wealth`` and
    ``delta``; one rebalance returns a float.  Nothing is checked, so a
    leveraged target evaluates as the solver sees it.
    """
    delta = np.asarray(delta, dtype=float)
    moves = delta[..., None] * np.asarray(pi_new, dtype=float) - pi_prev
    lhs = _charge(spec, moves, spec.fixed / np.asarray(wealth, dtype=float))
    return float(lhs + delta) if lhs.ndim == 0 else lhs + delta


BISECT_STEPS = 200  # halvings of a root's bracket
SEARCH_STEPS = 18  # refinements of the grid search, each 8 times narrower
_SEARCH_GRID = np.linspace(0.0, 1.0, 17)


def bisect_e(spec: CostSpec, pi_prev, pi_new, wealth) -> np.ndarray:
    """Bracketing oracle for the surviving fraction (batch capable).

    Independent of the segment solver, it only evaluates the convex F:
    F(1) >= 1, so the root is the right end of {F <= 1}.  A row with F(0)
    < 1 brackets it by [0, 1]; any other row by [least point of F, 1], or
    has none if F is not below 1 there.  The least point, within 2**-54,
    is that of 17 points across a bracket narrowed to the two grid steps
    around it.  Bisection then halves every bracket ``BISECT_STEPS`` times.
    """
    pi_prev = np.atleast_2d(np.asarray(pi_prev, dtype=float))
    pi_new = np.atleast_2d(np.asarray(pi_new, dtype=float))
    wealth = np.atleast_1d(np.asarray(wealth, dtype=float))
    rows = (spec, pi_prev, pi_new, wealth)
    lo, hi = np.zeros(len(wealth)), np.ones(len(wealth))
    dip = ~(transaction_equation(*rows, lo) < 1.0)  # NaN rows search too
    if dip.any():
        dips = (spec, pi_prev[dip, None], pi_new[dip, None], wealth[dip, None])
        start, width = np.zeros((np.count_nonzero(dip), 1)), 1.0
        for _ in range(SEARCH_STEPS):
            x = start + width * _SEARCH_GRID
            least = transaction_equation(*dips, x).argmin(axis=1)[:, None]
            width /= 8.0
            left = np.take_along_axis(x, np.maximum(least - 1, 0), 1)
            start = np.minimum(left, 1.0 - width)
        lo[dip] = np.take_along_axis(x, least, 1)[:, 0]
    feasible = transaction_equation(*rows, lo) < 1.0
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        high = transaction_equation(*rows, mid) > 1.0
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    root = np.where(feasible, 0.5 * (lo + hi), 0.0)
    # exact boundary root at 1 (no-op rebalance with no fixed charge)
    at_one = transaction_equation(*rows, np.ones(len(root)))
    root[np.abs(at_one - 1.0) <= 1e-12] = 1.0
    return root


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
    max_sell = spec.sell.max() if spec.variant == "additive" else 0.0
    x = spec.fixed / (1.0 - float(max_sell))
    while not min_diminution(spec, x) > 0.0:
        x = float(np.nextafter(x, math.inf))
    while min_diminution(spec, below := float(np.nextafter(x, 0.0))) > 0.0:
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
    moves = (np.asarray(holdings_after, dtype=float)
             - np.asarray(holdings_before, dtype=float)) * prices
    cost = _charge(spec, moves, spec.fixed)
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
                       n_samples: int, rng: np.random.Generator
                       ) -> CostSandwichReport:
    """Check a share-space cost oracle against a proportional/fixed sandwich.

    ``candidate(holdings_before, holdings_after, prices)`` takes rows, as
    ``share_cost`` does, and is evaluated once on ``n_samples`` random
    holdings triples and price vectors; the report counts pointwise bound
    violations and failures of subadditivity along the triple.
    """
    tol = 1e-12  # rounding of a share-space charge
    d = lower.n_assets
    # per sample: three holdings vectors in [0, 10), then prices in [0.5, 2)
    n1, n2, n3, s = rng.uniform([[0.0]] * 3 + [[0.5]], [[10.0]] * 3 + [[2.0]],
                                size=(n_samples, 4, d)).transpose(1, 0, 2)
    c12, c13, c23 = (np.broadcast_to(candidate(a, b, s), n_samples)
                     for a, b in ((n1, n2), (n1, n3), (n2, n3)))
    lo = share_cost(lower, n1, n2, s)
    up = share_cost(upper, n1, n2, s)
    lo_viol = c12 < lo - tol
    up_viol = c12 > up + tol
    sub_viol = c13 > c12 + c23 + tol
    return CostSandwichReport(
        n_samples=n_samples,
        lower_violations=int(lo_viol.sum()),
        upper_violations=int(up_viol.sum()),
        subadditivity_violations=int(sub_viol.sum()),
        worst_lower_gap=float((lo - c12)[lo_viol].max(initial=0.0)),
        worst_upper_gap=float((c12 - up)[up_viol].max(initial=0.0)),
        worst_subadd_gap=float((c13 - c12 - c23)[sub_viol].max(initial=0.0)),
    )
