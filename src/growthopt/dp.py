"""Discounted dynamic programming with an impulse (rebalance) branch.

The Bellman operator at a state (proportions p0, wealth x, factor z) takes
the better of two branches:

  hold:        h(p0, z) + beta * E v(p0 after market step, x grown, z')
  rebalance:   max over targets p' != p0 of
               ln e(p0, p', x) + h(p', z) + beta * E v(p' after step, ...)

Expectations are exact finite sums over (next factor, shock); off-grid
proportions snap to the nearest mesh node and off-grid wealth interpolates
linearly in log-wealth, with dynamics clamped to the wealth grid range.
Value iteration runs from the pure-hold value and stops when the sup-norm
step is below tol*(1-beta)/beta, which bounds the distance to the grid
fixed point by tol.

For zero fixed cost the value carries no wealth axis and the same sweeps
run on the collapsed grid.  The grid owns the table layout: every value
table here has shape ``grid.shape`` of the grid it was built on, and
``DpTables.variant`` names the sweep kernels that grid needs.

``build_tables`` resolves the discretization once per grid into flat gather
tables: positions in ``values.ravel()`` of the wealth corners reached by
every market step and every rebalance, with their interpolation weights
and ln e broadcast to the gathered shape.  A sweep is then a handful of
``take`` calls and elementwise operations on arrays of a few thousand
entries.  Sweeps keep only the best rebalance value per state; the argmax
that names the target is taken once, when the converged values are turned
into a policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import CostSpec, solve_e_batch
from .grid import Policy, StateGrid, ValueFunction
from .market import MarketModel, mixing_step

NEG = -1e18  # sentinel for unaffordable rebalances; never interpolated
TIE_EPS = 1e-10  # rebalance must beat holding by more than this


@dataclass
class DpTables:
    """Gather tables shared by all sweeps on one grid.

    Index tables hold flat positions into ``values.ravel()`` of a C-ordered
    value table, shape (n_p, n_x, n_z) on grids with a wealth axis and
    (n_p, n_z) without; weights and ln e come broadcast to the full shape
    of the gather they scale.  A sweep is then a few flat takes and
    elementwise operations, with no index arithmetic.
    """

    grid: StateGrid
    variant: str            # sweep kernels: "fixed" or "proportional"
    w_zs: np.ndarray        # (n_z, n_z', n_s) transition x shock weights
    h_tab: np.ndarray       # (n_p, n_z) expected one-step log return
    step_lo: np.ndarray     # (n_p, [n_x,] n_z', n_s) state after a market step
    # proportional grids: ln of the surviving fraction of a rebalance p -> p'
    ln_e_prop: Optional[np.ndarray] = None   # (n_p, n_p)
    # wealth grids: the market step lands between the wealth nodes of
    # step_lo and step_hi with weights step_w_lo = 1 - frac, step_w_hi = frac
    step_hi: Optional[np.ndarray] = None
    step_w_lo: Optional[np.ndarray] = None
    step_w_hi: Optional[np.ndarray] = None
    # wealth grids, rebalance p -> p' at wealth node j and factor z, all of
    # shape (n_p, n_p, n_x, n_z): post-cost wealth cell of the target, its
    # weights and ln e (NEG where the charge exceeds wealth)
    imp_lo: Optional[np.ndarray] = None
    imp_hi: Optional[np.ndarray] = None
    imp_w_lo: Optional[np.ndarray] = None
    imp_w_hi: Optional[np.ndarray] = None
    imp_ln_e: Optional[np.ndarray] = None
    # flat positions of the p' = p entries of a rebalance table
    diag: Optional[np.ndarray] = None


def _diag_positions(n_p, tail):
    mask = np.zeros((n_p, n_p) + tail, dtype=bool)
    mask[np.arange(n_p), np.arange(n_p)] = True
    return np.flatnonzero(mask)


def build_tables(model: MarketModel, spec: CostSpec, grid: StateGrid) -> DpTables:
    if grid.n_assets != model.n_assets or grid.n_assets != spec.n_assets:
        raise ValueError("model, cost spec and grid disagree on asset count")
    if grid.n_z != model.n_factors:
        raise ValueError("grid factor count does not match the model")
    nodes = grid.nodes
    n_p, n_z = grid.n_nodes, grid.n_z
    port = np.einsum("pd,qsd->pqs", nodes, model.returns)
    step_lr = np.log(port)
    dia = nodes[:, None, None, :] * model.returns[None, :, :, :] / port[..., None]
    dia_idx = grid.nearest_node(dia.reshape(-1, grid.n_assets)).reshape(port.shape)
    w_zs = model.transition[:, :, None] * model.shock_probs[None, None, :]
    h_tab = np.einsum("pqs,zqs->pz", step_lr, w_zs)
    q = np.arange(n_z)[:, None]
    prev = np.repeat(nodes, n_p, axis=0)
    new = np.tile(nodes, (n_p, 1))

    if not grid.has_wealth_axis:
        e_prop = solve_e_batch(spec.without_fixed(), prev, new,
                               np.ones(n_p * n_p)).reshape(n_p, n_p)
        return DpTables(grid=grid, variant="proportional", w_zs=w_zs,
                        h_tab=h_tab, step_lo=dia_idx * n_z + q,
                        ln_e_prop=np.log(e_prop),
                        diag=_diag_positions(n_p, (n_z,)))

    n_x = grid.n_wealth
    wealth = grid.wealth
    prev3 = np.repeat(prev, n_x, axis=0)
    new3 = np.repeat(new, n_x, axis=0)
    x3 = np.tile(wealth, n_p * n_p)
    e_fac = solve_e_batch(spec, prev3, new3, x3).reshape(n_p, n_p, n_x)
    ln_e_fac = np.where(e_fac > 0.0, np.log(np.where(e_fac > 0.0, e_fac, 1.0)), NEG)
    x_after = np.where(e_fac > 0.0, wealth[None, None, :] * e_fac, wealth[0])
    imp_j0, imp_frac = grid.wealth_pos(x_after)

    x_step = wealth[None, :, None, None] * np.exp(step_lr[:, None, :, :])
    stp_j0, stp_frac = grid.wealth_pos(x_step)

    def flat(node, j, z):
        # position of (node, wealth node j, factor z) in values.ravel()
        return (node * n_x + j) * n_z + z

    # weights and ln e are stored at the full gathered shape: multiplying
    # by a broadcast (..., 1) operand instead made a sweep about 30 % slower
    full = (n_p, n_p, n_x, n_z)
    tgt, z = np.arange(n_p)[None, :, None, None], np.arange(n_z)
    imp_j0 = imp_j0[..., None]
    imp_frac = np.broadcast_to(imp_frac[..., None], full)
    return DpTables(
        grid=grid, variant="fixed", w_zs=w_zs, h_tab=h_tab,
        step_lo=flat(dia_idx[:, None], stp_j0, q),
        step_hi=flat(dia_idx[:, None], np.minimum(stp_j0 + 1, n_x - 1), q),
        step_w_lo=1.0 - stp_frac,
        step_w_hi=stp_frac,
        imp_lo=flat(tgt, imp_j0, z),
        imp_hi=flat(tgt, np.minimum(imp_j0 + 1, n_x - 1), z),
        imp_w_lo=1.0 - imp_frac,
        imp_w_hi=np.ascontiguousarray(imp_frac),
        imp_ln_e=np.ascontiguousarray(
            np.broadcast_to(ln_e_fac[..., None], full)),
        diag=_diag_positions(n_p, (n_x, n_z)),
    )


# ----------------------------------------------------------------------
# sweep kernels
# ----------------------------------------------------------------------

def _continuation_prop(values, t: DpTables, beta: float):
    # values: (n_p, n_z) -> hold-branch value h + beta * E v
    ev = np.einsum("pqs,zqs->pz", values.take(t.step_lo), t.w_zs)
    return t.h_tab + beta * ev


def _transaction_prop(cont, t: DpTables):
    # cont: (n_p, n_z) -> (n_p, n_p', n_z) rebalance value of every target
    vals = t.ln_e_prop[:, :, None] + cont
    vals.put(t.diag, NEG)
    return vals


def _continuation_fixed(values, t: DpTables, beta: float):
    # values: (n_p, n_x, n_z)
    vw = (t.step_w_lo * values.take(t.step_lo)
          + t.step_w_hi * values.take(t.step_hi))
    ev = np.einsum("pjqs,zqs->pjz", vw, t.w_zs)
    return t.h_tab[:, None, :] + beta * ev


def _transaction_fixed(cont, t: DpTables):
    # cont: (n_p, n_x, n_z) -> (n_p, n_p', n_x, n_z)
    gw = t.imp_w_lo * cont.take(t.imp_lo) + t.imp_w_hi * cont.take(t.imp_hi)
    vals = t.imp_ln_e + gw
    vals.put(t.diag, NEG)
    return vals


def _branches(values, t: DpTables, beta: float):
    """Hold value per state and rebalance value per (state, target).

    Targets sit on axis 1 of the rebalance table; the sweep keeps only its
    max, the policy extraction also takes its argmax.
    """
    if t.variant == "proportional":
        cont = _continuation_prop(values, t, beta)
        return cont, _transaction_prop(cont, t)
    cont = _continuation_fixed(values, t, beta)
    return cont, _transaction_fixed(cont, t)


def _require_fit(values, t: DpTables, what: str):
    """Refuse tables built for values of another shape: their gathers
    would read the wrong entries or fail mid-sweep."""
    fixed = np.ndim(values) == 3
    if (t.variant == "fixed") != fixed:
        raise ValueError(f"{what} need tables built on a grid "
                         f"{'with' if fixed else 'without'} a wealth axis")
    if np.shape(values) != t.grid.shape:
        raise ValueError(f"{what} of shape {np.shape(values)} do not fit "
                         f"tables built for shape {t.grid.shape}")


def bellman_step(v: ValueFunction, model: MarketModel, spec: CostSpec,
                 tables: Optional[DpTables] = None) -> ValueFunction:
    """One application of the two-branch Bellman operator.

    Tables are built on the values' own grid; tables built for values of
    another shape are refused.
    """
    if tables is None:
        tables = build_tables(model, spec, v.grid)
    _require_fit(v.values, tables, f"{v.variant} values")
    cont, vals = _branches(v.values, tables, v.beta)
    return v.copy_with(np.maximum(cont, vals.max(axis=1)))


def impulse_operator(v: ValueFunction, model: MarketModel, spec: CostSpec,
                     state):
    """Best single rebalance value at a grid state, with its target node.

    Unaffordable targets are excluded; when every target is unaffordable
    the value is -inf and the target None.  Ties resolve to the lowest node
    index (lexicographic order of the mesh).
    """
    grid = v.grid
    nodes = grid.nodes
    n_p = grid.n_nodes
    if grid.has_wealth_axis:
        p0, j, z = state
        x = grid.wealth[j]
    else:
        p0, z = state
        x = 1.0
    e = solve_e_batch(spec, np.repeat(nodes[p0][None, :], n_p, axis=0),
                      nodes, np.full(n_p, x))
    feasible = e > 0.0
    if not feasible.any():
        return float("-inf"), None
    vals = np.full(n_p, NEG)
    cont = grid.interp(v.values, np.arange(n_p)[feasible], x * e[feasible], z)
    vals[feasible] = np.log(e[feasible]) + cont
    best = int(vals.argmax())
    return float(vals[best]), best


@dataclass
class IterationReport:
    beta: float
    tol: float
    variant: str
    init_iterations: int
    iterations: int
    final_diff: float
    error_bound: float
    h_inf: float


def _iterate(update, v, beta, stop_tol, what):
    """Apply ``update`` until the sup-norm step is at most ``stop_tol``.

    The update is a beta-contraction, so from a first step d_1 the step
    reaches stop_tol within 1 + log(stop_tol / d_1) / log(beta) sweeps in
    exact arithmetic; a run past twice that has stalled on rounding.
    """
    cap = None
    k = 0
    while True:
        k += 1
        v_new = update(v)
        diff = float(np.abs(v_new - v).max())
        v = v_new
        if diff <= stop_tol:
            return v, k, diff
        if not math.isfinite(diff):
            raise RuntimeError(f"{what}: non-finite step {diff} at sweep {k}")
        if cap is None:
            cap = 2.0 * math.log(stop_tol / diff) / math.log(beta) + 16
        if k > cap:
            raise RuntimeError(
                f"{what} did not reach step tolerance {stop_tol:.3e} within "
                f"{k} sweeps (last step {diff:.3e}); the tolerance is below "
                "what rounding allows")


def solve_discounted(model: MarketModel, spec: CostSpec, grid: StateGrid,
                     beta: float, tol: float = 1e-6,
                     tables: Optional[DpTables] = None,
                     tie_eps: float = TIE_EPS):
    """Value iteration to the discounted fixed point, with greedy policy.

    Returns (ValueFunction, Policy, IterationReport).  A spec with a fixed
    cost is solved on the grid, which must then have a wealth axis; one
    without is solved on the grid without its wealth axis.  The policy
    argmax over targets is taken once, on the converged values.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if spec.fixed > 0.0:
        if not grid.has_wealth_axis:
            raise ValueError("fixed-cost problems need a wealth axis on the grid")
    elif grid.has_wealth_axis:
        grid = grid.without_wealth()
    if tables is None or tables.grid is not grid:
        tables = build_tables(model, spec, grid)
    stop_tol = tol * (1.0 - beta) / beta
    if not stop_tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    hold = (_continuation_prop if tables.variant == "proportional"
            else _continuation_fixed)
    v_init, k_init, _ = _iterate(lambda v: hold(v, tables, beta),
                                 np.zeros(grid.shape), beta, stop_tol,
                                 "hold-only warm start")

    def update(v):
        cont, vals = _branches(v, tables, beta)
        return np.maximum(cont, vals.max(axis=1))

    values, k_main, diff = _iterate(update, v_init, beta, stop_tol,
                                    "value iteration")

    cont, vals = _branches(values, tables, beta)
    impulse = vals.max(axis=1) > cont + tie_eps
    own = np.arange(grid.n_nodes).reshape((-1,) + (1,) * (values.ndim - 1))
    target = np.where(impulse, vals.argmax(axis=1), own)
    vf = ValueFunction(grid=grid, values=values, beta=beta)
    pol = Policy(grid=grid, impulse=impulse, target=target, beta=beta)
    report = IterationReport(
        beta=beta, tol=tol, variant=tables.variant, init_iterations=k_init,
        iterations=k_main, final_diff=diff,
        error_bound=diff * beta / (1.0 - beta),
        h_inf=float(np.abs(tables.h_tab).max()),
    )
    return vf, pol, report


def span_seminorm(v: ValueFunction) -> float:
    """sup - inf of a proportional-variant value function."""
    if v.variant != "proportional":
        raise ValueError("span is tracked for the proportional variant only")
    return float(v.values.max() - v.values.min())


def span_bound(model: MarketModel, spec: CostSpec, grid: StateGrid) -> float:
    """Discount-independent bound on the span of the proportional value.

    n steps of mixing cost at most n spans of h plus n+2 worst-case
    rebalance drags, after which the factor chain has coupled up to kappa;
    solving the resulting recursion bounds the span by the returned value
    for every discount.
    """
    n, kappa = mixing_step(model)
    if n is None:
        raise RuntimeError("factor chain does not mix; span bound undefined")
    tables = build_tables(model, spec.without_fixed(), grid.without_wealth())
    h_sp = float(tables.h_tab.max() - tables.h_tab.min())
    ln_e_min = float(tables.ln_e_prop.min())
    return (n * h_sp - (n + 2) * ln_e_min) / (1.0 - kappa)


@dataclass
class GapReport:
    """Comparison of proportional and fixed-cost values on shared axes."""

    nonnegative: bool
    monotone_in_wealth: bool
    min_gap: float
    max_gap_per_wealth: np.ndarray

    @property
    def ok(self) -> bool:
        return self.nonnegative and self.monotone_in_wealth


def value_gap_check(v_fixed: ValueFunction, v_prop: ValueFunction,
                    slack: float = 1e-6) -> GapReport:
    """Check prop value >= fixed value and that the gap shrinks with wealth.

    ``slack`` absorbs the value-iteration tolerances of the two solves.
    """
    if v_fixed.variant != "fixed" or v_prop.variant != "proportional":
        raise ValueError("expected a fixed-cost and a proportional value function")
    gap = v_prop.values[:, None, :] - v_fixed.values  # (n_p, n_x, n_z)
    worse_with_wealth = np.diff(gap, axis=1).max() if gap.shape[1] > 1 else 0.0
    return GapReport(
        nonnegative=bool(gap.min() >= -slack),
        monotone_in_wealth=bool(worse_with_wealth <= slack),
        min_gap=float(gap.min()),
        max_gap_per_wealth=gap.max(axis=(0, 2)),
    )
