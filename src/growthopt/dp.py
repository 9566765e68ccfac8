"""Discounted dynamic programming with an impulse (rebalance) branch.

The Bellman operator at a state (proportions p0, wealth x, factor z) takes
the better of two branches:

  hold:        h(p0, z) + beta * E v(p0 after market step, x grown, z')
  rebalance:   max over targets p' != p0 of
               ln e(p0, p', x) + h(p', z) + beta * E v(p' after step, ...)

Expectations are exact finite sums over (next factor, shock); off-grid
proportions snap to the nearest mesh node and off-grid wealth interpolates
linearly in log-wealth, with dynamics clamped to the wealth grid range.
Value iteration runs from the pure-hold value and stops at the first sweep
whose sup-norm step is at most tol*(1-beta)/beta, which bounds the distance
to the grid fixed point by tol.  The stop rule looks back over a batch of
sweeps: one pass over the batch gives the step of every sweep in it, and
the sweep returned is exactly the one that a check after every sweep
would return, with the same count and step.

Holding pays no charge and h(p, z) has no wealth axis, so from zero every
hold-only iterate on a wealth grid is constant along wealth and, in exact
arithmetic, equal to the iterate without the wealth axis: the lo/hi corner
blend only re-weights equal values (in floating point the two differ by
rounding of the blend, which the main sweeps contract away).  The pure-hold
warm start therefore runs on wealth-free tables, the ``free`` companion of
the tables of a wealth grid, and the fixed-cost solve starts from it
broadcast along wealth.

As wealth grows the fixed charge C / x vanishes, so the proportional
problem is the fixed-cost one at x = inf.  The fixed-cost tables carry it
as one more wealth column, which gathers only its own entries, with the
wealth-free gathers and ln e and corner weights (1, 0); as 1.0 * v +
0.0 * v == v, one sweep advances both problems, each bit for bit as alone.
A fixed-cost solve sweeps both until each has met its own stop rule.  The
wealth-free tables hold one solve record, keyed by discount and tolerance:
the warm start, which both solves of one discount share, and the
proportional solution, which a proportional solve at that key only turns
into a policy.

``build_tables(model, spec, grid)`` alone maps a cost to its grid: a fixed
charge needs the wealth axis, and a spec without one is built on
``grid.without_wealth()``.  Its ``DpTables`` are the one description of a
discounted problem, all that ``solve_discounted(tables, beta)``,
``bellman_step(v, tables)`` and ``average.bellman_residual`` take.  Every
value table they take or return has shape ``tables.grid.shape``; the kernel
pads and slices the x = inf column itself.  ``DpTables.variant`` names the
layout of the gathers.

``build_tables`` resolves the discretization once per problem into gather
tables: positions of the wealth corners reached by every market step and
every rebalance, with their interpolation weights and ln e broadcast to
the gathered shape.  One buffered, target-major kernel runs every sweep,
the policy extraction and the stationarity residual, in few numpy calls:

- the lo and hi wealth corners of a gather are stacked on a leading axis,
  so a gather is one ``take``, one multiply and one add of the two halves;
- rebalance values sit with their targets on axis 0, so the max over
  targets is ``np.maximum.reduce`` over contiguous slabs;
- the sentinel NEG that bars the no-op rebalance p' = p is written into
  the kernel's ln e table once, when the tables are built;
- the rebalance tables cover the wealth columns from the first that holds
  an affordable rebalance p' != p, and x = inf: in the columns below it
  the fixed charge bars every rebalance from every state, so no sweep
  evaluates one there.  Those columns of the best rebalance value are
  -inf, set once with the buffers, so that the better branch there is
  the hold value, as it is with the barred rebalances evaluated;
- results land in buffers allocated with the tables, and value iteration
  writes a batch of sweeps into a ring of value tables.

The layout changes no bit: every entry is ln e + (w_lo v_lo +
w_hi v_hi), h + beta * E v with E v from ``np.einsum``, and a max, so
values, sweep counts and policies equal those of the reference kernels in
the tests.  Entries barred by NEG hold NEG plus a hold value, far below
holding, so they never win.  Sweeps keep only the best rebalance value
per state; the argmax that names the target is taken once, when the
converged values are turned into a policy, on rebalance values of every
wealth column, NEG in those the tables leave out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .costs import CostSpec, solve_e_batch
from .grid import Policy, StateGrid, ValueFunction
from .market import MarketModel, mixing_step

NEG = -1e18  # sentinel for unaffordable rebalances; never interpolated
TIE_EPS = 1e-10  # rebalance must beat holding by more than this
SWEEP_BATCH = 64  # sweeps of value iteration per check of the stop rule
RING_BUDGET = 1 << 20  # bytes of value tables one batch holds (~1 MB)

# np.einsum without its array-function dispatch, which costs about as much
# as the contraction itself on a sweep's tables; same code, same bits
_einsum = getattr(np.einsum, "__wrapped__", np.einsum)


@dataclass
class DpTables:
    """Gather tables and sweep buffers shared by all sweeps on one grid.

    The kernel's value tables are C-ordered, of shape ``kernel_shape``:
    (n_p, n_x + 1, n_z) on grids with a wealth axis, (n_p, n_z) without.
    Column n_x of the wealth axis is x = inf, where the fixed charge C / x
    vanishes: it holds the proportional problem of ``free``, and no
    entry on the grid reads it, nor it an entry on the grid.  ``hold_idx``
    holds flat positions into ``values.ravel()``; ``move_rows`` holds rows
    of the hold values viewed as (n_p * (n_x + 1), n_z), since a rebalance
    keeps the factor.  On wealth grids a gather reads two wealth corners,
    stacked on axis 0 of its index and weight tables (lo, hi; weights
    1 - frac, frac); the x = inf column reads its own entry as both, with
    weights (1, 0).  Rebalance tables are target-major: axis 0 is the
    target p', axis 1 the state's node p.  On wealth grids they cover the
    columns n_barred to n_x of the state's wealth axis: the first
    ``n_barred`` columns, in which every rebalance p' != p is unaffordable
    (all n_x when none on the grid is affordable), are left out, and x =
    inf always stays.  ``n_barred`` is read from their shape.  Weights, ln
    e and h come broadcast to the full shape of the operation they enter,
    so a sweep is a few takes and elementwise operations, with no index
    arithmetic.

    Tables of a fixed charge carry ``free``, the tables of the cost
    without it, so on the grid without its wealth axis; every hold-only
    warm start runs on those, and they hold the solve record.

    The buffers are scratch of the kernel, overwritten by every sweep on
    these tables; results read from them must be used before the next one.
    """

    grid: StateGrid
    w_zs: np.ndarray        # (n_z, n_z', n_s) transition x shock weights
    h_tab: np.ndarray       # (n_p, n_z) expected one-step log return
    # state after a market step: ([2,] n_p, [n_x + 1,] n_z', n_s)
    hold_idx: np.ndarray
    # ln e of a rebalance p -> p', target-major, NEG where the charge
    # exceeds wealth and on the diagonal p' = p: (n_p', n_p, [n_m,] n_z),
    # n_m = n_x + 1 - n_barred wealth columns; the one ln e table, whose
    # entries above NEG are the drags of the affordable rebalances
    move_ln_e: np.ndarray
    # wealth grids: weights of the two wealth corners of hold_idx
    hold_w: Optional[np.ndarray] = None
    # wealth grids: rows of the post-cost wealth corners of the target,
    # (2, n_p', n_p, n_m), and their weights, (2, n_p', n_p, n_m, n_z)
    move_rows: Optional[np.ndarray] = None
    move_w: Optional[np.ndarray] = None
    # wealth grids: the wealth-free companion, built with
    # spec.without_fixed(), on which the hold-only warm start runs
    free: Optional["DpTables"] = None
    # wealth-free tables: the last solve record, ((beta, stop_tol), warm
    # start values, warm start sweeps, proportional (values, sweeps, step)
    # or None while only the warm start is run), written whole by a solve
    solved: Optional[tuple] = field(default=None, init=False, repr=False)
    # kernel buffers: hold value (kernel_shape), rebalance values (shape of
    # move_ln_e), best rebalance value (kernel_shape, -inf in the columns
    # the rebalance tables leave out), blended market-step gather (wealth
    # grids)
    cont: np.ndarray = field(init=False, repr=False)
    moves: np.ndarray = field(init=False, repr=False)
    best: np.ndarray = field(init=False, repr=False)
    blend: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        wealth = self.grid.has_wealth_axis
        n_p, n_z = self.grid.n_nodes, self.grid.n_z
        self.kernel_shape = ((n_p, self.grid.n_wealth + 1, n_z) if wealth
                             else (n_p, n_z))
        # leading wealth columns that the rebalance tables leave out
        self.n_barred = (self.kernel_shape[1] - self.move_ln_e.shape[2]
                         if wealth else 0)
        self.cont = np.empty(self.kernel_shape)
        self.moves = np.empty(self.move_ln_e.shape)
        # no sweep writes the left-out columns: -inf there makes the better
        # branch the hold value, as the barred rebalances did
        self.best = np.full(self.kernel_shape, -np.inf)
        self.blend = np.empty(self.hold_w.shape[1:]) if wealth else None
        # E v contracts the (q, s) axes of the gather; h is stored at the
        # kernel's shape, as an add of a broadcast operand is about three
        # times slower; the rebalance gathers rows of the hold values, or
        # broadcasts them over the state's node, and reduces into the
        # columns of best that the rebalance tables cover
        self._ev = "pjqs,zqs->pjz" if wealth else "pqs,zqs->pz"
        self._h = (np.ascontiguousarray(np.broadcast_to(
            self.h_tab[:, None, :], self.kernel_shape)) if wealth
            else self.h_tab)
        self._cont_moves = (self.cont.reshape(-1, n_z) if wealth
                            else self.cont[:, None])
        self._best_moves = self.best[:, self.n_barred:]

    @property
    def variant(self) -> str:
        """Gather layout: "fixed" on a wealth grid, else "proportional"."""
        return "fixed" if self.grid.has_wealth_axis else "proportional"


def _sentinel_diagonal(ln_e):
    """Target-major copy of a source-major ln e table (axes p, p', ...),
    with NEG on the diagonal so that no sweep takes the no-op rebalance."""
    out = np.swapaxes(ln_e, 0, 1).copy()
    idx = np.arange(out.shape[0])
    out[idx, idx] = NEG
    return out


def build_tables(model: MarketModel, spec: CostSpec, grid: StateGrid) -> DpTables:
    """Tables of the discounted problem of ``spec``: on ``grid`` (with a
    wealth axis) for a fixed charge, else on ``grid.without_wealth()``."""
    if spec.fixed > 0.0:
        if not grid.has_wealth_axis:
            raise ValueError("fixed-cost problems need a wealth axis on the grid")
    elif grid.has_wealth_axis:
        grid = grid.without_wealth()
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
        ln_e = np.log(solve_e_batch(spec, prev, new,
                                    np.ones(n_p * n_p)).reshape(n_p, n_p))
        move_ln_e = np.repeat(_sentinel_diagonal(ln_e)[..., None], n_z, axis=2)
        return DpTables(grid=grid, w_zs=w_zs, h_tab=h_tab,
                        hold_idx=dia_idx * n_z + q, move_ln_e=move_ln_e)

    n_x = grid.n_wealth
    n_c = n_x + 1  # wealth columns of the kernel: the grid's and x = inf
    wealth = grid.wealth
    free = build_tables(model, spec.without_fixed(), grid)
    prev3 = np.repeat(prev, n_x, axis=0)
    new3 = np.repeat(new, n_x, axis=0)
    x3 = np.tile(wealth, n_p * n_p)
    e_fac = solve_e_batch(spec, prev3, new3, x3).reshape(n_p, n_p, n_x)
    ln_e_fac = np.where(e_fac > 0.0, np.log(np.where(e_fac > 0.0, e_fac, 1.0)), NEG)
    x_after = np.where(e_fac > 0.0, wealth[None, None, :] * e_fac, wealth[0])
    imp_j0, imp_frac = grid.wealth_pos(np.swapaxes(x_after, 0, 1))

    x_step = wealth[None, :, None, None] * np.exp(step_lr[:, None, :, :])
    stp_j0, stp_frac = grid.wealth_pos(x_step)

    def with_inf(a, col, axis):
        # a with the x = inf entries col appended on its wealth axis
        shape = a.shape[:axis] + (1,) + a.shape[axis + 1:]
        return np.concatenate([a, np.broadcast_to(col, shape)], axis=axis)

    def stacked(lo, hi, shape):
        return np.ascontiguousarray(np.broadcast_to(np.stack([lo, hi]),
                                                    (2,) + shape))

    def rows(node, j0, axis):
        # rows (node, wealth node j0 or the one above it) of a value table
        # viewed as (n_p * n_c, n_z); the node's x = inf row is both
        # corners of the appended column, so that column reads only itself
        inf = node * n_c + n_x
        lo = with_inf(node * n_c + j0, inf, axis)
        hi = with_inf(node * n_c + np.minimum(j0 + 1, n_x - 1), inf, axis)
        return stacked(lo, hi, lo.shape)

    # the x = inf column blends its one corner with weights (1, 0): exactly
    # the value, so it sweeps the proportional problem bit for bit
    stp_frac = with_inf(stp_frac, 0.0, 1)
    imp_frac = with_inf(imp_frac, 0.0, 2)
    # the rebalance tables cover the wealth columns from the first that
    # holds an affordable rebalance p' != p, and x = inf, appended as open;
    # below it every rebalance is barred from every state, so no sweep
    # evaluates them
    ln_e_t = _sentinel_diagonal(ln_e_fac)
    open_cols = np.append((ln_e_t > NEG).any(axis=(0, 1)), True)
    n_barred = int(np.argmax(open_cols))
    # weights and ln e are stored at the full gathered shape: multiplying
    # by a broadcast (..., 1) operand instead made a sweep about 30 % slower
    imp_frac = imp_frac[..., n_barred:, None]
    full = imp_frac.shape[:-1] + (n_z,)
    move_ln_e = with_inf(np.repeat(ln_e_t[..., None], n_z, axis=3),
                         free.move_ln_e[:, :, None], 2)
    return DpTables(
        grid=grid, w_zs=w_zs, h_tab=h_tab, free=free,
        hold_idx=rows(dia_idx[:, None], stp_j0, 1) * n_z + q,
        hold_w=stacked(1.0 - stp_frac, stp_frac, stp_frac.shape),
        move_rows=np.ascontiguousarray(
            rows(np.arange(n_p)[:, None, None], imp_j0, 2)[..., n_barred:]),
        move_w=stacked(1.0 - imp_frac, imp_frac, full),
        move_ln_e=np.ascontiguousarray(move_ln_e[:, :, n_barred:]),
    )


# ----------------------------------------------------------------------
# the sweep kernel
# ----------------------------------------------------------------------

def _gather(values, idx, w, out, axis=None):
    """Values at the positions ``idx`` along ``axis``; given weights, the
    blend w[0] * v[idx[0]] + w[1] * v[idx[1]] of two wealth corners, into
    out."""
    g = values.take(idx, axis=axis)
    if w is None:
        return g
    np.multiply(g, w, out=g)
    return np.add(g[0], g[1], out=out)


def _hold(values, t: DpTables, beta: float, out):
    """Hold-branch value h + beta * E v of every state, into out."""
    _einsum(t._ev, _gather(values, t.hold_idx, t.hold_w, t.blend), t.w_zs,
            out=out)
    np.multiply(out, beta, out=out)
    return np.add(out, t._h, out=out)


def _moves(t: DpTables):
    """Rebalance value ln e + hold value at the target, from the hold values
    in ``t.cont``, of every (target, state), targets on axis 0, into
    ``t.moves``."""
    cont = t._cont_moves
    if t.move_rows is not None:
        cont = _gather(cont, t.move_rows, t.move_w, t.moves, axis=0)
    return np.add(t.move_ln_e, cont, out=t.moves)


def _sweep(values, t: DpTables, beta: float, out):
    """One Bellman sweep: the better of holding and the best rebalance."""
    cont = _hold(values, t, beta, t.cont)
    np.maximum.reduce(_moves(t), axis=0, out=t._best_moves)
    return np.maximum(cont, t.best, out=out)


def _padded(values, t: DpTables):
    """Values of ``t.grid.shape`` in the kernel's layout: on wealth grids
    with a zero x = inf column, which no entry on the grid reads."""
    if not t.grid.has_wealth_axis:
        return values
    out = np.zeros(t.kernel_shape)
    out[:, :-1] = values
    return out


def _on_grid(a, t: DpTables):
    """The entries of a kernel table that lie on the grid: on wealth grids,
    all but the x = inf column, the last but one axis."""
    return a[..., :-1, :] if t.grid.has_wealth_axis else a


def _branches(values, t: DpTables, beta: float):
    """Hold value per state and rebalance value per (state, target), of
    values of ``t.grid.shape``.

    Targets sit on axis 1 of the returned rebalance table, a view of the
    kernel's target-major buffer, or, where the rebalance tables leave out
    wealth columns, a copy of it with NEG in those: every wealth column is
    there.  The policy extraction takes its max and argmax, the residual
    the entry at the policy's target.
    """
    cont = _hold(_padded(values, t), t, beta, t.cont)
    moves = _moves(t)
    if t.n_barred:
        full = np.full(moves.shape[:2] + t.kernel_shape[1:], NEG)
        full[:, :, t.n_barred:] = moves
        moves = full
    return _on_grid(cont, t), _on_grid(np.moveaxis(moves, 0, 1), t)


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


def bellman_step(v: ValueFunction, tables: DpTables) -> ValueFunction:
    """One application of the two-branch Bellman operator of ``tables``.

    Tables built for values of another shape are refused.
    """
    _require_fit(v.values, tables, f"{v.variant} values")
    out = _sweep(_padded(v.values, tables), tables, v.beta,
                 np.empty(tables.kernel_shape))
    return v.copy_with(np.ascontiguousarray(_on_grid(out, tables)))


@dataclass
class IterationReport:
    beta: float
    variant: str
    init_iterations: int
    iterations: int
    final_diff: float

    @property
    def error_bound(self) -> float:
        """Bound on the sup-norm distance to the grid fixed point."""
        return self.final_diff * self.beta / (1.0 - self.beta)


def _iterate(update, v, beta, stop_tol, what, *args):
    """Apply ``update(v, *args, out)``, which writes the next values into
    ``out``, until the sup-norm step is at most ``stop_tol``; return the
    values of that sweep, its count and its step.

    The update is a beta-contraction, so from a first step d_1 the step
    reaches stop_tol within 1 + log(stop_tol / d_1) / log(beta) sweeps in
    exact arithmetic; a run past twice that has stalled on rounding.

    The rule looks back over a batch of sweeps, written into a ring of value
    tables: one subtract, abs and row max give the step of every sweep in
    it, bit for bit, and the first at most stop_tol is returned; the sweeps
    after it are dropped.  The first batch is one sweep, whose step sets the
    cap; each later batch ends at the last sweep the cap allows.  So the
    sweep returned, or named by an error, is the one that a check after
    every sweep finds.  Sweeps after a non-finite one run on inf or NaN, so
    their floating-point warnings are silenced.

    A fused iteration advances problems that do not read each other's
    entries with one update.  It passes for ``what`` a tuple of parts
    ``(name, index)``: the values ``v[index]`` of each part are checked by
    the rule on their own, as if iterated alone, and named ``name`` in its
    errors, the earliest sweep's first.  The update runs until every part
    has stopped, and the values, count and step of every part are returned
    in a list.
    """
    parts = [(what, ())] if isinstance(what, str) else list(what)
    found = [None] * len(parts)
    caps = [None] * len(parts)
    v = np.asarray(v, dtype=float)
    n_max = max(1, min(SWEEP_BATCH, RING_BUDGET // max(1, 2 * v.nbytes)))
    ring = np.empty((n_max + 1,) + v.shape)
    steps = np.empty((n_max,) + v.shape)
    tabs = list(ring)
    ring[0] = v
    k = 0
    live = list(range(len(parts)))
    while live:
        # the first sweep count above the smallest cap is the last one run
        n = 1 if k == 0 else min(
            [n_max] + [math.floor(caps[i]) + 1 - k for i in live])
        errors = []
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n):
                update(tabs[j], *args, tabs[j + 1])
            d = np.subtract(ring[1:n + 1], ring[:n], out=steps[:n])
            d = np.abs(d, out=d)
            for i in live:
                name, index = parts[i]
                d_i = d[(slice(None),) + index].reshape(n, -1).max(axis=1)
                # NaN fails both comparisons
                ends = np.flatnonzero(~((d_i > stop_tol) & (d_i < np.inf)))
                if ends.size:
                    j = int(ends[0])
                    diff = float(d_i[j])
                    if diff <= stop_tol:
                        found[i] = (ring[j + 1][index].copy(), k + j + 1, diff)
                    else:
                        errors.append((k + j + 1, i, f"{name}: non-finite "
                                       f"step {diff} at sweep {k + j + 1}"))
                    continue
                diff = float(d_i[-1])
                if caps[i] is None:
                    caps[i] = (2.0 * math.log(stop_tol / diff) / math.log(beta)
                               + 16)
                if k + n > caps[i]:
                    errors.append((k + n, i, (
                        f"{name} did not reach step tolerance {stop_tol:.3e} "
                        f"within {k + n} sweeps (last step {diff:.3e}); the "
                        "tolerance is below what rounding allows")))
        if errors:
            raise RuntimeError(min(errors)[2])
        k += n
        live = [i for i in live if found[i] is None]
        ring[0] = ring[n]
    return found[0] if isinstance(what, str) else found


# parts of a fixed-cost solve: the grid and the proportional one at x = inf
_FIXED_PARTS = (("value iteration", np.s_[:, :-1]),
                ("proportional value iteration", np.s_[:, -1]))


def solve_discounted(tables: DpTables, beta: float, tol: float = 1e-6):
    """Value iteration to the discounted fixed point, with greedy policy.

    Returns (ValueFunction, Policy, IterationReport) on ``tables.grid``,
    the grid that ``build_tables`` chose for the cost.  The policy argmax
    over targets is taken once, on the converged values.

    The hold-only warm start runs on wealth-free tables: ``tables.free``,
    or the tables themselves when they have no wealth axis.  A fixed-cost
    solve starts its main sweeps from it broadcast along wealth, and sweeps
    the proportional problem along in the x = inf column of its tables
    until both have stopped.

    The wealth-free tables hold one solve record, keyed by (beta,
    stop_tol): the warm start and, once either solve has swept it, the
    proportional solution.  A solve at the key of the record runs no warm
    start, and a proportional one takes the solution instead of sweeping,
    bit for bit what it would find; a solve at another key replaces the
    record.  ``init_iterations`` reports the warm start's sweeps either way.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    stop_tol = tol * (1.0 - beta) / beta
    if not 0.0 < stop_tol < math.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")

    grid = tables.grid
    free = tables.free or tables
    key = (beta, stop_tol)
    if free.solved is not None and free.solved[0] == key:
        _, v_init, k_init, prop = free.solved
    else:
        v_init, k_init, _ = _iterate(_hold, np.zeros(free.grid.shape), beta,
                                     stop_tol, "hold-only warm start", free,
                                     beta)
        v_init.setflags(write=False)
        prop = None
    if grid.has_wealth_axis:
        (values, k_main, diff), prop = _iterate(
            _sweep, np.broadcast_to(v_init[:, None, :], tables.kernel_shape),
            beta, stop_tol, _FIXED_PARTS, tables, beta)
    else:
        if prop is None:
            prop = _iterate(_sweep, v_init, beta, stop_tol, "value iteration",
                            tables, beta)
        values, k_main, diff = prop
        values = values.copy()  # the caller may write to what it gets
    free.solved = (key, v_init, k_init, prop)

    cont, vals = _branches(values, tables, beta)
    impulse = vals.max(axis=1) > cont + TIE_EPS
    own = np.arange(grid.n_nodes).reshape((-1,) + (1,) * (values.ndim - 1))
    target = np.where(impulse, vals.argmax(axis=1), own)
    vf = ValueFunction(grid=grid, values=values, beta=beta)
    pol = Policy(grid=grid, impulse=impulse, target=target, beta=beta)
    report = IterationReport(beta, tables.variant, k_init, k_main, diff)
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
    tables = build_tables(model, spec.without_fixed(), grid)
    h_sp = float(tables.h_tab.max() - tables.h_tab.min())
    # the worst drag of a real rebalance: the sentinel diagonal of the
    # sweeps' ln e would make the bound vacuous, and the no-op drags 0
    t = tables.move_ln_e
    ln_e_min = float(t.min(initial=0.0, where=t > NEG))
    return (n * h_sp - (n + 2) * ln_e_min) / (1.0 - kappa)
