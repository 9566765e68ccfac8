"""Reference Bellman kernels for the tests: per-sweep broadcast fancy
indexing into the value table, as the solver computed its sweeps before
its gather tables, on tables built here from the model and the cost spec
and not from ``dp.DpTables``.  Also the per-state impulse operator, value
iteration with the stop rule checked after every sweep, the greedy policy
and the stationarity slack of a policy."""

import math
from types import SimpleNamespace

import numpy as np

from growthopt import dp, solve_e_batch


def grid_interp(grid, values, node_idx, x, z):
    """Evaluate a value table at (node index, wealth, factor) points,
    linearly in log-wealth between the two wealth nodes around ``x``."""
    if not grid.has_wealth_axis:
        return values[node_idx, z]
    j0, frac = grid.wealth_pos(x)
    lo = values[node_idx, j0, z]
    hi = values[node_idx, np.minimum(j0 + 1, grid.n_wealth - 1), z]
    return (1.0 - frac) * lo + frac * hi


def impulse_operator(v, model, spec, state):
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
    vals = np.full(n_p, dp.NEG)
    cont = grid_interp(grid, v.values, np.arange(n_p)[feasible],
                       x * e[feasible], z)
    vals[feasible] = np.log(e[feasible]) + cont
    best = int(vals.argmax())
    return float(vals[best]), best


def per_sweep_iterate(update, v, beta, stop_tol, what):
    """Apply ``update(v)``, which returns new values, and check the stop
    rule after every sweep: the sweep count, step and errors that the
    solver's look-back over batches must reproduce."""
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


def oracle_tables(model, spec, grid):
    nodes = grid.nodes
    n_p = grid.n_nodes
    port = np.einsum("pd,qsd->pqs", nodes, model.returns)
    step_lr = np.log(port)
    dia = nodes[:, None, None, :] * model.returns[None, :, :, :] / port[..., None]
    dia_idx = grid.nearest_node(dia.reshape(-1, grid.n_assets)).reshape(port.shape)
    w_zs = model.transition[:, :, None] * model.shock_probs[None, None, :]
    h_tab = np.einsum("pqs,zqs->pz", step_lr, w_zs)
    prev = np.repeat(nodes, n_p, axis=0)
    new = np.tile(nodes, (n_p, 1))
    e_prop = solve_e_batch(spec.without_fixed(), prev, new,
                           np.ones(n_p * n_p)).reshape(n_p, n_p)
    t = SimpleNamespace(w_zs=w_zs, dia_idx=dia_idx, h_tab=h_tab,
                        ln_e_prop=np.log(e_prop))
    if not grid.has_wealth_axis:
        return t
    n_x = grid.n_wealth
    wealth = grid.wealth
    e_fac = solve_e_batch(spec, np.repeat(prev, n_x, axis=0),
                          np.repeat(new, n_x, axis=0),
                          np.tile(wealth, n_p * n_p)).reshape(n_p, n_p, n_x)
    t.ln_e_fac = np.where(e_fac > 0.0,
                          np.log(np.where(e_fac > 0.0, e_fac, 1.0)), dp.NEG)
    x_after = np.where(e_fac > 0.0, wealth[None, None, :] * e_fac, wealth[0])
    t.imp_j0, t.imp_frac = grid.wealth_pos(x_after)
    x_step = wealth[None, :, None, None] * np.exp(step_lr[:, None, :, :])
    t.stp_j0, t.stp_frac = grid.wealth_pos(x_step)
    t.stp_j1 = np.minimum(t.stp_j0 + 1, n_x - 1)
    return t


def oracle_continuation_prop(values, t, beta):
    zb = np.arange(t.w_zs.shape[0])[None, :, None]
    gathered = values[t.dia_idx, zb]
    ev = np.einsum("pqs,zqs->pz", gathered, t.w_zs)
    return t.h_tab + beta * ev


def oracle_moves_prop(cont, t):
    """Rebalance value of every (state, target), targets on axis 1."""
    n_p = cont.shape[0]
    vals = t.ln_e_prop[:, :, None] + cont[None, :, :]
    idx = np.arange(n_p)
    vals[idx, idx, :] = dp.NEG
    return vals


def oracle_transaction_prop(cont, t):
    vals = oracle_moves_prop(cont, t)
    return vals.max(axis=1), vals.argmax(axis=1)


def oracle_continuation_fixed(values, t, beta):
    n_z = t.w_zs.shape[0]
    dia = t.dia_idx[:, None, :, :]
    zb = np.arange(n_z)[None, None, :, None]
    v_lo = values[dia, t.stp_j0, zb]
    v_hi = values[dia, t.stp_j1, zb]
    vw = (1.0 - t.stp_frac) * v_lo + t.stp_frac * v_hi
    ev = np.einsum("pjqs,zqs->pjz", vw, t.w_zs)
    return t.h_tab[:, None, :] + beta * ev


def oracle_moves_fixed(cont, t):
    """Rebalance value of every (state, target), targets on axis 1."""
    n_p, n_x, n_z = cont.shape
    tgt = np.arange(n_p)[None, :, None]
    j1 = np.minimum(t.imp_j0 + 1, n_x - 1)
    g_lo = cont[tgt, t.imp_j0]
    g_hi = cont[tgt, j1]
    gw = (1.0 - t.imp_frac[..., None]) * g_lo + t.imp_frac[..., None] * g_hi
    vals = t.ln_e_fac[..., None] + gw
    idx = np.arange(n_p)
    vals[idx, idx, :, :] = dp.NEG
    return vals


def oracle_transaction_fixed(cont, t):
    vals = oracle_moves_fixed(cont, t)
    return vals.max(axis=1), vals.argmax(axis=1)


def oracle_branches(values, t, beta, variant):
    if variant == "proportional":
        cont = oracle_continuation_prop(values, t, beta)
        return (cont,) + oracle_transaction_prop(cont, t)
    cont = oracle_continuation_fixed(values, t, beta)
    return (cont,) + oracle_transaction_fixed(cont, t)


def oracle_policy(values, t, beta, variant):
    """Greedy (impulse, target) of converged values: a rebalance where it
    beats holding by more than the tie margin, else the state's own node."""
    cont, trans, argmax = oracle_branches(values, t, beta, variant)
    impulse = trans > cont + dp.TIE_EPS
    own = np.arange(values.shape[0]).reshape((-1,) + (1,) * (values.ndim - 1))
    return impulse, np.where(impulse, argmax, own)


def oracle_slack(impulse, target, w, growth_rate, t, variant):
    """Stationarity slack of a policy: the branch it takes of -w at
    beta = 1, plus w, minus the growth rate."""
    if variant == "proportional":
        cont = oracle_continuation_prop(-w, t, 1.0)
        vals = oracle_moves_prop(cont, t)
    else:
        cont = oracle_continuation_fixed(-w, t, 1.0)
        vals = oracle_moves_fixed(cont, t)
    moved = np.take_along_axis(vals, target[:, None], axis=1)[:, 0]
    return np.where(impulse, moved, cont) + w - growth_rate



def oracle_solve(model, spec, grid, beta, tol):
    """Value iteration with the reference kernels and the stop rule checked
    after every sweep: (values, impulse, target, warm sweeps, main sweeps)."""
    variant = "fixed" if spec.fixed > 0 else "proportional"
    t = oracle_tables(model, spec, grid)
    stop_tol = tol * (1.0 - beta) / beta
    hold = oracle_continuation_fixed if variant == "fixed" \
        else oracle_continuation_prop
    v_init, k_init, _ = per_sweep_iterate(
        lambda v: hold(v, t, beta), np.zeros(grid.shape), beta, stop_tol,
        "hold-only warm start")

    def update(v):
        cont, trans, _ = oracle_branches(v, t, beta, variant)
        return np.maximum(cont, trans)

    values, k_main, _ = per_sweep_iterate(update, v_init, beta, stop_tol,
                                          "value iteration")
    impulse, target = oracle_policy(values, t, beta, variant)
    return values, impulse, target, k_init, k_main
