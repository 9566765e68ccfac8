"""Reference Bellman kernels for the tests: per-sweep broadcast fancy
indexing into the value table, as the solver computed its sweeps before
its gather tables, on tables built here from the model and the cost spec
and not from ``dp.DpTables``."""

from types import SimpleNamespace

import numpy as np

from growthopt import dp, solve_e_batch


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


def oracle_transaction_prop(cont, t):
    n_p = cont.shape[0]
    vals = t.ln_e_prop[:, :, None] + cont[None, :, :]
    idx = np.arange(n_p)
    vals[idx, idx, :] = dp.NEG
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


def oracle_transaction_fixed(cont, t):
    n_p, n_x, n_z = cont.shape
    tgt = np.arange(n_p)[None, :, None]
    j1 = np.minimum(t.imp_j0 + 1, n_x - 1)
    g_lo = cont[tgt, t.imp_j0]
    g_hi = cont[tgt, j1]
    gw = (1.0 - t.imp_frac[..., None]) * g_lo + t.imp_frac[..., None] * g_hi
    vals = t.ln_e_fac[..., None] + gw
    idx = np.arange(n_p)
    vals[idx, idx, :, :] = dp.NEG
    return vals.max(axis=1), vals.argmax(axis=1)


def oracle_branches(values, t, beta, variant):
    if variant == "proportional":
        cont = oracle_continuation_prop(values, t, beta)
        return (cont,) + oracle_transaction_prop(cont, t)
    cont = oracle_continuation_fixed(values, t, beta)
    return (cont,) + oracle_transaction_fixed(cont, t)


