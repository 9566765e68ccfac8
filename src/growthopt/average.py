"""Average-growth optimization by the vanishing-discount limit.

Discounted values blow up like 1/(1-beta) as the discount approaches one,
but their span stays bounded, so (1-beta) times the peak discounted value
converges to the optimal long-run growth rate.  This module sweeps an
ascending discount schedule, extracts the greedy policy at the largest
discount, checks the stationarity (Bellman) inequality of the resulting
(policy, relative value, growth rate) triple, and builds the wealth-gated
strategy that lifts a proportional-cost policy to the fixed-cost problem.
The stationarity check runs ``dp``'s sweep kernel at discount one, so it
interpolates exactly as the sweeps do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .costs import CostConstants, CostSpec
from .dp import (DpTables, _branches, _require_fit, build_tables,
                 solve_discounted)
from .grid import Policy, StateGrid, ValueFunction
from .market import MarketModel

CROSS_TOL = 5e-3  # allowed gap of the fixed-cost and proportional growth rates


@dataclass
class VanishingDiscountReport:
    """Per-discount diagnostics of the vanishing-discount sweep.

    ``growth_rate`` is the estimate at the largest discount (the scheduled
    limit point); a two-point Richardson extrapolation in (1-beta) is
    reported alongside, not substituted.
    """

    betas: list
    peak_values: list              # sup of the proportional value per beta
    growth_estimates: list         # (1-beta) * peak value
    growth_rate: float
    growth_rate_extrapolated: float
    relative_value_range: list     # (min, max) of w = peak - value per beta
    variant_peak_values: list      # sup of the solved variant's value per beta
    policy_change_fraction: float
    converged: bool
    diagnostics: dict = field(default_factory=dict)
    # in-memory extras for downstream checks (not serialized)
    policy: Optional[Policy] = None
    prop_policy: Optional[Policy] = None
    prop_value: Optional[ValueFunction] = None
    fixed_value: Optional[ValueFunction] = None
    relative_value: Optional[np.ndarray] = None
    tables: Optional[DpTables] = None   # the returned policy's variant
    # wall seconds per stage: "build_tables" and "solve.<variant>.<beta>"
    stage_seconds: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "betas": list(map(float, self.betas)),
            "m_beta": list(map(float, self.peak_values)),
            "lambda_estimates": list(map(float, self.growth_estimates)),
            "lambda": float(self.growth_rate),
            "lambda_extrapolated": float(self.growth_rate_extrapolated),
            "w_beta_extremes": [[float(a), float(b)]
                                for a, b in self.relative_value_range],
            "variant_sup_values": list(map(float, self.variant_peak_values)),
            "policy_change_fraction": float(self.policy_change_fraction),
            "converged": bool(self.converged),
            "diagnostics": self.diagnostics,
        }


def _policy_difference(a: Policy, b: Policy) -> float:
    changed = (a.impulse != b.impulse) | (a.target != b.target)
    return float(changed.mean())


def vanishing_discount(model: MarketModel, spec: CostSpec, grid: StateGrid,
                       betas: Sequence[float], tol: float = 1e-6):
    """Sweep the discount schedule and extract the average-growth policy.

    For a fixed-cost spec both discounted problems are solved per discount:
    the proportional one supplies the peak value, the fixed-cost one the
    relative value and the returned policy.  In both, a rebalance must beat
    holding by more than ``dp.TIE_EPS``.  The fixed-cost solve runs first:
    it runs the hold-only warm start, once per discount, and sweeps the
    proportional problem along in the x = inf column of its tables until
    both have stopped, then records that solution on their wealth-free
    companion.  The proportional solve there takes it and only extracts
    its policy, so its stage holds no sweeps; both reports carry the counts
    and steps of their variant solved alone.  Returns (report, policy).
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("betas must hold at least one discount factor")
    if any(not 0 < b < 1 for b in betas):
        raise ValueError("betas must lie in (0, 1)")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly ascending")

    has_fixed = spec.fixed > 0.0
    seconds = {}
    clock = time.perf_counter()
    tables = build_tables(model, spec, grid)
    # the proportional problem of a fixed charge is solved by the fixed-cost
    # solve and recorded on the tables' wealth-free companion
    prop_tables = tables.free or tables
    seconds["build_tables"] = time.perf_counter() - clock

    peak, estimates, w_range, variant_peak = [], [], [], []
    iters, warm, steps = {}, {}, {}
    last = {}
    prev_policy = None
    change_fraction = float("nan")
    for beta in betas:
        if has_fixed:
            clock = time.perf_counter()
            v_fix, pol_fix, rep_f = solve_discounted(tables, beta, tol=tol)
            seconds[f"solve.fixed.{beta}"] = time.perf_counter() - clock
        clock = time.perf_counter()
        v_prop, pol_prop, rep_p = solve_discounted(prop_tables, beta, tol=tol)
        seconds[f"solve.proportional.{beta}"] = time.perf_counter() - clock
        m_beta = float(v_prop.values.max())
        if has_fixed:
            w = m_beta - v_fix.values
            policy = pol_fix
            variant_sup = float(v_fix.values.max())
            reps = (rep_p, rep_f)
        else:
            v_fix = None
            w = m_beta - v_prop.values
            policy = pol_prop
            variant_sup = m_beta
            reps = (rep_p,)
        iters[beta] = tuple(r.iterations for r in reps)
        warm[beta] = tuple(r.init_iterations for r in reps)
        steps[beta] = tuple(r.final_diff for r in reps)
        peak.append(m_beta)
        estimates.append((1.0 - beta) * m_beta)
        w_range.append((float(w.min()), float(w.max())))
        variant_peak.append(variant_sup)
        if prev_policy is not None:
            change_fraction = _policy_difference(prev_policy, policy)
        prev_policy = policy
        last = {"v_prop": v_prop, "pol_prop": pol_prop, "v_fix": v_fix,
                "policy": policy, "w": w}

    if len(betas) >= 2:
        b1, b2 = betas[-2], betas[-1]
        l1, l2 = estimates[-2], estimates[-1]
        extrap = (l2 * (1 - b1) - l1 * (1 - b2)) / ((1 - b1) - (1 - b2))
    else:
        extrap = estimates[-1]

    # the policy extracted at the largest discount is the average-growth
    # policy; tag it as such (the report keeps the discount diagnostics)
    final_policy = replace(last["policy"], beta="average")

    report = VanishingDiscountReport(
        betas=betas,
        peak_values=peak,
        growth_estimates=estimates,
        growth_rate=estimates[-1],
        growth_rate_extrapolated=float(extrap),
        relative_value_range=w_range,
        variant_peak_values=variant_peak,
        policy_change_fraction=change_fraction,
        converged=True,
        diagnostics={
            # per beta, proportional solve first: main and warm-start
            # sweeps, and the step of the sweep returned
            "iterations": {str(b): v for b, v in iters.items()},
            "warm_iterations": {str(b): v for b, v in warm.items()},
            "final_step": {str(b): v for b, v in steps.items()},
            "last_step": abs(estimates[-1] - estimates[-2]) if len(betas) >= 2 else 0.0,
            "tol": tol,
        },
        policy=final_policy,
        prop_policy=last["pol_prop"],
        prop_value=last["v_prop"],
        fixed_value=last["v_fix"],
        relative_value=last["w"],
        tables=tables,
        stage_seconds=seconds,
    )
    return report, final_policy


@dataclass
class ResidualReport:
    """Pointwise slack of the average-growth stationarity inequality."""

    min_slack: float
    mean_slack: float
    slack: np.ndarray


def bellman_residual(policy: Policy, w: np.ndarray, growth_rate: float,
                     tables: DpTables) -> ResidualReport:
    """Slack of reward(action) + w - E_q w - growth_rate at every state.

    ``tables`` describe the problem the policy was solved for, as built by
    ``build_tables``; tables built for another shape are refused.  ``w`` is
    the nonnegative relative value (peak minus value).  The slack
    realizes the limit stationarity inequality; plugging in the greedy
    solution of a discounted problem makes it exactly minus (1-beta) times
    the expected relative value, so it approaches zero from below as the
    discount schedule tightens and acceptance thresholds should budget for
    (1-beta) times the largest relative value.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != policy.impulse.shape:
        raise ValueError("relative value and policy shapes disagree")
    _require_fit(w, tables, "relative values")
    # the sweep branches of -w at beta = 1: holding is worth h - E w and a
    # rebalance ln e plus that at its target, interpolated as in the sweeps
    cont, vals = _branches(-w, tables, 1.0)
    moved = np.take_along_axis(vals, policy.target[:, None], axis=1)[:, 0]
    slack = np.where(policy.impulse, moved, cont) + w - growth_rate
    return ResidualReport(min_slack=float(slack.min()),
                          mean_slack=float(slack.mean()), slack=slack)


@dataclass
class CrossCheckReport:
    """Agreement of fixed-cost and proportional-cost growth rates."""

    growth_rate_fixed: float
    growth_rate_prop: float
    difference: float
    cross_tol: float
    fixed_report: VanishingDiscountReport

    @property
    def ok(self) -> bool:
        return abs(self.difference) <= self.cross_tol


def cross_check_costs(model: MarketModel, spec: CostSpec, grid: StateGrid,
                      betas: Sequence[float], tol: float = 1e-6
                      ) -> CrossCheckReport:
    """Compare the fixed-cost growth estimate against the proportional one.

    The fixed-cost estimate is (1-beta) times the peak of the fixed-cost
    value at the largest discount; it sits below the proportional estimate
    by the fixed-charge drag at the top of the wealth grid, so the gap
    shrinks as the wealth grid is extended upward.  The proportional
    estimate is the growth rate of the same sweep, which solves the
    proportional problem at every discount for its peak value.
    """
    rep_fixed, _ = vanishing_discount(model, spec, grid, betas, tol=tol)
    lam_fixed = (1.0 - betas[-1]) * rep_fixed.variant_peak_values[-1]
    lam_prop = rep_fixed.growth_rate
    return CrossCheckReport(
        growth_rate_fixed=float(lam_fixed),
        growth_rate_prop=float(lam_prop),
        difference=float(lam_fixed - lam_prop),
        cross_tol=CROSS_TOL,
        fixed_report=rep_fixed,
    )


@dataclass(frozen=True)
class MimickingPolicy:
    """Wealth-gated lift of a proportional-cost policy to fixed costs.

    Below ``wealth_threshold`` no transactions happen; once wealth has
    dipped below the threshold, trading resumes only after it recovers past
    ``resync_wealth``, at which point the portfolio re-syncs to the base
    policy's target.  Above the threshold (and not recovering) the base
    policy is followed unchanged.
    """

    base: Policy
    wealth_threshold: float
    resync_wealth: float


def build_mimicking(base: Policy, constants: CostConstants) -> MimickingPolicy:
    if not base.wealth_free:
        raise ValueError("the base policy must not depend on wealth "
                         "(solve the proportional problem to obtain one)")
    return MimickingPolicy(
        base=base,
        wealth_threshold=constants.wealth_threshold,
        resync_wealth=constants.resync_wealth,
    )
