"""Average-growth optimization by the vanishing-discount limit.

Discounted values blow up like 1/(1-beta) as the discount approaches one,
but their span stays bounded, so (1-beta) times the peak discounted value
converges to the optimal long-run growth rate.  This module sweeps an
ascending discount schedule, extracts the greedy policy at the largest
discount and checks the stationarity (Bellman) inequality of the resulting
(policy, relative value, growth rate) triple; ``vanishing_discount``
returns all of it as one ``VanishingDiscountReport``.  It also builds the
wealth-gated strategy that lifts a proportional-cost policy to the
fixed-cost problem.  The stationarity check is ``dp.bellman_residual``,
which runs the sweep kernel at discount one beside the rest of it, so it
interpolates exactly as the sweeps do; this module binds it under its own
name and calls it by that name.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from .costs import CostConstants, CostSpec
from .dp import (ResidualReport, bellman_residual, build_tables,
                 solve_discounted)
from .grid import Policy, StateGrid, ValueFunction
from .market import MarketModel


@dataclass
class VanishingDiscountReport:
    """The one record of an average-growth run: per-discount diagnostics,
    the policies and values at the largest discount, and the stationarity
    residual of the returned policy.

    ``growth_rate`` is the estimate at the largest discount (the scheduled
    limit point); a two-point Richardson extrapolation in (1-beta) is
    reported alongside, not substituted.  ``policy`` and ``value`` are of
    the spec's own problem, fixed-cost for a fixed charge, else
    proportional; ``prop_policy`` and ``prop_value`` are always of the
    proportional one.  ``residual`` is the slack of ``policy`` with the
    relative value ``peak_values[-1] - value.values`` at ``growth_rate``.
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
    # in memory only, at the largest discount; ``policy`` tagged "average"
    policy: Policy
    value: ValueFunction
    prop_policy: Policy
    prop_value: ValueFunction
    residual: ResidualReport
    diagnostics: dict = field(default_factory=dict)
    # wall seconds per stage: "build_tables", "solve.<variant>.<beta>" and
    # "residual"
    stage_seconds: dict = field(default_factory=dict)

    @property
    def growth_rate_fixed(self) -> float:
        """(1-beta) times the peak of the spec's own value at the largest
        discount: below ``growth_rate`` by the fixed-charge drag at the top
        of the wealth grid, equal to it without a fixed charge."""
        return (1.0 - self.betas[-1]) * self.variant_peak_values[-1]

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
            "residual_summary": {"min_slack": self.residual.min_slack,
                                 "mean_slack": self.residual.mean_slack},
        }


def _policy_difference(a: Policy, b: Policy) -> float:
    changed = (a.impulse != b.impulse) | (a.target != b.target)
    return float(changed.mean())


def vanishing_discount(model: MarketModel, spec: CostSpec, grid: StateGrid,
                       betas: Sequence[float], tol: float = 1e-6
                       ) -> VanishingDiscountReport:
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
    and steps of their variant solved alone.  The stationarity residual of
    the returned policy runs last, on the tables of the sweeps.  Returns
    the ``VanishingDiscountReport``, whose ``policy`` is the average-growth
    policy.
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
            value, policy, reps = v_fix, pol_fix, (rep_p, rep_f)
        else:
            value, policy, reps = v_prop, pol_prop, (rep_p,)
        w = m_beta - value.values
        iters[beta] = tuple(r.iterations for r in reps)
        warm[beta] = tuple(r.init_iterations for r in reps)
        steps[beta] = tuple(r.final_diff for r in reps)
        peak.append(m_beta)
        estimates.append((1.0 - beta) * m_beta)
        w_range.append((float(w.min()), float(w.max())))
        variant_peak.append(float(value.values.max()))
        if prev_policy is not None:
            change_fraction = _policy_difference(prev_policy, policy)
        prev_policy = policy

    if len(betas) >= 2:
        b1, b2 = betas[-2], betas[-1]
        l1, l2 = estimates[-2], estimates[-1]
        extrap = (l2 * (1 - b1) - l1 * (1 - b2)) / ((1 - b1) - (1 - b2))
    else:
        extrap = estimates[-1]

    # the policy extracted at the largest discount is the average-growth
    # policy; tag it as such (the report keeps the discount diagnostics)
    final_policy = replace(policy, beta="average")
    clock = time.perf_counter()
    residual = bellman_residual(final_policy, w, estimates[-1], tables)
    seconds["residual"] = time.perf_counter() - clock

    return VanishingDiscountReport(
        betas=betas,
        peak_values=peak,
        growth_estimates=estimates,
        growth_rate=estimates[-1],
        growth_rate_extrapolated=float(extrap),
        relative_value_range=w_range,
        variant_peak_values=variant_peak,
        policy_change_fraction=change_fraction,
        converged=True,
        policy=final_policy,
        value=value,
        prop_policy=pol_prop,
        prop_value=v_prop,
        residual=residual,
        diagnostics={
            # per beta, proportional solve first: main and warm-start
            # sweeps, and the step of the sweep returned
            "iterations": {str(b): v for b, v in iters.items()},
            "warm_iterations": {str(b): v for b, v in warm.items()},
            "final_step": {str(b): v for b, v in steps.items()},
            "last_step": abs(estimates[-1] - estimates[-2]) if len(betas) >= 2 else 0.0,
            "tol": tol,
        },
        stage_seconds=seconds,
    )


@dataclass(frozen=True)
class MimickingPolicy:
    """Wealth-gated lift of a proportional-cost policy to fixed costs.

    Below ``wealth_threshold`` no transactions happen; once wealth has
    dipped below the threshold, trading resumes only after it recovers past
    ``resync_wealth``, at which point the portfolio re-syncs to the base
    policy's target.  Above the threshold (and not recovering) the base
    policy is followed unchanged.  Both levels must be finite and > 0,
    and ``resync_wealth`` at least ``wealth_threshold``: the gates of
    ``MimickingStrategy`` rely on that order.  Anything else is refused
    with a ValueError naming the field.
    """

    base: Policy
    wealth_threshold: float
    resync_wealth: float

    def __post_init__(self):
        for name in ("wealth_threshold", "resync_wealth"):
            level = getattr(self, name)
            if not 0.0 < level < math.inf:
                raise ValueError(f"{name} must be finite and > 0, "
                                 f"got {level!r}")
        if self.resync_wealth < self.wealth_threshold:
            raise ValueError(f"resync_wealth {self.resync_wealth!r} must be "
                             "at least wealth_threshold "
                             f"{self.wealth_threshold!r}")


def build_mimicking(base: Policy, constants: CostConstants) -> MimickingPolicy:
    if not base.wealth_free:
        raise ValueError("the base policy must not depend on wealth "
                         "(solve the proportional problem to obtain one)")
    return MimickingPolicy(
        base=base,
        wealth_threshold=constants.wealth_threshold,
        resync_wealth=constants.resync_wealth,
    )
