"""Certify a run of Algorithm 1 against the paper's analysis.

Given a :class:`~repro.sim.engine.SimulationResult` produced by
:class:`~repro.core.scheduler.OnlineScheduler`, this module re-derives every
quantity the competitive-ratio proof manipulates and checks each inequality
on the *actual* run:

* feasibility (:func:`repro.sim.feasibility.validate_result`, durations
  included),
* Algorithm 2's per-task constraints: :math:`p'_j \\le \\lceil\\mu P\\rceil`,
  :math:`\\beta_j = t(p_j)/t^{\\min}_j \\le \\delta(\\mu)`,
* Lemma 3: :math:`\\mu T_2 + (1-\\mu) T_3 \\le \\alpha A_{\\min}/P`,
* Lemma 4: :math:`T_1/\\beta + \\mu T_2 \\le C_{\\min}`,
* Lemma 5 / Theorems 1-4: :math:`T \\le \\text{ratio}\\cdot
  \\max(A_{\\min}/P, C_{\\min})`.

The result is an :class:`AnalysisCertificate` whose fields expose every
intermediate quantity, so experiment reports (and curious users) can see
*why* the bound holds, not just that it does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bounds import makespan_lower_bound
from repro.core.constants import delta
from repro.core.ratios import framework_ratio
from repro.exceptions import InvariantViolationError, ScheduleError
from repro.sim.engine import SimulationResult
from repro.sim.feasibility import slack, validate_result
from repro.sim.intervals import decompose_intervals
from repro.util.validation import check_in_range

__all__ = ["AnalysisCertificate", "verify_run"]


@dataclass(frozen=True)
class AnalysisCertificate:
    """Every quantity of the Section-4.2 analysis, evaluated on one run."""

    mu: float
    delta: float
    P: int
    makespan: float
    #: Lemma-2 components.
    area_bound: float
    critical_path_bound: float
    #: Interval decomposition durations.
    T1: float
    T2: float
    T3: float
    #: Realized per-task maxima of the allocation ratios.
    alpha_realized: float
    beta_realized: float
    #: The Lemma-5 ratio evaluated at the realized alpha.
    certified_ratio: float
    #: Individual inequality outcomes.
    feasible: bool
    allocation_ok: bool
    lemma3_ok: bool
    lemma4_ok: bool
    lemma5_ok: bool

    @property
    def all_ok(self) -> bool:
        """True iff every checked inequality holds."""
        return (
            self.feasible
            and self.allocation_ok
            and self.lemma3_ok
            and self.lemma4_ok
            and self.lemma5_ok
        )

    @property
    def lower_bound(self) -> float:
        """Lemma 2's :math:`\\max(A_{\\min}/P, C_{\\min})`."""
        return max(self.area_bound, self.critical_path_bound)

    @property
    def achieved_ratio(self) -> float:
        """Makespan over the Lemma-2 lower bound (an upper bound on the
        run's true competitive ratio)."""
        return self.makespan / self.lower_bound if self.lower_bound > 0 else 1.0

    def summary(self) -> str:
        """One-paragraph human-readable certificate."""
        verdict = "CERTIFIED" if self.all_ok else "VIOLATED"
        return (
            f"[{verdict}] T={self.makespan:.6g} <= {self.certified_ratio:.4f} x "
            f"max(A_min/P={self.area_bound:.6g}, C_min={self.critical_path_bound:.6g}); "
            f"achieved T/LB={self.achieved_ratio:.4f}; "
            f"T1={self.T1:.6g} T2={self.T2:.6g} T3={self.T3:.6g}; "
            f"alpha={self.alpha_realized:.4f} beta={self.beta_realized:.4f} "
            f"(delta={self.delta:.4f}, mu={self.mu:.4f})"
        )


def verify_run(result: SimulationResult, mu: float) -> AnalysisCertificate:
    """Check the paper's analysis on a concrete run of Algorithm 1.

    ``mu`` must be the parameter the scheduler actually ran with
    (``scheduler.mu``).  Raises nothing: violations are reported in the
    certificate so tests can assert on them explicitly.
    """
    mu = check_in_range(mu, "mu", 0.0, 0.5, low_open=True, high_open=True)
    graph = result.graph
    P = result.schedule.P
    d = delta(mu)

    try:
        validate_result(result, graph, check_durations=True)
        feasible = True
    except (ScheduleError, InvariantViolationError):
        feasible = False

    import math

    cap = math.ceil(mu * P)
    alpha_realized = 1.0
    beta_realized = 1.0
    allocation_ok = True
    for task_id, alloc in result.allocations.items():
        model = graph.task(task_id).model
        a_min = model.a_min(P)
        t_min = model.t_min(P)
        alpha_realized = max(alpha_realized, model.area(alloc.initial) / a_min)
        beta = model.time(alloc.initial) / t_min
        beta_realized = max(beta_realized, beta)
        if alloc.final > max(cap, 1) or beta > d * (1 + 1e-6):
            allocation_ok = False

    lb = makespan_lower_bound(graph, P)
    dec = decompose_intervals(result.schedule, mu)
    tol = slack(result.makespan)

    lemma3_ok = dec.lemma3_lhs() <= alpha_realized * lb.area_bound + tol
    lemma4_ok = dec.lemma4_lhs(d) <= lb.critical_path_bound + tol
    certified_ratio = framework_ratio(mu, alpha_realized)
    lemma5_ok = result.makespan <= certified_ratio * lb.value + tol

    return AnalysisCertificate(
        mu=mu,
        delta=d,
        P=P,
        makespan=result.makespan,
        area_bound=lb.area_bound,
        critical_path_bound=lb.critical_path_bound,
        T1=dec.T1,
        T2=dec.T2,
        T3=dec.T3,
        alpha_realized=alpha_realized,
        beta_realized=beta_realized,
        certified_ratio=certified_ratio,
        feasible=feasible,
        allocation_ok=allocation_ok,
        lemma3_ok=lemma3_ok,
        lemma4_ok=lemma4_ok,
        lemma5_ok=lemma5_ok,
    )
