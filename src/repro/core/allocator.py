"""Processor allocation (Algorithm 2 of the paper).

The :class:`LpaAllocator` implements the paper's two-step strategy:

1. **Initial allocation** (Local Processor Allocation, after [3, 4]):
   among :math:`p \\in [1, p^{\\max}]`, minimize the area ratio
   :math:`\\alpha_p = a(p)/a^{\\min}` subject to the time-ratio constraint
   :math:`\\beta_p = t(p)/t^{\\min} \\le \\delta(\\mu) =
   \\frac{1-2\\mu}{\\mu(1-\\mu)}`.
2. **Adjustment**: cap the allocation at :math:`\\lceil\\mu P\\rceil`
   (technique of Lepère et al. [18]) so that enough tasks can run
   concurrently to keep utilization high.

For monotonic models (the whole Equation (1) family, Lemma 1) step 1 is
solved with two binary searches; arbitrary models fall back to a linear
scan over :math:`[1, p^{\\max}]`.

Models that :func:`repro.core.lpa_batch.eq1_eligible` admits (un-overridden
``GeneralModel`` math with the monotonic hint set: roofline, communication,
Amdahl, general) take :meth:`LpaAllocator._initial_eq1`, which reads
``(w, d, c, p̃)`` once and evaluates Equation (1) inline instead of calling
``model.time`` per probe.  It uses the same float expressions and the same
bisection iterates as ``GeneralModel.max_useful_processors`` +
:meth:`LpaAllocator._initial_monotonic`, so its decisions are bit-identical
to that generic path, which stays the only path for every other model and
the oracle of ``tests/core/test_eq1_path.py``.  Subclasses that override a
decision method always get the generic path.

The allocation is a pure function of ``(model, P)``, so the engine calls
Algorithm 2 through the memoized
:meth:`~repro.sim.allocation.Allocator.allocate_cached` entry point:
tasks sharing a speedup-model parameterization (hashable
:meth:`~repro.speedup.SpeedupModel.cache_key`) resolve from a per-allocator
LRU cache in O(1), including resilient-mode re-allocations at each
recurring live capacity.  ``LpaAllocator(...).cache_info()`` exposes the
hit/miss counters; ``configure_cache(0)`` disables memoization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

from repro.core.constants import MU_MAX, delta
from repro.core.lpa_batch import BatchAllocation, eq1_eligible, lpa_allocate_batch
from repro.exceptions import AllocationError
from repro.sim.allocation import Allocation, AllocationCacheInfo, Allocator
from repro.speedup.base import SpeedupModel
from repro.speedup.general import GeneralModel
from repro.util.validation import check_in_range, check_positive_int

__all__ = [
    "Allocation",
    "AllocationCacheInfo",
    "AllocationExplanation",
    "Allocator",
    "LpaAllocator",
]


@dataclass(frozen=True, slots=True)
class AllocationExplanation:
    """The paper's ratios behind one Algorithm-2 decision.

    Pure observability: computed on demand by :meth:`LpaAllocator.explain`
    for tracing/analysis, never on the allocation fast path.  ``alpha``
    and ``beta`` are the paper's :math:`\\alpha_p = a(p_j)/a^{\\min}` and
    :math:`\\beta_p = t(p_j)/t^{\\min}`; feasibility (Lemma 2) guarantees
    :math:`\\beta \\le \\delta(\\mu)` up to the allocator's ``rtol``.
    """

    #: Step-1 initial allocation :math:`p_j`.
    p: int
    #: Allocation after the :math:`\lceil\mu P\rceil` adjustment.
    final: int
    #: Largest useful processor count :math:`p^{\max}` for this model.
    p_max: int
    #: Area ratio :math:`a(p_j)/a^{\min}`.
    alpha: float
    #: Time ratio :math:`t(p_j)/t^{\min}`.
    beta: float
    #: The time-ratio budget :math:`\delta(\mu)` the constraint enforces.
    delta: float
    #: The adjustment threshold :math:`\lceil\mu P\rceil`.
    cap: int
    #: Whether step 2 actually reduced the allocation.
    capped: bool


class LpaAllocator(Allocator):
    """Algorithm 2: minimize area subject to a time budget, then cap.

    Parameters
    ----------
    mu:
        The utilization parameter :math:`\\mu \\in (0, (3-\\sqrt5)/2]`.
        Use :data:`repro.core.constants.MU_STAR` for the per-model optima.
    rtol:
        Relative tolerance when testing the :math:`\\beta_p \\le \\delta`
        constraint and area ties, absorbing floating-point noise (the
        adversarial instances of Section 4.4 sit *exactly* on the
        constraint boundary by design).

    Tie-breaking: among feasible allocations of minimal area, the fastest
    (largest ``p``) is chosen.  For the roofline model the area is flat in
    :math:`[1, p^{\\max}]`, so this picks :math:`p^{\\max}` and realizes
    Lemma 6's :math:`\\alpha = \\beta = 1`; for every other Equation (1)
    model the area is strictly increasing and no tie occurs.
    """

    name = "lpa"

    #: Whether this class keeps LpaAllocator's own decision methods
    #: (``allocate``/``initial_allocation``/``_initial_monotonic``).  Only
    #: then may the Equation (1) twins — :meth:`_initial_eq1` and
    #: :meth:`allocate_batch`'s array lanes — stand in for them.
    _own_decisions: ClassVar[bool] = True

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._own_decisions = (
            cls.allocate is LpaAllocator.allocate
            and cls.initial_allocation is LpaAllocator.initial_allocation
            and cls._initial_monotonic is LpaAllocator._initial_monotonic
        )

    def __init__(self, mu: float, *, rtol: float = 1e-9) -> None:
        self.mu = check_in_range(mu, "mu", 0.0, MU_MAX, low_open=True)
        self.rtol = check_in_range(rtol, "rtol", 0.0, 1e-3)
        self.delta = delta(self.mu)

    # ------------------------------------------------------------------
    def allocate(
        self, model: SpeedupModel, P: int, *, free: int | None = None
    ) -> Allocation:
        P = check_positive_int(P, "P")
        initial = self.initial_allocation(model, P)
        cap = math.ceil(self.mu * P)
        final = cap if initial > cap else initial
        return Allocation(initial=initial, final=final)

    def explain(self, model: SpeedupModel, P: int) -> AllocationExplanation:
        """The :math:`\\alpha_p`/:math:`\\beta_p` ratios behind ``allocate``.

        Re-derives the decision for ``(model, P)`` together with the
        quantities the paper's analysis tracks.  Intended for tracing and
        notebooks — it re-queries the model a handful of times (plus a
        linear area scan for non-monotonic models), so the engine only
        calls it on traced runs.
        """
        P = check_positive_int(P, "P")
        p_max = model.max_useful_processors(P)
        t_min = model.time(p_max)
        initial = self.initial_allocation(model, P)
        if model.monotonic_hint:
            # Lemma-1 monotonicity: the area is non-decreasing, so the
            # minimum over [1, p_max] sits at p = 1.
            a_min = model.area(1)
        else:
            a_min = min(model.area(p) for p in range(1, p_max + 1))
        alpha = model.area(initial) / a_min if a_min > 0 else math.inf
        beta = model.time(initial) / t_min if t_min > 0 else math.inf
        cap = math.ceil(self.mu * P)
        final = cap if initial > cap else initial
        return AllocationExplanation(
            p=initial,
            final=final,
            p_max=p_max,
            alpha=alpha,
            beta=beta,
            delta=self.delta,
            cap=cap,
            capped=final < initial,
        )

    def allocate_batch(
        self, models: Sequence[SpeedupModel], P: int
    ) -> BatchAllocation | None:
        """Resolve many models' allocations at once, vectorizing Eq. (1).

        Batch-compilation fast path (:func:`repro.batch.layout.compile_run`
        calls it once per run with one model per cache-key group): lanes
        whose math is provably the Equation (1) closed forms resolve
        through :mod:`repro.core.lpa_batch`'s array implementation of the
        α/β decision — bit-identical to :meth:`allocate` by construction —
        and every other lane falls back to :meth:`allocate_cached`.

        Returns ``None`` when vectorization cannot be trusted: a subclass
        overriding any decision method (``allocate``/``initial_allocation``/
        ``_initial_monotonic``) changes the scalar semantics the array
        math mirrors, so such allocators keep the per-group scalar path.
        """
        if not self._own_decisions:
            return None
        P = check_positive_int(P, "P")
        return lpa_allocate_batch(
            self, models, P, mu=self.mu, delta=self.delta, rtol=self.rtol
        )

    def initial_allocation(self, model: SpeedupModel, P: int) -> int:
        """Step 1: the constrained area-minimizing allocation :math:`p_j`."""
        if self._own_decisions and eq1_eligible(model):
            return self._initial_eq1(model, P)
        p_max = model.max_useful_processors(P)
        t_min = model.time(p_max)
        threshold = self.delta * t_min * (1.0 + self.rtol)
        if model.monotonic_hint:
            return self._initial_monotonic(model, p_max, threshold)
        return self._initial_scan(model, p_max, threshold)

    # ------------------------------------------------------------------
    def _initial_eq1(self, model: GeneralModel, P: int) -> int:
        """Step 1 for an Equation (1) model, bit-identical to the generic path.

        The scalar twin of :func:`repro.core.lpa_batch.lpa_decide_eq1`:
        ``GeneralModel.max_useful_processors`` then :meth:`_initial_monotonic`
        with ``time(p) = w / min(p, p̃) + d + c * (p - 1)`` written out
        inline, so every comparison sees the same floats and both
        bisections walk the same integer iterates.  Probes are ints in
        ``[1, p_max]`` and skip ``SpeedupModel._check_p``; ``P`` is
        validated once.
        """
        if type(P) is not int or P < 1:
            P = model._check_P(P)
        w = model.w
        d = model.d
        c = model.c
        pt: float = math.inf if model.max_parallelism is None else model.max_parallelism
        p_max = P if P < pt else int(pt)
        if c != 0.0:
            s = math.sqrt(w / c)
            lo = max(1, math.floor(s))
            hi = max(1, math.ceil(s))
            t_lo = w / min(lo, pt) + d + c * (lo - 1)
            t_hi = w / min(hi, pt) + d + c * (hi - 1)
            p_max = min(p_max, lo if t_lo <= t_hi else hi)
        # From here on every probe p lies in [1, p_max] ⊆ [1, p̃], where
        # min(p, p̃) is p itself.
        t_min = w / p_max + d + c * (p_max - 1)
        threshold = self.delta * t_min * (1.0 + self.rtol)
        if w / 1 + d + c * 0 <= threshold:
            p_lo = 1
        else:
            lo, hi = 1, p_max
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if w / mid + d + c * (mid - 1) <= threshold:
                    hi = mid
                else:
                    lo = mid
            p_lo = hi
        area_budget = p_lo * (w / p_lo + d + c * (p_lo - 1)) * (1.0 + self.rtol)
        if p_max * t_min <= area_budget:
            return p_max
        lo, hi = p_lo, p_max
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid * (w / mid + d + c * (mid - 1)) <= area_budget:
                lo = mid
            else:
                hi = mid
        return lo

    def _initial_monotonic(
        self, model: SpeedupModel, p_max: int, threshold: float
    ) -> int:
        """Two binary searches exploiting Lemma-1 monotonicity.

        ``t`` is non-increasing on ``[1, p_max]``, so the feasible set
        ``{p : t(p) <= threshold}`` is a suffix ``[p_lo, p_max]``; the area
        is non-decreasing, so the minimum area on the suffix is at
        ``p_lo`` — and any tie extends to a contiguous plateau whose right
        end we locate with a second search (choosing the fastest among the
        minimum-area allocations).
        """
        if model.time(1) <= threshold:
            p_lo = 1
        else:
            # Invariant: time(lo) > threshold >= time(hi).
            lo, hi = 1, p_max
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if model.time(mid) <= threshold:
                    hi = mid
                else:
                    lo = mid
            p_lo = hi
        area_budget = model.area(p_lo) * (1.0 + self.rtol)
        if model.area(p_max) <= area_budget:
            return p_max
        # Invariant: area(lo) <= budget < area(hi).
        lo, hi = p_lo, p_max
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if model.area(mid) <= area_budget:
                lo = mid
            else:
                hi = mid
        return lo

    def _initial_scan(self, model: SpeedupModel, p_max: int, threshold: float) -> int:
        """Linear scan for arbitrary (possibly non-monotonic) models."""
        best_p = 0
        best_area = math.inf
        best_time = math.inf
        for p in range(1, p_max + 1):
            t = model.time(p)
            if t > threshold:
                continue
            area = p * t
            if area < best_area * (1.0 - self.rtol) or (
                area <= best_area * (1.0 + self.rtol) and t < best_time
            ):
                best_p, best_area, best_time = p, area, t
        if best_p == 0:
            # t(p_max) = t_min <= delta * t_min always satisfies the
            # constraint, so this is unreachable for a sane model.
            raise AllocationError(
                f"no feasible allocation in [1, {p_max}] for model {model!r}"
            )
        return best_p

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LpaAllocator(mu={self.mu!r})"
