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

Models that :func:`eq1_eligible` admits (un-overridden ``GeneralModel``
math with the monotonic hint set: roofline, communication, Amdahl, general)
take :meth:`LpaAllocator._initial_eq1`, the one Equation (1) implementation
of step 1.  It reads ``(w, d, c, p̃)`` once and evaluates Equation (1)
inline instead of calling ``model.time`` per probe.  It uses the same float
expressions as ``GeneralModel.max_useful_processors`` +
:meth:`LpaAllocator._initial_monotonic` and, for ``c = 0``, proposes each
boundary in closed form and keeps it only once the probes around it confirm
it, so it makes the same decisions as that generic path, which stays the
only path for every other model and the oracle of
``tests/core/test_eq1_path.py``.  Subclasses that override a decision
method always get the generic path.

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
from typing import ClassVar, TypeGuard

from repro.core.constants import MU_MAX, delta
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
    "eq1_eligible",
]


class _Eq1Classes(dict[type[SpeedupModel], bool]):
    """Per-class memo of :func:`eq1_eligible`'s method-identity checks.

    A class's methods are fixed once it is defined, so ``_EQ1_CLASSES[cls]``
    checks them on the class's first lookup only; ``monotonic_hint`` may be
    set per instance, so it is read from the model on every call.
    """

    def __missing__(self, cls: type[SpeedupModel]) -> bool:
        eligible = self[cls] = (
            issubclass(cls, GeneralModel)
            and cls.time is GeneralModel.time
            and cls.max_useful_processors is GeneralModel.max_useful_processors
            and cls.area is SpeedupModel.area
        )
        return eligible


_EQ1_CLASSES = _Eq1Classes()


def eq1_eligible(model: SpeedupModel) -> TypeGuard[GeneralModel]:
    """Whether ``model``'s math is literally the Equation (1) closed forms.

    True only when the instance is a :class:`GeneralModel` whose
    ``time``, ``area``, and ``max_useful_processors`` are un-overridden
    (roofline/communication/Amdahl qualify; any subclass customizing the
    math does not) and whose monotonic hint routes the allocator into the
    binary-search branch :meth:`LpaAllocator._initial_eq1` mirrors.
    """
    return _EQ1_CLASSES[type(model)] and model.monotonic_hint is True


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
    #: then may :meth:`_initial_eq1` stand in for them.
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
        if type(P) is not int or P < 1:
            P = check_positive_int(P, "P")
        cap = math.ceil(self.mu * P)
        if self._own_decisions and _EQ1_CLASSES[type(model)] and model.monotonic_hint is True:
            # The memo admits GeneralModel classes only.
            initial = self._initial_eq1(model, P)  # type: ignore[arg-type]
            # 1 <= initial <= p_max and 1 <= cap: valid by construction,
            # so the frozen dataclass is filled without its validating
            # ``__init__``.
            alloc = object.__new__(Allocation)
            object.__setattr__(alloc, "initial", initial)
            object.__setattr__(alloc, "final", cap if initial > cap else initial)
            return alloc
        initial = self.initial_allocation(model, P)
        return Allocation(initial=initial, final=cap if initial > cap else initial)

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

    def initial_allocation(self, model: SpeedupModel, P: int) -> int:
        """Step 1: the constrained area-minimizing allocation :math:`p_j`."""
        if self._own_decisions and eq1_eligible(model):
            if type(P) is not int or P < 1:
                P = model._check_P(P)
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

        ``GeneralModel.max_useful_processors`` then :meth:`_initial_monotonic`
        with ``time(p) = w / min(p, p̃) + d + c * (p - 1)`` written out
        inline, so every comparison sees the same floats.  For ``c = 0``
        a closed-form boundary that its neighbouring probes confirm is the
        one the monotone bisection reaches; a guess that fails its check
        runs the bisection.  Probes are ints in
        ``[1, p_max]`` and skip ``SpeedupModel._check_p``; ``P`` must be
        an ``int >= 1``, which the callers check once.
        """
        w = model.w
        d = model.d
        c = model.c
        pt = model.max_parallelism
        p_max = P if pt is None or P < pt else int(pt)
        lo = p_max
        if c != 0.0:
            # Equation (5).  ``x or 1`` is max(1, x) for the ints x >= 0
            # that floor and ceil return here, without max()'s cost.
            s = math.sqrt(w / c)
            lo = math.floor(s) or 1
        # From here on every probe p lies in [1, p_max] ⊆ [1, p̃], where
        # min(p, p̃) is p itself.
        if lo < p_max:  # else both candidates clamp to p_max
            # hi <= lo + 1 <= p_max, and t_min is the faster one's probe.
            hi = math.ceil(s) or 1
            t_min = w / lo + d + c * (lo - 1)
            t_hi = w / hi + d + c * (hi - 1)
            if t_min <= t_hi:
                p_max = lo
            else:
                p_max, t_min = hi, t_hi
        else:
            t_min = w / p_max + d + c * (p_max - 1)
        threshold = self.delta * t_min * (1.0 + self.rtol)
        p_lo = 0
        if w / 1 + d + c * 0 <= threshold:
            p_lo = 1
        elif c == 0.0 and threshold > d:
            # t(p) = fl(fl(w/p) + d) is non-increasing: a verified boundary
            # is the bisection's, which also takes p_max as feasible unprobed.
            q = w / (threshold - d)
            if q >= p_max:
                g = p_max
            elif (g := math.ceil(q)) < 2:
                g = 2
            if (g == 2 or w / (g - 1) + d > threshold) and (g == p_max or w / g + d <= threshold):
                p_lo = g
        if not p_lo:
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
        if c == 0.0 and d > 1e-15 * (w + (p_max + 1) * d):
            # The float p * (w/p + d) is within 3.01 ulp of w + p*d, under
            # half its step d: the area is non-decreasing, so a verified
            # plateau end in [p_lo, p_max) is the bisection's.
            q = (area_budget - w) / d
            if q >= p_max - 1:
                g = p_max - 1
            elif (g := math.floor(q)) < p_lo:
                g = p_lo
            if g * (w / g + d) <= area_budget and (
                g + 1 == p_max or (g + 1) * (w / (g + 1) + d) > area_budget
            ):
                return g
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
