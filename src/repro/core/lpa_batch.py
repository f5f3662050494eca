"""Vectorized Algorithm-2 allocation across Equation (1) model groups.

:func:`repro.batch.layout.compile_run` resolves allocations once per
``(cache_key, P)`` group; before this module each group still cost one
Python-side :meth:`~repro.sim.allocation.Allocator.allocate_cached` call
(two binary searches querying ``model.time`` point by point).  Here the
whole LPA α/β decision runs as array math over *all* eligible groups at
once: closed-form :math:`p^{\\max}` per Equation (5), the time-ratio
feasibility bisection, and the area-plateau bisection — each lane
advancing through exactly the iterates of the generic scalar search
(``LpaAllocator._initial_monotonic``), together.

**Bit-identity argument.**  Every float a lane produces is the same
IEEE-754 double operation, in the same order, on the same operands as
:class:`~repro.core.allocator.LpaAllocator`'s generic scalar path:

* :func:`eq1_time` mirrors ``GeneralModel.time``'s expression tree
  (``w / min(p, p̃) + d + c * (p - 1)``); integer processor counts
  convert to float64 exactly (they are far below 2**53);
* ``math.sqrt``/``np.sqrt``, ``math.floor``/``np.floor`` are all
  correctly rounded, so the closed-form :math:`p^{\\max}` candidates
  match;
* both bisections compute ``mid = (lo + hi) // 2`` on integers and
  branch on the same comparisons, so each lane's (lo, hi) trajectory is
  the generic search's trajectory.

Eligibility is *proven*, not assumed: :func:`eq1_eligible` admits only
models whose ``time``/``area``/``max_useful_processors`` are literally
the ``GeneralModel``/``SpeedupModel`` implementations this module
mirrors (subclass overrides fall back to the scalar allocator), and
:meth:`LpaAllocator.allocate_batch` declines entirely when *its own*
decision methods are overridden.  The same predicate routes single
decisions to :meth:`LpaAllocator._initial_eq1`, the scalar twin of
:func:`lpa_decide_eq1` (same decisions; for ``c = 0`` not the same
iterates).  The parity tests sweep every speedup model against
``allocate_cached``, and the scalar twin against the generic
``max_useful_processors`` + ``_initial_monotonic`` path, which remains
the bit-identity oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, TypeGuard

import numpy as np

from repro.speedup.base import SpeedupModel
from repro.speedup.general import GeneralModel

if TYPE_CHECKING:
    from repro.sim.allocation import Allocator

__all__ = [
    "BatchAllocation",
    "eq1_eligible",
    "eq1_params",
    "eq1_time",
    "lpa_decide_eq1",
    "lpa_allocate_batch",
]


@dataclass(frozen=True)
class BatchAllocation:
    """Whole-group allocation decisions, one lane per model.

    ``duration[i]`` is ``time(final[i])`` — computed with the same float
    ops as the scalar path, so downstream schedules stay bit-identical.
    ``scalar_calls`` counts lanes resolved through the scalar allocator
    (models outside the vectorizable family); ``vectorized`` counts lanes
    the array math resolved.
    """

    #: ``int64 [m]``: step-1 initial allocations.
    initial: np.ndarray
    #: ``int64 [m]``: post-cap final allocations.
    final: np.ndarray
    #: ``float64 [m]``: execution times at ``final``.
    duration: np.ndarray
    #: Lanes that fell back to the scalar allocator.
    scalar_calls: int
    #: Lanes resolved by the vectorized α/β decision.
    vectorized: int


#: Per-class memo of :func:`eq1_eligible`'s method-identity checks.  A
#: class's methods are fixed once it is defined; ``monotonic_hint`` may be
#: set per instance, so it is read from the model on every call.
_EQ1_CLASSES: dict[type, bool] = {}


def eq1_eligible(model: SpeedupModel) -> TypeGuard[GeneralModel]:
    """Whether ``model``'s math is literally the Equation (1) closed forms.

    True only when the instance is a :class:`GeneralModel` whose
    ``time``, ``area``, and ``max_useful_processors`` are un-overridden
    (roofline/communication/Amdahl qualify; any subclass customizing the
    math does not) and whose monotonic hint routes the scalar allocator
    into the binary-search branch this module mirrors.  The one guard
    for both Equation (1) decision paths: this module's array lanes and
    :class:`~repro.core.allocator.LpaAllocator`'s scalar twin.
    """
    cls = type(model)
    eligible = _EQ1_CLASSES.get(cls)
    if eligible is None:
        eligible = _EQ1_CLASSES[cls] = (
            issubclass(cls, GeneralModel)
            and cls.time is GeneralModel.time
            and cls.max_useful_processors is GeneralModel.max_useful_processors
            and cls.area is SpeedupModel.area
        )
    return eligible and model.monotonic_hint is True


def eq1_params(
    models: Sequence[SpeedupModel],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack eligible models' ``(w, d, c, p̃)`` into float64 lanes.

    ``p̃`` lanes use ``+inf`` for unbounded parallelism, making
    ``min(p, p̃) = p`` — the same value the scalar branch computes.
    Callers must pre-filter with :func:`eq1_eligible`.
    """
    m = len(models)
    w = np.empty(m, dtype=np.float64)
    d = np.empty(m, dtype=np.float64)
    c = np.empty(m, dtype=np.float64)
    pt = np.empty(m, dtype=np.float64)
    for i, model in enumerate(models):
        assert isinstance(model, GeneralModel)
        w[i] = model.w
        d[i] = model.d
        c[i] = model.c
        pt[i] = np.inf if model.max_parallelism is None else model.max_parallelism
    return w, d, c, pt


def eq1_time(
    w: np.ndarray, d: np.ndarray, c: np.ndarray, pt: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Equation (1) time at float64 ``p``, same op order as the scalar."""
    effective = np.minimum(p, pt)
    return w / effective + d + c * (p - 1.0)


def _bisect_time_lanes(
    w: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    pt: np.ndarray,
    threshold: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Per-lane ``_initial_monotonic`` feasibility bisection; returns hi.

    Invariant per lane (scalar parity): ``time(lo) > threshold >= time(hi)``.
    """
    active = np.nonzero(hi - lo > 1)[0]
    while active.size:
        mid = (lo[active] + hi[active]) // 2
        t = eq1_time(w[active], d[active], c[active], pt[active], mid.astype(np.float64))
        feasible = t <= threshold[active]
        hi[active[feasible]] = mid[feasible]
        lo[active[~feasible]] = mid[~feasible]
        active = active[hi[active] - lo[active] > 1]
    return hi


def _bisect_area_lanes(
    w: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    pt: np.ndarray,
    budget: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Per-lane area-plateau bisection; returns lo.

    Invariant per lane (scalar parity): ``area(lo) <= budget < area(hi)``.
    """
    active = np.nonzero(hi - lo > 1)[0]
    while active.size:
        mid = (lo[active] + hi[active]) // 2
        midf = mid.astype(np.float64)
        area = midf * eq1_time(w[active], d[active], c[active], pt[active], midf)
        within = area <= budget[active]
        lo[active[within]] = mid[within]
        hi[active[~within]] = mid[~within]
        active = active[hi[active] - lo[active] > 1]
    return lo


def lpa_decide_eq1(
    w: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    pt: np.ndarray,
    P: int,
    delta: float,
    rtol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2's step 1 + cap-free machinery for all lanes at once.

    Returns ``(initial, p_max)`` as int64 arrays; the caller applies the
    :math:`\\lceil\\mu P\\rceil` cap.  Mirrors
    ``LpaAllocator.initial_allocation`` + ``_initial_monotonic`` exactly
    (see the module docstring for the bit-identity argument).
    """
    m = w.shape[0]
    limit = np.minimum(np.float64(P), pt)

    # Closed-form p_max (GeneralModel.max_useful_processors).
    p_max_f = limit.copy()
    has_c = c > 0.0
    if has_c.any():
        s = np.sqrt(w[has_c] / c[has_c])
        cand_lo = np.maximum(1.0, np.floor(s))
        cand_hi = np.maximum(1.0, np.ceil(s))
        t_lo = eq1_time(w[has_c], d[has_c], c[has_c], pt[has_c], cand_lo)
        t_hi = eq1_time(w[has_c], d[has_c], c[has_c], pt[has_c], cand_hi)
        p_hat = np.where(t_lo <= t_hi, cand_lo, cand_hi)
        p_max_f[has_c] = np.minimum(limit[has_c], p_hat)
    p_max = p_max_f.astype(np.int64)

    t_min = eq1_time(w, d, c, pt, p_max_f)
    threshold = delta * t_min * (1.0 + rtol)

    # Feasibility suffix [p_lo, p_max]: t(1) <= threshold shortcuts to 1.
    ones_f = np.ones(m, dtype=np.float64)
    t_one = eq1_time(w, d, c, pt, ones_f)
    p_lo = np.ones(m, dtype=np.int64)
    infeasible_at_1 = t_one > threshold
    if infeasible_at_1.any():
        lanes = np.nonzero(infeasible_at_1)[0]
        p_lo[lanes] = _bisect_time_lanes(
            w[lanes],
            d[lanes],
            c[lanes],
            pt[lanes],
            threshold[lanes],
            np.ones(lanes.size, dtype=np.int64),
            p_max[lanes].copy(),
        )

    # Area plateau: budget = area(p_lo) * (1 + rtol); p_max shortcuts in.
    p_lo_f = p_lo.astype(np.float64)
    area_lo = p_lo_f * eq1_time(w, d, c, pt, p_lo_f)
    area_budget = area_lo * (1.0 + rtol)
    area_pmax = p_max_f * t_min
    initial = p_max.copy()
    over = area_pmax > area_budget
    if over.any():
        lanes = np.nonzero(over)[0]
        initial[lanes] = _bisect_area_lanes(
            w[lanes],
            d[lanes],
            c[lanes],
            pt[lanes],
            area_budget[lanes],
            p_lo[lanes].copy(),
            p_max[lanes].copy(),
        )
    return initial, p_max


def lpa_allocate_batch(
    allocator: "Allocator",
    models: Sequence[SpeedupModel],
    P: int,
    *,
    mu: float,
    delta: float,
    rtol: float,
) -> BatchAllocation:
    """Resolve allocations for ``models`` on ``P``, vectorizing Eq. (1) lanes.

    Eligible lanes go through :func:`lpa_decide_eq1`; the rest resolve
    through ``allocator.allocate_cached`` — the same scalar path the
    reference engine uses — so the result covers *every* model while only
    the provably identical family is vectorized.
    """
    m = len(models)
    initial = np.empty(m, dtype=np.int64)
    final = np.empty(m, dtype=np.int64)
    duration = np.empty(m, dtype=np.float64)
    eligible = np.fromiter(
        (eq1_eligible(model) for model in models), dtype=np.bool_, count=m
    )
    cap = math.ceil(mu * P)

    lanes = np.nonzero(eligible)[0]
    if lanes.size:
        w, d, c, pt = eq1_params([models[int(i)] for i in lanes])
        vec_initial, _ = lpa_decide_eq1(w, d, c, pt, P, delta, rtol)
        vec_final = np.where(vec_initial > cap, np.int64(cap), vec_initial)
        initial[lanes] = vec_initial
        final[lanes] = vec_final
        duration[lanes] = eq1_time(w, d, c, pt, vec_final.astype(np.float64))

    scalar_calls = 0
    for i in np.nonzero(~eligible)[0]:
        model = models[int(i)]
        alloc = allocator.allocate_cached(model, P, free=None)
        scalar_calls += 1
        initial[i] = alloc.initial
        final[i] = alloc.final
        duration[i] = model.time(alloc.final)

    return BatchAllocation(
        initial=initial,
        final=final,
        duration=duration,
        scalar_calls=scalar_calls,
        vectorized=int(lanes.size),
    )
