"""Abstract base class for speedup models.

The scheduling algorithms in :mod:`repro.core` only interact with tasks
through this interface, so new models (beyond the paper's Equation (1)
family) plug in without touching the schedulers.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import InvalidParameterError

__all__ = ["SpeedupModel"]


class SpeedupModel(abc.ABC):
    """Execution time of a moldable task as a function of its allocation.

    Subclasses implement :meth:`time`; the base class derives areas, the
    maximum useful allocation :math:`p^{\\max}` (Equation (5) of the paper),
    the minimum execution time :math:`t^{\\min}` and the minimum area
    :math:`a^{\\min}` (Section 3.2), plus monotonicity checks (Lemma 1).

    Two attributes let the allocator exploit structure:

    * :attr:`monotonic_hint` — ``True`` promises that on ``[1, p_max(P)]``
      the time is non-increasing and the area non-decreasing (Lemma 1 proves
      this for the whole Equation (1) family), enabling binary search inside
      Algorithm 2 instead of a linear scan.  The generic
      :meth:`max_useful_processors` additionally reads the hint as a promise
      that the time is *unimodal* on ``[1, P]`` (non-increasing up to the
      optimum, never dipping below it afterwards), which every built-in
      monotonic model satisfies; set the hint to ``False`` for models that
      violate unimodality.
    * :meth:`cache_key` — a hashable value identifying the time function,
      letting allocators memoize their decisions across tasks that share a
      parameterization (see :meth:`repro.sim.allocation.Allocator.allocate_cached`).
    """

    #: Whether time/area monotonicity on ``[1, p_max]`` is guaranteed.
    monotonic_hint: bool = False

    def cache_key(self) -> object | None:
        """Return a hashable identity of the time function, or ``None``.

        Two models returning equal keys must implement the *same*
        :meth:`time` function — allocators use the key to memoize
        allocation decisions (keyed on ``(cache_key, P)``), so a stale or
        colliding key would silently misallocate.  The key must be derived
        from the model's current parameters: mutating a parameter then
        yields a different key and the cache stays correct.

        The base implementation returns ``None`` ("not cacheable"), which
        makes every allocator bypass its cache for this model.  Subclasses
        whose time function is fully determined by immutable-ish parameters
        should override (the whole Equation (1) family does).
        """
        return None

    @abc.abstractmethod
    def time(self, p: int) -> float:
        """Return the execution time :math:`t(p)` on ``p`` processors.

        ``p`` must be an integer >= 1.  Implementations raise
        :class:`~repro.exceptions.InvalidParameterError` otherwise.
        """

    def area(self, p: int) -> float:
        """Return the area :math:`a(p) = p \\cdot t(p)`."""
        return p * self.time(p)

    def max_useful_processors(self, P: int) -> int:
        """Return :math:`p^{\\max}`, the allocation minimizing :math:`t(p)`.

        Per Equation (5) of the paper, allocating more processors than this
        no longer decreases the execution time while increasing the area,
        so no reasonable algorithm exceeds it.  When several allocations
        reach the minimum time, the *smallest* one is returned (it has the
        smallest area among them by monotonicity of the area).

        The generic implementation scans ``[1, P]`` for arbitrary models;
        when :attr:`monotonic_hint` promises a unimodal time function it
        switches to two :math:`O(\\log P)` binary searches (first locating
        the last strict improvement, then the left end of the minimum-time
        plateau, preserving the "smallest p reaching t_min" tie-break).
        Equation (1) subclasses override it with the closed form of the
        paper.
        """
        P = self._check_P(P)
        if self.monotonic_hint and P > 2:
            return self._max_useful_unimodal(P)
        best_p = 1
        best_t = self.time(1)
        for p in range(2, P + 1):
            t = self.time(p)
            if t < best_t:
                best_t = t
                best_p = p
        return best_p

    def _max_useful_unimodal(self, P: int) -> int:
        """Binary-search :math:`p^{\\max}` for a unimodal time function.

        Step 1 finds the smallest ``p`` with ``time(p+1) > time(p)`` — the
        predicate is monotone (False then True) for a time that is
        non-increasing up to its optimum and never dips below it again, so
        ``time(p*)`` is the global minimum :math:`t^{\\min}`.  Step 2
        binary-searches the non-increasing prefix ``[1, p*]`` for the
        smallest allocation reaching :math:`t^{\\min}`, matching the linear
        scan's tie-break exactly (plateaus resolve to their left end).
        """
        lo, hi = 1, P
        while lo < hi:
            mid = (lo + hi) // 2
            if self.time(mid + 1) > self.time(mid):
                hi = mid
            else:
                lo = mid + 1
        t_min = self.time(lo)
        left, right = 1, lo
        while left < right:
            mid = (left + right) // 2
            if self.time(mid) <= t_min:
                right = mid
            else:
                left = mid + 1
        return left

    def t_min(self, P: int) -> float:
        """Return the minimum execution time :math:`t^{\\min} = t(p^{\\max})`."""
        return self.time(self.max_useful_processors(P))

    def a_min(self, P: int) -> float:
        """Return the minimum area over allocations in ``[1, p_max]``.

        For every monotonic model this is :math:`a(1)` (the paper's
        definition); the generic implementation handles non-monotonic
        models by scanning.
        """
        if self.monotonic_hint:
            return self.area(1)
        P = self._check_P(P)
        p_max = self.max_useful_processors(P)
        return min(self.area(p) for p in range(1, p_max + 1))

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def times(self, P: int) -> np.ndarray:
        """Return the vector ``[t(1), ..., t(P)]`` as a NumPy array.

        The generic implementation fills a preallocated array straight from
        the ``time`` generator (no intermediate Python list); closed-form
        families override it with fully vectorized NumPy expressions.

        The dtype is pinned to ``np.float64`` (here and in every override)
        so the vector matches scalar ``time`` bit-for-bit regardless of
        platform default-dtype conventions.  In this package only
        :meth:`areas` and :meth:`is_monotonic` read it; allocators, the
        engine and the batch engine evaluate ``time`` point by point.
        """
        P = self._check_P(P)
        return np.fromiter(
            (self.time(p) for p in range(1, P + 1)), dtype=np.float64, count=P
        )

    def areas(self, P: int) -> np.ndarray:
        """Return the vector ``[a(1), ..., a(P)]`` as a ``float64`` NumPy array."""
        P = self._check_P(P)
        return np.arange(1, P + 1, dtype=np.float64) * self.times(P)

    def is_monotonic(self, P: int, *, rtol: float = 1e-12) -> bool:
        """Check Lemma 1's monotonic property on ``[1, p_max(P)]``.

        Returns ``True`` iff the execution time is non-increasing and the
        area is non-decreasing with the allocation (up to relative
        tolerance ``rtol`` to absorb floating-point noise).
        """
        p_max = self.max_useful_processors(P)
        times = self.times(p_max)
        areas = np.arange(1, p_max + 1, dtype=np.float64) * times
        time_ok = bool(np.all(times[1:] <= times[:-1] * (1 + rtol)))
        area_ok = bool(np.all(areas[1:] >= areas[:-1] * (1 - rtol)))
        return time_ok and area_ok

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _check_p(p: int) -> int:
        if isinstance(p, bool) or p != int(p):
            raise InvalidParameterError(f"processor count must be an integer, got {p!r}")
        p = int(p)
        if p < 1:
            raise InvalidParameterError(f"processor count must be >= 1, got {p}")
        return p

    @staticmethod
    def _check_P(P: int) -> int:
        if isinstance(P, bool) or P != int(P):
            raise InvalidParameterError(f"platform size P must be an integer, got {P!r}")
        P = int(P)
        if P < 1:
            raise InvalidParameterError(f"platform size P must be >= 1, got {P}")
        return P
