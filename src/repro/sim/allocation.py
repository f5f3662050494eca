"""Low-level allocation types shared by the engine and every allocator.

Lives in :mod:`repro.sim` (the substrate layer) so the engine does not
depend on :mod:`repro.core`; Algorithm 2 itself
(:class:`repro.core.allocator.LpaAllocator`) builds on these types and
:mod:`repro.core.allocator` re-exports them for convenience.

Beyond the abstract :meth:`Allocator.allocate`, the base class provides a
concrete memoized entry point, :meth:`Allocator.allocate_cached`: task
instances overwhelmingly share a handful of speedup-model
parameterizations (workflow generators stamp out identical kernels, the
adversarial instances reuse a few models thousands of times, resilient
runs re-allocate at each live capacity), so the engine resolves repeated
``(model, P)`` pairs from a per-allocator LRU cache in O(1) instead of
re-running Algorithm 2's searches.  Caching is keyed on
``(model.cache_key(), P)`` and is *provably transparent*: a model without
a hashable :meth:`~repro.speedup.SpeedupModel.cache_key` (or an allocator
whose decision depends on the instantaneous ``free`` count) bypasses the
cache entirely, and a mutated model yields a fresh key, so cached and
uncached runs produce identical allocations.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.exceptions import AllocationError
from repro.speedup.base import SpeedupModel

__all__ = ["Allocation", "Allocator", "AllocationCacheInfo"]


@dataclass(frozen=True)
class Allocation:
    """A task's processor allocation.

    ``initial`` is the pre-adjustment allocation (Step 1 of Algorithm 2:
    :math:`p_j`); ``final`` is the allocation actually used to execute the
    task (:math:`p'_j`, Equation (7)).  Single-step allocators set both to
    the same value.
    """

    initial: int
    final: int

    def __post_init__(self) -> None:
        if not 1 <= self.final <= self.initial:
            raise AllocationError(
                f"invalid allocation: final={self.final}, initial={self.initial}"
            )


class AllocationCacheInfo(NamedTuple):
    """Counters of one allocator's memoization cache (see ``cache_info()``)."""

    #: Allocations served from the cache.
    hits: int
    #: Allocations computed and stored.
    misses: int
    #: Allocations computed without touching the cache (no ``cache_key``,
    #: unhashable key, ``free``-dependent allocator, or cache disabled).
    bypasses: int
    #: Entries currently held.
    currsize: int
    #: Eviction threshold (0 disables caching).
    maxsize: int


class Allocator(abc.ABC):
    """Strategy fixing a moldable task's processor count upon reveal."""

    #: Short name used in experiment reports.
    name: str = "allocator"

    #: Whether :meth:`allocate` reads the ``free`` argument.  Allocators
    #: that do (e.g. the opportunistic grab-free baseline) are not pure
    #: functions of ``(model, P)`` and must bypass the memoization cache.
    uses_free: bool = False

    #: LRU capacity of the allocation cache; set to 0 to disable caching.
    #: Class-level default, overridable per instance via
    #: :meth:`configure_cache`.
    cache_maxsize: int = 1024

    # Lazily materialized cache state (class-level sentinels keep
    # ``__init__``-less subclasses working).
    _cache: OrderedDict | None = None
    _cache_hits: int = 0
    _cache_misses: int = 0
    _cache_bypasses: int = 0

    @abc.abstractmethod
    def allocate(
        self, model: SpeedupModel, P: int, *, free: int | None = None
    ) -> Allocation:
        """Choose the allocation for a task with speedup ``model`` on ``P`` procs.

        ``free`` is the number of currently idle processors at reveal time;
        Algorithm 2 ignores it, but opportunistic baselines may use it.
        """

    # ------------------------------------------------------------------
    # Memoization (transparent fast path used by the engine)
    # ------------------------------------------------------------------
    def allocate_cached(
        self, model: SpeedupModel, P: int, *, free: int | None = None
    ) -> Allocation:
        """Like :meth:`allocate`, memoized on ``(model.cache_key(), P)``.

        Falls back to a plain :meth:`allocate` call (counted as a *bypass*)
        whenever caching cannot be proven safe: the allocator reads
        ``free``, the model has no cache key, the key is unhashable, or the
        cache is disabled.  ``Allocation`` is frozen, so sharing one object
        across tasks is safe.
        """
        if self.uses_free or self.cache_maxsize <= 0:
            self._cache_bypasses += 1
            return self.allocate(model, P, free=free)
        key_fn = getattr(model, "cache_key", None)
        return self.allocate_keyed(model, key_fn() if callable(key_fn) else None, P, free)

    def allocate_keyed(
        self, model: SpeedupModel, key: object, P: int, free: int | None
    ) -> Allocation:
        """:meth:`allocate_cached` for a caller that already built ``key``.

        Internal entry point of the engine's reveal table, which calls it
        on each model group's miss so that no key is built twice.  ``key``
        must be ``model.cache_key()`` (``None`` for a keyless model), and
        the caller must have ruled out :meth:`allocate_cached`'s up-front
        bypasses (``uses_free``, cache disabled).  Counters move exactly as
        in :meth:`allocate_cached`.
        """
        if key is None:
            self._cache_bypasses += 1
            return self.allocate(model, P, free=free)
        cache = self._cache
        if cache is None:
            cache = self._cache = OrderedDict()
        entry = (key, P)
        try:
            cached = cache.get(entry)
        except TypeError:  # unhashable key: stay correct, skip the cache
            self._cache_bypasses += 1
            return self.allocate(model, P, free=free)
        if cached is not None:
            self._cache_hits += 1
            cache.move_to_end(entry)
            return cached
        self._cache_misses += 1
        alloc = self.allocate(model, P, free=free)
        cache[entry] = alloc
        if len(cache) > self.cache_maxsize:
            cache.popitem(last=False)
        return alloc

    def cache_info(self) -> AllocationCacheInfo:
        """Return this allocator's cumulative cache counters."""
        return AllocationCacheInfo(
            hits=self._cache_hits,
            misses=self._cache_misses,
            bypasses=self._cache_bypasses,
            currsize=0 if self._cache is None else len(self._cache),
            maxsize=self.cache_maxsize,
        )

    def clear_allocation_cache(self) -> None:
        """Drop every cached entry and reset the counters."""
        self._cache = None
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_bypasses = 0

    def configure_cache(self, maxsize: int) -> None:
        """Set this instance's LRU capacity (0 disables caching) and clear it."""
        if maxsize < 0:
            raise AllocationError(f"cache maxsize must be >= 0, got {maxsize}")
        self.cache_maxsize = maxsize
        self.clear_allocation_cache()
