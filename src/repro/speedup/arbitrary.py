"""Arbitrary speedup models.

Theorem 9 of the paper shows that under an *arbitrary* speedup model no
deterministic online algorithm has a constant competitive ratio.  Its proof
uses the model :math:`t(p) = 1/(\\lg p + 1)`, provided here as
:class:`LogParallelismModel`.  :class:`TabulatedModel` and
:class:`CallableModel` allow users to plug in measured or ad-hoc time
functions.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.exceptions import InvalidParameterError
from repro.speedup.base import SpeedupModel
from repro.util.validation import check_positive

__all__ = ["TabulatedModel", "CallableModel", "LogParallelismModel"]


class TabulatedModel(SpeedupModel):
    """A speedup model given by an explicit table of execution times.

    Parameters
    ----------
    times:
        ``times[k]`` is the execution time on ``k + 1`` processors.  Beyond
        ``len(times)`` processors, the last entry is reused (extra
        processors bring no further speedup but, per the table, also no
        slowdown in time; the *area* keeps growing, matching how the paper
        treats allocations beyond :math:`p^{\\max}`).
    """

    monotonic_hint = False

    def __init__(self, times: Sequence[float]) -> None:
        try:
            entries = list(times)
        except TypeError:
            raise InvalidParameterError(
                f"times must be a sequence of numbers, got {type(times).__name__}"
            ) from None
        if not entries:
            raise InvalidParameterError("times must contain at least one entry")
        self._times = tuple(
            check_positive(t, f"times[{k}]") for k, t in enumerate(entries)
        )

    def time(self, p: int) -> float:
        p = self._check_p(p)
        if p <= len(self._times):
            return self._times[p - 1]
        return self._times[-1]

    def cache_key(self) -> tuple:
        return ("tabulated", self._times)

    def max_useful_processors(self, P: int) -> int:
        P = self._check_P(P)
        limit = min(P, len(self._times))
        best_p = 1
        best_t = self._times[0]
        for p in range(2, limit + 1):
            if self._times[p - 1] < best_t:
                best_t = self._times[p - 1]
                best_p = p
        return best_p

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TabulatedModel({list(self._times)!r})"


class CallableModel(SpeedupModel):
    """A speedup model defined by an arbitrary Python callable.

    Parameters
    ----------
    fn:
        Maps a processor count (``int >= 1``) to an execution time (> 0).
    monotonic:
        Set to ``True`` only if ``fn`` is guaranteed to satisfy the
        monotonic property of Lemma 1; this unlocks the fast allocation
        path in Algorithm 2.
    """

    def __init__(self, fn: Callable[[int], float], *, monotonic: bool = False) -> None:
        if not callable(fn):
            raise InvalidParameterError(f"fn must be callable, got {fn!r}")
        self._fn = fn
        self.monotonic_hint = bool(monotonic)

    def time(self, p: int) -> float:
        p = self._check_p(p)
        t = float(self._fn(p))
        if not (math.isfinite(t) and t > 0):
            raise InvalidParameterError(
                f"model callable returned invalid time {t!r} for p={p}"
            )
        return t


class LogParallelismModel(SpeedupModel):
    """The Theorem-9 model :math:`t(p) = \\text{base} / (\\lg p + 1)`.

    The speedup grows only logarithmically with the allocation, so the area
    :math:`a(p) = p\\,t(p)` is strictly increasing: parallelism is always
    "wasteful" but an online scheduler cannot know how much of it each
    chain deserves — the crux of the Theorem-9 adversary.

    The model is monotonic (time strictly decreasing, area strictly
    increasing), hence safe for the fast allocation path.
    """

    monotonic_hint = True

    def __init__(self, base: float = 1.0) -> None:
        self.base = check_positive(base, "base")

    def time(self, p: int) -> float:
        p = self._check_p(p)
        return self.base / (math.log2(p) + 1.0)

    def cache_key(self) -> tuple:
        return ("logp", self.base)

    def max_useful_processors(self, P: int) -> int:
        # Time is strictly decreasing, so all processors are useful.
        return self._check_P(P)

    def a_min(self, P: int) -> float:
        # Area p/(lg p + 1) is strictly increasing, so one processor wins.
        return self.base

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LogParallelismModel(base={self.base!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogParallelismModel):
            return NotImplemented
        return self.base == other.base

    def __hash__(self) -> int:
        return hash(("LogParallelismModel", self.base))
