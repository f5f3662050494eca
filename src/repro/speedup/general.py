"""The general speedup model of the paper (Equation (1)).

.. math::

    t(p) = \\frac{w}{\\min(p, \\tilde p)} + d + c\\,(p - 1)

where ``w`` is the parallelizable work, ``\\tilde p`` the maximum degree of
parallelism, ``d`` the sequential work, and ``c`` the per-processor
communication overhead.  The roofline, communication, and Amdahl models are
special cases implemented as subclasses.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.speedup.base import SpeedupModel
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["GeneralModel"]


class GeneralModel(SpeedupModel):
    """Execution-time function of Equation (1).

    Parameters
    ----------
    w:
        Total parallelizable work (> 0).
    d:
        Sequential work (>= 0).
    c:
        Communication overhead per extra processor (>= 0).
    max_parallelism:
        The maximum degree of parallelism :math:`\\tilde p` (>= 1), or
        ``None`` for unbounded parallelism (equivalent to
        :math:`\\tilde p \\ge P` for every platform this model is used on).
    """

    monotonic_hint = True

    def __init__(
        self,
        w: float,
        d: float = 0.0,
        c: float = 0.0,
        max_parallelism: int | None = None,
    ) -> None:
        self.w = check_positive(w, "w")
        self.d = check_nonnegative(d, "d")
        self.c = check_nonnegative(c, "c")
        if max_parallelism is None or (type(max_parallelism) is int and max_parallelism >= 1):
            self.max_parallelism: int | None = max_parallelism
        else:
            try:
                is_integral = not isinstance(max_parallelism, bool) and (
                    max_parallelism == int(max_parallelism)
                )
            except (TypeError, ValueError):
                is_integral = False
            if not is_integral:
                raise InvalidParameterError(
                    f"max_parallelism must be an integer or None, got {max_parallelism!r}"
                )
            self.max_parallelism = int(max_parallelism)
            if self.max_parallelism < 1:
                raise InvalidParameterError(
                    f"max_parallelism must be >= 1, got {max_parallelism}"
                )

    # ------------------------------------------------------------------
    def time(self, p: int) -> float:
        if type(p) is not int or p < 1:  # else already a valid allocation
            p = self._check_p(p)
        if self.max_parallelism is None:
            effective = p
        else:
            effective = min(p, self.max_parallelism)
        return self.w / effective + self.d + self.c * (p - 1)

    def cache_key(self) -> tuple:
        """Hashable identity shared across the whole Equation (1) family.

        The time function is fully determined by ``(w, d, c, p-tilde)``, so
        a roofline and a general model with equal parameters may share cache
        entries — the allocation they induce is identical by construction.
        """
        return ("eq1", self.w, self.d, self.c, self.max_parallelism)

    def times(self, P: int) -> np.ndarray:
        """Vectorized ``[t(1), ..., t(P)]`` (same operation order as ``time``).

        Pinned to ``float64`` end to end: IEEE-754 double arithmetic in the
        same operation order as the scalar ``time``, so the two agree
        bit-for-bit and vectorized consumers (the batch engine, allocator
        searches) can never drift on platform default dtypes.
        """
        P = self._check_P(P)
        p = np.arange(1, P + 1, dtype=np.float64)
        if self.max_parallelism is None:
            effective = p
        else:
            effective = np.minimum(p, np.float64(self.max_parallelism))
        return self.w / effective + self.d + self.c * (p - 1.0)

    def max_useful_processors(self, P: int) -> int:
        """Closed-form :math:`p^{\\max}` per Equation (5).

        With communication cost ``c > 0`` the unconstrained real-valued
        minimizer of :math:`w/p + d + c(p-1)` is :math:`s = \\sqrt{w/c}`;
        the better of its floor and ceiling is then clamped by the
        parallelism bound :math:`\\tilde p` and the platform size ``P``.
        """
        if type(P) is not int or P < 1:
            P = self._check_P(P)
        limit = P if self.max_parallelism is None else min(P, self.max_parallelism)
        if self.c == 0.0:
            # Time is non-increasing everywhere: use every useful processor.
            return limit
        s = math.sqrt(self.w / self.c)
        lo = max(1, math.floor(s))
        hi = max(1, math.ceil(s))
        p_hat = lo if self.time(lo) <= self.time(hi) else hi
        return min(limit, p_hat)

    def a_min(self, P: int) -> float:
        """Minimum area, always achieved on one processor (Lemma 1)."""
        return self.w + self.d

    def scaled_work(self) -> float:
        """Return :math:`w' = w/c` (used throughout Section 4.3).

        Raises :class:`~repro.exceptions.InvalidParameterError` when
        ``c == 0`` since the quantity is undefined there.
        """
        if self.c == 0.0:
            raise InvalidParameterError("w' = w/c is undefined for c == 0")
        return self.w / self.c

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"w={self.w!r}"]
        if self.d:
            parts.append(f"d={self.d!r}")
        if self.c:
            parts.append(f"c={self.c!r}")
        if self.max_parallelism is not None:
            parts.append(f"max_parallelism={self.max_parallelism!r}")
        return f"{type(self).__name__}({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralModel):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.w == other.w
            and self.d == other.d
            and self.c == other.c
            and self.max_parallelism == other.max_parallelism
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.w, self.d, self.c, self.max_parallelism))
