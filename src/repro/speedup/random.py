"""Random speedup-model generators for the empirical study.

The paper's evaluation is worst-case; its conclusion calls for an
experimental study "using realistic workflows".  These factories draw task
parameters from configurable distributions so the empirical benchmarks can
populate workflow graphs with heterogeneous moldable tasks.

Each range is validated, and a log-uniform range moved to log space, once
per sampler: once per call of a ``random_*`` function, once per factory
and work scale.  A uniform draw is then ``low + (high - low) *
gen.random()``, which is NumPy's own formula for ``gen.uniform(low,
high)`` without its per-call overhead, so every drawn number and the
Generator's state after it are exactly those of ``gen.uniform``
(``tests/graph/test_generator_stream.py`` holds the two together).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, TypeVar

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.speedup.amdahl import AmdahlModel
from repro.speedup.base import SpeedupModel
from repro.speedup.communication import CommunicationModel
from repro.speedup.general import GeneralModel
from repro.speedup.roofline import RooflineModel
from repro.util.validation import check_positive, check_positive_int

__all__ = [
    "random_roofline",
    "random_communication",
    "random_amdahl",
    "random_general",
    "RandomModelFactory",
    "MixedModelFactory",
]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


#: Default ranges of the generators (the factories scale ``_WORK`` only).
_WORK = (1.0, 100.0)
_OVERHEAD = (0.001, 1.0)
_FRACTION = (0.001, 0.3)
_ROOFLINE_P = (1, 64)
_GENERAL_P = (1, 256)

#: A ``(low, high)`` range as the caller gives it.
Bounds = tuple[float, float]
#: ``(low, high - low)``: a validated range in the form the draws use.
Span = tuple[float, float]


def _check_fraction_range(bounds: Bounds, name: str) -> Span:
    """Validate a (low, high) fraction range *before* any RNG draw.

    Validating the range itself — rather than a value drawn from it — keeps
    two invariants: invalid inputs fail deterministically (the same error
    for every seed, where checking the draw raised only when the sample
    happened to land outside (0, 1)), and error paths never consume RNG
    state (a rejected call leaves a shared Generator exactly where it was).
    """
    lo, hi = bounds
    if not 0 < lo <= hi < 1:
        raise InvalidParameterError(
            f"{name} range must satisfy 0 < low <= high < 1, got {bounds}"
        )
    return float(lo), float(hi) - float(lo)


def _check_log_range(bounds: Bounds) -> Span:
    """Validate a log-uniform (low, high) range; return its log-space span.

    ``np.log`` rather than ``math.log``: the bits must be those the draws
    always used, ``gen.uniform(np.log(low), np.log(high))``.
    """
    low, high = bounds
    if not 0 < low <= high < math.inf:
        raise InvalidParameterError(f"need 0 < low <= high < inf, got ({low}, {high})")
    log_low = float(np.log(low))
    return log_low, float(np.log(high)) - log_low


def _check_p_range(bounds: tuple[int, int], name: str) -> tuple[int, int]:
    """Validate an integer (low, high) allocation range before any draw.

    Returns ``(low, high + 1)``, the half-open bounds of ``gen.integers``.
    """
    lo = check_positive_int(bounds[0], f"{name}[0]")
    hi = check_positive_int(bounds[1], f"{name}[1]")
    if lo > hi:
        raise InvalidParameterError(f"{name} must be ordered, got {bounds}")
    return lo, hi + 1


def _uniform(gen: np.random.Generator, span: Span) -> float:
    # NumPy's own formula for ``gen.uniform(low, high)``, without its
    # per-call argument handling: the same draw, bit for bit.
    return span[0] + span[1] * gen.random()


def _loguniform(gen: np.random.Generator, span: Span) -> float:
    return float(np.exp(_uniform(gen, span)))


# Samplers: every range validated once, before any draw.
_M = TypeVar("_M", bound=SpeedupModel)
Sampler = Callable[[np.random.Generator], _M]


def _roofline(w_range: Bounds, p_range: tuple[int, int]) -> Sampler[RooflineModel]:
    p = _check_p_range(p_range, "p_range")
    w = _check_log_range(w_range)

    def draw(gen: np.random.Generator) -> RooflineModel:
        work = _loguniform(gen, w)
        return RooflineModel(work, int(gen.integers(*p)))

    return draw


def _communication(w_range: Bounds, c_range: Bounds) -> Sampler[CommunicationModel]:
    w, c = _check_log_range(w_range), _check_log_range(c_range)

    def draw(gen: np.random.Generator) -> CommunicationModel:
        return CommunicationModel(_loguniform(gen, w), _loguniform(gen, c))

    return draw


def _amdahl(w_range: Bounds, sequential_fraction: Bounds) -> Sampler[AmdahlModel]:
    frac = _check_fraction_range(sequential_fraction, "sequential_fraction")
    w = _check_log_range(w_range)

    def draw(gen: np.random.Generator) -> AmdahlModel:
        work = _loguniform(gen, w)
        f = _uniform(gen, frac)
        return AmdahlModel(work * (1 - f), work * f)

    return draw


def _general(
    w_range: Bounds, sequential_fraction: Bounds, c_range: Bounds, p_range: tuple[int, int] | None
) -> Sampler[GeneralModel]:
    frac = _check_fraction_range(sequential_fraction, "sequential_fraction")
    p = None if p_range is None else _check_p_range(p_range, "p_range")
    w, c = _check_log_range(w_range), _check_log_range(c_range)

    def draw(gen: np.random.Generator) -> GeneralModel:
        work = _loguniform(gen, w)
        f = _uniform(gen, frac)
        comm = _loguniform(gen, c)
        p_tilde = None if p is None else int(gen.integers(*p))
        return GeneralModel(work * (1 - f), d=work * f, c=comm, max_parallelism=p_tilde)

    return draw


def random_roofline(
    rng: int | np.random.Generator | None = None,
    *,
    w_range: tuple[float, float] = _WORK,
    p_range: tuple[int, int] = _ROOFLINE_P,
) -> RooflineModel:
    """Draw a roofline task: log-uniform work, uniform parallelism bound."""
    return _roofline(w_range, p_range)(_rng(rng))


def random_communication(
    rng: int | np.random.Generator | None = None,
    *,
    w_range: tuple[float, float] = _WORK,
    c_range: tuple[float, float] = _OVERHEAD,
) -> CommunicationModel:
    """Draw a communication-model task with log-uniform work and overhead."""
    return _communication(w_range, c_range)(_rng(rng))


def random_amdahl(
    rng: int | np.random.Generator | None = None,
    *,
    w_range: tuple[float, float] = _WORK,
    sequential_fraction: tuple[float, float] = _FRACTION,
) -> AmdahlModel:
    """Draw an Amdahl task; ``d`` is a random fraction of the total work."""
    return _amdahl(w_range, sequential_fraction)(_rng(rng))


def random_general(
    rng: int | np.random.Generator | None = None,
    *,
    w_range: tuple[float, float] = _WORK,
    sequential_fraction: tuple[float, float] = _FRACTION,
    c_range: tuple[float, float] = _OVERHEAD,
    p_range: tuple[int, int] | None = _GENERAL_P,
) -> GeneralModel:
    """Draw a general (Equation (1)) task with all four parameters random."""
    return _general(w_range, sequential_fraction, c_range, p_range)(_rng(rng))


@lru_cache(maxsize=256)
def _factory_sampler(family: str, scale: float) -> Sampler[SpeedupModel]:
    """``family``'s sampler at the default ranges, the work range times ``scale``.

    Cached here rather than on the factories, so that a factory holds no
    closure and stays picklable.
    """
    w_range = (_WORK[0] * scale, _WORK[1] * scale)
    if family == "roofline":
        return _roofline(w_range, _ROOFLINE_P)
    if family == "communication":
        return _communication(w_range, _OVERHEAD)
    if family == "amdahl":
        return _amdahl(w_range, _FRACTION)
    return _general(w_range, _FRACTION, _OVERHEAD, _GENERAL_P)


@dataclass
class RandomModelFactory:
    """Reusable factory drawing tasks of one family with a shared RNG.

    Parameters
    ----------
    family:
        One of ``"roofline"``, ``"communication"``, ``"amdahl"``,
        ``"general"``.
    seed:
        RNG seed (or a ``numpy.random.Generator``).
    work_scale:
        Multiplies the default work range, letting workflow generators set
        per-task-type magnitudes.
    """

    family: str = "general"
    seed: int | np.random.Generator | None = None
    work_scale: float = 1.0
    _rng: np.random.Generator = field(init=False, repr=False)

    _FAMILIES = ("roofline", "communication", "amdahl", "general")

    def __post_init__(self) -> None:
        if self.family not in self._FAMILIES:
            raise InvalidParameterError(
                f"family must be one of {self._FAMILIES}, got {self.family!r}"
            )
        check_positive(self.work_scale, "work_scale")
        self._rng = _rng(self.seed)

    def __call__(self, work_hint: float | None = None) -> SpeedupModel:
        """Draw one model; ``work_hint`` scales the work range if given."""
        scale = self.work_scale
        if work_hint is not None:
            scale *= check_positive(work_hint, "work_hint")
        return _factory_sampler(self.family, scale)(self._rng)


@dataclass
class MixedModelFactory:
    """Factory drawing each task's *family* at random as well.

    Real workflows mix kernels whose scaling behaviours differ; this factory
    models that by sampling the family per task (uniformly over ``families``
    by default), then delegating to the matching single-family generator.
    """

    families: tuple[str, ...] = RandomModelFactory._FAMILIES
    seed: int | np.random.Generator | None = None
    work_scale: float = 1.0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for family in self.families:
            if family not in RandomModelFactory._FAMILIES:
                raise InvalidParameterError(
                    f"unknown family {family!r}; expected subset of "
                    f"{RandomModelFactory._FAMILIES}"
                )
        if not self.families:
            raise InvalidParameterError("families must be non-empty")
        check_positive(self.work_scale, "work_scale")
        self._rng = _rng(self.seed)

    def __call__(self, work_hint: float | None = None) -> SpeedupModel:
        """Draw one model of a random family."""
        family = self.families[int(self._rng.integers(len(self.families)))]
        scale = self.work_scale
        if work_hint is not None:
            scale *= check_positive(work_hint, "work_hint")
        return _factory_sampler(family, scale)(self._rng)
