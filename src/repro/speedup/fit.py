"""Fit speedup models to measured ``(processors, time)`` samples.

A downstream user rarely knows a kernel's ``(w, d, c, p-tilde)`` directly —
they have benchmark timings.  These fitters recover Equation (1) (and its
special cases) from samples by non-negative least squares, so measured
kernels can be scheduled with the paper's algorithm:

>>> from repro.speedup.fit import fit_amdahl
>>> model = fit_amdahl([(1, 11.0), (2, 6.0), (4, 3.5), (8, 2.25)])
>>> round(model.w, 6), round(model.d, 6)
(10.0, 1.0)
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import FittingError
from repro.speedup.amdahl import AmdahlModel
from repro.speedup.communication import CommunicationModel
from repro.speedup.general import GeneralModel
from repro.speedup.power import PowerLawModel
from repro.speedup.roofline import RooflineModel

__all__ = [
    "fit_general",
    "fit_amdahl",
    "fit_communication",
    "fit_roofline",
    "fit_power_law",
    "fit_best",
]

#: Smallest admissible fitted work (models require w > 0).
_W_FLOOR = 1e-12


def _clean(samples: Iterable[tuple[int, float]], min_distinct: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = sorted({(int(p), float(t)) for p, t in samples})
    if any(p < 1 for p, _ in pairs):
        raise FittingError("processor counts must be >= 1")
    if any(not (math.isfinite(t) and t > 0) for _, t in pairs):
        raise FittingError("times must be finite and positive")
    ps = np.array([p for p, _ in pairs], dtype=float)
    ts = np.array([t for _, t in pairs], dtype=float)
    if len(np.unique(ps)) < min_distinct:
        raise FittingError(
            f"need samples at >= {min_distinct} distinct processor counts, "
            f"got {len(np.unique(ps))}"
        )
    return ps, ts


def _nnls_fit(columns: Sequence[np.ndarray], ts: np.ndarray) -> np.ndarray:
    # Loaded here, not at module level: no simulation path needs scipy.
    from scipy.optimize import nnls

    design = np.column_stack(columns)
    coeffs, _residual = nnls(design, ts)
    return coeffs


def fit_amdahl(samples: Iterable[tuple[int, float]]) -> AmdahlModel:
    """Fit :math:`t(p) = w/p + d` (Equation (4)) with ``w, d >= 0``."""
    ps, ts = _clean(samples, 2)
    w, d = _nnls_fit([1.0 / ps, np.ones_like(ps)], ts)
    if w <= _W_FLOOR:
        raise FittingError("fitted parallel work w is zero; task never speeds up")
    if d <= 1e-9 * float(ts.max()):
        raise FittingError(
            "fitted sequential work d is zero; use fit_roofline for linear speedup"
        )
    return AmdahlModel(float(w), float(d))


def fit_communication(samples: Iterable[tuple[int, float]]) -> CommunicationModel:
    """Fit :math:`t(p) = w/p + c(p-1)` (Equation (3)) with ``w, c >= 0``."""
    ps, ts = _clean(samples, 2)
    w, c = _nnls_fit([1.0 / ps, ps - 1.0], ts)
    if w <= _W_FLOOR:
        raise FittingError("fitted parallel work w is zero")
    if c <= 1e-9 * float(ts.max()):
        raise FittingError(
            "fitted overhead c is zero; use fit_roofline for linear speedup"
        )
    return CommunicationModel(float(w), float(c))


def fit_general(samples: Iterable[tuple[int, float]]) -> GeneralModel:
    """Fit the full Equation (1) without a parallelism bound.

    Needs samples at >= 3 distinct processor counts.  Components that fit
    to zero are dropped (the model degenerates gracefully to the matching
    special case).
    """
    ps, ts = _clean(samples, 3)
    w, d, c = _nnls_fit([1.0 / ps, np.ones_like(ps), ps - 1.0], ts)
    if w <= _W_FLOOR:
        raise FittingError("fitted parallel work w is zero; task never speeds up")
    return GeneralModel(float(w), d=float(d), c=float(c))


def fit_roofline(samples: Iterable[tuple[int, float]]) -> RooflineModel:
    """Fit :math:`t(p) = w / \\min(p, \\tilde p)` (Equation (2)).

    Sweeps candidate :math:`\\tilde p` values over the sampled processor
    counts and picks the one minimizing the squared error; ``w`` has a
    closed-form least-squares solution for each candidate.
    """
    ps, ts = _clean(samples, 1)
    best: tuple[float, float, int] | None = None
    for cand in sorted({int(p) for p in ps}):
        eff = np.minimum(ps, cand)
        basis = 1.0 / eff
        w = float(np.dot(basis, ts) / np.dot(basis, basis))
        err = float(np.sum((w * basis - ts) ** 2))
        if best is None or err < best[0]:
            best = (err, w, cand)
    _, w, p_tilde = best
    if w <= _W_FLOOR:
        raise FittingError("fitted work w is zero")
    return RooflineModel(w, p_tilde)


def fit_power_law(samples: Iterable[tuple[int, float]]) -> PowerLawModel:
    """Fit :math:`t(p) = w / p^k` by linear regression in log-log space."""
    ps, ts = _clean(samples, 2)
    slope, intercept = np.polyfit(np.log(ps), np.log(ts), 1)
    k = float(-slope)
    if not 0 < k <= 1:
        raise FittingError(
            f"fitted exponent {k:.4g} outside (0, 1]; the samples do not "
            "follow a sublinear power law"
        )
    return PowerLawModel(float(np.exp(intercept)), k)


def fit_best(
    samples: Iterable[tuple[int, float]], *, max_relative_error: float | None = None
) -> SpeedupModel:
    """Fit every family and return the model with the smallest squared error.

    Ties favour simpler models (fewer parameters).  With
    ``max_relative_error`` set, candidates whose relative RMS error exceeds
    it are discarded, and :class:`~repro.exceptions.FittingError` is raised
    when nothing acceptable remains (e.g. the samples do not slow down with
    fewer processors at all).
    """
    samples = list(samples)
    ps, ts = _clean(samples, 2)
    scale = float(np.sqrt(np.mean(ts**2)))
    candidates = []
    # (complexity, fitter) — lower complexity wins ties.
    for complexity, fitter in (
        (1, fit_roofline),
        (2, fit_amdahl),
        (2, fit_communication),
        (2, fit_power_law),
        (3, fit_general),
    ):
        try:
            model = fitter(samples)
        except FittingError:
            continue
        err = float(sum((model.time(int(p)) - t) ** 2 for p, t in zip(ps, ts, strict=True)))
        rel_rms = math.sqrt(err / len(ps)) / scale
        if max_relative_error is not None and rel_rms > max_relative_error:
            continue
        candidates.append((err, complexity, id(model), model))
    if not candidates:
        raise FittingError("no model family fits these samples acceptably")
    candidates.sort(key=lambda c: (round(c[0], 12), c[1], c[2]))
    return candidates[0][3]
