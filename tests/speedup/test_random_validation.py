"""Regression tests: parameter validation in the random model generators.

The generators used to validate ``sequential_fraction`` on the *drawn*
value, so an invalid range raised only for the (rare or impossible) seeds
whose sample landed outside (0, 1) — reversed ranges were silently
accepted and out-of-range bounds almost never rejected.  RL001's audit
(seed-dependent behavior) surfaced it; validation now happens on the
range itself, before any RNG draw, so errors are deterministic and never
consume generator state.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.speedup import random_amdahl, random_general, random_roofline


class TestDeterministicValidation:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_amdahl_rejects_reversed_fraction_range_every_seed(self, seed):
        # Previously accepted silently (the drawn value still fell in (0, 1)).
        with pytest.raises(InvalidParameterError):
            random_amdahl(seed, sequential_fraction=(0.5, 0.2))

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_amdahl_rejects_zero_low_every_seed(self, seed):
        # Previously raised only if the draw happened to be exactly 0.0.
        with pytest.raises(InvalidParameterError):
            random_amdahl(seed, sequential_fraction=(0.0, 0.3))

    @pytest.mark.parametrize("bounds", [(0.5, 0.2), (0.0, 0.3), (0.2, 1.0), (-0.1, 0.2)])
    def test_general_rejects_bad_fraction_range(self, bounds):
        with pytest.raises(InvalidParameterError):
            random_general(0, sequential_fraction=bounds)

    def test_degenerate_fraction_range_still_allowed(self):
        m = random_amdahl(0, w_range=(10.0, 10.0), sequential_fraction=(0.25, 0.25))
        assert m.d == pytest.approx(2.5)

    def test_roofline_rejects_reversed_p_range(self):
        with pytest.raises(InvalidParameterError):
            random_roofline(0, p_range=(5, 3))

    def test_general_rejects_reversed_p_range(self):
        with pytest.raises(InvalidParameterError):
            random_general(0, p_range=(256, 1))


class TestErrorPathsPreserveRngState:
    """A rejected call must leave a shared Generator exactly where it was."""

    def test_roofline_invalid_p_range_consumes_no_draws(self):
        gen = np.random.default_rng(42)
        with pytest.raises(InvalidParameterError):
            random_roofline(gen, p_range=(9, 2))
        # The next draw matches a fresh generator: no state was consumed.
        fresh = np.random.default_rng(42)
        assert gen.integers(1 << 30) == fresh.integers(1 << 30)

    def test_general_invalid_fraction_consumes_no_draws(self):
        gen = np.random.default_rng(7)
        with pytest.raises(InvalidParameterError):
            random_general(gen, sequential_fraction=(0.9, 0.1))
        fresh = np.random.default_rng(7)
        assert gen.integers(1 << 30) == fresh.integers(1 << 30)

    def test_valid_draws_are_reproducible(self):
        a = random_general(123)
        b = random_general(123)
        assert a.w == b.w and a.d == b.d and a.c == b.c
        assert a.max_parallelism == b.max_parallelism


class TestEveryRangeCheckedBeforeAnyDraw:
    """Each range is validated before the first draw, the last one too."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c_range": (1.0, 0.5)},
            {"c_range": (0.0, 1.0)},
            {"w_range": (5.0, 1.0)},
            {"w_range": (1.0, float("inf"))},
            {"p_range": (0, 4)},
        ],
    )
    def test_general_rejects_without_consuming_draws(self, kwargs):
        gen = np.random.default_rng(11)
        with pytest.raises(InvalidParameterError):
            random_general(gen, **kwargs)
        assert gen.random() == np.random.default_rng(11).random()
