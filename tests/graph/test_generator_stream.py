"""Stream identity of the random workload generators.

The random models and DAGs draw from a ``numpy.random.Generator`` with a
few vectorised or formula-level shortcuts (``low + (high - low) *
gen.random()`` for ``gen.uniform``, one ``gen.random(k)`` per predecessor
row, a row-major walk of the upper-triangle mask).  Each is exact only
because it consumes the same bits and applies the same floating-point
operations as the scalar calls it replaces, so three checks guard it:

* pinned SHA-256s of every generator x model family x seed, together
  with the Generator's next draw (``generator_stream_pins.json``);
* ``gen.uniform`` against its formula over 10^5 mixed ranges;
* each generator against a reference copy of the scalar-draw code it
  replaced, kept below.

The last two are what the oldest supported NumPy is checked with; the
pins also depend on the platform's ``np.log``/``np.exp`` bits.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.graph import TaskGraph
from repro.graph.generators import erdos_renyi_dag, independent_tasks, layered_random
from repro.graph.io import graph_to_dict
from repro.speedup import (
    AmdahlModel,
    CommunicationModel,
    GeneralModel,
    MixedModelFactory,
    RandomModelFactory,
    RooflineModel,
)

PINS = json.loads((Path(__file__).parent / "generator_stream_pins.json").read_text())

FAMILIES = ("roofline", "communication", "amdahl", "general", "mixed")
SEEDS = (0, 1, 2)


def _factory(family: str, gen: np.random.Generator):
    if family == "mixed":
        return MixedModelFactory(seed=gen)
    return RandomModelFactory(family, seed=gen)


def _build(generator: str, factory, gen: np.random.Generator) -> TaskGraph:
    if generator == "layered_random":
        return layered_random(5, 6, factory, edge_probability=0.3, seed=gen)
    if generator == "erdos_renyi_dag":
        return erdos_renyi_dag(30, factory, edge_probability=0.15, seed=gen)
    return independent_tasks(20, factory)


def pin(generator: str, family: str, seed: int) -> dict[str, str]:
    """One generator's output and the shared Generator's position after it."""
    gen = np.random.default_rng(seed)
    graph = _build(generator, _factory(family, gen), gen)
    payload = json.dumps(graph_to_dict(graph), sort_keys=True)
    return {
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "next_draw": float(gen.random()).hex(),
    }


CASES = [
    (generator, family, seed)
    for generator in ("layered_random", "erdos_renyi_dag", "independent_tasks")
    for family in FAMILIES
    for seed in SEEDS
]


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(f"{g}/{f}/{s}" for g, f, s in CASES)


@pytest.mark.parametrize(("generator", "family", "seed"), CASES)
def test_pinned_stream(generator, family, seed):
    assert pin(generator, family, seed) == PINS[f"{generator}/{family}/{seed}"]


# ----------------------------------------------------------------------
# gen.uniform(lo, hi) is lo + (hi - lo) * gen.random(), draw for draw
# ----------------------------------------------------------------------
def test_uniform_formula_matches_generator_uniform():
    ranges = np.random.default_rng(99)
    a = np.random.default_rng(2024)
    b = np.random.default_rng(2024)
    for i in range(100_000):
        kind = i % 4
        if kind == 0:  # log-uniform work and overhead ranges
            lo = float(np.log(ranges.uniform(1e-3, 10.0)))
            hi = lo + float(ranges.uniform(0.0, 12.0))
        elif kind == 1:  # fraction ranges
            lo = float(ranges.uniform(1e-4, 0.5))
            hi = float(ranges.uniform(lo, 0.999))
        elif kind == 2:  # signed, wide
            lo, hi = sorted(float(x) for x in ranges.uniform(-1e6, 1e6, 2))
        else:  # degenerate
            lo = hi = float(ranges.uniform(-5.0, 5.0))
        expected = a.uniform(lo, hi)
        got = lo + (hi - lo) * b.random()
        assert got == expected, (i, lo, hi)
    assert a.random() == b.random()


# ----------------------------------------------------------------------
# Reference copies of the scalar-draw code the generators replaced
# ----------------------------------------------------------------------
def _old_loguniform(gen, low, high):
    return float(np.exp(gen.uniform(np.log(low), np.log(high))))


def _old_model(family, gen, scale):
    w_range = (1.0 * scale, 100.0 * scale)
    if family == "roofline":
        w = _old_loguniform(gen, *w_range)
        return RooflineModel(w, int(gen.integers(1, 64 + 1)))
    if family == "communication":
        return CommunicationModel(_old_loguniform(gen, *w_range), _old_loguniform(gen, 0.001, 1.0))
    w = _old_loguniform(gen, *w_range)
    frac = float(gen.uniform(0.001, 0.3))
    if family == "amdahl":
        return AmdahlModel(w * (1 - frac), w * frac)
    c = _old_loguniform(gen, 0.001, 1.0)
    p_tilde = int(gen.integers(1, 256 + 1))
    return GeneralModel(w * (1 - frac), d=w * frac, c=c, max_parallelism=p_tilde)


class _OldFactory:
    def __init__(self, family, gen, work_scale=1.0):
        self.family, self.gen, self.work_scale = family, gen, work_scale

    def __call__(self, work_hint=None):
        scale = self.work_scale * (1.0 if work_hint is None else float(work_hint))
        family = self.family
        if family == "mixed":
            families = RandomModelFactory._FAMILIES
            family = families[int(self.gen.integers(len(families)))]
        return _old_model(family, self.gen, scale)


def _old_layered_random(n_layers, layer_width, model_factory, p, gen):
    g = TaskGraph()
    layers = []
    next_id = 0
    for _ in range(n_layers):
        layer = []
        for _ in range(layer_width):
            g.add_task(next_id, model_factory())
            layer.append(next_id)
            next_id += 1
        layers.append(layer)
    for i in range(1, n_layers):
        for v in layers[i]:
            preds = [u for u in layers[i - 1] if gen.random() < p]
            if not preds:
                preds = [layers[i - 1][int(gen.integers(len(layers[i - 1])))]]
            for u in preds:
                g.add_edge(u, v)
    return g


def _old_erdos_renyi_dag(n, model_factory, p, gen):
    g = TaskGraph()
    for i in range(n):
        g.add_task(i, model_factory())
    if n > 1:
        mask = gen.random((n, n)) < p
        for i in range(n):
            for j in range(i + 1, n):
                if mask[i, j]:
                    g.add_edge(i, j)
    return g


def _same_stream(build_new, build_old, seed):
    """Build with both codes from one seed; compare output and stream position."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    new, old = build_new(a), build_old(b)
    assert graph_to_dict(new) == graph_to_dict(old)
    assert a.random() == b.random()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("work_scale", [1.0, 0.37])
def test_factories_match_scalar_reference(family, work_scale):
    hints = [None, 2.0, None, 0.5, 8.0, 2.0]
    for seed in range(5):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        if family == "mixed":
            new = MixedModelFactory(seed=a, work_scale=work_scale)
        else:
            new = RandomModelFactory(family, seed=a, work_scale=work_scale)
        old = _OldFactory(family, b, work_scale)
        for k in range(60):
            hint = hints[k % len(hints)]
            assert new(hint) == old(hint)
        assert a.random() == b.random()


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize(("n_layers", "width"), [(1, 4), (2, 1), (6, 8), (4, 17)])
def test_layered_random_matches_scalar_reference(n_layers, width, p):
    for seed in range(4):
        _same_stream(
            lambda gen: layered_random(
                n_layers, width, RandomModelFactory("general", seed=gen),
                edge_probability=p, seed=gen,
            ),
            lambda gen: _old_layered_random(n_layers, width, _OldFactory("general", gen), p, gen),
            seed,
        )


@pytest.mark.parametrize("p", [0.0, 0.08, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 13, 48])
def test_erdos_renyi_dag_matches_scalar_reference(n, p):
    for seed in range(4):
        _same_stream(
            lambda gen: erdos_renyi_dag(
                n, RandomModelFactory("amdahl", seed=gen), edge_probability=p, seed=gen
            ),
            lambda gen: _old_erdos_renyi_dag(n, _OldFactory("amdahl", gen), p, gen),
            seed,
        )
