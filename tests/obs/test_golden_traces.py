"""Golden trace digests: the reference engine's event stream is pinned.

Twenty deterministic scenarios live in ``golden_trace_digests.json``;
each digest is :func:`repro.obs.export.trace_digest` over the canonical
JSONL serialization of every event the reference engine emits while
tracing the scenario's runs through one allocator.  A changed digest
means a changed schedule, allocation decision, cache status or event
payload.  Regenerate (only for an intended change) with
``PYTHONPATH=src python tests/obs/test_golden_traces.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.allocator import LpaAllocator
from repro.graph import TaskGraph
from repro.graph.generators import (
    chain,
    erdos_renyi_dag,
    fork_join,
    independent_tasks,
    layered_random,
)
from repro.obs.events import CollectingTracer
from repro.obs.export import trace_digest
from repro.sim import ListScheduler, StaticGraphSource
from repro.speedup import (
    AmdahlModel,
    CallableModel,
    LogParallelismModel,
    PowerLawModel,
    RooflineModel,
    TabulatedModel,
)
from repro.speedup.random import MixedModelFactory, RandomModelFactory

GOLDEN_PATH = Path(__file__).parent / "golden_trace_digests.json"

MU = 0.324


def _single_task():
    g = TaskGraph()
    g.add_task("only", AmdahlModel(10.0, 1.0))
    return [(g, 4)]


def _scalar_lane_models():
    # Model families outside the Equation (1) path: each resolves
    # through the allocator's generic search.
    g = TaskGraph()
    g.add_task("pow", PowerLawModel(40.0, exponent=0.6))
    g.add_task("tab", TabulatedModel((20.0, 11.0, 8.0, 6.5, 6.0)))
    g.add_task("logp", LogParallelismModel(30.0))
    g.add_edge("pow", "tab")
    g.add_edge("pow", "logp")
    return [(g, 8)]


def _shared_model_groups():
    # Many tasks sharing few cache keys: the first-revealed member of a
    # group carries the miss, every later member must trace as a hit.
    g = TaskGraph()
    a = AmdahlModel(12.0, 0.5)
    r = RooflineModel(9.0, max_parallelism=6)
    for i in range(8):
        g.add_task(("a", i), a)
        g.add_task(("r", i), r)
    for i in range(7):
        g.add_edge(("a", i), ("a", i + 1))
    return [(g, 10)]


def _keyless_bypass():
    # cache_key() -> None models bypass the allocation cache; every
    # AllocationDecided must carry cache="bypass", never "hit".
    g = TaskGraph()
    for i in range(5):
        g.add_task(i, CallableModel(lambda p, i=i: (14.0 + i) / min(p, 3)))
    g.add_edge(0, 3)
    g.add_edge(1, 4)
    return [(g, 6)]


def _warm_cache_replay():
    # Two runs of one graph through one allocator: run 1 traces misses,
    # run 2 must trace the warm cache (all hits).
    factory = RandomModelFactory(family="amdahl", seed=31)
    g = layered_random(3, 4, factory, seed=31)
    return [(g, 8), (g, 8)]


def _platform_sweep():
    # One graph across platform sizes in a single batch: allocations
    # differ per P while the allocator cache warms across runs.
    factory = RandomModelFactory(family="general", seed=13)
    g = layered_random(3, 5, factory, seed=13)
    return [(g, P) for P in (2, 5, 17, 64)]


def _simultaneous_reveals():
    g = TaskGraph()
    model = RooflineModel(8.0, max_parallelism=2)
    for i in range(6):
        g.add_task(("src", i), model)
    for j in range(6):
        g.add_task(("dst", j), model)
    for i in range(6):
        for j in range(6):
            g.add_edge(("src", i), ("dst", 5 - j))
    return [(g, 6)]


def _family(family, seed, shape, P):
    factory = RandomModelFactory(family=family, seed=seed)
    if shape == "layered":
        return [(layered_random(3, 5, factory, edge_probability=0.4, seed=seed), P)]
    if shape == "chain":
        return [(chain(16, factory), P)]
    if shape == "fork_join":
        return [(fork_join(6, factory, stages=3), P)]
    raise ValueError(shape)


#: The 20 golden scenarios: name -> zero-arg items builder.  Every run in
#: a scenario is traced in order through ONE allocator (cache state flows
#: across runs).
SCENARIOS = {
    "single_task": _single_task,
    "chain_short": lambda: [(chain(6, RandomModelFactory(family="communication", seed=11)), 3)],
    "chain_serial_P1": lambda: [(chain(10, RandomModelFactory(family="amdahl", seed=7)), 1)],
    "independent_wide": lambda: [
        (independent_tasks(64, RandomModelFactory(family="roofline", seed=5)), 24)
    ],
    "independent_starved": lambda: [
        (independent_tasks(20, RandomModelFactory(family="general", seed=9)), 2)
    ],
    "fork_join_deep": lambda: [(fork_join(5, RandomModelFactory(family="amdahl", seed=2), stages=4), 9)],
    "layered_small": lambda: _family("communication", 17, "layered", 7),
    "layered_wide": lambda: [
        (layered_random(2, 12, RandomModelFactory(family="roofline", seed=23), seed=23), 40)
    ],
    "erdos_sparse": lambda: [
        (erdos_renyi_dag(24, RandomModelFactory(family="general", seed=3), edge_probability=0.08, seed=3), 12)
    ],
    "erdos_dense": lambda: [
        (erdos_renyi_dag(18, RandomModelFactory(family="amdahl", seed=19), edge_probability=0.35, seed=19), 15)
    ],
    "amdahl_chain": lambda: _family("amdahl", 41, "chain", 6),
    "roofline_forkjoin": lambda: _family("roofline", 43, "fork_join", 11),
    "communication_layered": lambda: _family("communication", 47, "layered", 13),
    "general_layered": lambda: _family("general", 53, "layered", 21),
    "mixed_models": lambda: [(layered_random(4, 4, MixedModelFactory(seed=61), seed=61), 14)],
    "scalar_lane_models": _scalar_lane_models,
    "shared_model_groups": _shared_model_groups,
    "keyless_bypass": _keyless_bypass,
    "warm_cache_replay": _warm_cache_replay,
    "platform_sweep": _platform_sweep,
}


def reference_events(items, mu=MU):
    """Trace every run on the reference engine through one allocator."""
    tracer = CollectingTracer()
    allocator = LpaAllocator(mu)
    for graph, P in items:
        ListScheduler(P, allocator).run(StaticGraphSource(graph), tracer=tracer)
    return tracer.events


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenDigests:
    def test_every_scenario_is_pinned(self, golden):
        assert sorted(golden) == sorted(SCENARIOS)
        assert len(SCENARIOS) == 20

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_reference_matches_golden(self, name, golden):
        digest = trace_digest(reference_events(SCENARIOS[name]()))
        assert digest == golden[name], f"reference trace drifted for {name!r}"


def _regenerate() -> None:
    digests = {
        name: trace_digest(reference_events(build()))
        for name, build in sorted(SCENARIOS.items())
    }
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
