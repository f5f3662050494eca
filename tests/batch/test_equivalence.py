"""Batch equivalence: ``run_batch`` results are bit-identical to reference.

The contract under test is exact equality of the *full* result — schedule
entries (values and order), allocation and reveal dicts (values and
insertion order), makespans — never approximate closeness.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batch import run_batch
from repro.core.allocator import LpaAllocator
from repro.core.constants import MODEL_FAMILIES
from repro.graph import TaskGraph
from repro.graph.generators import (
    chain,
    erdos_renyi_dag,
    fork_join,
    independent_tasks,
    layered_random,
)
from repro.sim import ListScheduler, StaticGraphSource
from repro.speedup import (
    AmdahlModel,
    CommunicationModel,
    GeneralModel,
    PowerLawModel,
    RooflineModel,
    TabulatedModel,
)
from repro.speedup.random import RandomModelFactory


def assert_identical(reference, batched):
    """Full bit-identity between two SimulationResults."""
    assert reference.makespan == batched.makespan
    assert list(reference.schedule) == list(batched.schedule)
    assert reference.allocations == batched.allocations
    assert list(reference.allocations) == list(batched.allocations)
    assert reference.revealed_at == batched.revealed_at
    assert list(reference.revealed_at) == list(batched.revealed_at)


def run_both(graph, P, mu=0.324):
    reference = ListScheduler(P, LpaAllocator(mu)).run(StaticGraphSource(graph))
    (batched,) = run_batch([(graph, P)], LpaAllocator(mu)).results
    return reference, batched


models = st.one_of(
    st.builds(
        RooflineModel,
        st.floats(1.0, 100.0),
        max_parallelism=st.integers(1, 48),
    ),
    st.builds(CommunicationModel, st.floats(1.0, 100.0), st.floats(0.01, 2.0)),
    st.builds(AmdahlModel, st.floats(1.0, 100.0), st.floats(0.01, 5.0)),
    st.builds(
        GeneralModel,
        st.floats(1.0, 100.0),
        st.floats(0.0, 3.0),
        # c = 0 or c >= 1e-6: subnormal c makes sqrt(w / c) overflow
        # inside max_useful_processors, a model edge case unrelated to
        # batch equivalence.
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        max_parallelism=st.integers(1, 64),
    ),
    # Models outside Equation (1): the allocator's generic search.
    st.builds(PowerLawModel, st.floats(1.0, 100.0), st.floats(0.05, 1.0)),
    st.builds(TabulatedModel, st.lists(st.floats(0.5, 100.0), min_size=1, max_size=12)),
)


def fixed_dag(*models):
    """A chain over the first half of ``models``, the rest independent."""
    g = TaskGraph()
    for i, model in enumerate(models):
        g.add_task(i, model)
    for i in range(len(models) // 2 - 1):
        g.add_edge(i, i + 1)
    return g


#: Equation (1) with c > 0 and a bounded p̃ on both sides of sqrt(w/c).
BOUNDED_COMM = fixed_dag(
    GeneralModel(90.0, 1.5, 0.02, max_parallelism=40),
    GeneralModel(90.0, 1.5, 0.02, max_parallelism=80),
    GeneralModel(5000.0, 0.0, 0.3, max_parallelism=7),
    GeneralModel(12.0, 0.5, 0.9, max_parallelism=3),
)
#: Models without the Equation (1) closed forms.
GENERIC_MODELS = fixed_dag(
    PowerLawModel(60.0, exponent=0.6),
    TabulatedModel([20.0, 11.0, 8.0, 6.5, 6.0]),
    PowerLawModel(7.0, exponent=0.3),
    TabulatedModel([9.0, 10.0, 4.0]),
)


@st.composite
def random_dags(draw):
    """Arbitrary DAGs: hypothesis-chosen models and forward edges."""
    n = draw(st.integers(1, 20))
    g = TaskGraph()
    for i in range(n):
        g.add_task(i, draw(models))
    if n > 1:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=3 * n,
            )
        )
        for u, v in pairs:
            if u < v and v not in g.successors(u):
                g.add_edge(u, v)
    return g


class TestHypothesisEquivalence:
    @given(graph=random_dags(), P=st.sampled_from([1, 2, 5, 7, 16, 64, 1000]))
    @example(graph=BOUNDED_COMM, P=1000)
    @example(graph=BOUNDED_COMM, P=7)
    @example(graph=GENERIC_MODELS, P=1000)
    @example(graph=GENERIC_MODELS, P=2)
    @settings(max_examples=60, deadline=None)
    def test_random_dags_all_models(self, graph, P):
        assert_identical(*run_both(graph, P))

    @given(
        family=st.sampled_from(MODEL_FAMILIES),
        seed=st.integers(0, 5000),
        P=st.sampled_from([1, 2, 7, 24, 64, 1000]),
        mu=st.sampled_from([0.211, 0.271, 0.324, 0.38]),
    )
    @example(family="general", seed=1, P=1000, mu=0.324)
    @example(family="general", seed=2, P=1, mu=0.271)
    @settings(max_examples=40, deadline=None)
    def test_generator_shapes(self, family, seed, P, mu):
        factory = RandomModelFactory(family=family, seed=seed)
        graph = layered_random(3, 5, factory, edge_probability=0.4, seed=seed)
        assert_identical(*run_both(graph, P, mu))

    @given(seed=st.integers(0, 5000), P=st.sampled_from([1, 2, 3, 7, 17, 80, 1000]))
    @settings(max_examples=30, deadline=None)
    def test_erdos_renyi(self, seed, P):
        factory = RandomModelFactory(family="general", seed=seed)
        graph = erdos_renyi_dag(30, factory, edge_probability=0.12, seed=seed)
        assert_identical(*run_both(graph, P))


class TestDeterministicShapes:
    @pytest.mark.parametrize("P", [1, 2, 7, 16, 128, 1000])
    def test_chain(self, P):
        factory = RandomModelFactory(family="communication", seed=11)
        assert_identical(*run_both(chain(20, factory), P))

    @pytest.mark.parametrize("P", [1, 2, 5, 7, 64, 1000])
    def test_independent(self, P):
        factory = RandomModelFactory(family="roofline", seed=5)
        assert_identical(*run_both(independent_tasks(60, factory), P))

    @pytest.mark.parametrize("P", [1, 2, 7, 9, 33, 1000])
    def test_fork_join(self, P):
        factory = RandomModelFactory(family="amdahl", seed=2)
        assert_identical(*run_both(fork_join(7, factory, stages=3), P))

    def test_single_task(self):
        g = TaskGraph()
        g.add_task("only", AmdahlModel(10.0, 1.0))
        assert_identical(*run_both(g, 4))

    def test_simultaneous_reveals_keep_reference_order(self):
        # Many equal-duration predecessors completing at the same instant
        # reveal their successors in a specific reference order; the batch
        # engine must reproduce it exactly.
        g = TaskGraph()
        model = RooflineModel(8.0, max_parallelism=2)
        for i in range(6):
            g.add_task(("src", i), model)
        for j in range(6):
            g.add_task(("dst", j), model)
        for i in range(6):
            for j in range(6):
                g.add_edge(("src", i), ("dst", 5 - j))
        assert_identical(*run_both(g, 6))


class TestBatchedRuns:
    def test_mixed_batch_matches_per_run_reference(self):
        factory = RandomModelFactory(family="communication", seed=9)
        items = [
            (chain(5, factory), 3),
            (fork_join(4, factory, stages=2), 16),
            (layered_random(3, 4, factory, seed=4), 7),
            (independent_tasks(25, factory), 64),
        ]
        allocator = LpaAllocator(0.324)
        outcome = run_batch(items, allocator)
        assert outcome.B == len(items)
        for (graph, P), batched, makespan in zip(
            items, outcome.results, outcome.makespans
        ):
            reference = ListScheduler(P, LpaAllocator(0.324)).run(
                StaticGraphSource(graph)
            )
            assert_identical(reference, batched)
            assert makespan == reference.makespan

    def test_same_graph_many_platforms(self):
        factory = RandomModelFactory(family="general", seed=21)
        graph = layered_random(4, 6, factory, seed=21)
        sizes = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        outcome = run_batch([(graph, P) for P in sizes], LpaAllocator(0.271))
        for P, batched in zip(sizes, outcome.results):
            reference = ListScheduler(P, LpaAllocator(0.271)).run(
                StaticGraphSource(graph)
            )
            assert_identical(reference, batched)

    def test_materialize_false_returns_makespans_only(self):
        factory = RandomModelFactory(family="amdahl", seed=3)
        graph = fork_join(5, factory, stages=2)
        outcome = run_batch([(graph, 8)] * 4, LpaAllocator(0.324), materialize=False)
        assert outcome.results == ()
        assert outcome.makespans.shape == (4,)
        reference = ListScheduler(8, LpaAllocator(0.324)).run(StaticGraphSource(graph))
        assert (outcome.makespans == reference.makespan).all()

    def test_makespans_dtype(self):
        factory = RandomModelFactory(family="roofline", seed=1)
        outcome = run_batch(
            [(chain(3, factory), 2)], LpaAllocator(0.324), materialize=False
        )
        assert outcome.makespans.dtype == np.float64
