"""What the pool keeps of a task once the task can no longer be scheduled.

A finished or cancelled task matters only as a row of the state digest.
The pool drops its model, its successor list and the loop's retry entry
(attempt number and residual model), and keeps a ``waiting_on`` set only
while a predecessor is unfinished.  ``state_digest()`` renders each row
just before it hashes it, so a digest's transient memory does not grow
with the number of tasks, and the bytes hashed stay those of
``canonical_json({"config": ..., "pool": state_dict()})``.
"""

import gc
import hashlib
import sys
import tracemalloc
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ServiceError
from repro.graph.generators import erdos_renyi_dag, layered_random
from repro.graph.io import model_from_dict, model_to_dict
from repro.runtime.serialization import canonical_json
from repro.service.config import ServiceConfig
from repro.service.core import ServiceCore
from repro.service.pool import SharedPool
from repro.service.protocol import Hello, Submit
from repro.speedup import AmdahlModel
from repro.speedup.random import RandomModelFactory

RETIRED = ("done", "cancelled")


def submit_graph(pool, tenant, graph):
    pool.admit_tenant(tenant)
    for task_id in graph.topological_order():
        pool.submit(
            tenant,
            str(task_id),
            graph.task(task_id).model,
            tuple(str(p) for p in graph.predecessors(task_id)),
        )


def fail_busy(pool, rng):
    """Fail one processor that runs an attempt; returns it (``None`` if all idle)."""
    busy = sorted(pool.owner)
    if not busy:
        return None
    proc = int(rng.choice(busy))
    pool.fault("fail", proc)
    return proc


class TestRetryEntries:
    def test_drained_faulted_multi_tenant_session_leaves_no_retry_entry(self):
        pool = SharedPool(
            ServiceConfig(P=8, family="amdahl", fault_max_attempts=1000, fault_backoff=0.5)
        )
        for i, tenant in enumerate(("a", "b", "c")):
            factory = RandomModelFactory("amdahl", seed=20 + i)
            submit_graph(pool, tenant, erdos_renyi_dag(25, factory, edge_probability=0.2, seed=i))
            pool.close_tenant(tenant)
        rng = np.random.default_rng(5)
        peak = 0
        for _ in range(40):
            proc = fail_busy(pool, rng)
            pool.tick(3)
            peak = max(peak, len(pool.retries))
            if proc is not None:
                pool.fault("recover", proc)
        while pool.has_pending_events():
            pool.tick(64)
        assert pool.stats.killed > 0 and peak > 0
        assert all(run.status == "finished" for run in pool.tenants.values())
        assert pool.retries == {}

    def test_cancel_drops_the_retry_entries_of_the_session(self):
        pool = SharedPool(ServiceConfig(P=4, family="amdahl", fault_backoff=1.0))
        pool.admit_tenant("keep")
        pool.submit("keep", "x", AmdahlModel(50.0, 1.0), ())
        pool.admit_tenant("gone")
        for tid in ("a", "b"):
            pool.submit("gone", tid, AmdahlModel(8.0, 1.0), ())
        gone = pool.tenants["gone"]
        for tid in ("a", "b"):
            pool.fault("fail", gone.tasks[tid].proc_ids[0])
        assert {gone.tasks[t].slot for t in ("a", "b")} <= pool.retries.keys()
        pool.cancel_tenant("gone", "CANCELLED")
        assert pool.retries.keys().isdisjoint(task.slot for task in gone.tasks.values())


class TestModelLifetime:
    """A task's model lives exactly as long as the task can be scheduled."""

    @staticmethod
    def check(pool, refs, seen):
        gc.collect()
        for (tenant, tid), ref in refs.items():
            task = pool.tenants[tenant].tasks[tid]
            seen.add(task.state)
            assert (ref() is None) == (task.state in RETIRED), (tid, task.state)

    def test_model_is_collected_at_done_and_cancelled_only(self):
        pool = SharedPool(ServiceConfig(P=2, family="amdahl", fault_backoff=1.0))
        refs, seen = {}, set()

        def submit(tenant, tid, deps=(), work=4.0):
            model = AmdahlModel(work, 1.0)
            refs[tenant, tid] = weakref.ref(model)
            pool.submit(tenant, tid, model, deps)
            self.check(pool, refs, seen)

        for tenant in ("t", "u"):
            pool.admit_tenant(tenant)
            submit(tenant, "a")  # running
            submit(tenant, "b", ("a",))  # blocked
            submit(tenant, "c", work=2.0)  # queued once the pool is full
        t, u = pool.tenants["t"], pool.tenants["u"]
        assert {t.tasks["b"].state, u.tasks["c"].state} == {"blocked", "queued"}
        proc = t.tasks["a"].proc_ids[0]
        pool.fault("fail", proc)  # t's "a" is killed until its backoff ends
        assert t.tasks["a"].state == "killed"
        self.check(pool, refs, seen)
        pool.fault("recover", proc)
        self.check(pool, refs, seen)
        pool.cancel_tenant("u", "CANCELLED")
        self.check(pool, refs, seen)
        pool.close_tenant("t")
        while pool.has_pending_events():
            pool.tick(1)
            self.check(pool, refs, seen)
        assert t.status == "finished" and u.status == "cancelled"
        assert seen >= {"blocked", "queued", "running", "killed", "done", "cancelled"}
        assert all(ref() is None for ref in refs.values())


class TestCheckerTables:
    def test_forgetting_a_drained_session_shrinks_the_checker_tables(self):
        # Forgetting a session must not leave the checker's tables at
        # their peak size (about 235 KB after 4,000 tasks) for the life
        # of the pool: they keep only the live tenant's task.
        pool = SharedPool(ServiceConfig(P=64, family="amdahl"))
        pool.admit_tenant("live")
        pool.submit("live", "x", AmdahlModel(1e6, 1.0), ())
        pool.admit_tenant("big")
        for i in range(4000):
            pool.submit("big", f"t{i}", AmdahlModel(1.0 + i % 7, 0.25), ())
            if i % 100 == 99:
                pool.tick(64)
        checker = pool.checker
        assert sys.getsizeof(checker._attempts) > 50_000
        pool.close_tenant("big")
        while pool.tenants["big"].status != "finished":
            pool.tick(64)
        assert list(checker._attempts) == ["live/x"]
        sizes = [sys.getsizeof(t) for t in (checker._attempts, checker._killed)]
        assert max(sizes) <= 1024, sizes

def drained_pool(tenants, tasks):
    """A pool that ran ``tenants`` layered sessions of ``tasks`` tasks to the end.

    Each model is built from its dict form just before it is submitted,
    as the server and journal replay do, so the caller holds none of them.
    """
    sessions = []
    for i in range(tenants):
        factory = RandomModelFactory("general", seed=i)
        graph = layered_random(tasks // 10, 10, factory, edge_probability=0.2, seed=i)
        sessions.append((f"t{i}", [
            (str(t), model_to_dict(graph.task(t).model),
             tuple(str(p) for p in graph.predecessors(t)))
            for t in graph.topological_order()
        ]))
    del graph, factory
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pool = SharedPool(ServiceConfig(P=64, family="general"))
        empty = tracemalloc.get_traced_memory()[0]
        for tenant, rows in sessions:
            pool.admit_tenant(tenant)
            for tid, model, deps in rows:
                pool.submit(tenant, tid, model_from_dict(model), deps)
                pool.tick(4)
            pool.close_tenant(tenant)
        while pool.has_pending_events():
            pool.tick(64)
        # The allocator's LRU is bounded (1,024 entries) and holds no task.
        pool.allocator.clear_allocation_cache()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - empty
    finally:
        tracemalloc.stop()
    assert before <= empty
    return pool, held


class TestRetainedBytes:
    def test_a_finished_task_keeps_less_than_half_of_what_it_kept(self):
        # CPython 3.11 kept 673 B per finished task here when the pool
        # held every task's model, an empty ``waiting_on`` set and a
        # successor list; it keeps about 305 B now.  The bound is half
        # of the old figure, which leaves room for other object layouts.
        pool, held = drained_pool(4, 500)
        assert pool.stats.completed == 2000
        assert all(run.status == "finished" for run in pool.tenants.values())
        assert held / 2000 < 336, held / 2000


def session_core(tasks):
    """A drained core: two tenants, ``tasks`` chained submits each."""
    core = ServiceCore(ServiceConfig(P=8, family="amdahl"))
    for tenant in ("a", "b"):
        core.hello(Hello(tenant=tenant))
        for i in range(tasks):
            deps = (f"t{i - 1}",) if i % 3 else ()
            core.submit(tenant, Submit(task=f"t{i}", model=AmdahlModel(1.0 + i % 7, 0.25),
                                       deps=deps))
            core.tick()
            if core.pool.tenants[tenant].inflight >= 200:
                core.drain()
        core.close(tenant)
        core.drain()
    return core


class TestDigestTransient:
    def test_digest_memory_does_not_grow_with_the_session(self):
        def transient(tasks):
            core = session_core(tasks)
            gc.collect()
            tracemalloc.start()
            try:
                current = tracemalloc.get_traced_memory()[0]
                digest = core.state_digest()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            expected = hashlib.sha256(canonical_json(
                {"config": core.config.as_dict(), "pool": core.pool.state_dict()}
            ).encode()).hexdigest()
            assert digest == expected
            return peak - current

        short, long = transient(500), transient(2000)
        # Rendering every row at once took about 370 B a task.
        assert long < 1.25 * short + 4_000, (short, long)


#: One session step: (op, tenant index, task index, predecessor indices, number).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["hello", "submit", "submit", "submit", "tick", "fault", "cancel",
                         "close", "drain"]),
        st.integers(0, 2),
        st.integers(0, 7),
        st.lists(st.integers(0, 7), max_size=3),
        st.integers(0, 3),
    ),
    max_size=40,
)


def dict_digest(core):
    return hashlib.sha256(canonical_json(
        {"config": core.config.as_dict(), "pool": core.pool.state_dict()}
    ).encode()).hexdigest()


class TestStreamedDigestProperty:
    @settings(max_examples=60, deadline=None)
    @given(OPS)
    def test_streamed_digest_equals_the_digest_of_the_state_dict(self, ops):
        """Deps, cancel and re-admission with reused ids, faults, retries, evictions."""
        core = ServiceCore(
            ServiceConfig(P=4, family="amdahl", fault_max_attempts=2, fault_backoff=0.5)
        )
        pool = core.pool
        for op, t, task, deps, n in ops:
            tenant = f"t{t}"
            try:
                if op == "hello":
                    core.hello(Hello(tenant=tenant, priority=n))
                elif op == "submit":
                    model = AmdahlModel(1.0 + task, 0.1 * (n + 1))
                    core.submit(tenant, Submit(task=f"k{task}", model=model,
                                               deps=tuple(f"k{d}" for d in deps if d < task)))
                elif op == "tick":
                    core.tick(n + 1)
                elif op == "fault":
                    kind = "recover" if n in pool.down else "fail"
                    if kind == "recover" or len(pool.down) < 3:
                        core.fault(kind, n)
                elif op == "cancel":
                    core.cancel(tenant)
                elif op == "close":
                    core.close(tenant)
                else:
                    for proc in sorted(pool.down):
                        core.fault("recover", proc)
                    core.drain()
            except ServiceError:
                pass
            assert core.state_digest() == dict_digest(core)
