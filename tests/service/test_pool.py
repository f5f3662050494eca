"""SharedPool semantics: engine equivalence, fairness, quotas, faults."""

import numpy as np
import pytest

from repro.core.allocator import LpaAllocator
from repro.core.constants import mu_for_family
from repro.exceptions import ServiceError
from repro.graph import TaskGraph
from repro.graph.generators import erdos_renyi_dag, fork_join
from repro.obs.events import CollectingTracer, FaultInjected, TaskCompleted, TaskStarted
from repro.resilience import FaultTrace, RetryPolicy
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.pool import SharedPool
from repro.sim.engine import ListScheduler
from repro.speedup import AmdahlModel, RooflineModel
from repro.speedup.random import RandomModelFactory


def drain(pool, max_ticks=10_000):
    notes = []
    for _ in range(max_ticks):
        if not pool.has_pending_events():
            return notes
        notes.extend(pool.tick(64))
    raise AssertionError("pool failed to drain")


def feed_graph(pool, tenant, graph):
    # Stream in graph insertion order: it is topological for the repo's
    # generators, and it is the tie-break StaticGraphSource uses for
    # simultaneous reveals — required for bit-exact engine equivalence.
    pool.admit_tenant(tenant)
    for task_id in graph.task_map():
        pool.submit(
            tenant,
            str(task_id),
            graph.task(task_id).model,
            tuple(str(p) for p in graph.predecessors(task_id)),
        )
    pool.close_tenant(tenant)


class TestEngineEquivalence:
    """A single tenant must reproduce ListScheduler bit-exactly."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("family", ["general", "amdahl", "communication"])
    def test_single_tenant_matches_engine(self, seed, family):
        factory = RandomModelFactory(family, seed=seed + 100)
        graph = erdos_renyi_dag(30, factory, edge_probability=0.15, seed=seed)
        P = 16
        reference = ListScheduler(P, LpaAllocator(mu_for_family(family))).run(graph)

        pool = SharedPool(ServiceConfig(P=P, family=family))
        feed_graph(pool, "t", graph)
        drain(pool)

        run = pool.tenants["t"]
        assert run.status == "finished"
        for entry in reference.schedule:
            task = run.tasks[str(entry.task_id)]
            assert task.start == entry.start
            assert task.end == entry.end
            assert task.procs == entry.procs

    def test_fork_join_makespan_matches(self):
        factory = RandomModelFactory("roofline", seed=9)
        graph = fork_join(12, factory, stages=2)
        P = 8
        reference = ListScheduler(P, LpaAllocator(mu_for_family("roofline"))).run(graph)
        pool = SharedPool(ServiceConfig(P=P, family="roofline"))
        feed_graph(pool, "t", graph)
        drain(pool)
        run = pool.tenants["t"]
        makespan = max(t.end for t in run.tasks.values())
        assert makespan == reference.schedule.makespan()


def assert_matches(run, reference):
    """Every completed attempt of ``reference`` equals the pool's, bit for bit."""
    assert run.status == "finished"
    attempts = reference.attempt_counts()
    for entry in reference.schedule:
        task = run.tasks[str(entry.task_id)]
        assert (task.start, task.end, task.procs) == (entry.start, entry.end, entry.procs)
        assert task.attempt == attempts[entry.task_id]


class TestFaultEquivalence:
    """A single tenant under faults must reproduce a fault run of the engine.

    Service faults arrive between queue passes, the engine applies them
    before the pass of their instant; the two agree when the pool's pass
    at the fault instant started nothing, so faults go only there, each
    on a processor busy with an attempt started earlier.
    """

    def test_retry_due_with_a_reveal_queues_behind_it(self):
        # A (w=10), B (w=2), D (w=1), E (w=5), C (w=5) after B, all on one
        # processor, P=3, processor 0 fails at t=1, backoff 1.  At t=2 B's
        # completion reveals C as A's retry comes due: reveals queue first.
        graph = TaskGraph()
        for name, work in (("A", 10.0), ("B", 2.0), ("D", 1.0), ("E", 5.0), ("C", 5.0)):
            graph.add_task(name, RooflineModel(work, 1))
        graph.add_edge("B", "C")
        config = ServiceConfig(P=3, family="roofline", fault_backoff=1.0)
        reference = ListScheduler(3, LpaAllocator(config.effective_mu)).run(
            graph,
            faults=FaultTrace([(1.0, "fail", 0)]),
            retry=RetryPolicy(max_attempts=config.fault_max_attempts, backoff_base=1.0),
        )
        pool = SharedPool(config)
        feed_graph(pool, "t", graph)
        pool.tick(1)  # t=1: D completes
        assert pool.now == 1.0
        pool.fault("fail", 0)
        drain(pool)
        run = pool.tenants["t"]
        assert (run.tasks["A"].start, run.tasks["A"].end) == (6.0, 16.0)
        assert (run.tasks["C"].start, run.tasks["C"].end) == (2.0, 7.0)
        assert_matches(run, reference)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("family", ["general", "amdahl", "communication", "roofline"])
    def test_seeded_fault_runs_match_engine(self, seed, family):
        rng = np.random.default_rng([seed, 23])
        factory = RandomModelFactory(family, seed=seed + 200)
        graph = erdos_renyi_dag(30, factory, edge_probability=0.15, seed=seed)
        P = 16
        config = ServiceConfig(P=P, family=family, fault_backoff=0.25)
        pool = SharedPool(config)
        feed_graph(pool, "t", graph)
        faults: list[tuple[float, str, int]] = []
        run = pool.tenants["t"]
        while pool.has_pending_events():
            pool.tick(1)
            now = pool.now
            if any(t.start == now for t in run.tasks.values()) or rng.random() < 0.3:
                continue
            if pool.down and rng.random() < 0.5:
                proc = int(rng.choice(sorted(pool.down)))
                pool.fault("recover", proc)
                faults.append((now, "recover", proc))
                continue
            busy = sorted(
                q for q, (_, task_id) in pool.proc_owner.items()
                if run.tasks[task_id].start < now
            )
            if busy and len(pool.down) < P // 2:
                proc = int(rng.choice(busy))
                pool.fault("fail", proc)
                faults.append((now, "fail", proc))
        assert any(kind == "fail" for _, kind, _ in faults)
        reference = ListScheduler(P, LpaAllocator(mu_for_family(family))).run(
            graph,
            faults=FaultTrace(faults),
            retry=RetryPolicy(max_attempts=config.fault_max_attempts, backoff_base=0.25),
        )
        assert reference.killed_attempts() == pool.stats.killed
        assert_matches(run, reference)


class TestMultiTenant:
    def test_two_tenants_share_the_pool(self):
        pool = SharedPool(ServiceConfig(P=8, family="amdahl"))
        m = AmdahlModel(10.0, 1.0)
        pool.admit_tenant("a")
        pool.admit_tenant("b")
        pool.submit("a", "x", m, ())
        pool.submit("b", "y", m, ())
        pool.close_tenant("a")
        pool.close_tenant("b")
        notes = drain(pool)
        done = [n for _, n in notes if n["event"] == "graph-done"]
        assert len(done) == 2
        pool.check_conservation()

    def test_fair_share_prefers_less_loaded_tenant(self):
        # Two single-proc slots, both taken by tenant a.  When the short
        # task frees one at t=5 (the long one still running), tenant b
        # is idle and must overtake a's earlier-queued third task.
        pool = SharedPool(ServiceConfig(P=2, family="amdahl"))
        pool.admit_tenant("a")
        pool.admit_tenant("b")
        pool.submit("a", "a1", AmdahlModel(8.0, 1.0), ())  # runs 0..9
        pool.submit("a", "a2", AmdahlModel(4.0, 1.0), ())  # runs 0..5
        pool.submit("a", "a3", AmdahlModel(4.0, 1.0), ())  # queued
        pool.submit("b", "b1", AmdahlModel(4.0, 1.0), ())  # queued after a3
        pool.close_tenant("a")
        pool.close_tenant("b")
        drain(pool)
        a3 = pool.tenants["a"].tasks["a3"]
        b1 = pool.tenants["b"].tasks["b1"]
        assert b1.start == 5.0
        assert a3.start > b1.start

    def test_quota_caps_tenant_processors(self):
        quota = TenantQuota(max_inflight_tasks=64, max_running_procs=2)
        pool = SharedPool(ServiceConfig(P=8, family="amdahl"))
        pool.admit_tenant("q", quota=quota)
        m = AmdahlModel(50.0, 1.0)  # would take many processors unconstrained
        for i in range(4):
            pool.submit("q", f"t{i}", m, ())
        pool.close_tenant("q")
        tracer = CollectingTracer()
        pool.emit = tracer.emit
        drain(pool)
        # At no instant may the tenant exceed its 2-processor quota.
        for event in tracer.of_type(TaskStarted):
            assert event.procs <= 2
        pool.check_conservation()

    def test_quota_blocked_tenant_does_not_block_others(self):
        pool = SharedPool(ServiceConfig(P=8, family="amdahl"))
        pool.admit_tenant("small", quota=TenantQuota(max_running_procs=1))
        pool.admit_tenant("big")
        m = AmdahlModel(10.0, 1.0)
        pool.submit("small", "s1", m, ())
        pool.submit("small", "s2", m, ())  # quota-blocked behind s1
        pool.submit("big", "b1", m, ())
        pool.close_tenant("small")
        pool.close_tenant("big")
        drain(pool)
        assert pool.tenants["big"].tasks["b1"].start == 0.0


class TestCancellation:
    def test_cancel_returns_all_capacity(self):
        pool = SharedPool(ServiceConfig(P=8, family="amdahl"))
        m = AmdahlModel(100.0, 1.0)
        pool.admit_tenant("v")
        for i in range(6):
            pool.submit("v", f"t{i}", m, ())
        assert len(pool.free_set) < 8
        pool.cancel_tenant("v", "TEST")
        assert len(pool.free_set) == 8
        assert pool.tenants["v"].status == "cancelled"
        pool.check_conservation()

    def test_cancel_frees_capacity_for_other_tenants(self):
        pool = SharedPool(ServiceConfig(P=4, family="amdahl"))
        hog = AmdahlModel(100.0, 1.0)
        pool.admit_tenant("hog")
        for i in range(4):
            pool.submit("hog", f"h{i}", hog, ())
        pool.admit_tenant("ok")
        pool.submit("ok", "x", AmdahlModel(4.0, 1.0), ())
        pool.close_tenant("ok")
        pool.cancel_tenant("hog", "TEST")
        notes = drain(pool)
        assert any(n["event"] == "graph-done" for t, n in notes if t == "ok")


class TestFaults:
    def test_fault_kills_and_retries(self):
        pool = SharedPool(
            ServiceConfig(P=2, family="amdahl", fault_backoff=0.5, fault_max_attempts=5)
        )
        m = AmdahlModel(10.0, 1.0)
        pool.admit_tenant("t")
        pool.submit("t", "a", m, ())
        pool.close_tenant("t")
        victim = next(iter(pool.proc_owner))
        notes = pool.fault("fail", victim)
        assert any(n["event"] == "task-killed" for _, n in notes)
        pool.fault("recover", victim)
        notes = drain(pool)
        assert any(n["event"] == "graph-done" for _, n in notes)
        task = pool.tenants["t"].tasks["a"]
        assert task.attempt == 2
        pool.check_conservation()

    def test_retry_budget_exhaustion_evicts(self):
        pool = SharedPool(
            ServiceConfig(P=1, family="amdahl", fault_max_attempts=2, fault_backoff=0.0)
        )
        m = AmdahlModel(10.0, 1.0)
        pool.admit_tenant("t")
        pool.submit("t", "a", m, ())
        pool.fault("fail", 0)  # attempt 1 dies; retry queued
        pool.fault("recover", 0)  # attempt 2 restarts at once (backoff 0)
        assert pool.tenants["t"].tasks["a"].attempt == 2
        notes = pool.fault("fail", 0)  # attempt 2 dies: budget exhausted
        assert any(
            n["event"] == "evicted" and n["reason"] == "RETRY_EXHAUSTED"
            for _, n in notes
        )
        assert pool.tenants["t"].status == "cancelled"
        pool.fault("recover", 0)
        pool.check_conservation()

    def test_capacity_recap_on_fault(self):
        # An allocation computed for P=8 must be re-capped before starting
        # on a shrunken platform.
        pool = SharedPool(ServiceConfig(P=8, family="amdahl"))
        hog = AmdahlModel(100.0, 1.0)
        pool.admit_tenant("t")
        pool.submit("t", "first", hog, ())  # occupies most of the pool
        pool.submit("t", "queued", hog, ())
        pool.close_tenant("t")
        for proc in range(4):
            pool.fault("fail", proc)
        drain(pool)
        pool.check_conservation()
        # The queued task must have run within the reduced capacity.
        assert pool.tenants["t"].tasks["queued"].procs <= 4

    def test_invalid_fault_rejected(self):
        pool = SharedPool(ServiceConfig(P=2, family="amdahl"))
        with pytest.raises(ServiceError):
            pool.fault("fail", 99)
        pool.fault("fail", 0)
        with pytest.raises(ServiceError):
            pool.fault("fail", 0)
        with pytest.raises(ServiceError):
            pool.fault("recover", 1)


    def test_rejected_fault_emits_nothing(self):
        tracer = CollectingTracer()
        pool = SharedPool(ServiceConfig(P=2, family="amdahl"), emit=tracer.emit)
        for kind, proc in (("explode", 0), ("recover", 1), ("fail", 2)):
            with pytest.raises(ServiceError):
                pool.fault(kind, proc)
        pool.fault("fail", 0)
        with pytest.raises(ServiceError):
            pool.fault("fail", 0)
        injected = tracer.of_type(FaultInjected)
        assert [(e.kind, e.processor) for e in injected] == [("fail", 0)]


class TestDeadlines:
    def test_virtual_deadline_evicts_session(self):
        pool = SharedPool(ServiceConfig(P=2, family="amdahl"))
        m = AmdahlModel(10.0, 1.0)  # takes >= 5.5 time units on 2 procs
        pool.admit_tenant("late", deadline=1.0)
        pool.submit("late", "a", m, ())
        pool.submit("late", "b", m, ("a",))
        pool.close_tenant("late")
        notes = drain(pool)
        evictions = [n for _, n in notes if n["event"] == "evicted"]
        assert evictions and evictions[0]["reason"] == "DEADLINE_EXCEEDED"
        assert pool.tenants["late"].status == "cancelled"
        pool.check_conservation()

    def test_fast_graph_beats_deadline(self):
        pool = SharedPool(ServiceConfig(P=4, family="amdahl"))
        pool.admit_tenant("ok", deadline=1000.0)
        pool.submit("ok", "a", AmdahlModel(4.0, 1.0), ())
        pool.close_tenant("ok")
        notes = drain(pool)
        assert any(n["event"] == "graph-done" for _, n in notes)


class TestObservability:
    def test_events_use_composite_ids(self):
        tracer = CollectingTracer()
        pool = SharedPool(ServiceConfig(P=4, family="amdahl"), emit=tracer.emit)
        pool.admit_tenant("ten")
        pool.submit("ten", "task", AmdahlModel(4.0, 1.0), ())
        pool.close_tenant("ten")
        drain(pool)
        started = tracer.of_type(TaskStarted)
        completed = tracer.of_type(TaskCompleted)
        assert started and started[0].task_id == "ten/task"
        assert completed and completed[0].task_id == "ten/task"

    def test_state_dict_is_deterministic(self):
        def build():
            pool = SharedPool(ServiceConfig(P=4, family="amdahl"))
            pool.admit_tenant("a")
            pool.submit("a", "x", AmdahlModel(6.0, 1.0), ())
            pool.tick(4)
            return pool

        assert build().state_dict() == build().state_dict()
