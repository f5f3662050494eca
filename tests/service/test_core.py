"""ServiceCore: admission, quotas, backpressure, shedding, recovery."""

import json

import pytest

from repro.exceptions import (
    AdmissionRejected,
    ProtocolError,
    QuotaExceeded,
    SessionClosed,
)
from repro.graph.io import model_from_dict, model_to_dict
from repro.obs.events import MultiTracer
from repro.obs.metrics import MetricsTracer
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.core import ServiceCore
from repro.service.journal import read_journal
from repro.service.protocol import Hello, Submit, decode_line, parse_request
from repro.sim import InvariantChecker
from repro.speedup import (
    AmdahlModel,
    CommunicationModel,
    GeneralModel,
    LogParallelismModel,
    PowerLawModel,
    RooflineModel,
    TabulatedModel,
)


def submit_n(core, tenant, count, prefix="t"):
    for i in range(count):
        core.submit(tenant, Submit(task=f"{prefix}{i}", model=AmdahlModel(8.0, 1.0)))


class TestAdmission:
    def test_hello_acks_effective_quota(self):
        core = ServiceCore(ServiceConfig(P=8, family="amdahl"))
        info = core.hello(Hello(tenant="a", max_running_procs=2))
        assert info["P"] == 8
        assert info["quota"]["max_running_procs"] == 2

    def test_tenant_id_with_slash_rejected(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"))
        with pytest.raises(ProtocolError):
            core.hello(Hello(tenant="a/b"))

    @pytest.mark.parametrize("deadline", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_deadline_rejected_unjournaled(self, tmp_path, deadline):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"), journal_path=journal)
        request = parse_request(
            decode_line(f'{{"op":"hello","tenant":"a","deadline":{deadline}}}')
        )
        with pytest.raises(ProtocolError):
            core.hello(request)
        core.close_journal()
        assert read_journal(journal)[1] == []

    def test_duplicate_active_session_rejected(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"))
        core.hello(Hello(tenant="a"))
        with pytest.raises(AdmissionRejected):
            core.hello(Hello(tenant="a"))

    def test_session_limit_has_retry_after(self):
        config = ServiceConfig(P=4, family="amdahl", max_tenants=1, retry_after_s=0.5)
        core = ServiceCore(config)
        core.hello(Hello(tenant="a"))
        with pytest.raises(AdmissionRejected) as excinfo:
            core.hello(Hello(tenant="b"))
        assert excinfo.value.retry_after == 0.5

    def test_seat_frees_after_cancel(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl", max_tenants=1))
        core.hello(Hello(tenant="a"))
        core.cancel("a")
        core.hello(Hello(tenant="b"))  # must not raise

    def test_quota_is_shrink_only(self):
        config = ServiceConfig(
            P=8,
            family="amdahl",
            quota=TenantQuota(max_inflight_tasks=10, max_running_procs=4),
        )
        core = ServiceCore(config)
        with pytest.raises(QuotaExceeded):
            core.hello(Hello(tenant="greedy", max_inflight_tasks=100))
        with pytest.raises(QuotaExceeded):
            core.hello(Hello(tenant="greedy", max_running_procs=8))
        info = core.hello(Hello(tenant="modest", max_inflight_tasks=2))
        assert info["quota"]["max_inflight_tasks"] == 2


class TestBackpressure:
    def test_inflight_quota_rejects_with_retry_after(self):
        config = ServiceConfig(
            P=1,
            family="amdahl",
            quota=TenantQuota(max_inflight_tasks=2),
            retry_after_s=0.25,
        )
        core = ServiceCore(config)
        core.hello(Hello(tenant="a"))
        submit_n(core, "a", 2)
        with pytest.raises(QuotaExceeded) as excinfo:
            core.submit("a", Submit(task="extra", model=AmdahlModel(1.0, 1.0)))
        assert excinfo.value.retry_after == 0.25
        # Draining the inflight work clears the backpressure.
        core.drain()
        core.submit("a", Submit(task="extra", model=AmdahlModel(1.0, 1.0)))

    def test_queue_depth_limit_rejects(self):
        config = ServiceConfig(
            P=1,
            family="amdahl",
            max_queue_depth=2,
            shed_threshold=None,
            quota=TenantQuota(max_inflight_tasks=100),
        )
        core = ServiceCore(config)
        core.hello(Hello(tenant="a"))
        submit_n(core, "a", 3)  # 1 running + 2 queued
        with pytest.raises(AdmissionRejected):
            core.submit("a", Submit(task="over", model=AmdahlModel(8.0, 1.0)))

    def test_duplicate_task_and_unknown_dep_rejected(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"))
        core.hello(Hello(tenant="a"))
        core.submit("a", Submit(task="x", model=AmdahlModel(1.0, 1.0)))
        with pytest.raises(ProtocolError):
            core.submit("a", Submit(task="x", model=AmdahlModel(1.0, 1.0)))
        with pytest.raises(ProtocolError):
            core.submit(
                "a", Submit(task="y", model=AmdahlModel(1.0, 1.0), deps=("ghost",))
            )

    def test_submit_after_close_rejected(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"))
        core.hello(Hello(tenant="a"))
        core.close("a")
        with pytest.raises(SessionClosed):
            core.submit("a", Submit(task="late", model=AmdahlModel(1.0, 1.0)))


class TestShedding:
    def config(self):
        return ServiceConfig(
            P=1,
            family="amdahl",
            max_queue_depth=100,
            shed_threshold=4,
            quota=TenantQuota(max_inflight_tasks=100),
            max_tenants=10,
        )

    def test_sheds_lowest_priority_newest_session(self):
        core = ServiceCore(self.config())
        core.hello(Hello(tenant="vip", priority=5))
        core.hello(Hello(tenant="old-low", priority=0))
        core.hello(Hello(tenant="new-low", priority=0))
        submit_n(core, "vip", 2, prefix="v")
        submit_n(core, "old-low", 2, prefix="o")
        # This submission pushes the queue to the threshold: the shed
        # victim must be the newest priority-0 session — the submitter.
        _, shed = core.submit(
            "new-low", Submit(task="n0", model=AmdahlModel(8.0, 1.0))
        )
        evicted = [t for t, n in shed if n["event"] == "evicted"]
        assert "new-low" in evicted  # newest among the priority-0 pair
        assert "vip" not in evicted
        assert core.shed_count >= 1

    def test_shed_is_replayable(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(self.config(), journal_path=journal)
        core.hello(Hello(tenant="a", priority=1))
        core.hello(Hello(tenant="b", priority=0))
        submit_n(core, "a", 3, prefix="a")
        with pytest.raises(SessionClosed):
            submit_n(core, "b", 4, prefix="b")  # b gets shed mid-stream
        assert core.shed_count >= 1
        digest = core.state_digest()
        core.close_journal()
        recovered = ServiceCore.recover(journal, reopen=False)
        assert recovered.state_digest() == digest


class TestJournalDiscipline:
    def test_idle_ticks_not_journaled(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(
            ServiceConfig(P=4, family="amdahl"), journal_path=journal
        )
        core.hello(Hello(tenant="a"))
        records_before = core.journal.next_seq
        for _ in range(50):
            core.tick()
        assert core.journal.next_seq == records_before
        core.close_journal()
        _, mutations = read_journal(journal)
        assert [m["op"] for m in mutations] == ["hello"]

    def test_rejected_mutations_leave_no_trace(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(
            ServiceConfig(P=4, family="amdahl", max_tenants=1), journal_path=journal
        )
        core.hello(Hello(tenant="a"))
        with pytest.raises(AdmissionRejected):
            core.hello(Hello(tenant="b"))
        with pytest.raises(ProtocolError):
            core.fault("fail", 99)
        core.close_journal()
        _, mutations = read_journal(journal)
        assert [m["op"] for m in mutations] == ["hello"]

    def test_full_lifecycle_recovery_is_digest_identical(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(
            ServiceConfig(P=4, family="amdahl"), journal_path=journal
        )
        core.hello(Hello(tenant="a"))
        core.submit("a", Submit(task="x", model=AmdahlModel(8.0, 1.0)))
        core.submit("a", Submit(task="y", model=AmdahlModel(4.0, 1.0), deps=("x",)))
        core.fault("fail", 0)
        core.fault("recover", 0)
        core.close("a")
        core.drain()
        digest = core.state_digest()
        core.close_journal()
        recovered = ServiceCore.recover(journal, reopen=False)
        assert recovered.state_digest() == digest
        assert recovered.pool.tenants["a"].status == "finished"

    def test_recovery_reopens_for_further_mutations(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(
            ServiceConfig(P=4, family="amdahl"), journal_path=journal
        )
        core.hello(Hello(tenant="a"))
        core.close_journal()
        recovered = ServiceCore.recover(journal)
        recovered.submit("a", Submit(task="x", model=AmdahlModel(1.0, 1.0)))
        digest = recovered.state_digest()
        recovered.close_journal()
        second = ServiceCore.recover(journal, reopen=False)
        assert second.state_digest() == digest


class TestSessionScope:
    def test_second_session_reuses_task_ids_and_recovers(self, tmp_path):
        # Task identities are scoped to a session: a tenant re-admitted
        # after its run finished may submit the same ids again, and the
        # journal replays both sessions.
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"), journal_path=journal)
        for _ in range(2):
            core.hello(Hello(tenant="t"))
            core.submit("t", Submit(task="a", model=AmdahlModel(8.0, 1.0)))
            core.close("t")
            core.drain()
            assert core.pool.tenants["t"].status == "finished"
        digest = core.state_digest()
        core.close_journal()
        recovered = ServiceCore.recover(journal, reopen=False)
        assert recovered.state_digest() == digest

    def test_deadlines_overrun_at_one_instant_evict_in_name_order(self, tmp_path):
        # Two sessions overrun at the same instant, t=5, when their first
        # task ends and the second is still to run; a third has no
        # deadline and must be left alone.  Admitted out of name order.
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(ServiceConfig(P=6, family="amdahl"), journal_path=journal)
        for tenant, deadline in (("zed", 2.0), ("mid", None), ("amy", 2.0)):
            core.hello(Hello(tenant=tenant, deadline=deadline))
            core.submit(tenant, Submit(task="x", model=AmdahlModel(8.0, 1.0)))
            core.submit(tenant, Submit(task="y", model=AmdahlModel(8.0, 1.0), deps=("x",)))
            core.close(tenant)
        notes = core.drain()
        evicted = [(tenant, n["reason"]) for tenant, n in notes if n["event"] == "evicted"]
        assert evicted == [("amy", "DEADLINE_EXCEEDED"), ("zed", "DEADLINE_EXCEEDED")]
        assert {t: r.status for t, r in core.pool.tenants.items()} == {
            "zed": "cancelled", "mid": "finished", "amy": "cancelled",
        }
        digest = core.state_digest()
        core.close_journal()
        assert ServiceCore.recover(journal, reopen=False).state_digest() == digest

    def reuse_after_cancel(self, tmp_path, *, kill):
        # Tenant "t" is cancelled while its task "a" runs (or waits to be
        # retried), re-admitted later and submits "a" again.  The first
        # session's events stay on the heap; none of them may act on the
        # new "a".
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(
            ServiceConfig(P=8, family="amdahl", fault_backoff=1.0), journal_path=journal
        )
        pool = core.pool

        def kill_a():
            proc = pool.tenants["t"].tasks["a"].proc_ids[0]
            core.fault("fail", proc)
            core.fault("recover", proc)

        core.hello(Hello(tenant="u"))
        core.submit("u", Submit(task="x", model=AmdahlModel(0.2, 0.2)))
        core.hello(Hello(tenant="t"))
        core.submit("t", Submit(task="a", model=AmdahlModel(8.0, 1.0)))
        if kill:
            kill_a()
        core.cancel("t")
        core.tick(1)  # u's task completes: time moves on
        readmitted = pool.now
        assert readmitted > 0.0
        core.hello(Hello(tenant="t"))
        core.submit("t", Submit(task="a", model=AmdahlModel(8.0, 1.0)))
        if kill:
            kill_a()
        core.close("t")
        core.close("u")
        core.drain()
        task = pool.tenants["t"].tasks["a"]
        digest = core.state_digest()
        core.close_journal()
        assert ServiceCore.recover(journal, reopen=False).state_digest() == digest
        return readmitted, task

    def test_stale_completion_of_earlier_session_is_ignored(self, tmp_path):
        readmitted, task = self.reuse_after_cancel(tmp_path, kill=False)
        assert task.state == "done" and task.start == readmitted
        assert task.model is None  # released at completion
        assert task.end == task.start + AmdahlModel(8.0, 1.0).time(task.procs)

    def test_stale_retry_of_earlier_session_is_ignored(self, tmp_path):
        readmitted, task = self.reuse_after_cancel(tmp_path, kill=True)
        assert task.state == "done" and task.attempt == 2
        assert task.start == readmitted + 1.0  # killed on re-admission, backoff 1.0
        assert task.end == task.start + AmdahlModel(8.0, 1.0).time(task.procs)

    def test_traced_faulted_run_passes_the_checker(self):
        checker = InvariantChecker(4)
        metrics = MetricsTracer()
        tracer = MultiTracer(checker, metrics)
        core = ServiceCore(
            ServiceConfig(P=4, family="amdahl", fault_backoff=0.5), emit=tracer.emit
        )
        core.hello(Hello(tenant="t"))
        core.submit("t", Submit(task="a", model=AmdahlModel(8.0, 1.0)))
        core.submit("t", Submit(task="b", model=AmdahlModel(4.0, 1.0), deps=("a",)))
        victim = next(iter(core.pool.proc_owner))
        core.fault("fail", victim)
        core.fault("recover", victim)
        core.close("t")
        core.drain()
        checker.on_end(core.pool.now)
        assert core.pool.tenants["t"].tasks["a"].attempt == 2
        assert metrics.registry.counter("tasks.revealed").value == 2
        assert metrics.registry.counter("tasks.killed").value == 1


class TestStatus:
    def test_status_reports_pool_shape(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"))
        core.hello(Hello(tenant="a"))
        core.submit("a", Submit(task="x", model=AmdahlModel(8.0, 1.0)))
        status = core.status()
        assert status["P"] == 4
        assert status["tenants"]["a"]["status"] == "open"
        assert status["tenants"]["a"]["inflight"] == 1
        assert status["free"] < 4
        assert status["journal_records"] is None


def one_model_per_family():
    """A model of every kind ``model_to_dict`` serializes."""
    return [
        RooflineModel(12.0, 5),
        CommunicationModel(30.0, 0.25),
        AmdahlModel(8.0, 1.5),
        GeneralModel(50.0, d=0.5, c=0.01, max_parallelism=24),
        GeneralModel(7.0 / 3.0, d=0.1),
        PowerLawModel(20.0, 0.7),
        LogParallelismModel(9.0),
        TabulatedModel([10.0, 6.0, 4.5, 4.0, 4.2]),
    ]


class TestParseOnce:
    """The live pool applies the parsed model; recovery rebuilds it from its dict.

    Both paths must yield the same allocator cache identity and the same
    execution time on every processor count, or recovery would diverge.
    """

    def test_families_are_covered(self):
        kinds = {model_to_dict(m)["kind"] for m in one_model_per_family()}
        assert kinds == {
            "roofline", "communication", "amdahl", "general", "power", "log", "tabulated",
        }

    @pytest.mark.parametrize("model", one_model_per_family(), ids=repr)
    def test_dict_round_trip_is_exact(self, model):
        rebuilt = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert type(rebuilt) is type(model)
        assert rebuilt.cache_key() == model.cache_key()
        for p in (*range(1, 65), 100, 128, 1000, 4096):
            assert rebuilt.time(p).hex() == model.time(p).hex()

    def test_live_and_recovered_digests_agree_on_every_family(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(ServiceConfig(P=16, family="general"), journal_path=journal)
        core.hello(Hello(tenant="a"))
        core.hello(Hello(tenant="b", max_running_procs=6))
        prev = None
        for i, model in enumerate(one_model_per_family()):
            deps = (prev,) if prev is not None and i % 2 else ()
            core.submit("a", Submit(task=f"a{i}", model=model, deps=deps))
            core.submit("b", Submit(task=f"b{i}", model=model))
            prev = f"a{i}"
            core.tick(max_events=1)
        core.close("a")
        core.drain()
        digest = core.state_digest()
        core.close_journal()
        recovered = ServiceCore.recover(journal, reopen=False)
        assert recovered.state_digest() == digest
        assert recovered.pool.tenants["a"].status == "finished"
