"""Chaos harness for the scheduler service.

Drives a *real* :class:`~repro.service.server.SchedulerServer` (journal,
tick callback, TCP sessions and all) through seeded rounds of injected
disorder, and checks the service's hard invariants after every round:

* **random client delays** between protocol operations;
* **malformed requests** (garbage bytes, invalid JSON, unknown ops,
  wrong field types) interleaved with real traffic — each must earn a
  ``MALFORMED`` rejection without disturbing the session;
* **mid-stream disconnects** — a vanished client's capacity must return
  to the pool;
* **processor faults** sampled from a seeded
  :class:`~repro.resilience.faults.ExponentialFaultModel` timeline and
  injected live (kills running attempts, shrinks capacity, retries);
* **kill-and-recover cycles** — the server is killed abruptly
  (:meth:`~repro.service.server.SchedulerServer.kill`) mid-stream, the
  journal is replayed, and the recovered core must be **digest-identical**
  to the pre-kill state before a fresh server continues on top of it.

Invariants asserted (raising :class:`~repro.exceptions.ServiceError` on
violation — the chaos tests only need to call :func:`run_chaos`):

1. processor conservation: free + owned + down = P after every round;
2. recovery fidelity: post-replay digest equals the pre-kill digest;
3. no lost or duplicated tasks: the recovered pool holds exactly the
   tasks the journal acknowledged, once each;
4. quota ceilings hold (cross-checked continuously by the pool's
   embedded invariant checker);
5. the pool drains: after the final round every surviving tenant's
   closed DAG completes.

Everything is driven by one seeded RNG, so a chaos failure reproduces
from its seed.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.exceptions import ServiceError, SessionClosed, SimulationError
from repro.obs.events import SimEvent
from repro.resilience.faults import ExponentialFaultModel, FaultEvent
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.core import ServiceCore
from repro.service.journal import iter_journal
from repro.service.server import SchedulerServer
from repro.speedup.random import RandomModelFactory

__all__ = ["ChaosSpec", "ChaosReport", "run_chaos", "run_chaos_async", "MALFORMED_LINES"]

#: Malformed wire lines the harness cycles through — each must produce a
#: MALFORMED rejection (or a closed connection), never a server fault.
MALFORMED_LINES: tuple[bytes, ...] = (
    b"\n",
    b"not json at all\n",
    b"[1, 2, 3]\n",
    b'{"op": "warp-core-breach"}\n',
    b'{"op": "submit"}\n',
    b'{"op": "submit", "task": 7, "model": {}}\n',
    b'{"op": "hello", "tenant": "x", "priority": "high"}\n',
    b'{"op": "hello", "tenant": "x", "surprise": true}\n',
    b'{"op": "submit", "task": "t", "model": {"kind": "nope"}}\n',
    b'{"truncated": ' + b"x" * 64 + b"\n",
)


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded description of one chaos campaign."""

    seed: int = 0
    P: int = 8
    family: str = "amdahl"
    tenants_per_round: int = 3
    tasks_per_tenant: int = 10
    rounds: int = 3
    #: Probability of each disturbance per client operation.
    malformed_rate: float = 0.2
    disconnect_rate: float = 0.15
    #: Mean wall delay between client operations (seconds).
    op_delay_s: float = 0.002
    #: Wall time a round runs before the server is killed (seconds).
    round_wall_s: float = 0.25
    #: Virtual-time fault process (MTBF/MTTR of the injected faults).
    fault_mtbf: float = 30.0
    fault_mttr: float = 5.0
    #: Faults injected per round (drawn from the fault-model timeline).
    faults_per_round: int = 4

    def config(self) -> ServiceConfig:
        return ServiceConfig(
            P=self.P,
            family=self.family,
            max_tenants=max(4, self.tenants_per_round + 1),
            quota=TenantQuota(max_inflight_tasks=64, max_running_procs=None),
            max_queue_depth=256,
            retry_after_s=0.01,
            fault_max_attempts=50,
            fault_backoff=0.1,
            session_idle_timeout_s=30.0,
        )


@dataclass
class ChaosReport:
    """What one chaos campaign did and verified."""

    rounds: int = 0
    tenants_started: int = 0
    tasks_submitted: int = 0
    tasks_completed: int = 0
    malformed_sent: int = 0
    malformed_rejected: int = 0
    disconnects: int = 0
    faults_injected: int = 0
    kills: int = 0
    recoveries_verified: int = 0
    graphs_done: int = 0
    evictions: int = 0
    final_digest: str = ""
    problems: list[str] = field(default_factory=list)
    #: Telemetry snapshot of the settled core (service + per-tenant
    #: registries); covers the final recovery onward, since each
    #: kill-and-recover cycle starts a fresh telemetry instance.
    stats: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "rounds": self.rounds,
            "tenants_started": self.tenants_started,
            "tasks_submitted": self.tasks_submitted,
            "tasks_completed": self.tasks_completed,
            "malformed_sent": self.malformed_sent,
            "malformed_rejected": self.malformed_rejected,
            "disconnects": self.disconnects,
            "faults_injected": self.faults_injected,
            "kills": self.kills,
            "recoveries_verified": self.recoveries_verified,
            "graphs_done": self.graphs_done,
            "evictions": self.evictions,
            "final_digest": self.final_digest,
            "problems": list(self.problems),
            "stats": dict(self.stats),
        }


async def _chaos_tenant(
    host: str,
    port: int,
    tenant: str,
    spec: ChaosSpec,
    rng: np.random.Generator,
    report: ChaosReport,
) -> None:
    """One tenant's life: submit a random chain DAG under disturbances."""
    factory = RandomModelFactory(spec.family, seed=int(rng.integers(2**31)))
    try:
        client = await ServiceClient.connect(host, port)
    except (ConnectionError, OSError):
        return
    try:
        await client.hello(tenant, priority=int(rng.integers(0, 3)))
        report.tenants_started += 1
        prev: str | None = None
        for index in range(spec.tasks_per_tenant):
            if spec.op_delay_s > 0:
                await asyncio.sleep(float(rng.exponential(spec.op_delay_s)))
            if rng.random() < spec.malformed_rate:
                line = MALFORMED_LINES[int(rng.integers(len(MALFORMED_LINES)))]
                report.malformed_sent += 1
                reply = await client.request_line(line, timeout=10.0)
                if reply.get("ok") is False and reply.get("error") == "MALFORMED":
                    report.malformed_rejected += 1
                else:
                    report.problems.append(
                        f"{tenant}: malformed line {line!r} got {reply!r}"
                    )
            if rng.random() < spec.disconnect_rate:
                report.disconnects += 1
                await client.disconnect_abruptly()
                return
            task = f"task-{index}"
            deps = (prev,) if prev is not None and rng.random() < 0.8 else ()
            model = factory(float(rng.uniform(0.5, 2.0)))
            payload = await client.submit_retrying(
                task, model, tuple(d for d in deps if d is not None)
            )
            if payload.get("ok"):
                report.tasks_submitted += 1
                prev = task
        await client.close_graph()
        terminal, prior = await client.wait_graph_done(timeout=60.0)
        report.tasks_completed += sum(
            1 for note in prior if note.get("event") == "task-done"
        )
        if terminal.get("event") == "graph-done":
            report.graphs_done += 1
        else:
            report.evictions += 1
        await client.bye()
    except (SessionClosed, ServiceError, ConnectionError, OSError, asyncio.TimeoutError):
        # The server was killed under this session (or chaos ate the
        # connection) — exactly the disturbance being tested.  The journal
        # keeps the ground truth; recovery checks below account for it.
        with contextlib.suppress(ConnectionError, OSError):
            await client.close()


async def _fault_driver(
    server: SchedulerServer,
    events: list[FaultEvent],
    spec: ChaosSpec,
    rng: np.random.Generator,
    report: ChaosReport,
) -> None:
    """Inject the round's fault-model events at random wall moments."""
    for event in events:
        await asyncio.sleep(float(rng.exponential(spec.op_delay_s * 5 + 1e-4)))
        try:
            server.inject_fault(event.kind, event.processor)
            report.faults_injected += 1
        except ServiceError:
            pass  # event invalidated by an earlier kill/recover cut


def _verify_journal_tasks(journal_path: Path, core: ServiceCore, report: ChaosReport) -> None:
    """Invariant 3: recovered pool holds exactly the acknowledged tasks."""
    _, mutations = iter_journal(journal_path)
    acked: dict[str, list[str]] = {}
    for record in mutations:
        if record["op"] == "submit":
            acked.setdefault(str(record["tenant"]), []).append(str(record["task"]))
    for tenant, tasks in acked.items():
        if len(set(tasks)) != len(tasks):
            report.problems.append(f"{tenant}: journal acknowledged a task twice")
            continue
        run = core.pool.tenants.get(tenant)
        if run is None:
            report.problems.append(f"{tenant}: acknowledged tenant missing after recovery")
            continue
        if set(run.tasks) != set(tasks):
            lost = set(tasks) - set(run.tasks)
            extra = set(run.tasks) - set(tasks)
            report.problems.append(
                f"{tenant}: task set diverged after recovery "
                f"(lost={sorted(lost)}, extra={sorted(extra)})"
            )


async def run_chaos_async(
    spec: ChaosSpec,
    journal_path: str | Path,
    *,
    emit: Callable[[SimEvent], None] | None = None,
) -> ChaosReport:
    """Run the chaos campaign; raises on any violated invariant.

    ``emit`` (optional) receives the full service event stream — pool
    scheduling events plus request/journal telemetry — across every
    round, including recovery replays (the CLI's ``--trace`` hook).
    """
    journal_path = Path(journal_path)
    rng = np.random.default_rng(spec.seed)
    report = ChaosReport()
    fault_model = ExponentialFaultModel(
        spec.fault_mtbf,
        mttr=spec.fault_mttr,
        horizon=1e6,
        seed=spec.seed + 1,
    )
    planned_faults = list(fault_model.trace(spec.P))
    config = spec.config()
    core: ServiceCore | None = None

    for round_index in range(spec.rounds):
        server = SchedulerServer(
            config,
            journal_path=None if core is not None else str(journal_path),
            core=core,
            emit=emit,
        )
        if core is None:
            core = server.core
        host, port = await server.start()
        tenants = [
            asyncio.create_task(
                _chaos_tenant(
                    host,
                    port,
                    f"r{round_index}-t{i}",
                    spec,
                    np.random.default_rng(spec.seed * 1000 + round_index * 100 + i),
                    report,
                )
            )
            for i in range(spec.tenants_per_round)
        ]
        round_faults = planned_faults[: spec.faults_per_round]
        del planned_faults[: spec.faults_per_round]
        driver = asyncio.create_task(
            _fault_driver(server, round_faults, spec, rng, report)
        )

        await asyncio.sleep(spec.round_wall_s)
        await server.kill()  # kill FIRST: no mutation may follow the digest
        pre_kill_digest = core.state_digest()
        report.kills += 1
        driver.cancel()
        for task in tenants:
            task.cancel()
        for task in (*tenants, driver):
            with contextlib.suppress(asyncio.CancelledError):
                await task

        recovered = ServiceCore.recover(journal_path, emit=emit)
        if recovered.state_digest() != pre_kill_digest:
            report.problems.append(
                f"round {round_index}: recovery digest mismatch "
                f"({recovered.state_digest()[:12]} != {pre_kill_digest[:12]})"
            )
        else:
            report.recoveries_verified += 1
        try:
            recovered.pool.check_conservation()
        except SimulationError as exc:  # pragma: no cover - invariant breach
            report.problems.append(f"round {round_index}: {exc}")
        _verify_journal_tasks(journal_path, recovered, report)
        core = recovered
        report.rounds += 1

    # Final settlement: cancel every still-open session (their clients are
    # gone), recover any down processors, and drain to quiescence.
    assert core is not None
    for tenant in sorted(core.pool.tenants):
        run = core.pool.tenants[tenant]
        if run.active and run.status == "open":
            core.cancel(tenant, reason="CHAOS_SETTLEMENT")
    for proc in sorted(core.pool.down):
        core.fault("recover", proc)
    core.drain()
    core.pool.check_conservation()
    for tenant, run in core.pool.tenants.items():
        if run.status == "closed":
            report.problems.append(f"{tenant}: closed DAG failed to drain")
    report.final_digest = core.state_digest()
    report.stats = dict(core.stats_payload())
    core.close_journal()

    # One more full recovery of the settled journal, for good measure.
    final = ServiceCore.recover(journal_path, reopen=False)
    final.drain()
    if final.state_digest() != report.final_digest:
        report.problems.append("final journal replay diverged from settled state")

    if report.problems:
        raise ServiceError(
            "chaos invariants violated: " + "; ".join(report.problems[:5])
        )
    return report


def run_chaos(
    spec: ChaosSpec,
    journal_path: str | Path,
    *,
    emit: Callable[[SimEvent], None] | None = None,
) -> ChaosReport:
    """Synchronous wrapper around :func:`run_chaos_async`."""
    return asyncio.run(run_chaos_async(spec, journal_path, emit=emit))
