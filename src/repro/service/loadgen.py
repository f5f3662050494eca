"""Load generator and service benchmark.

Two layers:

* **Trace generation** — :func:`generate_trace` expands a seeded
  :class:`LoadSpec` into a deterministic JSON-able *trace*: one op list
  per tenant (``hello`` → topological ``submit`` stream → ``close``).
  Traces round-trip through :func:`save_trace`/:func:`load_trace`, so a
  recorded workload can be replayed bit-identically against any service
  instance (``python -m repro.service loadgen --trace``).
* **Replay + measurement** — :func:`replay_trace` opens one concurrent
  client session per tenant against a live server and drives the trace
  flat out, honoring ``retry_after`` backpressure.  :func:`run_bench`
  wraps a full benchmark: boot a journaled server, replay a trace,
  measure sustained **decisions/sec**, kill the server abruptly, time
  **journal recovery**, verify the recovered digest, and append the
  entry to ``BENCH_service.json`` (same append-only trajectory
  discipline as ``BENCH_engine.json``).

Wall-clock use is intentional and confined to measurement — scheduling
itself stays in virtual time inside the pool.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import InvalidParameterError, ServiceError
from repro.graph.generators import erdos_renyi_dag
from repro.graph.io import model_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.runtime.manifest import current_commit
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.core import ServiceCore
from repro.service.protocol import encode_line
from repro.service.server import SchedulerServer
from repro.speedup.random import RandomModelFactory

__all__ = [
    "LoadSpec",
    "LoadResult",
    "generate_trace",
    "save_trace",
    "load_trace",
    "replay_trace",
    "run_bench",
]


@dataclass(frozen=True)
class LoadSpec:
    """Seeded description of a synthetic multi-tenant workload."""

    seed: int = 0
    P: int = 32
    family: str = "general"
    tenants: int = 4
    tasks_per_tenant: int = 50
    edge_probability: float = 0.08
    #: Virtual-time session deadline per tenant (``None`` = none).  With a
    #: deadline set, every hello carries it and the benchmark reports the
    #: deadline-SLO histogram (makespan/deadline per finished tenant).
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.tasks_per_tenant < 1:
            raise InvalidParameterError(
                "tenants and tasks_per_tenant must be >= 1"
            )

    def config(self) -> ServiceConfig:
        return ServiceConfig(
            P=self.P,
            family=self.family,
            max_tenants=self.tenants + 1,
            max_queue_depth=max(1024, self.tenants * self.tasks_per_tenant),
            tick_events=256,
        )


def generate_trace(spec: LoadSpec) -> dict[str, Any]:
    """Expand ``spec`` into a deterministic replayable trace.

    Each tenant gets an independent random DAG (seeded from the spec
    seed) whose tasks are streamed in topological order — the online
    arrival model of the paper, one tenant per session.
    """
    tenants: list[dict[str, Any]] = []
    for index in range(spec.tenants):
        factory = RandomModelFactory(spec.family, seed=spec.seed * 7919 + index)
        graph = erdos_renyi_dag(
            spec.tasks_per_tenant,
            factory,
            edge_probability=spec.edge_probability,
            seed=spec.seed * 104729 + index,
        )
        ops: list[dict[str, Any]] = []
        for task_id in graph.topological_order():
            ops.append(
                {
                    "task": str(task_id),
                    "model": model_to_dict(graph.task(task_id).model),
                    "deps": [str(p) for p in graph.predecessors(task_id)],
                }
            )
        tenants.append({"tenant": f"load-{index}", "ops": ops})
    return {
        "kind": "service-load-trace",
        "spec": {
            "seed": spec.seed,
            "P": spec.P,
            "family": spec.family,
            "tenants": spec.tenants,
            "tasks_per_tenant": spec.tasks_per_tenant,
            "edge_probability": spec.edge_probability,
            "deadline": spec.deadline,
        },
        "tenants": tenants,
    }


def save_trace(trace: Mapping[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(trace), indent=1, sort_keys=True) + "\n")
    return path


def load_trace(path: str | Path) -> dict[str, Any]:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("kind") != "service-load-trace":
        raise InvalidParameterError(f"{path} is not a service load trace")
    return payload


#: Wall-clock decision-latency buckets (milliseconds per acked submit).
_LATENCY_MS_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0)

#: Deadline-SLO buckets: makespan as a fraction of the session deadline
#: (<= 1.0 met the deadline; the tail shows by how much misses overran).
_DEADLINE_FRACTION_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0)


@dataclass
class LoadResult:
    """Measured outcome of one trace replay."""

    tenants: int
    tasks_submitted: int
    tasks_completed: int
    graphs_done: int
    wall_s: float
    decisions: int
    decisions_per_s: float
    makespans: dict[str, float]
    #: Per-tenant client-side metrics (``svc.decision_latency_ms``,
    #: ``svc.deadline_fraction``), keyed by tenant, as registry dicts.
    tenant_metrics: dict[str, dict[str, Any]] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "tenants": self.tenants,
            "tasks_submitted": self.tasks_submitted,
            "tasks_completed": self.tasks_completed,
            "graphs_done": self.graphs_done,
            "wall_s": round(self.wall_s, 6),
            "decisions": self.decisions,
            "decisions_per_s": round(self.decisions_per_s, 3),
            "makespans": {k: round(v, 9) for k, v in sorted(self.makespans.items())},
            "tenant_metrics": {
                k: self.tenant_metrics[k] for k in sorted(self.tenant_metrics)
            },
        }


async def _replay_tenant(
    host: str,
    port: int,
    entry: Mapping[str, Any],
    result: LoadResult,
    deadline: float | None = None,
) -> None:
    client = await ServiceClient.connect(host, port)
    tenant = str(entry["tenant"])
    registry = MetricsRegistry()
    latency = registry.histogram(
        "svc.decision_latency_ms",
        buckets=_LATENCY_MS_BUCKETS,
        help="wall milliseconds from submit write to ack (incl. backpressure)",
    )
    try:
        if deadline is None:
            await client.hello(tenant)
        else:
            await client.hello(tenant, deadline=deadline)
        for op in entry["ops"]:
            payload = {
                "op": "submit",
                "task": op["task"],
                "model": op["model"],
            }
            if op["deps"]:
                payload["deps"] = list(op["deps"])
            op_t0 = time.perf_counter()
            for _ in range(200):  # retry_after-driven backpressure loop
                reply = await client.request_line(encode_line(payload), timeout=60.0)
                if reply.get("ok"):
                    result.tasks_submitted += 1
                    latency.observe((time.perf_counter() - op_t0) * 1e3)
                    break
                retry_after = reply.get("retry_after")
                if retry_after is None:
                    raise ServiceError(
                        f"{tenant}/{op['task']}: {reply.get('error')}: "
                        f"{reply.get('message')}"
                    )
                await asyncio.sleep(float(retry_after))
            else:
                raise ServiceError(f"{tenant}/{op['task']}: backpressure never cleared")
        await client.close_graph()
        terminal, prior = await client.wait_graph_done(timeout=120.0)
        result.tasks_completed += sum(
            1 for n in prior if n.get("event") == "task-done"
        )
        if terminal.get("event") == "graph-done":
            result.graphs_done += 1
            makespan = float(terminal.get("makespan", 0.0))
            result.makespans[tenant] = makespan
            if deadline is not None and deadline > 0:
                registry.histogram(
                    "svc.deadline_fraction",
                    buckets=_DEADLINE_FRACTION_BUCKETS,
                    help="makespan / session deadline (<= 1.0 met the SLO)",
                ).observe(makespan / deadline)
        await client.bye()
    finally:
        result.tenant_metrics[tenant] = registry.as_dict()
        await client.close()


async def replay_trace(trace: Mapping[str, Any], host: str, port: int) -> LoadResult:
    """Replay a trace against a live service, one session per tenant."""
    tenants = list(trace["tenants"])
    spec = trace.get("spec") or {}
    deadline = spec.get("deadline") if isinstance(spec, Mapping) else None
    result = LoadResult(
        tenants=len(tenants),
        tasks_submitted=0,
        tasks_completed=0,
        graphs_done=0,
        wall_s=0.0,
        decisions=0,
        decisions_per_s=0.0,
        makespans={},
    )
    t0 = time.perf_counter()
    await asyncio.gather(
        *(
            _replay_tenant(
                host,
                port,
                entry,
                result,
                deadline=None if deadline is None else float(deadline),
            )
            for entry in tenants
        )
    )
    result.wall_s = time.perf_counter() - t0
    return result


async def _run_bench_async(
    spec: LoadSpec,
    journal_path: Path,
    trace: Mapping[str, Any],
    emit: Any = None,
) -> dict[str, Any]:
    server = SchedulerServer(spec.config(), journal_path=str(journal_path), emit=emit)
    host, port = await server.start()
    result = await replay_trace(trace, host, port)
    result.decisions = server.core.pool.stats.decisions
    if result.wall_s > 0:
        result.decisions_per_s = result.decisions / result.wall_s
    journal_records = server.core.journal.next_seq if server.core.journal else 0
    service_stats = server.core.stats_payload()

    # Crash it and time the recovery (replay of the full journal).
    await server.kill()
    live_digest = server.core.state_digest()
    t0 = time.perf_counter()
    recovered = ServiceCore.recover(journal_path, reopen=False)
    recovery_s = time.perf_counter() - t0
    digest_ok = recovered.state_digest() == live_digest
    if not digest_ok:
        raise ServiceError("benchmark recovery diverged from the live state")
    return {
        "load": result.as_dict(),
        "service_stats": service_stats,
        "journal_records": journal_records,
        "recovery_s": round(recovery_s, 6),
        "records_per_recovery_s": (
            round(journal_records / recovery_s, 3) if recovery_s > 0 else None
        ),
        "recovery_digest_verified": digest_ok,
    }


def run_bench(
    spec: LoadSpec,
    journal_path: str | Path,
    *,
    bench_path: str | Path | None = None,
    trace: Mapping[str, Any] | None = None,
    emit: Any = None,
) -> dict[str, Any]:
    """Full service benchmark: load replay + kill + timed recovery.

    Appends the entry to ``bench_path`` (``BENCH_service.json``) when
    given, under the artifact header ``{"benchmark": "service"}``.
    ``emit`` (optional) receives the live service event stream (the
    CLI's ``--trace`` hook); it does not affect the measurement's
    semantics, only its wall cost.
    """
    if trace is None:
        trace = generate_trace(spec)
    entry = asyncio.run(_run_bench_async(spec, Path(journal_path), trace, emit))
    entry["spec"] = dict(trace.get("spec", {}))
    entry["label"] = os.environ.get("REPRO_BENCH_LABEL") or "service-bench"
    entry["commit"] = current_commit(cwd=Path(__file__).resolve().parent)
    entry["unix_time"] = int(time.time())
    if bench_path is not None:
        _append_service_bench(bench_path, entry)
    return entry


def _append_service_bench(path: str | Path, entry: Mapping[str, Any]) -> Path:
    """Append one entry to the ``BENCH_service.json`` trajectory."""
    path = Path(path)
    trajectory: dict[str, Any] = {"benchmark": "service", "entries": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded.get("entries"), list) and (
                loaded.get("benchmark") == "service"
            ):
                trajectory = loaded
        except (OSError, ValueError):
            pass
    trajectory["entries"].append(dict(entry))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return path
