"""The ``service`` workload: two tenant sessions against a journaled server.

Phases, all on loopback against one in-process ``SchedulerServer``:

1. open loop: two tenants submit at a fixed rate, well below capacity;
   each latency is timed from the submit's due time, so a stall counts
   against every submit it delays;
2. closed loop: two more tenants submit back to back, saturating the
   service (each waits for its ack before the next submit);
3. kill, then ``ServiceCore.recover`` of the journal, digest-checked.
"""

from __future__ import annotations

import asyncio
import hashlib
import shutil
import time
from pathlib import Path
from typing import Any

import numpy as np

from common import REF_KERNEL_MS, Calibrator, Checks, geomean, median, quantile, repeated_setup

from repro import makespan_lower_bound
from repro.graph.generators import layered_random
from repro.graph.io import model_to_dict
from repro.service import JournalWriter, SchedulerServer, ServiceClient, ServiceConfig
from repro.service import ServiceCore, read_journal
from repro.service.protocol import CloseGraph, Hello, decode_line, encode_line, parse_request
from repro.speedup import RandomModelFactory

P = 64
#: Submits per second per open-loop tenant.  The closed loop saturates at
#: about 2.5k submits/s on a 2-core VM, so two tenants at this rate load it
#: to a third.
OPEN_RATE = 400
#: Share of the run spent in the open-loop phase.
OPEN_SHARE = 0.4
#: Closed-loop submits per tenant per chunk; each chunk is one timed rep.
CHUNK = 100
#: Closed-loop chunks per second of run.
CHUNKS_PER_S = 5
#: Latency limit of the SLO: a slower or refused submit misses it.
SLO_MS = 25.0
#: Tasks per layer of every tenant graph.
WIDTH = 16
#: Responses kept to time the encoder on; keeping every one would grow
#: the heap the collector walks, which the service alone should do.
RESPONSE_SAMPLE = 500


def config() -> ServiceConfig:
    return ServiceConfig(P=P, family="general", max_tenants=4, max_queue_depth=4096)


def make_trace(seed: int, open_tasks: int, closed_tasks: int) -> list[dict[str, Any]]:
    """Wire lines per tenant: two open-loop tenants, then two closed-loop.

    Each tenant streams one random layered DAG in topological order.
    """
    seqs = np.random.SeedSequence([seed, 3]).spawn(8)
    tenants = []
    for index, n in enumerate((open_tasks, open_tasks, closed_tasks, closed_tasks)):
        factory = RandomModelFactory("general", seed=np.random.default_rng(seqs[2 * index]))
        graph = layered_random(
            max(1, n // WIDTH), WIDTH, factory, edge_probability=0.1,
            seed=np.random.default_rng(seqs[2 * index + 1]),
        )
        lines = []
        for task_id in graph.topological_order():
            op = {"op": "submit", "task": str(task_id),
                  "model": model_to_dict(graph.task(task_id).model)}
            deps = [str(p) for p in graph.predecessors(task_id)]
            if deps:
                op["deps"] = deps
            lines.append(encode_line(op))
        tenants.append({
            "tenant": ("open" if index < 2 else "closed") + f"-{index}",
            "lines": lines,
            "lower_bound": makespan_lower_bound(graph, P).value,
        })
    return tenants


def fingerprint(tenants: list[dict[str, Any]]) -> str:
    h = hashlib.sha256()
    for tenant in tenants:
        h.update(f"{tenant['tenant']}:{tenant['lower_bound']!r}".encode())
        h.update(b"".join(tenant["lines"]))
    return h.hexdigest()


def replay(tenants: list[dict[str, Any]], journal: Path | None = None,
           timings: dict[str, list[float]] | None = None) -> ServiceCore:
    """Drive a ``ServiceCore`` in process with the same submits, one tick each.

    Deterministic: the same tenants give the same state digest.
    """
    core = ServiceCore(config(), journal_path=journal)
    for tenant in tenants:
        name = tenant["tenant"]
        core.hello(Hello(tenant=name))
        for line in tenant["lines"]:
            request = parse_request(decode_line(line))
            t0 = time.perf_counter()
            core.submit(name, request)
            t1 = time.perf_counter()
            core.tick()
            if timings is not None:
                timings["submit"].append(t1 - t0)
                timings["tick"].append(time.perf_counter() - t1)
        core.close(name)
        core.drain()
    core.close_journal()
    return core


class Live:
    """Everything the live phases observe."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []  # open loop, from due time
        self.late_ms: list[float] = []  # how late the generator sent
        self.refused = 0
        self.refused_without_retry = 0
        self.attempted_submits = 0
        self.makespan_ratios: list[float] = []
        self.rates: list[float] = []  # closed loop, calibrated submits/s per chunk
        self.raw_rates: list[float] = []
        self.recovery_s = 0.0
        self.journal_records = 0
        self.digest_ok = False
        self.graph_done = 0
        self.tasks_done = 0
        self.responses: list[dict[str, Any]] = []


def _scale(k0: float, k1: float) -> float:
    return REF_KERNEL_MS / ((k0 + k1) / 2)


async def _ack(client: ServiceClient, live: Live) -> dict[str, Any]:
    """Next command response; notifications before it are kept in order."""
    while True:
        line = await asyncio.wait_for(client.reader.readline(), 60.0)
        if not line:
            raise ConnectionError("the server closed the session")
        payload = decode_line(line)
        if "ok" in payload:
            if len(live.responses) < RESPONSE_SAMPLE:
                live.responses.append(payload)
            if not payload["ok"]:
                live.refused += 1
                if payload.get("retry_after") is None:
                    live.refused_without_retry += 1
            return payload
        client.notifications.append(payload)


def _consume(client: ServiceClient, live: Live) -> None:
    """Read the buffered notifications, as a client would while it works."""
    for note in client.notifications:
        if note.get("event") == "task-done":
            live.tasks_done += 1
    client.notifications.clear()


async def _finish(client: ServiceClient, tenant: dict[str, Any], live: Live) -> None:
    await client.request_ok(CloseGraph(), timeout=60.0)
    terminal, prior = await client.wait_graph_done(timeout=60.0)
    live.tasks_done += sum(1 for note in prior if note.get("event") == "task-done")
    if terminal.get("event") == "graph-done":
        live.graph_done += 1
        live.makespan_ratios.append(float(terminal["makespan"]) / tenant["lower_bound"])
    await client.bye()


async def _open_loop(client: ServiceClient, lines: list[bytes], t_start: float,
                     live: Live) -> None:
    """Send ``lines`` on schedule, never waiting for acks; time each from its due time."""
    due = [t_start + i / OPEN_RATE for i in range(len(lines))]

    async def read_acks() -> None:
        for i in range(len(lines)):
            payload = await _ack(client, live)
            if payload["ok"]:
                live.latencies_ms.append((time.perf_counter() - due[i]) * 1e3)
            if i % 200 == 199:
                _consume(client, live)

    reader = asyncio.create_task(read_acks())
    try:
        for i, line in enumerate(lines):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            client.writer.write(line)
            live.late_ms.append(max(0.0, time.perf_counter() - due[i]) * 1e3)
            live.attempted_submits += 1
            await client.writer.drain()
    except BaseException:
        reader.cancel()
        raise
    await reader


async def _closed_chunk(client: ServiceClient, lines: list[bytes], live: Live) -> None:
    """Submit ``lines`` back to back, each after the previous ack."""
    for line in lines:
        while True:
            live.attempted_submits += 1
            client.writer.write(line)
            await client.writer.drain()
            payload = await _ack(client, live)
            if payload["ok"] or payload.get("retry_after") is None:
                break
            await asyncio.sleep(float(payload["retry_after"]))


async def _live(tenants: list[dict[str, Any]], journal: Path, calib: Calibrator) -> Live:
    live = Live()
    server = SchedulerServer(config(), journal_path=str(journal))
    host, port = await server.start()
    clients = []
    try:
        for tenant in tenants:
            clients.append(await ServiceClient.connect(host, port))
            await clients[-1].hello(tenant["tenant"])
        opened = list(zip(clients[:2], tenants[:2], strict=True))
        t_start = time.perf_counter() + 0.005
        await asyncio.gather(*(_open_loop(c, t["lines"], t_start, live) for c, t in opened))
        await asyncio.gather(*(_finish(c, t, live) for c, t in opened))

        closed = list(zip(clients[2:], tenants[2:], strict=True))
        for start in range(0, len(tenants[2]["lines"]), CHUNK):
            k0 = calib.measure()
            t0 = time.perf_counter()
            await asyncio.gather(*(
                _closed_chunk(c, t["lines"][start:start + CHUNK], live) for c, t in closed
            ))
            raw_rate = sum(len(t["lines"][start:start + CHUNK]) for t in tenants[2:]) / (
                time.perf_counter() - t0
            )
            live.raw_rates.append(raw_rate)
            live.rates.append(raw_rate / _scale(k0, calib.measure()))
            for c in clients[2:]:
                _consume(c, live)
        await asyncio.gather(*(_finish(c, t, live) for c, t in closed))
        live.journal_records = server.core.journal.next_seq if server.core.journal else 0
    finally:
        await server.kill()
        for client in clients:
            await client.close()
    live_digest = server.core.state_digest()
    recovered, raw, scale = calib.bracket(lambda: ServiceCore.recover(journal, reopen=False))
    live.recovery_s = raw * scale
    live.digest_ok = recovered.state_digest() == live_digest
    return live


def _layers(tenants: list[dict[str, Any]], live: Live, journal: Path,
            tmp: Path) -> dict[str, float]:
    """Per-layer costs, measured in process on what the live run sent and logged."""
    requests = [line for tenant in tenants for line in tenant["lines"]]
    t0 = time.perf_counter()
    for line in requests:
        parse_request(decode_line(line))
    decode_s = (time.perf_counter() - t0) / len(requests)
    t0 = time.perf_counter()
    for payload in live.responses:
        encode_line(payload)
    encode_s = (time.perf_counter() - t0) / max(1, len(live.responses))

    timings: dict[str, list[float]] = {"submit": [], "tick": []}
    replay(tenants, timings=timings)

    _, mutations = read_journal(journal)
    writer = JournalWriter(tmp / "append.jsonl", config())
    t0 = time.perf_counter()
    for record in mutations:
        writer.append(record["op"], {k: v for k, v in record.items()
                                     if k not in ("kind", "seq", "op")})
    append_s = (time.perf_counter() - t0) / max(1, len(mutations))
    writer.close()
    return {
        "service.decode_us": decode_s * 1e6,
        "service.encode_us": encode_s * 1e6,
        "service.core_submit_us": median(timings["submit"]) * 1e6,
        "service.journal_append_us": append_s * 1e6,
        "service.tick_ms": sum(timings["tick"]) / len(timings["tick"]) * 1e3,
    }


def setup(seed: int, seconds: float, calib: Calibrator, checks: Checks, tmp: Path,
          reps: int = 3) -> tuple[list[dict[str, Any]], list[float], list[float]]:
    """Generate the tenant traces and boot and stop a server, ``reps`` times.

    Returns the tenants, the calibrated and the raw set-up times.
    """
    open_tasks = int(OPEN_RATE * seconds * OPEN_SHARE)
    closed_tasks = CHUNK * max(1, round(CHUNKS_PER_S * seconds))

    async def boot() -> None:
        server = SchedulerServer(config(), journal_path=str(tmp / "setup.jsonl"))
        await server.start()
        await server.stop()

    def once() -> list[dict[str, Any]]:
        tenants = make_trace(seed, open_tasks, closed_tasks)
        asyncio.run(boot())
        (tmp / "setup.jsonl").unlink()
        return tenants

    return repeated_setup(calib, checks, once, fingerprint, reps)


def run(seed: int, seconds: float, trace: bool, calib: Calibrator, checks: Checks,
        tmp: Path) -> dict[str, Any]:
    """One benchmark run of ``service``; returns metric values."""
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        tenants, setup_s, setup_raw = setup(seed, seconds, calib, checks, tmp)
        journal = tmp / "journal.jsonl"
        live = asyncio.run(_live(tenants, journal, calib))
        for _ in range(live.attempted_submits - live.refused_without_retry):
            checks.record([])
        for _ in range(live.refused_without_retry):
            checks.record(["refused_without_retry"])
        for index in range(len(tenants)):
            checks.record([] if index < live.graph_done else ["no_graph_done"])
        checks.record([] if live.digest_ok else ["recovery_digest"])
        submitted = sum(len(t["lines"]) for t in tenants)
        checks.record([] if live.tasks_done == submitted else ["missing_task_done"])
        print(f"service: {len(live.latencies_ms)} open-loop latency samples, "
              f"{len(live.rates)} closed-loop chunks of {2 * CHUNK} submits, "
              f"{live.journal_records} journal records; uncalibrated "
              f"sim_tasks_per_s={median(live.raw_rates):.1f}", flush=True)
        if not trace:
            return {
                "sim_tasks_per_s": median(live.rates),
                "makespan_ratio": geomean(live.makespan_ratios),
                "setup_s": median(setup_s),
            }
        slow = sum(1 for ms in live.latencies_ms if ms > SLO_MS)
        out = _layers(tenants, live, journal, tmp)
        out.update({
            "service.recovery_s": live.recovery_s,
            "service.recover_records_per_s": live.journal_records / live.recovery_s,
            "service.slo_miss_frac": (slow + live.refused) / live.attempted_submits,
            "loadgen.late_p99_ms": quantile(live.late_ms, 0.99),
            "machine.raw.sim_tasks_per_s": median(live.raw_rates),
            "service.submit_p50_ms": quantile(live.latencies_ms, 0.50),
            "service.submit_p99_ms": quantile(live.latencies_ms, 0.99),
            "machine.raw.setup_s": median(setup_raw),
        })
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
