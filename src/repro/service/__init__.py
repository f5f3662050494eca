"""Scheduler-as-a-service: a hardened multi-tenant front end for the engine.

This package turns the paper's online list scheduler into a long-running
service: many tenants stream moldable task graphs over a JSON-lines
protocol into one shared processor pool, with the operational hardening
a service needs — admission control and per-tenant quotas, bounded
queues with ``retry_after`` backpressure, load shedding, deadlines and
clean cancellation, crash-safe write-ahead journaling with
digest-verified replay recovery, and a chaos harness that proves all of
it under injected disorder.

Layering (each module depends only on the ones above it):

* :mod:`~repro.service.config` — frozen service/quota configuration;
* :mod:`~repro.service.protocol` — JSON-lines wire vocabulary (typed
  requests, plain-dict responses);
* :mod:`~repro.service.pool` — deterministic multi-tenant virtual-time
  pool (engine-equivalent for a single tenant);
* :mod:`~repro.service.journal` — write-ahead JSONL journal;
* :mod:`~repro.service.core` — validate → journal → apply mutation core;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — asyncio
  transport;
* :mod:`~repro.service.loadgen` / :mod:`~repro.service.chaos` — load
  generator, benchmark, and chaos campaign.

``python -m repro.service`` exposes all of it on the command line.
"""

from repro.service.chaos import ChaosReport, ChaosSpec, run_chaos
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.core import ServiceCore
from repro.service.journal import JournalWriter, read_journal
from repro.service.loadgen import (
    LoadResult,
    LoadSpec,
    generate_trace,
    load_trace,
    replay_trace,
    run_bench,
    save_trace,
)
from repro.service.pool import SharedPool
from repro.service.server import SchedulerServer

__all__ = [
    "ChaosReport",
    "ChaosSpec",
    "JournalWriter",
    "LoadResult",
    "LoadSpec",
    "SchedulerServer",
    "ServiceClient",
    "ServiceConfig",
    "ServiceCore",
    "SharedPool",
    "TenantQuota",
    "generate_trace",
    "load_trace",
    "read_journal",
    "replay_trace",
    "run_bench",
    "run_chaos",
    "save_trace",
]
