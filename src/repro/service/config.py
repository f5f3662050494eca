"""Configuration of the scheduler service: pool, quotas, and hardening knobs.

Everything the service layer needs to know is collected into one frozen
:class:`ServiceConfig` so that a service instance can be rebuilt
*identically* during journal recovery — the config participates in the
journal header and in the state digest (see :mod:`repro.service.journal`).

The robustness limits all have conservative defaults: bounded queues,
bounded tenants, bounded in-flight work.  ``None`` never means
"unbounded memory"; where a limit can be disabled it is an explicit,
documented opt-out.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.core.constants import MU_STAR, mu_for_family
from repro.exceptions import InvalidParameterError

__all__ = ["TenantQuota", "ServiceConfig"]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource bounds enforced by admission control.

    Parameters
    ----------
    max_inflight_tasks:
        Ceiling on tasks a tenant may have submitted-but-not-finished
        (waiting + running + blocked on predecessors).  Submissions past
        the bound are rejected with ``QUOTA_EXCEEDED`` + a retry hint.
    max_running_procs:
        Ceiling on processors a tenant's running tasks may occupy
        simultaneously (its fair share of the pool).  Tasks whose start
        would exceed it stay queued; other tenants' tasks overtake them.
    """

    max_inflight_tasks: int = 256
    max_running_procs: int | None = None

    def __post_init__(self) -> None:
        if self.max_inflight_tasks < 1:
            raise InvalidParameterError(
                f"max_inflight_tasks must be >= 1, got {self.max_inflight_tasks}"
            )
        if self.max_running_procs is not None and self.max_running_procs < 1:
            raise InvalidParameterError(
                f"max_running_procs must be >= 1 or None, got {self.max_running_procs}"
            )

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable description of one scheduler-service instance.

    Parameters
    ----------
    P:
        Shared processor-pool size.
    family:
        Speedup-model family the allocator's :math:`\\mu^*` is tuned for
        (Table 1); ignored when ``mu`` is given explicitly.
    mu:
        Explicit utilization parameter for the
        :class:`~repro.core.allocator.LpaAllocator` (overrides ``family``).
    max_tenants:
        Concurrent open sessions; further ``hello``\\ s are rejected with
        ``ADMISSION_REJECTED`` and a retry hint.
    quota:
        Default per-tenant :class:`TenantQuota` (a ``hello`` may request
        *smaller* quotas, never larger).
    max_queue_depth:
        Bound on the shared waiting queue.  Submissions that would grow
        the queue past it get ``RETRY_AFTER`` backpressure instead of
        unbounded buffering.
    shed_threshold:
        Waiting-queue depth at which the service starts load-shedding the
        lowest-priority tenant (``None`` disables shedding).  Must be
        ``<= max_queue_depth``.
    retry_after_s:
        Wall-clock retry hint (seconds) attached to backpressure
        rejections.
    max_session_requests:
        Per-session bound on output the client has not read: a session
        whose transport holds more than ``max_session_requests`` times
        :data:`repro.service.server.SLOW_CONSUMER_BYTES_PER_REQUEST`
        unsent bytes when a notification is routed to it is evicted
        (``SLOW_CONSUMER``).
    fault_max_attempts / fault_backoff:
        Retry policy for attempts killed by injected processor faults
        (virtual-time backoff, exponential with base ``fault_backoff``).
    tick_events:
        Completion events the server advances per tick (bounds
        the latency of any single journal record's replay).
    session_idle_timeout_s:
        Wall-clock seconds a connected session may stay silent before the
        server cancels it and reclaims its capacity (``None`` disables
        the timeout; the default keeps abandoned connections from
        pinning quota forever).
    journal_fsync:
        ``True`` forces an ``fsync`` per journal record (crash-safe
        against power loss, not just process death).  Tests and the chaos
        harness kill processes, so the flushed-write default is enough
        there.
    """

    P: int = 64
    family: str = "general"
    mu: float | None = None
    max_tenants: int = 16
    quota: TenantQuota = field(default_factory=TenantQuota)
    max_queue_depth: int = 1024
    shed_threshold: int | None = None
    retry_after_s: float = 0.05
    max_session_requests: int = 64
    fault_max_attempts: int = 10
    fault_backoff: float = 0.0
    tick_events: int = 64
    journal_fsync: bool = False
    session_idle_timeout_s: float | None = 300.0

    def __post_init__(self) -> None:
        if self.P < 1:
            raise InvalidParameterError(f"P must be >= 1, got {self.P}")
        if self.mu is None and self.family not in MU_STAR:
            raise InvalidParameterError(
                f"family must be one of {sorted(MU_STAR)} (or give mu), "
                f"got {self.family!r}"
            )
        if self.mu is not None and not 0.0 < self.mu <= 1.0:
            raise InvalidParameterError(f"mu must be in (0, 1], got {self.mu}")
        for name in ("max_tenants", "max_queue_depth", "max_session_requests",
                     "fault_max_attempts", "tick_events"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.shed_threshold is not None and not (
            1 <= self.shed_threshold <= self.max_queue_depth
        ):
            raise InvalidParameterError(
                f"shed_threshold must be in [1, max_queue_depth="
                f"{self.max_queue_depth}], got {self.shed_threshold}"
            )
        if self.retry_after_s < 0 or self.fault_backoff < 0:
            raise InvalidParameterError("retry_after_s / fault_backoff must be >= 0")
        if self.session_idle_timeout_s is not None and self.session_idle_timeout_s <= 0:
            raise InvalidParameterError(
                f"session_idle_timeout_s must be > 0 or None, "
                f"got {self.session_idle_timeout_s}"
            )

    @property
    def effective_mu(self) -> float:
        """The utilization parameter the pool's allocator runs with."""
        return self.mu if self.mu is not None else mu_for_family(self.family)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe form (stored in the journal header, part of the digest)."""
        payload = asdict(self)
        payload["quota"] = self.quota.as_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServiceConfig":
        """Inverse of :meth:`as_dict` (used by journal recovery)."""
        data = dict(payload)
        quota = data.get("quota")
        if isinstance(quota, Mapping):
            data["quota"] = TenantQuota(**dict(quota))
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidParameterError(f"malformed service config: {exc}") from exc
