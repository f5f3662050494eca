"""Asyncio client for the scheduler service (tests, load generator, CLI).

:class:`ServiceClient` wraps one JSON-lines connection: commands are
request/response (``hello`` → ack, ``submit`` → ack/rejection, ...),
while asynchronous notifications (task completions, evictions) arriving
between responses are buffered in :attr:`notifications` and can be
awaited with :meth:`next_notification` / :meth:`wait_graph_done`.

The client honors the service's backpressure contract:
:meth:`submit_retrying` sleeps for the server-provided ``retry_after``
hint and resubmits, so a well-behaved tenant never needs to special-case
``QUOTA_EXCEEDED``/``ADMISSION_REJECTED`` rejections.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.exceptions import ServiceError, SessionClosed
from repro.service.protocol import (
    MAX_LINE_BYTES,
    Bye,
    Cancel,
    CloseGraph,
    Hello,
    Request,
    StatsQuery,
    StatusQuery,
    Submit,
    decode_line,
    encode_line,
    request_to_dict,
)
from repro.speedup.base import SpeedupModel

__all__ = ["ServiceClient"]


class ServiceClient:
    """One tenant session against a running :class:`SchedulerServer`."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.notifications: list[dict[str, Any]] = []
        self.closed = False
        #: Loop time by which the current read must finish (None: no
        #: timed read in progress).
        self.read_deadline: float | None = None
        self.read_timer: asyncio.TimerHandle | None = None
        #: Loop time at which ``read_timer`` fires.
        self.read_timer_at = 0.0

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES + 1024
        )
        return cls(reader, writer)

    async def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._cancel_read_timer()
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def disconnect_abruptly(self) -> None:
        """Drop the connection with no ``bye`` (chaos: vanished client)."""
        self.closed = True
        self._cancel_read_timer()
        transport = self.writer.transport
        if transport is not None:
            transport.abort()

    def _cancel_read_timer(self) -> None:
        if self.read_timer is not None:
            self.read_timer.cancel()
            self.read_timer = None

    # ------------------------------------------------------------------
    # Wire primitives
    # ------------------------------------------------------------------
    async def send_raw(self, payload: bytes) -> None:
        """Write raw bytes (the chaos harness sends malformed lines here)."""
        self.writer.write(payload)
        await self.writer.drain()

    async def _read_payload(self, timeout: float | None = 30.0) -> dict[str, Any]:
        """The next line's payload; raises ``TimeoutError`` after ``timeout`` s.

        A timed read arms no timer of its own: one lazily re-armed timer
        (as on the server side) checks the current read's deadline when it
        fires.  A timeout fails the reader, so every later read on this
        connection raises it too; callers close the client.
        """
        if timeout is None:
            line = await self.reader.readline()
        else:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + timeout
            self.read_deadline = deadline
            if self.read_timer is None or deadline < self.read_timer_at:
                if self.read_timer is not None:
                    self.read_timer.cancel()
                self.read_timer_at = deadline
                self.read_timer = loop.call_at(deadline, self._read_check)
            try:
                line = await self.reader.readline()
            finally:
                self.read_deadline = None
        if not line:
            raise SessionClosed("server closed the connection")
        return decode_line(line)

    def _read_check(self) -> None:
        """Timer callback: fail the current read if its deadline has passed.

        The timer is not cancelled when a line arrives; it fires, finds no
        read in progress or a later deadline, and re-arms itself for that
        deadline (or not at all).
        """
        self.read_timer = None
        deadline = self.read_deadline
        if deadline is None:
            return
        loop = asyncio.get_running_loop()
        if deadline > loop.time():
            self.read_timer_at = deadline
            self.read_timer = loop.call_at(deadline, self._read_check)
        else:
            self.reader.set_exception(asyncio.TimeoutError())

    async def request(
        self, req: Request, *, timeout: float | None = 30.0
    ) -> dict[str, Any]:
        """Send one command and return its response payload."""
        return await self.request_line(encode_line(request_to_dict(req)), timeout=timeout)

    async def request_line(
        self, line: bytes, *, timeout: float | None = 30.0
    ) -> dict[str, Any]:
        """Write one encoded request line and return its response payload.

        Notifications that arrive before the response are buffered in
        :attr:`notifications`, preserving order.  A malformed line is
        answered with a ``MALFORMED`` rejection like any other response.
        """
        await self.send_raw(line)
        while True:
            payload = await self._read_payload(timeout)
            if "ok" in payload or payload.get("event") in ("status", "stats"):
                return payload
            self.notifications.append(payload)

    async def request_ok(
        self, req: Request, *, timeout: float | None = 30.0
    ) -> dict[str, Any]:
        """Like :meth:`request` but raises :class:`ServiceError` on rejection."""
        payload = await self.request(req, timeout=timeout)
        if payload.get("ok") is False:
            raise ServiceError(
                f"{payload.get('error')}: {payload.get('message')}"
            )
        return payload

    # ------------------------------------------------------------------
    # Notifications
    # ------------------------------------------------------------------
    async def next_notification(self, *, timeout: float | None = 30.0) -> dict[str, Any]:
        """The next buffered or incoming notification, in arrival order."""
        if self.notifications:
            return self.notifications.pop(0)
        payload = await self._read_payload(timeout)
        if "ok" in payload:
            raise ServiceError(f"unexpected command response: {payload}")
        return payload

    async def wait_graph_done(
        self, *, timeout: float | None = 30.0
    ) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        """Collect notifications until ``graph-done`` or ``evicted``.

        Returns ``(terminal, prior)`` where ``terminal`` is the
        graph-done/evicted notification and ``prior`` everything that
        came before it (task completions and kills, in order).
        """
        seen: list[dict[str, Any]] = []
        while True:
            note = await self.next_notification(timeout=timeout)
            if note.get("event") in ("graph-done", "evicted"):
                return note, seen
            seen.append(note)

    # ------------------------------------------------------------------
    # Convenience command wrappers
    # ------------------------------------------------------------------
    async def hello(self, tenant: str, **kwargs: Any) -> dict[str, Any]:
        return await self.request_ok(Hello(tenant=tenant, **kwargs))

    async def submit(
        self, task: str, model: SpeedupModel, deps: tuple[str, ...] = ()
    ) -> dict[str, Any]:
        return await self.request(Submit(task=task, model=model, deps=deps))

    async def submit_retrying(
        self,
        task: str,
        model: SpeedupModel,
        deps: tuple[str, ...] = (),
        *,
        max_retries: int = 50,
    ) -> dict[str, Any]:
        """Submit, honoring ``retry_after`` backpressure hints."""
        for _ in range(max_retries):
            payload = await self.submit(task, model, deps)
            if payload.get("ok"):
                return payload
            retry_after = payload.get("retry_after")
            if retry_after is None:
                raise ServiceError(
                    f"{payload.get('error')}: {payload.get('message')}"
                )
            await asyncio.sleep(float(retry_after))
        raise ServiceError(f"task {task!r} rejected {max_retries} times")

    async def close_graph(self) -> dict[str, Any]:
        return await self.request_ok(CloseGraph())

    async def cancel(self) -> dict[str, Any]:
        return await self.request_ok(Cancel())

    async def status(self) -> dict[str, Any]:
        payload = await self.request_ok(StatusQuery())
        inner = payload.get("payload")
        return inner if isinstance(inner, dict) else {}

    async def stats(self) -> dict[str, Any]:
        """Telemetry snapshot: ``{"service": {...}, "tenants": {...}}``."""
        payload = await self.request_ok(StatsQuery())
        inner = payload.get("payload")
        return inner if isinstance(inner, dict) else {}

    async def bye(self) -> None:
        try:
            await self.request_ok(Bye())
        finally:
            await self.close()
