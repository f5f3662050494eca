"""Asyncio front end of the scheduler service.

:class:`SchedulerServer` listens on a TCP socket, speaks the JSON-lines
protocol of :mod:`repro.service.protocol`, and drives one
:class:`~repro.service.core.ServiceCore`.  The concurrency design keeps
the hardened core *synchronous and single-threaded* and serves one
decision in one event-loop pass:

* every connection gets a **session coroutine** that reads one line,
  parses it (malformed input is answered with a ``MALFORMED`` rejection
  and never reaches the core), calls the core *inline*, and writes the
  response before reading the next line — one in-flight command per
  session, which is the protocol's flow control.  The event loop is
  single-threaded and the core never awaits, so core mutations are
  totally ordered without a queue or a lock — the property the journal
  and the digest tests rely on;
* write-ahead ordering lives in the core: a mutation is journaled and
  flushed before :class:`~repro.service.core.ServiceCore` returns, and
  only then does the session write the ack, so no client ever sees an
  acknowledgement the journal does not hold;
* one **tick callback** advances virtual time while the pool has
  scheduled events: it runs one tick and reschedules itself with
  ``loop.call_soon``, behind the callbacks already ready, so sessions
  run between ticks.  With nothing scheduled it is not pending; handling
  a request, a fault or a disconnect schedules it again;
* pool notifications (task completions, evictions) are **written
  directly**: each routing pass encodes them into the owning session's
  pending bytes and writes them in one call — or, for the session whose
  request is being handled, together with its ack.

Robustness properties enforced here:

* a session whose client stops reading is evicted (``SLOW_CONSUMER``)
  once its transport holds more than ``max_session_requests`` times
  :data:`SLOW_CONSUMER_BYTES_PER_REQUEST` unsent bytes, instead of
  buffering without limit;
* per-session **wall-clock idle timeouts** cancel abandoned connections
  and return their capacity to the pool.  One lazily re-armed
  ``loop.call_later`` handle per session, armed only while the session
  waits for a line, checks the time the wait began;
* a client **disconnecting mid-stream** has its open session cancelled
  (``DISCONNECTED``) — processors are reclaimed immediately;
* repeated malformed lines close the connection after
  ``MALFORMED_LIMIT`` strikes;
* :meth:`SchedulerServer.stop` and :meth:`SchedulerServer.kill` cancel
  the tick callback and every connection handler, so no session touches the
  core afterwards; :meth:`~SchedulerServer.kill` drops everything on the
  floor without any graceful teardown, simulating a crash for the chaos
  harness — recovery then proves the journal was sufficient.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Callable, Mapping

from repro.exceptions import AdmissionRejected, ProtocolError, ServiceError
from repro.obs.events import SimEvent
from repro.service.config import ServiceConfig
from repro.service.core import ServiceCore
from repro.service.pool import Notification
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
    parse_request,
)

__all__ = ["SchedulerServer", "MALFORMED_LIMIT", "SLOW_CONSUMER_BYTES_PER_REQUEST"]

#: Protocol violations tolerated per connection before it is dropped.
MALFORMED_LIMIT = 5

#: Unsent bytes a session's transport may hold per ``max_session_requests``
#: slot before the session counts as a slow consumer: 256 KiB at the
#: default of 64, four times asyncio's write high-water mark, so a session
#: paused on its own ack's flow control still has room for notifications.
SLOW_CONSUMER_BYTES_PER_REQUEST = 4096


class _Session:
    """Server-side connection state for one client."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        idle_timeout: float | None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.idle_timeout = idle_timeout
        self.tenant: str | None = None
        self.closed = False
        #: Encoded notifications not yet handed to the transport.
        self.pending: list[bytes] = []
        #: Loop time the current wait for a line began (None: not waiting).
        self.read_since: float | None = None
        self.idle_timer: asyncio.TimerHandle | None = None

    async def read_line(self) -> bytes:
        """One line from the client; raises ``TimeoutError`` after an idle wait."""
        if self.idle_timeout is None:
            return await self.reader.readline()
        loop = asyncio.get_running_loop()
        self.read_since = loop.time()
        if self.idle_timer is None:
            self.idle_timer = loop.call_later(self.idle_timeout, self._idle_check)
        try:
            return await self.reader.readline()
        finally:
            self.read_since = None

    def _idle_check(self) -> None:
        """Timer callback: fail the current wait for a line if it is too long.

        The timer is not cancelled when a line arrives; it fires, finds
        the session busy or waiting since later, and re-arms itself for
        the time left of the current wait (or not at all).
        """
        self.idle_timer = None
        if self.read_since is None or self.closed:
            return
        assert self.idle_timeout is not None
        loop = asyncio.get_running_loop()
        remaining = self.read_since + self.idle_timeout - loop.time()
        if remaining > 0:
            self.idle_timer = loop.call_later(remaining, self._idle_check)
        else:
            self.reader.set_exception(asyncio.TimeoutError())

    def flush(self, payload: Mapping[str, Any] | None = None) -> None:
        """Write pending notifications, then ``payload``, in one transport write."""
        if payload is not None:
            self.pending.append(encode_line(payload))
        if not self.pending:
            return
        data = b"".join(self.pending)
        self.pending.clear()
        if not self.closed:
            try:
                self.writer.write(data)
            except (ConnectionError, RuntimeError):
                self.closed = True

    def unsent_bytes(self) -> int:
        return self.writer.transport.get_write_buffer_size()


class SchedulerServer:
    """One service instance: TCP listener + virtual-time tick + shared core."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        journal_path: str | None = None,
        core: ServiceCore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        emit: Callable[[SimEvent], None] | None = None,
    ) -> None:
        self.config = config
        self.core = (
            core
            if core is not None
            else ServiceCore(config, journal_path=journal_path, emit=emit)
        )
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: The scheduled :meth:`_tick` (None: none pending).
        self._tick_handle: asyncio.Handle | None = None
        self._sessions: dict[str, _Session] = {}
        #: Connection-handler task -> its session, for teardown.
        self._handlers: dict[asyncio.Task[Any], _Session] = {}
        self._slow_consumer_bytes = (
            config.max_session_requests * SLOW_CONSUMER_BYTES_PER_REQUEST
        )
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listener and start ticking; returns (host, port)."""
        if self._running:
            raise ServiceError("server already started")
        self._running = True
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_LINE_BYTES + 1024,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._kick()  # a recovered core may hold events
        return self.host, self.port

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, close sessions, close the journal."""
        if not self._running:
            return
        self._running = False
        if self._server is not None:
            self._server.close()
        await self._teardown(abort=False)
        if self._server is not None:
            await self._server.wait_closed()
        self.core.close_journal()

    async def kill(self) -> None:
        """Crash simulation: tear everything down with no goodbyes.

        No journal flush beyond the per-record write-ahead flushes, no
        eviction notices, no graceful closes — exactly what a ``SIGKILL``
        leaves behind.  The chaos harness follows this with
        :meth:`ServiceCore.recover` and asserts digest equality.
        """
        self._running = False
        if self._server is not None:
            self._server.close()
        await self._teardown(abort=True)
        self.core.close_journal()

    async def _teardown(self, *, abort: bool) -> None:
        """Cancel the tick and every connection handler (each closes its writer).

        ``abort`` drops the connections first, with their unsent bytes.
        """
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        for session in self._handlers.values():
            session.closed = True
            if abort:
                session.writer.transport.abort()
        tasks = list(self._handlers)
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._handlers.clear()
        self._sessions.clear()

    # ------------------------------------------------------------------
    # Virtual time
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        """Schedule a tick if none is pending and the pool has events."""
        if (
            self._running
            and self._tick_handle is None
            and self.core.pool.has_pending_events()
        ):
            self._tick_handle = asyncio.get_running_loop().call_soon(self._tick)

    def _tick(self) -> None:
        """Loop callback: one tick, its notifications routed, then the next."""
        self._tick_handle = None
        self._route(self.core.tick())
        self._kick()

    # ------------------------------------------------------------------
    # Requests: called inline by the session coroutines
    # ------------------------------------------------------------------
    def _rejection(self, exc: ServiceError) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "ok": False,
            "error": getattr(exc, "code", "SERVICE_ERROR"),
            "message": str(exc),
        }
        retry_after = getattr(exc, "retry_after", None)
        if isinstance(exc, AdmissionRejected) and retry_after is not None:
            payload["retry_after"] = retry_after
        return payload

    def _respond(self, session: _Session, request: Request) -> dict[str, Any]:
        """Apply one request through the core; the response payload."""
        try:
            return self._handle(session, request)
        except ServiceError as exc:
            return self._rejection(exc)
        finally:
            self._kick()

    def _handle(self, session: _Session, request: Request) -> dict[str, Any]:
        core = self.core
        if isinstance(request, Hello):
            if session.tenant is not None:
                raise ProtocolError(
                    f"session already bound to tenant {session.tenant!r}"
                )
            info = core.hello(request)
            session.tenant = request.tenant
            self._sessions[request.tenant] = session
            return {"ok": True, "op": "hello", "info": info}
        if isinstance(request, StatusQuery):
            return {"event": "status", "payload": core.status()}
        if isinstance(request, StatsQuery):
            return {"event": "stats", "payload": core.stats_payload()}
        if isinstance(request, Bye):
            return {"ok": True, "op": "bye", "info": {}}
        tenant = session.tenant
        if tenant is None:
            raise ProtocolError("say hello first (session is not bound to a tenant)")
        if isinstance(request, Submit):
            info, notes = core.submit(tenant, request)
            self._route(notes, current=session)
            return {"ok": True, "op": "submit", "info": info}
        if isinstance(request, CloseGraph):
            info, notes = core.close(tenant)
            self._route(notes, current=session)
            return {"ok": True, "op": "close", "info": info}
        if isinstance(request, Cancel):
            return {"ok": True, "op": "cancel", "info": core.cancel(tenant)}
        raise ProtocolError(f"unhandled request {type(request).__name__}")

    def _route(self, notes: list[Notification], current: _Session | None = None) -> None:
        """Deliver pool notifications to the owning sessions (best effort).

        Each session touched gets one transport write per pass; the
        ``current`` session (whose request is being handled) keeps its
        notifications pending so that they go out with its ack.
        """
        touched: list[_Session] = []
        for tenant, payload in notes:
            session = self._sessions.get(tenant)
            if session is None or session.closed:
                continue  # tenant gone; the journal still has the ground truth
            if not session.pending:
                touched.append(session)
            session.pending.append(encode_line(payload))
        for session in touched:
            if session.unsent_bytes() > self._slow_consumer_bytes:
                self._evict_slow_consumer(session)
            if session is not current:
                session.flush()

    def _evict_slow_consumer(self, session: _Session) -> None:
        """Cancel a session whose client stopped reading; keep only the notice."""
        tenant = session.tenant
        assert tenant is not None
        with contextlib.suppress(ServiceError):
            self.core.cancel(tenant, reason="SLOW_CONSUMER")
        session.pending = [
            encode_line(
                {
                    "event": "evicted",
                    "reason": "SLOW_CONSUMER",
                    "message": f"over {self._slow_consumer_bytes} unsent bytes",
                }
            )
        ]
        self._detach(session)

    def inject_fault(self, kind: str, proc: int) -> None:
        """Apply one processor fault and route its notifications.

        For the chaos harness and fault drivers.  Synchronous, so it
        cannot interleave with a request in flight — the single-threaded
        event loop is the lock.  Refused once the server is stopped or
        killed: no mutation may follow the teardown.
        """
        if not self._running:
            raise ServiceError("server is not running")
        self._route(self.core.fault(kind, proc))
        self._kick()

    def _detach(self, session: _Session) -> None:
        """Unbind a session; cancel its tenant if the graph is still open."""
        tenant = session.tenant
        if tenant is None:
            return
        if self._sessions.get(tenant) is session:
            del self._sessions[tenant]
        run = self.core.pool.tenants.get(tenant)
        if run is not None and run.active and run.status == "open":
            with contextlib.suppress(ServiceError):
                self.core.cancel(tenant, reason="DISCONNECTED")
        session.tenant = None

    # ------------------------------------------------------------------
    # Per-connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        timeout = self.config.session_idle_timeout_s
        session = _Session(reader, writer, timeout)
        handler = asyncio.current_task()
        assert handler is not None
        self._handlers[handler] = session
        try:
            malformed = 0
            while self._running:
                try:
                    line = await session.read_line()
                except asyncio.TimeoutError:
                    session.flush(
                        {
                            "event": "evicted",
                            "reason": "DEADLINE_EXCEEDED",
                            "message": f"session idle for {timeout:.6g}s",
                        }
                    )
                    break
                except (ValueError, ConnectionError):
                    break  # oversized line blew the stream limit, or reset
                if not line:
                    break  # clean EOF
                try:
                    request = parse_request(decode_line(line))
                except ProtocolError as exc:
                    malformed += 1
                    session.flush(self._rejection(exc))
                    with contextlib.suppress(ConnectionError):
                        await writer.drain()
                    if malformed >= MALFORMED_LIMIT:
                        break
                    continue
                session.flush(self._respond(session, request))
                with contextlib.suppress(ConnectionError):
                    await writer.drain()
                if isinstance(request, Bye):
                    break
        except asyncio.CancelledError:
            # Teardown path (stop/kill cancelled us): swallow so asyncio's
            # connection bookkeeping doesn't log a phantom error.
            pass
        finally:
            session.closed = True
            if session.idle_timer is not None:
                session.idle_timer.cancel()
            self._handlers.pop(handler, None)
            if self._running:
                self._detach(session)
                self._kick()
            with contextlib.suppress(ConnectionError, RuntimeError):
                writer.close()
