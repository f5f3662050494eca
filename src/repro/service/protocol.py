"""JSON-lines wire protocol of the scheduler service.

One request or response per line, each a single JSON object.  Requests
carry an ``op`` tag; responses carry ``ok`` (command outcomes) or
``event`` (asynchronous notifications streamed to a session).  The
vocabulary is small and fully typed — every message is a frozen
dataclass below, mirroring the :mod:`repro.obs.events` idiom — and
:func:`parse_request` is the *only* deserialization entry point, so every
malformed input fails in exactly one place with a
:class:`~repro.exceptions.ProtocolError` (never a stray ``KeyError``
deep in the service).

Requests
--------
``hello``    open a session (tenant id, priority, quotas, deadline)
``submit``   submit one task (id, serialized speedup model, predecessors)
``close``    declare the tenant's DAG complete (no more submissions)
``status``   read-only service snapshot (never journaled)
``stats``    read-only telemetry snapshot (service + per-tenant metrics)
``cancel``   cancel the session, releasing all its capacity
``bye``      leave (detaches cleanly after ``close``/``cancel``)

Responses
---------
``Ack``          positive command outcome (with per-op payload)
``Rejection``    negative outcome: error ``code``, message, retry hint
``TaskDone``     a task finished (virtual start/end, processors)
``TaskKilled``   an attempt was killed by an injected processor fault
``GraphDone``    the tenant's whole DAG finished (virtual makespan)
``Evicted``      session terminated by the service (deadline, shedding,
                 cancellation); ``reason`` is the error code
``Status``       snapshot payload
``Stats``        telemetry payload (metrics registries as dicts)
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.exceptions import ProtocolError
from repro.graph.io import model_from_dict, model_to_dict
from repro.runtime.serialization import CANONICAL_ENCODER
from repro.speedup.base import SpeedupModel

__all__ = [
    "Request",
    "Hello",
    "Submit",
    "CloseGraph",
    "StatusQuery",
    "StatsQuery",
    "Cancel",
    "Bye",
    "Response",
    "Ack",
    "Rejection",
    "TaskDone",
    "TaskKilled",
    "GraphDone",
    "Evicted",
    "Status",
    "Stats",
    "parse_request",
    "request_to_dict",
    "response_to_dict",
    "response_from_dict",
    "encode_line",
    "decode_line",
    "MAX_LINE_BYTES",
]

#: Upper bound on one wire line; longer lines are a protocol violation
#: (bounds per-connection buffering regardless of client behaviour).
MAX_LINE_BYTES = 256 * 1024


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """Base class of client requests (the ``op`` tag is the class)."""


@dataclass(frozen=True)
class Hello(Request):
    """Open a session for ``tenant`` with scheduling ``priority``.

    Higher ``priority`` values are more important: under load shedding
    the *lowest* priority tenant is evicted first.  ``deadline`` is a
    virtual-time bound on the whole session (``None`` = none).
    ``max_inflight_tasks`` / ``max_running_procs`` may *lower* the
    service's default quota for this tenant, never raise it.
    """

    tenant: str
    priority: int = 0
    deadline: float | None = None
    max_inflight_tasks: int | None = None
    max_running_procs: int | None = None


@dataclass(frozen=True)
class Submit(Request):
    """Submit task ``task`` with ``model`` and predecessor ids ``deps``.

    Predecessors must already have been submitted by the same session
    (tasks arrive in topological order), which makes the per-tenant
    graph acyclic by construction.
    """

    task: str
    model: SpeedupModel
    deps: tuple[str, ...] = ()


@dataclass(frozen=True)
class CloseGraph(Request):
    """No more submissions; stream completions until the DAG drains."""


@dataclass(frozen=True)
class StatusQuery(Request):
    """Read-only snapshot (handled outside the journal)."""


@dataclass(frozen=True)
class StatsQuery(Request):
    """Read-only telemetry snapshot (service + per-tenant metrics)."""


@dataclass(frozen=True)
class Cancel(Request):
    """Cancel this session and release all its pool capacity."""


@dataclass(frozen=True)
class Bye(Request):
    """Close the connection (allowed any time; implies detach)."""


_REQUEST_OPS: dict[str, type[Request]] = {
    "hello": Hello,
    "submit": Submit,
    "close": CloseGraph,
    "status": StatusQuery,
    "stats": StatsQuery,
    "cancel": Cancel,
    "bye": Bye,
}
_OP_FOR_TYPE = {cls: op for op, cls in _REQUEST_OPS.items()}

#: Required / optional field specs per op: name -> (types, required).
_FIELD_SPECS: dict[str, dict[str, tuple[tuple[type, ...], bool]]] = {
    "hello": {
        "tenant": ((str,), True),
        "priority": ((int,), False),
        "deadline": ((int, float), False),
        "max_inflight_tasks": ((int,), False),
        "max_running_procs": ((int,), False),
    },
    "submit": {
        "task": ((str,), True),
        "model": ((dict,), True),
        "deps": ((list,), False),
    },
    "close": {},
    "status": {},
    "stats": {},
    "cancel": {},
    "bye": {},
}


def parse_request(payload: Mapping[str, Any]) -> Request:
    """Validate and build a :class:`Request` from one decoded wire object.

    Raises :class:`~repro.exceptions.ProtocolError` on any problem:
    unknown op, missing/unexpected fields, wrong JSON types, or an
    undeserializable speedup model.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"request must be a JSON object, got {type(payload).__name__}")
    op = payload.get("op")
    if not isinstance(op, str) or op not in _REQUEST_OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {sorted(_REQUEST_OPS)})")
    spec = _FIELD_SPECS[op]
    for name in payload:
        if name != "op" and name not in spec:
            raise ProtocolError(f"{op}: unexpected field {name!r}")
    kwargs: dict[str, Any] = {}
    for name, (types, required) in spec.items():
        if name not in payload or payload[name] is None:
            if required:
                raise ProtocolError(f"{op}: missing required field {name!r}")
            continue
        value = payload[name]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ProtocolError(
                f"{op}.{name}: expected {'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )
        kwargs[name] = value
    if op == "submit":
        try:
            kwargs["model"] = model_from_dict(kwargs["model"])
        except Exception as exc:
            raise ProtocolError(f"submit.model: {exc}") from exc
        deps = kwargs.get("deps", [])
        if not all(isinstance(d, str) for d in deps):
            raise ProtocolError("submit.deps: every predecessor id must be a string")
        kwargs["deps"] = tuple(deps)
    try:
        return _REQUEST_OPS[op](**kwargs)
    except Exception as exc:  # constructor-level validation
        raise ProtocolError(f"invalid {op} request: {exc}") from exc


def request_to_dict(request: Request) -> dict[str, Any]:
    """Wire form of a request (inverse of :func:`parse_request`)."""
    op = _OP_FOR_TYPE.get(type(request))
    if op is None:
        raise ProtocolError(f"not a protocol request: {type(request).__name__}")
    payload: dict[str, Any] = {"op": op}
    if isinstance(request, Submit):
        payload["task"] = request.task
        payload["model"] = model_to_dict(request.model)
        if request.deps:
            payload["deps"] = list(request.deps)
        return payload
    for name, value in asdict(request).items():
        if value is not None:
            payload[name] = value
    return payload


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Response:
    """Base class of everything the service writes to a session."""


@dataclass(frozen=True)
class Ack(Response):
    """Positive outcome of the last command (``info`` is per-op payload)."""

    op: str
    info: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Rejection(Response):
    """Negative outcome: machine-readable ``code`` + human message.

    ``retry_after`` (wall seconds) is the backpressure hint; a client
    seeing it should delay and retry the same request.
    """

    code: str
    message: str
    retry_after: float | None = None


@dataclass(frozen=True)
class TaskDone(Response):
    """A task of this session finished on the shared pool."""

    task: str
    start: float
    end: float
    procs: int


@dataclass(frozen=True)
class TaskKilled(Response):
    """An attempt was killed by a processor fault (a retry is queued)."""

    task: str
    attempt: int


@dataclass(frozen=True)
class GraphDone(Response):
    """Every task of the closed DAG completed."""

    makespan: float
    tasks: int


@dataclass(frozen=True)
class Evicted(Response):
    """The service terminated the session (``reason`` is an error code)."""

    reason: str
    message: str


@dataclass(frozen=True)
class Status(Response):
    """Read-only snapshot of pool and tenant state."""

    payload: Mapping[str, Any]


@dataclass(frozen=True)
class Stats(Response):
    """Telemetry snapshot: ``service`` + per-``tenants`` registry dicts."""

    payload: Mapping[str, Any]


_RESPONSE_TAGS: dict[type[Response], str] = {
    Ack: "ack",
    Rejection: "rejection",
    TaskDone: "task-done",
    TaskKilled: "task-killed",
    GraphDone: "graph-done",
    Evicted: "evicted",
    Status: "status",
    Stats: "stats",
}
_TAG_TO_RESPONSE = {tag: cls for cls, tag in _RESPONSE_TAGS.items()}


def response_to_dict(response: Response) -> dict[str, Any]:
    """Wire form of a response: command outcomes carry ``ok``, events ``event``."""
    tag = _RESPONSE_TAGS.get(type(response))
    if tag is None:
        raise ProtocolError(f"not a protocol response: {type(response).__name__}")
    if isinstance(response, Ack):
        return {"ok": True, "op": response.op, "info": dict(response.info)}
    if isinstance(response, Rejection):
        payload: dict[str, Any] = {
            "ok": False, "error": response.code, "message": response.message,
        }
        if response.retry_after is not None:
            payload["retry_after"] = response.retry_after
        return payload
    if isinstance(response, (Status, Stats)):
        return {"event": tag, "payload": dict(response.payload)}
    body = asdict(response)
    body["event"] = tag
    return body


def response_from_dict(payload: Mapping[str, Any]) -> Response:
    """Rebuild a :class:`Response` from its wire form (client side)."""
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"response must be a JSON object, got {type(payload).__name__}")
    if "ok" in payload:
        if payload["ok"]:
            return Ack(op=str(payload.get("op", "")), info=dict(payload.get("info", {})))
        return Rejection(
            code=str(payload.get("error", "UNKNOWN")),
            message=str(payload.get("message", "")),
            retry_after=payload.get("retry_after"),
        )
    tag = payload.get("event")
    cls = _TAG_TO_RESPONSE.get(str(tag))
    if cls is None or cls in (Ack, Rejection):
        raise ProtocolError(f"unknown response event {tag!r}")
    body = {k: v for k, v in payload.items() if k != "event"}
    try:
        if cls is Status:
            return Status(payload=dict(body.get("payload", {})))
        if cls is Stats:
            return Stats(payload=dict(body.get("payload", {})))
        return cls(**body)
    except TypeError as exc:
        raise ProtocolError(f"malformed {tag} response: {exc}") from exc


# ----------------------------------------------------------------------
# Line codec
# ----------------------------------------------------------------------
def encode_line(payload: Mapping[str, Any]) -> bytes:
    """One wire line (and one journal record): canonical JSON + newline."""
    return CANONICAL_ENCODER.encode(dict(payload)).encode() + b"\n"


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Decode one wire line to a JSON object.

    Raises :class:`~repro.exceptions.ProtocolError` on oversized lines,
    undecodable bytes, invalid JSON, or non-object payloads.
    """
    if isinstance(line, str):
        raw = line.encode("utf-8", errors="surrogateescape")
    else:
        raw = line
    if len(raw) > MAX_LINE_BYTES:
        raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes ({len(raw)})")
    try:
        payload = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"line is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"line is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"line must decode to a JSON object, got {type(payload).__name__}"
        )
    return payload
