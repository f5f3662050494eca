"""JSON-lines wire protocol of the scheduler service.

One request or response per line, each a single JSON object.  Requests
carry an ``op`` tag and are frozen dataclasses below, mirroring the
:mod:`repro.obs.events` idiom; :func:`parse_request` is the *only*
deserialization entry point, so every malformed input fails in exactly
one place with a :class:`~repro.exceptions.ProtocolError` (never a
stray ``KeyError`` deep in the service).  Responses are plain dicts:
the server, the core and the pool build them and the client reads
them as they are.

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
A command is answered by an ack, a rejection, or (``status``/``stats``)
its snapshot event; the other events arrive between commands.

==================  ===================================================
ack                 ``ok`` (true), ``op``, ``info`` (per-op payload)
rejection           ``ok`` (false), ``error`` (the error code),
                    ``message``, and ``retry_after`` (wall seconds)
                    when the client should delay and retry
``task-done``       ``event``, ``task``, ``start``, ``end``, ``procs``
``task-killed``     ``event``, ``task``, ``attempt`` (a retry is queued)
``graph-done``      ``event``, ``makespan``, ``tasks``
``evicted``         ``event``, ``reason`` (an error code), ``message``
``status``          ``event``, ``payload`` (pool and tenant snapshot)
``stats``           ``event``, ``payload`` (``service`` + ``tenants``
                    metrics registries)
==================  ===================================================
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping

from repro.exceptions import ProtocolError, ReproError
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
    "parse_request",
    "request_to_dict",
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
        except ReproError as exc:
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
