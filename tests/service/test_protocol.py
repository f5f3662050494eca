"""Wire-protocol tests: parsing, validation, codecs, and the keys of every response."""

import asyncio
import json
import re

import pytest

from repro.exceptions import ProtocolError, QuotaExceeded
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    MAX_LINE_BYTES,
    Bye,
    Cancel,
    CloseGraph,
    Hello,
    StatusQuery,
    Submit,
    decode_line,
    encode_line,
    parse_request,
    request_to_dict,
)
from repro.service.server import SchedulerServer
from repro.speedup import AmdahlModel


class TestParseRequest:
    def test_hello_minimal(self):
        req = parse_request({"op": "hello", "tenant": "alice"})
        assert req == Hello(tenant="alice")

    def test_hello_full(self):
        req = parse_request(
            {
                "op": "hello",
                "tenant": "a",
                "priority": 3,
                "deadline": 100.0,
                "max_inflight_tasks": 8,
                "max_running_procs": 4,
            }
        )
        assert isinstance(req, Hello)
        assert req.priority == 3
        assert req.deadline == 100.0

    def test_submit_roundtrip(self):
        model = AmdahlModel(w=10.0, d=1.0)
        req = Submit(task="t1", model=model, deps=("t0",))
        wire = request_to_dict(req)
        parsed = parse_request(json.loads(json.dumps(wire)))
        assert isinstance(parsed, Submit)
        assert parsed.task == "t1"
        assert parsed.deps == ("t0",)
        assert parsed.model.time(4) == pytest.approx(model.time(4))

    @pytest.mark.parametrize(
        "req", [Hello(tenant="x"), CloseGraph(), StatusQuery(), Cancel(), Bye()]
    )
    def test_all_requests_roundtrip(self, req):
        assert parse_request(request_to_dict(req)) == req

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"op": "warp"},
            {"op": 7},
            {"op": "hello"},  # missing tenant
            {"op": "hello", "tenant": 5},
            {"op": "hello", "tenant": "a", "priority": "high"},
            {"op": "hello", "tenant": "a", "priority": True},
            {"op": "hello", "tenant": "a", "bogus": 1},
            {"op": "submit"},
            {"op": "submit", "task": "t", "model": 3},
            {"op": "submit", "task": "t", "model": {"kind": "nope"}},
            {"op": "close", "extra": 1},
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(ProtocolError):
            parse_request(payload)

    def test_submit_non_string_deps_rejected(self):
        model_dict = request_to_dict(Submit(task="t", model=AmdahlModel(1.0, 1.0)))[
            "model"
        ]
        with pytest.raises(ProtocolError):
            parse_request(
                {"op": "submit", "task": "t", "model": model_dict, "deps": [1, 2]}
            )

    @pytest.mark.parametrize("field", ["w", "d"])
    def test_huge_int_model_field_is_a_protocol_error(self, field):
        model = {"kind": "amdahl", "w": 1.0, "d": 1.0, field: 10**400}
        with pytest.raises(ProtocolError, match="submit.model"):
            parse_request({"op": "submit", "task": "t", "model": model})

    def test_untyped_model_failure_is_not_masked(self, monkeypatch):
        def broken(data):
            raise AttributeError("a bug, not bad input")

        monkeypatch.setattr(protocol, "model_from_dict", broken)
        model = request_to_dict(Submit(task="t", model=AmdahlModel(1.0, 1.0)))["model"]
        with pytest.raises(AttributeError, match="a bug"):
            parse_request({"op": "submit", "task": "t", "model": model})


def documented_keys():
    """Response kind -> keys, read from the module docstring's table."""
    lines = protocol.__doc__.split("Responses\n---------\n")[1].splitlines()
    first, last = [i for i, line in enumerate(lines) if line.startswith("===")]
    rows = re.split(r"\n(?=\S)", "\n".join(lines[first + 1 : last]))
    keys = {}
    for row in rows:
        name, text = row.split(maxsplit=1)
        text = re.sub(r"\([^)]*\)", "", " ".join(text.split()))
        keys[name.strip("`")] = set(re.findall(r"``(\w+)``", text))
    return keys


def response_kind(payload):
    if "ok" in payload:
        return "ack" if payload["ok"] else "rejection"
    return payload["event"]


class TestResponses:
    @pytest.mark.parametrize(
        "resp",
        [
            {"ok": True, "op": "hello", "info": {"P": 8}},
            {"ok": False, "error": "QUOTA_EXCEEDED", "message": "nope", "retry_after": 0.05},
            {"ok": False, "error": "MALFORMED", "message": "bad"},
            {"event": "task-done", "task": "t", "start": 0.0, "end": 2.0, "procs": 3},
            {"event": "task-killed", "task": "t", "attempt": 1},
            {"event": "graph-done", "makespan": 12.5, "tasks": 4},
            {"event": "evicted", "reason": "SHED", "message": "overloaded"},
            {"event": "status", "payload": {"free": 8}},
        ],
    )
    def test_roundtrip(self, resp):
        rebuilt = decode_line(encode_line(resp))
        assert rebuilt == resp
        expected = documented_keys()[response_kind(resp)]
        if "retry_after" not in resp:
            expected = expected - {"retry_after"}
        assert set(rebuilt) == expected

    def test_rejection_keeps_retry_after(self):
        server = SchedulerServer(ServiceConfig(P=1, family="amdahl"))
        rejection = server._rejection(QuotaExceeded("m", retry_after=0.25))
        wire = decode_line(encode_line(rejection))
        assert wire["retry_after"] == 0.25
        assert wire["ok"] is False
        assert wire["error"] == "QUOTA_EXCEEDED"
        # A permanent rejection carries no retry hint at all.
        assert "retry_after" not in server._rejection(ProtocolError("bad"))


class TestResponseVocabulary:
    def test_every_line_the_server_writes_has_the_documented_keys(self):
        """One scenario makes the real server write every kind of line."""
        seen = []

        def record(client):
            read = client._read_payload

            async def recording(timeout=30.0):
                payload = await read(timeout)
                seen.append(payload)
                return payload

            client._read_payload = recording
            return client

        async def scenario():
            config = ServiceConfig(P=1, family="amdahl", retry_after_s=0.01)
            server = SchedulerServer(config)
            host, port = await server.start()
            try:
                client = record(await ServiceClient.connect(host, port))
                await client.hello("vocab", max_inflight_tasks=1)
                await client.request_line(b"NOT JSON\n")
                # With the only processor down, "a" pins the inflight quota.
                server.inject_fault("fail", 0)
                await client.submit("a", AmdahlModel(5.0, 1.0))
                await client.submit("b", AmdahlModel(5.0, 1.0))
                # The recovery starts "a"; failing again before any tick
                # kills that attempt, and the retry then completes.
                server.inject_fault("recover", 0)
                server.inject_fault("fail", 0)
                server.inject_fault("recover", 0)
                await client.close_graph()
                await client.wait_graph_done()
                await client.status()
                await client.stats()
                late = record(await ServiceClient.connect(host, port))
                await late.hello("late", deadline=1.0)
                await late.submit("x", AmdahlModel(1000.0, 1.0))
                await late.wait_graph_done()
                await late.close()
                await client.bye()
            finally:
                await server.stop()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
        keys = documented_keys()
        assert {response_kind(p) for p in seen} == set(keys)
        for payload in seen:
            expected = keys[response_kind(payload)]
            if "retry_after" not in payload:
                expected = expected - {"retry_after"}
            assert set(payload) == expected, payload
        rejections = [p for p in seen if p.get("ok") is False]
        assert [p["error"] for p in rejections] == ["MALFORMED", "QUOTA_EXCEEDED"]
        assert "retry_after" not in rejections[0]
        assert rejections[1]["retry_after"] == 0.01


class TestLineCodec:
    def test_roundtrip(self):
        line = encode_line({"op": "status"})
        assert line.endswith(b"\n")
        assert decode_line(line) == {"op": "status"}

    def test_oversized_line_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b"x" * (MAX_LINE_BYTES + 1))

    @pytest.mark.parametrize(
        "raw", [b"", b"not json", b"[1]", b'"str"', b"\xff\xfe garbage"]
    )
    def test_bad_lines_rejected(self, raw):
        with pytest.raises(ProtocolError):
            decode_line(raw)
