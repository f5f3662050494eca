"""End-to-end asyncio server tests over a real TCP socket.

pytest-asyncio is not a dependency: each test is a sync function that
drives one ``asyncio.run`` of an async scenario.
"""

import asyncio

import pytest

from repro.exceptions import ServiceError, SessionClosed
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.core import ServiceCore
from repro.service.protocol import (
    Hello,
    Submit,
    decode_line,
    encode_line,
    request_to_dict,
)
from repro.service.server import MALFORMED_LIMIT, SchedulerServer
from repro.speedup import AmdahlModel


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


def make_config(**overrides):
    defaults = dict(P=4, family="amdahl", retry_after_s=0.01)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def boot(config, journal_path=None):
    server = SchedulerServer(
        config,
        journal_path=None if journal_path is None else str(journal_path),
    )
    host, port = await server.start()
    return server, host, port


class TestSessionLifecycle:
    def test_hello_submit_close_graph_done(self):
        async def scenario():
            server, host, port = await boot(make_config())
            try:
                client = await ServiceClient.connect(host, port)
                info = await client.hello("alice")
                assert info["info"]["P"] == 4
                await client.submit("a", AmdahlModel(4.0, 1.0))
                await client.submit("b", AmdahlModel(2.0, 1.0), deps=("a",))
                await client.close_graph()
                terminal, prior = await client.wait_graph_done()
                assert terminal["event"] == "graph-done"
                assert terminal["tasks"] == 2
                done = [n["task"] for n in prior if n["event"] == "task-done"]
                assert done == ["a", "b"]
                await client.bye()
            finally:
                await server.stop()

        run(scenario())

    def test_submit_before_hello_rejected(self):
        async def scenario():
            server, host, port = await boot(make_config())
            try:
                client = await ServiceClient.connect(host, port)
                reply = await client.submit("a", AmdahlModel(1.0, 1.0))
                assert reply["ok"] is False
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_status_roundtrip(self):
        async def scenario():
            server, host, port = await boot(make_config())
            try:
                client = await ServiceClient.connect(host, port)
                await client.hello("alice")
                status = await client.status()
                assert status["P"] == 4
                assert "alice" in status["tenants"]
                await client.bye()
            finally:
                await server.stop()

        run(scenario())


class TestRobustness:
    def test_disconnect_reclaims_capacity(self):
        async def scenario():
            server, host, port = await boot(make_config())
            try:
                client = await ServiceClient.connect(host, port)
                await client.hello("ghost")
                await client.submit("big", AmdahlModel(1000.0, 1.0))
                await client.disconnect_abruptly()
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    run_state = server.core.pool.tenants.get("ghost")
                    if run_state is not None and not run_state.active:
                        break
                assert not server.core.pool.tenants["ghost"].active
                assert len(server.core.pool.free_set) == 4
            finally:
                await server.stop()

        run(scenario())

    def test_malformed_flood_closes_connection(self):
        async def scenario():
            server, host, port = await boot(make_config())
            try:
                client = await ServiceClient.connect(host, port)
                await client.hello("rowdy")
                for _ in range(MALFORMED_LIMIT):
                    await client.send_raw(b"NOT JSON\n")
                    reply = await client._read_payload()
                    assert reply["ok"] is False
                    assert reply["error"] == "MALFORMED"
                # The connection is now closed server-side.
                with pytest.raises(ServiceError):
                    await client.send_raw(b"NOT JSON\n")
                    await client._read_payload(timeout=5.0)
            finally:
                await server.stop()

        run(scenario())

    def test_second_session_while_first_open_rejected(self):
        async def scenario():
            server, host, port = await boot(make_config())
            try:
                first = await ServiceClient.connect(host, port)
                await first.hello("dup")
                second = await ServiceClient.connect(host, port)
                with pytest.raises(ServiceError):
                    await second.hello("dup")
                await second.close()
                await first.bye()
            finally:
                await server.stop()

        run(scenario())

    def test_backpressure_retry_after_on_wire(self):
        async def scenario():
            config = make_config(P=1)
            server, host, port = await boot(config)
            try:
                client = await ServiceClient.connect(host, port)
                await client.hello("busy", max_inflight_tasks=1)
                # Fail the only processor first: "first" queues with no
                # capacity to run on, so it pins the inflight quota (the
                # server advances virtual time eagerly — a runnable task
                # would complete between two wire requests).
                server.inject_fault("fail", 0)
                await client.submit("first", AmdahlModel(5.0, 1.0))
                reply = await client.submit("second", AmdahlModel(5.0, 1.0))
                assert reply["ok"] is False
                assert reply["error"] == "QUOTA_EXCEEDED"
                assert reply["retry_after"] == config.retry_after_s
                # Recovery lets "first" drain; the retrying submit lands.
                server.inject_fault("recover", 0)
                await client.submit_retrying("second", AmdahlModel(5.0, 1.0))
                await client.close_graph()
                terminal, _ = await client.wait_graph_done()
                assert terminal["event"] == "graph-done"
                await client.bye()
            finally:
                await server.stop()

        run(scenario())


class TestCrashRecovery:
    def test_kill_and_recover_is_digest_identical(self, tmp_path):
        journal = tmp_path / "wal.jsonl"

        async def scenario():
            server, host, port = await boot(make_config(), journal_path=journal)
            client = await ServiceClient.connect(host, port)
            await client.hello("alice")
            await client.submit("a", AmdahlModel(100.0, 1.0))
            await client.submit("b", AmdahlModel(100.0, 1.0), deps=("a",))
            await server.kill()  # abrupt crash: no graceful teardown
            digest = server.core.state_digest()
            await client.close()
            return digest

        digest = run(scenario())
        recovered = ServiceCore.recover(journal, reopen=False)
        assert recovered.state_digest() == digest
        assert set(recovered.pool.tenants["alice"].tasks) == {"a", "b"}

    def test_recovered_core_serves_new_sessions(self, tmp_path):
        journal = tmp_path / "wal.jsonl"

        async def before():
            server, host, port = await boot(make_config(), journal_path=journal)
            client = await ServiceClient.connect(host, port)
            await client.hello("alice")
            await client.submit("a", AmdahlModel(4.0, 1.0))
            await server.kill()
            await client.close()

        async def after():
            core = ServiceCore.recover(journal)
            server = SchedulerServer(make_config(), core=core)
            host, port = await server.start()
            try:
                client = await ServiceClient.connect(host, port)
                await client.hello("bob")
                await client.submit("x", AmdahlModel(2.0, 1.0))
                await client.close_graph()
                terminal, _ = await client.wait_graph_done()
                assert terminal["event"] == "graph-done"
                await client.bye()
                assert "alice" in server.core.pool.tenants
            finally:
                await server.stop()

        run(before())
        run(after())

    def test_recovered_events_drain_with_no_request(self, tmp_path):
        """``start`` advances a recovered core's running task by itself."""
        journal = tmp_path / "wal.jsonl"
        live = ServiceCore(make_config(), journal_path=str(journal))
        live.hello(Hello(tenant="alice"))
        live.submit("alice", Submit(task="a", model=AmdahlModel(4.0, 1.0)))
        live.close_journal()
        core = ServiceCore.recover(journal)
        assert core.pool.tenants["alice"].tasks["a"].state == "running"

        async def scenario():
            server = SchedulerServer(make_config(), core=core)
            await server.start()
            try:
                await wait_until(lambda: not core.pool.has_pending_events())
                assert core.pool.tenants["alice"].tasks["a"].state == "done"
            finally:
                await server.stop()

        run(scenario())


async def wait_until(predicate, *, timeout=5.0):
    for _ in range(int(timeout / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("condition not reached in time")


class TestIdleTimeout:
    def test_silent_session_is_evicted_and_reclaimed(self):
        async def scenario():
            server, host, port = await boot(make_config(session_idle_timeout_s=0.2))
            try:
                client = await ServiceClient.connect(host, port)
                await client.hello("sleepy")
                await client.submit("a", AmdahlModel(1000.0, 1.0))
                terminal, _ = await client.wait_graph_done(timeout=5.0)
                assert terminal["event"] == "evicted"
                assert terminal["reason"] == "DEADLINE_EXCEEDED"
                with pytest.raises(SessionClosed):
                    await client.next_notification(timeout=5.0)
                pool = server.core.pool
                await wait_until(lambda: not pool.tenants["sleepy"].active)
                assert pool.tenants["sleepy"].status == "cancelled"
                assert pool.tenants["sleepy"].running_procs == 0
                assert len(pool.free_set) == 4
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_session_that_keeps_talking_is_never_evicted(self):
        async def scenario():
            server, host, port = await boot(make_config(session_idle_timeout_s=0.2))
            try:
                client = await ServiceClient.connect(host, port)
                await client.hello("chatty")
                loop = asyncio.get_running_loop()
                until = loop.time() + 0.7
                while loop.time() < until:
                    await client.status()
                    await asyncio.sleep(0.05)
                assert all(n.get("event") != "evicted" for n in client.notifications)
                assert server.core.pool.tenants["chatty"].active
                await client.submit("a", AmdahlModel(4.0, 1.0))
                await client.close_graph()
                terminal, _ = await client.wait_graph_done()
                assert terminal["event"] == "graph-done"
                await client.bye()
            finally:
                await server.stop()

        run(scenario())


class TestSlowConsumer:
    def test_stalled_reader_is_evicted_and_others_unaffected(self):
        async def scenario():
            server, host, port = await boot(make_config())
            try:
                slow = await ServiceClient.connect(host, port)
                await slow.hello("slow")
                # The server-side transport of "slow" reports a backlog far
                # past the bound, as if its client had stopped reading.
                transport = server._sessions["slow"].writer.transport
                transport.get_write_buffer_size = lambda: 1 << 30
                slow.writer.write(encode_line(request_to_dict(
                    Submit(task="a", model=AmdahlModel(50.0, 1.0))
                )))
                await slow.writer.drain()

                good = await ServiceClient.connect(host, port)
                await good.hello("good")
                await good.submit("x", AmdahlModel(8.0, 1.0))
                await good.submit("y", AmdahlModel(8.0, 1.0), deps=("x",))
                await good.close_graph()
                terminal, prior = await good.wait_graph_done()
                assert terminal["event"] == "graph-done"
                assert [n["task"] for n in prior if n["event"] == "task-done"] == ["x", "y"]

                pool = server.core.pool
                await wait_until(lambda: not pool.tenants["slow"].active)
                run_state = pool.tenants["slow"]
                assert (run_state.status, run_state.reason) == ("cancelled", "SLOW_CONSUMER")
                assert run_state.running_procs == 0
                assert run_state.inflight == 0
                assert len(pool.free_set) == 4
                pool.check_conservation()

                assert (await slow._read_payload())["ok"]  # the submit's ack
                terminal, _ = await slow.wait_graph_done()
                assert (terminal["event"], terminal["reason"]) == ("evicted", "SLOW_CONSUMER")
                await good.bye()
                await slow.close()
            finally:
                await server.stop()

        run(scenario())


class TestTick:
    def test_raising_tick_is_logged_and_the_next_request_retries(self):
        async def scenario():
            server, host, port = await boot(make_config())
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda loop, context: errors.append(context))
            tick = server.core.tick

            def failing_once():
                server.core.tick = tick  # later ticks run for real
                raise RuntimeError("tick failed")

            server.core.tick = failing_once
            try:
                client = await ServiceClient.connect(host, port)
                await client.hello("alice")
                await client.submit("a", AmdahlModel(4.0, 1.0))
                await wait_until(lambda: errors)
                assert isinstance(errors[0]["exception"], RuntimeError)
                assert server.core.pool.has_pending_events()
                await client.close_graph()  # kicks the tick again
                terminal, _ = await client.wait_graph_done()
                assert terminal["event"] == "graph-done"
                assert len(errors) == 1
                await client.bye()
            finally:
                await server.stop()

        run(scenario())


class TestDecisionPath:
    def test_closed_loop_submits_create_no_tasks(self):
        """Serving a request must not spawn a Task (nor need one per read)."""

        async def scenario():
            ours = asyncio.all_tasks()
            server, host, port = await boot(make_config(P=8))
            try:
                reader, writer = await asyncio.open_connection(host, port)

                async def request(payload):
                    writer.write(encode_line(payload))
                    await writer.drain()
                    while True:
                        reply = decode_line(await reader.readline())
                        if "ok" in reply:
                            return reply

                assert (await request({"op": "hello", "tenant": "loop"}))["ok"]
                loop = asyncio.get_running_loop()
                created = []

                def counting_factory(loop, coro, **kwargs):
                    created.append(coro)
                    return asyncio.Task(coro, loop=loop, **kwargs)

                loop.set_task_factory(counting_factory)
                try:
                    acks = [
                        await request(request_to_dict(
                            Submit(task=f"t{i}", model=AmdahlModel(2.0, 0.5))
                        ))
                        for i in range(200)
                    ]
                    # Besides this test's own tasks only the connection
                    # handler is alive: virtual time needs no Task.
                    assert asyncio.all_tasks() - ours == set(server._handlers)
                finally:
                    loop.set_task_factory(None)
                assert all(ack["ok"] for ack in acks)
                assert created == []
                writer.close()
            finally:
                await server.stop()

        run(scenario())
