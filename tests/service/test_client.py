"""ServiceClient read timeouts: one lazily re-armed timer, no Task per read.

Each test drives one ``asyncio.run`` against a bare loopback server, so
the client's wire primitive is tested without the scheduler service.
"""

import asyncio

import pytest

from repro.service.client import ServiceClient


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


async def line_server(lines: list[bytes], delay: float = 0.0):
    """Serve ``lines`` to each connection (after ``delay`` s), then stay silent."""

    async def handle(reader, writer):
        if delay:
            await asyncio.sleep(delay)
        for line in lines:
            writer.write(line)
        await writer.drain()
        await reader.read()  # hold the connection open until the client leaves
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestReadTimeout:
    def test_silent_server_times_out_within_the_timeout(self):
        async def scenario():
            server, port = await line_server([])
            async with server:
                client = await ServiceClient.connect("127.0.0.1", port)
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                with pytest.raises(asyncio.TimeoutError):
                    await client._read_payload(timeout=0.2)
                elapsed = loop.time() - t0
                await client.close()
            assert 0.2 <= elapsed < 2.0

        run(scenario())

    def test_shorter_deadline_rearms_the_timer_earlier(self):
        async def scenario():
            server, port = await line_server([b'{"ok": true}\n'])
            async with server:
                client = await ServiceClient.connect("127.0.0.1", port)
                assert (await client._read_payload(timeout=30.0))["ok"] is True
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                with pytest.raises(asyncio.TimeoutError):
                    await client._read_payload(timeout=0.2)
                elapsed = loop.time() - t0
                await client.close()
            assert elapsed < 2.0

        run(scenario())

    def test_stale_short_timer_does_not_fail_a_later_longer_read(self):
        async def scenario():
            server, port = await line_server([b'{"ok": true}\n'], delay=0.3)
            async with server:
                client = await ServiceClient.connect("127.0.0.1", port)
                # The timer armed for this read's 0.05 s deadline fires
                # while the next read waits; it must re-arm, not fail it.
                client.reader.feed_data(b'{"event": "early"}\n')
                assert (await client._read_payload(timeout=0.05))["event"] == "early"
                assert (await client._read_payload(timeout=5.0))["ok"] is True
                await client.close()

        run(scenario())

    def test_reads_create_no_task(self):
        async def scenario():
            lines = [b'{"ok": true, "n": %d}\n' % i for i in range(20)]
            server, port = await line_server(lines)
            async with server:
                client = await ServiceClient.connect("127.0.0.1", port)
                loop = asyncio.get_running_loop()
                created = []

                def factory(loop, coro, **kwargs):
                    created.append(coro)
                    return asyncio.Task(coro, loop=loop, **kwargs)

                loop.set_task_factory(factory)
                try:
                    got = [(await client._read_payload(timeout=5.0))["n"] for _ in lines]
                finally:
                    loop.set_task_factory(None)
                await client.close()
            assert got == list(range(20))
            assert created == []

        run(scenario())
