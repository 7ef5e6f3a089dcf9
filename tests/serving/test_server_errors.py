"""Server error paths and client resilience (satellite coverage).

The protocol's per-request error isolation only matters under fault, so
this suite injects the faults directly: request lines past the server's
``line_limit``, unknown operations, a peer that disconnects while its
query is still parked in the :class:`QueryBatcher`, a server that
answers garbage instead of JSON, and a server that drops every
connection.  In each case the contract is the same — the *other*
requests and connections keep working, and the client surfaces a typed
error (:class:`ProtocolError`, :class:`ConnectionLost`) rather than a
hang or a stack trace.
"""

import asyncio
import json
from contextlib import asynccontextmanager

import pytest

from repro.serving import (
    ConnectionLost,
    ProtocolError,
    ServingClient,
    ServingError,
    ShardRouter,
    ShardUnavailable,
    SketchServer,
    SketchStore,
    StoreConfig,
    synthetic_feed,
)

CONFIG = StoreConfig(k=16, tau_star=0.75, salt="errors")


def make_store(events=200, seed=11):
    store = SketchStore(CONFIG)
    store.ingest(
        synthetic_feed(events, num_keys=40, groups=("g1", "g2"), seed=seed)
    )
    return store


class TestOversizedRequests:
    def test_oversized_line_is_answered_then_dropped(self):
        async def run():
            store = make_store()
            async with SketchServer(store, line_limit=256) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"id": 1, "op": "ping", "pad": "' + b"x" * 512)
                writer.write(b'"}\n')
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["id"] is None
                assert "exceeds 256 bytes" in response["error"]
                # The connection is unrecoverable and gets closed...
                assert await reader.readline() == b""
                writer.close()
                await writer.wait_closed()
                # ...but the server and fresh connections are fine.
                client = await ServingClient.connect(host, port)
                assert (await client.ping())["result"] == "pong"
                snapshot = await client.metrics()
                assert (
                    snapshot["counters"][
                        'serving_errors_total{op="oversized"}'
                    ]
                    == 1
                )
                await client.close()

        asyncio.run(run())

    def test_line_limit_validation(self):
        with pytest.raises(ValueError, match="line_limit"):
            SketchServer(make_store(0), line_limit=0)


class TestBadRequests:
    def test_unknown_op_and_malformed_line_are_isolated(self):
        async def run():
            store = make_store()
            async with SketchServer(store) as server:
                host, port = server.address
                client = await ServingClient.connect(host, port)
                with pytest.raises(ServingError, match="unknown op"):
                    await client.request("frobnicate")
                # Raw garbage on a second connection: answered with an
                # error line, not a dropped connection.
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                writer.write(b'"a bare string"\n')
                await writer.drain()
                for _ in range(2):
                    response = json.loads(await reader.readline())
                    assert response["ok"] is False
                writer.close()
                await writer.wait_closed()
                # The client connection sharing the server still works.
                assert (await client.ping())["result"] == "pong"
                snapshot = await client.metrics()
                assert (
                    snapshot["counters"]['serving_requests_total{op="invalid"}']
                    == 2
                )
                await client.close()

        asyncio.run(run())


    def test_shard_view_rejects_a_bare_string_selection(self):
        async def run():
            async with SketchServer(make_store()) as server:
                client = await ServingClient.connect(*server.address)
                # Iterated per character, "g1" would select groups "g"
                # and "1" and silently answer an empty view.
                with pytest.raises(ServingError, match="list of group names"):
                    await client.request(
                        "shard_view", groups="g1", kinds=["pps"]
                    )
                view = await client.request(
                    "shard_view", groups=["g1"], kinds=["pps"]
                )
                assert list(view["view"]["groups"]) == ["g1"]
                await client.close()

        asyncio.run(run())


#: A batch whose second event has a NaN weight: refused whole.
OUT_OF_DOMAIN_BATCH = [
    {"key": "k1", "weight": 1.0, "timestamp": 500.0, "group": "g1"},
    {"key": "k2", "weight": "nan", "timestamp": 501.0, "group": "g1"},
]


class TestOutOfDomainIngest:
    """One out-of-domain event refuses its batch before anything applies."""

    def test_server_refuses_the_batch(self):
        async def run():
            store = make_store()
            async with SketchServer(store) as server:
                client = await ServingClient.connect(*server.address)
                before = await client.query("sum")
                with pytest.raises(ServingError, match="must be finite"):
                    await client.request("ingest", events=OUT_OF_DOMAIN_BATCH)
                after = await client.query("sum")
                assert after["result"] == before["result"]
                assert after["watermark"] == before["watermark"] == 200
                await client.close()

        asyncio.run(run())

    def test_router_refuses_the_batch(self):
        async def run():
            feed = synthetic_feed(
                60, num_keys=12, groups=("g1", "g2"), seed=34
            )
            async with fuzz_router() as (router, servers):
                client = await ServingClient.connect(*router.address)
                await client.ingest(feed)
                before = await client.query("sum")
                with pytest.raises(ServingError, match="must be finite"):
                    await client.request("ingest", events=OUT_OF_DOMAIN_BATCH)
                after = await client.query("sum")
                assert after["result"] == before["result"]
                assert after["watermarks"] == before["watermarks"] == [
                    server.store.events_ingested for server in servers
                ]
                assert after["watermark"] == 60
                await client.close()

        asyncio.run(run())


class TestDisconnectMidFlush:
    def test_peer_gone_before_flush_does_not_starve_others(self):
        async def run():
            store = make_store()
            # A long coalescing window guarantees the disconnecting
            # peer's query is still parked when the socket dies.
            async with SketchServer(store, max_delay=0.05) as server:
                host, port = server.address
                _reader, doomed = await asyncio.open_connection(host, port)
                doomed.write(
                    json.dumps(
                        {"id": 1, "op": "query", "kind": "sum"}
                    ).encode()
                    + b"\n"
                )
                await doomed.drain()
                doomed.close()
                await doomed.wait_closed()

                client = await ServingClient.connect(host, port)
                answer = await client.query("sum")
                assert answer["result"] == store.query("sum")
                assert (await client.ping())["result"] == "pong"
                await client.close()

        asyncio.run(run())


async def fake_server(handler):
    """Start a throwaway asyncio server; returns (server, host, port)."""
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, host, port


class TestClientResilience:
    def test_malformed_response_raises_protocol_error(self):
        async def run():
            async def handler(reader, writer):
                await reader.readline()
                writer.write(b"definitely-not-json\n")
                await writer.drain()

            server, host, port = await fake_server(handler)
            client = await ServingClient.connect(host, port)
            with pytest.raises(ProtocolError, match="definitely-not-json"):
                await client.ping()
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_non_object_response_raises_protocol_error(self):
        async def run():
            async def handler(reader, writer):
                await reader.readline()
                writer.write(b"[1, 2, 3]\n")
                await writer.drain()

            server, host, port = await fake_server(handler)
            client = await ServingClient.connect(host, port)
            with pytest.raises(ProtocolError):
                await client.ping()
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_retryable_op_reconnects_after_drop(self):
        async def run():
            store = make_store()
            async with SketchServer(store) as server:
                host, port = server.address
                client = await ServingClient.connect(
                    host, port, backoff=0.01
                )
                assert (await client.ping())["result"] == "pong"
                # Kill the transport under the client: the next ping
                # sees a closed writer, reconnects, and succeeds.
                client._writer.close()
                assert (await client.ping())["result"] == "pong"
                await client.close()

        asyncio.run(run())

    def test_mutating_op_is_never_retried(self):
        async def run():
            store = make_store(0)
            async with SketchServer(store) as server:
                host, port = server.address
                client = await ServingClient.connect(
                    host, port, backoff=0.01
                )
                client._writer.close()
                events = synthetic_feed(
                    10, num_keys=4, groups=("g1",), seed=2
                )
                with pytest.raises(ConnectionLost):
                    await client.ingest(events)
                assert store.events_ingested == 0

        asyncio.run(run())

    def test_reconnect_gives_up_after_max_retries(self):
        async def run():
            async def handler(reader, writer):
                writer.close()

            server, host, port = await fake_server(handler)
            client = await ServingClient.connect(
                host, port, max_retries=2, backoff=0.01
            )
            with pytest.raises(ConnectionLost):
                await client.ping()
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())


@asynccontextmanager
async def fuzz_router(num_shards=2, **router_kwargs):
    """``num_shards`` live primaries behind a router, for fault injection."""
    servers = [
        SketchServer(SketchStore(CONFIG)) for _ in range(num_shards)
    ]
    for server in servers:
        await server.start()
    router = ShardRouter(
        [[server.address] for server in servers], **router_kwargs
    )
    await router.start()
    try:
        yield router, servers
    finally:
        await router.stop()
        for server in servers:
            await server.stop()


class TestRouterProtocolFuzz:
    """Malformed frames through the router never wedge scatter-gather.

    The router shares the protocol shell with ``SketchServer``, but a
    wedge here would be worse — one stuck connection would starve every
    shard's gather — so the regressions are pinned against the router
    directly, with live shards behind it.
    """

    def test_garbage_frames_are_isolated_per_request(self):
        async def run():
            feed = synthetic_feed(
                120, num_keys=24, groups=("g1", "g2"), seed=31
            )
            baseline = SketchStore(CONFIG)
            baseline.ingest(feed)
            async with fuzz_router() as (router, _servers):
                host, port = router.address
                client = await ServingClient.connect(host, port)
                await client.ingest(feed)
                # Raw garbage, a non-object frame, and an unknown op on
                # a second connection: three error answers, no drop.
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"not json at all\n")
                writer.write(b'[{"op": "query"}]\n')
                writer.write(b'{"id": 9, "op": "warp_core_breach"}\n')
                await writer.drain()
                for _ in range(3):
                    response = json.loads(await reader.readline())
                    assert response["ok"] is False
                # Scatter-gather on the first connection is unharmed,
                # and still bit-identical to the unsharded store.
                for kind in ("sum", "distinct"):
                    routed = await client.query(kind)
                    assert routed["result"] == baseline.query(kind)
                    assert routed["watermark"] == 120
                writer.close()
                await writer.wait_closed()
                await client.close()

        asyncio.run(run())

    def test_oversized_frame_drops_only_its_connection(self):
        async def run():
            feed = synthetic_feed(80, num_keys=16, groups=("g1",), seed=32)
            async with fuzz_router(line_limit=4096) as (router, _servers):
                host, port = router.address
                client = await ServingClient.connect(host, port)
                # Batches sized to stay under the router's line limit.
                for start in range(0, len(feed), 10):
                    await client.ingest(feed[start : start + 10])
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b'{"id": 1, "op": "query", "pad": "' + b"y" * 8192
                )
                writer.write(b'"}\n')
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert "exceeds 4096 bytes" in response["error"]
                assert await reader.readline() == b""
                writer.close()
                await writer.wait_closed()
                # The routed path still answers at the full watermark.
                assert (await client.query("sum"))["watermark"] == 80
                snapshot = router.metrics.snapshot()
                assert (
                    snapshot["counters"][
                        'serving_errors_total{op="oversized"}'
                    ]
                    == 1
                )
                await client.close()

        asyncio.run(run())

    def test_malformed_query_fields_do_not_wedge_later_gathers(self):
        async def run():
            feed = synthetic_feed(60, num_keys=12, groups=("g1",), seed=33)
            async with fuzz_router() as (router, _servers):
                client = await ServingClient.connect(*router.address)
                await client.ingest(feed)
                # Field-level fuzz: wrong types and impossible values
                # must come back as per-request errors.
                for fields in (
                    {"kind": "sum", "until": "yesterday"},
                    {"kind": "similarity", "groups": ["g1"]},
                    {"kind": None},
                    {"kind": "sum", "groups": "g1"},
                ):
                    with pytest.raises(ServingError):
                        await client.request("query", **fields)
                assert (await client.query("sum"))["watermark"] == 60
                await client.close()

        asyncio.run(run())


class TestShardUnavailableRetry:
    """The client treats ``shard_unavailable`` like ``Overloaded``:
    idempotent operations back off and retry (the router may promote a
    fallback meanwhile); mutating ones surface :class:`ShardUnavailable`
    at once, because re-sending an ingest of unknown fate could
    double-apply."""

    @staticmethod
    async def flaky_router_stub(unavailable_responses):
        """A stub that answers ``shard_unavailable`` N times, then ok."""
        seen = []

        async def handler(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    return
                payload = json.loads(line)
                seen.append(payload["op"])
                if len(seen) <= unavailable_responses:
                    response = {
                        "id": payload["id"],
                        "ok": False,
                        "error": "shard 0 is unavailable",
                        "shard_unavailable": True,
                        "retry_after": 0.01,
                    }
                else:
                    response = {
                        "id": payload["id"],
                        "ok": True,
                        "result": {"g1": 1.0},
                        "watermark": 7,
                    }
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()

        server, host, port = await fake_server(handler)
        return server, host, port, seen

    def test_idempotent_op_retries_through_unavailability(self):
        async def run():
            server, host, port, seen = await self.flaky_router_stub(1)
            client = await ServingClient.connect(host, port, backoff=0.01)
            response = await client.query("sum")
            assert response["result"] == {"g1": 1.0}
            assert seen == ["query", "query"]
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_retries_exhaust_into_typed_error(self):
        async def run():
            server, host, port, seen = await self.flaky_router_stub(100)
            client = await ServingClient.connect(
                host, port, max_retries=2, backoff=0.01
            )
            with pytest.raises(ShardUnavailable) as excinfo:
                await client.query("sum")
            assert excinfo.value.retry_after == 0.01
            assert seen == ["query", "query", "query"]
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())

    def test_mutating_op_raises_immediately(self):
        async def run():
            server, host, port, seen = await self.flaky_router_stub(100)
            client = await ServingClient.connect(host, port, backoff=0.01)
            events = synthetic_feed(5, num_keys=2, groups=("g1",), seed=3)
            with pytest.raises(ShardUnavailable) as excinfo:
                await client.ingest(events)
            assert excinfo.value.retry_after == 0.01
            assert seen == ["ingest"]  # exactly one attempt, no re-send
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(run())
