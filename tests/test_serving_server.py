"""End-to-end serving tests: real sockets, one event loop per test.

No pytest-asyncio in the environment, so every test drives its own
``asyncio.run``.  The permit-leak oracle of ISSUE 6 runs after every
error path: ``server.admission.idle`` must hold once replies land.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
    ProtocolError,
    QuotaExceededError,
)
from repro.model.pretrained import oracle_predictor
from repro.runtime.service import TransposeService
from repro.runtime.store import content_key
from repro.serving import PROTOCOL_VERSION, ServingClient, ServingServer
from tests.helpers import frame_bytes, read_reply

ORACLE = oracle_predictor()

DIMS, PERM = (6, 5, 4), (2, 0, 1)


def _zeros(dims):
    return np.zeros(int(np.prod(dims)))


def run_serving(coro_fn, **server_kwargs):
    """Start a server, run ``coro_fn(server)``, always close cleanly."""

    async def main():
        kwargs = dict(replicas=2, num_streams=1)
        kwargs.update(server_kwargs)
        server = ServingServer(**kwargs)
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.close()

    return asyncio.run(main())


class TestHappyPath:
    def test_ping_reports_topology(self):
        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                info = await client.ping()
            assert info == {
                "version": PROTOCOL_VERSION, "replicas": 2, "draining": False
            }

        run_serving(scenario)

    def test_execute_parity_with_local_service(self):
        rng = np.random.default_rng(3)
        src = rng.standard_normal(np.prod(DIMS))
        with TransposeService(predictor=ORACLE, num_streams=1) as local:
            expected = local.execute(DIMS, PERM, payload=src).output

        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                result = await client.execute(DIMS, PERM, 8, payload=src)
            np.testing.assert_array_equal(result["output"], expected)
            assert result["replica"] in (0, 1)
            assert result["backend"]

        run_serving(scenario)

    def test_pipelined_requests_all_complete(self):
        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                results = await asyncio.gather(
                    *(
                        client.execute(
                            (4 + i % 3, 5, 3), (2, 0, 1), 8, synth=True
                        )
                        for i in range(24)
                    )
                )
            assert len(results) == 24
            assert all(r["wall_s"] > 0 for r in results)
            assert all("schema" not in r and "sim_s" not in r for r in results)
            assert server.admission.idle

        run_serving(scenario)

    def test_hash_routing_is_stable_and_matches_the_ring(self):
        problems = [((4 + i, 5, 3), (2, 0, 1)) for i in range(6)]

        async def scenario(server):
            seen = {}
            async with ServingClient(server.host, server.port) as client:
                for _ in range(3):
                    for dims, perm in problems:
                        r = await client.execute(dims, perm, 8, synth=True)
                        key = content_key(dims, perm, 8, server.spec)
                        expected = server.route_key(key)
                        assert r["replica"] == expected
                        seen.setdefault(key, set()).add(r["replica"])
            # one replica per key, always
            assert all(len(reps) == 1 for reps in seen.values())
            # with 6 keys both replicas should see traffic
            owners = {next(iter(reps)) for reps in seen.values()}
            assert owners == {0, 1}

        run_serving(scenario)

    def test_stats_verb_snapshot(self):
        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                await client.execute(DIMS, PERM, 8, synth=True)
                snap = await client.stats()
            assert snap["replicas"] == 2
            assert len(snap["per_replica"]) == 2
            assert snap["counters"]["serving.replies"] == 1
            assert snap["admission"]["admitted"] == 1

        run_serving(scenario)

    def test_private_program_caches_show_up_in_snapshot(self):
        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                for i in range(4):
                    await client.execute(
                        (4 + i, 3, 5), (2, 0, 1), 8, synth=True
                    )
                snap = await client.stats()
            stats = [rep["executor"] for rep in snap["per_replica"]]
            assert all(s is not None for s in stats)
            assert sum(s["entries"] for s in stats) >= 1
            assert sum(s["maxsize"] for s in stats) == 2 * 8

        run_serving(scenario, program_cache_size=8)


class TestErrors:
    def test_unknown_verb(self):
        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                with pytest.raises(ProtocolError) as err:
                    await client.request("frobnicate")
            assert err.value.code == "UNKNOWN_VERB"
            assert "frobnicate" in str(err.value)
            assert server.admission.idle

        run_serving(scenario)

    def test_bad_request_missing_problem(self):
        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                with pytest.raises(ProtocolError) as err:
                    await client.request("execute", synth=True)
            assert err.value.code == "BAD_REQUEST"
            assert server.admission.idle

        run_serving(scenario)

    def test_bad_problem_is_typed_before_anything_runs(self):
        """The door check runs before admission and before a synthetic
        operand exists: a negative extent used to reach the client as
        ``INTERNAL`` from the operand's generator."""

        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                for dims, perm, eb in [
                    ((4, -2, 3), (2, 1, 0), 8),
                    ((4, 0, 3), (2, 1, 0), 8),
                    ((4, 4), (0, 1, 2), 8),
                    ((4, 4), (1, 0), 2),
                ]:
                    with pytest.raises(Exception) as err:
                        await client.execute(dims, perm, eb, synth=True)
                    assert err.value.code == "INVALID_LAYOUT"
            assert server.admission.idle
            assert server.admission.stats()["admitted"] == 0

        run_serving(scenario)

    def test_execution_without_payload_is_bad_request(self):
        """Every execution moves data: with neither ``payload`` nor
        ``synth`` there is nothing to run, on every verb."""

        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                for verb in ("execute", "submit", "batched"):
                    with pytest.raises(ProtocolError) as err:
                        await client.request(
                            verb, dims=list(DIMS), perm=list(PERM)
                        )
                    assert err.value.code == "BAD_REQUEST"
                    assert "payload" in str(err.value)
            assert server.admission.idle
            assert server.serving_snapshot()["runtime_counters"].get(
                "executions_submitted", 0
            ) == 0

        run_serving(scenario)

    def test_invalid_permutation_is_typed(self):
        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                with pytest.raises(Exception) as err:
                    await client.request(
                        "execute", dims=[4, 4], perm=[0, 0], synth=True
                    )
            assert getattr(err.value, "code", None) in (
                "INVALID_PERMUTATION",
                "BAD_REQUEST",
            )
            assert server.admission.idle

        run_serving(scenario)

    def test_deadline_expired_is_typed_and_releases_permit(self):
        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                with pytest.raises(DeadlineExceededError):
                    await client.execute(
                        DIMS, PERM, 8, synth=True, deadline_ms=1e-6
                    )
            snap = server.serving_snapshot()
            assert snap["counters"]["serving.deadline_missed"] >= 1
            assert server.admission.idle

        run_serving(scenario)

    def test_frame_too_large_reply_then_hangup(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            # Declare a body far beyond the cap; never send it.
            writer.write((2**30).to_bytes(4, "big"))
            await writer.drain()
            reply = await read_reply(reader)
            assert reply["ok"] is False
            assert reply["error"] == "FRAME_TOO_LARGE"
            with pytest.raises(EOFError):
                await read_reply(reader)  # server hung up
            writer.close()
            assert server.admission.idle

        run_serving(scenario, max_frame_bytes=1 << 20)

    def test_mid_frame_disconnect_leaves_server_healthy(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            frame = frame_bytes({"op": "execute", "id": 1})
            writer.write(frame[: len(frame) - 3])  # truncated body
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # The server must shrug that off and keep serving.
            async with ServingClient(server.host, server.port) as client:
                info = await client.ping()
            assert info["version"] == PROTOCOL_VERSION
            assert server.admission.idle

        run_serving(scenario)

    def test_overloaded_sheds_then_retry_succeeds(self):
        async def scenario(server):
            async with ServingClient(
                server.host, server.port, pool_size=2, max_retries=0
            ) as raw:
                results = await asyncio.gather(
                    *(
                        raw.execute((16, 16, 8), (2, 0, 1), 8, synth=True)
                        for _ in range(12)
                    ),
                    return_exceptions=True,
                )
            oks = [r for r in results if isinstance(r, dict)]
            sheds = [r for r in results if isinstance(r, OverloadedError)]
            unexpected = [
                r
                for r in results
                if not isinstance(r, (dict, OverloadedError))
            ]
            assert not unexpected
            assert oks, "at least one request must be admitted"
            assert sheds, "max_inflight=1 must shed concurrent requests"
            assert server.admission.idle
            snap = server.serving_snapshot()
            assert snap["admission"]["shed_overloaded"] == len(sheds)

            # A retrying client turns sheds into eventual success.
            async with ServingClient(
                server.host, server.port, pool_size=2, max_retries=50
            ) as patient:
                results = await asyncio.gather(
                    *(
                        patient.execute(
                            (16, 16, 8), (2, 0, 1), 8, synth=True
                        )
                        for _ in range(12)
                    )
                )
                assert len(results) == 12
                assert patient.sheds_seen >= 1  # backoff actually engaged
            assert server.admission.idle

        run_serving(scenario, max_inflight=1)

    def test_tenant_quota_isolated_per_tenant(self):
        async def scenario(server):
            async with ServingClient(
                server.host, server.port, max_retries=0
            ) as client:
                await client.execute(DIMS, PERM, 8, synth=True, tenant="a")
                with pytest.raises(QuotaExceededError):
                    await client.execute(
                        DIMS, PERM, 8, synth=True, tenant="a"
                    )
                # tenant b has an untouched bucket
                await client.execute(DIMS, PERM, 8, synth=True, tenant="b")
            snap = server.serving_snapshot()
            assert snap["admission"]["shed_quota"] == 1
            assert snap["counters"]["serving.tenant.a.shed"] == 1
            assert server.admission.idle

        run_serving(scenario, tenant_rate=0.001, tenant_burst=1.0)


class TestDrain:
    def test_drain_flushes_inflight_and_refuses_new_work(self):
        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                tasks = [
                    asyncio.create_task(
                        client.execute((12, 10, 8), (2, 0, 1), 8, synth=True)
                    )
                    for _ in range(6)
                ]
                while server.admission.admitted < 6:
                    await asyncio.sleep(0.001)
                drain_reply = await client.drain()
                results = await asyncio.gather(*tasks)
                # zero dropped inflight: every admitted request replied
                assert len(results) == 6
                assert all(r["wall_s"] > 0 for r in results)
                assert drain_reply["drained"] is True
                assert drain_reply["snapshot"]["draining"] is True
                with pytest.raises(DrainingError):
                    await client.execute(DIMS, PERM, 8, synth=True)
            assert server.admission.idle
            assert server.draining

        run_serving(scenario)

    def test_concurrent_drain_requests_share_one_drain(self):
        async def scenario(server):
            async with ServingClient(
                server.host, server.port, pool_size=2
            ) as client:
                replies = await asyncio.gather(
                    client.drain(), client.drain()
                )
            assert all(r["drained"] for r in replies)
            assert server.serving_snapshot()["counters"][
                "serving.drains"
            ] == 1

        run_serving(scenario)


class TestServiceDrain:
    """The satellite: TransposeService.close() gains an orderly drain."""

    def test_drain_completes_submitted_work(self):
        service = TransposeService(predictor=ORACLE, num_streams=2)
        futs = [
            service.submit((4 + i, 3, 5), (2, 0, 1), payload=_zeros((4 + i, 3, 5)))
            for i in range(6)
        ]
        assert service.drain(timeout=30.0) is True
        assert all(f.done() for f in futs)
        for fut in futs:
            fut.result().release()
        service.close()

    def test_draining_service_refuses_new_submissions(self):
        service = TransposeService(predictor=ORACLE, num_streams=1)
        try:
            service.submit(DIMS, PERM, payload=_zeros(DIMS)).result(
                timeout=30
            ).release()
            assert service.drain(timeout=30.0) is True
            with pytest.raises(DrainingError):
                service.submit(DIMS, PERM, payload=_zeros(DIMS))
        finally:
            service.close()

    def test_close_after_drain_is_idempotent(self):
        service = TransposeService(predictor=ORACLE, num_streams=1)
        service.drain()
        service.close()
        service.close()  # second close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(DIMS, PERM)

    def test_inflight_gauge_tracks_submissions(self):
        with TransposeService(predictor=ORACLE, num_streams=1) as service:
            assert service.inflight == 0
            fut = service.submit(DIMS, PERM, payload=_zeros(DIMS))
            fut.result(timeout=30).release()
            for _ in range(200):
                if service.inflight == 0:
                    break
                import time

                time.sleep(0.005)
            assert service.inflight == 0


class TestConfiguration:
    def test_invalid_replicas_rejected(self):
        with pytest.raises(ValueError, match="replicas"):
            ServingServer(replicas=0)

    def test_shared_store_warm_starts_all_replicas(self, tmp_path):
        """Executions plan nothing, so what the replicas share through
        the store is the nest descriptors of operands >= 1 MiB: the
        second server's replicas lower from the first one's artifacts
        instead of searching again."""
        from repro.kernels.codegen import codegen_stats
        from repro.kernels.executor import clear_exec_caches

        store_path = tmp_path / "plans.json"
        keys = [((64, 64, 32 + 8 * i), (2, 0, 1)) for i in range(4)]

        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                for dims, perm in keys:
                    await client.execute(dims, perm, 8, synth=True)
                snap = await client.stats()
            assert snap["store"]["artifacts"] == len(keys)
            assert snap["store"]["entries"] == 0

        run_serving(scenario, store_path=store_path)
        assert store_path.exists()

        clear_exec_caches()  # a restart: no program survives in memory
        hits = codegen_stats()["artifact_hits"]
        run_serving(scenario, store_path=store_path)
        assert codegen_stats()["artifact_hits"] == hits + len(keys)

    def test_client_requires_connect(self):
        client = ServingClient("127.0.0.1", 1)

        async def poke():
            with pytest.raises(RuntimeError, match="not connected"):
                await client.request("ping")

        asyncio.run(poke())

    def test_client_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="pool_size"):
            ServingClient("127.0.0.1", 1, pool_size=0)
