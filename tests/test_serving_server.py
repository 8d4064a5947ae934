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
    ReproError,
)
from repro.kernels.executor import program_for
from repro.model.pretrained import oracle_predictor
from repro.runtime.service import TransposeService
from repro.serving import PROTOCOL_VERSION, ServingClient, ServingServer
from tests.helpers import frame_bytes, lowering_key, read_reply

ORACLE = oracle_predictor()

DIMS, PERM = (6, 5, 4), (2, 0, 1)


def _zeros(dims):
    return np.zeros(int(np.prod(dims)))


def run_serving(coro_fn, **server_kwargs):
    """Start a server, run ``coro_fn(server)``, always close cleanly."""

    async def main():
        kwargs = dict(num_streams=1)
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
            assert info == {"version": PROTOCOL_VERSION, "draining": False}

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
            assert "replica" not in result
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

    def test_stats_verb_snapshot(self):
        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                await client.execute(DIMS, PERM, 8, synth=True)
                snap = await client.stats()
            assert "per_replica" not in snap and "replicas" not in snap
            assert snap["counters"]["serving.replies"] == 1
            assert snap["admission"]["admitted"] == 1
            assert snap["queue_depth"] == 0 and snap["inflight"] == 0
            assert snap["executor"]["entries"] >= 1
            assert snap["runtime_counters"]["executions_submitted"] == 1

        run_serving(scenario)


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


class TestKernelFaults:
    @pytest.mark.parametrize(
        "verb, method", [("execute", "run"), ("batched", "run_batch")]
    )
    def test_raising_kernel_is_typed_and_leaks_nothing(self, verb, method):
        """A program whose move raises for one request: the client gets
        the typed ``INTERNAL`` error, the permit and every lease come
        back, the failure is counted, and the next request is served."""
        problem = lowering_key(DIMS, PERM)
        program = program_for(problem)[0]
        src = np.random.default_rng(5).standard_normal(np.prod(DIMS))
        expected = np.transpose(src.reshape(problem[0]), problem[1]).ravel()

        def boom(*args, **kwargs):
            raise RuntimeError("injected kernel fault")

        async def scenario(server):
            async with ServingClient(
                server.host, server.port, max_retries=0
            ) as client:
                send = (
                    client.execute if verb == "execute"
                    else client.execute_batched
                )
                counters = (await client.stats())["runtime_counters"]
                failed = counters.get("executions_failed", 0)
                setattr(program, method, boom)
                try:
                    with pytest.raises(ReproError) as info:
                        await send(DIMS, PERM, 8, payload=src)
                finally:
                    delattr(program, method)
                assert type(info.value) is ReproError
                assert info.value.code == "INTERNAL"
                counters = (await client.stats())["runtime_counters"]
                assert counters["executions_failed"] == failed + 1
                assert server.admission.idle
                assert server.arena.stats()["active_blocks"] == 0
                scheduler = server.service.scheduler
                assert scheduler.arena.stats()["active_blocks"] == 0
                result = await send(DIMS, PERM, 8, payload=src)
                np.testing.assert_array_equal(result["output"], expected)

        run_serving(scenario)


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
    def test_shared_store_warm_starts_a_restarted_server(self, tmp_path):
        """Executions plan nothing, so what a restarted server takes from
        the store is its directory of compiled nests (operands >= 1
        MiB): the second server loads the first one's objects instead of
        compiling again."""
        from repro.core.api import perm_to_axes
        from repro.kernels.codegen import codegen_stats, native_enabled
        from repro.kernels.executor import clear_exec_caches, program_for

        store_path = tmp_path / "plans.json"
        keys = [((64, 64, 32 + 8 * i), (2, 0, 1)) for i in range(4)]
        rng = np.random.default_rng(11)
        srcs = [rng.standard_normal(int(np.prod(dims))) for dims, _ in keys]

        async def scenario(server):
            async with ServingClient(server.host, server.port) as client:
                # The second call of a program starts its compile.
                for _ in range(2):
                    for (dims, perm), src in zip(keys, srcs):
                        reply = await client.execute(dims, perm, 8, payload=src)
                        ref = np.transpose(
                            src.reshape(dims[::-1]), perm_to_axes(perm)
                        ).reshape(-1)
                        np.testing.assert_array_equal(reply["output"], ref)
            for (dims, perm) in keys:
                problem = (dims[::-1], perm_to_axes(perm), 8)
                program, hit = program_for(problem)
                assert hit and program.kind == "nest"
                await asyncio.to_thread(program.wait_native, 120)

        run_serving(scenario, store_path=store_path)
        clear_exec_caches()  # a restart: no program or loaded object survives
        before = codegen_stats()
        run_serving(scenario, store_path=store_path)
        after = codegen_stats()
        if native_enabled():
            native_dir = tmp_path / "plans_native"
            assert len(list(native_dir.glob("*.so"))) == len(keys)
            assert after["native_compiled"] == before["native_compiled"]
            assert (
                after["native_so_cache_hits"]
                == before["native_so_cache_hits"] + len(keys)
            )

    def test_client_requires_connect(self):
        client = ServingClient("127.0.0.1", 1)

        async def poke():
            with pytest.raises(RuntimeError, match="not connected"):
                await client.request("ping")

        asyncio.run(poke())

    def test_client_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="pool_size"):
            ServingClient("127.0.0.1", 1, pool_size=0)


class TestServeCommand:
    def test_listen_surface(self, tmp_path):
        """``python -m repro serve --listen`` as the end-to-end benchmark
        drives it: the first stdout line carries the port in the shape
        its launcher parses, replies and ``stats`` carry the fields it
        reads, and ``--max-requests`` drains and exits 0."""
        import subprocess
        import sys

        from repro.core.api import perm_to_axes

        requests = [((6, 5, 4), (2, 0, 1)), ((16, 8, 4), (1, 2, 0))] * 2
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--listen", "127.0.0.1:0",
                # every execute, then stats and ping
                "--max-requests", str(len(requests) + 2),
                "--state-dir", str(tmp_path / "state"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            first = proc.stdout.readline()
            port = int(first.split(" on ")[1].split(":")[1])
            rng = np.random.default_rng(5)

            async def drive():
                async with ServingClient("127.0.0.1", port) as client:
                    for dims, perm in requests:
                        src = rng.standard_normal(int(np.prod(dims)))
                        reply = await client.execute(dims, perm, 8, payload=src)
                        ref = np.transpose(
                            src.reshape(dims[::-1]), perm_to_axes(perm)
                        ).reshape(-1)
                        np.testing.assert_array_equal(reply["output"], ref)
                        assert set(reply) == {
                            "wall_s", "queued_s", "stream", "parts", "batch",
                            "backend", "output",
                        }
                    snap = await client.stats()
                    await client.ping()
                return snap

            snap = asyncio.run(drive())
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert first.startswith("serving on 127.0.0.1:")
        assert "drained: clean" in out
        for key in ("counters", "admission", "arena", "runtime_counters"):
            assert isinstance(snap[key], dict), key
        assert snap["runtime_counters"]["executions_submitted"] == len(requests)
        assert snap["counters"]["serving.replies"] == len(requests)
