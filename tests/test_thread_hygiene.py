"""No thread outlives the service or server that started it.

After :meth:`TransposeService.close`, and after a :class:`ServingServer`
drain and close, under batched and loop-nest traffic, the set of live
threads is the set from before.  The one allowed newcomer is the
process-wide ``repro-native-compile`` worker, which the native tier's
atexit handler reaps.
"""

import asyncio
import threading

import numpy as np

from repro.kernels.executor import clear_exec_caches
from repro.model.pretrained import oracle_predictor
from repro.runtime import TransposeService
from repro.serving import ServingClient, ServingServer

ORACLE = oracle_predictor()

#: A 2 MiB problem (lowers to a loop nest) and a small one (view chain),
#: paper convention.
NEST = ((64, 64, 64), (2, 1, 0))
VIEW = ((6, 5, 4), (2, 0, 1))

#: Process-wide threads a service may start but does not own.
ALLOWED = {"repro-native-compile"}


def _new_threads(before):
    return sorted(
        t.name
        for t in threading.enumerate()
        if t not in before and t.name not in ALLOWED
    )


def _payload(dims, seed):
    return np.random.default_rng(seed).standard_normal(int(np.prod(dims)))


def test_service_close_leaves_no_threads():
    clear_exec_caches()
    before = set(threading.enumerate())
    service = TransposeService(
        predictor=ORACLE, num_streams=3, batch_window_s=30.0, batch_max=4
    )
    for dims, perm in (NEST, VIEW):
        src = _payload(dims, 1)
        for _ in range(2):  # the second nest call queues its compile
            service.execute(dims, perm, payload=src).release()
        futs = [
            service.submit_batched(dims, perm, payload=src) for _ in range(4)
        ]
        assert all(f.result(timeout=60).batch == 4 for f in futs)
    # An open window: close flushes it and cancels its timer.
    open_window = service.submit_batched(*VIEW, payload=_payload(VIEW[0], 2))
    service.close()
    assert open_window.result(timeout=60).batch == 1
    assert _new_threads(before) == []
    clear_exec_caches()


def test_server_drain_and_close_leave_no_threads():
    clear_exec_caches()
    before = set(threading.enumerate())

    async def main():
        server = ServingServer(replicas=2, num_streams=2)
        await server.start()
        try:
            async with ServingClient(server.host, server.port) as client:
                for dims, perm in (NEST, VIEW):
                    src = _payload(dims, 3)
                    await client.execute(dims, perm, 8, payload=src)
                    replies = await asyncio.gather(
                        *(
                            client.execute_batched(dims, perm, 8, payload=src)
                            for _ in range(4)
                        )
                    )
                    assert len(replies) == 4
            assert await server.drain(timeout=60)
        finally:
            await server.close()

    asyncio.run(main())
    assert _new_threads(before) == []
    clear_exec_caches()
