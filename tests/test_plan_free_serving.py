"""No TTLG plan is built on the request path.

Execution depends only on ``(shape, axes, elem_bytes)``, so serving a
request lowers the problem and never calls
:func:`~repro.core.plan.make_plan`; a plan is built only when a caller
asks for one (``service.plan()``, ``Transposer.plan``/``schema``/
``simulated_time``/``estimate``, ``plan_transpose``, ``predict_time``).
"""

import asyncio
import sys
import threading

import numpy as np
import pytest

import repro
import repro.core.plan as plan_mod
from repro.core.api import axes_to_perm
from repro.serving import ServingClient, ServingServer


@pytest.fixture
def plan_threads(monkeypatch):
    """Names of the threads ``make_plan`` ran on, wherever it was
    imported from."""
    threads = []
    original = plan_mod.make_plan

    def recording(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if vars(module).get("make_plan") is original:
            monkeypatch.setattr(module, "make_plan", recording)
    return threads


def _case(rng, shape, axes):
    a = rng.standard_normal(shape)
    dims, perm = a.shape[::-1], axes_to_perm(axes)
    ref = np.ascontiguousarray(np.transpose(a, axes)).reshape(-1)
    return dims, perm, a.reshape(-1), ref


def test_serving_builds_no_plan(plan_threads):
    rng = np.random.default_rng(11)
    warm = [
        _case(rng, (4, 5, 6), (2, 0, 1)),
        _case(rng, (3, 4, 5, 6), (3, 1, 2, 0)),
        _case(rng, (16, 16), (1, 0)),
    ]
    never_seen = _case(rng, (7, 5, 9), (1, 2, 0))
    nest = _case(rng, (64, 64, 64), (2, 1, 0))  # 2 MiB of f64

    async def main():
        server = ServingServer(num_streams=2)
        await server.start()
        try:
            async with ServingClient(server.host, server.port) as client:
                replies = []
                for _ in range(2):
                    for dims, perm, payload, ref in warm:
                        replies.append(
                            (await client.execute(dims, perm, 8, payload), ref)
                        )
                for dims, perm, payload, ref in (never_seen, nest):
                    replies.append(
                        (await client.execute(dims, perm, 8, payload), ref)
                    )
                dims, perm, payload, ref = warm[0]
                replies.append(
                    (await client.execute_batched(dims, perm, 8, payload), ref)
                )
            return replies
        finally:
            await server.close()

    replies = asyncio.run(main())
    assert len(replies) == 9
    for reply, ref in replies:
        assert np.array_equal(reply["output"], ref)
    assert {r["backend"] for r, _ in replies} <= {"numpy", "c"}
    assert plan_threads == [], f"make_plan ran on {plan_threads}"


def test_transposer_plans_only_when_asked(plan_threads):
    dims, perm, src, ref = _case(
        np.random.default_rng(12), (10, 9, 8), (2, 1, 0)
    )
    t = repro.Transposer(dims, perm)
    out = np.empty_like(src)
    t(src, out=out)
    assert np.array_equal(out, ref)
    assert np.array_equal(t(src), ref)
    assert plan_threads == []
    schema = t.schema
    assert len(plan_threads) == 1
    assert t.schema is schema
    t.simulated_time()
    t.estimate()
    assert t.plan.schema is schema
    assert len(plan_threads) == 1
