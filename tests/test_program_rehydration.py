"""Executor programs must survive a warm restart from the plan store.

A restarted process rebuilds programs from a plan content key via the
persistent store (``serialize_plan`` -> ``PlanStore`` ->
``rehydrate_plan`` -> ``compile_executor``).  Every program kind (view /
region / indexed / chunked / nest) must round-trip bit-exactly, with the
kind preserved.  The serialized entry is plain data, so it also
survives being pickled and rehydrated without any store file.
"""

import pickle

import numpy as np
import pytest

from repro.core.plan import make_plan
from repro.kernels.common import reference_transpose
from repro.kernels.executor import compile_executor
from repro.runtime.store import (
    PlanStore,
    plan_key,
    rehydrate_plan,
    serialize_plan,
)

#: kind -> (dims, perm, compile kwargs forcing that kind).
KIND_CASES = {
    "view": ((128, 64, 64, 4), (0, 3, 2, 1), {}),
    "region": ((27, 27, 27, 27), (2, 3, 0, 1), {}),
    "indexed": ((32, 32, 32, 32), (3, 0, 1, 2), {"lowering": False}),
    "chunked": (
        (32, 32, 32, 32),
        (3, 0, 1, 2),
        {"lowering": False, "max_index_bytes": 1 << 16},
    ),
    # Large enough (4 MiB) that the loop-nest search is profitable.
    "nest": (
        (64, 32, 16, 16),
        (3, 2, 1, 0),
        {"lowering": False, "codegen": True},
    ),
}


def _case(kind):
    dims, perm, opts = KIND_CASES[kind]
    plan = make_plan(dims, perm)
    program = compile_executor(plan.kernel, **opts)
    assert program.kind == kind, (
        f"case no longer compiles to a {kind} program (got {program.kind})"
    )
    src = np.random.default_rng(5).standard_normal(plan.layout.volume)
    ref = reference_transpose(src, plan.layout, plan.perm)
    return plan, program, opts, src, ref


@pytest.mark.parametrize("kind", list(KIND_CASES))
class TestPerKind:
    def test_content_key_rehydration(self, kind, tmp_path):
        plan, program, opts, src, ref = _case(kind)
        store = PlanStore(tmp_path / "plans.json")
        store.put(plan)
        store.flush()

        # A different handle on the same file: the restarted process.
        restarted = PlanStore(tmp_path / "plans.json")
        entry = restarted.entry(plan_key(plan))
        assert entry is not None
        rebuilt = rehydrate_plan(entry, plan.kernel.spec)
        assert rebuilt.schema == plan.schema
        clone = compile_executor(rebuilt.kernel, **opts)
        assert clone.kind == program.kind
        assert np.array_equal(clone.run(src), ref)

    def test_pipe_entry_rehydration(self, kind):
        """The store-less path: the serialized entry itself travels as a
        pickled dict and is rehydrated on arrival."""
        plan, program, opts, src, ref = _case(kind)
        entry = pickle.loads(pickle.dumps(serialize_plan(plan)))
        rebuilt = rehydrate_plan(entry, plan.kernel.spec)
        clone = compile_executor(rebuilt.kernel, **opts)
        assert clone.kind == program.kind
        assert np.array_equal(clone.run(src), ref)


def test_key_is_content_addressed():
    """Rebuilding the same problem yields the same key; a different
    problem does not collide."""
    a = make_plan((27, 27, 27, 27), (2, 3, 0, 1))
    b = make_plan((27, 27, 27, 27), (2, 3, 0, 1))
    c = make_plan((27, 27, 27, 27), (3, 0, 2, 1))
    assert plan_key(a) == plan_key(b)
    assert plan_key(a) != plan_key(c)
