"""Executor programs must survive a warm restart from the plan store.

A restarted process rebuilds programs from a plan content key via the
persistent store (``serialize_plan`` -> ``PlanStore`` ->
``rehydrate_plan`` -> ``compile_executor``).  Every program kind (view
/ nest) must round-trip bit-exactly against ``np.transpose``, with the
kind preserved.  The serialized
entry is plain data, so it also survives being pickled and rehydrated
without any store file.
"""

import pickle

import numpy as np
import pytest

from repro.core.plan import make_plan
from repro.kernels.common import reference_transpose
from tests.helpers import compile_for
from repro.runtime.store import (
    PlanStore,
    plan_key,
    rehydrate_plan,
    serialize_plan,
)

#: kind -> (dims, perm, program builder producing that kind).
KIND_CASES = {
    # Below 1 MiB every problem lowers to the view chain.
    "view": ((16, 16, 16, 4), (0, 3, 2, 1), compile_for),
    # From 1 MiB (here 4 MiB) every problem lowers to a loop nest.
    "nest": ((64, 32, 16, 16), (3, 2, 1, 0), compile_for),
}


def _case(kind):
    dims, perm, build = KIND_CASES[kind]
    plan = make_plan(dims, perm)
    program = build(plan.kernel)
    assert program.kind == kind, (
        f"case no longer compiles to a {kind} program (got {program.kind})"
    )
    src = np.random.default_rng(5).standard_normal(plan.layout.volume)
    ref = reference_transpose(src, plan.layout, plan.perm)
    return plan, program, build, src, ref


@pytest.mark.parametrize("kind", list(KIND_CASES))
class TestPerKind:
    def test_content_key_rehydration(self, kind, tmp_path):
        plan, program, build, src, ref = _case(kind)
        store = PlanStore(tmp_path / "plans.json")
        store.put(plan)
        store.flush()

        # A different handle on the same file: the restarted process.
        restarted = PlanStore(tmp_path / "plans.json")
        entry = restarted.entry(plan_key(plan))
        assert entry is not None
        rebuilt = rehydrate_plan(entry, plan.kernel.spec)
        assert rebuilt.schema == plan.schema
        clone = build(rebuilt.kernel)
        assert clone.kind == program.kind
        assert np.array_equal(clone.run(src), ref)

    def test_pipe_entry_rehydration(self, kind):
        """The store-less path: the serialized entry itself travels as a
        pickled dict and is rehydrated on arrival."""
        plan, program, build, src, ref = _case(kind)
        entry = pickle.loads(pickle.dumps(serialize_plan(plan)))
        rebuilt = rehydrate_plan(entry, plan.kernel.spec)
        clone = build(rebuilt.kernel)
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
