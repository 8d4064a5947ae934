"""Tests for the planner (repro.core.plan) and public API (core.api)."""

import asyncio
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.core.api import axes_to_perm, perm_to_axes
from repro.core.layout import TensorLayout
from repro.core.permutation import Permutation
from repro.core.plan import make_plan
from repro.core.taxonomy import Schema
from repro.errors import InvalidLayoutError, InvalidPermutationError
from repro.kernels.common import reference_transpose
from repro.model.pretrained import oracle_predictor

ORACLE = oracle_predictor()


def _raised(call):
    """The exception class ``call`` raises (None when it returns)."""
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


def _on_both_routes(call):
    """``call``'s exception class on the direct route and on the
    service route, as a pair."""
    from repro.runtime import TransposeService

    direct = _raised(call)
    service = TransposeService(predictor=ORACLE, num_streams=1)
    previous = repro.set_default_service(service)
    try:
        planned = _raised(call)
    finally:
        repro.set_default_service(previous)
        service.close()
    return direct, planned


#: Bad one-shot problems (NumPy convention) and what every door raises.
BAD_PROBLEMS = pytest.mark.parametrize(
    "shape, axes, dtype, expected",
    [
        ((2, 3, 4), (1, 0), np.float64, InvalidLayoutError),
        ((2, 3, 4), (0, 0, 1), np.float64, InvalidPermutationError),
        ((2, 3, 4), (0, 1, 3), np.float64, InvalidPermutationError),
        ((2, 3, 4), (0, 1, -1), np.float64, InvalidPermutationError),
        ((2, 0, 4), (2, 1, 0), np.float64, InvalidLayoutError),
        ((), (), np.float64, InvalidLayoutError),
        ((2, 3, 4), (2, 1, 0), np.int16, InvalidLayoutError),
    ],
    ids=[
        "wrong-length", "repeated-axis", "out-of-range-axis",
        "negative-axis", "zero-extent", "0-d", "int16",
    ],
)

#: The wire code each door error travels as.
WIRE_CODES = {
    InvalidLayoutError: "INVALID_LAYOUT",
    InvalidPermutationError: "INVALID_PERMUTATION",
}


def _service_door(dims, perm, eb, payload):
    """What ``submit`` and ``submit_batched`` raise, as a pair."""
    from repro.runtime import TransposeService

    with TransposeService(predictor=ORACLE, num_streams=1) as service:
        return (
            _raised(lambda: service.submit(dims, perm, eb, payload=payload)),
            _raised(
                lambda: service.submit_batched(dims, perm, eb, payload=payload)
            ),
        )


def _wire_door(dims, perm, eb, payload):
    """The client-side exception class and wire code of one
    ``execute`` against a live server."""
    from repro.serving import ServingClient, ServingServer

    async def main():
        server = ServingServer(num_streams=1)
        await server.start()
        try:
            async with ServingClient(server.host, server.port) as client:
                try:
                    await client.execute(dims, perm, eb, payload=payload)
                except Exception as exc:
                    return type(exc), getattr(exc, "code", None)
                return None, None
        finally:
            await server.close()

    return asyncio.run(main())


class TestMakePlan:
    @pytest.mark.parametrize(
        "dims,perm",
        [
            ((16,) * 6, (4, 1, 2, 5, 3, 0)),
            ((8, 2, 8, 8), (2, 1, 3, 0)),
            ((64, 8, 10, 6), (0, 3, 2, 1)),
            ((8, 12, 10, 6), (0, 2, 1, 3)),
            ((128, 128), (1, 0)),
            ((32, 32, 32), (0, 1, 2)),
            ((5, 7), (1, 0)),
            ((3, 3, 3, 3, 3, 3, 3), (6, 5, 4, 3, 2, 1, 0)),
        ],
    )
    def test_plans_and_executes_correctly(self, dims, perm, rng):
        plan = make_plan(dims, perm, predictor=ORACLE)
        layout, p = TensorLayout(dims), Permutation(perm)
        src = rng.standard_normal(layout.volume)
        np.testing.assert_array_equal(
            plan.execute(src), reference_transpose(src, layout, p)
        )

    def test_identity_uses_copy_kernel(self):
        plan = make_plan((16, 16, 16), (0, 1, 2), predictor=ORACLE)
        assert plan.schema is Schema.FVI_MATCH_LARGE

    def test_plan_time_positive_and_scales(self):
        p1 = make_plan((64, 8), (1, 0), predictor=ORACLE)
        assert p1.plan_time > 0
        assert p1.num_candidates >= 1

    def test_pretrained_predictor_default(self):
        plan = make_plan((16,) * 4, (3, 2, 1, 0))
        assert plan.predicted_time > 0

    def test_simulated_time_is_computed_once_per_device(self, monkeypatch):
        """A plan's simulated time is a pure function of its kernel and
        device, so repeated reads compute it once per device."""
        from repro.gpusim.cost import CostModel
        from repro.gpusim.spec import PASCAL_P100

        plan = make_plan((16, 12, 10), (2, 0, 1), predictor=ORACLE)
        calls = []
        original = CostModel.kernel_time

        def counting(self, *args, **kwargs):
            calls.append(self.spec.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CostModel, "kernel_time", counting)
        times = [plan.simulated_time() for _ in range(3)]
        times.append(plan.simulated_time(CostModel(plan.kernel.spec)))
        assert calls == [plan.kernel.spec.name]
        assert len(set(times)) == 1 and times[0] > 0
        plan.simulated_time(CostModel(PASCAL_P100))
        plan.simulated_time(CostModel(PASCAL_P100))
        assert calls == [plan.kernel.spec.name, PASCAL_P100.name]

    def test_model_choice_close_to_oracle(self):
        """The regression-driven choice must be within 25 % of the
        oracle-optimal simulated time (Fig. 5's 'choose the potential
        best slice variant')."""
        dims, perm = (27,) * 5, (4, 1, 2, 0, 3)
        t_model = make_plan(dims, perm).simulated_time()
        t_oracle = make_plan(dims, perm, predictor=ORACLE).simulated_time()
        assert t_model <= 1.25 * t_oracle

    def test_coarsening_consistent_with_kernel(self):
        """When the planner records a coarsening, the kernel must carry
        it; when the model rejects it, none is recorded."""
        plan = make_plan((16,) * 6, (4, 1, 2, 5, 3, 0), predictor=ORACLE)
        kernel_coarsen = getattr(plan.kernel, "coarsen", None)
        assert plan.coarsening == kernel_coarsen

    def test_coarsening_mechanism(self, rng):
        """Sec. IV-A applied explicitly: same traffic, fewer blocks,
        fewer mod/div special instructions, identical data movement."""
        from repro.core.layout import TensorLayout as TL
        from repro.kernels.orthogonal_arbitrary import (
            OrthogonalArbitraryKernel,
        )

        dims, perm = (16, 8, 16, 16, 16), (2, 1, 4, 3, 0)
        base = OrthogonalArbitraryKernel(
            TL(dims), Permutation(perm), 2, 1, 2, 1
        )
        outer = base.coverage.outer_dims()
        c_dim = outer[0]
        coarse = OrthogonalArbitraryKernel(
            TL(dims), Permutation(perm), 2, 1, 2, 1,
            coarsen=(c_dim, dims[c_dim]),
        )
        cb, cc = base.counters(), coarse.counters()
        assert cc.dram_tx == cb.dram_tx
        assert cc.special_ops < cb.special_ops
        assert (
            coarse.launch_geometry.num_blocks
            < base.launch_geometry.num_blocks
        )
        src = rng.standard_normal(base.volume)
        np.testing.assert_array_equal(coarse.execute(src), base.execute(src))

    def test_coarsening_invalid_dim_rejected(self):
        from repro.core.layout import TensorLayout as TL
        from repro.errors import SchemaError
        from repro.kernels.orthogonal_arbitrary import (
            OrthogonalArbitraryKernel,
        )

        with pytest.raises(SchemaError):
            OrthogonalArbitraryKernel(
                TL((16, 8, 16)), Permutation((2, 1, 0)), 1, 1, 1, 1,
                coarsen=(0, 4),  # dim 0 is inside the slice
            )

    def test_no_coarsening_small_tensor(self):
        plan = make_plan((8, 8, 8), (1, 2, 0), predictor=ORACLE)
        assert plan.coarsening is None

    def test_bandwidth_amortization(self):
        plan = make_plan((16,) * 6, (5, 4, 3, 2, 1, 0), predictor=ORACLE)
        bw1 = plan.bandwidth_gbps(repeats=1, include_plan=True)
        bw64 = plan.bandwidth_gbps(repeats=64, include_plan=True)
        bw_inf = plan.bandwidth_gbps(repeats=1, include_plan=False)
        assert bw1 < bw64 <= bw_inf * 1.001


class TestAxesConversion:
    @pytest.mark.parametrize(
        "axes", [(1, 0), (2, 0, 1), (0, 2, 1), (3, 1, 0, 2)]
    )
    def test_roundtrip(self, axes):
        assert perm_to_axes(axes_to_perm(axes)) == tuple(axes)

    def test_transpose_matches_numpy(self, rng):
        """The conversion must make repro.transpose == np.transpose."""
        a = rng.standard_normal((3, 4, 5, 2))
        for axes in [(2, 0, 3, 1), (3, 2, 1, 0), (0, 1, 2, 3)]:
            np.testing.assert_array_equal(
                repro.transpose(a, axes), np.transpose(a, axes)
            )


class TestPublicApi:
    def test_transpose_2d(self, rng):
        a = rng.standard_normal((40, 50))
        np.testing.assert_array_equal(repro.transpose(a, (1, 0)), a.T)

    def test_transpose_float32(self, rng):
        a = rng.standard_normal((6, 7, 8)).astype(np.float32)
        np.testing.assert_array_equal(
            repro.transpose(a, (1, 2, 0)), np.transpose(a, (1, 2, 0))
        )

    def test_transpose_rejects_unsupported_dtype(self):
        a = np.zeros((4, 4), dtype=np.int16)
        with pytest.raises(InvalidLayoutError):
            repro.transpose(a, (1, 0))

    def test_transpose_rejects_bad_axes(self):
        with pytest.raises(InvalidLayoutError):
            repro.transpose(np.zeros((4, 4)), (1, 0, 2))

    def test_transposer_repeated_use(self, rng):
        t = repro.Transposer((8, 9, 10), (2, 1, 0))
        src = rng.standard_normal(720)
        out1 = t(src)
        out2 = t(src)
        np.testing.assert_array_equal(out1, out2)
        assert t.calls == 2

    def test_result_never_aliases_input(self):
        """Identity and unit-axis moves leave the transposed view
        contiguous; the result must still be new memory on every
        route."""
        a = np.arange(12.0).reshape(4, 3)
        assert not np.shares_memory(repro.transpose(a, (0, 1)), a)
        row = np.ones((1, 5))
        moved = repro.transpose(row, (1, 0))
        assert moved.shape == (5, 1)
        assert not np.shares_memory(moved, row)
        flat = np.arange(12.0)
        t = repro.Transposer((4, 3), (0, 1))
        assert not np.shares_memory(t(flat), flat)
        assert not np.shares_memory(t.plan.execute(flat), flat)

    def test_transposer_estimate(self):
        t = repro.Transposer((16,) * 5, (4, 3, 2, 1, 0))
        est = t.estimate()
        assert est.kernel_time > 0
        assert est.plan_time > 0
        assert est.single_use_time == est.kernel_time + est.plan_time
        assert est.bandwidth_gbps > 0

    def test_predict_time_interface(self):
        est = repro.predict_time((16,) * 6, (5, 4, 3, 2, 1, 0))
        assert est.schema in tuple(Schema)
        assert est.num_candidates >= 1

    def test_predict_time_invalid_perm(self):
        with pytest.raises(InvalidPermutationError):
            repro.predict_time((4, 4), (0, 0))

    def test_dunder_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name)

    @BAD_PROBLEMS
    def test_validation_parity_across_routes(self, shape, axes, dtype, expected):
        """The execute-first route rejects exactly what planning
        through a service rejects, with the same exception class."""
        a = np.zeros(shape, dtype=dtype)
        for call in (
            lambda: repro.transpose(a, axes),
            lambda: repro.transpose_many([a, a], axes),
        ):
            direct, planned = _on_both_routes(call)
            assert direct is planned
            assert direct is not None and issubclass(direct, expected)

    @BAD_PROBLEMS
    @pytest.mark.parametrize("door", ["service", "wire", "transposer"])
    def test_validation_parity_at_every_door(
        self, door, shape, axes, dtype, expected
    ):
        """The service, the wire and ``Transposer`` check a problem with
        the door check ``repro.transpose`` runs, so each raises the
        same class for it (the wire as the matching code, never
        ``INTERNAL``), before anything is planned or enqueued."""
        a = np.zeros(shape, dtype=dtype)
        assert _raised(lambda: repro.transpose(a, axes)) is expected
        dims, perm = a.shape[::-1], axes_to_perm(axes)
        payload = a.reshape(-1)
        if door == "service":
            raised = _service_door(dims, perm, a.itemsize, payload)
            assert raised == (expected, expected)
        elif door == "wire":
            raised = _wire_door(dims, perm, a.itemsize, payload)
            assert raised == (expected, WIRE_CODES[expected])
        else:
            assert _raised(
                lambda: repro.Transposer(dims, perm, a.itemsize)
            ) is expected

    def test_one_shot_builds_no_plan_and_imports_no_runtime(self):
        """``repro.transpose`` executes first: no plan, no pretrained
        model, no compiled program, no thread, and neither scipy nor
        the runtime on the import path.  Run in a fresh interpreter so
        earlier tests' imports and threads cannot mask either."""
        script = textwrap.dedent(
            """
            import sys, threading
            import numpy as np
            import repro
            import repro.core.api, repro.core.lru, repro.core.plan
            import repro.kernels.executor
            import repro.model.pretrained

            def boom(*args, **kwargs):
                raise AssertionError("one-shot call planned or compiled")

            for mod, name in [
                (repro.core.plan, "make_plan"),
                (repro.core.api, "make_plan"),
                (repro.model.pretrained, "pretrained_predictor"),
                (repro.kernels.executor, "compile_executor"),
                (repro.core.lru.BoundedLRU, "get_or_build"),
                (repro.kernels.executor, "executor_for"),
            ]:
                setattr(mod, name, boom)

            threads = threading.active_count()
            a = np.arange(3 * 4 * 5 * 2, dtype=np.float32).reshape(3, 4, 5, 2)
            axes = (2, 0, 3, 1)
            ref = np.transpose(a, axes)
            assert np.array_equal(repro.transpose(a, axes), ref)
            out = np.empty(ref.shape, a.dtype)
            assert repro.transpose(a, axes, out=out) is out
            assert np.array_equal(out, ref)
            outs = repro.transpose_many([a, a + 1], axes)
            assert np.array_equal(outs[0], ref)
            assert np.array_equal(outs[1], np.transpose(a + 1, axes))
            assert threading.active_count() == threads
            assert "scipy" not in sys.modules
            assert "repro.runtime" not in sys.modules
            """
        )
        self._run_fresh(script)

    def test_serving_stack_imports_no_multiprocessing(self):
        """Execution stays in one process: neither the runtime, the
        network front end nor the CLI pulls in ``multiprocessing``."""
        self._run_fresh(
            "import sys\n"
            "import repro.runtime, repro.serving, repro.__main__\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.startswith('multiprocessing')]\n"
            "assert not loaded, loaded\n"
        )

    def test_planning_does_not_import_scipy(self):
        self._run_fresh(
            "import sys, repro\n"
            "repro.Transposer((32, 32, 64, 128), (3, 2, 1, 0))\n"
            "assert 'scipy' not in sys.modules\n"
        )

    @staticmethod
    def _run_fresh(script: str) -> None:
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr


class TestTransposeMany:
    def test_batch_matches_numpy(self, rng):
        import repro

        batch = [rng.standard_normal((3, 4, 5)) for _ in range(4)]
        outs = repro.transpose_many(batch, (1, 2, 0))
        for a, b in zip(batch, outs):
            np.testing.assert_array_equal(b, np.transpose(a, (1, 2, 0)))

    def test_empty_batch(self):
        import repro

        assert repro.transpose_many([], (1, 0)) == []

    def test_heterogeneous_batch_rejected(self, rng):
        import repro

        batch = [rng.standard_normal((3, 4)), rng.standard_normal((4, 3))]
        with pytest.raises(InvalidLayoutError):
            repro.transpose_many(batch, (1, 0))

    def test_dtype_mismatch_rejected(self, rng):
        import repro

        batch = [
            rng.standard_normal((3, 4)),
            rng.standard_normal((3, 4)).astype(np.float32),
        ]
        with pytest.raises(InvalidLayoutError):
            repro.transpose_many(batch, (1, 0))

    def test_axes_rank_mismatch(self, rng):
        import repro

        with pytest.raises(InvalidLayoutError):
            repro.transpose_many([rng.standard_normal((3, 4))], (1, 0, 2))


class TestOutValidation:
    """Every public ``out=`` fails fast with InvalidLayoutError —
    before any planning or execution — on a buffer that could not
    receive the result in place."""

    def test_transpose_out_happy_path(self, rng):
        a = rng.standard_normal((6, 7, 8))
        out = np.empty((7, 8, 6))
        result = repro.transpose(a, (1, 2, 0), out=out)
        assert result is out
        np.testing.assert_array_equal(out, np.transpose(a, (1, 2, 0)))

    def test_transpose_out_not_an_array(self, rng):
        a = rng.standard_normal((4, 4))
        with pytest.raises(InvalidLayoutError, match="numpy array"):
            repro.transpose(a, (1, 0), out=[0.0] * 16)

    def test_transpose_out_wrong_shape(self, rng):
        a = rng.standard_normal((4, 6))
        with pytest.raises(InvalidLayoutError, match="shape"):
            repro.transpose(a, (1, 0), out=np.empty((4, 6)))

    def test_transpose_out_wrong_dtype(self, rng):
        a = rng.standard_normal((4, 6))
        with pytest.raises(InvalidLayoutError, match="dtype"):
            repro.transpose(a, (1, 0), out=np.empty((6, 4), dtype=np.float32))

    def test_transpose_out_not_contiguous(self, rng):
        a = rng.standard_normal((8, 8))
        with pytest.raises(InvalidLayoutError, match="contiguous"):
            repro.transpose(a, (1, 0), out=np.empty((8, 16))[:, ::2])

    def test_transpose_out_read_only(self, rng):
        a = rng.standard_normal((4, 4))
        out = np.empty((4, 4))
        out.flags.writeable = False
        with pytest.raises(InvalidLayoutError, match="read-only"):
            repro.transpose(a, (1, 0), out=out)

    @pytest.mark.parametrize(
        "make_out",
        [
            lambda: [0.0] * 24,
            lambda: np.empty((2, 3, 4)),
            lambda: np.empty((4, 3, 2), dtype=np.float32),
            lambda: np.empty((4, 3, 4))[:, :, ::2],
            lambda: _read_only(np.empty((4, 3, 2))),
        ],
        ids=["list", "wrong-shape", "wrong-dtype", "strided", "read-only"],
    )
    def test_transpose_out_parity_across_routes(self, make_out):
        a = np.zeros((2, 3, 4))
        direct, planned = _on_both_routes(
            lambda: repro.transpose(a, (2, 1, 0), out=make_out())
        )
        assert direct is planned is InvalidLayoutError

    def test_transposer_out_happy_path(self, rng):
        t = repro.Transposer((8, 9, 10), (2, 1, 0))
        src = rng.standard_normal(720)
        out = np.empty(720)
        result = t(src, out=out)
        assert np.shares_memory(result, out)
        np.testing.assert_array_equal(out, t(src))

    def test_transposer_out_wrong_size(self, rng):
        t = repro.Transposer((8, 9, 10), (2, 1, 0))
        with pytest.raises(InvalidLayoutError, match="elements"):
            t(rng.standard_normal(720), out=np.empty(719))

    def test_transposer_out_wrong_dtype(self, rng):
        t = repro.Transposer((8, 9, 10), (2, 1, 0))
        with pytest.raises(InvalidLayoutError, match="dtype"):
            t(rng.standard_normal(720), out=np.empty(720, dtype=np.float32))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr
