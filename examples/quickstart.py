"""Quickstart: transpose tensors through TTLG and read the estimates.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro


def main() -> None:
    # ------------------------------------------------------------------
    # 1. NumPy-style one-shot transposition.
    # ------------------------------------------------------------------
    a = np.arange(4 * 5 * 6, dtype=np.float64).reshape(4, 5, 6)
    b = repro.transpose(a, (2, 0, 1))
    assert np.array_equal(b, np.transpose(a, (2, 0, 1)))
    print("transpose(4x5x6, axes=(2,0,1)) matches NumPy:", b.shape)

    # ------------------------------------------------------------------
    # 2. Paper-style planning: dims with dim 0 fastest, permutation
    #    p[i] = j meaning output dim i is input dim j.
    # ------------------------------------------------------------------
    dims, perm = (16, 16, 16, 16, 16, 16), (5, 4, 3, 2, 1, 0)
    plan = repro.plan_transpose(dims, perm)
    print(f"\nplanned {dims} perm {perm}:")
    print(f"  schema            : {plan.schema.value}")
    print(f"  fused rank        : {plan.fused.scaled_rank}")
    print(f"  candidates tried  : {plan.num_candidates}")
    print(f"  predicted time    : {plan.predicted_time * 1e3:.3f} ms")
    print(f"  simulated time    : {plan.simulated_time() * 1e3:.3f} ms")
    print(f"  bandwidth         : {plan.bandwidth_gbps():.1f} GB/s")

    # ------------------------------------------------------------------
    # 3. Repeated use: check once, execute many times (cuTT-plan style);
    #    the plan behind estimate() is built on its first read.
    # ------------------------------------------------------------------
    t = repro.Transposer((32, 8, 24), (2, 1, 0))
    src = np.random.default_rng(0).standard_normal(32 * 8 * 24)
    for _ in range(3):
        out = t(src)
    est = t.estimate()
    print(f"\nTransposer(32x8x24 reversal) after {t.calls} calls:")
    print(f"  kernel time       : {est.kernel_time * 1e6:.1f} us")
    print(f"  one-time plan cost: {est.plan_time * 1e6:.1f} us")

    # ------------------------------------------------------------------
    # 4. The queryable performance model (what a TTGT planner consumes).
    # ------------------------------------------------------------------
    est = repro.predict_time((64, 64, 64), (1, 2, 0))
    print(
        f"\npredict_time(64^3, (1,2,0)): {est.schema.value}, "
        f"{est.kernel_time * 1e6:.1f} us, {est.bandwidth_gbps:.1f} GB/s "
        f"(no data was moved)"
    )


if __name__ == "__main__":
    main()
