"""Persistent, versioned JSON plan store.

The paper's repeated-use win (Fig. 12) dies at process exit with a
purely in-memory cache.  This store keeps the *outcome* of planning —
the chosen kernel's constructor parameters plus the recorded search
costs — on disk, so a restarted process rehydrates plans in O(rank)
instead of re-running candidate enumeration and model selection (the
TTC ahead-of-time idea applied to TTLG plans).

Entries are keyed by :func:`~repro.core.cache.content_key` (dims,
perm, elem_bytes, device name, device content fingerprint) plus a
file-level ``store_version``.  A corrupt file is moved aside to
``<path>.corrupt`` and the store restarts empty; individually bad
entries are dropped and counted, never fatal.  Compiled C objects live
beside the file, in :func:`native_cache_dir`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from threading import Lock
from typing import Dict, Optional, Sequence, Union

from repro.core.cache import content_key, spec_fingerprint
from repro.core.fusion import fuse_indices
from repro.core.layout import TensorLayout
from repro.core.permutation import Permutation
from repro.core.plan import TransposePlan
from repro.core.taxonomy import Schema, select_schema
from repro.gpusim.spec import DeviceSpec
from repro.kernels.base import TransposeKernel
from repro.kernels.fvi_match_large import FviMatchLargeKernel
from repro.kernels.fvi_match_small import FviMatchSmallKernel
from repro.kernels.orthogonal_arbitrary import OrthogonalArbitraryKernel
from repro.kernels.orthogonal_distinct import OrthogonalDistinctKernel

STORE_VERSION = 1


def native_cache_dir(store_path: Union[str, Path]) -> Path:
    """The native compiled-object cache directory for a store path.

    The :mod:`repro.kernels.native` tier caches compiled shared objects
    *next to* the plan store (``plans.json`` → ``plans_native/``), so
    the warm-restart property extends to compiled kernels: a process
    reopening the same store path finds the same objects and runs zero
    compiles.  Derivation is a pure function of the path.
    """
    path = Path(store_path)
    return path.with_name(path.stem + "_native")


def _kernel_params(kernel: TransposeKernel) -> dict:
    """The schema-specific constructor parameters worth persisting."""
    schema = kernel.schema
    if schema is Schema.FVI_MATCH_LARGE:
        return {"chunk": kernel.chunk}
    if schema is Schema.FVI_MATCH_SMALL:
        return {"b": kernel.b}
    if schema is Schema.ORTHOGONAL_DISTINCT:
        return {
            "in_prefix": kernel.in_prefix,
            "blockA": kernel.blockA,
            "out_prefix": kernel.out_prefix,
            "blockB": kernel.blockB,
        }
    if schema is Schema.ORTHOGONAL_ARBITRARY:
        return {
            "in_prefix": kernel.in_prefix,
            "blockA": kernel.blockA,
            "out_prefix": kernel.out_prefix,
            "blockB": kernel.blockB,
            "pad": kernel.pad,
            "coarsen": list(kernel.coarsen) if kernel.coarsen else None,
        }
    raise ValueError(f"cannot persist a {schema.value} kernel")


def serialize_plan(plan: TransposePlan) -> dict:
    """A JSON-friendly record sufficient to rebuild ``plan`` cheaply."""
    return {
        "dims": list(plan.layout.dims),
        "perm": list(plan.perm.mapping),
        "elem_bytes": plan.elem_bytes,
        "spec_name": plan.kernel.spec.name,
        "spec_fingerprint": spec_fingerprint(plan.kernel.spec),
        "schema": plan.schema.value,
        "kernel_params": _kernel_params(plan.kernel),
        "predicted_time": plan.predicted_time,
        "num_candidates": plan.num_candidates,
        "coarsening": list(plan.coarsening) if plan.coarsening else None,
        "plan_time": plan.plan_time,
    }


def rehydrate_plan(entry: dict, spec: DeviceSpec) -> TransposePlan:
    """Rebuild a :class:`TransposePlan` from a store entry.

    Fusion and taxonomy are recomputed (both O(rank)); the kernel is
    constructed directly from the persisted parameters — no candidate
    enumeration, no predictor calls.  Raises on any mismatch or malformed
    entry; callers treat that as a miss.
    """
    if entry["spec_fingerprint"] != spec_fingerprint(spec):
        raise ValueError(
            f"entry was planned for {entry['spec_name']!r} "
            f"({entry['spec_fingerprint']}), not for {spec.name!r}"
        )
    dims = tuple(int(d) for d in entry["dims"])
    perm = tuple(int(p) for p in entry["perm"])
    elem_bytes = int(entry["elem_bytes"])
    layout = TensorLayout(dims)
    permutation = Permutation(perm)
    fused = fuse_indices(layout, permutation)
    decision = select_schema(fused.layout, fused.perm, warp_size=spec.warp_size)

    schema = Schema(entry["schema"])
    params = entry["kernel_params"]
    fl, fp = fused.layout, fused.perm
    if schema is Schema.FVI_MATCH_LARGE:
        kernel: TransposeKernel = FviMatchLargeKernel(
            fl, fp, elem_bytes, spec, chunk=int(params["chunk"])
        )
    elif schema is Schema.FVI_MATCH_SMALL:
        kernel = FviMatchSmallKernel(fl, fp, int(params["b"]), elem_bytes, spec)
    elif schema is Schema.ORTHOGONAL_DISTINCT:
        kernel = OrthogonalDistinctKernel(
            fl,
            fp,
            int(params["in_prefix"]),
            int(params["blockA"]),
            int(params["out_prefix"]),
            int(params["blockB"]),
            elem_bytes,
            spec,
        )
    elif schema is Schema.ORTHOGONAL_ARBITRARY:
        coarsen = params.get("coarsen")
        kernel = OrthogonalArbitraryKernel(
            fl,
            fp,
            in_prefix=int(params["in_prefix"]),
            blockA=int(params["blockA"]),
            out_prefix=int(params["out_prefix"]),
            blockB=int(params["blockB"]),
            elem_bytes=elem_bytes,
            spec=spec,
            pad=int(params["pad"]),
            coarsen=tuple(coarsen) if coarsen else None,
        )
    else:
        raise ValueError(f"cannot rehydrate a {schema.value} kernel")

    coarsening = entry.get("coarsening")
    return TransposePlan(
        layout=layout,
        perm=permutation,
        elem_bytes=elem_bytes,
        fused=fused,
        decision=decision,
        kernel=kernel,
        predicted_time=float(entry["predicted_time"]),
        num_candidates=int(entry["num_candidates"]),
        coarsening=tuple(coarsening) if coarsening else None,
        plan_time=float(entry["plan_time"]),
    )


class PlanStore:
    """JSON-on-disk plan store with atomic writes and corruption recovery.

    Parameters
    ----------
    path:
        The JSON file backing the store (created on first flush).
    autoflush:
        Write the file after every :meth:`put`.  Disable for bulk loads
        and call :meth:`flush` once at the end.
    """

    def __init__(self, path: Union[str, Path], autoflush: bool = True):
        self.path = Path(path)
        self.autoflush = autoflush
        self._lock = Lock()
        #: Serializes whole flushes (snapshot, write, rename), so a
        #: later flush always writes a snapshot at least as new.
        self._flush_lock = Lock()
        self._entries: Dict[str, dict] = {}
        #: Entries dropped during load because they were malformed.
        self.corrupt_entries = 0
        #: True when the whole file was unreadable and moved aside.
        self.recovered_from_corruption = False
        self._dirty = False
        self._load()

    # ---- persistence -------------------------------------------------
    def _quarantine(self) -> None:
        backup = self.path.with_suffix(self.path.suffix + ".corrupt")
        try:
            os.replace(self.path, backup)
        except OSError:
            pass
        self.recovered_from_corruption = True

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            payload = json.loads(self.path.read_text())
            if not isinstance(payload, dict):
                raise ValueError("store root must be an object")
        except (ValueError, OSError):
            self._quarantine()
            return
        if payload.get("store_version") != STORE_VERSION:
            # A future (or garbage) version: keep the file for inspection,
            # serve nothing from it, and only overwrite on flush.
            self._quarantine()
            return
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            self._quarantine()
            return
        # Other sections (older files carry the loop-nest descriptors
        # under "artifacts") are ignored, and dropped on the next flush.
        for key, entry in entries.items():
            if isinstance(entry, dict) and "schema" in entry:
                self._entries[key] = entry
            else:
                self.corrupt_entries += 1

    def flush(self) -> None:
        """Atomically persist the current entries (temp file + rename).

        A failed write leaves the store dirty, so :meth:`close` retries
        it, and leaves no temp file behind.
        """
        with self._flush_lock:
            with self._lock:
                payload = {
                    "store_version": STORE_VERSION,
                    "entries": dict(self._entries),
                }
                self._dirty = False
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
                os.replace(tmp, self.path)
            except BaseException:
                with self._lock:
                    self._dirty = True
                tmp.unlink(missing_ok=True)
                raise

    # ---- cache-facing interface -------------------------------------
    def get(
        self,
        dims: Sequence[int],
        perm: Sequence[int],
        elem_bytes: int,
        spec: DeviceSpec,
    ) -> Optional[TransposePlan]:
        """Rehydrate the stored plan for a key, or None.

        A malformed or mismatched entry is dropped from the store and
        reported as a miss — corruption never propagates to callers.
        """
        key = content_key(dims, perm, elem_bytes, spec)
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            return None
        try:
            return rehydrate_plan(entry, spec)
        except Exception:
            with self._lock:
                self._entries.pop(key, None)
                self.corrupt_entries += 1
                self._dirty = True
            return None

    def put(self, plan: TransposePlan) -> None:
        key = content_key(
            plan.layout.dims, plan.perm.mapping, plan.elem_bytes, plan.kernel.spec
        )
        entry = serialize_plan(plan)
        with self._lock:
            self._entries[key] = entry
            self._dirty = True
        if self.autoflush:
            self.flush()

    # ---- raw-entry interface -----------------------------------------
    def entry(self, key: str) -> Optional[dict]:
        """The raw serialized entry for a content key (no rehydration);
        :func:`rehydrate_plan` rebuilds it for any ``DeviceSpec``."""
        with self._lock:
            return self._entries.get(key)

    @property
    def native_dir(self) -> Path:
        """Where this store's native compiled objects live (see
        :func:`native_cache_dir`); the service hands it to its
        scheduler, which lowers programs against it."""
        return native_cache_dir(self.path)

    # ---- introspection ----------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self):
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._dirty = True

    def close(self) -> None:
        if self._dirty:
            self.flush()

    def describe(self) -> dict:
        with self._lock:
            native = self.native_dir
            return {
                "path": str(self.path),
                "entries": len(self._entries),
                "native_dir": str(native),
                "native_objects": (
                    len(list(native.glob("*.so"))) if native.is_dir() else 0
                ),
                "store_version": STORE_VERSION,
                "corrupt_entries_dropped": self.corrupt_entries,
                "recovered_from_corruption": self.recovered_from_corruption,
            }
