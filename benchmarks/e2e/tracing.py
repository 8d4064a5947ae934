"""Span tracing of repro's layer entry points, installed from outside.

:func:`install` wraps the public entry point of every layer in place
(module functions are rebound wherever ``repro`` imported them, methods
are replaced on their class); nothing under ``src/`` changes.  A span
records its name, layer, start and end (``perf_counter_ns``), parent,
thread and the root span of the request or benchmark call it belongs
to.  The current span travels in a context variable, so asyncio tasks
interleaving on one event loop keep separate parent chains.

Spans stay in memory (:attr:`Tracer.spans`) and are written out once
with :meth:`Tracer.dump`.  :func:`analyze` turns them into per-layer
self times: a span's self time is its duration minus the part of it
that its children cover.

Record layout, one list per span:
``[sid, parent, name, layer, t0_ns, t1_ns, thread, root, attrs]``.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

#: The layers per-layer metrics are reported for (``src/repro`` modules).
LAYERS = ("core", "model", "gpusim", "kernels", "runtime", "serving")

SID, PARENT, NAME, LAYER, T0, T1, TID, ROOT, ATTRS = range(9)

#: ``(span id, root id)`` of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_span", default=None
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)

    def _open(self):
        sid = next(self._ids)
        cur = _CURRENT.get()
        parent, root = cur if cur is not None else (None, sid)
        return sid, parent, root, _CURRENT.set((sid, root))

    def _close(self, sid, parent, root, token, name, layer, t0, attrs) -> None:
        t1 = time.perf_counter_ns()
        _CURRENT.reset(token)
        self.spans.append(
            [sid, parent, name, layer, t0, t1, threading.get_ident(), root, attrs]
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        attrs_of: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``attrs_of(result)``
        annotates the span with facts about the returned value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, root, token = self._open()
            attrs = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(result)
                return result
            finally:
                self._close(sid, parent, root, token, name, layer, t0, attrs)

        return traced

    def wrap_async(
        self, fn: Callable, name: str, layer: str, attrs_of: Callable
    ) -> Callable:
        """Coroutine-function form of :meth:`wrap`; ``attrs_of`` sees
        the call's arguments (the span opens before the coroutine runs)."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid, parent, root, token = self._open()
            attrs = attrs_of(*args, **kwargs)
            t0 = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(sid, parent, root, token, name, layer, t0, attrs)

        return traced

    def span(self, name: str, layer: str = "bench"):
        """A span around a block (the benchmark's own calls into repro)."""
        return _Block(self, name, layer)

    def add(self, name, layer, t0, t1, parent, root, tid) -> None:
        """Record a span derived from timings the program reported."""
        self.spans.append(
            [next(self._ids), parent, name, layer, t0, t1, tid, root, None]
        )

    def dump(self, path, extra: Optional[dict] = None) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "extra": extra or {}}, f)


class _Block:
    __slots__ = ("tracer", "name", "layer", "state")

    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.state = self.tracer._open() + (time.perf_counter_ns(),)
        return self

    def __exit__(self, *exc) -> None:
        sid, parent, root, token, t0 = self.state
        self.tracer._close(sid, parent, root, token, self.name, self.layer, t0, None)


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (modules bind imported functions by name)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _plan_attrs(plan) -> dict:
    return {"schema": plan.schema.value, "candidates": plan.num_candidates}


def _msg_attrs(msg) -> dict:
    # The decoded request dict is the same object the dispatcher later
    # receives, so its identity links a frame's decode to its request.
    return {"msg": id(msg)}


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points with ``tracer`` spans."""
    import repro.kernels.codegen  # noqa: F401  (registers NestProgram)
    from repro.core import plan as plan_mod
    from repro.core.plan import TransposePlan
    from repro.gpusim.cost import CostModel
    from repro.kernels import executor as executor_mod
    from repro.kernels.executor import ExecutorProgram
    from repro.model.regression import FittedModel
    from repro.runtime.service import TransposeService
    from repro.serving import codec
    from repro.serving.admission import AdmissionController
    from repro.serving.ring import HashRing
    from repro.serving.server import ServingServer

    def method(cls, attr, name, layer, attrs_of=None):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, layer, attrs_of))

    def function(module, attr, name, layer, attrs_of=None):
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(original, name, layer, attrs_of))

    function(plan_mod, "make_plan", "core.make_plan", "core", _plan_attrs)
    method(FittedModel, "predict", "model.predict", "model")
    method(FittedModel, "predict_batch", "model.predict", "model")
    method(CostModel, "kernel_time", "gpusim.kernel_time", "gpusim")
    method(CostModel, "kernel_time_batch", "gpusim.kernel_time", "gpusim")
    method(TransposePlan, "simulated_time", "gpusim.simulated_time", "gpusim")
    method(TransposePlan, "executor", "kernels.executor", "kernels")
    function(
        executor_mod,
        "compile_executor",
        "kernels.compile",
        "kernels",
        lambda program: {"kind": program.kind},
    )
    for cls in set(_subclasses(ExecutorProgram)):
        if "run" in vars(cls):
            method(cls, "run", "kernels.run", "kernels")
    method(TransposeService, "plan", "runtime.plan", "runtime")
    TransposeService.submit = _traced_submit(tracer, TransposeService.submit)
    function(codec, "decode", "serving.decode", "serving", _msg_attrs)
    function(codec, "encode_parts", "serving.encode", "serving")
    method(AdmissionController, "try_admit", "serving.admit", "serving")
    method(HashRing, "route", "serving.route", "serving")
    ServingServer._dispatch = tracer.wrap_async(
        ServingServer._dispatch,
        "serving.dispatch",
        "serving",
        lambda server, msg, *rest: _msg_attrs(msg),
    )


def _traced_submit(tracer: Tracer, submit: Callable) -> Callable:
    """``TransposeService.submit`` plus the queue and execute spans of
    the job it enqueued, derived from the resolved
    :class:`~repro.runtime.scheduler.ExecutionReport` so no worker
    internals are patched.  Both are children of the caller's span;
    the execute span sits on the worker thread that resolved the
    future, where :func:`analyze` adopts that worker's own spans."""
    traced = tracer.wrap(submit, "runtime.submit", "runtime")

    @functools.wraps(submit)
    def wrapper(*args, **kwargs):
        cur = _CURRENT.get()
        parent, root = cur if cur is not None else (None, None)
        fut = traced(*args, **kwargs)

        def resolved(done) -> None:
            t_done = time.perf_counter_ns()
            if done.cancelled() or done.exception() is not None:
                return
            report = done.result()
            t_exec = t_done - int(report.wall_time_s * 1e9)
            tid = threading.get_ident()
            tracer.add("runtime.execute", "runtime", t_exec, t_done, parent, root, tid)
            tracer.add(
                "runtime.queue",
                "runtime",
                t_exec - int(report.queued_s * 1e9),
                t_exec,
                parent,
                root,
                tid,
            )

        fut.add_done_callback(resolved)
        return fut

    return wrapper


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def _covered(intervals: List[tuple], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: List[list]) -> Dict[int, int]:
    """Self time (ns) per span id: duration minus the union of its
    children's intervals, clipped to the span."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[T0], s[T1]))
    return {
        s[SID]: (s[T1] - s[T0]) - _covered(children.get(s[SID], []), s[T0], s[T1])
        for s in spans
    }


def adopt_worker_spans(spans: List[list]) -> int:
    """Parent orphan spans on scheduler worker threads under the derived
    ``runtime.execute`` span they ran inside; returns how many orphans
    found no such span."""
    executes: Dict[int, List[list]] = defaultdict(list)
    for s in spans:
        if s[NAME] == "runtime.execute":
            executes[s[TID]].append(s)
    starts = {}
    for tid, rows in executes.items():
        # A worker runs one job at a time, so its execute spans are
        # disjoint and the last one starting before a point holds it.
        rows.sort(key=lambda e: e[T0])
        starts[tid] = [e[T0] for e in rows]
    orphans = 0
    for s in spans:
        if (
            s[PARENT] is not None
            or s[TID] not in executes
            or s[LAYER] in ("serving", "bench")
        ):
            continue
        mid = (s[T0] + s[T1]) // 2
        i = bisect.bisect_right(starts[s[TID]], mid) - 1
        host = executes[s[TID]][i] if i >= 0 else None
        if host is None or mid > host[T1]:
            orphans += 1
            continue
        s[PARENT], s[ROOT] = host[SID], host[ROOT]
    return orphans


def _resolve_roots(spans: List[list], by_sid: Dict[int, list]) -> None:
    """Set every span's root from its (possibly adopted) parent chain."""
    root: Dict[int, int] = {}
    for s in spans:
        chain = []
        sid = s[SID]
        while sid not in root:
            chain.append(sid)
            parent = by_sid[sid][PARENT]
            if parent is None or parent not in by_sid:
                root[sid] = sid
                break
            sid = parent
        top = root[sid]
        for c in chain:
            root[c] = top
        s[ROOT] = top


def analyze(
    spans: List[list], roots: Iterable[str], window: Optional[tuple] = None
) -> dict:
    """Per-layer self time over the span trees rooted at ``roots`` that
    start inside ``window`` (``(t0_ns, t1_ns)``; default: any time).

    The traced wall time is the summed duration of those roots; a
    ``serving.dispatch`` root also counts the ``serving.decode`` of its
    frame, which ran before the request's task started.  Coverage is
    the share of that wall time the six layers' self times account for.
    The plans and compiled program kinds are listed over every span,
    set-up included.
    """
    roots = set(roots)
    lo, hi = window if window is not None else (-math.inf, math.inf)
    unlinked = adopt_worker_spans(spans)
    by_sid = {s[SID]: s for s in spans}
    _resolve_roots(spans, by_sid)
    start = {
        s[SID]: s[T0]
        for s in spans
        if s[PARENT] is None and s[NAME] in roots and lo <= s[T0] <= hi
    }

    # A frame's decode precedes its dispatch: pair each dispatch with
    # the latest earlier decode of the same message object.
    decodes: Dict[int, List[list]] = defaultdict(list)
    for s in spans:
        if s[NAME] == "serving.decode" and s[ATTRS]:
            decodes[s[ATTRS]["msg"]].append(s)
    for sid in start:
        s = by_sid[sid]
        if s[NAME] != "serving.dispatch":
            continue
        before = [d for d in decodes.get(s[ATTRS]["msg"], []) if d[T1] <= s[T0]]
        if before:
            frame = max(before, key=lambda d: d[T1])
            frame[ROOT] = sid
            start[sid] = frame[T0]

    counted = [s for s in spans if s[ROOT] in start]
    own = self_times(counted)
    wall = sum(by_sid[sid][T1] - t0 for sid, t0 in start.items())
    layer_ns = {layer: 0 for layer in LAYERS}
    names: Dict[str, dict] = defaultdict(
        lambda: {"count": 0, "self_ns": 0, "total_ns": 0}
    )
    for s in counted:
        if s[LAYER] in layer_ns:
            layer_ns[s[LAYER]] += own[s[SID]]
        row = names[s[NAME]]
        row["count"] += 1
        row["self_ns"] += own[s[SID]]
        row["total_ns"] += s[T1] - s[T0]
    return {
        "wall_ns": wall,
        "layer_self_ns": layer_ns,
        "coverage": sum(layer_ns.values()) / wall if wall else 0.0,
        "names": dict(names),
        "plans": [s[ATTRS] | {"ns": s[T1] - s[T0]} for s in spans
                  if s[NAME] == "core.make_plan" and s[ATTRS]],
        "kinds": [s[ATTRS]["kind"] for s in spans
                  if s[NAME] == "kernels.compile" and s[ATTRS]],
        "unlinked": unlinked,
        "roots": len(start),
    }
