"""Native execution tier: C-emitted transpose kernels.

The codegen tier (:mod:`repro.kernels.codegen`) searches HPTT-style
block/loop-order configurations but lowers the winner to
``exec``-compiled Python slice nests, so every tile still pays one
interpreter dispatch and NumPy's strided-copy setup.  HPTT and TTC
show the same search pays off several-fold more when the winning nest
is emitted as *compiled C* with a contiguous-innermost micro-kernel.
This module is that lowering:

1. **Emission** (:func:`native_source`) — the searched descriptor
   (shape, axes, tiles, loop order, element width) is emitted as a
   self-contained C translation unit: the tile loops and element loops
   with every extent, block size, and stride baked in as constants,
   an innermost micro-kernel that is a ``memcpy`` when the transpose
   preserves the innermost axis and a cache-blocked 2-D transpose on
   the (input-fastest, output-fastest) plane otherwise, and a fused
   batch entry point striding whole operands.
2. **Toolchain** (:func:`detect_toolchain`) — the host C compiler is
   detected once per process, like
   :func:`~repro.kernels.codegen.detect_cache_budget` detects the
   cache budget: ``REPRO_CC``/``CC`` win verbatim when set (and are
   *not* second-guessed — ``CC=/bin/false`` deliberately disables the
   tier), otherwise ``cc``/``gcc``/``clang`` are probed on ``PATH``.
   The compiler's ``--version`` line is hashed into a fingerprint that
   keys the object cache, so a toolchain upgrade recompiles instead of
   reusing stale objects.
3. **Object cache** (:func:`ensure_compiled`) — sources compile
   out-of-band (``cc -O3 -shared -fPIC`` via subprocess) into a
   directory that lives next to the runtime's ``PlanStore``, named by
   source hash + compiler fingerprint.  An existing ``.so`` is a cache
   hit: warm restarts run **zero compiles**.
4. **Background attach** (:func:`attach_kernel`) — an object already on
   disk attaches at once; a missing one is compiled by one daemon
   compile thread at lowered CPU priority, and the caller gets the
   entry points through a callback when it lands, so no caller waits
   on a compiler.  At interpreter exit an in-flight compile is stopped
   (its process group killed, its temp files removed) and the
   per-process default object directory is deleted.
5. **Loading** (:func:`load_kernel`) — the shared object is loaded
   through :mod:`ctypes`; foreign calls through ``CDLL`` release the
   GIL for the **whole call**, not per tile, so the row ranges of a
   split nest batch scale on the thread pool with zero interpreter
   work inside.

Every failure mode — no toolchain, unsupported element width,
compile error, ``dlopen`` error — yields no entry points and the
caller (:class:`~repro.kernels.codegen.NestProgram`) keeps its Python
slice nest, bit-exactly.  Counters are reported through a hook
installed by :mod:`repro.kernels.codegen` so all codegen statistics
share one lock (see ``codegen_stats``).
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import math
import os
import queue
import shutil
import signal
import subprocess
import tempfile
import threading
from pathlib import Path
from threading import Lock
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Bumped when the emitted C changes shape: old shared objects are
#: never reused against sources they no longer match.
NATIVE_VERSION = 2

#: Element widths the emitter knows a C type for.  Anything else
#: (exotic void dtypes) declines and keeps the Python backend.
SUPPORTED_ELEM_BYTES = (1, 2, 4, 8, 16)

_C_TYPES = {1: "uint8_t", 2: "uint16_t", 4: "uint32_t", 8: "uint64_t"}

#: Compilers probed on PATH when no env override names one.
_CC_CANDIDATES = ("cc", "gcc", "clang")

#: Compile line; kept flag-stable so the source hash + compiler
#: fingerprint fully determine the object.
CFLAGS = ("-O3", "-shared", "-fPIC")

#: Seconds one out-of-band compile may take before it is declared
#: failed (a wedged compiler must not hang the serving path).
COMPILE_TIMEOUT_S = 60.0

#: One tile's (read, write) plane span below which the micro-kernel
#: keeps plain loops: the strided side stays cache-resident anyway, and
#: unblocked runs vectorize better than short blocked trip counts.
_RESIDENT_PLANE_BYTES = 32 * 1024


class NativeCompileError(RuntimeError):
    """The host toolchain rejected an emitted source."""


# ----------------------------------------------------------------------
# Counter hook (installed by repro.kernels.codegen so every codegen
# counter lives in one dict under one lock)
# ----------------------------------------------------------------------


def _noop_count(name: str, value=1) -> None:  # pragma: no cover - default
    return None


_COUNT = _noop_count


def set_counter(fn) -> None:
    """Route this module's counters through ``fn(name, value=1)``."""
    global _COUNT
    _COUNT = fn


# ----------------------------------------------------------------------
# Toolchain detection (resolved once, like detect_cache_budget)
# ----------------------------------------------------------------------

_UNRESOLVED = object()
_TOOLCHAIN = _UNRESOLVED
_TOOLCHAIN_LOCK = Lock()


def detect_toolchain(env=None) -> Optional[dict]:
    """Probe the host C compiler, or ``None`` when there isn't one.

    ``REPRO_CC`` (then ``CC``) wins verbatim when set and is the *only*
    candidate tried — an explicit ``CC=/bin/false`` must disable the
    tier, not silently fall through to a system ``cc``.  Otherwise
    ``cc``/``gcc``/``clang`` are probed on ``PATH``.  A candidate
    counts only if ``--version`` runs and exits 0; its first output
    line becomes the version string and, hashed with the resolved
    path, the object-cache ``fingerprint``.
    """
    env = os.environ if env is None else env
    override = env.get("REPRO_CC") or env.get("CC")
    names = [override] if override else list(_CC_CANDIDATES)
    for name in names:
        if not name:
            continue
        path = name if os.path.sep in name else shutil.which(name)
        if not path or not os.path.isfile(path):
            continue
        try:
            proc = subprocess.run(
                [path, "--version"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if proc.returncode != 0:
            continue
        version = proc.stdout.decode(errors="replace").splitlines()
        version = version[0].strip() if version else ""
        fingerprint = hashlib.sha1(
            (path + "\x00" + version + "\x00" + " ".join(CFLAGS)).encode()
        ).hexdigest()[:12]
        return {"path": path, "version": version, "fingerprint": fingerprint}
    return None


def toolchain() -> Optional[dict]:
    """The process-wide detected toolchain (probed once, then cached)."""
    global _TOOLCHAIN
    if _TOOLCHAIN is _UNRESOLVED:
        with _TOOLCHAIN_LOCK:
            if _TOOLCHAIN is _UNRESOLVED:
                _TOOLCHAIN = detect_toolchain()
    return _TOOLCHAIN  # type: ignore[return-value]


def reset_toolchain_cache() -> None:
    """Forget the cached probe (tests that monkeypatch ``CC``)."""
    global _TOOLCHAIN
    with _TOOLCHAIN_LOCK:
        _TOOLCHAIN = _UNRESOLVED


def compiler_info() -> dict:
    """Toolchain summary for stats tables and benchmark env stamps."""
    tc = toolchain()
    if tc is None:
        return {"available": False, "path": None, "version": None,
                "fingerprint": None}
    return {"available": True, **tc}


# ----------------------------------------------------------------------
# Object cache directory
# ----------------------------------------------------------------------

_DEFAULT_DIR: Optional[Path] = None
_DEFAULT_DIR_PID: Optional[int] = None
_DEFAULT_DIR_LOCK = Lock()


def default_cache_dir() -> Path:
    """The object-cache directory used when the caller pins none.

    ``REPRO_NATIVE_CACHE_DIR`` wins; else a per-process tempdir (still
    correct — just no cross-restart reuse), removed at interpreter exit.
    """
    override = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if override:
        return Path(override)
    global _DEFAULT_DIR, _DEFAULT_DIR_PID
    with _DEFAULT_DIR_LOCK:
        if _DEFAULT_DIR is None:
            _DEFAULT_DIR = Path(tempfile.mkdtemp(prefix="repro-native-"))
            _DEFAULT_DIR_PID = os.getpid()
        return _DEFAULT_DIR


# ----------------------------------------------------------------------
# C source emission
# ----------------------------------------------------------------------


def _strides_of(shape: Sequence[int]) -> List[int]:
    strides = [0] * len(shape)
    s = 1
    for a in range(len(shape) - 1, -1, -1):
        strides[a] = s
        s *= int(shape[a])
    return strides


def native_source(
    in_shape: Sequence[int],
    axes: Sequence[int],
    tiles: Sequence[int],
    order: Sequence[int],
    elem_bytes: int,
) -> str:
    """The C translation unit for one searched nest configuration.

    Exports two entry points (default visibility, loaded by ctypes)::

        void repro_nest(const void *src, void *dst,
                        int64_t lo, int64_t hi);
        void repro_nest_batch(const void *src, void *dst,
                              int64_t nbatch, int64_t lo, int64_t hi);

    ``src`` is the flat C-contiguous input, ``dst`` the flat output;
    ``lo:hi`` bounds output axis 0 (:class:`~repro.kernels.codegen
    .NestProgram` passes the whole ``0:extent`` range); the batch entry
    strides whole ``volume``-element operands for ``run_batch``.
    The tile loops and loop order mirror the Python nest exactly;
    inside a tile, element loops cover the remaining output axes and
    the innermost work is a single ``memcpy`` when the transpose
    preserves the input's fastest axis (both sides contiguous), or a
    cache-blocked 2-D transpose on the (input-fastest, output-fastest)
    axis plane otherwise — contiguous reads along one block edge,
    contiguous writes along the other, with both blocks' cache lines
    reused instead of streamed.
    """
    nd = len(in_shape)
    if nd == 0:
        raise ValueError("cannot emit a rank-0 nest")
    eb = int(elem_bytes)
    out_shape = [int(in_shape[a]) for a in axes]
    tiles = [min(int(t), e) for t, e in zip(tiles, out_shape)]
    src_strides = _strides_of(in_shape)
    out_strides = _strides_of(out_shape)
    moved = [src_strides[axes[k]] for k in range(nd)]
    volume = math.prod(int(d) for d in in_shape)

    lines = [
        "#include <stdint.h>",
        "#include <string.h>",
        "",
    ]
    if eb == 16:
        lines.append("typedef struct { uint64_t w0, w1; } elem_t;")
    else:
        lines.append(f"typedef {_C_TYPES[eb]} elem_t;")
    lines += [
        "",
        "static void nest_rows(const elem_t * restrict src,"
        " elem_t * restrict dst, int64_t lo, int64_t hi) {",
    ]

    pad = "    "
    depth = 1
    closes = 0
    bounds: Dict[int, Tuple[str, str]] = {}
    looped = [a for a in order if a == 0 or tiles[a] < out_shape[a]]
    if 0 not in looped:
        looped = [0] + looped
    for a in looped:
        start, stop = ("lo", "hi") if a == 0 else ("0", str(out_shape[a]))
        lines.append(
            f"{pad * depth}for (int64_t i{a} = {start}; i{a} < {stop};"
            f" i{a} += {tiles[a]}) {{"
        )
        depth += 1
        closes += 1
        lines.append(
            f"{pad * depth}int64_t u{a} = i{a} + {tiles[a]} < {stop}"
            f" ? i{a} + {tiles[a]} : {stop};"
        )
        bounds[a] = (f"i{a}", f"u{a}")
    if 0 not in bounds:
        bounds[0] = ("lo", "hi")

    n1 = nd - 1
    m1 = moved[n1]
    # Position (in output axes) of the input's fastest axis: the one
    # output axis whose reads are contiguous.  When it IS the innermost
    # output axis, both sides of the innermost run are contiguous.
    k0 = list(axes).index(nd - 1)
    elem_axes = [a for a in range(nd - 1) if m1 == 1 or a != k0]
    for a in elem_axes:
        lo_e, hi_e = bounds.get(a, ("0", str(out_shape[a])))
        lines.append(
            f"{pad * depth}for (int64_t x{a} = {lo_e}; x{a} < {hi_e};"
            f" ++x{a}) {{"
        )
        depth += 1
        closes += 1

    souter = "".join(f" + x{a} * {moved[a]}" for a in elem_axes)
    douter = "".join(f" + x{a} * {out_strides[a]}" for a in elem_axes)
    start, stop = bounds.get(n1, ("0", str(out_shape[n1])))
    if m1 == 1:
        # The transpose preserves the input's fastest axis: both sides
        # of the innermost run are contiguous — straight memcpy.
        lines.append(
            f"{pad * depth}const elem_t * restrict s ="
            f" src + {start}{souter};"
        )
        lines.append(
            f"{pad * depth}elem_t * restrict d = dst + {start}{douter};"
        )
        lines.append(
            f"{pad * depth}memcpy(d, s,"
            f" (size_t)({stop} - {start}) * sizeof(elem_t));"
        )
    else:
        # Contiguous-innermost micro-kernel: a 2-D transpose on the
        # (k0, innermost) plane.  Reads are contiguous along j (the
        # input's fastest axis), writes contiguous along x (the
        # output's fastest axis).  When one tile's plane exceeds the
        # cache-resident span, both loops are blocked so each block's
        # read and write lines stay resident while they are reused,
        # instead of streaming one strided side line-by-line; a
        # resident plane keeps plain loops (longer vectorizable runs,
        # no blocking overhead).
        dj = out_strides[k0]
        j_lo, j_hi = bounds.get(k0, ("0", str(out_shape[k0])))
        j_ext = min(tiles[k0], out_shape[k0])
        x_ext = min(tiles[n1], out_shape[n1])
        span = ((j_ext - 1) + (x_ext - 1) * m1 + 1) * eb
        span_w = ((j_ext - 1) * dj + (x_ext - 1) + 1) * eb
        lines.append(
            f"{pad * depth}const elem_t * restrict s = src{souter};"
        )
        lines.append(f"{pad * depth}elem_t * restrict d = dst{douter};")
        if max(span, span_w) <= _RESIDENT_PLANE_BYTES:
            lines.append(
                f"{pad * depth}for (int64_t j = {j_lo}; j < {j_hi};"
                f" ++j) {{"
            )
            lines.append(
                f"{pad * (depth + 1)}const elem_t * restrict ss = s + j;"
            )
            lines.append(
                f"{pad * (depth + 1)}elem_t * restrict dd = d + j * {dj};"
            )
            lines.append(
                f"{pad * (depth + 1)}for (int64_t x = {start}; x < {stop};"
                f" ++x) {{ dd[x] = ss[x * {m1}]; }}"
            )
            lines.append(f"{pad * depth}}}")
        else:
            block = min(64, max(8, 256 // eb))
            lines.append(
                f"{pad * depth}for (int64_t jb = {j_lo}; jb < {j_hi};"
                f" jb += {block}) {{"
            )
            lines.append(
                f"{pad * (depth + 1)}int64_t je = jb + {block} < {j_hi}"
                f" ? jb + {block} : {j_hi};"
            )
            lines.append(
                f"{pad * (depth + 1)}for (int64_t xb = {start};"
                f" xb < {stop}; xb += {block}) {{"
            )
            lines.append(
                f"{pad * (depth + 2)}int64_t xe = xb + {block} < {stop}"
                f" ? xb + {block} : {stop};"
            )
            lines.append(
                f"{pad * (depth + 2)}for (int64_t j = jb; j < je; ++j) {{"
            )
            lines.append(
                f"{pad * (depth + 3)}const elem_t * restrict ss = s + j;"
            )
            lines.append(
                f"{pad * (depth + 3)}elem_t * restrict dd ="
                f" d + j * {dj};"
            )
            lines.append(
                f"{pad * (depth + 3)}for (int64_t x = xb; x < xe; ++x) {{"
                f" dd[x] = ss[x * {m1}]; }}"
            )
            lines.append(f"{pad * (depth + 2)}}}")
            lines.append(f"{pad * (depth + 1)}}}")
            lines.append(f"{pad * depth}}}")
    for _ in range(closes):
        depth -= 1
        lines.append(f"{pad * depth}}}")
    lines += [
        "}",
        "",
        "void repro_nest(const void *src, void *dst,"
        " int64_t lo, int64_t hi) {",
        "    nest_rows((const elem_t *)src, (elem_t *)dst, lo, hi);",
        "}",
        "",
        "void repro_nest_batch(const void *src, void *dst,"
        " int64_t nbatch, int64_t lo, int64_t hi) {",
        "    const elem_t *s = (const elem_t *)src;",
        "    elem_t *d = (elem_t *)dst;",
        "    for (int64_t b = 0; b < nbatch; ++b) {",
        f"        nest_rows(s + b * INT64_C({volume}),"
        f" d + b * INT64_C({volume}), lo, hi);",
        "    }",
        "}",
    ]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Out-of-band compilation + the on-disk object cache
# ----------------------------------------------------------------------


def object_name(c_source: str, fingerprint: str) -> str:
    """Cache filename of one (source, compiler) pair."""
    sha = hashlib.sha1(c_source.encode()).hexdigest()
    return f"nest{NATIVE_VERSION}-{sha[:16]}-{fingerprint}.so"


#: Serializes in-process compiles: the temp names are unique per PID,
#: so two *threads* of one process would otherwise share them — the
#: loser's rename fails and the winner's published object can still be
#: written through the loser's open fd.
_COMPILE_LOCK = Lock()

#: Running compiler processes and their temp objects, so interpreter
#: exit can stop them (:func:`_shutdown`).  ``_STOPPING`` refuses new
#: compiles once exit has begun.
_INFLIGHT: Dict[subprocess.Popen, Path] = {}
_INFLIGHT_LOCK = Lock()
_STOPPING = False


def ensure_compiled(c_source: str, cache_dir: Path, tc: dict) -> Path:
    """The compiled shared object for ``c_source``, compiling on miss.

    An existing object under the source-hash + compiler-fingerprint
    name is returned untouched (counted as ``native_so_cache_hits`` —
    this is the zero-compile warm-restart path).  On a miss the source
    is written next to the object for debuggability and compiled with
    :data:`CFLAGS` into a unique temp name, then atomically renamed in,
    so concurrent compilers of the same source converge on one object:
    threads serialize on :data:`_COMPILE_LOCK` (re-checking the cache
    once inside it), processes on the PID-unique temp + rename.
    Raises :class:`NativeCompileError` on any toolchain failure.
    """
    cache_dir = Path(cache_dir)
    so_path = cache_dir / object_name(c_source, tc["fingerprint"])
    if so_path.is_file():
        _COUNT("native_so_cache_hits")
        return so_path
    with _COMPILE_LOCK:
        if so_path.is_file():
            _COUNT("native_so_cache_hits")
            return so_path
        _compile(c_source, cache_dir, so_path, tc)
    _COUNT("native_compiled")
    return so_path


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop a compiler and everything it spawned (its own session)."""
    for sig, wait_s in ((signal.SIGTERM, 1.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(proc.pid, sig)
        except OSError:
            pass
        try:
            proc.wait(timeout=wait_s)
            return
        except subprocess.TimeoutExpired:
            continue


def _compile(c_source: str, cache_dir: Path, so_path: Path, tc: dict):
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        c_path = so_path.with_suffix(".c")
        tmp_c = c_path.with_name(c_path.name + f".{os.getpid()}.tmp")
        tmp_c.write_text(c_source)
        os.replace(tmp_c, c_path)
        tmp_so = so_path.with_name(so_path.name + f".{os.getpid()}.tmp")
        with _INFLIGHT_LOCK:
            if _STOPPING:
                raise NativeCompileError("interpreter is exiting")
            # A session of its own, so exit can kill the compiler's
            # children (cc1, as, ld) along with it.
            proc = subprocess.Popen(
                [tc["path"], *CFLAGS, "-o", str(tmp_so), str(c_path)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
            _INFLIGHT[proc] = tmp_so
        try:
            _, err = proc.communicate(timeout=COMPILE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            err = b"compile timed out"
        finally:
            with _INFLIGHT_LOCK:
                _INFLIGHT.pop(proc, None)
                stopping = _STOPPING
        if proc.returncode != 0 or stopping:
            tmp_so.unlink(missing_ok=True)
            raise NativeCompileError(err.decode(errors="replace")[:2000])
        os.replace(tmp_so, so_path)
    except NativeCompileError:
        raise
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeCompileError(str(exc)) from exc


# One CDLL handle per object path: dlopen is cheap but not free, and
# every NestProgram of one geometry shares the same object.
_LOADED: Dict[str, Tuple] = {}
_LOADED_LOCK = Lock()


def load_kernel(so_path) -> Tuple:
    """``(fn, batch_fn)`` ctypes entry points of one compiled object.

    ``CDLL`` (not ``PyDLL``) releases the GIL around every foreign
    call — the whole nest runs GIL-free.  Raises ``OSError`` when the
    object cannot be loaded or lacks the expected symbols.
    """
    key = str(so_path)
    with _LOADED_LOCK:
        hit = _LOADED.get(key)
        if hit is not None:
            return hit
    lib = ctypes.CDLL(key)
    try:
        fn = lib.repro_nest
        batch_fn = lib.repro_nest_batch
    except AttributeError as exc:  # pragma: no cover - corrupt object
        raise OSError(f"missing nest symbols in {key}") from exc
    fn.restype = None
    fn.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
    ]
    batch_fn.restype = None
    batch_fn.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
    ]
    with _LOADED_LOCK:
        _LOADED[key] = (fn, batch_fn)
    return fn, batch_fn


def clear_loaded_cache() -> None:
    """Drop the in-memory dlopen handles (cold-start benchmark
    conditions; the on-disk object cache is deliberately kept)."""
    with _LOADED_LOCK:
        _LOADED.clear()


def _compiled_kit(source: str, directory: Path, tc: dict) -> Optional[Tuple]:
    """Compile (or reuse) and load one source; ``None`` on failure,
    counted per cause."""
    try:
        so_path = ensure_compiled(source, directory, tc)
    except NativeCompileError:
        if not _STOPPING:
            _COUNT("native_compile_failures")
        return None
    try:
        return load_kernel(so_path)
    except OSError:
        _COUNT("native_load_failures")
        return None


# ----------------------------------------------------------------------
# The background compile thread
# ----------------------------------------------------------------------

_JOBS: "queue.Queue" = queue.Queue()
#: Object path -> callbacks waiting on that object, so several programs
#: of one geometry share a single compile.
_WAITING: Dict[Path, List[Callable]] = {}
_WORKER: Optional[threading.Thread] = None
_WORKER_LOCK = Lock()


def _compile_worker() -> None:
    try:
        # A compile shares the host with the calls it will speed up, so
        # it runs at nice +10; Linux nice values are per thread and
        # inherited by the compiler this thread forks.
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 10)
    except (AttributeError, OSError):
        pass
    while True:
        job = _JOBS.get()
        if job is None or _STOPPING:
            return
        source, directory, tc, so_path = job
        kit = _compiled_kit(source, directory, tc)
        with _WORKER_LOCK:
            callbacks = _WAITING.pop(so_path, [])
        for on_ready in callbacks:
            on_ready(kit)


def _submit(source: str, directory: Path, tc: dict, so_path: Path,
            on_ready: Callable) -> None:
    global _WORKER
    with _WORKER_LOCK:
        waiting = _WAITING.get(so_path)
        if waiting is not None:
            waiting.append(on_ready)
            return
        _WAITING[so_path] = [on_ready]
        if _WORKER is None:
            _WORKER = threading.Thread(
                target=_compile_worker, name="repro-native-compile",
                daemon=True,
            )
            _WORKER.start()
    _JOBS.put((source, directory, tc, so_path))


def attach_kernel(
    in_shape: Sequence[int],
    axes: Sequence[int],
    tiles: Sequence[int],
    order: Sequence[int],
    elem_bytes: int,
    on_ready: Callable[[Optional[Tuple]], None],
    cache_dir=None,
    background: bool = False,
) -> Optional[Callable[[], None]]:
    """Hand ``(fn, batch_fn)`` for one configuration to ``on_ready``.

    ``on_ready(None)`` — counted per cause — means the caller keeps the
    Python slice nest: no toolchain (``native_toolchain_missing``),
    unsupported element width (``native_unsupported``), compile
    failure (``native_compile_failures``), or load failure
    (``native_load_failures``).  An object already on disk is loaded
    and handed over before this returns.  A missing one is compiled
    inline; with ``background`` it is not compiled here at all: the
    returned ``start()`` queues it on the compile thread, which calls
    ``on_ready`` when the object lands.  Never raises.
    """
    if len(in_shape) == 0 or int(elem_bytes) not in SUPPORTED_ELEM_BYTES:
        _COUNT("native_unsupported")
        on_ready(None)
        return None
    tc = toolchain()
    if tc is None:
        _COUNT("native_toolchain_missing")
        on_ready(None)
        return None
    source = native_source(in_shape, axes, tiles, order, elem_bytes)
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    so_path = directory / object_name(source, tc["fingerprint"])
    if background and not so_path.is_file():
        return lambda: _submit(source, directory, tc, so_path, on_ready)
    on_ready(_compiled_kit(source, directory, tc))
    return None


def _shutdown() -> None:
    """Interpreter exit: stop compiles, then drop the per-process dir.

    The running compiler's process group is killed and its temp object
    unlinked; the compile thread sees ``_STOPPING`` and exits without
    publishing.  The default object directory is removed only by the
    process that created it; a pinned ``REPRO_NATIVE_CACHE_DIR`` or a
    store's ``native_dir`` is kept.
    """
    global _STOPPING
    with _INFLIGHT_LOCK:
        _STOPPING = True
        inflight = list(_INFLIGHT.items())
    _JOBS.put(None)
    for proc, tmp_so in inflight:
        _kill_group(proc)
        tmp_so.unlink(missing_ok=True)
    if _WORKER is not None:
        _WORKER.join(timeout=10.0)
    if _DEFAULT_DIR is not None and _DEFAULT_DIR_PID == os.getpid():
        shutil.rmtree(_DEFAULT_DIR, ignore_errors=True)


atexit.register(_shutdown)
