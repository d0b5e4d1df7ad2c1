"""Lazy cffi build/load machinery for the compiled dpconv rung.

The C kernel here is a line-for-line transcription of the ``C_out`` hot
path in :meth:`repro.optimizer.dpconv.DPconvPlanGenerator._convolve`:
same ascending set order, same descending-submask split scan with a
strict ``<`` winner, same ``(left_card * right_card) * selectivity``
multiplication order, and a ``sel_between`` that replicates
:meth:`repro.catalog.statistics.Catalog.selectivity_between` exactly —
smaller-side swap first, then the smaller side's vertices low-bit first,
each vertex's selectivity list in stored order.  Because every float
operation happens in the same order on IEEE-754 doubles (SSE2 — no x87
extended precision on any platform we build for), the compiled rung is
**bit-identical** to the pure engine, not merely close, and the same
equivalence corpus gates both.

Build strategy (out-of-line API mode):

* the module name embeds a hash of the C source, so editing the kernel
  invalidates the cache automatically;
* compilation happens in a per-process scratch dir and the finished
  extension is moved into the cache dir with ``os.replace`` — two
  processes racing to build the same kernel both succeed;
* *any* failure (no cffi, no compiler, read-only filesystem, ...)
  degrades silently: callers get ``None`` and the selection falls
  through to pure python.  A host without a C toolchain behaves
  byte-identically to a tree without this module.

Cache location: ``$REPRO_NATIVE_BUILD_DIR`` when set, else
``~/.cache/repro-native``, else a per-user temp dir.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
import threading
from typing import Optional

__all__ = [
    "build_dir",
    "cached_kernel_path",
    "load_c_kernel",
    "compiler_available",
    "KERNEL_TAG",
]

_CDEF = """
long long dpconv_cout_range(
    unsigned long long start,
    unsigned long long end,
    const unsigned long long *adj,
    const int *sel_off,
    const unsigned long long *sel_nbit,
    const double *sel_val,
    double *dp,
    double *card,
    unsigned long long *nbr,
    unsigned char *conn,
    unsigned long long *best_left,
    unsigned long long *best_right,
    long long *priced_out);
"""

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#if defined(__GNUC__) || defined(__clang__)
#  define POPCOUNT64(x) ((int)__builtin_popcountll(x))
#  define CTZ64(x) ((int)__builtin_ctzll(x))
#else
static int POPCOUNT64(unsigned long long x) {
    int count = 0;
    while (x) { x &= x - 1; count++; }
    return count;
}
static int CTZ64(unsigned long long x) {
    int index = 0;
    while (!(x & 1ULL)) { x >>= 1; index++; }
    return index;
}
#endif

/* Catalog.selectivity_between, transcribed: swap so the popcount-smaller
 * side is walked, then low-bit-first over its vertices, multiplying the
 * stored per-vertex (neighbor-bit, selectivity) list in order whenever
 * the neighbor lands in the other side.  Multiplication order matches
 * the python walk exactly, so the product is bit-identical. */
static double sel_between(
    unsigned long long left, unsigned long long right,
    const int *sel_off, const unsigned long long *sel_nbit,
    const double *sel_val)
{
    if (POPCOUNT64(left) > POPCOUNT64(right)) {
        unsigned long long swap = left; left = right; right = swap;
    }
    double product = 1.0;
    unsigned long long walk = left;
    while (walk) {
        unsigned long long lowbit = walk & (~walk + 1ULL);
        walk ^= lowbit;
        int vertex = CTZ64(lowbit);
        int stop = sel_off[vertex + 1];
        for (int i = sel_off[vertex]; i < stop; i++) {
            if (sel_nbit[i] & right) product *= sel_val[i];
        }
    }
    return product;
}

/* Process s_set in [start, end) against caller-persistent state arrays
 * (all sized full+1, leaves pre-seeded).  Returns the number of sets
 * settled (connected, non-singleton) and accumulates the ccp count into
 * *priced_out — the python driver mirrors both into the PlanBuilder
 * counters so accounting matches the pure engine.  Ranges let the
 * driver charge the cooperative Budget between calls with bounded
 * overshoot, same contract as the pure engine's per-set charge. */
long long dpconv_cout_range(
    unsigned long long start,
    unsigned long long end,
    const unsigned long long *adj,
    const int *sel_off,
    const unsigned long long *sel_nbit,
    const double *sel_val,
    double *dp,
    double *card,
    unsigned long long *nbr,
    unsigned char *conn,
    unsigned long long *best_left,
    unsigned long long *best_right,
    long long *priced_out)
{
    long long settled = 0;
    long long priced_total = 0;
    for (unsigned long long s_set = start; s_set < end; s_set++) {
        unsigned long long low = s_set & (~s_set + 1ULL);
        if (s_set == low || s_set < 3ULL) continue;  /* singleton / empty */
        unsigned long long rest = s_set ^ low;
        nbr[s_set] = nbr[rest] | adj[CTZ64(low)];
        unsigned long long reach = low;
        for (;;) {
            unsigned long long grown = (reach | nbr[reach]) & s_set;
            if (grown == reach) break;
            reach = grown;
        }
        if (reach != s_set) continue;
        conn[s_set] = 1;
        double best = INFINITY;
        unsigned long long b_left = 0, b_right = 0;
        long long priced = 0;
        unsigned long long sub = (rest - 1ULL) & rest;
        for (;;) {
            unsigned long long left = low | sub;
            unsigned long long right = s_set ^ left;
            if (conn[left] && conn[right]) {
                priced++;
                double total = dp[left] + dp[right];
                if (total < best) {
                    best = total;
                    b_left = left;
                    b_right = right;
                }
            }
            if (!sub) break;
            sub = (sub - 1ULL) & rest;
        }
        double output_card = (card[b_left] * card[b_right])
            * sel_between(b_left, b_right, sel_off, sel_nbit, sel_val);
        card[s_set] = output_card;
        dp[s_set] = output_card + best;
        best_left[s_set] = b_left;
        best_right[s_set] = b_right;
        settled++;
        priced_total += priced;
    }
    *priced_out += priced_total;
    return settled;
}
"""

#: Bump to invalidate every cached build regardless of source diffs.
KERNEL_TAG = "v1"

_source_hash = hashlib.sha256(
    (KERNEL_TAG + _CDEF + _C_SOURCE).encode()
).hexdigest()[:12]
MODULE_BASENAME = f"_repro_dpconv_{_source_hash}"

#: Per-process memo: a successful load sticks, and a *failed* compile
#: sticks too (``REPRO_NATIVE_KERNEL=c`` on a compiler-less host must
#: not retry the toolchain probe on every request).  The lock keeps
#: concurrent first loads from racing: without it a batch worker that
#: arrives while another thread is mid-import sees ``load_tried`` set
#: with no module yet and silently falls back to pure python for that
#: request.
_STATE = {"module": None, "load_tried": False, "build_tried": False}
_STATE_LOCK = threading.Lock()


def build_dir() -> str:
    """Resolve the kernel cache directory (not created until needed)."""
    override = os.environ.get("REPRO_NATIVE_BUILD_DIR")
    if override:
        return override
    home = os.path.expanduser("~")
    if home and home != "~":
        return os.path.join(home, ".cache", "repro-native")
    return os.path.join(tempfile.gettempdir(), "repro-native")


def compiler_available() -> Optional[str]:
    """Path of a usable C compiler, or ``None``."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate:
            found = shutil.which(candidate)
            if found:
                return found
    return None


def cached_kernel_path(directory: Optional[str] = None) -> Optional[str]:
    """Path of an already-compiled kernel for this source, or ``None``."""
    from importlib.machinery import EXTENSION_SUFFIXES

    base = directory or build_dir()
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(base, MODULE_BASENAME + suffix)
        if os.path.exists(path):
            return path
    return None


def _import_extension(path: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(MODULE_BASENAME, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load extension at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compile() -> Optional[str]:
    """Compile the kernel into the cache dir; return its path or ``None``."""
    import cffi

    base = build_dir()
    os.makedirs(base, exist_ok=True)
    scratch = os.path.join(base, f"build-{os.getpid()}")
    try:
        ffibuilder = cffi.FFI()
        ffibuilder.cdef(_CDEF)
        ffibuilder.set_source(
            MODULE_BASENAME, _C_SOURCE, extra_compile_args=["-O2"]
        )
        built = ffibuilder.compile(tmpdir=scratch, verbose=False)
        target = os.path.join(base, os.path.basename(built))
        os.replace(built, target)
        return target
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def load_c_kernel(build: bool = False):
    """Return the compiled kernel module, or ``None``.

    With ``build=False`` only an already-cached extension is loaded (no
    compiler invoked — this is what ``auto`` selection uses, so a cold
    host never pays compile latency on the serving path).  With
    ``build=True`` a missing kernel is compiled first.  Every failure
    path returns ``None`` silently; ``sys.stderr`` stays clean because
    degradation is an expected state, not an error.
    """
    if _STATE["module"] is not None:
        return _STATE["module"]
    with _STATE_LOCK:
        if _STATE["module"] is not None:
            return _STATE["module"]
        if _STATE["build_tried"] or (_STATE["load_tried"] and not build):
            return None
        _STATE["load_tried"] = True
        if build:
            _STATE["build_tried"] = True
        module = None
        try:
            path = cached_kernel_path()
            if path is None and build:
                path = _compile()
            if path is not None:
                module = _import_extension(path)
        except Exception:
            module = None
        _STATE["module"] = module
        return module


if __name__ == "__main__":  # manual: python -m repro.optimizer._native_build
    kernel = load_c_kernel(build=True)
    if kernel is None:
        print("native kernel build failed (cffi or compiler missing?)")
        sys.exit(1)
    print(f"native kernel ready: {cached_kernel_path()}")
