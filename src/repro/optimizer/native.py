"""Compiled native backend for the DPconv exact tier.

One optional rung sits behind the pure-python layered convolution in
:class:`~repro.optimizer.dpconv.DPconvPlanGenerator`: ``c``, a
cffi-compiled transcription of the pure scalar loop (see
:mod:`repro.optimizer._native_build`).  It is never required: built
lazily, cached on disk, and any failure degrades silently to the pure
engine.

Selection (:func:`resolve_backend`) honors
``REPRO_NATIVE_KERNEL={auto,c,off}`` plus an explicit
``native_backend=`` constructor override, and only ever engages for the
plain ``C_out`` cost model — generic symmetric models price through a
Python callback the compiled loop cannot call, so they fall through to
the pure engine even when the C rung is forced.  ``auto`` uses an
**already-compiled** C kernel (no compile latency on the serving path),
else pure python; forcing ``c`` compiles eagerly.

Exactness contract (gated by ``tests/test_dpconv_equivalence.py`` and
``tests/test_kernel_equivalence.py``): the C loop mirrors the pure
engine's scan order, strict-``<`` winner and multiplication order, so
optimal costs, cardinalities, ``cost_evaluations``, estimations and memo
size are **bit-identical** to the pure engine on every input.

Budgets stay cooperative: the rung charges the
:class:`~repro.optimizer.budget.Budget` between bounded chunks
(``check()`` before, ``charge(settled)`` after), so expiry flushes every
fully-settled set for salvage exactly like the pure engine, with
overshoot bounded by one chunk instead of one submask scan.
"""

from __future__ import annotations

import math
import os
import struct
from itertools import compress, repeat
from typing import Optional

from repro.cost.cout import CoutCostModel
from repro.errors import OptimizationError
from repro.optimizer import _native_build
from repro.optimizer.budget import BudgetExpired

__all__ = [
    "NATIVE_KERNEL_ENV",
    "BACKENDS",
    "resolve_backend",
    "native_backend_status",
    "run_native_convolution",
]

#: Environment override for backend selection.
NATIVE_KERNEL_ENV = "REPRO_NATIVE_KERNEL"

#: Recognized values for the env var / ``native_backend`` argument.
BACKENDS = ("auto", "c", "off")

#: Size ceiling of the C rung (it needs ``O(2^n)`` state arrays).
#: Beyond it the pure engine takes over — same asymptotics, just a
#: worse constant, and no surprise memory spike.
C_MAX_N = 20


# ----------------------------------------------------------------------
# Selection


def resolve_backend(cost_model, requested=None, n=None):
    """Pick the native rung for this run: ``"c"`` or ``None``.

    ``requested`` (constructor override) beats ``$REPRO_NATIVE_KERNEL``
    beats ``"auto"``.  An explicit ``requested`` outside
    :data:`BACKENDS` raises; an unrecognized env value falls back to
    ``auto`` (a typo should not silently disable the optimizer, and the
    pure engine below it is always correct anyway).  ``None`` means: run
    the pure-python engine.
    """
    if requested is not None:
        if requested not in BACKENDS:
            raise OptimizationError(
                f"native_backend must be one of {BACKENDS}, got {requested!r}"
            )
        mode = requested
    else:
        mode = os.environ.get(NATIVE_KERNEL_ENV, "auto").strip().lower() or "auto"
        if mode not in BACKENDS:
            mode = "auto"
    if mode == "off":
        return None
    # Only the plain C_out model has the split-independent local term
    # and callback-free pricing the C loop implements; subclasses
    # may override join_cost, so require the exact type (mirrors the
    # pure engine's own ``cout_fast`` check).
    if cost_model is not None and type(cost_model) is not CoutCostModel:
        return None
    kernel = _native_build.load_c_kernel(build=(mode == "c"))
    if kernel is not None and (n is None or n <= C_MAX_N):
        return "c"
    return None


def native_backend_status() -> dict:
    """Operator-facing report: what imported, what compiled, what runs.

    Served by ``repro.cli backends``, the service ``stats_snapshot``
    (hence ``/v1/stats`` per shard), and bench environment stanzas, so
    a slow host explains itself at a glance.
    """
    try:
        import cffi
        cffi_version: Optional[str] = cffi.__version__
    except Exception:
        cffi_version = None
    compiler = _native_build.compiler_available()
    kernel_path = _native_build.cached_kernel_path()
    return {
        "requested": os.environ.get(NATIVE_KERNEL_ENV, "auto") or "auto",
        "cffi": {"available": cffi_version is not None, "version": cffi_version},
        "compiler": {"available": compiler is not None, "cc": compiler},
        "c_kernel": {
            "built": kernel_path is not None,
            "path": kernel_path,
            "tag": _native_build.KERNEL_TAG,
        },
        "resolved": resolve_backend(CoutCostModel()) or "python",
        "max_n": {"c": C_MAX_N},
    }


# ----------------------------------------------------------------------
# The compiled C rung


def run_native_convolution(generator, full: int) -> None:
    """Fill ``generator``'s memo via the compiled C rung.

    Same contract as ``DPconvPlanGenerator._convolve``: flush every
    settled connected set through ``memo.bulk_load``, mirror the
    ``cost_evaluations``/``estimations`` accounting, and on budget
    expiry mark the root unsolved and re-raise :class:`BudgetExpired`
    so the driver's salvage path takes over.
    """
    kernel = _native_build.load_c_kernel(build=False)
    if kernel is None:  # raced away (cache cleared) — stay correct
        generator._convolve(full)
        return
    _run_c(generator, full, kernel)


def _run_c(generator, full: int, module) -> None:
    ffi, lib = module.ffi, module.lib
    graph = generator.graph
    catalog = generator.catalog
    builder = generator.builder
    memo = builder.memo
    budget = generator.budget
    n = graph.n_vertices
    size = full + 1

    adj_list = [graph.neighbors_of_vertex(v) for v in range(n)]
    adj = ffi.new("unsigned long long[]", adj_list)
    sel_offsets = [0]
    sel_nbits: list = []
    sel_vals: list = []
    for vertex in range(n):
        for neighbor_bit, sel in catalog._vertex_selectivity[vertex]:
            sel_nbits.append(neighbor_bit)
            sel_vals.append(sel)
        sel_offsets.append(len(sel_nbits))
    sel_off = ffi.new("int[]", sel_offsets)
    sel_nbit = ffi.new("unsigned long long[]", sel_nbits)
    sel_val = ffi.new("double[]", sel_vals)

    dp = ffi.new("double[]", size)
    ffi.buffer(dp)[:] = struct.pack("=d", math.inf) * size
    card = ffi.new("double[]", size)
    card[0] = 1.0
    nbr = ffi.new("unsigned long long[]", size)
    conn = ffi.new("unsigned char[]", size)
    best_left = ffi.new("unsigned long long[]", size)
    best_right = ffi.new("unsigned long long[]", size)
    priced = ffi.new("long long *", 0)

    for entry in memo.entries():
        leaf = entry.vertex_set
        vertex = leaf.bit_length() - 1
        dp[leaf] = entry.cost
        card[leaf] = entry.cardinality
        conn[leaf] = 1
        nbr[leaf] = adj_list[vertex]

    # A set's submask scan costs up to 2^(n-1) iterations, so size the
    # mask range per call to bound budget overshoot to ~4M iterations.
    chunk = max(256, (1 << 22) >> max(0, n - 1)) if budget is not None else size
    aborted = False
    s_set = 3
    while s_set < size:
        end = min(size, s_set + chunk)
        if budget is not None:
            try:
                budget.check()
            except BudgetExpired:
                aborted = True
                break
        settled = lib.dpconv_cout_range(
            s_set, end, adj, sel_off, sel_nbit, sel_val,
            dp, card, nbr, conn, best_left, best_right, priced,
        )
        builder.estimator.estimations += settled
        s_set = end
        if budget is not None and settled:
            try:
                budget.charge(settled)
            except BudgetExpired:
                aborted = True
                break
    builder.cost_evaluations += priced[0]

    # Bulk-load the non-singleton settled sets (leaves are pre-seeded
    # with identical values, so skipping them leaves the memo
    # byte-identical to the pure engine's flush).  Clearing the leaf
    # flags first lets ``compress`` and ``zip`` + ``repeat`` build the
    # set list and each row tuple in C, keeping the interpreter out of
    # these O(2^n) loops.
    settled_flags = bytearray(ffi.buffer(conn))
    for vertex in range(n):
        settled_flags[1 << vertex] = 0
    set_list = list(compress(range(size), settled_flags))
    if set_list:
        card_all = ffi.unpack(card, size)
        dp_all = ffi.unpack(dp, size)
        left_all = ffi.unpack(best_left, size)
        right_all = ffi.unpack(best_right, size)
        memo.bulk_load(
            zip(
                set_list,
                [card_all[m] for m in set_list],
                [dp_all[m] for m in set_list],
                [left_all[m] for m in set_list],
                [right_all[m] for m in set_list],
                repeat("join"),
                repeat(True),
            )
        )
    if aborted:
        if not settled_flags[full]:
            # Mark the root unsolved so salvage takes over.
            memo.bulk_load(((full, None, math.inf, 0, 0, None, False),))
        raise BudgetExpired(budget.reason or "budget expired")
