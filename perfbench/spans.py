"""Span recording for the traced run, and the layer breakdown built from it.

A :class:`Tracer` wraps the public entry points of each layer (module
functions and class methods, patched in place) so that every call
records a span: name, start, end, parent, request id and a few
attributes read off the call's arguments or result.  Spans stay in
memory and are written when a process ends; the door and its shards
write one file each, merged here by request id.

Self time is a span's duration minus the part of it that its children
cover; each span name belongs to one layer (:data:`LAYER_OF`), and a
layer's self time is the sum over its spans.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import functools
import itertools
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span clock: CLOCK_MONOTONIC, shared by every process on the host.
now_ns = time.monotonic_ns

#: Span name -> layer.  Names prefixed ``bench.`` are the benchmark's own.
LAYER_OF = {
    "bench.request": "harness",
    "bench.wait": "loadgen",
    "bench.http": "frontdoor",
    "sharding.submit": "sharding",
    "serialize.decode": "serialize",
    "serialize.encode": "serialize",
    "core.optimize": "core",
    "core.signature": "core",
    "canonical.form": "canonical",
    "cache.get": "cache",
    "cache.put": "cache",
    "resilience.estimate": "resilience",
    "executor.batch": "executor",
    "optimizer.enumerate": "optimizer",
    "dpconv.enumerate": "dpconv",
    "plan.extract": "plan",
}

#: Display order of layers in the stacked bar.
LAYERS = (
    "loadgen",
    "frontdoor",
    "sharding",
    "serialize",
    "core",
    "canonical",
    "cache",
    "resilience",
    "executor",
    "enumeration",
    "optimizer",
    "dpconv",
    "plan",
    "harness",
)

# Span record: [sid, parent_sid, name, rid, start_ns, end_ns, attrs]
SID, PARENT, NAME, RID, START, END, ATTRS = range(7)


class Tracer:
    """Records spans of the calls into wrapped entry points."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: An open span that calls on pool threads (which start with an
        #: empty context) adopt as parent: the batch they belong to.
        self.fallback: Optional[Tuple[int, Optional[str]]] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str, rid: Optional[str] = None):
        parent = self._current.get() or self.fallback
        if rid is None and parent is not None:
            rid = parent[1]
        sid = next(self._ids)
        token = self._current.set((sid, rid))
        span = [sid, parent[0] if parent else None, name, rid, now_ns(), None, None]
        return span, token

    def close(self, span: list, token) -> None:
        span[END] = now_ns()
        self._current.reset(token)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        """A span around the benchmark's own code."""
        record, token = self.open(name, rid)
        try:
            yield record
        finally:
            self.close(record, token)

    def record(self, name: str, start_ns: int, end_ns: int, rid: str,
               parent: Optional[int] = None) -> int:
        """Add a finished span measured by the caller; returns its id."""
        sid = next(self._ids)
        self.spans.append([sid, parent, name, rid, start_ns, end_ns, None])
        return sid

    # -- wrappers ------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        attrs_of: Optional[Callable] = None,
        batch: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs_of(args, result)`` returns the span's attributes.  With
        ``batch`` the span is the parent of pool-thread spans while open.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span, token = tracer.open(name)
            if batch:
                tracer.fallback = (span[SID], span[RID])
            try:
                result = original(*args, **kwargs)
            finally:
                if batch:
                    tracer.fallback = None
                tracer.close(span, token)
            if attrs_of is not None:
                span[ATTRS] = attrs_of(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_future(self, owner, attr: str, name: str) -> None:
        """Wrap ``ShardClient.submit``: the span ends when its future resolves.

        The span takes the job's ``request_id`` and the shard's index.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(client, job, *args, **kwargs):
            span, token = tracer.open(name, job.get("request_id"))
            span[ATTRS] = {"shard": client.index}
            try:
                future = original(client, job, *args, **kwargs)
            finally:
                tracer._current.reset(token)

            def done(_future) -> None:
                span[END] = now_ns()
                tracer.spans.append(span)

            future.add_done_callback(done)
            return future

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str, shard: Optional[int] = None) -> None:
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "shard": shard, "spans": self.spans}, handle)


# ----------------------------------------------------------------------
# The entry points each layer is measured at


def _result_attrs(args, result) -> Dict:
    details = result.details
    attrs = {
        "kernel": details.get("kernel"),
        "backend": details.get("backend"),
        "ccps": details.get("ccps_emitted", 0),
        "cost_evals": result.cost_evaluations,
        "memo": result.memo_entries,
    }
    if details.get("kernel") in ("fast", "reference"):
        graph = args[0].resolved_catalog().graph
        attrs["n"] = graph.n_vertices
        attrs["edges"] = [list(edge) for edge in graph.edges]
    return attrs


def _rungs(results) -> Dict[str, int]:
    """Ladder rung of each freshly served result (cache hits serve none)."""
    counts: Dict[str, int] = {}
    for result in results:
        if result.plan is None or result.cache_hit:
            continue
        rung = result.details.get("rung") or "exact"
        counts[rung] = counts.get(rung, 0) + 1
        if result.details.get("degrade_reason") == "breaker_open":
            counts["breaker_open"] = counts.get("breaker_open", 0) + 1
    return counts


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (in-process and shard side)."""
    from repro import serialize
    from repro.optimizer import api
    from repro.optimizer.dpconv import DPconvPlanGenerator
    from repro.plan.memo import MemoTable
    from repro.service import core
    from repro.service.cache import PlanCache

    tracer.wrap(serialize, "request_from_dict", "serialize.decode")
    tracer.wrap(serialize, "result_to_dict", "serialize.encode")
    tracer.wrap(
        core.OptimizerService, "optimize", "core.optimize",
        attrs_of=lambda a, r: {"rungs": _rungs([r])},
    )
    tracer.wrap(
        core.OptimizerService, "optimize_batch", "executor.batch",
        attrs_of=lambda a, r: {"rungs": _rungs(r)}, batch=True,
    )
    # The service imported these names into its own module, so the names
    # it calls are the ones to patch.
    tracer.wrap(core, "request_signature", "core.signature")
    tracer.wrap(core, "canonical_form", "canonical.form")
    tracer.wrap(core, "estimate_ccps", "resilience.estimate")
    tracer.wrap(core, "optimize_request", "optimizer.enumerate", attrs_of=_result_attrs)
    tracer.wrap(api, "optimize_request", "optimizer.enumerate", attrs_of=_result_attrs)
    tracer.wrap(
        PlanCache, "get", "cache.get",
        attrs_of=lambda a, r: {"hit": r is not None},
    )
    tracer.wrap(PlanCache, "put", "cache.put")
    tracer.wrap(
        DPconvPlanGenerator, "optimize", "dpconv.enumerate",
        attrs_of=lambda a, r: {"backend": a[0].last_backend, "n": a[0].graph.n_vertices},
    )
    tracer.wrap(MemoTable, "extract_plan", "plan.extract")


def install_door(tracer: Tracer, out_dir: str) -> None:
    """Door-process wrappers; shards forked later inherit them.

    Each shard clears the spans it inherited and writes its own file when
    its serve loop returns (on the door's shutdown op).
    """
    from repro.service import sharding

    install(tracer)
    tracer.wrap_future(sharding.ShardClient, "submit", "sharding.submit")
    original = sharding.shard_worker_main

    @functools.wraps(original)
    def shard_main(conn, shard, *args, **kwargs):
        tracer.spans.clear()
        try:
            return original(conn, shard, *args, **kwargs)
        finally:
            tracer.dump(os.path.join(out_dir, f"shard-{os.getpid()}.json"), shard=shard)

    sharding.shard_worker_main = shard_main


# ----------------------------------------------------------------------
# Analysis


def load(paths: Iterable[str]) -> List[Dict]:
    """Read span files written by :meth:`Tracer.dump`."""
    documents = []
    for path in paths:
        with open(path) as handle:
            documents.append(json.load(handle))
    return documents


def _covered(interval: Tuple[int, int], children: List[Tuple[int, int]]) -> int:
    lo, hi = interval
    total = 0
    cursor = lo
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class Breakdown:
    """Spans of one run joined into request trees, with self time per span.

    Door and shard spans carry no request id of their own; they are
    joined to requests by the order the code runs in.  In the door,
    decoding, signing and routing a request run synchronously right
    before its ``ShardClient.submit``, so a door span belongs to the next
    submit that starts after it.  A shard serves its queue one job at a
    time in submission order, and every job begins with a decode, so the
    shard's k-th job is the k-th submit to that shard.  ``keep`` filters
    requests by id (warm-up and probe traffic share the door).
    """

    def __init__(self, local: List[list], remote: List[Dict] = (),
                 keep: Callable[[str], bool] = lambda rid: True):
        pid = os.getpid()
        spans: Dict[Tuple[int, int], list] = {(pid, s[SID]): s for s in local}
        parent: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
        http_of = {s[RID]: (pid, s[SID]) for s in local if s[NAME] == "bench.http"}
        queues: Dict[int, List[Tuple[int, list]]] = {}
        for doc in (d for d in remote if d.get("shard") is None):
            owner = doc["pid"]
            ordered = sorted(doc["spans"], key=lambda s: s[START])
            submits = [s for s in ordered if s[NAME] == "sharding.submit" and s[RID]]
            starts = [s[START] for s in submits]
            for span in ordered:
                if span[PARENT] is None and span[NAME] != "sharding.submit":
                    index = bisect.bisect_left(starts, span[END])
                    span[RID] = submits[index][RID] if index < len(submits) else None
                if span[PARENT] is None and span[RID]:
                    parent[(owner, span[SID])] = http_of.get(span[RID].split("/")[0])
                spans[(owner, span[SID])] = span
            for span in submits:
                queues.setdefault(span[ATTRS]["shard"], []).append((owner, span))
        for doc in (d for d in remote if d.get("shard") is not None):
            owner, queue, job = doc["pid"], queues.get(doc["shard"], []), -1
            for span in sorted(doc["spans"], key=lambda s: s[START]):
                if span[PARENT] is None:
                    job += span[NAME] == "serialize.decode"
                    if 0 <= job < len(queue):
                        door, submit = queue[job]
                        span[RID] = submit[RID]
                        parent[(owner, span[SID])] = (door, submit[SID])
                spans[(owner, span[SID])] = span
        for key, span in spans.items():
            if key not in parent:
                parent[key] = (key[0], span[PARENT]) if span[PARENT] is not None else None

        def rid_of(key) -> Optional[str]:
            while parent.get(key) is not None and not spans[key][RID]:
                key = parent[key]
            return spans[key][RID]

        self.spans = {k: s for k, s in spans.items() if keep(rid_of(k))}
        self.parent = {k: parent[k] for k in self.spans}
        children: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for key, up in self.parent.items():
            if up is not None and up in self.spans:
                span = self.spans[key]
                children.setdefault(up, []).append((span[START], span[END]))
        self.self_ns: Dict[Tuple[int, int], int] = {}
        for key, span in self.spans.items():
            duration = span[END] - span[START]
            covered = _covered((span[START], span[END]), children.get(key, []))
            self.self_ns[key] = duration - covered

    def named(self, name: str) -> List[list]:
        return [span for span in self.spans.values() if span[NAME] == name]

    def durations_ms(self, name: str) -> List[float]:
        return [(s[END] - s[START]) / 1e6 for s in self.named(name)]

    def layer_self_ms(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for key, span in self.spans.items():
            layer = LAYER_OF[span[NAME]]
            totals[layer] = totals.get(layer, 0.0) + self.self_ns[key] / 1e6
        return totals

    def coverage(self) -> float:
        """Share of the roots' time that layer spans below them cover."""
        roots = [k for k, s in self.spans.items() if s[NAME] == "bench.request"]
        total = sum(self.spans[k][END] - self.spans[k][START] for k in roots)
        unattributed = sum(self.self_ns[k] for k in roots)
        return 1.0 - unattributed / total if total else 0.0

    def root_ms(self) -> float:
        return sum(
            (s[END] - s[START]) / 1e6 for s in self.named("bench.request")
        )
