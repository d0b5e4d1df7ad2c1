"""The four workloads: set-up, timed loop, and what each run records.

Each workload is a class with ``setup()`` (everything up to the first
timed request: imports are already done by then, so it covers native
kernel load, input generation, cache warm-up and door boot), ``run(seconds,
tracer)`` (the timed loop; with a tracer, every request is a
``bench.request`` root span), ``check()`` (the oracle, outside the timed
region) and ``close()``.  ``run`` returns a :class:`Sample`.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import re
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import loadgen
import streams
from oracle import Checker
from repro import serialize
from repro.optimizer import api
from repro.optimizer.api import OptimizationRequest
from repro.optimizer.native import native_backend_status
from repro.service import OptimizerService, ResilienceConfig

NPROC = len(os.sched_getaffinity(0))

#: Admission budget (#ccp) for batch-dense: every dense query of 10+
#: relations is over it, so admission routes them to the dpconv rung.
BATCH_CCP_BUDGET = 5000
#: The door's admission budget: the 10- and 11-cliques of http-mixed go
#: to the dpconv rung, everything sparse stays exact.
DOOR_CCP_BUDGET = 20000
DOOR_SHARDS = 2
#: Tail-latency limit of the http-mixed ladder; see NOTE.md for why.
HTTP_SLO_MS = 100.0
#: A rung's backlog grows when more than this share of its requests is
#: still waiting for a connection when the rung ends.
HTTP_BACKLOG_SHARE = 0.10
#: The generator fell behind (run invalid) when its p99 release delay
#: over the passing rungs exceeds this.
HTTP_MAX_LATE_MS = 50.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Sample:
    """What one timed run measured."""

    latencies_ms: List[float]
    completed: int
    elapsed_s: float
    peak_rss_mb: float
    #: http-mixed only.
    slo_rate_qps: Optional[float] = None
    report: Dict = field(default_factory=dict)
    #: Items (single optimizations) processed, for per-request ratios.
    items: int = 0
    #: Timed calls made (a batch is one call).
    calls: int = 0


def _timed_loop(calls, seconds: float, tracer, block: int = 1,
                cycle: bool = True) -> Tuple[List[float], int, float]:
    """Closed loop, one caller: ``calls[i]()`` in order.

    Stops at the first multiple of ``block`` calls past ``seconds``, so a
    run always ends on a whole pass of the stream's unit of work.  With
    ``cycle`` the calls repeat once used up; without, running out raises
    (a repeat would turn a cold request into a cache hit).
    """
    latencies = []
    count = len(calls)
    index = 0
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    while True:
        if index == count and not cycle:
            raise RuntimeError("the stream ran out before the run ended; make it longer")
        call = calls[index % count]
        if tracer is None:
            begin = clock()
            call()
            end = clock()
        else:
            with tracer.span("bench.request", rid=f"r{index}"):
                begin = clock()
                call()
                end = clock()
        latencies.append((end - begin) * 1e3)
        index += 1
        if end >= deadline and index % block == 0:
            break
    return latencies, index, clock() - started


# ----------------------------------------------------------------------


class _InProcess:
    """What the three in-process workloads share."""

    name = ""

    def __init__(self, seed: int, seconds: float, root: str):
        self.seed, self.seconds = seed, seconds

    def check(self) -> List[str]:
        return self.checker.finish()

    def close(self) -> None:
        pass


class EngineCold(_InProcess):
    """``optimize_request(algorithm="auto")``, one caller, every call cold."""

    name = "engine-cold"

    def setup(self) -> None:
        native_backend_status()
        self.stream = streams.build(self.name, self.seed, self.seconds)
        self.requests = [
            OptimizationRequest(item.catalog, algorithm="auto")
            for item in self.stream.items
        ]
        self.checker = Checker()
        for request in self.requests[: len(self.stream.bases)]:
            api.optimize_request(request)

    def run(self, seconds: float, tracer=None, start: int = 0) -> Sample:
        items, requests, checker = self.stream.items, self.requests, self.checker
        names = [b.name for b in self.stream.bases]

        def call_for(i):
            item, request = items[i], requests[i]

            def call():
                result = api.optimize_request(request)
                checker.note(item.base, item.catalog, result.plan.cost,
                             exact=not result.details.get("anytime"),
                             served_by="auto", plan=result.plan,
                             label=names[item.base])
            return call

        n = len(items)
        calls = [call_for((start + i) % n) for i in range(n)]
        latencies, done, elapsed = _timed_loop(
            calls, seconds, tracer, block=len(self.stream.bases)
        )
        return Sample(latencies, done, elapsed, peak_rss_mb(), items=done, calls=done)


class ServiceWarm(_InProcess):
    """``OptimizerService.optimize`` on a warmed cache, one caller."""

    name = "service-warm"
    #: ~4000 samples a second: the run-wide tail would be the host's
    #: eleventh-worst stall, so the tail is the median of the run's
    #: per-second tails.
    tail_per_second = True

    def setup(self) -> None:
        native_backend_status()
        self.stream = streams.build(self.name, self.seed, self.seconds)
        self.service = OptimizerService()
        self.requests = [
            OptimizationRequest(item.catalog, algorithm="auto")
            for item in self.stream.items
        ]
        # Warm every distinct request, not only each base: a relabeling
        # does not always reach its base's signature (two twin vertices
        # whose cardinalities round alike but whose selectivities differ
        # sign differently by labeling), and such a miss would put an
        # enumeration in the timed loop.
        warmed = set()
        for item, request in zip(self.stream.items, self.requests):
            if (item.base, item.perm) not in warmed:
                warmed.add((item.base, item.perm))
                self.service.optimize(request)
        self.checker = Checker()
        self.hits = 0

    def run(self, seconds: float, tracer=None, start: int = 0) -> Sample:
        items, requests, checker = self.stream.items, self.requests, self.checker
        service = self.service
        names = [b.name for b in self.stream.bases]

        def call_for(i):
            item, request = items[i], requests[i]

            def call():
                result = service.optimize(request)
                self.hits += result.cache_hit
                checker.note(item.base, item.catalog, result.plan.cost,
                             exact=not result.details.get("degraded"),
                             served_by="auto", plan=result.plan,
                             label=names[item.base])
            return call

        n = len(items)
        before = service.cache.stats()
        calls = [call_for((start + i) % n) for i in range(n)]
        latencies, done, elapsed = _timed_loop(calls, seconds, tracer)
        after = service.cache.stats()
        sample = Sample(latencies, done, elapsed, peak_rss_mb(), items=done, calls=done)
        sample.report["cache_misses"] = after["misses"] - before["misses"]
        sample.report["cache_evictions"] = after["evictions"] - before["evictions"]
        return sample


class BatchDense(_InProcess):
    """``OptimizerService.optimize_batch`` over cold dense queries."""

    name = "batch-dense"

    def setup(self) -> None:
        native_backend_status()
        self.stream = streams.build(self.name, self.seed, self.seconds)
        self.service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=BATCH_CCP_BUDGET)
        )
        self.service.optimize_batch(
            [OptimizationRequest(b.catalog, algorithm="auto") for b in self.stream.bases],
            workers=NPROC,
        )
        self.rungs: Dict[str, int] = {}
        self.backends: Dict[str, int] = {}
        size = self.stream.layout["batch_size"]
        requests = [
            OptimizationRequest(item.catalog, algorithm="auto", stats_epoch=item.epoch)
            for item in self.stream.items
        ]
        self.batches = [
            (list(range(i, i + size)), requests[i:i + size])
            for i in range(0, len(requests) - size + 1, size)
        ]
        self.checker = Checker()

    def run(self, seconds: float, tracer=None, start: int = 0) -> Sample:
        items, checker, service = self.stream.items, self.checker, self.service
        names = [b.name for b in self.stream.bases]

        def call_for(b):
            indices, batch = self.batches[b]

            def call():
                results = service.optimize_batch(batch, workers=NPROC)
                for index, result in zip(indices, results):
                    item = items[index]
                    if result.plan is None:
                        checker.failure(f"{names[item.base]}: {result.error}")
                        continue
                    details = result.details
                    rung = details.get("rung") or "exact"
                    self.rungs[rung] = self.rungs.get(rung, 0) + 1
                    if details.get("degrade_reason") == "breaker_open":
                        self.rungs["breaker_open"] = self.rungs.get("breaker_open", 0) + 1
                    backend = details.get("backend")
                    if backend:
                        self.backends[backend] = self.backends.get(backend, 0) + 1
                    checker.note(item.base, item.catalog, result.plan.cost,
                                 exact=not details.get("degraded"),
                                 served_by="dpconv" if rung == "dpconv" else "auto",
                                 plan=result.plan, label=names[item.base])
            return call

        n = len(self.batches)
        calls = [call_for(start + i) for i in range(n - start)]
        # Two rounds of the pool are a whole number of batches.
        block = (2 * len(self.stream.bases)) // self.stream.layout["batch_size"]
        latencies, done, elapsed = _timed_loop(calls, seconds, tracer, block=block,
                                               cycle=False)
        size = self.stream.layout["batch_size"]
        sample = Sample(latencies, done * size, elapsed, peak_rss_mb(),
                        items=done * size, calls=done)
        snapshot = service.stats_snapshot()
        sample.report["timeouts"] = snapshot["totals"].get("timeouts", 0)
        return sample


# ----------------------------------------------------------------------


_METRIC = re.compile(r"^(repro_frontdoor_[a-z_]+)(\{[^}]*\})? ([0-9.e+-]+)$", re.M)


def _frontdoor_counters(text: str) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for name, _labels, value in _METRIC.findall(text):
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def tail(values: List[float], windows: int = 1) -> Tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: ``(value, pct)``.

    With ``windows > 1`` the samples (in time order) are cut into that
    many equal windows and the median of the windows' tails is returned.
    """
    if windows > 1:
        size = len(values) // windows
        rows = sorted(tail(values[k * size:(k + 1) * size]) for k in range(windows))
        return rows[windows // 2]
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class HttpMixed:
    """A live door with 2 shards under an open-loop rate ladder."""

    name = "http-mixed"

    def __init__(self, seed: int, seconds: float, root: str, inject_stale: bool = False):
        self.seed, self.seconds, self.root = seed, seconds, root
        self.inject_stale = inject_stale
        self.door: Optional[loadgen.Door] = None

    # -- inputs --------------------------------------------------------

    def _document(self, item: streams.Item) -> Dict:
        epoch = item.epoch
        if self.inject_stale and epoch == 1:
            epoch = 0  # the drift bug: new statistics, old epoch
        request = OptimizationRequest(item.catalog, algorithm="auto", stats_epoch=epoch)
        return serialize.request_to_dict(request)

    def _envelope(self, rid: str, document: Dict) -> bytes:
        return json.dumps(
            {"version": 1, "request_id": rid, "request": document},
            separators=(",", ":"),
        ).encode("utf-8")

    def _identity(self, index: int, epoch: int = 0) -> streams.Item:
        catalog = self.stream.bases[index].catalog
        return streams.Item(index, catalog, tuple(range(catalog.graph.n_vertices)), epoch)

    def _prepare_inputs(self) -> None:
        stream = self.stream
        warm_count = stream.layout["warm_bases"]
        # Every warm base once, then each cold base under four throwaway
        # epochs (so both shards run each engine once before timing), then
        # one batch call.
        warmup = [self._identity(index) for index in range(warm_count)]
        warmup += [
            self._identity(index, streams.HTTP_COLD_EPOCH0 - 1 - k)
            for index in range(warm_count, len(stream.bases)) for k in range(4)
        ]
        self.warmup_jobs = [
            ("/v1/optimize", self._envelope(f"w{number}", self._document(item)))
            for number, item in enumerate(warmup)
        ]
        batch = [self._document(self._identity(index)) for index in range(4)]
        self.warmup_jobs.append(("/v1/optimize_batch", json.dumps(
            {"version": 1, "request_id": "wb", "requests": batch}, separators=(",", ":")).encode()))
        self.probe_jobs = [
            ("/v1/optimize", self._envelope(f"p{k}", self._document(self._identity(k % warm_count))))
            for k in range(200)
        ]
        self.jobs = []
        self.job_items: List[List[int]] = []
        for number, (due, kind, members) in enumerate(stream.layout["schedule"]):
            rid = f"r{number}"
            if kind == "batch":
                documents = [self._document(stream.items[m]) for m in members]
                body = json.dumps(
                    {"version": 1, "request_id": rid, "requests": documents},
                    separators=(",", ":"),
                ).encode("utf-8")
                self.jobs.append((due, "/v1/optimize_batch", body))
            else:
                document = self._document(stream.items[members[0]])
                self.jobs.append((due, "/v1/optimize", self._envelope(rid, document)))
            self.job_items.append(members)

    # -- lifecycle -----------------------------------------------------

    def boot(self, trace_dir: Optional[str] = None) -> None:
        """Start a door (traced when ``trace_dir`` is given) and warm it."""
        args = ["--port", "0", "--shards", str(DOOR_SHARDS),
                "--max-ccp-budget", str(DOOR_CCP_BUDGET)]
        self.door = loadgen.Door(self.root, args, trace_dir=trace_dir, env=dict(os.environ))
        asyncio.run(loadgen.wait_healthy(self.door.port, DOOR_SHARDS))
        rows = asyncio.run(loadgen.closed_loop(self.door.port, self.warmup_jobs))
        self.pre_drift_signature: Dict[int, str] = {}
        for index, (_s, _e, status, payload) in enumerate(rows):
            if status != 200:
                raise RuntimeError(f"warm-up request {index} answered {status}")
            if index < self.stream.layout["warm_bases"]:
                self.pre_drift_signature[index] = json.loads(payload)["result"]["signature"]

    def setup(self) -> None:
        native_backend_status()
        self.stream = streams.build(self.name, self.seed, self.seconds)
        self._prepare_inputs()
        self.boot()

    def probe_ms(self, door: loadgen.Door) -> float:
        """Mean round trip of 200 sequential warm requests (overhead probe)."""
        rows = asyncio.run(loadgen.closed_loop(door.port, self.probe_jobs))
        return sum(end - start for start, end, _s, _b in rows) / len(rows) / 1e6

    def close(self) -> None:
        if self.door is not None:
            self.door.stop()
            self.door = None

    # -- the ladder ----------------------------------------------------

    def run(self, seconds: float, tracer=None, start: int = 0) -> Sample:
        port = self.door.port
        before = _frontdoor_counters(asyncio.run(loadgen.get(port, "/metrics")).decode())
        backlog_cap = 4 * max(streams.HTTP_LADDER)
        rows = asyncio.run(loadgen.open_loop(port, self.jobs, NPROC, backlog_cap))
        after = _frontdoor_counters(asyncio.run(loadgen.get(port, "/metrics")).decode())
        health = json.loads(asyncio.run(loadgen.get(port, "/v1/healthz")))
        rss = peak_rss_mb() + self.door.peak_rss_mb()
        self.rows = rows
        delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
        sample = self._summarize(rows, rss)
        sample.report["route_memo_hits"] = delta.get("repro_frontdoor_route_memo_hits_total", 0.0)
        sample.report["route_memo_misses"] = delta.get("repro_frontdoor_route_memo_misses_total", 0.0)
        sample.report["rejected"] = delta.get("repro_frontdoor_rejections_total", 0.0)
        sample.report["restarts"] = sum(s.get("restarts", 0) for s in health["shards"])
        if tracer is not None:
            for number, row in enumerate(rows):
                if row is None:
                    continue
                due, released, sent, done, _status, _body = row
                rid = f"r{number}"
                root = tracer.record("bench.request", due, done, rid)
                tracer.record("bench.wait", due, sent, rid, parent=root)
                tracer.record("bench.http", sent, done, rid, parent=root)
        return sample

    def _summarize(self, rows, rss: float) -> Sample:
        ladder = self.stream.layout["rungs"]
        first_due = min(r[0] for r in rows if r is not None)
        base_ns = first_due - int(self.jobs[0][0] * 1e9)
        per_rung: List[List[float]] = [[] for _ in ladder]
        unsent = [0] * len(ladder)
        counts = [0] * len(ladder)
        late: List[List[float]] = [[] for _ in ladder]
        done_max = first_due
        completed = 0
        ends = [end for _rate, _start, end in ladder]
        for (due_s, _path, _body), row in zip(self.jobs, rows):
            rung = min(bisect.bisect_right(ends, due_s), len(ladder) - 1)
            counts[rung] += 1
            if row is None:
                unsent[rung] += 1
                continue
            due, released, sent, done, status, _payload = row
            late[rung].append((released - due) / 1e6)
            per_rung[rung].append((done - due) / 1e6)
            completed += 1
            done_max = max(done_max, done)
            if sent > base_ns + int(ends[rung] * 1e9):
                unsent[rung] += 1
        rungs = []
        passing = []
        for k, (rate, _start, _end) in enumerate(ladder):
            tail_ms, pct = tail(per_rung[k]) if per_rung[k] else (float("inf"), 100.0)
            backlog = unsent[k] > HTTP_BACKLOG_SHARE * max(counts[k], 1)
            ok = tail_ms <= HTTP_SLO_MS and not backlog
            rungs.append({"rate": rate, "requests": counts[k], "tail_ms": tail_ms,
                          "tail_pct": pct, "backlog": backlog, "ok": ok})
            passing.append(ok)
        report_index = self.stream.layout["report_rung"]
        climb = [k for k in range(len(rungs)) if k != self.stream.layout["drift_rung"]]
        slo = 0.0
        for position, k in enumerate(climb):
            if not passing[k]:
                if position > 0:
                    low, high = rungs[climb[position - 1]], rungs[k]
                    span = high["tail_ms"] - low["tail_ms"]
                    share = (HTTP_SLO_MS - low["tail_ms"]) / span if span > 0 and high["tail_ms"] != float("inf") else 0.0
                    slo = low["rate"] + (high["rate"] - low["rate"]) * max(0.0, min(1.0, share))
                break
        else:
            slo = float(ladder[-1][0])
        sample = Sample(
            per_rung[report_index], completed, (done_max - first_due) / 1e9, rss,
            slo_rate_qps=slo,
        )
        # Past the SLO rate the client shares two cores with an
        # overloaded door, so its lateness there says nothing; the run's
        # validity rests on the rungs that passed.
        judged = sorted(x for k in range(len(rungs)) if passing[k] for x in late[k])
        sample.report["late_ms_p99"] = judged[int(0.99 * (len(judged) - 1))] if judged else 0.0
        sample.report["rungs"] = rungs
        self.passing_jobs = {
            number for number, (due_s, _p, _b) in enumerate(self.jobs)
            if passing[min(bisect.bisect_right(ends, due_s), len(ladder) - 1)]
        }
        sample.items = sum(len(self.job_items[n]) for n in self.passing_jobs)
        return sample

    def check(self) -> List[str]:
        checker = self.checker = Checker()
        stream = self.stream
        warm_count = stream.layout["warm_bases"]
        self.post_drift_misses = 0
        for (due, path, _body), members, row in zip(self.jobs, self.job_items, self.rows):
            if row is None:
                continue
            status, payload = row[4], row[5]
            if status != 200:
                checker.failure(f"{path} answered {status}")
                continue
            reply = json.loads(payload)
            results = (
                [r.get("result") for r in reply["results"]]
                if path.endswith("batch") else [reply.get("result")]
            )
            for index, result in zip(members, results):
                item = stream.items[index]
                name = stream.bases[item.base].name
                if result is None or result.get("plan") is None:
                    checker.failure(f"{name}: no plan")
                    continue
                drifted = item.epoch == 1
                if drifted and item.base < warm_count:
                    if result["signature"] == self.pre_drift_signature[item.base]:
                        checker.failure(f"{name}: stale serve after drift")
                        continue
                    self.post_drift_misses += not result["cache_hit"]
                catalog = item.catalog
                details = result.get("details", {})
                plan = serialize.plan_from_dict(result["plan"])
                served = "dpconv" if details.get("rung") == "dpconv" else "auto"
                checker.note((item.base, drifted), catalog, plan.cost,
                             exact=not details.get("degraded"), served_by=served,
                             plan=plan, label=name)
        return checker.finish()


WORKLOADS = {
    cls.name: cls for cls in (EngineCold, ServiceWarm, BatchDense, HttpMixed)
}
