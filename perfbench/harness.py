"""Run one workload: measure, trace, check, and report.

Imported by ``run.py`` only after its set-up clock has started, so the
program's imports count toward ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import spans
import streams
import workloads
from repro import bitset
from repro.bench.report import bench_environment
from repro.catalog.workload import uniform_statistics
from repro.enumeration.mincutbranch import MinCutBranch
from repro.graph.query_graph import QueryGraph
from repro.optimizer.api import make_optimizer
from repro.optimizer.native import native_backend_status

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

#: Untraced and traced segments of a traced in-process run (alternating).
TRACE_SEGMENTS = 6

#: Metric name -> unit, in the order ``BENCHMARK.json`` lists them.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
}


def make(args):
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.HttpMixed:
        return cls(args.seed, args.seconds, ROOT, inject_stale=args.inject == "stale")
    return cls(args.seed, args.seconds, ROOT)


def inject_wrong_cost() -> None:
    """Make the entry points return their third answer with a cost off by 1e-6."""
    from repro.optimizer import api
    from repro.service.core import OptimizerService

    count = [0]

    def corrupt(result):
        count[0] += 1
        if count[0] == 3 and result.plan is not None:
            result.plan = dataclasses.replace(result.plan, cost=result.plan.cost * (1 + 1e-6))
        return result

    def wrap(owner, attr, batch=False):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            if batch:
                for result in out:
                    corrupt(result)
                return out
            return corrupt(out)

        setattr(owner, attr, wrapper)

    wrap(api, "optimize_request")
    wrap(OptimizerService, "optimize")
    wrap(OptimizerService, "optimize_batch", batch=True)


#: A busy loop that only runs when nothing else wants the core.  It exits
#: at once if the scheduler refuses the idle class, and when its parent
#: is gone.
_SPIN = """
import os, sys
parent = os.getppid()
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)
while os.getppid() == parent:
    for _ in range(1000000):
        pass
"""


class IdleSpinners:
    """One ``SCHED_IDLE`` busy loop per core while the block runs.

    Whenever a measured process blocks (an HTTP round trip wakes four of
    them, a batch's threads hand off the interpreter lock) its core may
    halt, and on a virtual machine how long a halted core takes to wake
    is the hypervisor's business: it moved http-mixed's 50/s-rung p50
    between 4 and 9 ms from run to run.  Cores that never halt take that
    out of the measurement.  The loops get only time no other process
    wants, so they take no capacity from the program or the client.
    """

    def __init__(self, count: int):
        self.count = count
        self.processes: List[subprocess.Popen] = []

    def __enter__(self) -> "IdleSpinners":
        self.processes = [
            subprocess.Popen([sys.executable, "-c", _SPIN]) for _ in range(self.count)
        ]
        return self

    def __exit__(self, *exc) -> None:
        for process in self.processes:
            process.kill()
        for process in self.processes:
            process.wait()


@dataclass
class Outcome:
    sample: workloads.Sample
    failures: List[str]
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    shares: Dict[str, float] = field(default_factory=dict)
    selfcheck: Dict[str, bool] = field(default_factory=dict)


# ----------------------------------------------------------------------
# measuring


def measure(workload, args) -> Outcome:
    if args.inject == "wrong-cost":
        inject_wrong_cost()
    if not args.trace:
        with IdleSpinners(workloads.NPROC):
            sample = workload.run(args.seconds)
        return Outcome(sample, workload.check())
    with IdleSpinners(workloads.NPROC):
        if isinstance(workload, workloads.HttpMixed):
            return _measure_http_traced(workload, args)
        return _measure_traced(workload, args)


def _measure_traced(workload, args) -> Outcome:
    # Untraced and traced segments alternate, so drift in the host's
    # speed hits both sides of the overhead comparison alike.
    tracer = spans.Tracer()
    segments: Dict[bool, List[workloads.Sample]] = {False: [], True: []}
    start = 0
    for index in range(TRACE_SEGMENTS):
        traced = index % 2 == 1
        if traced:
            spans.install(tracer)
        try:
            sample = workload.run(args.seconds / TRACE_SEGMENTS,
                                  tracer if traced else None, start=start)
        finally:
            tracer.uninstall()
        start += sample.calls
        segments[traced].append(sample)
    failures = workload.check()
    plain, traced = _merge(segments[False]), _merge(segments[True])
    overhead = _mean(traced.latencies_ms) / _mean(plain.latencies_ms) - 1.0
    outcome = Outcome(traced, failures)
    _layer_metrics(outcome, workload, spans.Breakdown(tracer.spans), overhead)
    return outcome


def _merge(samples: List[workloads.Sample]) -> workloads.Sample:
    merged = workloads.Sample([], 0, 0.0, 0.0)
    for sample in samples:
        merged.latencies_ms += sample.latencies_ms
        merged.completed += sample.completed
        merged.elapsed_s += sample.elapsed_s
        merged.items += sample.items
        merged.calls += sample.calls
        merged.peak_rss_mb = max(merged.peak_rss_mb, sample.peak_rss_mb)
        for key, value in sample.report.items():
            merged.report[key] = merged.report.get(key, 0) + value
    return merged


def _measure_http_traced(workload, args) -> Outcome:
    """Traced ladder on a door started with the wrappers installed.

    The tracing overhead is measured by alternating batches of sequential
    warm requests between the untraced door from set-up and the traced
    one, both alive at once, so host drift hits both sides alike.
    """
    trace_dir = os.path.join(OUT, f"spans-{workload.name}-{args.seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    untraced = workload.door
    plain, traced = [], []
    try:
        workload.boot(trace_dir)
        for _ in range(5):
            plain.append(workload.probe_ms(untraced))
            traced.append(workload.probe_ms(workload.door))
    finally:
        untraced.stop()
    tracer = spans.Tracer()
    sample = workload.run(args.seconds, tracer)
    workload.close()
    failures = workload.check()
    remote = spans.load(glob.glob(os.path.join(trace_dir, "*.json")))
    # Only rungs below the SLO rate: past it, time spent queueing for a
    # connection swamps every layer.
    kept = {f"r{n}" for n in workload.passing_jobs}
    breakdown = spans.Breakdown(tracer.spans, remote,
                                keep=lambda rid: bool(rid) and rid.split("/")[0] in kept)
    outcome = Outcome(sample, failures)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    _layer_metrics(outcome, workload, breakdown, overhead)
    return outcome


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _p(values: List[float], q: float = 50.0) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))]


# ----------------------------------------------------------------------
# per-layer metrics


def _partition_pass(graph: QueryGraph) -> Tuple[float, int]:
    """Fig. 9's method: time MinCutBranch over every set the memo solved.

    Returns ``(milliseconds, ccps)`` for one standalone partitioning pass
    with no pricing (best of three).  Pairs are consumed through
    ``partitions_into`` with a counting callback, the way the fast kernel
    consumes them, so the pass does not pay for the list ``partitions``
    builds.
    """
    optimizer = make_optimizer("tdmincutbranch", uniform_statistics(graph))
    optimizer.optimize()
    sets = [
        entry.vertex_set for entry in optimizer.builder.memo.entries()
        if bitset.popcount(entry.vertex_set) >= 2
    ]
    best = float("inf")
    count = [0]

    def emit(_left, _right) -> None:
        count[0] += 1

    for _ in range(3):
        partitioner = MinCutBranch(graph)
        count[0] = 0
        begin = time.perf_counter()
        for vertex_set in sets:
            partitioner.partitions_into(vertex_set, emit)
        best = min(best, time.perf_counter() - begin)
    return best * 1e3, count[0]


def _layer_metrics(outcome: Outcome, workload, breakdown: spans.Breakdown,
                   overhead: float) -> None:
    sample = outcome.sample
    b = breakdown
    m: Dict[str, Tuple[float, str]] = {}
    items = max(sample.items, 1)
    us = lambda name: [d * 1e3 for d in b.durations_ms(name)]  # noqa: E731

    # frontdoor and sharding (http-mixed only)
    by_rid = {s[spans.RID]: s for s in b.named("core.optimize")}
    shard_ms = {rid: (s[spans.END] - s[spans.START]) / 1e6 for rid, s in by_rid.items()}
    http = b.named("bench.http")
    rtt = [(s[spans.END] - s[spans.START]) / 1e6 for s in http]
    outside = [
        (s[spans.END] - s[spans.START]) / 1e6 - shard_ms[s[spans.RID]]
        for s in http if s[spans.RID] in shard_ms
    ]
    report = sample.report
    hits, misses = report.get("route_memo_hits", 0.0), report.get("route_memo_misses", 0.0)
    m["frontdoor.rtt_ms_p50"] = (_p(rtt), "ms")
    m["frontdoor.outside_shard_ms_p50"] = (_p(outside), "ms")
    m["frontdoor.route_memo_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["frontdoor.rejected"] = (report.get("rejected", 0.0), "count")
    submits = [s for s in b.named("sharding.submit") if s[spans.RID] is not None]
    submit_ms = [(s[spans.END] - s[spans.START]) / 1e6 for s in submits]
    wait_ms = [
        (s[spans.END] - s[spans.START]) / 1e6 - shard_ms[s[spans.RID]]
        for s in submits if s[spans.RID] in shard_ms
    ]
    events = sorted([(s[spans.START], 1) for s in submits] + [(s[spans.END], -1) for s in submits])
    inflight = peak = 0
    for _t, step in events:
        inflight += step
        peak = max(peak, inflight)
    per_shard: Dict[int, int] = {}
    for (pid, _sid), span in b.spans.items():
        if span[spans.NAME] == "core.optimize":
            per_shard[pid] = per_shard.get(pid, 0) + 1
    m["sharding.submit_ms_p50"] = (_p(submit_ms), "ms")
    m["sharding.wait_ms_p50"] = (_p(wait_ms), "ms")
    m["sharding.inflight_max"] = (float(peak), "count")
    m["sharding.restarts"] = (float(report.get("restarts", 0)), "count")
    m["sharding.max_shard_share"] = (
        max(per_shard.values()) / sum(per_shard.values())
        if http and per_shard else 0.0, "ratio")

    # serialize, core, canonical, cache
    m["serialize.decode_us_p50"] = (_p(us("serialize.decode")), "us")
    m["serialize.encode_us_p50"] = (_p(us("serialize.encode")), "us")
    m["serialize.calls"] = (float(len(b.named("serialize.decode")) + len(b.named("serialize.encode"))), "count")
    signature = b.durations_ms("core.signature")
    m["core.optimize_us_p50"] = (_p(us("core.optimize")), "us")
    m["core.signature_us_p50"] = (_p([d * 1e3 for d in signature]), "us")
    m["core.signature_calls"] = (len(signature) / items, "per_request")
    m["core.signature_share"] = (sum(signature) / b.root_ms() if b.root_ms() else 0.0, "ratio")
    m["canonical.form_us_p50"] = (_p(us("canonical.form")), "us")
    m["canonical.form_calls"] = (float(len(b.named("canonical.form"))), "count")
    gets = b.named("cache.get")
    cache_hits = sum(1 for s in gets if s[spans.ATTRS] and s[spans.ATTRS]["hit"])
    m["cache.get_us_p50"] = (_p(us("cache.get")), "us")
    m["cache.hits"] = (float(cache_hits), "count")
    m["cache.misses"] = (float(len(gets) - cache_hits), "count")
    m["cache.hit_ratio"] = (cache_hits / len(gets) if gets else 0.0, "ratio")
    m["cache.puts"] = (float(len(b.named("cache.put"))), "count")
    m["cache.evictions"] = (float(report.get("cache_evictions", 0)), "count")

    # resilience and executor
    rungs: Dict[str, int] = {}
    for name in ("core.optimize", "executor.batch"):
        for span in b.named(name):
            for rung, count in ((span[spans.ATTRS] or {}).get("rungs") or {}).items():
                rungs[rung] = rungs.get(rung, 0) + count
    m["resilience.estimate_us_p50"] = (_p(us("resilience.estimate")), "us")
    for rung in ("exact", "dpconv", "anytime", "ikkbz", "goo"):
        m[f"resilience.rung.{rung}"] = (float(rungs.get(rung, 0)), "count")
    m["resilience.breaker_open"] = (float(rungs.get("breaker_open", 0)), "count")
    batches = b.named("executor.batch")
    busy = []
    efficiency_num = efficiency_den = 0.0
    for (pid, sid), span in b.spans.items():
        if span[spans.NAME] != "executor.batch":
            continue
        inside = [
            (s[spans.END] - s[spans.START]) / 1e6
            for key, s in b.spans.items()
            if s[spans.NAME] == "optimizer.enumerate" and b.parent.get(key) == (pid, sid)
        ]
        wall = (span[spans.END] - span[spans.START]) / 1e6
        busy.append(sum(inside))
        efficiency_num += sum(inside)
        efficiency_den += wall * workloads.NPROC
    m["executor.batch_ms_p50"] = (_p(b.durations_ms("executor.batch")), "ms")
    m["executor.items_busy_ms"] = (_p(busy), "ms")
    m["executor.parallel_efficiency"] = (efficiency_num / efficiency_den if batches else 0.0, "ratio")
    m["executor.timeouts"] = (float(report.get("timeouts", 0)), "count")

    # optimizer, dpconv, enumeration, plan
    enumerate_spans = b.named("optimizer.enumerate")
    enumerate_ms = [(s[spans.END] - s[spans.START]) / 1e6 for s in enumerate_spans]
    attrs = [s[spans.ATTRS] or {} for s in enumerate_spans]
    ccps = sum(a.get("ccps", 0) for a in attrs)
    m["optimizer.enumerate_ms_p50"] = (_p(enumerate_ms), "ms")
    m["optimizer.ccps"] = (float(ccps), "count")
    m["optimizer.cost_evaluations"] = (float(sum(a.get("cost_evals", 0) for a in attrs)), "count")
    m["optimizer.memo_entries"] = (float(sum(a.get("memo", 0) for a in attrs)), "count")
    m["optimizer.ccps_per_ms"] = (ccps / sum(enumerate_ms) if enumerate_ms else 0.0, "ccps/ms")
    for kernel in ("fast", "reference"):
        m[f"optimizer.kernel.{kernel}"] = (float(sum(1 for a in attrs if a.get("kernel") == kernel)), "count")
    dpconv_spans = b.named("dpconv.enumerate")
    m["dpconv.enumerate_ms_p50"] = (_p(b.durations_ms("dpconv.enumerate")), "ms")
    for backend in ("c", "numpy", "python"):
        m[f"dpconv.backend.{backend}"] = (float(sum(
            1 for s in dpconv_spans if (s[spans.ATTRS] or {}).get("backend") == backend)), "count")
    m["dpconv.split_work"] = (float(sum((3 ** (s[spans.ATTRS] or {}).get("n", 0)) // 2
                                        for s in dpconv_spans)), "count")
    passes: Dict[str, Tuple[float, int]] = {}
    partition_ms, pricing_ms = [], []
    for span, a in zip(enumerate_spans, attrs):
        if "edges" not in a:
            continue
        # Relabelings of one query share the pass: its cost does not
        # depend on the vertex numbering.
        graph = QueryGraph(a["n"], [tuple(e) for e in a["edges"]])
        key = graph.canonical_signature()
        if key not in passes:
            passes[key] = _partition_pass(graph)
        partition_ms.append(passes[key][0])
        pricing_ms.append((span[spans.END] - span[spans.START]) / 1e6 - passes[key][0])
    pass_ms = sum(v[0] for v in passes.values())
    pass_ccps = sum(v[1] for v in passes.values())
    m["enumeration.partition_ms"] = (_p(partition_ms), "ms")
    m["enumeration.ns_per_ccp"] = (pass_ms * 1e6 / pass_ccps if pass_ccps else 0.0, "ns/ccp")
    m["plan.pricing_ms"] = (_p(pricing_ms), "ms")
    m["plan.extract_us_p50"] = (_p(us("plan.extract")), "us")

    # harness
    m["loadgen.late_ms_p99"] = (float(report.get("late_ms_p99", 0.0)), "ms")
    m["loadgen.connections"] = (float(workloads.NPROC if http else 1), "count")
    m["trace.coverage_frac"] = (b.coverage(), "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")

    # where the time goes: layer self time, partitioning split out of
    # the optimizer layer (derived from the standalone pass above)
    selfs = b.layer_self_ms()
    moved = min(sum(partition_ms), selfs.get("optimizer", 0.0))
    if moved:
        selfs["optimizer"] -= moved
        selfs["enumeration"] = moved
    total = sum(selfs.values())
    for layer in spans.LAYERS:
        share = selfs.get(layer, 0.0) / total if total else 0.0
        outcome.shares[layer] = share
        m[f"self_share.{layer}"] = (share, "ratio")
    outcome.layers = m


# ----------------------------------------------------------------------
# self-check, provenance, output


def selfcheck(workload, args, outcome: Outcome) -> Dict[str, bool]:
    """Each workload exercises the layers it was chosen for, and no others."""
    checks: Dict[str, bool] = {}
    sample, layers = outcome.sample, outcome.layers
    name = args.workload
    if name == "service-warm":
        checks["hit_ratio>=0.99"] = workload.hits / max(workload.checker.attempted, 1) >= 0.99
        checks["no_enumeration_after_warmup"] = sample.report.get("cache_misses", 0) == 0
    if name == "batch-dense":
        served = sum(workload.rungs.values())
        checks["most_items_on_dpconv"] = workload.rungs.get("dpconv", 0) > served / 2
        checks["backend_recorded"] = bool(workload.backends)
    if name == "http-mixed":
        checks["drift_invalidated"] = workload.post_drift_misses >= 1
        checks["route_memo_misses>0"] = sample.report.get("route_memo_misses", 0) > 0
    if args.trace:
        count = lambda key: layers[key][0]  # noqa: E731
        checks["coverage>=0.95"] = count("trace.coverage_frac") >= 0.95
        if name == "engine-cold":
            checks["no_core_cache_frontdoor_calls"] = (
                count("core.optimize_us_p50") == 0
                and count("cache.hits") + count("cache.misses") + count("cache.puts") == 0
                and count("frontdoor.rtt_ms_p50") == 0
            )
        if name == "service-warm":
            checks["trace_hit_ratio>=0.99"] = count("cache.hit_ratio") >= 0.99
            checks["trace_no_enumeration"] = count("optimizer.enumerate_ms_p50") == 0
    return checks


def provenance(workload, args) -> Dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stream_sha256": streams.stream_hash(workload.stream),
        "environment": bench_environment(),
        "backend_resolution": native_backend_status()["resolved"],
        "nproc": workloads.NPROC,
        "primary_seed": streams.PRIMARY_SEED,
        "heldout_seed": streams.HELDOUT_SEED,
    }


def finish(workload, args, outcome: Outcome, setup_s: float, setups: List[float]) -> int:
    sample = outcome.sample
    checker = workload.checker
    failures = list(outcome.failures)
    attempted = checker.attempted
    late = sample.report.get("late_ms_p99", 0.0)
    invalid = late > workloads.HTTP_MAX_LATE_MS
    outcome.selfcheck = selfcheck(workload, args, outcome)
    windows = int(sample.elapsed_s) if getattr(workload, "tail_per_second", False) else 1
    tail, tail_pct = workloads.tail(sample.latencies_ms, max(windows, 1))
    e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(sample.latencies_ms),
        "latency_tail_ms": tail,
        "throughput_qps": sample.completed / sample.elapsed_s,
        "peak_rss_mb": sample.peak_rss_mb,
    }
    correct = not failures and all(outcome.selfcheck.values()) and not invalid
    doc = {
        "provenance": provenance(workload, args),
        "end_to_end": e2e,
        "failed_frac": len(failures) / max(attempted, 1),
        "slo_rate_qps": sample.slo_rate_qps,
        "tail_percentile": tail_pct,
        "samples": len(sample.latencies_ms),
        "setup_samples_s": setups,
        "report": sample.report,
        "selfcheck": outcome.selfcheck,
        "oracle_engines": checker.engines,
        "failures": failures[:50],
        "generator_fell_behind": invalid,
        "per_layer": {k: v for k, (v, _u) in outcome.layers.items()},
        "oracle": checker.engines,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, default=str)
    if args.trace:
        with open(os.path.join(OUT, f"shares-{args.workload}.json"), "w") as handle:
            json.dump(outcome.shares, handle)
        render_chart()
    _print_report(args, doc, outcome)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in outcome.layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def _print_report(args, doc: Dict, outcome: Outcome) -> None:
    p = doc["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"stream={p['stream_sha256'][:16]} backend={p['backend_resolution']} nproc={p['nproc']}")
    e2e = doc["end_to_end"]
    if not args.trace:
        for name, unit in END_TO_END.items():
            print(f"  {name:24s} {e2e[name]:12.4f} {unit}")
        print(f"  {'failed_frac':24s} {doc['failed_frac']:12.4f} ratio")
        if doc["slo_rate_qps"] is not None:
            print(f"  {'slo_rate_qps':24s} {doc['slo_rate_qps']:12.4f} 1/s")
        print(f"  tail percentile p{doc['tail_percentile']:.2f} of {doc['samples']} samples")
    else:
        for name, (value, unit) in outcome.layers.items():
            print(f"  {name:34s} {value:14.4f} {unit}")
    for name, ok in doc["selfcheck"].items():
        print(f"  selfcheck {name}: {'ok' if ok else 'FAILED'}")
    for failure in doc["failures"][:10]:
        print(f"  FAILED {failure}")
    if doc["generator_fell_behind"]:
        print("  INVALID: the load generator fell behind its schedule")


def render_chart() -> None:
    """Stacked bar of per-layer self-time shares, one bar per traced workload."""
    from repro.bench.svg import stacked_bar_chart

    labels, rows = [], []
    for name in streams.WORKLOADS:
        path = os.path.join(OUT, f"shares-{name}.json")
        if os.path.exists(path):
            with open(path) as handle:
                rows.append(json.load(handle))
            labels.append(name)
    series = {layer: [row.get(layer, 0.0) for row in rows] for layer in spans.LAYERS}
    series = {k: v for k, v in series.items() if any(v)}
    svg = stacked_bar_chart(labels, series, "Where the time goes (self-time share per layer)",
                            xlabel="workload", ylabel="share of traced time")
    with open(os.path.join(OUT, "where-the-time-goes.svg"), "w") as handle:
        handle.write(svg)
