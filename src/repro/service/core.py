"""The long-lived optimizer service: cached, batched, observable.

:class:`OptimizerService` is the serving-layer counterpart of
:func:`repro.optimizer.api.optimize_request`.  It keeps a bounded LRU of
optimized plans keyed by :func:`request_signature` — a canonical digest
of everything that determines the answer:

* the query graph's **canonical form** (degree-refinement labeling from
  :mod:`repro.graph.canonical`), so isomorphic relabelings share a key;
* the **statistics rounded** to a configurable number of significant
  digits, serialized in canonical vertex order — near-identical
  workloads share plans, materially different ones do not;
* the **cost model** class *and its parameters* (via
  :meth:`~repro.cost.base.CostModel.signature_fields`), the **algorithm**
  (with ``"auto"`` resolved first), the **pruning flag**, and the
  **cross-product flag**.

Cached plans are stored in canonical vertex space and rebound to each
requesting query's numbering and relation names on a hit, so a hit costs
one canonical labeling plus a tree copy — orders of magnitude below
enumeration for anything non-trivial.

Every request runs through one pipeline — prepare (canonicalize + cache
lookup) → admit → complete (degraded rung, or enumerate → store) — on
one of two transports: in-process ``"serial"`` (``optimize`` and the
default batch executor) or the ``"process"`` pool
(:mod:`repro.service.executor`), which ships only the exact enumeration
to worker processes.  The process pool is the one that uses multiple
cores and the only one that can reclaim a hung, non-cooperative engine;
the cache, admission and ladder always live in the parent, so results
are identical across transports.  A batch ``deadline_seconds`` is
shipped into each item's request as a cooperative engine budget, so
budget-capable engines stop themselves and salvage.

On top of that sits the **resilience layer**
(:mod:`repro.service.resilience`): before any exact enumeration the
service estimates the search-space size (#ccp) and compares it against
the configured admission budget, consults the per-algorithm-label
**circuit breaker**, and — when either says exact is unaffordable —
serves the request from a **degradation ladder** rung instead
(IKKBZ for acyclic graphs, GOO otherwise), recording the rung and the
reason on the result's ``details`` and in the metrics.  Transient
process-worker failures are retried with exponential backoff under a
per-batch budget, and a deterministic fault-injection layer
(:mod:`repro.service.faults`) lets the chaos tests script worker
crashes, hangs, corrupted payloads, and latency spikes.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import bitset
from repro.catalog.statistics import Catalog
from repro.catalog.workload import QueryInstance
from repro.cost.base import CostModel
from repro.errors import (
    DeadlineExceededError,
    ErrorInfo,
    OptimizationError,
    ReproError,
)
from repro.graph.canonical import canonical_form, signature_of_form
from repro.graph.query_graph import QueryGraph
from repro.optimizer.api import (
    OptimizationRequest,
    OptimizationResult,
    choose_algorithm,
    make_optimizer,
    optimize_request,
)
from repro.plan.jointree import JoinTree
from repro.serialize import request_to_dict, result_from_dict
from repro.service.cache import CacheEntry, PlanCache
from repro.service.executor import (
    EXECUTORS,
    ProcessPoolExecutor,
    cooperative_deadline,
)
from repro.service.faults import FaultInjector
from repro.service.metrics import ServiceMetrics
from repro.service.tracing import NULL_TRACE, Trace, Tracer, TraceStore
from repro.service.resilience import (
    CircuitBreaker,
    ResilienceConfig,
    RetryBudget,
    dpconv_admissible,
    estimate_ccps,
    heuristic_rung_for,
    run_rung,
)

__all__ = ["OptimizerService", "request_signature"]


def _round_significant(value: float, digits: int) -> float:
    """Round a finite value to ``digits`` significant figures.

    Signature-critical edge cases (these feed the cache key, so two
    different statistics must never collapse to one rounded value and a
    semantically identical pair must never diverge):

    * **zero** — both ``0.0`` and ``-0.0`` normalize to ``+0.0``;
      ``json.dumps`` renders ``-0.0`` as ``"-0.0"``, which would give two
      signatures for one statistic;
    * **negative** values round by the magnitude of their absolute value
      (``log10`` of the raw value would raise);
    * **denormals** — ``log10`` and ``round`` both handle subnormal
      floats, but the guard below keeps any value that would underflow
      the rounding grid to ``0.0`` at its original (distinct) value
      rather than colliding with true zero;
    * **huge integer statistics** beyond ``float`` range round exactly in
      integer space (``math.log10`` takes arbitrary ints; ``round`` on an
      int never overflows).
    """
    if value == 0:
        return 0.0
    magnitude = math.floor(math.log10(abs(value)))
    rounded = round(value, digits - 1 - magnitude)
    if rounded == 0:
        return value
    return rounded


def _is_finite_stat(value) -> bool:
    """True for usable statistics; huge ints beyond float range count.

    ``math.isfinite`` raises ``OverflowError`` on an int too large for a
    double — such a cardinality is still perfectly finite, and the
    signature math handles it exactly.
    """
    try:
        return math.isfinite(value)
    except OverflowError:
        return isinstance(value, int)


def request_signature(
    catalog: Catalog,
    algorithm: str,
    cost_model: Optional[CostModel] = None,
    enable_pruning: bool = False,
    round_digits: int = 4,
    allow_cross_products: bool = False,
    stats_epoch: int = 0,
) -> Tuple[str, Tuple[int, ...]]:
    """Return ``(signature, order)`` for a fully resolved request.

    ``signature`` is a hex digest over the canonical graph form, the
    rounded statistics in canonical order, the cost model class *and its
    parameters* (:meth:`~repro.cost.base.CostModel.signature_fields`),
    the algorithm name, the pruning flag, and the cross-product flag.
    A nonzero ``stats_epoch`` is mixed in as well, so a statistics
    refresh invalidates cached plans even when every refreshed value
    rounds back to the same ``round_digits`` quantum; epoch 0 is omitted
    from the payload so historical signatures (and persisted cache
    snapshots) stay valid.
    ``order`` is the canonical vertex order used (``order[p]`` = this
    catalog's vertex at canonical position ``p``), which the service
    needs to rebind cached plans.

    Rounded base cardinalities seed the labeling as vertex colors, so
    statistics both sharpen the canonical form (less symmetry to branch
    over) and participate in key identity.

    Statistics are validated here: a non-finite cardinality or
    selectivity raises :class:`~repro.errors.OptimizationError` naming
    the offending relation(s) instead of surfacing as a bare
    ``OverflowError``/``ValueError`` from the rounding math.
    """
    graph = catalog.graph
    n = graph.n_vertices
    for vertex in range(n):
        cardinality = catalog.cardinality(vertex)
        if not _is_finite_stat(cardinality):
            raise OptimizationError(
                f"non-finite cardinality {cardinality!r} for relation "
                f"{catalog.relations[vertex].name!r}; fix the catalog "
                "statistics before optimizing"
            )
    for (u, v) in graph.edges:
        selectivity = catalog.selectivity(u, v)
        if not _is_finite_stat(selectivity):
            raise OptimizationError(
                f"non-finite selectivity {selectivity!r} on the edge "
                f"between relations {catalog.relations[u].name!r} and "
                f"{catalog.relations[v].name!r}; fix the catalog "
                "statistics before optimizing"
            )
    cards = [
        _round_significant(catalog.cardinality(v), round_digits) for v in range(n)
    ]
    ranking = {c: i for i, c in enumerate(sorted(set(cards)))}
    order, edges = canonical_form(graph, initial_colors=[ranking[c] for c in cards])
    position = [0] * n
    for pos, vertex in enumerate(order):
        position[vertex] = pos
    canonical_sels = sorted(
        (
            min(position[u], position[v]),
            max(position[u], position[v]),
            _round_significant(catalog.selectivity(u, v), round_digits),
        )
        for (u, v) in graph.edges
    )
    payload = {
        "shape": signature_of_form(n, edges),
        "cards": [cards[order[p]] for p in range(n)],
        "sels": canonical_sels,
        "cost_model": type(cost_model).__name__ if cost_model else "default",
        "cost_model_params": (
            cost_model.signature_fields() if cost_model else {}
        ),
        "algorithm": algorithm,
        "pruning": bool(enable_pruning),
        "cross_products": bool(allow_cross_products),
    }
    if stats_epoch:
        payload["stats_epoch"] = int(stats_epoch)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), order


def _rebind_plan(
    node: JoinTree,
    vertex_of_position: Sequence[int],
    catalog: Optional[Catalog],
) -> JoinTree:
    """Map a plan between vertex spaces through ``vertex_of_position``.

    With a ``catalog``, leaf relation names are taken from it (canonical →
    query space); with ``None`` leaves get ``C<position>`` placeholders
    (query → canonical space, for storage).
    """
    mapped_set = 0
    for pos in bitset.iter_indices(node.vertex_set):
        mapped_set |= 1 << vertex_of_position[pos]
    if node.is_leaf:
        vertex = mapped_set.bit_length() - 1
        name = catalog.relations[vertex].name if catalog else f"C{vertex}"
        return JoinTree(
            vertex_set=mapped_set,
            cardinality=node.cardinality,
            cost=node.cost,
            relation=name,
        )
    return JoinTree(
        vertex_set=mapped_set,
        cardinality=node.cardinality,
        cost=node.cost,
        left=_rebind_plan(node.left, vertex_of_position, catalog),
        right=_rebind_plan(node.right, vertex_of_position, catalog),
        implementation=node.implementation,
    )


@dataclass
class _PreparedJob:
    """One batch item after parent-side resolution and cache lookup.

    ``hit`` is the ready cache-hit result (``run_request`` then never
    runs); otherwise ``run_request`` is the fully resolved request —
    catalog materialized, ``"auto"`` resolved, cost model injected — that
    an executor backend should feed to
    :func:`~repro.optimizer.api.optimize_request`.
    """

    request: OptimizationRequest
    run_request: OptimizationRequest
    catalog: Catalog
    effective: str
    signature: str
    order: Tuple[int, ...]
    hit: Optional[OptimizationResult] = None


class OptimizerService:
    """Long-lived optimization endpoint with caching and observability.

    Parameters
    ----------
    cache_capacity:
        Maximum number of cached plans (LRU beyond that).
    default_algorithm:
        Registry name (or ``"auto"``) used when a raw query — rather than
        an :class:`OptimizationRequest` — is submitted.
    default_cost_model:
        Cost model injected into requests that carry none.
    round_digits:
        Significant digits statistics are rounded to for cache keying;
        lower values trade plan-quality fidelity for a higher hit rate.
    default_deadline_seconds:
        Wall-clock batch budget applied to batches that do not pass
        their own ``deadline_seconds`` (``None`` = no deadline).
    resilience:
        :class:`~repro.service.resilience.ResilienceConfig` with the
        admission budget, breaker, and retry knobs (``None`` = defaults:
        no admission budget, no retries, breaker armed at 5 consecutive
        failures).
    fault_injector:
        Chaos-test fault directives for the process executor
        (``None`` = read ``REPRO_FAULTS`` from the environment, which is
        empty in production).
    tracing:
        Record a per-request trace — a tree of timed spans (``prepare``
        → ``canonicalize`` → ``cache_lookup`` → ``admission`` →
        ``enumerate``/``degraded_rung`` → ``rebind`` → ``store``) — into
        the bounded in-memory store at ``service.traces``
        (:class:`~repro.service.tracing.TraceStore`).  On by default;
        overhead is gated under 5% on the warm-cache path by
        ``benchmarks/bench_observability.py``.
    trace_capacity:
        Finished traces retained by the store (oldest evicted beyond).
    slow_log_ms:
        Slow-request threshold in milliseconds: any request at least
        this slow is logged at ``WARNING`` on the stdlib logger
        ``repro.service.slow`` with a per-stage breakdown
        (``None`` = slow log off).

    The service is thread-safe: ``optimize`` may be called concurrently,
    and ``optimize_batch`` isolates per-item errors (a failing query
    yields a result with ``error`` set instead of poisoning the batch).
    """

    def __init__(
        self,
        cache_capacity: int = 512,
        default_algorithm: str = "auto",
        default_cost_model: Optional[CostModel] = None,
        round_digits: int = 4,
        default_deadline_seconds: Optional[float] = None,
        resilience: Optional[ResilienceConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        tracing: bool = True,
        trace_capacity: int = 256,
        slow_log_ms: Optional[float] = None,
    ):
        self.cache = PlanCache(cache_capacity)
        self.metrics = ServiceMetrics()
        self.default_algorithm = default_algorithm
        self.default_cost_model = default_cost_model
        self.round_digits = round_digits
        self.default_deadline_seconds = default_deadline_seconds
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.breaker = CircuitBreaker(
            threshold=self.resilience.breaker_threshold,
            cooldown_seconds=self.resilience.breaker_cooldown_seconds,
        )
        self.fault_injector = (
            fault_injector if fault_injector is not None else FaultInjector.from_env()
        )
        self.tracer = Tracer(
            store=TraceStore(trace_capacity),
            enabled=tracing,
            slow_log_ms=slow_log_ms,
        )

    @property
    def traces(self) -> TraceStore:
        """The bounded store of finished request traces."""
        return self.tracer.store

    # ------------------------------------------------------------------

    def _as_request(
        self,
        query: Union[OptimizationRequest, Catalog, QueryInstance, QueryGraph],
        **overrides,
    ) -> OptimizationRequest:
        if isinstance(query, OptimizationRequest):
            return replace(query, **overrides) if overrides else query
        overrides.setdefault("algorithm", self.default_algorithm)
        return OptimizationRequest(query=query, **overrides)

    def _effective_label(self, request: OptimizationRequest) -> str:
        """Resolve the metrics label for a request, ``"auto"`` included.

        Successes are recorded under the effective algorithm, so errors
        must be too — otherwise per-algorithm error rates are skewed by
        a phantom ``"auto"`` bucket.  Resolution itself is best-effort:
        if the query is too broken to resolve, the raw name is used.
        """
        if request.algorithm != "auto":
            return request.algorithm
        try:
            return choose_algorithm(
                request.resolved_catalog(), enable_pruning=request.enable_pruning
            )
        except Exception:
            return request.algorithm

    def optimize(
        self,
        query: Union[OptimizationRequest, Catalog, QueryInstance, QueryGraph],
        **overrides,
    ) -> OptimizationResult:
        """Optimize one query, consulting and feeding the plan cache.

        ``query`` may be a ready :class:`OptimizationRequest` (keyword
        overrides are applied on top) or any raw query object the request
        accepts.  Raises the library's usual typed errors on failure; use
        :meth:`optimize_batch` for isolated per-item errors.
        """
        return self._serve(self._as_request(query, **overrides), raise_errors=True)

    def _prepare(
        self, request: OptimizationRequest, trace: Trace = NULL_TRACE
    ) -> _PreparedJob:
        """Resolve a request and consult the cache (parent-side, cheap).

        Returns a :class:`_PreparedJob`; on a cache hit ``job.hit`` is
        the ready result and nothing needs to be executed.
        """
        started = time.perf_counter()
        with trace.span("prepare"):
            with trace.span("canonicalize") as span:
                catalog = request.resolved_catalog()
                cost_model = (
                    request.cost_model
                    if request.cost_model is not None
                    else self.default_cost_model
                )
                effective = request.algorithm
                if effective == "auto":
                    effective = choose_algorithm(
                        catalog, enable_pruning=request.enable_pruning
                    )
                signature, order = request_signature(
                    catalog,
                    effective,
                    cost_model,
                    request.enable_pruning,
                    self.round_digits,
                    allow_cross_products=request.allow_cross_products,
                    stats_epoch=request.stats_epoch,
                )
                span.annotate(
                    algorithm=effective,
                    n_relations=catalog.graph.n_vertices,
                    signature=signature[:16],
                )
            run_request = replace(
                request, query=catalog, cost_model=cost_model, algorithm=effective
            )
            job = _PreparedJob(
                request=request,
                run_request=run_request,
                catalog=catalog,
                effective=effective,
                signature=signature,
                order=tuple(order),
            )
            with trace.span("cache_lookup") as span:
                entry = self.cache.get(signature)
                span.set("hit", entry is not None)
            if entry is not None:
                with trace.span("rebind"):
                    plan = _rebind_plan(entry.plan, order, catalog)
                job.hit = OptimizationResult(
                    plan=plan,
                    algorithm=request.algorithm,
                    elapsed_seconds=time.perf_counter() - started,
                    memo_entries=entry.memo_entries,
                    cost_evaluations=entry.cost_evaluations,
                    cardinality_estimations=entry.cardinality_estimations,
                    details=dict(entry.details),
                    cache_hit=True,
                    signature=signature,
                    tag=request.tag,
                )
        return job

    def _store(self, job: _PreparedJob, result: OptimizationResult) -> None:
        """Cache a fresh result and stamp its service-layer fields."""
        position = [0] * job.catalog.graph.n_vertices
        for pos, vertex in enumerate(job.order):
            position[vertex] = pos
        self.cache.put(
            CacheEntry(
                signature=job.signature,
                plan=_rebind_plan(result.plan, position, None),
                algorithm=job.effective,
                memo_entries=result.memo_entries,
                cost_evaluations=result.cost_evaluations,
                cardinality_estimations=result.cardinality_estimations,
                details=dict(result.details),
            )
        )
        result.algorithm = job.request.algorithm
        result.signature = job.signature
        result.tag = job.request.tag

    # -- resilience: admission control and the degradation ladder ------

    def _select_degradation(
        self, job: _PreparedJob
    ) -> Optional[Tuple[str, str, Dict]]:
        """Decide whether this job must skip exact enumeration.

        Returns ``None`` to run the exact algorithm, else
        ``(rung, reason, extra_details)``.  The admission budget is
        checked *before* the breaker so that over-budget requests never
        consume a half-open probe slot.  When the breaker's ``allow``
        admits the job, the caller owes it a matching
        ``record_success``/``record_failure``.
        """
        graph = job.catalog.graph
        if graph.n_vertices <= 1 or not graph.is_connected(graph.all_vertices):
            # Trivial queries take the n<=1 fast path; disconnected ones
            # (without cross products) fail identically on every rung —
            # let the exact path raise its precise typed error.
            return None
        cfg = self.resilience
        if cfg.max_ccp_budget is not None:
            # With cross products enabled the client opted into a search
            # space bounded by the clique, not the raw predicate edges —
            # price that, or admission under-prices by orders of
            # magnitude (and used to crash on disconnected inputs).
            estimate = estimate_ccps(
                graph,
                cfg.admission_exact_max_n,
                allow_cross_products=job.run_request.allow_cross_products,
            )
            if estimate.ccps > cfg.max_ccp_budget:
                extra = {
                    "admission_estimate": estimate.ccps,
                    "admission_method": estimate.method,
                    "admission_budget": cfg.max_ccp_budget,
                }
                # Fast-exact rung: an over-budget request whose cost
                # model is symmetric and whose size fits the convolution
                # budget still gets the exact optimum — a cheaper engine,
                # not a cheaper answer.  A request that already resolved
                # to dpconv (or asked for pruning, which dpconv lacks)
                # degrades to the heuristics as before.
                if (
                    job.effective != "dpconv"
                    and not job.run_request.enable_pruning
                    and dpconv_admissible(
                        graph, job.run_request.cost_model, cfg
                    )
                ):
                    return ("dpconv", "over_budget", extra)
                # Anytime rung: instead of jumping straight to a
                # heuristic, run the requested exact engine under a
                # cooperative deadline — it either finishes (exact answer
                # after all) or salvages the partial memo into a plan
                # that is never worse than pure GOO.  Only engines that
                # advertise cooperative budgets qualify; anything else
                # would ignore the deadline and run to completion.
                if (
                    cfg.anytime_enabled
                    and self._anytime_deadline(job) is not None
                    and self._budget_capable(job)
                ):
                    return ("anytime", "over_budget", extra)
                return (heuristic_rung_for(graph), "over_budget", extra)
        if not self.breaker.allow(job.effective):
            return (heuristic_rung_for(graph), "breaker_open", {})
        return None

    def _anytime_deadline(self, job: _PreparedJob) -> Optional[float]:
        """Resolve the deadline an anytime run would use, or None.

        A request that carries its own ``deadline_seconds`` keeps it;
        otherwise the ladder applies the configured default.  ``None``
        means no deadline is available and the anytime rung must not be
        offered (an unbounded "anytime" run is just the exact run that
        admission already rejected).
        """
        if job.run_request.deadline_seconds is not None:
            return job.run_request.deadline_seconds
        return self.resilience.anytime_default_deadline_seconds

    def _budget_capable(self, job: _PreparedJob) -> bool:
        """True when the job's engine honours cooperative budgets.

        Probes the registry factory: construction is O(n) (builder +
        partitioner setup, no enumeration) and only happens on the rare
        over-budget admission path.  Plugins that never heard of budgets
        simply report False and degrade to the heuristics as before.
        """
        try:
            probe = make_optimizer(
                job.effective,
                job.catalog,
                cost_model=job.run_request.cost_model,
                enable_pruning=job.run_request.enable_pruning,
            )
        except ReproError:
            return False
        return bool(getattr(probe, "supports_budget", False))

    def _run_degraded(
        self, job: _PreparedJob, rung: str, reason: str, extra: Dict
    ) -> OptimizationResult:
        """Serve one request from a degradation ladder rung.

        The ``dpconv`` rung is *fast-exact*: it runs the full registry
        path (``optimize_request``) so counters, kernel provenance, and
        trace details arrive as usual, marks the result with
        ``fast_exact``/``rung``/``degrade_reason`` instead of
        ``degraded`` (the plan is still the exact optimum, only the
        engine changed), and — unlike the heuristic rungs — **is**
        cached.  If dpconv itself fails, the request falls through to
        the heuristics below.

        A heuristic result names the rung and the reason in ``details``
        and is **not** cached (the cache promises the exact optimum).  A
        rung failure is wrapped in the reason's typed error so callers
        can tell "the ladder had nothing for this query" apart from
        ordinary optimization failures.

        The ``anytime`` rung runs the requested exact engine under a
        cooperative deadline.  If the engine finishes inside the budget
        the answer is the exact optimum and is cached like any exact
        result; if the budget expires the salvaged plan is returned with
        ``rung == "anytime"`` and is **never** cached (the cache
        promises the exact optimum).  If the anytime run itself fails,
        the request falls through to the heuristics.
        """
        started = time.perf_counter()
        if rung in ("anytime", "dpconv"):
            if rung == "anytime":
                deadline = self._anytime_deadline(job)
                run_request = replace(job.run_request, deadline_seconds=deadline)
            else:
                run_request = replace(job.run_request, algorithm="dpconv")
            try:
                result = optimize_request(run_request)
            except ReproError:
                rung = heuristic_rung_for(job.catalog.graph)
            else:
                result.elapsed_seconds = time.perf_counter() - started
                if result.details.get("anytime"):
                    # Salvaged: a valid plan, at most the pure-GOO cost,
                    # but not the exact optimum — do not cache.
                    stamp = {"degraded": 1}
                    result.algorithm = job.request.algorithm
                    result.tag = job.request.tag
                else:
                    # The exact optimum from a cheaper engine, or from an
                    # engine that beat its deadline.  Cache first: the
                    # stored entry keeps clean enumeration details, while
                    # the returned result carries the ladder provenance
                    # for this serve only.
                    stamp = {"fast_exact": 1}
                    self._store(job, result)
                stamp.update(rung=rung, degrade_reason=reason)
                if rung == "anytime":
                    stamp["anytime_deadline_seconds"] = deadline
                result.details = {**result.details, **stamp, **extra}
                return result
        try:
            plan, rung_used = run_rung(rung, job.catalog)
        except ReproError as exc:
            from repro.errors import AdmissionError, CircuitOpenError

            error_type = (
                CircuitOpenError if reason == "breaker_open" else AdmissionError
            )
            raise error_type(
                f"request was degraded ({reason}) but the {rung!r} rung "
                f"failed too: {exc}"
            ) from exc
        details: Dict = {"degraded": 1, "rung": rung_used, "degrade_reason": reason}
        details.update(extra)
        return OptimizationResult(
            plan=plan,
            algorithm=job.request.algorithm,
            elapsed_seconds=time.perf_counter() - started,
            memo_entries=0,
            cost_evaluations=0,
            cardinality_estimations=0,
            details=details,
            tag=job.request.tag,
        )

    # -- the pipeline: prepare → admit → complete ----------------------

    def _admit(
        self, job: _PreparedJob, trace: Trace
    ) -> Optional[Tuple[str, str, Dict]]:
        """Admission step: the ladder rung to serve ``job`` from, or None."""
        with trace.span("admission") as span:
            degrade = self._select_degradation(job)
            span.set("admitted", degrade is None)
            span.set("breaker_state", self.breaker.state(job.effective))
            if degrade is not None:
                span.annotate(rung=degrade[0], reason=degrade[1], **degrade[2])
        return degrade

    def _ship_deadline(
        self, job: _PreparedJob, budget: Optional[float]
    ) -> OptimizationRequest:
        """The exact-enumeration request, carrying ``budget`` if it can stop.

        A budget-capable engine gets the tighter of its own deadline and
        the caller's remaining ``budget`` as a cooperative deadline, so
        it stops itself and salvages; any other engine runs as asked.
        """
        if budget is None or not self._budget_capable(job):
            return job.run_request
        ship, _ = cooperative_deadline(budget, job.run_request.deadline_seconds)
        return replace(job.run_request, deadline_seconds=ship)

    def _complete(
        self,
        job: _PreparedJob,
        degrade: Optional[Tuple[str, str, Dict]],
        trace: Trace,
        budget: Optional[float] = None,
    ) -> OptimizationResult:
        """Serve an admitted job in-process: ladder rung or exact run."""
        if degrade is not None:
            with trace.span("degraded_rung") as span:
                result = self._run_degraded(job, *degrade)
                span.annotate(
                    rung=result.details.get("rung"),
                    reason=result.details.get("degrade_reason"),
                    kernel=result.details.get("kernel"),
                    backend=result.details.get("backend"),
                )
            return result
        try:
            with trace.span("enumerate", algorithm=job.effective) as span:
                result = optimize_request(self._ship_deadline(job, budget))
                span.annotate(
                    memo_entries=result.memo_entries,
                    cost_evaluations=result.cost_evaluations,
                    cardinality_estimations=result.cardinality_estimations,
                    **result.details,
                )
        except Exception:
            self.breaker.record_failure(job.effective)
            raise
        return self._accept(job, result, trace)

    def _accept(
        self, job: _PreparedJob, result: OptimizationResult, trace: Trace
    ) -> OptimizationResult:
        """Credit the breaker with a finished exact run and cache it.

        A run whose own budget expired mid-run returns a salvaged plan:
        valid, but not the exact optimum the cache promises — it gets
        the service fields stamped and skips the store.
        """
        self.breaker.record_success(job.effective)
        if result.details.get("anytime"):
            result.algorithm = job.request.algorithm
            result.tag = job.request.tag
        else:
            with trace.span("store"):
                self._store(job, result)
        return result

    def _record_success(
        self,
        label: str,
        trace: Trace,
        elapsed: float,
        result: OptimizationResult,
        **extra,
    ) -> OptimizationResult:
        """Count a served result, stamp its trace id, and close its trace."""
        if result.cache_hit:
            self.metrics.observe(label, elapsed, cache_hit=True)
        else:
            details = result.details
            self.metrics.observe(
                label,
                elapsed,
                degraded=bool(details.get("degraded")),
                fast_exact=bool(details.get("fast_exact")),
                anytime=bool(details.get("anytime")),
                salvage_fraction=(details.get("salvage") or {}).get(
                    "memo_solved_fraction"
                ),
                kernel=details.get("kernel"),
                backend=details.get("backend"),
                **extra,
            )
        result.trace_id = trace.trace_id
        self.tracer.finish(trace, algorithm=label, cache_hit=result.cache_hit)
        return result

    def _record_error(
        self,
        request: OptimizationRequest,
        trace: Trace,
        elapsed: float,
        exc: BaseException,
    ) -> OptimizationResult:
        """Count a failed request, close its trace, and build its result."""
        label = self._effective_label(request)
        self.metrics.observe(label, elapsed, error=True)
        trace.set_root("error", f"{type(exc).__name__}: {exc}")
        self.tracer.finish(trace, algorithm=label)
        result = self._error_result(request.algorithm, request.tag, exc, elapsed)
        result.trace_id = trace.trace_id
        return result

    def _serve(
        self,
        request: OptimizationRequest,
        budget: Optional[float] = None,
        raise_errors: bool = False,
    ) -> OptimizationResult:
        """Run one request through the whole pipeline in this process.

        ``budget`` is the caller's remaining wall-clock budget, shipped
        to a budget-capable engine as its cooperative deadline.  Errors
        become an error result, or are re-raised with ``raise_errors``.
        """
        trace = self.tracer.start("optimize", tag=request.tag)
        started = time.perf_counter()
        try:
            job = self._prepare(request, trace=trace)
            result = job.hit
            if result is None:
                result = self._complete(
                    job, self._admit(job, trace), trace, budget
                )
        except Exception as exc:
            error = self._record_error(
                request, trace, time.perf_counter() - started, exc
            )
            if raise_errors:
                raise
            return error
        return self._record_success(
            job.effective, trace, time.perf_counter() - started, result
        )

    # ------------------------------------------------------------------

    def optimize_batch(
        self,
        queries: Iterable[
            Union[OptimizationRequest, Catalog, QueryInstance, QueryGraph]
        ],
        workers: int = 4,
        executor: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
    ) -> List[OptimizationResult]:
        """Optimize many queries, isolating per-item failures.

        Results come back in submission order.  An item that raises — a
        disconnected graph without ``allow_cross_products``, an unknown
        algorithm, a malformed query object of any type — produces an
        :class:`OptimizationResult` with ``plan=None`` and ``error`` set;
        the other items are unaffected.

        Parameters
        ----------
        workers:
            Process pool width (the serial executor ignores it).
        executor:
            ``"serial"`` (default) runs items one by one on the calling
            thread.  ``"process"`` runs the exact enumerations in worker
            processes — the only mode where CPU-bound enumeration uses
            multiple cores, and the only one that can reclaim a hung
            non-cooperative engine by recycling its worker.  It requires
            requests to be serializable (built-in cost models only).
            ``"thread"`` is a deprecated alias of ``"serial"``.
        deadline_seconds:
            Wall-clock budget (``None`` = service default), shipped to
            budget-capable engines as a cooperative deadline so they stop
            and salvage.  Serially it is one budget from batch start; an
            item reached after it is spent resolves to a
            ``DeadlineExceededError`` result without running.  In process
            mode each item gets it from dispatch, and a worker that
            misses it (plus the cooperative grace) is killed instead.
        """
        if executor == "thread":
            warnings.warn(
                "executor='thread' is deprecated; it runs the serial executor",
                DeprecationWarning,
                stacklevel=2,
            )
            executor = "serial"
        executor = executor or "serial"
        if executor not in EXECUTORS:
            raise OptimizationError(
                f"unknown executor {executor!r}; choose from {sorted(EXECUTORS)}"
            )
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline_seconds
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise OptimizationError(
                f"deadline_seconds must be positive, got {deadline_seconds}"
            )
        requests: List[Optional[OptimizationRequest]] = []
        slots: List[Optional[OptimizationResult]] = []
        for query in queries:
            try:
                requests.append(self._as_request(query))
                slots.append(None)
            except Exception as exc:
                # The query object itself is malformed — possibly not
                # even raising a library error (e.g. a TypeError from a
                # garbage object).  Synthesize the error result instead
                # of poisoning the batch.
                requests.append(None)
                slots.append(self._error_result("invalid", None, exc, 0.0))
                self.metrics.observe("invalid", 0.0, error=True)
        if executor == "serial":
            self._run_batch_serial(requests, slots, deadline_seconds)
        else:
            self._run_batch_process(requests, slots, workers, deadline_seconds)
        return slots  # type: ignore[return-value]

    def _run_batch_serial(
        self,
        requests: List[Optional[OptimizationRequest]],
        slots: List[Optional[OptimizationResult]],
        deadline_seconds: Optional[float],
    ) -> None:
        batch_started = time.monotonic()
        for index, request in enumerate(requests):
            if slots[index] is not None:
                continue
            budget = None
            if deadline_seconds is not None:
                budget = batch_started + deadline_seconds - time.monotonic()
                if budget <= 0:
                    slots[index] = self._deadline_result(
                        request, deadline_seconds, elapsed=0.0
                    )
                    continue
            slots[index] = self._serve(request, budget)

    def _run_batch_process(
        self,
        requests: List[Optional[OptimizationRequest]],
        slots: List[Optional[OptimizationResult]],
        workers: int,
        deadline_seconds: Optional[float],
    ) -> None:
        """Prepare and admit in the parent; ship only exact enumerations.

        Cache hits and ladder rungs are served here exactly as
        :meth:`_serve` would; the process pool only runs the enumerable
        jobs, whose worker spans are grafted into the parent's trace.
        """
        shipped: Dict[int, Tuple[_PreparedJob, Trace]] = {}
        documents: List[Tuple[int, Dict]] = []
        for index, request in enumerate(requests):
            if slots[index] is not None:
                continue
            trace = self.tracer.start("optimize", tag=request.tag)
            started = time.perf_counter()
            try:
                job = self._prepare(request, trace=trace)
                result = job.hit
                if result is None:
                    degrade = self._admit(job, trace)
                    if degrade is None:
                        document = self._job_document(
                            job, deadline_seconds, trace
                        )
                        shipped[index] = (job, trace)
                        documents.append((index, document))
                        continue
                    result = self._complete(job, degrade, trace)
            except Exception as exc:
                slots[index] = self._record_error(
                    request, trace, time.perf_counter() - started, exc
                )
                continue
            slots[index] = self._record_success(
                job.effective, trace, time.perf_counter() - started, result
            )
        if not documents:
            return
        cfg = self.resilience
        backend = ProcessPoolExecutor(
            workers=max(1, workers),
            deadline_seconds=deadline_seconds,
            retry_policy=cfg.retry_policy(),
            retry_budget=(
                RetryBudget(cfg.retry_budget_per_batch)
                if cfg.max_retries > 0
                else None
            ),
            fault_injector=self.fault_injector,
        )
        for index, outcome in backend.run(documents).items():
            job, trace = shipped[index]
            if outcome.spans:
                # Worker spans carry offsets relative to the job's start
                # in the worker; anchor them so they sit roughly where
                # the remote work happened on this process's timeline.
                trace.attach_serialized(
                    outcome.spans, elapsed_hint=outcome.elapsed_seconds
                )
            if outcome.retries:
                trace.set_root("retries", outcome.retries)
            if outcome.status == "ok":
                result = self._accept(
                    job, result_from_dict(outcome.document), trace
                )
                # A salvaged answer under a batch deadline is one the
                # pool would otherwise have had to hard-kill.
                slots[index] = self._record_success(
                    job.effective,
                    trace,
                    outcome.elapsed_seconds,
                    result,
                    retries=outcome.retries,
                    hard_kill_avoided=(
                        deadline_seconds is not None
                        and bool(result.details.get("anytime"))
                    ),
                )
                continue
            # A timeout, error or crash is a breaker failure: repeated
            # hangs on the same path open the circuit like crashes do.
            self.breaker.record_failure(job.effective)
            if outcome.status == "timeout":
                slots[index] = self._deadline_result(
                    job.request,
                    deadline_seconds,
                    label=job.effective,
                    elapsed=outcome.elapsed_seconds,
                    retries=outcome.retries,
                )
                trace.set_root("error", "deadline exceeded")
            else:  # "error" or "crashed"
                self.metrics.observe(
                    job.effective,
                    outcome.elapsed_seconds,
                    error=True,
                    retries=outcome.retries,
                )
                slots[index] = self._error_result(
                    job.request.algorithm,
                    job.request.tag,
                    outcome.error,
                    outcome.elapsed_seconds,
                )
                trace.set_root("error", outcome.error)
            slots[index].trace_id = trace.trace_id
            self.tracer.finish(
                trace, algorithm=job.effective, status=outcome.status
            )

    def _job_document(
        self,
        job: _PreparedJob,
        deadline_seconds: Optional[float],
        trace: Trace,
    ) -> Dict:
        """Serialize an admitted job's exact run for a worker process."""
        try:
            document = request_to_dict(self._ship_deadline(job, deadline_seconds))
        except Exception:
            # The breaker admitted this job (possibly as a half-open
            # probe); resolve the slot it holds.
            self.breaker.record_failure(job.effective)
            raise
        if trace.is_recording:
            # Trace context travels inside the job document; the worker
            # strips it before deserializing the request and returns its
            # spans in the outcome.
            document["trace"] = {"version": 1, "trace_id": trace.trace_id}
        return document

    def _deadline_result(
        self,
        request: OptimizationRequest,
        deadline_seconds: Optional[float],
        label: Optional[str] = None,
        elapsed: float = 0.0,
        retries: int = 0,
    ) -> OptimizationResult:
        """Count a timed-out item and build its ``DeadlineExceededError`` result."""
        label = label if label is not None else self._effective_label(request)
        self.metrics.observe(
            label, elapsed, error=True, timeout=True, retries=retries
        )
        exc = DeadlineExceededError(
            f"optimization exceeded the deadline of {deadline_seconds}s"
        )
        return self._error_result(request.algorithm, request.tag, exc, elapsed)

    @staticmethod
    def _error_result(algorithm, tag, exc, elapsed) -> OptimizationResult:
        """A failed result; ``exc`` may be a worker's "Type: message" string."""
        return OptimizationResult(
            plan=None,
            algorithm=algorithm,
            elapsed_seconds=elapsed,
            memo_entries=0,
            cost_evaluations=0,
            cardinality_estimations=0,
            error=(
                ErrorInfo.coerce(exc)
                if isinstance(exc, str)
                else ErrorInfo.from_exception(exc)
            ),
            tag=tag,
        )

    # ------------------------------------------------------------------

    def stats_snapshot(self) -> Dict:
        """Return a JSON-ready snapshot of cache, breaker, and request metrics."""
        from repro.optimizer.native import native_backend_status

        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.stats()
        snapshot["breaker"] = self.breaker.snapshot()
        snapshot["backends"] = native_backend_status()
        return snapshot

    def reset_stats(self) -> None:
        """Start a fresh metrics epoch (the cache contents survive; the
        circuit breaker keeps its state — it models path health, not an
        observation window)."""
        self.metrics.reset()

    def save_cache(self, path: str) -> int:
        """Persist the plan cache to a JSON file; returns entry count."""
        return self.cache.save(path)

    def load_cache(self, path: str) -> int:
        """Warm the plan cache from a JSON file; returns entries loaded."""
        return self.cache.load(path)
