"""Tests for batch execution backends: serial/process, deadlines.

Every request runs the same prepare → admit → complete pipeline; the
serial transport runs it in-process, the process transport ships only
the exact enumeration to worker processes — the one that truly
parallelizes CPU-bound enumeration and the only one that can reclaim a
hung item (by recycling the worker process).  These tests pin down
pipeline parity across ``optimize`` and both transports, deadline
semantics, the deprecated ``"thread"`` alias, cache behaviour across
executors, and worker-crash isolation.
"""

import os
import signal
import time

import pytest

from repro import (
    OptimizationRequest,
    OptimizerService,
    QueryGraph,
    chain_graph,
    uniform_statistics,
)
from repro.catalog.workload import WorkloadGenerator
from repro.cost.physical import PhysicalCostModel
from repro.errors import OptimizationError
from repro.optimizer.api import (
    register_algorithm,
    unregister_algorithm,
)
from repro.service import ResilienceConfig
from repro.service.executor import ChildProcess, ProcessPoolExecutor


def mixed_batch():
    """Healthy queries of several shapes plus a poisoned and a garbage item."""
    generator = WorkloadGenerator(seed=17)
    items = [
        OptimizationRequest(query=generator.fixed_shape("chain", 6), tag="chain"),
        OptimizationRequest(query=generator.fixed_shape("cycle", 6), tag="cycle"),
        uniform_statistics(QueryGraph(4, [(0, 1), (2, 3)])),  # disconnected
        OptimizationRequest(query=generator.fixed_shape("star", 6), tag="star"),
        42,  # garbage item mid-batch
        OptimizationRequest(query=generator.fixed_shape("clique", 6), tag="clique"),
    ]
    return items


def slow_request(n=13, tag="slow"):
    """A request whose exact enumeration takes seconds (naive partitioning
    on a clique is Theta(3^n) partitioner steps)."""
    instance = WorkloadGenerator(seed=5).fixed_shape("clique", n)
    return OptimizationRequest(
        query=instance, algorithm="memoizationbasic", tag=tag
    )


def slow_uncooperative_request(n=13, tag="slow"):
    """A slow request on a bottom-up engine with no cooperative-budget
    support: the executor's hard kill is the only way to reclaim it.
    (Top-down engines like ``memoizationbasic`` now honour batch
    deadlines cooperatively and return salvaged anytime plans instead —
    see tests/test_anytime.py.)"""
    instance = WorkloadGenerator(seed=5).fixed_shape("clique", n)
    return OptimizationRequest(query=instance, algorithm="dpsub", tag=tag)


def fast_request(tag="fast"):
    instance = WorkloadGenerator(seed=6).fixed_shape("chain", 5)
    return OptimizationRequest(query=instance, tag=tag)


def pipeline_batch():
    """One item per pipeline path, under an admission budget of 200 ccps.

    Returns ``(warm, items)``: ``warm`` must be optimized first so its
    repeat in ``items`` is a cache hit; the rest are an exact
    enumeration, an over-budget clique served exactly on the dpconv
    rung, an over-budget chain with an asymmetric cost model served on
    the IKKBZ heuristic rung, and a disconnected graph that fails.
    """
    generator = WorkloadGenerator(seed=17)
    warm = OptimizationRequest(query=generator.fixed_shape("chain", 6), tag="warm")
    items = [
        warm,
        OptimizationRequest(query=generator.fixed_shape("cycle", 6), tag="exact"),
        OptimizationRequest(
            query=generator.fixed_shape("clique", 10), tag="dpconv"
        ),
        OptimizationRequest(
            query=generator.fixed_shape("chain", 12),
            cost_model=PhysicalCostModel(),
            tag="heuristic",
        ),
        OptimizationRequest(
            query=uniform_statistics(QueryGraph(4, [(0, 1), (2, 3)])),
            tag="disconnected",
        ),
    ]
    return warm, items


def _pipeline_run(mode):
    """Serve :func:`pipeline_batch` one way; return comparable outcomes."""
    service = OptimizerService(
        resilience=ResilienceConfig(max_ccp_budget=200, anytime_enabled=False)
    )
    warm, items = pipeline_batch()
    service.optimize(warm)
    service.reset_stats()
    if mode == "optimize":
        served = []
        for item in items:
            try:
                result = service.optimize(item)
            except OptimizationError:
                result = None
            served.append((result, service.traces.last()))
    else:
        served = [
            (result if result.ok else None, service.traces.get(result.trace_id))
            for result in service.optimize_batch(items, workers=2, executor=mode)
        ]
    outcomes = [
        (
            "error"
            if result is None
            else (round(result.cost, 6), result.cache_hit, result.details),
            [span.name for span in trace.root.iter_spans()],
        )
        for result, trace in served
    ]
    totals = service.stats_snapshot()["totals"]
    return outcomes, totals


class TestBackendParity:
    def test_all_executors_agree_on_mixed_batch(self):
        outcomes = {}
        for executor in ("serial", "process"):
            results = OptimizerService().optimize_batch(
                mixed_batch(), workers=2, executor=executor
            )
            outcomes[executor] = [
                round(r.cost, 6) if r.ok else f"error:{r.error.split(':')[0]}"
                for r in results
            ]
        assert outcomes["serial"] == outcomes["process"]
        # The two bad items failed, everything else planned.
        serial = outcomes["serial"]
        assert [isinstance(o, float) for o in serial] == [
            True, True, False, True, False, True,
        ]
        # optimize, the serial batch and the process batch run one
        # pipeline: identical details, metric totals and span names on a
        # cache hit, an exact run, both ladder rungs, and a failure.
        runs = {mode: _pipeline_run(mode) for mode in ("optimize", "serial", "process")}
        assert runs["optimize"] == runs["serial"] == runs["process"]
        outcomes, totals = runs["serial"]
        hit, exact, dpconv, heuristic, disconnected = (o for o, _ in outcomes)
        assert hit[1] is True and exact[1] is False
        assert dpconv[2]["rung"] == "dpconv" and dpconv[2]["fast_exact"] == 1
        assert heuristic[2]["rung"] == "ikkbz" and heuristic[2]["degraded"] == 1
        assert disconnected == "error"
        assert (totals["requests"], totals["errors"], totals["cache_hits"]) == (5, 1, 1)
        assert (totals["fast_exact"], totals["degraded"]) == (1, 1)

    def test_process_batch_preserves_order_and_tags(self):
        generator = WorkloadGenerator(seed=7)
        requests = [
            OptimizationRequest(
                query=generator.fixed_shape("chain", 4 + i), tag=f"q{i}"
            )
            for i in range(4)
        ]
        results = OptimizerService().optimize_batch(
            requests, workers=2, executor="process"
        )
        assert [r.tag for r in results] == ["q0", "q1", "q2", "q3"]
        assert [r.plan.n_joins() for r in results] == [3, 4, 5, 6]
        for result in results:
            result.plan.validate()

    def test_explicit_process_executor_with_one_worker(self):
        results = OptimizerService().optimize_batch(
            [fast_request()], workers=1, executor="process"
        )
        assert results[0].ok


class TestCacheAcrossExecutors:
    def test_process_results_feed_the_shared_cache(self):
        service = OptimizerService()
        request = fast_request()
        cold = service.optimize_batch([request], workers=2, executor="process")
        assert not cold[0].cache_hit
        for executor in ("process", "serial"):
            warm = service.optimize_batch([request], workers=2, executor=executor)
            assert warm[0].cache_hit, executor
            assert warm[0].cost == pytest.approx(cold[0].cost)
        # Single-query path hits the same entry too.
        assert service.optimize(request).cache_hit

    def test_thread_results_hit_in_process_mode(self):
        service = OptimizerService()
        request = fast_request()
        with pytest.warns(DeprecationWarning):
            service.optimize_batch([request], workers=2, executor="thread")
        warm = service.optimize_batch([request], workers=2, executor="process")
        assert warm[0].cache_hit
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["cache_hits"] == 1


class TestDeadlines:
    def test_process_deadline_yields_error_within_budget(self):
        service = OptimizerService()
        deadline = 0.4
        started = time.perf_counter()
        results = service.optimize_batch(
            [fast_request("f0"), slow_uncooperative_request(), fast_request("f1")],
            workers=2,
            executor="process",
            deadline_seconds=deadline,
        )
        wall = time.perf_counter() - started
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "DeadlineExceededError" in results[1].error
        assert results[1].tag == "slow"
        # The slow item alone needs seconds; the deadline must have cut
        # it off within ~2x the budget (plus worker startup slack).
        assert wall < 2 * deadline + 1.5
        totals = service.stats_snapshot()["totals"]
        assert totals["timeouts"] == 1
        assert totals["errors"] == 1
        # The service stays fully usable after recycling the worker.
        follow_up = service.optimize(fast_request("followup"))
        assert follow_up.ok

    def test_serial_deadline_salvages_and_resolves_within_budget(self):
        # The budget is anchored at batch start and shipped into each
        # item as a cooperative deadline: the fast item runs exact, the
        # slow budget-capable one stops itself at the budget and
        # salvages, and the item reached after the budget is spent
        # resolves without running.
        service = OptimizerService()
        deadline = 0.4
        started = time.perf_counter()
        results = service.optimize_batch(
            [fast_request("f0"), slow_request(tag="s0"), slow_request(tag="s1")],
            executor="serial",
            deadline_seconds=deadline,
        )
        wall = time.perf_counter() - started
        fast, salvaged, skipped = results
        assert fast.ok and "anytime" not in fast.details
        assert salvaged.ok and salvaged.details["anytime"] == 1
        salvaged.plan.validate()
        assert not skipped.ok and "DeadlineExceededError" in skipped.error
        assert skipped.elapsed_seconds == 0.0
        # Unbounded, the slow item alone needs seconds.
        assert wall < deadline + 0.5
        totals = service.stats_snapshot()["totals"]
        assert (totals["anytime"], totals["timeouts"], totals["errors"]) == (1, 1, 1)
        assert totals["hard_kills_avoided"] == 0
        # Only the exact answer warmed the cache; a skipped item that
        # never ran says nothing about its engine's health.
        assert service.cache.stats()["size"] == 1
        breaker = service.breaker.snapshot()["memoizationbasic"]
        assert breaker["consecutive_failures"] == 0

    def test_thread_soft_deadline(self):
        # "thread" is a deprecated alias of the serial executor: it warns,
        # and a slow budget-capable item salvages at the deadline instead
        # of running on in an abandoned thread.
        service = OptimizerService()
        started = time.perf_counter()
        with pytest.warns(DeprecationWarning, match="thread"):
            results = service.optimize_batch(
                [fast_request(), slow_request(n=12, tag="s12")],
                workers=2,
                executor="thread",
                deadline_seconds=0.15,
            )
        wall = time.perf_counter() - started
        assert results[0].ok
        assert results[1].ok and results[1].details["anytime"] == 1
        assert wall < 1.0
        assert service.stats_snapshot()["totals"]["timeouts"] == 0

    def test_thread_alias_returns_serial_results(self):
        requests = mixed_batch()
        serial = OptimizerService().optimize_batch(requests, executor="serial")
        with pytest.warns(DeprecationWarning):
            thread = OptimizerService().optimize_batch(
                requests, workers=2, executor="thread"
            )
        assert [(r.plan, r.error, r.details) for r in thread] == [
            (r.plan, r.error, r.details) for r in serial
        ]

    def test_no_deadline_means_no_timeouts(self):
        service = OptimizerService()
        results = service.optimize_batch(
            [fast_request() for _ in range(3)], workers=2, executor="process"
        )
        assert all(r.ok for r in results)
        assert service.stats_snapshot()["totals"]["timeouts"] == 0


class TestThreadDeadlineDrift:
    """The batch deadline budget is shared across the batch.

    Regression tests for a drift bug: each item used to get the *full*
    deadline, so every slow item pushed every later item's cutoff back
    by another whole budget — N slow items made the batch take ~N x
    deadline instead of ~1 x.  They run through the deprecated
    ``"thread"`` alias, which keeps the contract on the serial executor.
    """

    def test_two_hung_items_resolve_within_one_deadline(self):
        service = OptimizerService()
        deadline = 0.5
        started = time.perf_counter()
        with pytest.warns(DeprecationWarning):
            results = service.optimize_batch(
                [slow_request(tag="h0"), slow_request(tag="h1")],
                workers=2,
                executor="thread",
                deadline_seconds=deadline,
            )
        wall = time.perf_counter() - started
        assert results[0].ok and results[0].details["anytime"] == 1
        assert not results[1].ok and "DeadlineExceededError" in results[1].error
        # With a shared budget the batch resolves in ~1x the deadline;
        # the drift bug made this >= 2x.
        assert wall < 2 * deadline - 0.1, (
            f"batch took {wall:.2f}s for deadline={deadline}s — "
            "per-item budgets are drifting"
        )
        assert service.stats_snapshot()["totals"]["timeouts"] == 1

    def test_timeout_results_report_true_elapsed(self):
        # The second item never starts: it must report 0 elapsed, while
        # the first reports the time it actually ran (~ the deadline).
        service = OptimizerService()
        deadline = 0.3
        with pytest.warns(DeprecationWarning):
            results = service.optimize_batch(
                [slow_request(tag="ran"), slow_request(tag="queued")],
                workers=1,
                executor="thread",
                deadline_seconds=deadline,
            )
        assert results[0].ok and not results[1].ok
        assert results[0].elapsed_seconds >= deadline * 0.9
        assert results[1].elapsed_seconds == 0.0


class TestWorkerFailures:
    def test_dying_worker_is_isolated_and_replaced(self):
        # An "algorithm" that kills its own worker process exercises the
        # crash path: the batch must report the item as failed and still
        # complete the remaining items on a replacement worker.
        @register_algorithm("_test_suicide")
        def _make_suicide(catalog, cost_model=None, enable_pruning=False):
            class Suicide:
                builder = None

                def optimize(self):
                    os._exit(17)

            return Suicide()

        try:
            generator = WorkloadGenerator(seed=9)
            killer = OptimizationRequest(
                query=generator.fixed_shape("chain", 5),
                algorithm="_test_suicide",
                tag="boom",
            )
            results = OptimizerService().optimize_batch(
                [fast_request("a"), killer, fast_request("b")],
                workers=1,
                executor="process",
            )
            assert results[0].ok and results[2].ok
            assert not results[1].ok
            assert "worker process died" in results[1].error
        finally:
            unregister_algorithm("_test_suicide")

    def test_custom_cost_model_is_rejected_per_item(self):
        # Process mode cannot ship arbitrary cost models; the affected
        # item fails with a typed message, the rest of the batch runs.
        from repro.cost.cout import CoutCostModel

        class Custom(CoutCostModel):
            pass

        generator = WorkloadGenerator(seed=4)
        custom = OptimizationRequest(
            query=generator.fixed_shape("chain", 5),
            cost_model=Custom(),
            algorithm="dpccp",
            tag="custom",
        )
        results = OptimizerService().optimize_batch(
            [fast_request(), custom], workers=2, executor="process"
        )
        assert results[0].ok
        assert not results[1].ok
        assert "not serializable" in results[1].error


def _sleep_forever(connection):
    connection.send("running")
    while True:
        time.sleep(1.0)


class TestWorkerLifecycle:
    def test_stop_kills_a_child_whose_parent_handles_sigterm(self):
        # A parent that handles SIGTERM (the front door drains on it)
        # must still be able to terminate a hung child promptly.
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            child = ChildProcess(_sleep_forever, name="repro-test-child")
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert child.connection.recv() == "running"
        started = time.perf_counter()
        child.stop(graceful=False)
        assert not child.process.is_alive()
        assert time.perf_counter() - started < 2.0

    def test_stop_kills_a_child_before_its_handshake(self):
        # No wait for "running": the terminate may reach the child before
        # it resets the SIGTERM handler it inherited from the parent.
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            for _ in range(3):
                child = ChildProcess(_sleep_forever, name="repro-test-child")
                started = time.perf_counter()
                child.stop(graceful=False)
                assert not child.process.is_alive()
                assert time.perf_counter() - started < 2.0
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(OptimizationError):
            OptimizerService().optimize_batch([], executor="gpu")

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(OptimizationError):
            OptimizerService().optimize_batch([], deadline_seconds=0.0)
        with pytest.raises(OptimizationError):
            ProcessPoolExecutor(workers=2, deadline_seconds=-1.0)
        with pytest.raises(OptimizationError):
            ProcessPoolExecutor(workers=0)

    def test_empty_job_list(self):
        assert ProcessPoolExecutor(workers=2).run([]) == {}

    def test_service_defaults_flow_into_batches(self):
        service = OptimizerService(default_deadline_seconds=0.4)
        # The default executor is serial; the default deadline reaches
        # the budget-capable engine as a cooperative budget.
        results = service.optimize_batch([slow_request(n=12)], workers=1)
        assert results[0].ok and results[0].details["anytime"] == 1
        results = service.optimize_batch(
            [slow_uncooperative_request()], workers=2, executor="process"
        )
        assert not results[0].ok
        assert "DeadlineExceededError" in results[0].error
