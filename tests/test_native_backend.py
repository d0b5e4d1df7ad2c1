"""Native backend selection, labels, status, metrics, and degradation.

The bit-exactness of the C rung is gated by the equivalence
corpora (``test_dpconv_equivalence``, ``test_kernel_equivalence``);
this module covers the plumbing around them:

* the selection ladder (``REPRO_NATIVE_KERNEL`` env override, explicit
  constructor requests, the ``CoutCostModel``-only restriction),
* the ``backend`` label's journey — optimizer attribute, result
  details, service metrics counters, stats snapshot,
* the operator-facing ``native_backend_status()`` document,
* silent degradation: ``off`` must behave exactly like a host without
  a compiler,
* cooperative budgets expiring inside the native rung still salvage,
* the serving path never imports numpy.
"""

import math
import os
import subprocess
import sys
import textwrap

import pytest

from repro.catalog.workload import uniform_statistics
from repro.cost.cout import CoutCostModel
from repro.errors import OptimizationError
from repro.graph.shapes import chain_graph, clique_graph, cycle_graph
from repro.optimizer import native
from repro.optimizer._native_build import load_c_kernel
from repro.optimizer.api import OptimizationRequest, optimize_request
from repro.optimizer.budget import Budget
from repro.optimizer.dpconv import DPconvPlanGenerator
from repro.optimizer.native import (
    NATIVE_KERNEL_ENV,
    native_backend_status,
    resolve_backend,
)

HAVE_C = load_c_kernel(build=True) is not None

needs_c = pytest.mark.skipif(not HAVE_C, reason="no C kernel on this host")


def exact_catalog(graph):
    return uniform_statistics(graph, cardinality=4.0, selectivity=0.25)


class SymmetricSubclass(CoutCostModel):
    """Symmetric but not *the* CoutCostModel: must stay on pure python."""

    name = "sym-sub"


class TestResolveBackend:
    def test_off_resolves_to_none(self, monkeypatch):
        monkeypatch.delenv(NATIVE_KERNEL_ENV, raising=False)
        assert resolve_backend(CoutCostModel(), requested="off") is None

    def test_env_off_resolves_to_none(self, monkeypatch):
        monkeypatch.setenv(NATIVE_KERNEL_ENV, "off")
        assert resolve_backend(CoutCostModel()) is None

    def test_unknown_env_value_falls_back_to_auto(self, monkeypatch):
        # A typo'd env var (or the retired "numpy" rung) must not take
        # down the serving path; it selects exactly like auto.
        monkeypatch.setenv(NATIVE_KERNEL_ENV, "auto")
        expected = resolve_backend(CoutCostModel())
        for value in ("turbo", "numpy"):
            monkeypatch.setenv(NATIVE_KERNEL_ENV, value)
            assert resolve_backend(CoutCostModel()) == expected

    def test_explicit_invalid_request_raises(self):
        assert native.BACKENDS == ("auto", "c", "off")
        for requested in ("turbo", "numpy"):
            with pytest.raises(OptimizationError):
                resolve_backend(CoutCostModel(), requested=requested)

    def test_generic_symmetric_subclass_stays_pure(self, monkeypatch):
        monkeypatch.delenv(NATIVE_KERNEL_ENV, raising=False)
        assert resolve_backend(SymmetricSubclass()) is None

    @needs_c
    def test_c_respects_size_ceiling(self, monkeypatch):
        monkeypatch.delenv(NATIVE_KERNEL_ENV, raising=False)
        assert resolve_backend(
            CoutCostModel(), requested="c", n=native.C_MAX_N
        ) == "c"
        assert (
            resolve_backend(
                CoutCostModel(),
                requested="c",
                n=native.C_MAX_N + 1,
            )
            is None
        )

    def test_constructor_rejects_invalid_backend(self):
        with pytest.raises(OptimizationError):
            DPconvPlanGenerator(
                exact_catalog(chain_graph(4)), native_backend="turbo"
            )


class TestBackendStatus:
    def test_document_shape(self):
        status = native_backend_status()
        assert status["requested"]
        assert "numpy" not in status
        assert set(status["cffi"]) == {"available", "version"}
        assert set(status["compiler"]) == {"available", "cc"}
        assert set(status["c_kernel"]) == {"built", "path", "tag"}
        assert status["resolved"] in ("python", "c")
        assert status["max_n"] == {"c": native.C_MAX_N}

    def test_off_resolves_python(self, monkeypatch):
        monkeypatch.setenv(NATIVE_KERNEL_ENV, "off")
        assert native_backend_status()["resolved"] == "python"


class TestBackendLabels:
    def test_off_runs_python_backend(self):
        conv = DPconvPlanGenerator(
            exact_catalog(cycle_graph(7)), native_backend="off"
        )
        conv.optimize()
        assert conv.last_kernel == "dpconv"
        assert conv.last_backend == "python"

    @needs_c
    def test_c_label(self):
        conv = DPconvPlanGenerator(
            exact_catalog(cycle_graph(7)), native_backend="c"
        )
        conv.optimize()
        assert conv.last_kernel == "dpconv"
        assert conv.last_backend == "c"

    def test_details_carry_backend(self, monkeypatch):
        monkeypatch.setenv(NATIVE_KERNEL_ENV, "off")
        result = optimize_request(
            OptimizationRequest(
                query=exact_catalog(cycle_graph(7)), algorithm="dpconv"
            )
        )
        assert result.details["kernel"] == "dpconv"
        assert result.details["backend"] == "python"

    @needs_c
    def test_details_carry_native_backend(self, monkeypatch):
        monkeypatch.setenv(NATIVE_KERNEL_ENV, "c")
        result = optimize_request(
            OptimizationRequest(
                query=exact_catalog(cycle_graph(7)), algorithm="dpconv"
            )
        )
        assert result.details["backend"] == "c"

    def test_topdown_reports_python_backend(self):
        result = optimize_request(
            OptimizationRequest(query=exact_catalog(cycle_graph(7)))
        )
        assert result.details["backend"] == "python"


class TestServiceWiring:
    @needs_c
    def test_metrics_count_native_backends(self, monkeypatch):
        monkeypatch.setenv(NATIVE_KERNEL_ENV, "c")
        from repro.service import OptimizerService

        service = OptimizerService()
        request = OptimizationRequest(
            query=exact_catalog(cycle_graph(7)), algorithm="dpconv"
        )
        service.optimize(request)
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["kernel_native_c"] == 1
        assert snapshot["totals"]["kernel_dpconv"] == 1
        assert snapshot["algorithms"]["dpconv"]["kernel_native_c"] == 1
        # Cache hits do not re-count the backend.
        service.optimize(request)
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["kernel_native_c"] == 1

    def test_stats_snapshot_embeds_backend_status(self):
        from repro.service import OptimizerService

        snapshot = OptimizerService().stats_snapshot()
        assert "backends" in snapshot
        assert snapshot["backends"]["resolved"] in ("python", "c")

    def test_prometheus_exports_native_counters(self):
        from repro.service import OptimizerService, render_prometheus

        text = render_prometheus(OptimizerService().stats_snapshot())
        assert "repro_kernel_native_c_total" in text
        assert "numpy" not in text


class TestBudgetInteraction:
    @needs_c
    def test_c_budget_expiry_salvages(self):
        catalog = exact_catalog(clique_graph(12))
        conv = DPconvPlanGenerator(
            catalog,
            native_backend="c",
            budget=Budget(node_cap=500),
        )
        plan = conv.optimize()
        assert conv.budget_expired
        assert conv.salvage_report is not None
        assert math.isfinite(plan.cost)
        plan.validate()

    @needs_c
    def test_generous_budget_still_exact(self):
        catalog = exact_catalog(clique_graph(9))
        exact = DPconvPlanGenerator(catalog, native_backend="off").optimize()
        conv = DPconvPlanGenerator(
            catalog,
            native_backend="c",
            budget=Budget(node_cap=10_000_000),
        )
        plan = conv.optimize()
        assert not conv.budget_expired
        assert plan.cost == exact.cost


class TestSilentDegradation:
    def test_missing_c_kernel_falls_back(self, monkeypatch):
        # Simulate a host whose compile failed after selection: the
        # run must fall back to the pure loop, not raise.
        monkeypatch.setattr(
            "repro.optimizer._native_build.load_c_kernel",
            lambda build=False: None,
        )
        catalog = exact_catalog(cycle_graph(7))
        conv = DPconvPlanGenerator(catalog, native_backend="c")
        plan = conv.optimize()
        baseline = DPconvPlanGenerator(catalog, native_backend="off")
        assert plan.cost == baseline.optimize().cost

    def test_off_matches_auto_results(self, monkeypatch):
        # The acceptance bar: whatever auto picks must be output-
        # indistinguishable from the pure path on exact statistics.
        catalog = exact_catalog(cycle_graph(8))
        monkeypatch.setenv(NATIVE_KERNEL_ENV, "off")
        off = optimize_request(
            OptimizationRequest(query=catalog, algorithm="dpconv")
        )
        monkeypatch.setenv(NATIVE_KERNEL_ENV, "auto")
        auto = optimize_request(
            OptimizationRequest(query=catalog, algorithm="dpconv")
        )
        assert off.cost == auto.cost
        assert off.cost_evaluations == auto.cost_evaluations
        assert off.memo_entries == auto.memo_entries


_NUMPY_FREE_PROBE = textwrap.dedent(
    """
    import sys

    from repro.bench.report import bench_environment
    from repro.catalog.workload import uniform_statistics
    from repro.graph.shapes import clique_graph
    from repro.optimizer._native_build import load_c_kernel
    from repro.optimizer.api import OptimizationRequest
    from repro.optimizer.dpconv import DPconvPlanGenerator
    from repro.optimizer.native import native_backend_status
    from repro.service import OptimizerService

    native_backend_status()
    bench_environment()
    backend = "c" if load_c_kernel(build=True) is not None else "off"
    catalog = uniform_statistics(
        clique_graph(10), cardinality=4.0, selectivity=0.25
    )
    conv = DPconvPlanGenerator(catalog, native_backend=backend)
    conv.optimize()
    assert conv.last_backend == ("c" if backend == "c" else "python")
    service = OptimizerService()
    request = OptimizationRequest(query=catalog, algorithm="dpconv")
    service.optimize(request)
    assert service.optimize(request).cache_hit
    service.stats_snapshot()
    print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
    """
)


class TestNumpyStaysOut:
    def test_serving_path_never_imports_numpy(self):
        # A fresh interpreter, so an import made by another test cannot
        # mask (or fake) one made by the code under test.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", _NUMPY_FREE_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip().splitlines()[-1] == "[]"
