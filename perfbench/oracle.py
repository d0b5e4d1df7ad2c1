"""Correctness oracle: every answer checked against an independent engine.

Exact answers must match the optimum of an enumerator other than the one
that served them, with relative tolerance 1e-9.  The default oracle is
DPccp (bottom-up, csg-cmp-pair driven), which shares no code with the
top-down MinCutBranch kernel or the DPconv convolution.  When DPccp
itself served (``auto`` picks it for dense graphs) the oracle is
TDMinCutBranch.  For dense graphs of 12 or more relations DPccp costs
seconds per query, so those are checked against the pure-python DPconv
loop: a separate implementation from the compiled C rung that serves
them, tied to DPccp by the repository's own equivalence suite.

Heuristic and salvaged plans are validated against the catalog with
:func:`repro.plan.validation.validate_plan` and must cost at most what
GOO's plan costs.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Optional, Tuple

from repro.catalog.statistics import Catalog
from repro.heuristics.goo import greedy_operator_ordering
from repro.optimizer.api import choose_algorithm, make_optimizer
from repro.optimizer.dpconv import DPconvPlanGenerator
from repro.plan.validation import validate_plan

REL_TOL = 1e-9

#: Densest graphs DPccp still checks quickly; denser-and-larger go to DPconv.
_DPCCP_MAX_EDGES = 60


def _engine_for(catalog: Catalog, served_by: Optional[str]) -> str:
    graph = catalog.graph
    if served_by == "auto":
        served_by = choose_algorithm(catalog)
    if graph.n_vertices >= 12 and graph.n_edges > _DPCCP_MAX_EDGES:
        return "dpconv-python"
    if served_by == "dpccp":
        return "tdmincutbranch"
    return "dpccp"


def optimum(catalog: Catalog, served_by: Optional[str] = None) -> Tuple[float, str]:
    """Return ``(optimal cost, oracle engine name)``.

    ``served_by`` names the engine that served the answer (``"auto"`` is
    resolved the way the service resolves it).
    """
    engine = _engine_for(catalog, served_by)
    if catalog.graph.n_vertices == 1:
        return 0.0, engine
    if engine == "dpconv-python":
        plan = DPconvPlanGenerator(catalog, native_backend="off").optimize()
    else:
        plan = make_optimizer(engine, catalog).optimize()
    return plan.cost, engine


class Checker:
    """Collects answers during a run, checks them after it.

    ``note`` is cheap (it runs inside the timed loop) and keeps exact
    answers as a key index and a float in flat arrays, so the run does
    not retain objects a garbage collection would have to walk.
    ``finish`` does the oracle work outside the timed region and returns
    the failures found.
    """

    def __init__(self) -> None:
        self._keys: Dict = {}  # key -> index into the per-key lists
        self._catalogs: List[Catalog] = []
        self._served: List[Optional[str]] = []
        self._labels: List[str] = []
        self._exact_key = array("l")
        self._exact_cost = array("d")
        self._inexact: List[Tuple] = []
        self._failed: List[str] = []
        self.engines: Dict[str, int] = {}

    def note(self, key, catalog: Catalog, cost: float, exact: bool,
             served_by: Optional[str] = None, plan=None, label: str = "") -> None:
        """Record one answer; ``key`` names the catalog's optimum (its base).

        Answers under one key must share their optimum and their serving
        engine; ``plan`` is kept only for inexact answers.
        """
        index = self._keys.get(key)
        if index is None:
            index = self._keys[key] = len(self._catalogs)
            self._catalogs.append(catalog)
            self._served.append(served_by)
            self._labels.append(label)
        if exact:
            self._exact_key.append(index)
            self._exact_cost.append(cost)
        else:
            self._inexact.append((index, catalog, cost, plan))

    def failure(self, label: str) -> None:
        """Record an answer that failed outright (error, refusal, stale)."""
        self._failed.append(label)

    @property
    def attempted(self) -> int:
        return len(self._exact_key) + len(self._inexact) + len(self._failed)

    def finish(self) -> List[str]:
        failures = list(self._failed)
        optima: Dict[int, float] = {}
        for index in sorted(set(self._exact_key)):
            best, engine = optimum(self._catalogs[index], self._served[index])
            optima[index] = best
            self.engines[engine] = self.engines.get(engine, 0) + 1
        for index, cost in zip(self._exact_key, self._exact_cost):
            best = optima[index]
            if cost != best and not math.isclose(cost, best, rel_tol=REL_TOL, abs_tol=0.0):
                failures.append(f"{self._labels[index]}: cost {cost!r} != optimum {best!r}")
        goo_costs: Dict[int, float] = {}
        for index, catalog, cost, plan in self._inexact:
            if index not in goo_costs:
                goo_costs[index] = greedy_operator_ordering(catalog).cost
            violations = validate_plan(plan, catalog) if plan is not None else ["no plan"]
            if violations:
                failures.append(f"{self._labels[index]}: invalid plan {violations[:2]}")
            elif cost > goo_costs[index] * (1.0 + REL_TOL):
                failures.append(f"{self._labels[index]}: heuristic cost {cost!r} above GOO's")
        return failures
