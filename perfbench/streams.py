"""Seeded inputs for the four workloads.

Query *structures* (shapes, sizes, and the random acyclic/cyclic graphs)
are drawn once from the fixed :data:`STRUCTURE_SEED`, so every ``--seed``
runs the same search-space sizes and runs with different seeds measure
the same amount of work.  The ``--seed`` draws everything else: the
statistics, the vertex labelings, the request order, the Zipf draws and
the relabeled variants.  The same seed gives a byte-identical stream
(:func:`stream_hash`); a different seed gives a different one.

Every workload's answers are checked against one optimum per *base*
query: a relabeling, a fresh ``stats_epoch`` and a repeat all leave the
optimal cost unchanged, which keeps the oracle's work bounded however
many requests a run sends.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.catalog.statistics import Catalog, Relation
from repro.catalog.workload import attach_random_statistics
from repro.graph.query_graph import QueryGraph
from repro.graph.random import random_acyclic_graph, random_cyclic_graph
from repro.graph.shapes import make_shape
from repro.workloads import (
    job_query,
    job_query_names,
    ssb_query,
    ssb_query_names,
    tpch_query,
    tpch_query_names,
)

#: Fixed seed for query structures; see the module docstring.
STRUCTURE_SEED = 20110411

#: Seeds named in NOTE.md: tune on the primary, confirm on the held-out.
PRIMARY_SEED = 1
HELDOUT_SEED = 2

WORKLOADS = ("engine-cold", "service-warm", "batch-dense", "http-mixed")


@dataclass
class Base:
    """One distinct query; every request of a stream is one of these."""

    name: str
    catalog: Catalog


@dataclass
class Item:
    """One request: a base query under a labeling and a stats epoch."""

    base: int
    catalog: Catalog
    perm: Tuple[int, ...]
    epoch: int = 0
    kind: str = "warm"


@dataclass
class Stream:
    """A workload's bases, its request items, and its schedule facts."""

    workload: str
    seed: int
    bases: List[Base]
    items: List[Item]
    #: http-mixed only: bases after the mid-run statistics drift.
    drifted: List[Base] = field(default_factory=list)
    #: Workload-specific layout (batch size, ladder, drift point, ...).
    layout: Dict = field(default_factory=dict)


def relabel(catalog: Catalog, perm: Tuple[int, ...]) -> Catalog:
    """Return the catalog with vertex ``v`` renamed ``perm[v]``.

    Relations keep their names, so a relabeled request is the same query
    written with another vertex numbering.
    """
    graph = catalog.graph
    n = graph.n_vertices
    relations: List[Optional[Relation]] = [None] * n
    for vertex in range(n):
        relations[perm[vertex]] = catalog.relations[vertex]
    selectivities = {
        (perm[u], perm[v]): catalog.selectivity(u, v) for (u, v) in graph.edges
    }
    return Catalog(graph.relabelled(perm), relations, selectivities)


def drift(catalog: Catalog) -> Catalog:
    """A statistics refresh that moves every cardinality by one part in 10^6.

    The change stays below the signature's 4-significant-digit rounding
    for almost every value, so only the ``stats_epoch`` bump keeps the
    old plan from being served; the optimal cost moves by far more than
    the oracle's 1e-9 tolerance, so a stale serve fails the check.
    """
    return _scaled(catalog, 1.0 + 1e-6)


def _scaled(catalog: Catalog, factor: float) -> Catalog:
    """Cardinalities times ``factor``, as floats.

    The signature renders ``200200`` and ``200200.0`` differently, so a
    drift that turned integer cardinalities into floats would change
    every key by type alone; http-mixed's warm bases are made floats
    (factor 1) before they drift.
    """
    relations = [
        Relation(name=rel.name, cardinality=float(rel.cardinality) * factor)
        for rel in catalog.relations
    ]
    selectivities = {
        edge: catalog.selectivity(*edge) for edge in catalog.graph.edges
    }
    return Catalog(catalog.graph, relations, selectivities)


def _perm(rng: random.Random, n: int) -> Tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def _structures(spec: List[Tuple[str, int, int]]) -> List[Tuple[str, QueryGraph]]:
    """Build ``(name, graph)`` for ``(kind, n, edges)`` rows from the fixed seed."""
    rng = random.Random(STRUCTURE_SEED)
    out = []
    for kind, n, edges in spec:
        if kind == "acyclic":
            graph = random_acyclic_graph(
                n, rng=rng, exclude_chain_and_star=True
            )
            out.append((f"acyclic-{n}", graph))
        elif kind == "cyclic":
            graph = random_cyclic_graph(n, edges, rng=rng)
            out.append((f"cyclic-{n}e{edges}", graph))
        else:
            out.append((f"{kind}-{n}", make_shape(kind, n)))
    return out


def _with_stats(
    structures: List[Tuple[str, QueryGraph]], rng: random.Random
) -> List[Base]:
    return [
        Base(name, attach_random_statistics(graph, rng=rng))
        for name, graph in structures
    ]


def _zipf_weights(count: int) -> List[float]:
    return [1.0 / (rank + 1) for rank in range(count)]


# ----------------------------------------------------------------------
# engine-cold


def _engine_cold_bases(rng: random.Random) -> List[Base]:
    spec: List[Tuple[str, int, int]] = []
    for n in range(10, 16):
        spec.append(("chain", n, 0))
        spec.append(("cycle", n, 0))
        spec.append(("acyclic", n, 0))
        spec.append(("acyclic", n, 0))
        spec.append(("cyclic", n, n + 2))
        spec.append(("cyclic", n, n + 3))
    spec.append(("star", 10, 0))
    spec.append(("star", 11, 0))
    bases = _with_stats(_structures(spec), rng)
    for prefix, names, build in (
        ("tpch", tpch_query_names(), tpch_query),
        ("ssb", ssb_query_names(), ssb_query),
        ("job", job_query_names(), job_query),
    ):
        for name in names:
            bases.append(Base(f"{prefix}:{name}", build(name)))
    return bases


def engine_cold(seed: int) -> Stream:
    """Distinct cold queries: every request is a fresh labeling of a base.

    40 passes over the bases; a faster program repeats labelings, which is
    harmless here because nothing is cached.
    """
    rng = random.Random(f"engine-cold/{seed}")
    bases = _engine_cold_bases(rng)
    items = []
    for _ in range(40):
        order = list(range(len(bases)))
        rng.shuffle(order)
        for index in order:
            catalog = bases[index].catalog
            perm = _perm(rng, catalog.graph.n_vertices)
            items.append(Item(index, relabel(catalog, perm), perm, kind="cold"))
    return Stream("engine-cold", seed, bases, items)


# ----------------------------------------------------------------------
# service-warm and the warm half of http-mixed


def _warm_bases(rng: random.Random, draws: int, max_clique: int) -> List[Base]:
    spec: List[Tuple[str, int, int]] = []
    for shape in ("chain", "star", "cycle"):
        for n in range(6, 13):
            spec.extend([(shape, n, 0)] * draws)
    for n in range(8, max_clique + 1):
        spec.append(("clique", n, 0))
    return _with_stats(_structures(spec), rng)


def _popularity(count: int) -> List[int]:
    """Zipf rank order over bases, drawn from the fixed structure seed.

    A seed-drawn order would let one seed make clique-12 the hottest
    query and another chain-6: a different workload, not another sample.
    """
    order = list(range(count))
    random.Random(STRUCTURE_SEED).shuffle(order)
    return order


def service_warm(seed: int) -> Stream:
    """Zipf-skewed warm repeats over 47 bases and 4 relabelings of each.

    60000 requests; a faster program repeats them, which is harmless
    because every one is a cache hit anyway.
    """
    requests, variants = 60000, 4
    rng = random.Random(f"service-warm/{seed}")
    bases = _warm_bases(rng, draws=2, max_clique=12)
    labelings = []
    for base in bases:
        n = base.catalog.graph.n_vertices
        rows = []
        for _ in range(variants):
            perm = _perm(rng, n)
            rows.append((perm, relabel(base.catalog, perm)))
        labelings.append(rows)
    ranked = _popularity(len(bases))
    weights = _zipf_weights(len(bases))
    picks = rng.choices(ranked, weights=weights, k=requests)
    items = []
    for index in picks:
        perm, catalog = labelings[index][rng.randrange(variants)]
        items.append(Item(index, catalog, perm))
    return Stream("service-warm", seed, bases, items, layout={"variants": variants})


# ----------------------------------------------------------------------
# batch-dense


def _dense_bases(rng: random.Random) -> List[Base]:
    spec: List[Tuple[str, int, int]] = []
    for n in range(10, 15):
        spec.append(("clique", n, 0))
        spec.append(("cyclic", n, (3 * n * (n - 1)) // 8))
    return _with_stats(_structures(spec), rng)


def batch_dense(seed: int) -> Stream:
    """Rounds over the dense bases, each under a fresh epoch.

    A fresh ``stats_epoch`` per round keeps every request a cache miss
    while its optimum stays the base's, so the oracle runs once per base.
    Each base has 8 relabelings, used in turn; the stream is long (2000
    rounds, 20000 items) so a much faster program still never runs out
    and turns a cold request into a repeat.
    """
    rounds, batch_size, labelings = 2000, 4, 8
    rng = random.Random(f"batch-dense/{seed}")
    bases = _dense_bases(rng)
    variants = []
    for base in bases:
        rows = []
        for _ in range(labelings):
            perm = _perm(rng, base.catalog.graph.n_vertices)
            rows.append((perm, relabel(base.catalog, perm)))
        variants.append(rows)
    # Every round in the same base order: batches then cycle through five
    # fixed compositions, and the tail is one composition's latency
    # rather than the luck of which heavy queries shared a batch.
    items = []
    for round_index in range(rounds):
        for index in range(len(bases)):
            perm, catalog = variants[index][round_index % labelings]
            items.append(Item(index, catalog, perm, epoch=round_index + 1, kind="cold"))
    return Stream(
        "batch-dense", seed, bases, items, layout={"batch_size": batch_size}
    )


# ----------------------------------------------------------------------
# http-mixed

#: Offered rates (requests/s) of the open-loop ladder and each rung's
#: share of ``--seconds``.  The first rung is the reported one: light
#: enough that the two connections rarely queue, three shares long for
#: enough samples, and ahead of the drift.  The second carries the
#: statistics drift from its start, so most of the re-optimization burst
#: lands outside the measured rungs.  The rest climb past the door's
#: capacity to find the SLO rate.
HTTP_LADDER = (50, 100, 200, 300, 400, 500)
HTTP_RUNG_WEIGHTS = (5, 1, 1, 1, 1, 1)
HTTP_REPORT_RUNG = 0
HTTP_DRIFT_RUNG = 1
#: Share of requests that are cold (a base under a never-seen epoch).
HTTP_COLD_SHARE = 0.15
#: Share of warm requests sent under a fresh labeling (route-memo miss).
HTTP_VARIANT_SHARE = 0.10
#: Share of requests that are a /v1/optimize_batch of warm items.
HTTP_BATCH_SHARE = 0.05
HTTP_BATCH_ITEMS = 4
#: First epoch used for cold requests; drift uses epoch 1.
HTTP_COLD_EPOCH0 = 1000


def _http_cold_bases(rng: random.Random) -> List[Base]:
    # Two thirds heavier queries, one third light ones including the
    # clique for the dpconv rung: the reported rung's tail (its top ~2%)
    # then falls well inside the heavy queries' latency distribution
    # (~10% of requests) instead of on the boundary between two classes.
    spec = [
        ("cyclic", 12, 14),
        ("cyclic", 12, 14),
        ("cyclic", 12, 14),
        ("cyclic", 12, 14),
        ("chain", 14, 0),
        ("clique", 10, 0),
    ]
    return _with_stats(_structures(spec), rng)


def http_mixed(seed: int, seconds: float) -> Stream:
    """The open-loop replay stream: warm repeats, variants, cold, batches.

    Items are laid out rung by rung; each rung's offered rate fixes how
    many items it holds.  Arrival times are Poisson with the rung's rate.
    The drift point is the start of the drift rung: from there on every
    warm request carries the drifted statistics under ``stats_epoch=1``.

    The warm bases' statistics come from the structure seed too: they fix
    the signatures, hence which shard owns each hot key, and a seed that
    happened to put the three hottest keys on one shard would measure a
    different balance, not another sample of the same workload.
    """
    rng = random.Random(f"http-mixed/{seed}")
    warm = [
        Base(b.name, _scaled(b.catalog, 1.0))
        for b in _warm_bases(random.Random(STRUCTURE_SEED), draws=1, max_clique=11)
    ]
    cold = _http_cold_bases(rng)
    bases = warm + cold
    drifted = [Base(b.name, drift(b.catalog)) for b in warm]
    ranked = _popularity(len(warm))
    weights = _zipf_weights(len(warm))
    items: List[Item] = []
    schedule = []  # (due offset seconds, kind, [item indices])
    rungs = []  # (rate, start, end)
    cold_order: List[int] = []
    cold_epoch = HTTP_COLD_EPOCH0
    unit = seconds / sum(HTTP_RUNG_WEIGHTS)
    start = 0.0
    drift_at = unit * sum(HTTP_RUNG_WEIGHTS[:HTTP_DRIFT_RUNG])
    for rate, weight in zip(HTTP_LADDER, HTTP_RUNG_WEIGHTS):
        end = start + unit * weight
        arrivals = []
        t = rng.expovariate(rate) + start
        while t < end:
            arrivals.append(t)
            t += rng.expovariate(rate)
        # Exact shares per rung: a binomial draw of cold requests would
        # move a rung's tail from seed to seed more than the system does.
        n_cold = round(HTTP_COLD_SHARE * len(arrivals))
        n_batch = round(HTTP_BATCH_SHARE * len(arrivals))
        kinds = ["cold"] * n_cold + ["batch"] * n_batch
        kinds += ["optimize"] * (len(arrivals) - len(kinds))
        rng.shuffle(kinds)
        for t, kind in zip(arrivals, kinds):
            if kind == "cold":
                if not cold_order:
                    cold_order = list(range(len(warm), len(bases)))
                    rng.shuffle(cold_order)
                index = cold_order.pop()
                catalog = bases[index].catalog
                perm = _perm(rng, catalog.graph.n_vertices)
                items.append(Item(index, relabel(catalog, perm), perm, cold_epoch, "cold"))
                cold_epoch += 1
                schedule.append((t, "optimize", [len(items) - 1]))
                continue
            drifted_now = t >= drift_at
            members = []
            for _ in range(HTTP_BATCH_ITEMS if kind == "batch" else 1):
                index = rng.choices(ranked, weights=weights)[0]
                source = drifted[index] if drifted_now else warm[index]
                n = source.catalog.graph.n_vertices
                if rng.random() < HTTP_VARIANT_SHARE:
                    perm, label = _perm(rng, n), "variant"
                else:
                    perm, label = tuple(range(n)), "warm"
                items.append(Item(index, relabel(source.catalog, perm), perm,
                                  1 if drifted_now else 0, label))
                members.append(len(items) - 1)
            schedule.append((t, kind, members))
        rungs.append((rate, start, end))
        start = end
    layout = {
        "rungs": rungs,
        "report_rung": HTTP_REPORT_RUNG,
        "drift_rung": HTTP_DRIFT_RUNG,
        "drift_at": drift_at,
        "warm_bases": len(warm),
        "schedule": schedule,
    }
    return Stream("http-mixed", seed, bases, items, drifted, layout)


def build(workload: str, seed: int, seconds: float) -> Stream:
    """The stream of one workload; only http-mixed's depends on ``seconds``."""
    if workload == "http-mixed":
        return http_mixed(seed, seconds)
    return {"engine-cold": engine_cold, "service-warm": service_warm,
            "batch-dense": batch_dense}[workload](seed)


def stream_hash(stream: Stream) -> str:
    """sha256 over every base's statistics and every item's identity."""
    digest = hashlib.sha256()

    def catalog_doc(catalog: Catalog) -> List:
        return [
            [[r.name, repr(r.cardinality)] for r in catalog.relations],
            [[u, v, repr(catalog.selectivity(u, v))] for (u, v) in catalog.graph.edges],
        ]

    header = {
        "workload": stream.workload,
        "bases": [[b.name, catalog_doc(b.catalog)] for b in stream.bases],
        "drifted": [[b.name, catalog_doc(b.catalog)] for b in stream.drifted],
        "layout": stream.layout,
    }
    digest.update(json.dumps(header, sort_keys=True).encode())
    for item in stream.items:
        digest.update(
            json.dumps([item.base, list(item.perm), item.epoch, item.kind]).encode()
        )
    return digest.hexdigest()
