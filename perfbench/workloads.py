"""The benchmark's workloads: graph, algorithm and rank count, from a seed.

Every call goes through the public API: the R-MAT generator,
``Graph.from_edges``, ``run_bfs`` and ``run_query``.  Functions are looked
up on their modules at call time so that :class:`layers.LayerTrace` sees
them.  ``PREDICTIONS.md`` says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

import repro
import repro.graphs
import repro.query
from repro.core.serial import bfs_serial as _probe_bfs

#: Distinct Graph 500 search keys drawn per graph; searches cycle through them.
SEARCH_KEYS = 64
#: Generator seed of every graph.  The run's seed picks the search keys.  Like
#: the Graph 500 reference code, the graph comes from a fixed seed: R-MAT
#: instances of these scales differ by up to 20% in modeled rate, which
#: would hide a change to the simulator smaller than that.
GRAPH_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    algorithm: str
    #: Lanes per ``run_query`` call; 0 means one ``run_bfs`` per search.
    batch: int = 0
    options: dict = field(default_factory=dict)
    edgefactor: int = 16
    nprocs: int = 16
    machine: str = "hopper"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("g500-2d", scale=17, algorithm="2d"),
        Workload(
            "g500-1d-wire",
            scale=17,
            algorithm="1d",
            options={"codec": "auto", "sieve": True},
        ),
        Workload("msbfs-b64", scale=14, algorithm="msbfs-1d", batch=64),
    )
}


@dataclass
class Inputs:
    graph: object
    #: Search keys (original ids) for ``run_bfs``, or one row of lanes
    #: per ``run_query`` call.
    keys: np.ndarray
    digest: str


def setup(w: Workload, seed: int) -> Inputs:
    """Graph 500 kernel 1: generate, construct, pick the search keys from ``seed``.

    Keys are drawn from the component of the highest-degree vertex, as the
    paper does, so no search is a trivial traversal of a tiny component.
    """
    src, dst = repro.graphs.rmat_edges(w.scale, w.edgefactor, seed=GRAPH_SEED)
    graph = repro.Graph.from_edges(
        1 << w.scale, src, dst, symmetrize=True, shuffle=True, seed=GRAPH_SEED,
        name=f"{w.name}-s{w.scale}",
    )
    degrees = graph.degrees()
    levels, _ = _probe_bfs(graph.csr, int(np.argmax(degrees)))
    component = np.flatnonzero(levels >= 0)
    rng = np.random.default_rng(seed)
    if w.batch:
        lanes = min(w.batch, component.size)
        internal = np.stack(
            [rng.choice(component, size=lanes, replace=False) for _ in range(SEARCH_KEYS)]
        )
    else:
        internal = rng.choice(component, size=min(SEARCH_KEYS, component.size), replace=False)
    keys = np.asarray(graph.to_original(internal), dtype=np.int64)
    h = hashlib.sha256()
    for array in (src, dst, keys):
        h.update(np.ascontiguousarray(array).tobytes())
    return Inputs(graph=graph, keys=keys, digest=h.hexdigest()[:16])


def search(w: Workload, graph, key):
    """One validated ``run_bfs`` call, or one ``run_query`` call over a row of keys."""
    common = dict(
        algorithm=w.algorithm, nprocs=w.nprocs, machine=w.machine, validate=True, **w.options
    )
    if w.batch:
        return repro.query.run_query(graph, key, **common)
    return repro.run_bfs(graph, int(key), **common)


def check_tree(levels: np.ndarray, parents: np.ndarray, source: int) -> str | None:
    """The benchmark's own check of one BFS tree, independent of ``validate``."""
    if levels[source] != 0 or parents[source] != source:
        return f"source {source} has level {levels[source]} and parent {parents[source]}"
    reached = np.flatnonzero(levels > 0)
    if not np.array_equal(levels >= 0, parents >= 0):
        return "levels and parents disagree on which vertices were reached"
    if reached.size and np.any(levels[parents[reached]] != levels[reached] - 1):
        return "a parent is not one level above its child"
    return None


def check_result(w: Workload, result, key) -> str | None:
    """Check every tree a search returned; ``None`` when all are sound."""
    if result.m_traversed <= 0 or result.time_total <= 0:
        return f"nothing traversed ({result.m_traversed} edges in {result.time_total} s)"
    if not w.batch:
        return check_tree(result.levels, result.parents, int(key))
    for b, source in enumerate(np.atleast_1d(key)):
        problem = check_tree(result.levels[:, b], result.parents[:, b], int(source))
        if problem:
            return f"lane {b}: {problem}"
    return None
