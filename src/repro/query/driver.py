"""Batched-query driver: launch, stitch, validate, report.

:func:`run_query` is to the query families what
:func:`repro.core.run_bfs` is to the BFS families: it validates a
:class:`~repro.core.runner.RunConfig`, launches the registered
:class:`~repro.core.engine.AlgorithmStep` plugin through the same
launcher as every BFS family (:func:`~repro.core.runner.launch`: the
cached prepared graph, then the resilient SPMD run with crash restart,
tracing and checkpointing), stitches the per-rank outputs, and wraps
them in a :class:`QueryResult` whose shape ``run_report``/``perf-diff``
understand.

Kind dispatch (``AlgorithmSpec.kind``):

* ``msbfs``    — one engine run, 2-D lane-column results;
* ``cc``       — one self-seeding engine run; labels canonicalized to the
  component's minimum original vertex id;
* ``sssp``     — one engine run per source, stacked into lane columns
  (modeled times accumulate across the batch);
* ``landmark`` — offline landmark selection + one internal ``msbfs-1d``
  sweep, returning a cached :class:`~repro.query.landmark.LandmarkIndex`.

``repro.core.runner`` is imported lazily: the registry imports the step
classes from this package, so a module-level import here would cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.graphs.graph import Graph
from repro.query.landmark import DEFAULT_LANDMARKS, LandmarkIndex, select_landmarks
from repro.query.msbfs import WORD_LANES
from repro.query.serial import cc_serial, msbfs_serial, sssp_serial
from repro.query.sssp import DEFAULT_DELTA, DEFAULT_WEIGHT_MAX, edge_weights
from repro.sparse.semiring import INF


@dataclass
class QueryResult:
    """Output of one batched query plus its simulation record.

    ``levels``/``parents`` are ``(n, batch)`` lane columns for the
    batched kinds (``msbfs``/``sssp``/``landmark``) and 1-D arrays for
    ``cc`` (first-touch level and component label).  Attribute names
    deliberately mirror :class:`~repro.core.runner.BFSResult` so
    :func:`repro.obs.run_report` accepts either.
    """

    levels: np.ndarray
    parents: np.ndarray
    sources: np.ndarray
    algorithm: str
    kind: str
    nranks: int
    threads: int
    nlevels: int
    batch: int
    m_traversed: int
    time_total: float = 0.0
    time_comm: float = 0.0
    time_comp: float = 0.0
    stats: object = None
    meta: dict = field(default_factory=dict)

    @property
    def source(self) -> int:
        """Representative source (the first lane's), for report headers."""
        return int(self.sources[0]) if self.sources.size else -1

    @property
    def modeled_cores(self) -> int:
        return self.nranks * self.threads

    def lane(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """One lane's ``(levels, parents)`` as flat single-source arrays."""
        if self.levels.ndim != 2:
            raise ValueError(f"{self.kind} results carry no lanes")
        return self.levels[:, b], self.parents[:, b]

    def gteps(self) -> float:
        """Traversed-edges-per-second rate in billions, batch-aggregate."""
        if self.time_total <= 0:
            raise ValueError("untimed run: pass a machine to run_query for TEPS")
        return self.m_traversed / self.time_total / 1e9

    def queries_per_second(self) -> float:
        """Modeled query throughput: the batch amortizes one traversal."""
        if self.time_total <= 0:
            raise ValueError("untimed run: pass a machine to run_query")
        return self.batch / self.time_total


def run_query(graph: Graph, sources=None, config=None, **kwargs) -> QueryResult:
    """Run one batched query of ``graph`` per ``config``.

    Either pass a prebuilt :class:`~repro.core.runner.RunConfig` via
    ``config``, or keyword options exactly as :func:`~repro.core.run_bfs`
    takes them (plus the query fields ``sources``/``sssp_delta``/
    ``weight_max``/``weight_seed``/``landmarks``).  ``sources`` — up to
    64 vertex ids in the caller's labels — may be given positionally for
    convenience; it is folded into the config.
    """
    from repro.core import runner

    if config is None:
        kwargs.setdefault("algorithm", "msbfs-1d")
        if sources is not None:
            kwargs["sources"] = _as_source_tuple(sources)
        config = runner.RunConfig(**kwargs)
    else:
        if kwargs:
            raise TypeError("pass either config= or keyword options, not both")
        if sources is not None:
            config = replace(config, sources=_as_source_tuple(sources))
    resolved = config.resolve()
    kind = resolved.spec.kind
    if kind == "bfs":
        raise ValueError(
            f"{config.algorithm} is a single-source BFS; use repro.core.run_bfs"
        )
    if kind == "msbfs":
        return _run_msbfs(graph, config, resolved)
    if kind == "cc":
        return _run_cc(graph, config, resolved)
    if kind == "sssp":
        return _run_sssp(graph, config, resolved)
    if kind == "landmark":
        return _run_landmark(graph, config, resolved)
    raise ValueError(f"unknown query kind {kind!r}")  # pragma: no cover


def _as_source_tuple(sources) -> tuple:
    arr = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    return tuple(int(s) for s in arr)


def _require_sources(graph: Graph, config) -> np.ndarray:
    if not config.sources:
        raise ValueError(
            f"{config.algorithm} needs explicit sources; pass up to "
            f"{WORD_LANES} vertex ids"
        )
    sources = np.asarray(config.sources, dtype=np.int64)
    if not 1 <= sources.size <= WORD_LANES:
        raise ValueError(
            f"batch size must be in [1, {WORD_LANES}], got {sources.size}"
        )
    bad = (sources < 0) | (sources >= graph.n)
    if bad.any():
        raise ValueError(
            f"sources out of range [0, {graph.n}): {sources[bad].tolist()}"
        )
    return sources


def _base_meta(graph, config, resolved, fault_meta, level_profile) -> dict:
    return {
        "graph": graph.name,
        "machine": resolved.machine.name if resolved.machine is not None else None,
        "kernel": config.kernel,
        "dedup_sends": config.dedup_sends,
        "codec": getattr(config.codec, "name", config.codec),
        "sieve": bool(config.sieve),
        "vector_dist": config.vector_dist,
        "level_profile": level_profile,
        "tracer": config.tracer,
        "metrics": config.metrics,
        "faults": fault_meta,
    }


def _run_msbfs(graph: Graph, config, resolved) -> QueryResult:
    from repro.core import runner
    from repro.core.validate import count_traversed_edges

    sources = _require_sources(graph, config)
    srcs_internal = np.array(
        [int(np.asarray(graph.to_internal(int(s)))) for s in sources],
        dtype=np.int64,
    )
    _, spmd, fault_meta = runner.launch(graph, resolved, (srcs_internal,))
    levels_int, parents_int, nlevels = runner.stitch(
        graph, resolved.spec, spmd, sources.size
    )

    if config.validate:
        ref_levels, ref_parents = msbfs_serial(graph.csr, srcs_internal)
        if not (
            np.array_equal(levels_int, ref_levels)
            and np.array_equal(parents_int, ref_parents)
        ):
            raise AssertionError(
                "msbfs lanes diverge from the per-lane serial oracle"
            )

    m_traversed = sum(
        count_traversed_edges(graph.csr, levels_int[:, b], graph.m_input)
        for b in range(sources.size)
    )
    profile = runner.level_profile_of(config, resolved.spec, spmd)
    meta = _base_meta(graph, config, resolved, fault_meta, profile)
    meta["sources"] = sources.tolist()
    return QueryResult(
        levels=graph.relabel_level_array(levels_int),
        parents=graph.relabel_vertex_array(parents_int),
        sources=sources,
        algorithm=config.algorithm,
        kind="msbfs",
        nranks=config.nprocs,
        threads=resolved.threads,
        nlevels=nlevels,
        batch=int(sources.size),
        m_traversed=int(m_traversed),
        time_total=spmd.stats.makespan if spmd.stats is not None else 0.0,
        time_comm=spmd.stats.max_mpi_time if spmd.stats is not None else 0.0,
        time_comp=spmd.stats.max_compute_time if spmd.stats is not None else 0.0,
        stats=spmd.stats,
        meta=meta,
    )


def _canonical_components(n: int, comp: np.ndarray) -> np.ndarray:
    """Remap each component's label to its minimum member vertex id."""
    smallest = np.full(n, n, dtype=np.int64)
    np.minimum.at(smallest, comp, np.arange(n, dtype=np.int64))
    return smallest[comp]


def _run_cc(graph: Graph, config, resolved) -> QueryResult:
    from repro.core import runner
    from repro.core.validate import count_traversed_edges

    if graph.directed:
        raise ValueError("cc requires an undirected graph")
    if config.sources:
        raise ValueError(
            "cc seeds itself from the unlabeled vertices; sources apply to "
            "msbfs-1d/sssp-delta"
        )
    _, spmd, fault_meta = runner.launch(graph, resolved)
    levels_int, comp_int, nlevels = runner.stitch(graph, resolved.spec, spmd)

    if config.validate and not np.array_equal(comp_int, cc_serial(graph.csr)):
        raise AssertionError("components diverge from the serial sweep")

    comp = _canonical_components(
        graph.n, np.asarray(graph.relabel_vertex_array(comp_int))
    )
    profile = runner.level_profile_of(config, resolved.spec, spmd)
    meta = _base_meta(graph, config, resolved, fault_meta, profile)
    meta["components"] = int(np.unique(comp).size)
    return QueryResult(
        levels=graph.relabel_level_array(levels_int),
        parents=comp,
        sources=np.empty(0, dtype=np.int64),
        algorithm=config.algorithm,
        kind="cc",
        nranks=config.nprocs,
        threads=resolved.threads,
        nlevels=nlevels,
        batch=WORD_LANES,
        m_traversed=count_traversed_edges(graph.csr, levels_int, graph.m_input),
        time_total=spmd.stats.makespan if spmd.stats is not None else 0.0,
        time_comm=spmd.stats.max_mpi_time if spmd.stats is not None else 0.0,
        time_comp=spmd.stats.max_compute_time if spmd.stats is not None else 0.0,
        stats=spmd.stats,
        meta=meta,
    )


def _run_sssp(graph: Graph, config, resolved) -> QueryResult:
    from repro.core import runner
    from repro.core.validate import count_traversed_edges

    sources = _require_sources(graph, config)
    delta = DEFAULT_DELTA if config.sssp_delta is None else config.sssp_delta
    weight_max = (
        DEFAULT_WEIGHT_MAX if config.weight_max is None else config.weight_max
    )
    weight_seed = 0 if config.weight_seed is None else config.weight_seed
    weights = edge_weights(graph.csr, weight_max=weight_max, seed=weight_seed)

    n, k = graph.n, sources.size
    levels_int = np.empty((n, k), dtype=np.int64)
    parents_int = np.empty((n, k), dtype=np.int64)
    nlevels = 0
    time_total = time_comm = time_comp = 0.0
    m_traversed = 0
    stats = None
    fault_meta = None
    lane_profiles = []
    for b, s in enumerate(sources):
        src_internal = int(np.asarray(graph.to_internal(int(s))))
        _, spmd, fault_meta = runner.launch(
            graph, resolved, (src_internal,), weights=weights, delta=delta
        )
        dist, parents, levels_run = runner.stitch(graph, resolved.spec, spmd)
        dist = np.where(dist >= INF, np.int64(-1), dist)
        if config.validate:
            ref_dist, ref_parents = sssp_serial(graph.csr, src_internal, weights)
            if not (
                np.array_equal(dist, ref_dist)
                and np.array_equal(parents, ref_parents)
            ):
                raise AssertionError(
                    f"sssp lane {b} diverges from the Dijkstra oracle"
                )
        levels_int[:, b] = dist
        parents_int[:, b] = parents
        nlevels = max(nlevels, levels_run)
        m_traversed += count_traversed_edges(graph.csr, dist, graph.m_input)
        if spmd.stats is not None:
            time_total += spmd.stats.makespan
            time_comm += spmd.stats.max_mpi_time
            time_comp += spmd.stats.max_compute_time
        stats = spmd.stats
        profile = runner.level_profile_of(config, resolved.spec, spmd)
        if profile is not None:
            lane_profiles.append(profile)

    # One engine run per source: lane 0's profile stands as the
    # representative, the full set rides under "lane_profiles".
    meta = _base_meta(
        graph,
        config,
        resolved,
        fault_meta,
        lane_profiles[0] if lane_profiles else None,
    )
    if lane_profiles:
        meta["lane_profiles"] = lane_profiles
    meta.update(
        sources=sources.tolist(),
        sssp_delta=delta,
        weight_max=weight_max,
        weight_seed=weight_seed,
    )
    return QueryResult(
        levels=graph.relabel_level_array(levels_int),
        parents=graph.relabel_vertex_array(parents_int),
        sources=sources,
        algorithm=config.algorithm,
        kind="sssp",
        nranks=config.nprocs,
        threads=resolved.threads,
        nlevels=nlevels,
        batch=int(k),
        m_traversed=int(m_traversed),
        time_total=time_total,
        time_comm=time_comm,
        time_comp=time_comp,
        stats=stats,
        meta=meta,
    )


def _run_landmark(graph: Graph, config, resolved) -> QueryResult:
    if graph.directed:
        raise ValueError("landmark requires an undirected graph")
    if config.sources:
        raise ValueError(
            "landmark selects its own sources; set landmarks=<count> instead"
        )
    k = DEFAULT_LANDMARKS if config.landmarks is None else config.landmarks
    landmarks = select_landmarks(graph, min(k, max(graph.n, 1)))
    inner = replace(
        config,
        algorithm="msbfs-1d",
        sources=tuple(int(v) for v in landmarks),
        landmarks=None,
    )
    res = run_query(graph, config=inner)
    index = LandmarkIndex(landmarks=landmarks, dist=res.levels)
    meta = dict(res.meta)
    meta["landmarks"] = landmarks.tolist()
    meta["index"] = index
    return QueryResult(
        levels=res.levels,
        parents=res.parents,
        sources=landmarks,
        algorithm=config.algorithm,
        kind="landmark",
        nranks=res.nranks,
        threads=res.threads,
        nlevels=res.nlevels,
        batch=res.batch,
        m_traversed=res.m_traversed,
        time_total=res.time_total,
        time_comm=res.time_comm,
        time_comp=res.time_comp,
        stats=res.stats,
        meta=meta,
    )
