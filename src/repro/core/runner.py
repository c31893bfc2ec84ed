"""High-level BFS driver: prepare, simulate, reassemble, report.

:func:`run` is the typed entry point: it takes a :class:`RunConfig`
(the run's full cross-cutting configuration, validated in one place),
looks the algorithm up in the declarative :data:`ALGORITHMS` registry
(name -> :class:`AlgorithmSpec`: step-plugin class, rank body, prepare
hook + capabilities), launches the SPMD simulation with the requested
machine cost model, stitches the per-rank outputs back into full
``levels``/``parents`` arrays in the caller's vertex labels, and wraps
everything in a :class:`BFSResult` with TEPS accounting and the modeled
time breakdown.  :func:`run_bfs` keeps the historical keyword API as a
thin compatibility shim over ``run``.

Every distributed family, the batched queries of
:func:`repro.query.run_query` included, runs through one launcher,
:func:`launch`.  Its source-independent half — rank count and the
step's graph-side arguments, e.g. the 2D blocks — comes from
:func:`prepare`, which builds it once per graph and configuration,
freezes it read-only and keeps it on the :class:`Graph`, so repeated
searches (Graph 500's kernel 2) share one distribution.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import bfs_graph500_ref, bfs_pbgl_like
from repro.core.bfs1d import TopDown1D
from repro.core.bfs2d import SpMSV2D, build_2d_blocks
from repro.core.bfs2d_dirop import DirOpt2D
from repro.core.bfs_dirop import DirOpt1D
from repro.core.engine import traversal_body
from repro.core.partition import Decomp2D
from repro.core.serial import bfs_serial
from repro.core.validate import count_traversed_edges, validate_bfs
from repro.faults import (
    CheckpointConfig,
    CheckpointStore,
    FaultContext,
    RetryPolicy,
    resolve_fault_plan,
)
from repro.graphs.graph import Graph
from repro.model.costmodel import DIROP_ALPHA, DIROP_BETA, NetworkCostModel
from repro.model.machine import HOPPER, get_machine
from repro.mpsim.engine import run_spmd
from repro.runtime import BACKENDS as RUNTIME_BACKENDS
from repro.mpsim.stats import SimStats
from repro.query.cc import ConnectedComponents1D
from repro.query.msbfs import MSBFS1D
from repro.query.sssp import DeltaSSSP1D


@dataclass(frozen=True)
class Prepared:
    """Everything about a run that does not depend on its source.

    ``nranks`` is the SPMD rank count; ``args`` are the step's leading
    positional arguments (the CSR, or the 2D blocks and their
    :class:`~repro.core.partition.Decomp2D`) and ``kwargs`` its
    graph-derived keywords (``symmetric``, the global ``degrees``).
    :func:`prepare` freezes every array in it, so a step that writes into
    shared state raises instead of corrupting the next search.
    """

    nranks: int
    args: tuple
    kwargs: dict = field(default_factory=dict)


def _prepare_1d(graph: Graph, resolved: "ResolvedRun") -> Prepared:
    """1D families: ``nprocs`` ranks, each owning a slice of the shared CSR."""
    return Prepared(resolved.config.nprocs, (graph.csr,))


def _prepare_1d_dirop(graph: Graph, resolved: "ResolvedRun") -> Prepared:
    return Prepared(
        resolved.config.nprocs, (graph.csr,), {"symmetric": not graph.directed}
    )


def _prepare_2d(graph: Graph, resolved: "ResolvedRun") -> Prepared:
    """2D families: the closest square grid (or ``grid_shape``) and its blocks."""
    config = resolved.config
    if config.grid_shape is not None:
        pr, pc = config.grid_shape
    else:
        pr = pc = math.isqrt(config.nprocs)
    if pr < 1 or pc < 1:
        raise ValueError(f"grid must be positive, got {pr}x{pc}")
    decomp = Decomp2D(
        graph.n, pr, pc, diagonal_vectors=(config.vector_dist == "1d")
    )
    blocks = build_2d_blocks(graph.csr, decomp, threads=resolved.threads)
    return Prepared(pr * pc, (blocks, decomp))


def _prepare_2d_dirop(graph: Graph, resolved: "ResolvedRun") -> Prepared:
    prepared = _prepare_2d(graph, resolved)
    return dataclasses.replace(prepared, kwargs={"degrees": graph.csr.degrees()})


def _baseline_body(baseline: Callable) -> Callable:
    """Rank body of a step-less baseline ``baseline(comm, csr, source, machine)``.

    It takes the launcher's call like :func:`traversal_body` does; the
    baselines are flat and uninstrumented, so only ``machine`` applies.
    """

    def body(comm, _step, step_args, _step_kwargs, machine=None, **_engine):
        return baseline(comm, *step_args, machine=machine)

    return body


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declarative registry entry: how one algorithm name runs.

    ``step`` is the :class:`~repro.core.engine.AlgorithmStep` plugin
    class for engine-driven families (``None`` for the serial reference
    and the baselines).  ``body`` is the SPMD rank body the launcher
    runs, called as ``body(comm, step, step_args, step_kwargs,
    **engine_kwargs)``: :func:`~repro.core.engine.traversal_body` for the
    engine families, the baseline's own code for ``pbgl`` and
    ``graph500-ref``.  ``prepare(graph, resolved) -> Prepared`` builds
    the run's source-independent state (``None`` for the families that
    launch no SPMD run of their own: ``serial`` and ``landmark``), and
    ``options`` maps step keywords onto the :class:`RunConfig` fields
    that feed them.
    ``capabilities`` names the cross-cutting concerns the family
    supports; :meth:`RunConfig.resolve` rejects options the registry
    does not declare:

    * ``"wire"`` — exchanges route through :mod:`repro.comm`
      (``codec``/``sieve`` apply);
    * ``"tracer"`` — instrumented with :mod:`repro.obs` phase spans;
    * ``"faults"`` — fault/checkpoint instrumentation
      (``faults``/``checkpoint_every``/``max_retries`` apply);
    * ``"trace-profile"`` — per-level profile under
      ``result.meta["level_profile"]`` when ``trace=True``.

    ``kind`` names the result family: ``"bfs"`` entries run through
    :func:`run` / :func:`run_bfs`; the batched query kinds (``"msbfs"``,
    ``"cc"``, ``"sssp"``, ``"landmark"``) run through
    :func:`repro.query.run_query`, which owns their stitching and
    validation.
    """

    family: str
    hybrid: bool
    step: type | None = None
    capabilities: frozenset = frozenset()
    kind: str = "bfs"
    prepare: Callable | None = _prepare_1d
    options: dict = field(default_factory=dict)
    body: Callable = traversal_body


#: Everything the engine provides to its step plugins.
ENGINE_CAPABILITIES = frozenset({"wire", "tracer", "faults", "trace-profile"})

#: Step keyword -> RunConfig field, per family.
_1D_OPTIONS = {"dedup_sends": "dedup_sends", "codec": "codec", "sieve": "sieve"}
_2D_OPTIONS = {
    "kernel": "kernel",
    "modeled_cores": "modeled_cores",
    "codec": "codec",
    "sieve": "sieve",
}
_DIROP_OPTIONS = {"alpha": "dirop_alpha", "beta": "dirop_beta"}


_1D = AlgorithmSpec("1d", False, TopDown1D, ENGINE_CAPABILITIES, options=_1D_OPTIONS)
_1D_DIROP = AlgorithmSpec(
    "1d-dirop",
    False,
    DirOpt1D,
    ENGINE_CAPABILITIES,
    prepare=_prepare_1d_dirop,
    options={**_1D_OPTIONS, **_DIROP_OPTIONS},
)
_2D = AlgorithmSpec(
    "2d", False, SpMSV2D, ENGINE_CAPABILITIES, prepare=_prepare_2d, options=_2D_OPTIONS
)
_2D_DIROP = AlgorithmSpec(
    "2d-dirop",
    False,
    DirOpt2D,
    ENGINE_CAPABILITIES,
    prepare=_prepare_2d_dirop,
    options={**_2D_OPTIONS, **_DIROP_OPTIONS},
)

#: Algorithm registry: name -> spec.  Adding an algorithm is one entry
#: here plus one AlgorithmStep plugin class (docs/architecture.md has
#: the how-to); the driver below contains no per-name branches.
ALGORITHMS: dict[str, AlgorithmSpec] = {
    "serial": AlgorithmSpec("serial", False, prepare=None),
    "1d": _1D,
    "1d-hybrid": dataclasses.replace(_1D, hybrid=True),
    "1d-dirop": _1D_DIROP,
    "1d-dirop-hybrid": dataclasses.replace(_1D_DIROP, hybrid=True),
    "2d": _2D,
    "2d-hybrid": dataclasses.replace(_2D, hybrid=True),
    "2d-dirop": _2D_DIROP,
    "2d-dirop-hybrid": dataclasses.replace(_2D_DIROP, hybrid=True),
    "pbgl": AlgorithmSpec("pbgl", False, body=_baseline_body(bfs_pbgl_like)),
    "graph500-ref": AlgorithmSpec(
        "graph500-ref", False, body=_baseline_body(bfs_graph500_ref)
    ),
    # Batched query families (repro.query.run_query).  cc and sssp-delta
    # carry batch state the base checkpoint does not cover, so they do
    # not declare "faults"; msbfs-1d snapshots its full lane words.
    "msbfs-1d": AlgorithmSpec(
        "msbfs-1d",
        False,
        MSBFS1D,
        ENGINE_CAPABILITIES,
        kind="msbfs",
        options={"dedup_sends": "dedup_sends", "codec": "codec"},
    ),
    "cc": AlgorithmSpec(
        "cc",
        False,
        ConnectedComponents1D,
        frozenset({"wire", "tracer", "trace-profile"}),
        kind="cc",
        options={"codec": "codec"},
    ),
    "sssp-delta": AlgorithmSpec(
        "sssp-delta",
        False,
        DeltaSSSP1D,
        frozenset({"wire", "tracer", "trace-profile"}),
        kind="sssp",
        options={"codec": "codec"},
    ),
    # landmark wraps an internal msbfs-1d run; it is an offline index
    # build, so the fault battery covers the underlying msbfs-1d instead.
    "landmark": AlgorithmSpec(
        "landmark",
        False,
        None,
        frozenset({"wire", "tracer", "trace-profile"}),
        kind="landmark",
        prepare=None,
    ),
}


@dataclass
class BFSResult:
    """Output of one BFS traversal plus its simulation record."""

    levels: np.ndarray
    parents: np.ndarray
    source: int
    algorithm: str
    nranks: int
    threads: int
    nlevels: int
    m_traversed: int
    stats: SimStats | None = None
    meta: dict = field(default_factory=dict)

    @property
    def modeled_cores(self) -> int:
        return self.nranks * self.threads

    @property
    def time_total(self) -> float:
        """Modeled traversal seconds (0 when untimed)."""
        return self.stats.makespan if self.stats is not None else 0.0

    @property
    def time_comm(self) -> float:
        """Modeled seconds the slowest rank spent in MPI (incl. waits)."""
        return self.stats.max_mpi_time if self.stats is not None else 0.0

    @property
    def time_comp(self) -> float:
        return self.stats.max_compute_time if self.stats is not None else 0.0

    def gteps(self) -> float:
        """Traversed-edges-per-second rate in billions."""
        if self.time_total <= 0:
            raise ValueError("untimed run: pass a machine to run_bfs for TEPS")
        return self.m_traversed / self.time_total / 1e9

    def mteps(self) -> float:
        return self.gteps() * 1e3


def _resolve_threads(algorithm: str, threads: int | None, machine) -> int:
    """Hybrid defaults follow the paper: 4-way on Franklin, 6-way on Hopper."""
    hybrid = ALGORITHMS[algorithm].hybrid
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if not hybrid and threads != 1:
            raise ValueError(f"{algorithm} is a flat variant; use a hybrid for threads > 1")
        return threads
    if not hybrid:
        return 1
    return 6 if machine is not None and machine is HOPPER else 4


@dataclass(frozen=True)
class RunConfig:
    """One BFS run's full configuration, validated in one place.

    Field semantics match the :func:`run_bfs` keyword of the same name
    (see its docstring); ``run_bfs`` is a shim building one of these.
    Construction checks the algorithm name; :meth:`resolve` checks every
    cross-field constraint (machine, threads, capability gating) and
    returns the resolved machine/thread choices the driver runs with.
    """

    algorithm: str = "1d"
    nprocs: int = 4
    threads: int | None = None
    machine: object = None
    kernel: str = "auto"
    dedup_sends: bool = True
    codec: object = "raw"
    sieve: object = False
    vector_dist: str = "2d"
    modeled_cores: int | None = None
    grid_shape: tuple[int, int] | None = None
    dirop_alpha: float | None = None
    dirop_beta: float | None = None
    validate: bool = False
    trace: bool = False
    runtime: str | None = None
    spmd_timeout: float | None = None
    tracer: object = None
    metrics: object = None
    faults: object = None
    checkpoint_every: int | None = None
    max_retries: int | None = None
    # Batched-query fields (repro.query families only).
    sources: tuple = ()
    sssp_delta: int | None = None
    weight_max: int | None = None
    weight_seed: int | None = None
    landmarks: int | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; known: {sorted(ALGORITHMS)}"
            )
        if self.runtime is not None and self.runtime not in RUNTIME_BACKENDS:
            raise ValueError(
                f"unknown execution runtime {self.runtime!r}; "
                f"known: {sorted(RUNTIME_BACKENDS)}"
            )
        if self.spmd_timeout is not None and self.spmd_timeout <= 0:
            raise ValueError(
                f"spmd_timeout must be > 0, got {self.spmd_timeout}"
            )

    @property
    def spec(self) -> AlgorithmSpec:
        return ALGORITHMS[self.algorithm]

    @property
    def resilient(self) -> bool:
        """Whether any fault/checkpoint/retry option is active."""
        return (
            self.faults is not None
            or self.checkpoint_every is not None
            or self.max_retries is not None
        )

    def resolve(self) -> "ResolvedRun":
        """Validate cross-field constraints; resolve machine and threads."""
        spec = self.spec
        machine = get_machine(self.machine)
        threads = _resolve_threads(self.algorithm, self.threads, machine)
        wire_default = (
            self.codec == "raw" or getattr(self.codec, "name", None) == "raw"
        ) and not self.sieve
        if "wire" not in spec.capabilities and not wire_default:
            raise ValueError(
                f"{self.algorithm} does not route its exchanges through repro.comm; "
                "codec/sieve apply to the 1d/2d families only"
            )
        if self.tracer is not None and "tracer" not in spec.capabilities:
            raise ValueError(
                f"{self.algorithm} is not instrumented for span tracing; "
                "tracer applies to the 1d/2d families only"
            )
        # Metrics are derived from the engine's ledger records.
        if self.metrics is not None and "tracer" not in spec.capabilities:
            raise ValueError(
                f"{self.algorithm} is not instrumented for metrics; "
                "metrics applies to the 1d/2d families only"
            )
        if self.resilient and "faults" not in spec.capabilities:
            raise ValueError(
                f"{self.algorithm} has no fault/checkpoint instrumentation; "
                "faults/checkpoint_every/max_retries apply to the 1d/2d families only"
            )
        self._check_query_fields(spec)
        return ResolvedRun(config=self, spec=spec, machine=machine, threads=threads)

    def _check_query_fields(self, spec: AlgorithmSpec) -> None:
        """Gate the batched-query fields on the algorithm's kind."""
        if spec.kind == "bfs":
            for name in ("sources", "sssp_delta", "weight_max",
                         "weight_seed", "landmarks"):
                if getattr(self, name) not in ((), None):
                    raise ValueError(
                        f"{name} applies to the repro.query families only; "
                        f"{self.algorithm} is a single-source BFS"
                    )
            return
        if self.sieve:
            raise ValueError(
                f"{self.algorithm} re-ships targets whose lane words grow, "
                "so the sender sieve would drop live updates; sieve applies "
                "to the single-source families only"
            )
        codec_name = getattr(self.codec, "name", self.codec)
        if codec_name == "bitmap" and spec.kind in ("msbfs", "sssp", "landmark"):
            raise ValueError(
                f"{self.algorithm} ships candidate triples, and the bitmap "
                "codec collapses their duplicate targets; use raw, "
                "delta-varint or auto"
            )
        if self.sources and spec.kind in ("cc", "landmark"):
            raise ValueError(
                f"{self.algorithm} picks its own sources; "
                "sources apply to msbfs-1d/sssp-delta"
            )
        if spec.kind != "sssp":
            for name in ("sssp_delta", "weight_max", "weight_seed"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} applies to sssp-delta only")
        if self.landmarks is not None and spec.kind != "landmark":
            raise ValueError("landmarks applies to the landmark family only")


@dataclass(frozen=True)
class ResolvedRun:
    """A validated :class:`RunConfig` plus its resolved machine/threads."""

    config: RunConfig
    spec: AlgorithmSpec
    machine: object
    threads: int


def _freeze(obj) -> None:
    """Make every numpy array reachable from ``obj`` read-only."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _freeze(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            _freeze(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _freeze(getattr(obj, f.name))


def prepare(graph: Graph, resolved: ResolvedRun) -> Prepared | None:
    """The run's source-independent state, built once per graph and configuration.

    Calls the spec's ``prepare`` hook the first time and keeps the frozen
    result on ``graph`` (:meth:`Graph.prepared`), keyed on everything it
    depends on: family, rank count/grid shape, vector distribution and
    threads.  The graph holds one entry, so switching configuration
    rebuilds.  ``None`` for families that launch no SPMD run of their own.
    """
    spec, config = resolved.spec, resolved.config
    if spec.prepare is None:
        return None
    key = (
        spec.family,
        config.nprocs,
        config.grid_shape,
        config.vector_dist,
        resolved.threads,
    )

    def build() -> Prepared:
        prepared = spec.prepare(graph, resolved)
        _freeze(prepared)
        return prepared

    return graph.prepared(key, build)


def launch(graph: Graph, resolved: ResolvedRun, source_args: tuple = (), **run_kwargs):
    """Run one SPMD traversal of ``graph`` per ``resolved``: the one launcher.

    Step arguments are the prepared graph-side ones followed by
    ``source_args``; step keywords are the spec's ``options`` read off the
    config, the prepared keywords and ``run_kwargs``.  A metered run's
    registry is filled here, once, from the ledgers of every attempt.
    Returns ``(nranks, SpmdResult, fault_meta | None)``.
    """
    spec, config = resolved.spec, resolved.config
    machine, threads = resolved.machine, resolved.threads
    prepared = prepare(graph, resolved)
    step_kwargs = {kw: getattr(config, name) for kw, name in spec.options.items()}
    step_kwargs.update(prepared.kwargs, **run_kwargs)
    cost_model = (
        NetworkCostModel(machine, threads=threads, total_ranks=prepared.nranks)
        if machine is not None
        else None
    )
    engine_kwargs = dict(machine=machine, threads=threads, tracer=config.tracer)
    spmd, attempts, fault_meta = _run_resilient(
        prepared.nranks,
        spec.body,
        (spec.step, prepared.args + tuple(source_args), step_kwargs),
        engine_kwargs,
        cost_model,
        config.faults,
        config.checkpoint_every,
        config.max_retries,
        runtime=config.runtime,
        timeout=config.spmd_timeout,
    )
    if config.metrics is not None:
        config.metrics.add_run(attempts)
    return prepared.nranks, spmd, fault_meta


def stitch(graph: Graph, spec: AlgorithmSpec, spmd, columns: int | None = None):
    """Reassemble per-rank ``levels``/``parents`` into full internal arrays.

    ``columns`` gives ``(n, columns)`` lane arrays for the batched
    queries.  Returns ``(levels, parents, nlevels)``.
    """
    lo_key, hi_key = spec.step.result_keys if spec.step else ("lo", "hi")
    shape = (graph.n,) if columns is None else (graph.n, columns)
    levels = np.empty(shape, dtype=np.int64)
    parents = np.empty(shape, dtype=np.int64)
    for rank_out in spmd.returns:
        levels[rank_out[lo_key] : rank_out[hi_key]] = rank_out["levels"]
        parents[rank_out[lo_key] : rank_out[hi_key]] = rank_out["parents"]
    nlevels = max(r["nlevels"] for r in spmd.returns)
    return levels, parents, nlevels


def run(graph: Graph, source: int, config: RunConfig) -> BFSResult:
    """Run one BFS traversal of ``graph`` from ``source`` per ``config``.

    The typed core of the driver: ``config`` is validated once, and every
    family but ``serial`` goes through :func:`launch` — the cached
    :func:`prepare`, the SPMD launch of the spec's rank body — and
    :func:`stitch`.  :func:`run_bfs` is the keyword-API shim over this.
    """
    if config.spec.kind != "bfs":
        raise ValueError(
            f"{config.algorithm} is a batched query family; "
            "use repro.query.run_query"
        )
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range [0, {graph.n})")
    resolved = config.resolve()
    spec, machine, threads = resolved.spec, resolved.machine, resolved.threads
    src_internal = int(np.asarray(graph.to_internal(source)))

    if spec.prepare is None:  # serial: the reference, outside SPMD
        levels_int, parents_int = bfs_serial(graph.csr, src_internal)
        nlevels = int(levels_int.max()) if levels_int.max() >= 0 else 0
        nranks, spmd, stats, fault_meta = 1, None, None, None
    else:
        nranks, spmd, fault_meta = launch(graph, resolved, (src_internal,))
        levels_int, parents_int, nlevels = stitch(graph, spec, spmd)
        stats = spmd.stats

    if config.validate:
        ref_levels, _ref_parents = bfs_serial(graph.csr, src_internal)
        validate_bfs(
            graph.csr,
            src_internal,
            levels_int,
            parents_int,
            reference_levels=ref_levels,
            undirected=not graph.directed,
        )

    level_profile = level_profile_of(config, spec, spmd)

    m_traversed = count_traversed_edges(graph.csr, levels_int, graph.m_input)
    return BFSResult(
        levels=graph.relabel_level_array(levels_int),
        parents=graph.relabel_vertex_array(parents_int),
        source=source,
        algorithm=config.algorithm,
        nranks=nranks,
        threads=threads,
        nlevels=nlevels,
        m_traversed=m_traversed,
        stats=stats,
        meta={
            "graph": graph.name,
            "machine": machine.name if machine is not None else None,
            "kernel": config.kernel,
            "dedup_sends": config.dedup_sends,
            "codec": getattr(config.codec, "name", config.codec),
            "sieve": bool(config.sieve),
            "vector_dist": config.vector_dist,
            "dirop_alpha": (
                DIROP_ALPHA if config.dirop_alpha is None else config.dirop_alpha
            ),
            "dirop_beta": (
                DIROP_BETA if config.dirop_beta is None else config.dirop_beta
            ),
            "level_profile": level_profile,
            "tracer": config.tracer,
            "metrics": config.metrics,
            "faults": fault_meta,
        },
    )


def run_bfs(
    graph: Graph,
    source: int,
    algorithm: str = "1d",
    nprocs: int = 4,
    threads: int | None = None,
    machine=None,
    kernel: str = "auto",
    dedup_sends: bool = True,
    codec: str = "raw",
    sieve: bool = False,
    vector_dist: str = "2d",
    modeled_cores: int | None = None,
    grid_shape: tuple[int, int] | None = None,
    dirop_alpha: float | None = None,
    dirop_beta: float | None = None,
    validate: bool = False,
    trace: bool = False,
    runtime: str | None = None,
    spmd_timeout: float | None = None,
    tracer=None,
    metrics=None,
    faults=None,
    checkpoint_every: int | None = None,
    max_retries: int | None = None,
) -> BFSResult:
    """Run one BFS traversal of ``graph`` from ``source``.

    Compatibility shim: every keyword maps one-to-one onto the
    :class:`RunConfig` field of the same name, and the call is
    equivalent to ``run(graph, source, RunConfig(...))``.

    Parameters
    ----------
    graph:
        A preprocessed :class:`~repro.graphs.graph.Graph`.
    source:
        Vertex id in the caller's (original) labeling.
    algorithm:
        One of :data:`ALGORITHMS`: ``"serial"``, ``"1d"``, ``"1d-hybrid"``,
        ``"1d-dirop"``, ``"1d-dirop-hybrid"``, ``"2d"``, ``"2d-hybrid"``,
        ``"2d-dirop"``, ``"2d-dirop-hybrid"``, ``"pbgl"``,
        ``"graph500-ref"``.
    nprocs:
        Simulated MPI rank count.  2D variants use the closest square
        grid not exceeding ``nprocs`` (the paper's convention).
    threads:
        Intra-node threads modeled per rank (hybrids only); defaults to
        the paper's 4 (Franklin) or 6 (Hopper).
    machine:
        ``None`` (functional, untimed), a machine short name
        (``"franklin"``/``"hopper"``/``"carver"``), or a
        :class:`~repro.model.machine.MachineConfig`.
    kernel:
        SpMSV kernel for 2D: ``"auto"`` (polyalgorithm), ``"spa"``,
        ``"heap"``.
    dedup_sends:
        1D send-side deduplication (ablation switch).
    codec:
        Wire format for the exchange buffers (``"raw"``,
        ``"delta-varint"``, ``"bitmap"``, ``"auto"`` or a
        :class:`~repro.comm.Codec` instance); the alpha-beta model prices
        the *encoded* buffers, so compression is modeled speedup.
        Distributed 1d/2d families only.
    sieve:
        Sender-side filter dropping candidates whose target this rank
        already shipped (or observed discovered) at an earlier level —
        exact, parents stay bit-identical.  Distributed 1d/2d families
        only.
    vector_dist:
        2D vector distribution: ``"2d"`` (default) or ``"1d"``
        (diagonal-only; the Figure 4 ablation).
    modeled_cores:
        Overrides the core count fed to the polyalgorithm predicate.
    grid_shape:
        Explicit ``(pr, pc)`` processor grid for the 2D variants,
        overriding the closest-square default — the paper's general
        rectangular formulation (square grids keep the cheaper pairwise
        vector transpose).
    dirop_alpha / dirop_beta:
        Direction-optimizing switching thresholds (the ``1d-dirop`` and
        ``2d-dirop`` families): switch to bottom-up when the frontier's incident
        edges exceed ``1/alpha`` of the unexplored edges, back to
        top-down when the frontier shrinks below ``n / beta``.  Default
        to :data:`~repro.model.costmodel.DIROP_ALPHA` /
        :data:`~repro.model.costmodel.DIROP_BETA`.
    validate:
        Run serial reference + Graph 500 validation on the output.
    trace:
        Record an aggregated per-level profile (frontier size, candidate
        count, words sent, vertices discovered, summed over ranks) in
        ``result.meta["level_profile"]``.  Supported by the 1d/2d
        families; serial runs and baselines leave the profile ``None``.
    runtime:
        Execution backend for the SPMD launch: ``"sequential"``
        (deterministic round-robin scheduler) or ``"processes"``
        (forked workers, real parallelism).  ``None`` defers to
        ``REPRO_RUNTIME``, else ``"sequential"``.  All modeled outputs
        are bit-identical across backends.
    spmd_timeout:
        Stall bound of the ``processes`` coordinator: seconds without a
        message from any worker before the run aborts as deadlocked.
        ``None`` defers to ``REPRO_SPMD_TIMEOUT`` or the 600 s default;
        the sequential runtime detects deadlocks structurally and
        ignores it.
    tracer:
        Optional :class:`~repro.obs.Tracer` recording nested per-rank,
        per-level phase spans in virtual time (1d/2d families only).
        Tracing is passive — stats stay bit-identical — and the tracer is
        stored in ``result.meta["tracer"]`` so
        :func:`repro.obs.run_report` and
        :func:`repro.obs.write_chrome_trace` can find it.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`, filled after the
        launch with typed labeled counters/gauges/histograms derived from
        the stats ledger (1d/2d families only).  No rank sees it, so
        stats stay bit-identical; it is stored in
        ``result.meta["metrics"]`` so :func:`repro.obs.run_report` embeds
        the snapshot.
    faults:
        Deterministic fault schedule for the run: a ``--fault-spec``
        string (``"crash:rank=1,level=3;timeout:level=2;seed=7"``), a
        :class:`~repro.faults.FaultEvent`, or a
        :class:`~repro.faults.FaultPlan`.  Transient faults
        (timeout/corrupt) are absorbed by the comm channel's retry loop;
        a crash aborts the SPMD run, and — when checkpointing is on —
        the driver restarts it from the last complete checkpoint on a
        continuous virtual timeline.  1d/2d families only.
    checkpoint_every:
        Snapshot every N levels (level-granular checkpoint/restart); the
        save/restore traffic is charged by the cost model.  ``None``
        disables checkpointing, so an injected crash aborts the run.
    max_retries:
        Per-collective transient-retry budget (default
        :class:`~repro.faults.RetryPolicy`'s 3); a fault schedule denser
        than the budget raises ``RetryExhaustedError``.
    """
    return run(
        graph,
        source,
        RunConfig(
            algorithm=algorithm,
            nprocs=nprocs,
            threads=threads,
            machine=machine,
            kernel=kernel,
            dedup_sends=dedup_sends,
            codec=codec,
            sieve=sieve,
            vector_dist=vector_dist,
            modeled_cores=modeled_cores,
            grid_shape=grid_shape,
            dirop_alpha=dirop_alpha,
            dirop_beta=dirop_beta,
            validate=validate,
            trace=trace,
            runtime=runtime,
            spmd_timeout=spmd_timeout,
            tracer=tracer,
            metrics=metrics,
            faults=faults,
            checkpoint_every=checkpoint_every,
            max_retries=max_retries,
        ),
    )


#: Counters the resilience layer books on the rank clocks; accumulated
#: across restart attempts (a failed attempt's checkpoints and retries
#: are real modeled work the report must not drop).
_FAULT_COUNTERS = (
    "fault_retries",
    "fault_delays",
    "fault_corruptions",
    "checkpoints",
    "checkpoint_words",
    "restores",
    "restore_words",
)


def _run_resilient(
    nranks, body, args, kwargs, cost_model, faults, checkpoint_every, max_retries,
    runtime=None, timeout=None,
):
    """Launch an SPMD BFS with the run's fault plan armed.

    The fast path (no resilience options) is the plain ``run_spmd`` call.
    Otherwise the fault plan and checkpoint store are built once and the
    launch loops: a permanent rank crash is observed cooperatively by
    every rank at the level boundary (the engine returns a ``"crashed"``
    marker, so the SPMD run completes normally with deterministic clocks
    and spans); with checkpointing on, the crash event is marked consumed
    and the run restarts from the last complete checkpoint (or from the
    source when the crash predates the first one), ``base_time``
    continuing the failed attempt's virtual timeline.  A crash with
    checkpointing disabled raises the
    :class:`~repro.faults.RankCrashError` — a clean abort, never a hang.

    Returns ``(SpmdResult, attempts, fault_meta | None)``: the last
    attempt's result, the :class:`~repro.mpsim.stats.SimStats` of every
    attempt in order, and the fault accounting (whose counters, like the
    metrics, sum over all attempts).
    """
    if faults is None and checkpoint_every is None and max_retries is None:
        spmd = run_spmd(
            nranks, body, *args, cost_model=cost_model,
            runtime=runtime, timeout=timeout, **kwargs,
        )
        return spmd, [spmd.stats], None

    plan = resolve_fault_plan(faults)
    if len(plan) and plan.max_rank() >= nranks:
        raise ValueError(
            f"fault plan targets rank {plan.max_rank()} "
            f"but the run has only {nranks} ranks"
        )
    retry = RetryPolicy() if max_retries is None else RetryPolicy(max_retries=max_retries)
    fault_ctx = FaultContext(plan, retry)
    checkpoint = (
        CheckpointConfig(CheckpointStore(nranks), every=checkpoint_every)
        if checkpoint_every is not None
        else None
    )

    attempts: list[SimStats] = []
    restores: list[dict] = []
    resume = None
    base = 0.0
    while True:
        spmd = run_spmd(
            nranks,
            body,
            *args,
            cost_model=cost_model,
            runtime=runtime,
            timeout=timeout,
            base_time=base,
            faults=fault_ctx,
            checkpoint=checkpoint,
            resume_level=resume,
            **kwargs,
        )
        attempts.append(spmd.stats)
        crash = next(
            (
                r["crashed"]
                for r in spmd.returns
                if isinstance(r, dict) and "crashed" in r
            ),
            None,
        )
        if crash is None:
            break
        base = spmd.stats.makespan
        if checkpoint is None:
            raise crash
        # No complete checkpoint yet (crash before the first interval)
        # still recovers: None replays the traversal from the source.
        resume = checkpoint.store.latest_complete()
        plan.mark_fired(crash.event_index)
        restores.append(
            {
                "rank": crash.rank,
                "crash_level": crash.level,
                "resume_level": resume,
                "at_time": base,
            }
        )

    fault_meta = {
        "spec": plan.spec(),
        "seed": plan.seed,
        "events": [event.as_dict() for event in plan.events],
        "max_retries": retry.max_retries,
        "checkpoint_every": checkpoint_every,
        "attempts": len(attempts),
        "restores": restores,
        "counters": {
            name: sum(stats.counter(name) for stats in attempts)
            for name in _FAULT_COUNTERS
        },
    }
    return spmd, attempts, fault_meta


def level_profile_of(config: RunConfig, spec: AlgorithmSpec, spmd) -> list[dict] | None:
    """The run's per-level profile when ``trace=True`` asked for one.

    A view over the ledger's level records of the last attempt (a
    restarted run's profile covers ``resume_level+1`` onward).
    """
    if not (config.trace and "trace-profile" in spec.capabilities):
        return None
    return _merge_traces([rank.levels for rank in spmd.stats.comm])


def _merge_traces(rank_traces: list[list[dict]]) -> list[dict]:
    """Sum per-level counters across ranks (levels are lockstep).

    The direction-optimizing variant additionally records which
    ``direction`` a level ran in; the choice is collective, so the first
    rank's value stands for the level.
    """
    nlevels = max(len(t) for t in rank_traces)
    merged: list[dict] = []
    for i in range(nlevels):
        # Levels are lockstep but need not start at 1: a checkpoint-
        # restarted run's profile covers resume_level+1 onward.
        entry = {"level": i + 1, "frontier": 0, "candidates": 0,
                 "words_sent": 0, "wire_words": 0, "sieve_dropped": 0,
                 "discovered": 0}
        for t in rank_traces:
            if i < len(t):
                entry["level"] = t[i].get("level", i + 1)
                for key in ("frontier", "candidates", "words_sent",
                            "wire_words", "sieve_dropped", "discovered"):
                    entry[key] += t[i].get(key, 0)
                # Collective per-level choices (traversal direction, lane
                # count, CC batch, SSSP bucket): first rank's value stands.
                for key in ("direction", "lanes", "batch", "bucket"):
                    if key in t[i] and key not in entry:
                        entry[key] = t[i][key]
        merged.append(entry)
    return merged
