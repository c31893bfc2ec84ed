"""Distributed BFS with 1D vertex partitioning (Algorithm 2, Section 3.1).

Each rank owns a block of vertices and their adjacencies.  A BFS level:

1. enumerate the adjacencies of the local frontier (thread-parallel in the
   hybrid variant, via the cost model's thread divisor);
2. deduplicate candidates per destination ("in-node aggregation" — the
   tuned behaviour that distinguishes this code from the Graph 500
   reference implementation; can be disabled for the ablation);
3. bucket (vertex, parent) pairs by owner and exchange with a single
   ``Alltoallv``;
4. owners perform the visited checks and build the next local frontier;
5. an ``Allreduce`` detects global termination.

Only the level *interior* lives here: :class:`TopDown1D` is an
:class:`~repro.core.engine.AlgorithmStep` plugin, and the level loop,
crash markers, checkpointing and result marshaling are the
:class:`~repro.core.engine.TraversalEngine`'s.  :func:`bfs_1d` is the
SPMD rank body binding the two: run it under
:func:`repro.mpsim.run_spmd`, one call per simulated rank.
"""

from __future__ import annotations

import numpy as np

from repro.comm import CommChannel, Sieve
from repro.comm import make_sieve as _make_sieve
from repro.comm import restore_sieve as _restore_sieve
from repro.comm import sieve_state as _sieve_state
from repro.core.engine import LevelOutcome, TraversalEngine
from repro.core.engine import partition_ranges as _partition_ranges
from repro.core.frontier import dedup_candidates
from repro.core.partition import Partition1D
from repro.graphs.csr import CSR
from repro.mpsim.communicator import Communicator


class TopDown1D:
    """Algorithm 2's level interior, as an engine step plugin.

    Owns the 1D partition, the candidate-exchange
    :class:`~repro.comm.CommChannel` and the rank's traversal arrays;
    every level runs the enumerate/dedup/pack/exchange/update phases and
    terminates on an ``Allreduce`` of the new-frontier size.
    """

    result_keys = ("lo", "hi")
    charger_kwargs: dict = {}

    def __init__(
        self,
        csr: CSR,
        source: int,
        dedup_sends: bool = True,
        codec="raw",
        sieve: bool | Sieve = False,
    ):
        self.csr = csr
        self.source = source
        self.dedup_sends = dedup_sends
        self.codec = codec
        self.sieve = sieve

    def setup(self, engine: TraversalEngine) -> None:
        csr = self.csr
        comm = engine.comm
        self.comm = comm
        self.charger = engine.charger
        self.obs = engine.obs
        self.threads = engine.threads
        self.part = Partition1D(csr.n, comm.size)
        self.lo, self.hi = self.part.range_of(comm.rank)
        self.nloc = self.hi - self.lo
        self.channel = CommChannel(
            comm,
            _partition_ranges(self.part, comm.size),
            codec=self.codec,
            sieve=_make_sieve(self.sieve, csr.n),
            charger=engine.charger,
            tracer=engine.obs,
            metrics=engine.metrics,
            faults=engine.faults,
        )

        self.levels = np.full(self.nloc, -1, dtype=np.int64)
        self.parents = np.full(self.nloc, -1, dtype=np.int64)
        if self.lo <= self.source < self.hi:
            self.levels[self.source - self.lo] = 0
            self.parents[self.source - self.lo] = self.source
            self.frontier = np.array([self.source], dtype=np.int64)
        else:
            self.frontier = np.empty(0, dtype=np.int64)

    def vertex_range(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def initial_sync(self) -> None:
        # No pre-loop termination test: level 1 always runs (the source
        # rank's frontier is never empty before it).
        return None

    def begin_level(self, level: int) -> dict:
        return {"level": level}

    def step(self, level: int) -> LevelOutcome:
        csr, charger, obs = self.csr, self.charger, self.obs
        lo, nloc = self.lo, self.nloc
        frontier = self.frontier
        # 1. Enumerate adjacencies of the local frontier (global vertex
        #    ids; the rank owns the frontier vertices, so the global CSR
        #    offsets are its own rows).
        with obs.span("td-scan"):
            targets, sources = csr.gather(frontier)
            charger.random(frontier.size, ws_words=2 * max(nloc, 1))
            charger.stream(
                2.0 * targets.size, edges_scanned=float(targets.size)
            )

        # 2/3. Aggregate and bucket by owner.
        candidates = int(targets.size)
        if self.dedup_sends:
            # Dedup within (rank, level): cheapest when done before the
            # owner bucketing because R-MAT hubs generate many duplicates.
            with obs.span("td-dedup"):
                targets, sources = dedup_candidates(targets, sources)
                charger.sort(candidates)
        with obs.span("td-pack"):
            owners = self.part.owner_of(targets)
            send, xinfo = self.channel.pack_pairs(targets, sources, owners)
            charger.intops(2.0 * xinfo.pairs)  # owner computation + packing
            charger.stream(2.0 * xinfo.pairs)
            charger.count(
                candidates=float(candidates), unique_sends=float(xinfo.pairs)
            )

        # 3. The level's single collective (codec-encoded buffers).
        with obs.span("td-exchange"):
            rv, rp = self.channel.exchange_pairs(send, xinfo, level=level)

        # 4. Owner-side visited checks (Algorithm 2 lines 23-26).  The
        #    received pairs from different sources may share targets.
        with obs.span("td-update"):
            charger.random(float(rv.size), ws_words=max(nloc, 1))
            unvisited = self.levels[rv - lo] < 0
            rv, rp = dedup_candidates(rv[unvisited], rp[unvisited])
            self.levels[rv - lo] = level
            self.parents[rv - lo] = rp
            self.frontier = rv
            if self.threads > 1:
                charger.thread_merge(float(self.frontier.size))
            charger.stream(float(self.frontier.size))

        return LevelOutcome(
            candidates=candidates,
            words_sent=int(2 * xinfo.pairs),
            wire_words=int(xinfo.wire_words),
            sieve_dropped=xinfo.dropped,
        )

    def termination_sync(self) -> int:
        return self.comm.allreduce(int(self.frontier.size))

    def state(self) -> dict:
        return _sieve_state(self.channel.sieve)

    def restore(self, snapshot: dict) -> None:
        _restore_sieve(self.channel.sieve, snapshot)
        return None


def bfs_1d(
    comm: Communicator,
    csr: CSR,
    source: int,
    machine=None,
    threads: int = 1,
    dedup_sends: bool = True,
    codec="raw",
    sieve: bool | Sieve = False,
    trace: bool = False,
    tracer=None,
    faults=None,
    checkpoint=None,
    resume_level: int | None = None,
) -> dict:
    """Rank body of the 1D algorithm (flat MPI when ``threads == 1``).

    Parameters
    ----------
    comm:
        The rank's world communicator.
    csr:
        The *global* adjacency structure; ranks slice their own block
        (shared-memory simulation stands in for the distributed copy, so
        volumes — not storage — are what is measured).
    source:
        Global source vertex id (already relabeled if shuffling is on).
    machine / threads:
        Cost-model configuration; ``machine=None`` runs untimed.
    dedup_sends:
        Send-side deduplication of candidate vertices per destination.
    codec / sieve:
        Wire format for the candidate exchange (``"raw"``,
        ``"delta-varint"``, ``"bitmap"``, ``"auto"`` or a
        :class:`~repro.comm.Codec` instance) and the sender-side
        already-seen filter; see :mod:`repro.comm`.
    trace:
        Record a per-level profile (frontier size, candidates, words
        sent/received) under the ``"trace"`` key of the result.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; when installed, every
        level leaves nested phase spans (``td-scan``/``td-dedup``/
        ``td-pack``/``td-exchange``/``td-update``/``sync``) stamped in
        virtual time.  Tracing is passive: results and stats are
        bit-identical with or without it.
    faults / checkpoint / resume_level:
        Resilience hooks threaded by ``run_bfs``: a
        :class:`~repro.faults.FaultContext` firing the run's fault plan,
        a :class:`~repro.faults.CheckpointConfig` snapshotting the
        traversal state every N levels, and — on a restart attempt — the
        checkpointed level to resume from.

    Returns
    -------
    dict with the rank's vertex range, local ``levels``/``parents`` arrays
    and the number of levels executed.
    """
    step = TopDown1D(
        csr, source, dedup_sends=dedup_sends, codec=codec, sieve=sieve
    )
    return TraversalEngine(
        comm,
        step,
        machine=machine,
        threads=threads,
        trace=trace,
        tracer=tracer,
        faults=faults,
        checkpoint=checkpoint,
        resume_level=resume_level,
    ).run()
