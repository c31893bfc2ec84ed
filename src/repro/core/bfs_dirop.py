"""Direction-optimizing distributed BFS on the 1D partition.

The paper's cost model shows BFS time is dominated by the few
hub-dominated middle levels of an R-MAT traversal, where the frontier
touches almost every edge.  The direction-optimizing refinement (Beamer
et al.; applied to distributed memory in the follow-up work of Buluc,
Beamer and Madduri) replaces the top-down candidate exchange on those
levels with a *bottom-up* sweep:

* **expand** — owners pack their local frontier into a 64-bit bitmap and
  assemble the global frontier with one ``Allgatherv`` (``~n/64`` words
  on the wire, charged at ``beta_{N,ag}``), instead of shipping
  per-edge (vertex, parent) pairs through the ``Alltoallv``;
* **fold** — each owner scans its *unvisited* local vertices against the
  bitmap, walking every sorted adjacency list in reverse and stopping at
  the first frontier neighbour.  The reverse order makes the early exit
  land on the *maximum* frontier neighbour, which is exactly the
  (select, max) parent the top-down dedup would have chosen — so the
  variant stays bit-identical to every other algorithm in the repo.

Direction choice is collective and deterministic: each level, ranks
``Allreduce`` the global frontier size, the frontier's incident-edge
count, and the unexplored-edge count, then apply the shared
``alpha``/``beta`` density predicates from :mod:`repro.core.frontier`.
Directed graphs (no symmetry) disable the bottom-up sweep, since
scanning out-adjacencies cannot discover in-neighbours.

Only the level *interior* lives here: :class:`DirOpt1D` is an
:class:`~repro.core.engine.AlgorithmStep` plugin whose
:meth:`~DirOpt1D.begin_level` flips the traversal direction and whose
checkpoint :meth:`~DirOpt1D.state` carries the switch hysteresis; the
level loop itself is the :class:`~repro.core.engine.TraversalEngine`'s.
:func:`bfs_1d_dirop` is the SPMD rank body binding the two: run it
under :func:`repro.mpsim.run_spmd`, one call per simulated rank.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.comm import CommChannel, make_sieve, restore_sieve, sieve_state
from repro.core.engine import (
    LevelOutcome,
    TraversalEngine,
    partition_ranges,
)
from repro.core.frontier import (
    bitmap_words,
    dedup_candidates,
    should_switch_bottom_up,
    should_switch_top_down,
)
from repro.core.partition import Partition1D
from repro.graphs.csr import CSR
from repro.model.costmodel import DIROP_ALPHA, DIROP_BETA
from repro.mpsim.communicator import Communicator

TOP_DOWN = "top-down"
BOTTOM_UP = "bottom-up"


def _topdown_level(
    comm, csr, part, channel, charger, obs, levels, parents, frontier, lo,
    nloc, level, dedup_sends, threads,
):
    """One top-down level: Algorithm 2's enumerate/dedup/exchange/update."""
    with obs.span("td-scan"):
        targets, sources = csr.gather(frontier)
        charger.random(frontier.size, ws_words=2 * max(nloc, 1))
        charger.stream(2.0 * targets.size, edges_scanned=float(targets.size))

    candidates = int(targets.size)
    if dedup_sends:
        with obs.span("td-dedup"):
            targets, sources = dedup_candidates(targets, sources)
            charger.sort(candidates)
    with obs.span("td-pack"):
        owners = part.owner_of(targets)
        send, xinfo = channel.pack_pairs(targets, sources, owners)
        charger.intops(2.0 * xinfo.pairs)
        charger.stream(2.0 * xinfo.pairs)
        charger.count(candidates=float(candidates), unique_sends=float(xinfo.pairs))

    with obs.span("td-exchange"):
        rv, rp = channel.exchange_pairs(send, xinfo, level=level)
    with obs.span("td-update"):
        charger.random(float(rv.size), ws_words=max(nloc, 1))
        unvisited = levels[rv - lo] < 0
        rv, rp = dedup_candidates(rv[unvisited], rp[unvisited])
        levels[rv - lo] = level
        parents[rv - lo] = rp
        if threads > 1:
            charger.thread_merge(float(rv.size))
        charger.stream(float(rv.size))
    return rv, {
        "candidates": candidates,
        "words_sent": int(2 * xinfo.pairs),
        "wire_words": int(xinfo.wire_words),
        "sieve_dropped": xinfo.dropped,
    }


def _bottomup_level(
    comm, csr, part, channel, charger, obs, levels, parents, frontier, lo,
    nloc, level, threads,
):
    """One bottom-up level: bitmap expand + early-exit reverse edge scans."""
    # Expand: every owner contributes its local frontier bitmap; the
    # Allgatherv assembles the global one (~n/64 words received per rank
    # under the raw codec, priced post-codec by the collective cost model).
    with obs.span("bu-expand"):
        payload = float(bitmap_words(nloc))
        charger.stream(payload + float(frontier.size))
        bitmap, xinfo = channel.expand_bitmap(frontier, level=level)
        charger.stream(float(bitmap.size) / 64.0)

    # Fold: enumerate unvisited owned vertices and reverse-scan their
    # sorted adjacencies against the bitmap.  The last frontier hit of a
    # sorted list is the maximum frontier neighbour, so the early exit
    # reproduces the (select, max) parent of the top-down dedup.
    with obs.span("bu-scan"):
        unvisited = np.flatnonzero(levels < 0) + lo
        charger.stream(float(nloc))
        deg = csr.indptr[unvisited + 1] - csr.indptr[unvisited]
        active = unvisited[deg > 0]
        counts = deg[deg > 0]
        charger.random(float(active.size), ws_words=2 * max(nloc, 1))
        targets, _sources = csr.gather(active)
        if active.size:
            ends = np.cumsum(counts)
            starts = ends - counts
            last_hit = kernels.last_hit_scan(bitmap[targets], starts, counts)
            has_parent = last_hit >= 0
            new = active[has_parent]
            new_parents = targets[last_hit[has_parent]]
            # Reverse scan visits positions [last_hit, end) before exiting —
            # the whole list when no frontier neighbour exists.
            scanned = float(np.where(has_parent, ends - last_hit, counts).sum())
        else:
            new = np.empty(0, dtype=np.int64)
            new_parents = np.empty(0, dtype=np.int64)
            scanned = 0.0
        charger.random(scanned, ws_words=max(1.0, float(bitmap.size) / 64.0))
        charger.stream(2.0 * scanned, edges_scanned=scanned)
        charger.count(candidates=scanned)

    with obs.span("bu-update"):
        levels[new - lo] = level
        parents[new - lo] = new_parents
        if threads > 1:
            charger.thread_merge(float(new.size))
        charger.stream(float(new.size))
    return new, {
        "candidates": int(scanned),
        "words_sent": int(payload),
        "wire_words": int(xinfo.wire_words),
        "sieve_dropped": 0,
    }


class DirOpt1D:
    """The direction-optimizing level interior, as an engine step plugin.

    Top-down levels run Algorithm 2's phases; bottom-up levels run the
    bitmap expand + reverse-scan fold.  The direction flip happens in
    :meth:`begin_level` from collective state only, the termination
    ``Allreduce`` carries the three frontier-density statistics the
    predicates need, and checkpoints add the switch-hysteresis state so
    a restarted attempt resumes with the same decisions.
    """

    result_keys = ("lo", "hi")
    charger_kwargs: dict = {}

    def __init__(
        self,
        csr: CSR,
        source: int,
        dedup_sends: bool = True,
        codec="raw",
        sieve=False,
        alpha: float | None = None,
        beta: float | None = None,
        symmetric: bool = True,
    ):
        self.csr = csr
        self.source = source
        self.dedup_sends = dedup_sends
        self.codec = codec
        self.sieve = sieve
        self.alpha = DIROP_ALPHA if alpha is None else alpha
        self.beta = DIROP_BETA if beta is None else beta
        self.symmetric = symmetric

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
            partition_ranges(self.part, comm.size),
            codec=self.codec,
            sieve=make_sieve(self.sieve, csr.n),
            charger=engine.charger,
            tracer=engine.obs,
            faults=engine.faults,
        )
        self.degrees = csr.indptr[self.lo + 1 : self.hi + 1] - csr.indptr[self.lo : self.hi]

        self.levels = np.full(self.nloc, -1, dtype=np.int64)
        self.parents = np.full(self.nloc, -1, dtype=np.int64)
        self.unexplored_edges = int(self.degrees.sum())
        if self.lo <= self.source < self.hi:
            self.levels[self.source - self.lo] = 0
            self.parents[self.source - self.lo] = self.source
            self.frontier = np.array([self.source], dtype=np.int64)
            self.unexplored_edges -= int(self.degrees[self.source - self.lo])
        else:
            self.frontier = np.empty(0, dtype=np.int64)
        self.direction = TOP_DOWN

    def vertex_range(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def _frontier_stats(self, front: np.ndarray) -> np.ndarray:
        fedges = int(self.degrees[front - self.lo].sum()) if front.size else 0
        return np.array(
            [front.size, fedges, self.unexplored_edges], dtype=np.int64
        )

    def _sync_stats(self) -> None:
        self.g_front, self.g_fedges, self.g_unexplored = (
            int(x)
            for x in self.comm.allreduce(self._frontier_stats(self.frontier))
        )

    def initial_sync(self) -> None:
        # The pre-loop stats Allreduce seeds the first switch decision;
        # level 1 itself always runs (the source frontier is nonempty
        # somewhere), so no termination count is returned.
        self._sync_stats()
        return None

    def begin_level(self, level: int) -> dict:
        # Direction choice: collective state only, so every rank flips in
        # lockstep without extra communication.
        if self.symmetric:
            if self.direction == TOP_DOWN and should_switch_bottom_up(
                self.g_fedges, self.g_unexplored, self.alpha
            ):
                self.direction = BOTTOM_UP
            elif self.direction == BOTTOM_UP and should_switch_top_down(
                self.g_front, self.csr.n, self.beta
            ):
                self.direction = TOP_DOWN
        return {"level": level, "direction": self.direction}

    def step(self, level: int) -> LevelOutcome:
        if self.direction == TOP_DOWN:
            frontier, info = _topdown_level(
                self.comm, self.csr, self.part, self.channel, self.charger,
                self.obs, self.levels, self.parents, self.frontier, self.lo,
                self.nloc, level, self.dedup_sends, self.threads,
            )
        else:
            frontier, info = _bottomup_level(
                self.comm, self.csr, self.part, self.channel, self.charger,
                self.obs, self.levels, self.parents, self.frontier, self.lo,
                self.nloc, level, self.threads,
            )
        self.frontier = frontier
        self.unexplored_edges -= (
            int(self.degrees[frontier - self.lo].sum()) if frontier.size else 0
        )
        return LevelOutcome(
            candidates=info["candidates"],
            words_sent=info["words_sent"],
            wire_words=info["wire_words"],
            sieve_dropped=info["sieve_dropped"],
            extra={"direction": self.direction},
        )

    def termination_sync(self) -> int:
        self._sync_stats()
        return self.g_front

    def state(self) -> dict:
        return {
            "direction": self.direction,
            "unexplored_edges": self.unexplored_edges,
            "g_front": self.g_front,
            "g_fedges": self.g_fedges,
            "g_unexplored": self.g_unexplored,
            **sieve_state(self.channel.sieve),
        }

    def restore(self, snapshot: dict) -> int:
        restore_sieve(self.channel.sieve, snapshot)
        self.direction = snapshot["direction"]
        self.unexplored_edges = int(snapshot["unexplored_edges"])
        self.g_front = int(snapshot["g_front"])
        self.g_fedges = int(snapshot["g_fedges"])
        self.g_unexplored = int(snapshot["g_unexplored"])
        return self.g_front


def bfs_1d_dirop(
    comm: Communicator,
    csr: CSR,
    source: int,
    machine=None,
    threads: int = 1,
    dedup_sends: bool = True,
    codec="raw",
    sieve=False,
    alpha: float | None = None,
    beta: float | None = None,
    symmetric: bool = True,
    tracer=None,
    faults=None,
    checkpoint=None,
    resume_level: int | None = None,
) -> dict:
    """Rank body of the direction-optimizing 1D algorithm.

    Parameters
    ----------
    comm / csr / source / machine / threads / dedup_sends / codec / sieve:
        As in :func:`repro.core.bfs1d.bfs_1d`; ``dedup_sends`` applies to
        the top-down levels only, while ``codec``/``sieve`` cover both the
        top-down ``Alltoallv`` and the bottom-up bitmap ``Allgatherv``
        (the expand also feeds the sieve: a gathered frontier is a set of
        discovered vertices no later exchange needs to re-ship).
    alpha:
        Top-down -> bottom-up density threshold (default
        :data:`~repro.model.costmodel.DIROP_ALPHA`): switch when the
        frontier's incident edges exceed ``1/alpha`` of the unexplored
        edges.
    beta:
        Bottom-up -> top-down threshold (default
        :data:`~repro.model.costmodel.DIROP_BETA`): switch back when the
        frontier shrinks below ``n / beta`` vertices.
    symmetric:
        Whether the adjacency structure is symmetric; directed inputs
        pin the traversal to top-down (bottom-up needs in-edges).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` recording nested phase
        spans in virtual time: ``td-*`` phases on top-down levels,
        ``bu-expand``/``bu-scan``/``bu-update`` on bottom-up ones, and the
        level-closing ``sync`` around the frontier-stats ``Allreduce``.
    faults / checkpoint / resume_level:
        Resilience hooks threaded by ``run_bfs`` (see
        :func:`repro.core.bfs1d.bfs_1d`).  Snapshots additionally carry
        the direction-optimizing hysteresis state (current ``direction``,
        the unexplored-edge count and the last global frontier stats), so
        a restarted attempt resumes with the same switch decisions.

    Returns
    -------
    dict with the rank's vertex range, local ``levels``/``parents`` arrays
    and the number of levels executed.
    """
    step = DirOpt1D(
        csr,
        source,
        dedup_sends=dedup_sends,
        codec=codec,
        sieve=sieve,
        alpha=alpha,
        beta=beta,
        symmetric=symmetric,
    )
    return TraversalEngine(
        comm,
        step,
        machine=machine,
        threads=threads,
        tracer=tracer,
        faults=faults,
        checkpoint=checkpoint,
        resume_level=resume_level,
    ).run()
