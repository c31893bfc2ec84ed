"""Live cost charging for functional simulations.

Two pieces:

* :class:`NetworkCostModel` — plugged into the simulation engine; prices
  every collective from its *actual* buffer sizes using
  :mod:`repro.model.network`.
* :class:`Charger` — handed to the BFS algorithms; converts operation
  counts (words streamed, irregular accesses, integer ops) into virtual
  compute seconds using :mod:`repro.model.memory`, dividing
  thread-parallel work by the intra-node thread count (the hybrid model).

With ``machine=None`` both are inert: the simulation still runs, volumes
and counters are still recorded, but virtual time stays at zero — that is
the pure-functional mode used by the correctness tests.
"""

from __future__ import annotations

import math

from repro.model import memory, network
from repro.model.machine import MachineConfig, get_machine
from repro.mpsim import CollectiveCostModel

#: Fraction of ideal speedup intra-node threading achieves on the
#: thread-parallel phases (buffer packing/unpacking, SpMSV row pieces).
#: Deliberately conservative: it folds in OpenMP barrier/merge overheads
#: and NUMA effects, which is why the hybrid variants lose to flat MPI at
#: small scale and only win once communication dominates — exactly the
#: crossover the paper reports (Figures 5 and 7).
DEFAULT_THREAD_EFFICIENCY = 0.3

#: Fixed seconds of intra-node overhead charged per BFS level when
#: threading is active: OpenMP fork/join, the three thread barriers of
#: Algorithm 2, and NUMA traffic on the shared buffers.  Negligible for
#: low-diameter R-MAT traversals (< 10 levels) but decisive for
#: high-diameter traversals with small per-level frontiers — the
#: ~140-level uk-union crawl (Figure 11) and the structured single-node
#: meshes — where it is why the hybrid loses to flat MPI.
LEVEL_THREAD_OVERHEAD = 2e-5

#: Serial-work grain (seconds) below which intra-node threading stops
#: paying: parallelizing a loop whose serial time is comparable to the
#: fork/steal/imbalance costs yields no speedup.  The charged speedup
#: follows the Amdahl-style ramp ``1 + (S - 1) * w / (w + grain)`` — full
#: ``S`` for bulk per-level work (R-MAT), ~1 for the tiny frontiers of
#: high-diameter traversals.
PARALLEL_GRAIN_SECONDS = 1e-3

#: Default top-down -> bottom-up switching threshold of the
#: direction-optimizing 1D variant: flip to the bottom-up sweep once the
#: frontier's incident edges exceed ``1/alpha`` of the edges incident to
#: still-unvisited vertices.  14 is the value tuned by Beamer et al.
#: (the follow-up direction-optimizing BFS work); the `abl-dirop`
#: experiment sweeps it.
DIROP_ALPHA = 14.0

#: Default bottom-up -> top-down switching threshold: return to the
#: top-down candidate exchange once the frontier holds fewer than
#: ``n / beta`` vertices, where scanning every unvisited vertex against
#: the frontier bitmap no longer pays for the saved edge traffic.
DIROP_BETA = 24.0


class NetworkCostModel(CollectiveCostModel):
    """Prices collectives with the Section 5 alpha-beta network model."""

    def __init__(
        self,
        machine: MachineConfig | str,
        threads: int = 1,
        total_ranks: int | None = None,
        a2a_algorithm: str = "auto",
        allgather_algorithm: str = "auto",
    ):
        resolved = get_machine(machine)
        if resolved is None:
            raise ValueError("NetworkCostModel requires a machine")
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.machine = resolved
        self.threads = threads
        self.a2a_algorithm = a2a_algorithm
        self.allgather_algorithm = allgather_algorithm
        per_node = max(1, resolved.cores_per_node // threads)
        if total_ranks is not None:
            per_node = min(per_node, max(1, total_ranks))
        self.ranks_per_node = per_node
        self.total_ranks = total_ranks if total_ranks is not None else 1
        # Bisection contention is job-global (every row/column group
        # communicates simultaneously across the whole torus).
        total = total_ranks if total_ranks is not None else per_node
        self.job_nodes = max(1, (total * threads) // resolved.cores_per_node)

    def cost(
        self, kind: str, parties: int, max_send_words: float, max_recv_words: float
    ) -> float:
        m = self.machine
        if parties <= 1:
            return 0.0  # a single-rank "collective" never touches the wire
        if kind == "alltoallv":
            # Sub-communicator exchanges (the 2D fold along a processor
            # row) run between consecutive ranks on a compact torus region
            # and see less bisection contention than a world collective.
            if parties >= self.total_ranks:
                nodes = self.job_nodes
            else:
                group_nodes = max(1, (parties * self.threads) // m.cores_per_node)
                nodes = network.effective_a2a_nodes(group_nodes, self.job_nodes)
            seconds, _algo = network.a2a_time(
                m,
                parties,
                max_send_words,
                self.ranks_per_node,
                nodes,
                algorithm=self.a2a_algorithm,
            )
            return seconds
        if kind == "allgatherv":
            seconds, _algo = network.allgather_time(
                m,
                parties,
                max_recv_words,
                self.ranks_per_node,
                self.job_nodes,
                algorithm=self.allgather_algorithm,
            )
            return seconds
        if kind in ("allreduce", "bcast", "gather", "scatter"):
            # Small control-plane payloads: tree latency plus a token
            # bandwidth term for the payload itself.
            return network.latency_tree(m, parties) + max(
                max_send_words, max_recv_words
            ) * network.beta_p2p(m, self.ranks_per_node)
        if kind in ("barrier", "split"):
            return network.latency_tree(m, parties)
        if kind == "exchange":  # handled pairwise via p2p_cost, per pair
            return 0.0
        raise ValueError(f"unknown collective kind {kind!r}")

    def p2p_cost(self, words: float) -> float:
        m = self.machine
        return m.net_latency + words * network.beta_p2p(m, self.ranks_per_node)


class Charger:
    """Algorithm-facing compute charging with hybrid-threading semantics.

    Every method records counters on the rank's clock; when a machine is
    configured it also advances virtual time.  Work flagged as
    thread-parallel is divided by ``threads * efficiency`` — the paper's
    hybrid variants parallelize buffer packing/unpacking and the SpMSV row
    pieces across OpenMP threads, while merges and MPI calls stay serial.
    """

    def __init__(
        self,
        comm,
        machine: MachineConfig | str | None = None,
        threads: int = 1,
        thread_efficiency: float = DEFAULT_THREAD_EFFICIENCY,
    ):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if not 0 < thread_efficiency <= 1:
            raise ValueError(f"thread_efficiency must be in (0, 1], got {thread_efficiency}")
        self.comm = comm
        self.machine = get_machine(machine)
        self.threads = threads
        self.thread_efficiency = thread_efficiency

    @property
    def enabled(self) -> bool:
        return self.machine is not None

    def _speedup(self, parallel: bool, seconds: float = float("inf")) -> float:
        """Grain-aware thread speedup for a charge of ``seconds`` serial work."""
        if not parallel or self.threads == 1:
            return 1.0
        full = self.threads * self.thread_efficiency
        if seconds == float("inf"):
            return full
        ramp = seconds / (seconds + PARALLEL_GRAIN_SECONDS)
        return 1.0 + (full - 1.0) * ramp

    def _charge(self, seconds: float, parallel: bool, **counters: float) -> None:
        if self.machine is not None and seconds > 0:
            self.comm.charge_compute(
                seconds / self._speedup(parallel, seconds), **counters
            )
        else:
            self.comm.count(**counters)

    # -- charging primitives ------------------------------------------------
    def count(self, **counters: float) -> None:
        """Record counters without any time charge."""
        self.comm.count(**counters)

    def stream(self, words: float, parallel: bool = True, **counters: float) -> None:
        """Unit-stride traffic of ``words`` (adjacency scans, buffer packs)."""
        seconds = memory.stream_cost(words, self.machine) if self.machine else 0.0
        self._charge(seconds, parallel, stream_words=words, **counters)

    def random(
        self, count: float, ws_words: float, parallel: bool = True, **counters: float
    ) -> None:
        """``count`` irregular accesses into a ``ws_words`` structure.

        This is the paper's ``count * alpha_{L,ws}`` term — the dominant
        local cost of BFS (distance checks in 1D, SPA updates in 2D).
        """
        seconds = (
            memory.random_access_cost(count, ws_words, self.machine)
            if self.machine
            else 0.0
        )
        self._charge(seconds, parallel, random_accesses=count, **counters)

    def intops(self, ops: float, parallel: bool = True, **counters: float) -> None:
        """Integer/branch work (owner computation, comparisons)."""
        seconds = memory.int_op_cost(ops, self.machine) if self.machine else 0.0
        self._charge(seconds, parallel, int_ops=ops, **counters)

    def sort(self, nitems: float, parallel: bool = True, **counters: float) -> None:
        """Comparison sort of ``nitems`` (frontier sorting, heap merges)."""
        ops = nitems * math.log2(nitems) if nitems > 1 else nitems
        self.intops(ops, parallel, sort_items=nitems, **counters)

    def level_overhead(self) -> None:
        """Per-level intra-node synchronization overhead (hybrid only)."""
        if self.threads > 1 and self.machine is not None:
            self.comm.charge_compute(LEVEL_THREAD_OVERHEAD, thread_levels=1)
        else:
            self.comm.count(thread_levels=1)

    def thread_merge(self, words: float, **counters: float) -> None:
        """Serial merge of thread-local buffers (hybrid only; Section 4.2).

        Charged only when threading is active: with one thread there are no
        thread-local stacks to merge.
        """
        if self.threads <= 1:
            self.comm.count(**counters)
            return
        seconds = memory.stream_cost(words, self.machine) if self.machine else 0.0
        self._charge(seconds, parallel=False, merge_words=words, **counters)
