"""Communication statistics for simulated SPMD runs.

Volumes are counted in *words* (array elements; the paper's model counts
64-bit memory words) and are exact: they are derived from the actual NumPy
buffers handed to the collectives, not from a model.

:class:`RankStats` is the run's one ledger.  Besides the per-collective
totals it keeps three record lists, each written once where the event
happens: ``exchanges`` (one :class:`Exchange` per committed channel
attempt), ``levels`` (one dict per engine level) and ``faults`` (one
:class:`Fault` per crash, delay or retry).  The per-kind and per-level
channel volumes, the sieve count, the per-level trace profile and the
:class:`~repro.obs.metrics.MetricsRegistry` series are all views over
them, so they cannot disagree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.mpsim.clock import RankClock


class Exchange(NamedTuple):
    """One committed attempt of a channel collective on one rank.

    ``payload_words``/``wire_words`` follow the self-exclusion convention
    of the collective ``kind``; ``pairs`` counts the items shipped and
    ``dropped`` the candidates the sender-side sieve removed before
    encoding (``sieved`` says whether the exchange went through it).
    ``retry`` marks a re-run of an exchange whose first committed attempt
    a fault discarded: it moves its words again, but its encode and sieve
    work were done once.
    """

    kind: str
    level: int | None
    payload_words: float
    wire_words: float
    pairs: int
    dropped: int
    sieved: bool
    codec: str
    retry: bool


class Fault(NamedTuple):
    """One fired fault on one rank: a crash, a delay, or a retry.

    ``kind`` is ``"crash"``, ``"delay"`` or the transient kind that forced
    a retry (``"timeout"``/``"corrupt"``); ``site`` names the retried
    collective (``None`` for crashes and delays); ``seconds`` is the
    modeled time charged for it.
    """

    kind: str
    site: str | None
    level: int
    seconds: float


@dataclass
class RankStats:
    """Per-rank communication record.

    ``words_sent``/``words_recv`` and ``calls`` are keyed by collective
    kind (``"alltoallv"``, ``"allgatherv"``, ``"allreduce"``, ...) and
    count every collective, channel-routed or not.  ``words_sent`` holds
    the *wire* (post-codec) size of channel exchanges, since the
    collectives see the encoded buffers.
    """

    words_sent: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    words_recv: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    mpi_time_by_kind: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Committed channel attempts, in order (see :class:`Exchange`).
    exchanges: list[Exchange] = field(default_factory=list)
    #: One record per engine level: the level span's attributes plus the
    #: step's per-level counts (``frontier``, ``candidates``,
    #: ``words_sent``, ``wire_words``, ``sieve_dropped``, ``discovered``).
    levels: list[dict] = field(default_factory=list)
    #: Fired faults, in order (see :class:`Fault`).
    faults: list[Fault] = field(default_factory=list)
    #: Words sent per destination *global* rank (populated only when the
    #: run was launched with ``record_peers=True``).
    peer_words: dict[int, float] = field(default_factory=lambda: defaultdict(float))
    #: Collective spans on this rank's virtual clock (populated only when
    #: the run was launched with ``record_timeline=True``).
    events: list = field(default_factory=list)

    def record(
        self,
        kind: str,
        sent_words: float,
        recv_words: float,
        mpi_seconds: float,
    ) -> None:
        self.words_sent[kind] += sent_words
        self.words_recv[kind] += recv_words
        self.calls[kind] += 1
        self.mpi_time_by_kind[kind] += mpi_seconds

    @property
    def total_words_sent(self) -> float:
        return float(sum(self.words_sent.values()))

    @property
    def total_words_recv(self) -> float:
        return float(sum(self.words_recv.values()))


def _sum_exchanges(comm: list[RankStats], words: str, kind: str | None) -> float:
    return float(
        sum(
            getattr(x, words)
            for r in comm
            for x in r.exchanges
            if kind is None or x.kind == kind
        )
    )


def _by_kind(comm: list[RankStats], words: str) -> dict[str, float]:
    totals: dict[str, float] = {}
    for r in comm:
        for x in r.exchanges:
            totals[x.kind] = totals.get(x.kind, 0.0) + getattr(x, words)
    return dict(sorted(totals.items()))


def _by_level(comm: list[RankStats], words: str) -> dict[int, dict[str, float]]:
    totals: dict[int, dict[str, float]] = {}
    for r in comm:
        for x in r.exchanges:
            if x.level is not None:
                by_kind = totals.setdefault(int(x.level), {})
                by_kind[x.kind] = by_kind.get(x.kind, 0.0) + getattr(x, words)
    return {level: totals[level] for level in sorted(totals)}


@dataclass
class SimStats:
    """Aggregated statistics of one SPMD run (all ranks)."""

    clocks: list[RankClock]
    comm: list[RankStats]

    @property
    def nranks(self) -> int:
        return len(self.clocks)

    @property
    def makespan(self) -> float:
        """Virtual wall-clock of the run: the slowest rank's finish time."""
        return max((c.time for c in self.clocks), default=0.0)

    @property
    def max_compute_time(self) -> float:
        return max((c.compute_time for c in self.clocks), default=0.0)

    @property
    def max_mpi_time(self) -> float:
        return max((c.mpi_time for c in self.clocks), default=0.0)

    @property
    def mean_mpi_time(self) -> float:
        if not self.clocks:
            return 0.0
        return sum(c.mpi_time for c in self.clocks) / len(self.clocks)

    def mpi_fraction(self, rank: int) -> float:
        """Fraction of a rank's virtual time spent in MPI (Fig. 4 metric)."""
        clock = self.clocks[rank]
        if clock.time <= 0:
            return 0.0
        return clock.mpi_time / clock.time

    def words_sent(self, kind: str | None = None) -> float:
        """Total words sent across all ranks (optionally one collective kind)."""
        if kind is None:
            return float(sum(r.total_words_sent for r in self.comm))
        return float(sum(r.words_sent.get(kind, 0.0) for r in self.comm))

    def words_recv(self, kind: str | None = None) -> float:
        if kind is None:
            return float(sum(r.total_words_recv for r in self.comm))
        return float(sum(r.words_recv.get(kind, 0.0) for r in self.comm))

    def payload_words(self, kind: str | None = None) -> float:
        """Logical (pre-codec) words of channel-routed exchanges."""
        return _sum_exchanges(self.comm, "payload_words", kind)

    def wire_words(self, kind: str | None = None) -> float:
        """Post-codec words of channel-routed exchanges (what beta_N prices)."""
        return _sum_exchanges(self.comm, "wire_words", kind)

    def compression_ratio(self, kind: str | None = None) -> float:
        """payload / wire over channel-routed exchanges (1.0 when untracked)."""
        wire = self.wire_words(kind)
        if wire <= 0:
            return 1.0
        return self.payload_words(kind) / wire

    @property
    def sieve_dropped(self) -> float:
        """Candidates dropped by the sender-side sieve, summed over ranks.

        A retried exchange re-sends the buffers its first attempt packed,
        so only first attempts count.
        """
        return float(
            sum(x.dropped for r in self.comm for x in r.exchanges if not x.retry)
        )

    def words_by_kind(self) -> dict[str, float]:
        """Total words sent per collective kind, across all ranks."""
        totals: dict[str, float] = {}
        for rank_stats in self.comm:
            for kind, words in rank_stats.words_sent.items():
                totals[kind] = totals.get(kind, 0.0) + words
        return dict(sorted(totals.items()))

    def payload_by_kind(self) -> dict[str, float]:
        """Logical words per kind for channel-routed exchanges."""
        return _by_kind(self.comm, "payload_words")

    def words_by_level(self) -> dict[int, dict[str, float]]:
        """``{level: {kind: wire words}}`` for channel-routed exchanges."""
        return _by_level(self.comm, "wire_words")

    def payload_by_level(self) -> dict[int, dict[str, float]]:
        """``{level: {kind: logical words}}`` for channel-routed exchanges."""
        return _by_level(self.comm, "payload_words")

    def calls(self, kind: str) -> int:
        """Maximum number of calls of ``kind`` made by any rank."""
        return max((r.calls.get(kind, 0) for r in self.comm), default=0)

    def mpi_time_by_kind(self, kind: str) -> float:
        """Max-over-ranks MPI seconds attributed to one collective kind."""
        return max((r.mpi_time_by_kind.get(kind, 0.0) for r in self.comm), default=0.0)

    def counter(self, name: str) -> float:
        """Sum of a named operation counter across ranks."""
        return float(sum(c.counters.get(name, 0.0) for c in self.clocks))

    def comm_matrix(self):
        """Rank-to-rank traffic matrix: ``M[i, j]`` = words ``i`` sent ``j``.

        Requires the run to have been launched with ``record_peers=True``
        (otherwise the matrix is all zeros).  Self-traffic is excluded by
        construction.
        """
        import numpy as np

        matrix = np.zeros((self.nranks, self.nranks))
        for src, rank_stats in enumerate(self.comm):
            for dst, words in rank_stats.peer_words.items():
                matrix[src, dst] = words
        return matrix

    def summary(self) -> dict:
        """Scalar run summary plus per-kind/per-level word breakdowns.

        ``total_words_sent`` counts what actually crossed the simulated
        wire (post-codec); ``total_payload_words`` is the logical volume
        of the channel-routed exchanges, so their ratio is the run's
        compression factor.
        """
        return {
            "nranks": self.nranks,
            "makespan": self.makespan,
            "max_compute_time": self.max_compute_time,
            "max_mpi_time": self.max_mpi_time,
            "mean_mpi_time": self.mean_mpi_time,
            "total_words_sent": self.words_sent(),
            "total_payload_words": self.payload_words(),
            "total_wire_words": self.wire_words(),
            "compression_ratio": self.compression_ratio(),
            "sieve_dropped_candidates": self.sieve_dropped,
            "words_by_kind": self.words_by_kind(),
            "payload_by_kind": self.payload_by_kind(),
            "words_by_level": self.words_by_level(),
        }
