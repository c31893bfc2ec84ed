"""MPI-style communicator over a pluggable simulation engine.

A collective is one call to the engine's rendezvous primitive: every
member deposits ``(arrival_time, payload)``, and a *reduction* — built
here, evaluated by the engine exactly once per address space — computes
every member's output, completion time (via the engine's cost model),
and transfer share.  Each rank then applies its own slice to its clock
and wire stats locally.  How ranks are scheduled and where the
reduction runs is the backend's business (see :mod:`repro.runtime`).

Because completion times depend only on deterministic virtual clocks and
payload sizes, runs are bit-reproducible regardless of OS scheduling —
and identical across execution backends.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.mpsim import collectives as coll
from repro.runtime.base import EngineBase, GroupBase

#: Collective kinds that move no observable payload words.
_CONTROL_KINDS = frozenset({"barrier", "split"})


class Communicator:
    """Handle through which one simulated rank communicates with its group."""

    def __init__(self, engine: EngineBase, state: GroupBase, group_rank: int):
        self.engine = engine
        self._st = state
        self.rank = group_rank
        self.size = state.size
        self.global_rank = state.members[group_rank]
        self.clock = engine.clocks[self.global_rank]
        self.stats = engine.stats[self.global_rank]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Communicator(rank={self.rank}/{self.size}, "
            f"global_rank={self.global_rank})"
        )

    @property
    def members(self) -> list[int]:
        """Global ranks of this group, indexed by group rank."""
        return list(self._st.members)

    # -- local accounting ---------------------------------------------------
    def charge_compute(self, seconds: float, **counters: float) -> None:
        """Advance this rank's virtual clock by local-computation seconds."""
        self.clock.charge_compute(seconds, **counters)

    def count(self, **counters: float) -> None:
        """Record operation counters without advancing the clock."""
        self.clock.count(**counters)

    # -- collective core ----------------------------------------------------
    def _collective(
        self,
        kind: str,
        payload: Any,
        combine: Callable[[list], list],
        completion: Callable[[list[float], list], tuple[list[float], list[float]]] | None = None,
    ) -> Any:
        st = self._st
        engine = self.engine
        arrival = self.clock.time

        def reduce(slots: list) -> tuple[list, list[float], list[float]]:
            arrivals = [slot[0] for slot in slots]
            payloads = [slot[1] for slot in slots]
            outputs = combine(payloads)
            if completion is not None:
                completions, transfers = completion(arrivals, payloads)
            else:
                if kind in _CONTROL_KINDS:
                    max_send = max_recv = 0.0
                    weights = [1.0] * st.size
                else:
                    sends = [
                        coll.sent_words(kind, p, r) for r, p in enumerate(payloads)
                    ]
                    recvs = [
                        coll.recv_words(kind, o, r) for r, o in enumerate(outputs)
                    ]
                    max_send = max(sends)
                    max_recv = max(recvs)
                    # A rank's *transfer* share of the collective is
                    # proportional to its own traffic; the rest of its
                    # elapsed span is waiting (Figure 4's idle metric).
                    peak = max(max(s, r) for s, r in zip(sends, recvs))
                    weights = [
                        (max(s, r) / peak) if peak > 0 else 1.0
                        for s, r in zip(sends, recvs)
                    ]
                cost = engine.cost_model.cost(kind, st.size, max_send, max_recv)
                finish = max(arrivals) + cost
                completions = [finish] * st.size
                transfers = [cost * w for w in weights]
            return outputs, completions, transfers

        outputs, completions, transfers = engine.collective(
            st, self.rank, (arrival, payload), reduce
        )
        out = outputs[self.rank]
        if kind in _CONTROL_KINDS:
            sent = recv = 0.0
        else:
            sent = coll.sent_words(kind, payload, self.rank)
            recv = coll.recv_words(kind, out, self.rank)
        elapsed = completions[self.rank] - arrival
        self.clock.complete_collective(completions[self.rank], transfers[self.rank])
        self.stats.record(kind, sent, recv, elapsed)
        if self.engine.record_timeline and kind not in _CONTROL_KINDS:
            from repro.mpsim.timeline import TimelineEvent

            self.stats.events.append(
                TimelineEvent(kind, arrival, completions[self.rank], sent + recv)
            )
        return out

    # -- collectives ----------------------------------------------------
    def barrier(self) -> None:
        """Synchronize all group members (virtual clocks align to the max)."""
        self._collective("barrier", None, lambda payloads: [None] * len(payloads))

    def alltoallv(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        """Personalized exchange: ``send[j]`` goes to group rank ``j``.

        Returns the per-source list of received buffers.
        """
        if len(send) != self.size:
            raise ValueError(
                f"alltoallv needs {self.size} send buffers, got {len(send)}"
            )
        if self.engine.record_peers:
            for dst, buf in enumerate(send):
                if dst != self.rank and buf is not None:
                    self.stats.peer_words[self._st.members[dst]] += float(
                        np.asarray(buf).size
                    )
        return self._collective("alltoallv", list(send), coll.alltoallv)

    def alltoallv_concat(
        self, send: Sequence[np.ndarray | None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`alltoallv` but returns ``(concatenated, counts)``."""
        pieces = self.alltoallv(send)
        counts = np.array([piece.size for piece in pieces], dtype=np.int64)
        if not pieces:
            return np.empty(0, dtype=np.int64), counts
        return np.concatenate(pieces), counts

    def allgatherv(self, buf: np.ndarray | None, concat: bool = True):
        """Gather every rank's buffer at every rank.

        Returns the concatenation by default, or the per-rank list when
        ``concat=False``.
        """
        pieces = self._collective("allgatherv", buf, coll.allgatherv)
        if not concat:
            return pieces
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def allreduce(self, value: Any, op: str | Callable = "sum") -> Any:
        """Reduce ``value`` across the group; all ranks receive the result."""
        return self._collective(
            "allreduce", value, lambda payloads: coll.allreduce(payloads, op)
        )

    def bcast(self, value: Any = None, root: int = 0) -> Any:
        """Broadcast the root's value."""
        return self._collective(
            "bcast", value, lambda payloads: coll.bcast(payloads, root)
        )

    def gather(self, value: Any, root: int = 0) -> list | None:
        """Gather values at ``root`` (non-roots receive ``None``)."""
        return self._collective(
            "gather", value, lambda payloads: coll.gather(payloads, root)
        )

    def scatter(self, values: Sequence | None = None, root: int = 0) -> Any:
        """Scatter the root's per-rank sequence."""
        return self._collective(
            "scatter", values, lambda payloads: coll.scatter(payloads, root)
        )

    def exchange(self, dest: int, buf: np.ndarray | None) -> np.ndarray:
        """Permutation exchange (the 2D algorithm's ``TransposeVector``).

        Every rank names one destination; the pattern must form a
        permutation.  Unlike the full collectives, completion is *pairwise*:
        only the communicating partners synchronize, which is what makes
        the square-grid vector transpose cheap.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"exchange destination {dest} out of range")
        if self.engine.record_peers and dest != self.rank and buf is not None:
            self.stats.peer_words[self._st.members[dest]] += float(
                np.asarray(buf).size
            )
        model = self.engine.cost_model

        def completion(arrivals: list[float], payloads: list) -> tuple[list[float], list[float]]:
            sizes = [float(np.asarray(b).size) if b is not None else 0.0 for _, b in payloads]
            sender_of = {d: src for src, (d, _) in enumerate(payloads)}
            completions = [0.0] * len(payloads)
            transfers = [0.0] * len(payloads)
            for src, (dst, _) in enumerate(payloads):
                partner = sender_of[src]  # who sends to me
                if partner == src and dst == src:
                    # Diagonal processor: the piece never leaves the node.
                    completions[src] = arrivals[src]
                    transfers[src] = 0.0
                    continue
                words = max(sizes[src], sizes[partner])
                cost = model.p2p_cost(words)
                completions[src] = max(arrivals[src], arrivals[dst], arrivals[partner]) + cost
                transfers[src] = cost
            return completions, transfers

        return self._collective("exchange", (dest, buf), coll.exchange, completion)

    # -- point-to-point ---------------------------------------------------
    def send(self, buf: np.ndarray | None, dest: int) -> None:
        """Eager point-to-point send to group rank ``dest``."""
        if not 0 <= dest < self.size:
            raise ValueError(f"send destination {dest} out of range")
        arr = np.asarray(buf) if buf is not None else np.empty(0, dtype=np.int64)
        cost = self.engine.cost_model.p2p_cost(float(arr.size))
        start = self.clock.time
        departure = start + cost
        self.clock.complete_collective(departure, cost)
        self.stats.record("p2p", float(arr.size), 0.0, cost)
        if self.engine.record_timeline:
            from repro.mpsim.timeline import TimelineEvent

            self.stats.events.append(
                TimelineEvent("p2p", start, departure, float(arr.size))
            )
        if self.engine.record_peers and dest != self.rank:
            self.stats.peer_words[self._st.members[dest]] += float(arr.size)
        self.engine.mailbox_put(
            self._st.members[self.rank], self._st.members[dest], (departure, arr)
        )

    def recv(self, source: int) -> np.ndarray:
        """Blocking point-to-point receive from group rank ``source``."""
        if not 0 <= source < self.size:
            raise ValueError(f"recv source {source} out of range")
        departure, arr = self.engine.mailbox_get(
            self._st.members[source], self._st.members[self.rank]
        )
        arrival = self.clock.time
        finish = max(arrival, departure)
        self.clock.complete_collective(finish, 0.0)
        self.stats.record("p2p", 0.0, float(np.asarray(arr).size), finish - arrival)
        if self.engine.record_timeline:
            from repro.mpsim.timeline import TimelineEvent

            self.stats.events.append(
                TimelineEvent("p2p", arrival, finish, float(np.asarray(arr).size))
            )
        return arr

    # -- sub-communicators --------------------------------------------------
    def split(self, color: int | None, key: int | None = None) -> "Communicator | None":
        """MPI_Comm_split: group ranks by ``color``, order by ``(key, rank)``.

        Ranks passing ``color=None`` receive ``None`` (MPI_UNDEFINED).
        """
        engine = self.engine

        def combine(payloads: list) -> list:
            groups: dict[int, list[tuple[int, int]]] = {}
            for grank, (col, k) in enumerate(payloads):
                if col is not None:
                    groups.setdefault(col, []).append((k, grank))
            outputs: list = [None] * len(payloads)
            for col in sorted(groups):
                ordered = sorted(groups[col])
                members = [self._st.members[grank] for _key, grank in ordered]
                state = engine.register_group(members)
                for idx, (_key, grank) in enumerate(ordered):
                    outputs[grank] = (state, idx)
            return outputs

        sort_key = key if key is not None else self.rank
        result = self._collective("split", (color, sort_key), combine)
        if result is None:
            return None
        state, idx = result
        return Communicator(engine, state, idx)
