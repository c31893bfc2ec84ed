"""Per-rank fault firing: crashes, stragglers, transient absorption.

Every rank of a faulted run holds a :class:`RankFaults` view of the
shared :class:`~repro.faults.spec.FaultPlan`.  All decisions are pure
functions of ``(plan, level, site, attempt)`` consulted identically by
every rank, so the lockstep collective sequence stays symmetric: either
all ranks commit an attempt or all ranks absorb the fault and retry.

Failure detection is modeled at level granularity: the crash of rank R
at level L is observed by *every* rank at the level-L boundary — the
termination ``Allreduce`` that ends each level of the level-synchronous
BFS doubles as the failure detector.  Each rank catches its own
:class:`RankCrashError` and returns a crash marker instead of aborting
the engine, so the SPMD run finishes normally and every clock, span,
checkpoint save, and the restart base time is deterministic — where
letting peers race into level L until a barrier breaks would not be.
"""

from __future__ import annotations

import numpy as np

from repro.faults.spec import FaultEvent, FaultPlan, RetryPolicy
from repro.mpsim.stats import Fault


class FaultError(RuntimeError):
    """Base class for injected-fault failures."""


class RankCrashError(FaultError):
    """A scheduled permanent rank loss fired.

    Raised by :meth:`RankFaults.on_level_start` on every rank at the
    crash level's boundary (cooperative detection, see module
    docstring).  The rank bodies catch it and return a ``"crashed"``
    marker; the recovery driver in ``run_bfs`` then restarts from the
    last complete checkpoint, or re-raises it when none exists.
    """

    def __init__(self, rank: int, level: int, event_index: int):
        super().__init__(f"injected crash: rank {rank} at level {level}")
        self.rank = rank
        self.level = level
        self.event_index = event_index

    def __reduce__(self):
        # Crash markers ride in rank result dicts across process
        # boundaries; the default exception reduction would replay
        # ``__init__`` with the formatted message and lose the fields.
        return (RankCrashError, (self.rank, self.level, self.event_index))


class RetryExhaustedError(FaultError):
    """A collective kept faulting past the policy's retry budget.

    Deliberately *not* recovered by the driver — a fault schedule denser
    than the retry budget is a permanent outage, and auto-restarting it
    would loop forever.  The run aborts cleanly instead.
    """

    def __init__(self, site: str, level: int, attempts: int):
        super().__init__(
            f"retries exhausted: {site} at level {level} "
            f"after {attempts} attempts"
        )
        self.site = site
        self.level = level
        self.attempts = attempts

    def __reduce__(self):
        return (RetryExhaustedError, (self.site, self.level, self.attempts))


class UndetectedCorruptionError(FaultError):
    """An injected wire corruption decoded without a CodecError.

    Raised by the channel's self-check: if this escapes, a codec is
    silently decoding damaged buffers and the retry path is unsound.
    """


#: Sentinel added to the top of the agreed vertex range when smashing a
#: word, guaranteeing the value is out of range for any real buffer.
_OUT_OF_RANGE_OFFSET = 1 << 40


def corrupt_pieces(pieces, mode: str):
    """Deterministically damage one received piece.

    ``mode="truncate"`` drops the last word of the largest piece with at
    least two words (structurally detectable by every codec's length and
    count checks); ``mode="smash"`` overwrites the *first* word of the
    largest non-empty piece with an out-of-range sentinel (detectable in
    formats whose first word is a header, tag, or range-checked id —
    the sparse vertex-list sites, where truncation would be silent).

    Returns ``(index, corrupted_copy)`` or ``None`` when nothing on the
    wire is corruptible this attempt.
    """
    sizes = [int(np.asarray(p).size) for p in pieces]
    min_size = 1 if mode == "smash" else 2
    candidates = [i for i, size in enumerate(sizes) if size >= min_size]
    if not candidates:
        return None
    index = max(candidates, key=lambda i: (sizes[i], -i))
    piece = np.array(pieces[index], dtype=np.int64, copy=True)
    if mode == "smash":
        piece[0] = np.iinfo(np.int64).max - _OUT_OF_RANGE_OFFSET
    else:
        piece = piece[:-1]
    return index, piece


class RankFaults:
    """One rank's live handle on the run's fault plan.

    Owns the rank-local transient ``used`` set (consistent across ranks
    because every rank executes the identical channel-collective
    sequence) and charges fault costs — straggler delays, timeout
    detection, retry backoff — to the rank clock's ``fault_time``.  Every
    fired fault is booked once, as a :class:`~repro.mpsim.stats.Fault`
    on the rank's stats ledger.
    """

    enabled = True

    def __init__(self, plan: FaultPlan, retry: RetryPolicy, comm, machine, obs):
        self.plan = plan
        self.retry = retry
        self.comm = comm
        self.machine = machine
        self.obs = obs
        self._used: set[int] = set()

    # -- level boundary ----------------------------------------------------
    def on_level_start(self, level: int) -> None:
        """Fire crash/delay events scheduled for the start of ``level``."""
        hit = self.plan.crash_at_level(level)
        if hit is not None:
            index, event = hit
            self.obs.instant(
                "fault-crash", level=level, victim=event.rank
            )
            self.comm.stats.faults.append(Fault("crash", None, level, 0.0))
            raise RankCrashError(event.rank, level, index)
        hit = self.plan.delay_at(self.comm.global_rank, level)
        if hit is not None:
            index, event = hit
            if index not in self._used:
                self._used.add(index)
                with self.obs.span("fault-delay", level=level, seconds=event.seconds):
                    seconds = event.seconds if self.machine is not None else 0.0
                    self.comm.clock.charge_fault(seconds, fault_delays=1.0)
                    self.comm.stats.faults.append(
                        Fault("delay", None, level, seconds)
                    )

    # -- transient faults on collectives -----------------------------------
    def poll(self, site: str, level: int | None, attempt: int):
        """The transient event disrupting ``(site, level, attempt)``, if any.

        Pure query — identical on every rank — so the decision to retry
        a collective is made symmetrically.
        """
        if level is None:
            return None
        for index, event in self.plan.transients_at(site, level):
            if index not in self._used and event.attempt == attempt:
                return index, event
        return None

    def absorb(self, index: int, event: FaultEvent, site: str, level: int, attempt: int) -> None:
        """Charge one failed attempt and arm the retry (all ranks alike)."""
        self._used.add(index)
        if attempt >= self.retry.max_retries:
            raise RetryExhaustedError(site, level, attempt + 1)
        with self.obs.span(
            "fault-retry", level=level, kind=event.kind, site=site, attempt=attempt
        ):
            penalty = self.retry.penalty_seconds(self.machine, attempt)
            self.comm.clock.charge_fault(penalty, fault_retries=1.0)
            self.comm.stats.faults.append(Fault(event.kind, site, level, penalty))

    def is_corruption_victim(self, event: FaultEvent) -> bool:
        return self.comm.global_rank == event.rank


class NullRankFaults:
    """No-op stand-in: the fault-free fast path (zero charges, ever)."""

    enabled = False
    __slots__ = ()

    def on_level_start(self, level: int) -> None:
        return None

    def poll(self, site: str, level: int | None, attempt: int):
        return None


NULL_RANK_FAULTS = NullRankFaults()


def resolve_rank_faults(faults, comm, machine, obs) -> RankFaults | NullRankFaults:
    """Build a rank's fault handle (the null object when unfaulted).

    ``faults`` is the :class:`~repro.faults.FaultContext` threaded from
    ``run_bfs`` into the rank bodies, or ``None``.
    """
    if faults is None:
        return NULL_RANK_FAULTS
    return RankFaults(faults.plan, faults.retry, comm, machine, obs)
