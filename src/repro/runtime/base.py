"""Shared substrate pieces every execution backend is built from.

The classes here are backend-neutral: the failure/teardown exceptions,
the collective cost-model interface, the per-run result container, and
:class:`EngineBase` — the state every engine owns regardless of how it
schedules rank bodies (virtual clocks, wire statistics, the group
registry).  Backend modules (:mod:`repro.runtime.sequential`,
:mod:`repro.runtime.processes`) subclass :class:`EngineBase` and add
their scheduling and rendezvous machinery.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.mpsim.clock import RankClock
from repro.mpsim.stats import RankStats, SimStats

#: Default stall bound of the ``processes`` coordinator: seconds it
#: waits without a message from any worker before aborting the run as
#: deadlocked.  Generous, because a slow rank body is not a stall.  The
#: ``sequential`` runtime detects deadlocks structurally and ignores it.
#: Overridable per run (``timeout=``/``spmd_timeout=``) or per
#: environment (:data:`TIMEOUT_ENV_VAR`).
DEFAULT_TIMEOUT = 600.0

#: Environment variable overriding :data:`DEFAULT_TIMEOUT` for runs that
#: do not pass an explicit timeout.
TIMEOUT_ENV_VAR = "REPRO_SPMD_TIMEOUT"


def default_timeout() -> float:
    """The timeout applied when a run does not pass one explicitly."""
    raw = os.environ.get(TIMEOUT_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{TIMEOUT_ENV_VAR}={raw!r} is not a number of seconds"
        ) from None
    if value <= 0:
        raise ValueError(f"{TIMEOUT_ENV_VAR} must be > 0, got {value}")
    return value


class SimAborted(RuntimeError):
    """Raised inside rank bodies when the simulation is torn down."""


class SpmdFailure(RuntimeError):
    """Raised by ``run_spmd`` when a rank body failed.

    Subclasses ``RuntimeError`` with the historical message format, but
    additionally carries the failing rank, the original exception, and
    the partial :class:`~repro.mpsim.stats.SimStats` at abort time —
    which a recovery driver (see :mod:`repro.faults`) needs to restart
    the run from a checkpoint with a continuous virtual timeline.

    Pickles with all three attributes intact (the default exception
    reduction would replay ``__init__`` with the formatted *message*,
    not the original arguments) — process workers ship failures to the
    coordinator over a pipe, so this is load-bearing for the
    ``processes`` backend and a latent bug for any other consumer.
    """

    def __init__(self, rank: int, exc: BaseException, stats: SimStats):
        super().__init__(f"SPMD rank {rank} failed: {exc!r}")
        self.rank = rank
        self.exc = exc
        self.stats = stats

    def __reduce__(self):
        return (SpmdFailure, (self.rank, self.exc, self.stats))


class CollectiveCostModel:
    """Timing model consulted by the engine at every collective.

    Subclasses override :meth:`cost` (and optionally :meth:`p2p_cost`).
    The default implementation charges nothing, i.e. collectives act as
    pure synchronization points in virtual time.
    """

    def cost(self, kind: str, parties: int, max_send_words: float, max_recv_words: float) -> float:
        """Seconds from last arrival to completion of one collective call."""
        return 0.0

    def p2p_cost(self, words: float) -> float:
        """Seconds for one point-to-point/pairwise-exchange message."""
        return 0.0


class ZeroCostModel(CollectiveCostModel):
    """Explicit name for the do-not-time model."""


@dataclass
class SpmdResult:
    """Return value of ``run_spmd``."""

    returns: list[Any]
    stats: SimStats

    def __iter__(self):
        return iter(self.returns)

    def __getitem__(self, rank: int) -> Any:
        return self.returns[rank]


class GroupBase:
    """Membership bookkeeping shared by every backend's group state.

    A group is one communicator's worth of ranks (the world, or a
    ``split`` product).  ``members`` maps group rank -> global rank;
    backends extend this with their rendezvous state (a barrier, arrival
    counters, a wire id, ...).
    """

    __slots__ = ("members", "size")

    def __init__(self, members: Sequence[int]):
        self.members = list(members)
        self.size = len(self.members)


class EngineBase:
    """Backend-neutral engine state: clocks, stats, groups, teardown flags.

    Subclasses must provide the scheduling half of the
    ``ExecutionEngine`` contract — ``collective``, ``mailbox_put``,
    ``mailbox_get``, ``abort`` — and may override :meth:`_make_group`
    to attach backend-specific rendezvous state.
    """

    def __init__(
        self,
        nranks: int,
        cost_model: CollectiveCostModel | None = None,
        timeout: float | None = None,
        record_peers: bool = False,
        record_timeline: bool = False,
        base_time: float = 0.0,
    ):
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if base_time < 0:
            raise ValueError(f"base_time must be >= 0, got {base_time}")
        self.nranks = nranks
        self.cost_model = cost_model if cost_model is not None else ZeroCostModel()
        self.timeout = default_timeout() if timeout is None else timeout
        #: When set, per-destination traffic is recorded in RankStats
        #: (the rank-to-rank heat-map data of Figure 4-style analyses).
        self.record_peers = record_peers
        #: When set, every collective leaves a TimelineEvent on its rank
        #: (render with repro.mpsim.timeline.render_timeline).
        self.record_timeline = record_timeline
        #: Virtual time all rank clocks start at.  Zero for fresh runs; a
        #: checkpoint-restart attempt resumes where the failed one aborted.
        self.base_time = base_time
        self.clocks = [RankClock(time=base_time) for _ in range(nranks)]
        self.stats = [RankStats() for _ in range(nranks)]
        self._groups: list[Any] = []
        self._errors: list[tuple[int, BaseException]] = []
        self.world = self.register_group(range(nranks))

    def _make_group(self, members: Sequence[int]):
        return GroupBase(members)

    def register_group(self, members: Sequence[int]):
        state = self._make_group(members)
        self._groups.append(state)
        return state

    def sim_stats(self) -> SimStats:
        return SimStats(clocks=self.clocks, comm=self.stats)

    def first_failure(self) -> tuple[int, BaseException] | None:
        """The first recorded ``(rank, exception)``, or ``None``."""
        return self._errors[0] if self._errors else None
