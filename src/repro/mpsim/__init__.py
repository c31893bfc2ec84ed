"""Simulated MPI runtime: SPMD execution with virtual time.

This package is the distributed-memory *substrate* of the reproduction.
The paper's algorithms were written against MPI on Cray XT4/XE6 systems;
here they run unmodified (same collectives, same buffers, same bucketing)
against an in-process SPMD engine:

* every simulated rank runs the real algorithm as its own rank body,
  scheduled deterministically by :mod:`repro.runtime` (or in a forked
  worker process under the ``processes`` runtime),
* collectives (``Alltoallv``, ``Allgatherv``, ``Allreduce``, ...) move real
  NumPy buffers between ranks, so communication **volumes are exact**,
* a per-rank :class:`~repro.mpsim.clock.RankClock` tracks *virtual* time:
  local computation is charged through the paper's alpha-beta memory model
  and collective completion is computed by a pluggable
  :class:`~repro.runtime.base.CollectiveCostModel`, so waiting/idling is
  attributed to MPI time exactly the way the paper measures it (Fig. 4).

Entry point: :func:`~repro.mpsim.engine.run_spmd`.
"""

from repro.mpsim.clock import RankClock
from repro.mpsim.communicator import Communicator
from repro.mpsim.engine import run_spmd
from repro.mpsim.grid import ProcessorGrid, closest_square
from repro.mpsim.stats import RankStats, SimStats
from repro.mpsim.timeline import TimelineEvent, render_timeline
from repro.runtime.base import (
    CollectiveCostModel,
    SimAborted,
    SpmdFailure,
    SpmdResult,
    ZeroCostModel,
)

__all__ = [
    "RankClock",
    "Communicator",
    "CollectiveCostModel",
    "ZeroCostModel",
    "SimAborted",
    "SpmdFailure",
    "SpmdResult",
    "run_spmd",
    "ProcessorGrid",
    "closest_square",
    "RankStats",
    "SimStats",
    "TimelineEvent",
    "render_timeline",
]
