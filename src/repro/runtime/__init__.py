"""Pluggable SPMD execution runtimes.

The simulator's algorithms are written against one interface — a
:class:`~repro.mpsim.communicator.Communicator` backed by an *execution
engine* — and this package supplies two interchangeable engines:

* :mod:`repro.runtime.sequential` — the default: a deterministic
  single-runnable round-robin scheduler that steps ranks between
  collective rendezvous points.  No lock contention, no timeouts (a
  deadlock is *detected structurally* the moment no rank can run), and
  shared memory makes obs/faults plumbing free.
* :mod:`repro.runtime.processes` — one ``fork``-ed worker process per
  rank, a pipe-based coordinator for rendezvous, and
  ``multiprocessing.shared_memory``-backed numpy transfers for large
  buffers.  The only backend with real parallelism (no GIL); per-worker
  clock/stats/obs shards are merged into one report on exit.

**The bit-identity contract.**  Completion times depend only on
deterministic virtual clocks and payload sizes, so every modeled output
— parents, levels, times, wire words, spans — is identical under every
backend; only wall-clock changes.  ``tests/test_property_runtimes.py``
locks this in for every registered algorithm, and the golden fixtures
pin the default backend bit for bit.

**Choosing a backend.**  The ``REPRO_RUNTIME`` environment variable
names the default backend (``sequential`` when unset), and ``runtime=``
/ ``--runtime`` select per run through ``RunConfig`` -> ``run_bfs`` /
``run_query`` -> the CLI.

Adding a backend: subclass :class:`repro.runtime.base.EngineBase`,
implement the :class:`ExecutionEngine` scheduling half (``collective``,
``mailbox_put``/``mailbox_get``, ``abort``) plus a module-level
``run_spmd``, list the module in :data:`BACKENDS`, and extend the
cross-backend property suite (its coverage meta-test fails on any
registry entry the sweep misses).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from typing import Any, Protocol, runtime_checkable

from repro.runtime.base import (  # noqa: F401  (re-exports)
    DEFAULT_TIMEOUT,
    TIMEOUT_ENV_VAR,
    CollectiveCostModel,
    EngineBase,
    SimAborted,
    SpmdFailure,
    SpmdResult,
    ZeroCostModel,
    default_timeout,
)
from repro.mpsim.stats import SimStats

#: Environment variable naming the default backend.
ENV_VAR = "REPRO_RUNTIME"

#: Recognized backend names.  ``sequential`` is the default.
BACKENDS = ("sequential", "processes")


@runtime_checkable
class ExecutionEngine(Protocol):
    """What a :class:`~repro.mpsim.communicator.Communicator` needs.

    One engine instance owns one run: per-rank clocks and wire stats,
    the communicator-group registry, and the scheduling machinery that
    rendezvouses ranks at collectives and tears everything down on
    failure.  :class:`repro.runtime.base.EngineBase` provides the state
    half; backends add the four scheduling methods.
    """

    nranks: int
    cost_model: CollectiveCostModel
    timeout: float
    record_peers: bool
    record_timeline: bool
    base_time: float
    clocks: list
    stats: list

    def register_group(self, members: Sequence[int]) -> Any:
        """Create rendezvous state for a new communicator group."""
        ...

    def collective(
        self,
        state: Any,
        rank: int,
        item: Any,
        reduce: Callable[[list], Any],
    ) -> Any:
        """Rendezvous the group: deposit ``item`` for group rank ``rank``,
        evaluate ``reduce(slots)`` exactly once per address space when
        all members have deposited, and return its value to every
        member.  ``reduce`` is deterministic, so backends may run it on
        an elected rank (shared memory) or on every worker (processes).
        """
        ...

    def mailbox_put(self, src: int, dst: int, item: Any) -> None:
        """Eager point-to-point send (global ranks)."""
        ...

    def mailbox_get(self, src: int, dst: int) -> Any:
        """Blocking FIFO point-to-point receive (global ranks)."""
        ...

    def abort(self, rank: int, exc: BaseException) -> None:
        """Record a failure and release every blocked rank."""
        ...

    def sim_stats(self) -> SimStats:
        ...


@runtime_checkable
class ExecutionBackend(Protocol):
    """The per-backend module interface ``run_spmd`` dispatches to."""

    #: Backend name as selected by ``REPRO_RUNTIME`` / ``runtime=``.
    name: str

    def run_spmd(
        self,
        nranks: int,
        fn: Callable,
        *args: Any,
        cost_model: CollectiveCostModel | None = None,
        timeout: float | None = None,
        record_peers: bool = False,
        record_timeline: bool = False,
        base_time: float = 0.0,
        **kwargs: Any,
    ) -> SpmdResult:
        """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` simulated ranks."""
        ...


def active_runtime() -> str:
    """Name of the backend ``run_spmd`` dispatches to by default.

    Applies the ``REPRO_RUNTIME`` policy on every call: ``sequential``
    unless the variable names another backend.
    """
    choice = os.environ.get(ENV_VAR, "").strip().lower()
    if choice and choice not in BACKENDS:
        raise ValueError(
            f"{ENV_VAR}={choice!r} is not an execution runtime; "
            f"known: {sorted(BACKENDS)}"
        )
    return choice or "sequential"


def get_backend(name: str | None = None) -> ExecutionBackend:
    """The backend module for ``name`` (default: the active runtime)."""
    if name is None:
        name = active_runtime()
    elif name not in BACKENDS:
        raise ValueError(
            f"unknown execution runtime {name!r}; known: {sorted(BACKENDS)}"
        )
    if name == "sequential":
        from repro.runtime import sequential as mod
    else:
        from repro.runtime import processes as mod
    return mod
