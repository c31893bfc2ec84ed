"""Unified level-synchronous traversal engine.

The paper's three BFS formulations — 1D Algorithm 2, the
direction-optimizing 1D refinement, and 2D Algorithm 3's semiring
SpMSV — differ only in what happens *inside* a level.  Everything
around the level is shared scaffolding, and this module owns all of it:

* rank-local setup: the :class:`~repro.model.costmodel.Charger`, the
  rank's span tracer, and the rank's fault handle (algorithm plugins add
  their partitions and :class:`~repro.comm.CommChannel` wire layers on
  top in :meth:`AlgorithmStep.setup`);
* the crash-cooperative level loop: every rank observes a scheduled
  crash at the same level boundary and returns a crash marker instead of
  aborting, so clocks, spans, and the checkpoint store stay
  deterministic for the recovery driver;
* checkpoint restore and save, including algorithm-declared extra state
  (sieve epoch, direction-optimizing hysteresis) via the
  :meth:`AlgorithmStep.state` / :meth:`AlgorithmStep.restore` protocol;
* one record per level on the rank's stats ledger
  (:attr:`~repro.mpsim.stats.RankStats.levels`), written on every run:
  the per-level profile behind ``run_bfs(..., trace=True)`` and the
  engine metrics are both derived from it after the launch;
* the level-closing ``sync``/``allreduce`` spans around the termination
  test;
* result marshaling (vertex range, local levels/parents, level count,
  crash marker).

An algorithm is a plugin: a class implementing :class:`AlgorithmStep`
whose :meth:`~AlgorithmStep.step` runs one level and reports a
:class:`LevelOutcome`.  The three shipped plugins are
:class:`~repro.core.bfs1d.TopDown1D`,
:class:`~repro.core.bfs_dirop.DirOpt1D` and
:class:`~repro.core.bfs2d.SpMSV2D`; the registry binding algorithm names
to plugins and capabilities lives in :mod:`repro.core.runner`.

The engine is an SPMD rank body's core: construct one per simulated
rank (the ``bfs_1d``/``bfs_1d_dirop``/``bfs_2d`` wrappers do exactly
this) and call :meth:`TraversalEngine.run` under
:func:`repro.mpsim.run_spmd`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.comm import VertexRange
from repro.core.partition import Partition1D
from repro.faults import (
    RankCrashError,
    resolve_rank_faults,
    restore_checkpoint,
    save_checkpoint,
)
from repro.model.costmodel import Charger
from repro.obs.tracer import resolve_tracer


def partition_ranges(part: Partition1D, nranks: int) -> list[VertexRange]:
    """Owned vertex range of every rank, as the comm layer's contexts."""
    ranges = []
    for rank in range(nranks):
        lo, hi = part.range_of(rank)
        ranges.append(VertexRange(lo, hi - lo))
    return ranges


@dataclass
class LevelOutcome:
    """What one :meth:`AlgorithmStep.step` reports back to the engine.

    The engine books the four counters in the level's ledger record (the
    source of the ``run_bfs(..., trace=True)`` profile and the engine
    metrics); ``extra`` carries algorithm-specific fields (the
    direction-optimizing plugin records which ``direction`` ran).
    The new frontier itself is not part of the outcome — the step
    updates its own ``frontier`` attribute, which the engine reads for
    the ``discovered`` count and the next level.
    """

    candidates: int = 0
    words_sent: int = 0
    wire_words: int = 0
    sieve_dropped: int = 0
    extra: dict = field(default_factory=dict)


@runtime_checkable
class AlgorithmStep(Protocol):
    """What an algorithm plugin must provide to run under the engine.

    A step owns the *inside* of a level: its partition, wire channels,
    local ``levels``/``parents`` arrays and the current ``frontier``.
    The engine owns everything *around* it — see the module docstring.
    Lifecycle per rank::

        step.setup(engine)                  # partition, channels, arrays
        step.restore(snapshot) | step.initial_sync()
        repeat:  step.begin_level(L); step.step(L); step.termination_sync()
        checkpoint:  step.state() merged into the engine's base snapshot
    """

    #: Result-dict keys naming the owned vertex range (``("lo", "hi")``
    #: for the 1D partition, ``("plo", "phi")`` for 2D vector pieces).
    result_keys: tuple[str, str]
    #: Extra keyword arguments for the rank's ``Charger``.
    charger_kwargs: dict

    levels: np.ndarray
    parents: np.ndarray
    frontier: np.ndarray

    def setup(self, engine: "TraversalEngine") -> None:
        """Build the rank's partition, channels and traversal arrays."""

    def vertex_range(self) -> tuple[int, int]:
        """The rank's owned vertex range ``(lo, hi)``."""
        ...

    def initial_sync(self) -> int | None:
        """Pre-loop collective state; the initial termination count.

        Return ``None`` when the algorithm has no pre-loop termination
        test (the 1D top-down algorithm always runs level 1); the engine
        then enters the loop unconditionally, exactly reproducing a
        ``while True`` body with a post-level check.
        """
        ...

    def begin_level(self, level: int) -> dict:
        """Per-level pre-span work; returns the level span's attributes.

        Runs after the crash check and before the ``level`` span opens —
        the direction-optimizing plugin flips its traversal direction
        here, from collective state only (no communication).
        """
        ...

    def step(self, level: int) -> LevelOutcome:
        """Run one level's phases inside the open ``level`` span."""
        ...

    def termination_sync(self) -> int:
        """The level-closing Allreduce; returns the termination count."""
        ...

    def state(self) -> dict:
        """Algorithm-declared checkpoint state beyond the engine's base
        (``levels``/``parents``/``frontier``): the sieve's dedup epoch,
        direction hysteresis, cached termination counts."""
        ...

    def restore(self, snapshot: dict) -> int | None:
        """Restore :meth:`state` entries from a checkpoint snapshot;
        returns the termination count as of the checkpointed level (or
        ``None`` when the algorithm does not checkpoint one)."""
        ...


def traversal_body(
    comm,
    step_cls,
    step_args: tuple,
    step_kwargs: dict,
    machine=None,
    threads: int = 1,
    tracer=None,
    faults=None,
    checkpoint=None,
    resume_level: int | None = None,
) -> dict:
    """Generic SPMD rank body: build one step plugin and run the engine.

    ``repro.core.runner.launch`` runs every engine-driven family through
    this single body — ``run_spmd(nranks, traversal_body, StepClass,
    args, kwargs, ...)`` — so registering a new algorithm needs no new
    rank-body function.  Each rank constructs its own step instance
    (steps hold per-rank arrays); ``step_args``/``step_kwargs`` are shared
    read-only inputs like the CSR or the 2D blocks, frozen by
    ``runner.prepare``.
    """
    step = step_cls(*step_args, **step_kwargs)
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


class TraversalEngine:
    """The level-synchronous skeleton shared by every BFS family.

    One engine instance is one rank's traversal: it is constructed
    inside the SPMD body with the rank's communicator and the run's
    cross-cutting options, builds the rank-local scaffold (charger,
    tracer handle, fault handle), delegates the per-level work to the
    ``step`` plugin, and marshals the rank's result dict.

    Behavior contract: results, modeled times, spans, checkpoints and
    fault recovery are bit-identical to the pre-engine hand-rolled
    loops — ``tests/test_golden_parity.py`` locks this in against
    committed fixtures.
    """

    def __init__(
        self,
        comm,
        step: AlgorithmStep,
        machine=None,
        threads: int = 1,
        tracer=None,
        faults=None,
        checkpoint=None,
        resume_level: int | None = None,
    ):
        self.comm = comm
        self.step = step
        self.threads = threads
        self.checkpoint = checkpoint
        self.resume_level = resume_level
        self.charger = Charger(
            comm, machine=machine, threads=threads, **step.charger_kwargs
        )
        self.obs = resolve_tracer(tracer).for_rank(comm)
        self.faults = resolve_rank_faults(faults, comm, self.charger.machine, self.obs)

    def run(self) -> dict:
        """Execute the traversal; returns the rank's result dict."""
        comm, step, obs, charger = self.comm, self.step, self.obs, self.charger
        step.setup(self)

        level = 1
        if self.resume_level is not None:
            snap = restore_checkpoint(
                self.checkpoint, comm, charger, obs, self.resume_level
            )
            step.levels[:] = snap["levels"]
            step.parents[:] = snap["parents"]
            step.frontier = snap["frontier"].copy()
            term = step.restore(snap)
            level = self.resume_level + 1
        else:
            term = step.initial_sync()

        crashed = None
        while True:
            if term is not None and term == 0:
                break
            # Cooperative failure detection: every rank observes a
            # scheduled crash at the same level boundary and returns a
            # crash marker — no engine abort, so clocks, spans, and the
            # checkpoint store stay deterministic for the recovery
            # driver to restart from.
            try:
                self.faults.on_level_start(level)
            except RankCrashError as crash:
                crashed = crash
                break
            frontier_in = int(step.frontier.size)
            level_attrs = step.begin_level(level)
            with obs.span("level", **level_attrs):
                outcome = step.step(level)
                comm.stats.levels.append(
                    {
                        **level_attrs,
                        "level": level,
                        "frontier": frontier_in,
                        "candidates": outcome.candidates,
                        "words_sent": outcome.words_sent,
                        "wire_words": outcome.wire_words,
                        "sieve_dropped": outcome.sieve_dropped,
                        "discovered": int(step.frontier.size),
                        **outcome.extra,
                    }
                )

                # Global termination test.
                with obs.span("sync"):
                    charger.level_overhead()
                    with obs.span("allreduce"):
                        term = step.termination_sync()

                # The termination Allreduce just made the level complete
                # on every rank — the globally-consistent point a
                # snapshot must cover.
                if (
                    self.checkpoint is not None
                    and term > 0
                    and self.checkpoint.due(level)
                ):
                    state = {
                        "levels": step.levels,
                        "parents": step.parents,
                        "frontier": step.frontier,
                    }
                    state.update(step.state())
                    save_checkpoint(self.checkpoint, comm, charger, obs, level, state)
            level += 1

        lo_key, hi_key = step.result_keys
        lo, hi = step.vertex_range()
        result = {
            lo_key: lo,
            hi_key: hi,
            "levels": step.levels,
            "parents": step.parents,
            "nlevels": level - 1,
        }
        if crashed is not None:
            result["crashed"] = crashed
        return result
