"""The single SPMD dispatch point.

:func:`run_spmd` forwards to the active execution runtime
(``REPRO_RUNTIME``, default ``sequential``) unless a ``runtime=``
override names one explicitly.  The engines themselves live in
:mod:`repro.runtime`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.runtime import get_backend
from repro.runtime.base import CollectiveCostModel, SpmdResult


def run_spmd(
    nranks: int,
    fn: Callable,
    *args: Any,
    cost_model: CollectiveCostModel | None = None,
    timeout: float | None = None,
    record_peers: bool = False,
    record_timeline: bool = False,
    base_time: float = 0.0,
    runtime: str | None = None,
    **kwargs: Any,
) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` simulated ranks.

    Dispatches to the active execution runtime (or ``runtime=`` when
    given): a deterministic round-robin scheduler (``sequential``) or
    one forked worker process per rank (``processes``).  All modeled
    outputs are bit-identical across backends; exceptions raised by any
    rank abort the whole run and re-raise as
    :class:`~repro.runtime.base.SpmdFailure` in the caller.

    ``timeout`` bounds how long the ``processes`` coordinator waits
    without hearing from a worker; ``None`` applies
    ``REPRO_SPMD_TIMEOUT`` when set, else
    :data:`~repro.runtime.base.DEFAULT_TIMEOUT`.  The ``sequential``
    runtime detects deadlocks structurally and ignores it.

    Returns
    -------
    SpmdResult
        Per-rank return values plus the run's SimStats.
    """
    backend = get_backend(runtime)
    return backend.run_spmd(
        nranks,
        fn,
        *args,
        cost_model=cost_model,
        timeout=timeout,
        record_peers=record_peers,
        record_timeline=record_timeline,
        base_time=base_time,
        **kwargs,
    )
