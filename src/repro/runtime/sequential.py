"""Deterministic single-runnable execution backend.

One baton is passed round-robin between rank bodies: exactly one rank
runs at any instant, and it runs until it *blocks* — at a collective
whose other members have not all arrived, or at a ``recv`` whose
message has not been sent — at which point the baton moves to the next
runnable rank in cyclic order.  The last member to arrive at a
collective evaluates the reduction and continues; earlier arrivers are
marked runnable again and resume (in rank order) once the baton reaches
them.

Because scheduling decisions depend only on the deterministic sequence
of rendezvous points, the interleaving is identical on every run — no
lock contention, no preemption races, and *no timeouts*: a deadlock is
detected structurally the moment no rank can run (every live rank
blocked), and aborts the simulation immediately instead of waiting for
a timer.  This is the default runtime.

Rank bodies still execute on (daemon) OS threads so that blocking is an
ordinary wait, but the baton discipline means the threads never run
concurrently; the ``timeout`` parameter is accepted for interface
compatibility and ignored.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from typing import Any

from repro.runtime.base import (
    CollectiveCostModel,
    EngineBase,
    GroupBase,
    SimAborted,
    SpmdFailure,
    SpmdResult,
)

#: Backend name as selected by ``REPRO_RUNTIME`` / ``runtime=``.
name = "sequential"


class _GroupState(GroupBase):
    """Arrival bookkeeping of one communicator group."""

    __slots__ = ("slots", "arrived", "result")

    def __init__(self, members: Sequence[int]):
        super().__init__(members)
        self.slots: list[Any] = [None] * self.size
        self.arrived = 0
        self.result: Any = None


class SequentialEngine(EngineBase):
    """Round-robin baton scheduler over rank bodies.

    ``_status[r]`` is ``"ready"`` (waiting for the baton), ``"blocked"``
    (waiting inside a collective or recv, with ``_blocked_on[r]``
    naming the rendezvous), or ``"done"``.  Slot/result reuse on a
    group is safe without a drain phase because a collective's result
    cannot be overwritten until every member has re-arrived — which
    requires each waiter to have resumed and read it first.
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
        super().__init__(
            nranks,
            cost_model=cost_model,
            timeout=timeout,
            record_peers=record_peers,
            record_timeline=record_timeline,
            base_time=base_time,
        )
        self._batons = [threading.Event() for _ in range(nranks)]
        self._status = ["ready"] * nranks
        self._blocked_on: list[Any] = [None] * nranks
        self._aborted = False
        self._mailboxes: dict[tuple[int, int], list] = {}
        self._all_done = threading.Event()

    def _make_group(self, members: Sequence[int]) -> _GroupState:
        return _GroupState(members)

    def _check_abort(self) -> None:
        if self._aborted:
            raise SimAborted("simulation aborted")

    def abort(self, rank: int, exc: BaseException) -> None:
        self._errors.append((rank, exc))
        self._aborted = True
        # Teardown leaves the single-runnable discipline: every blocked
        # rank wakes, observes the flag, and unwinds via SimAborted.
        for baton in self._batons:
            baton.set()
        self._all_done.set()

    def _pass_baton(self, current: int) -> None:
        """Hand the baton to the next ready rank after ``current``."""
        for offset in range(1, self.nranks + 1):
            cand = (current + offset) % self.nranks
            if self._status[cand] == "ready":
                self._batons[cand].set()
                return
        if all(status == "done" for status in self._status):
            self._all_done.set()
        elif not self._aborted:
            # Every live rank is blocked: a structural deadlock
            # (mismatched collectives or a recv nobody sends to).
            self.abort(
                -1,
                TimeoutError(
                    "deadlock: every live rank is blocked "
                    "(mismatched collectives or a message never sent)"
                ),
            )

    def _suspend(self, grank: int, reason: Any) -> None:
        """Block ``grank`` on ``reason`` and yield the baton."""
        self._status[grank] = "blocked"
        self._blocked_on[grank] = reason
        self._pass_baton(grank)
        self._batons[grank].wait()
        self._batons[grank].clear()
        self._check_abort()

    def _wake(self, grank: int, reason: Any) -> None:
        if self._status[grank] == "blocked" and self._blocked_on[grank] == reason:
            self._status[grank] = "ready"
            self._blocked_on[grank] = None

    def collective(
        self,
        state: _GroupState,
        rank: int,
        item: Any,
        reduce: Callable[[list], Any],
    ) -> Any:
        self._check_abort()
        state.slots[rank] = item
        state.arrived += 1
        grank = state.members[rank]
        if state.arrived == state.size:
            state.result = reduce(list(state.slots))
            state.arrived = 0
            reason = ("coll", state)
            for member in state.members:
                if member != grank:
                    self._wake(member, reason)
            return state.result
        self._suspend(grank, ("coll", state))
        return state.result

    # -- point-to-point ----------------------------------------------------
    def mailbox_put(self, src: int, dst: int, item: Any) -> None:
        self._check_abort()
        self._mailboxes.setdefault((src, dst), []).append(item)
        self._wake(dst, ("recv", src, dst))

    def mailbox_get(self, src: int, dst: int) -> Any:
        while True:
            self._check_abort()
            box = self._mailboxes.get((src, dst))
            if box:
                return box.pop(0)
            self._suspend(dst, ("recv", src, dst))

    def finish_rank(self, grank: int) -> None:
        """Mark ``grank`` done and move the baton (or end the run)."""
        self._status[grank] = "done"
        self._pass_baton(grank)


def run_spmd(
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
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` baton-scheduled ranks.

    Exceptions raised by any rank abort the whole run and re-raise (the
    first one, with the rank noted) as :class:`SpmdFailure`.  Execution
    order is fully deterministic, and a deadlock aborts the moment every
    live rank is blocked.
    """
    from repro.mpsim.communicator import Communicator

    engine = SequentialEngine(
        nranks,
        cost_model=cost_model,
        timeout=timeout,
        record_peers=record_peers,
        record_timeline=record_timeline,
        base_time=base_time,
    )
    returns: list[Any] = [None] * nranks

    def worker(rank: int) -> None:
        engine._batons[rank].wait()
        engine._batons[rank].clear()
        try:
            if not engine._aborted:
                comm = Communicator(engine, engine.world, rank)
                returns[rank] = fn(comm, *args, **kwargs)
        except SimAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - must tear down peers
            engine.abort(rank, exc)
        finally:
            engine.finish_rank(rank)

    threads = []
    for rank in range(nranks):
        thread = threading.Thread(
            target=worker, args=(rank,), name=f"seq-rank-{rank}", daemon=True
        )
        threads.append(thread)
        thread.start()
    engine._batons[0].set()
    engine._all_done.wait()
    for thread in threads:
        thread.join()

    failure = engine.first_failure()
    if failure is not None:
        rank, exc = failure
        raise SpmdFailure(rank, exc, engine.sim_stats()) from exc
    return SpmdResult(returns=returns, stats=engine.sim_stats())
