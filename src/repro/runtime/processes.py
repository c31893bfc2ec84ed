"""Process-parallel execution backend (fork workers + pipe coordinator).

One ``fork``-ed worker process per simulated rank — the only backend
with real parallelism (each rank owns a whole interpreter, no GIL).
Rank bodies, graphs and step arguments reach the workers by fork
inheritance (copy-on-write, nothing pickled on the way in); rendezvous
goes through a parent-side coordinator:

* a worker deposits a collective item as ``("coll", gid, seq, rank,
  blob)`` and blocks on its pipe; when all members of ``(gid, seq)``
  have deposited, the coordinator sends every member the ordered blob
  list and each worker evaluates the (deterministic) reduction locally;
* point-to-point messages are routed ``("put", ...)``/``("get", ...)``
  through the same pipes;
* large numpy payloads are externalized into
  ``multiprocessing.shared_memory`` segments — the pickle stream
  carries ``(name, dtype, shape)`` and receivers reattach the segment
  as a numpy view, so bulk buffers cross process boundaries without a
  serialize/copy through the pipe;
* a worker's terminal message ships its rank-local shards — clock, wire
  stats, tracer spans, metrics series, checkpoint snapshots — and the
  coordinator merges them into the caller's objects, so obs and
  checkpoint-restart behave exactly as under the shared-memory
  backends.

Group identity across address spaces: every worker executes the same
deterministic collective sequence, so a group is named by its global
member tuple plus an occurrence index — consistent in every worker
without coordination (``split`` registers groups per address space).

Failure handling: a rank body's exception travels home pickled inside
the exit message (``SpmdFailure`` and the fault exceptions define
``__reduce__`` for this); the coordinator then broadcasts an abort that
releases every blocked worker.  A message gap longer than the engine
timeout is treated as a stall/deadlock and aborts the run: workers
block in their own address spaces, so unlike the sequential scheduler
the coordinator cannot see a deadlock structurally.
"""

from __future__ import annotations

import io
import multiprocessing
import pickle
from collections.abc import Callable, Sequence
from multiprocessing import connection, resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro.runtime.base import (
    CollectiveCostModel,
    EngineBase,
    GroupBase,
    SimAborted,
    SpmdFailure,
    SpmdResult,
)

#: Backend name as selected by ``REPRO_RUNTIME`` / ``runtime=``.
name = "processes"

#: Arrays at least this many bytes ride shared memory instead of the
#: pipe's pickle stream.  Small payloads (termination counts, frontier
#: tails) are cheaper inline than through a segment round-trip.
SHM_MIN_BYTES = 1 << 15

#: Pickle persistent-id tag for a shared-memory-backed array.
_SHM_TAG = "repro-shm"

#: Grace period (seconds) after an abort broadcast before stragglers
#: are terminated outright.
_ABORT_GRACE = 5.0


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class _ShmPickler(pickle.Pickler):
    """Pickler externalizing large arrays into shared-memory segments."""

    def __init__(self, file, segments: list):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._segments = segments

    def persistent_id(self, obj):
        if (
            isinstance(obj, np.ndarray)
            and obj.nbytes >= SHM_MIN_BYTES
            and not obj.dtype.hasobject
        ):
            seg = shared_memory.SharedMemory(create=True, size=obj.nbytes)
            view = np.ndarray(obj.shape, dtype=obj.dtype, buffer=seg.buf)
            view[...] = obj
            self._segments.append(seg)
            return (_SHM_TAG, seg.name, obj.dtype.str, obj.shape)
        return None


class _ShmUnpickler(pickle.Unpickler):
    """Unpickler materializing shared-memory views back into arrays."""

    def persistent_load(self, pid):
        tag, seg_name, dtype, shape = pid
        if tag != _SHM_TAG:  # pragma: no cover - foreign stream
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        try:
            seg = shared_memory.SharedMemory(name=seg_name)
        except FileNotFoundError:
            # Only reachable during teardown, when a peer's cleanup won
            # the race; surface as the abort it is part of.
            raise SimAborted("shared segment vanished during teardown") from None
        try:
            return np.array(
                np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf),
                copy=True,
            )
        finally:
            seg.close()


def _shm_dumps(obj: Any, segments: list) -> bytes:
    buf = io.BytesIO()
    _ShmPickler(buf, segments).dump(obj)
    return buf.getvalue()


def _shm_loads(blob: bytes) -> Any:
    return _ShmUnpickler(io.BytesIO(blob)).load()


def _safe_dumps(obj: Any, fallback_label: str):
    """Pickle ``obj``, degrading gracefully when it cannot travel."""
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), None
    except Exception as exc:  # noqa: BLE001 - any pickling failure
        return None, RuntimeError(f"{fallback_label} not picklable: {exc}")


class _GroupState(GroupBase):
    """Worker-local group handle: wire identity plus a round counter."""

    __slots__ = ("gid", "seq")

    def __init__(self, members: Sequence[int], gid):
        super().__init__(members)
        #: ``(member tuple, occurrence index)`` — identical in every
        #: worker because group registration is deterministic.
        self.gid = gid
        self.seq = 0


class ProcessEngine(EngineBase):
    """Engine half that lives in every address space.

    The parent constructs it pre-fork (clocks, stats, world group);
    workers inherit the instance and bind their pipe end + rank before
    running the body.  The scheduling methods are only ever called
    worker-side; the parent's copy is where shards are merged back.
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
        self._gid_counts: dict[tuple, int] = {}
        #: Worker-side shared-memory lifecycle: segments from a group's
        #: previous round (unlinkable once the next round completes) and
        #: segments stranded by an abort (unlinked by the parent last).
        self._prev_segments: dict[Any, list] = {}
        self._stranded: list = []
        self._conn = None
        self._worker_rank: int | None = None
        super().__init__(
            nranks,
            cost_model=cost_model,
            timeout=timeout,
            record_peers=record_peers,
            record_timeline=record_timeline,
            base_time=base_time,
        )

    def _make_group(self, members: Sequence[int]) -> _GroupState:
        key = tuple(members)
        occurrence = self._gid_counts.get(key, 0)
        self._gid_counts[key] = occurrence + 1
        return _GroupState(key, (key, occurrence))

    def abort(self, rank: int, exc: BaseException) -> None:
        self._errors.append((rank, exc))

    def _request(self, msg: tuple) -> Any:
        """Send one request and block for its reply (worker-side)."""
        conn = self._conn
        conn.send(msg)
        reply = conn.recv()
        if reply[0] != "ok":
            raise SimAborted("simulation aborted")
        return reply[1]

    def collective(
        self,
        state: _GroupState,
        rank: int,
        item: Any,
        reduce: Callable[[list], Any],
    ) -> Any:
        segments: list = []
        blob = _shm_dumps(item, segments)
        seq = state.seq
        state.seq += 1
        try:
            blobs = self._request(("coll", state.gid, seq, rank, blob))
        except SimAborted:
            # The round never completed; nobody will attach these.  The
            # parent unlinks them after every worker is gone.
            self._stranded.extend(segments)
            raise
        slots = [_shm_loads(b) for b in blobs]
        result = reduce(slots)
        # Every member deposited this round, so every member has
        # materialized the *previous* round's blobs — those segments
        # can be unlinked now (never earlier: a receiver may not have
        # attached yet; never later than needed: memory is bounded by
        # two rounds per group).
        for seg in self._prev_segments.pop(state.gid, ()):
            seg.close()
            seg.unlink()
        if segments:
            self._prev_segments[state.gid] = segments
        return result

    # -- point-to-point ----------------------------------------------------
    def mailbox_put(self, src: int, dst: int, item: Any) -> None:
        # Eager send, no reply; p2p payloads are small (departure-stamped
        # buffers) and always travel inline.
        self._conn.send(("put", src, dst, pickle.dumps(item, pickle.HIGHEST_PROTOCOL)))

    def mailbox_get(self, src: int, dst: int) -> Any:
        return pickle.loads(self._request(("get", src, dst)))

    # -- worker-side lifecycle ---------------------------------------------
    def leftover_segment_names(self) -> list[str]:
        """Names of segments this worker created but may not unlink."""
        names = [seg.name for segs in self._prev_segments.values() for seg in segs]
        names.extend(seg.name for seg in self._stranded)
        return names


def _collect_shards(rank: int, kwargs: dict) -> dict:
    """Extract rank ``rank``'s mutations of the obs/fault objects.

    The run's cross-cutting collaborators (tracer, metrics, checkpoint
    store) arrive in the body's keyword arguments; each keys its state
    per rank, and a worker only ever writes its own rank's entries — so
    shipping those entries wholesale reconstructs the run exactly.
    """
    shards: dict = {}
    tracer = kwargs.get("tracer")
    if tracer is not None and hasattr(tracer, "_ranks"):
        rt = tracer._ranks.get(rank)
        if rt is not None:
            shards["spans"] = rt.spans
    metrics = kwargs.get("metrics")
    if metrics is not None and hasattr(metrics, "_ranks"):
        rm = metrics._ranks.get(rank)
        if rm is not None:
            shards["metrics"] = (
                rm.counters,
                rm.gauges,
                rm.histograms,
                dict(metrics._types),
                dict(metrics._buckets),
            )
    store = getattr(kwargs.get("checkpoint"), "store", None)
    if store is not None and hasattr(store, "_levels"):
        shards["checkpoints"] = {
            level: by_rank[rank]
            for level, by_rank in store._levels.items()
            if rank in by_rank
        }
    return shards


def _merge_shards(engine: ProcessEngine, kwargs: dict, rank: int, payload: dict) -> None:
    """Fold one worker's exit payload into the parent's objects."""
    engine.clocks[rank] = payload["clock"]
    engine.stats[rank] = payload["stats"]
    shards = payload["shards"]
    tracer = kwargs.get("tracer")
    if "spans" in shards and tracer is not None:
        from repro.obs.tracer import RankTracer

        rt = tracer._ranks.get(rank)
        if rt is None:
            rt = RankTracer(rank, engine.clocks[rank])
            tracer._ranks[rank] = rt
        else:
            rt._clock = engine.clocks[rank]
            rt._stack.clear()
        rt.spans = shards["spans"]
    metrics = kwargs.get("metrics")
    if "metrics" in shards and metrics is not None:
        counters, gauges, histograms, types, buckets = shards["metrics"]
        metrics._types.update(types)
        metrics._buckets.update(buckets)
        rm = metrics.for_rank(rank)
        rm.counters = counters
        rm.gauges = gauges
        rm.histograms = histograms
    store = getattr(kwargs.get("checkpoint"), "store", None)
    if "checkpoints" in shards and store is not None:
        for level, snap in shards["checkpoints"].items():
            store._levels.setdefault(level, {})[rank] = snap


def _worker_main(engine, rank, pipes, fn, args, kwargs) -> None:
    """Entry point of one forked rank worker."""
    from repro.mpsim.communicator import Communicator

    for i, (parent_end, child_end) in enumerate(pipes):
        parent_end.close()
        if i != rank:
            child_end.close()
    conn = pipes[rank][1]
    engine._conn = conn
    engine._worker_rank = rank

    status, ret, error = "done", None, None
    try:
        comm = Communicator(engine, engine.world, rank)
        ret = fn(comm, *args, **kwargs)
    except SimAborted:
        status = "aborted"
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        status, error = "error", exc

    payload = {
        "return": ret,
        "error": error,
        "clock": engine.clocks[rank],
        "stats": engine.stats[rank],
        "shards": _collect_shards(rank, kwargs),
        "segments": engine.leftover_segment_names(),
    }
    blob, pickle_err = _safe_dumps(payload, f"rank {rank} exit payload")
    if blob is None:
        if error is not None:
            # Preserve the failure even when the original exception
            # cannot travel.
            payload["error"] = RuntimeError(f"rank {rank} failed: {error!r}")
            status = "error"
        else:
            payload["error"] = pickle_err
            status = "error"
        payload["return"] = None
        payload["shards"] = {}
        blob, _ = _safe_dumps(payload, f"rank {rank} exit payload")
    try:
        conn.send(("exit", rank, status, blob))
    except (BrokenPipeError, OSError):  # pragma: no cover - parent died
        pass
    conn.close()


def _unlink_leftovers(names: set[str]) -> None:
    """Parent-side final sweep of segments workers could not unlink."""
    for seg_name in names:
        try:
            seg = shared_memory.SharedMemory(name=seg_name)
        except FileNotFoundError:
            continue
        seg.close()
        seg.unlink()


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
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` forked workers.

    Semantics match the sequential backend (same modeled outputs, same
    ``SpmdFailure``); the coordinator's message-gap timeout stands in for
    its structural deadlock detection.
    """
    if not _fork_available():
        raise RuntimeError(
            "the processes runtime requires the fork start method "
            "(unavailable on this platform); use the sequential runtime"
        )
    ctx = multiprocessing.get_context("fork")
    # Start the tracker pre-fork so every worker shares it: duplicate
    # registrations of one segment then dedup and the creator's unlink
    # unregisters — no spurious leaked-resource warnings at shutdown.
    resource_tracker.ensure_running()

    engine = ProcessEngine(
        nranks,
        cost_model=cost_model,
        timeout=timeout,
        record_peers=record_peers,
        record_timeline=record_timeline,
        base_time=base_time,
    )
    pipes = [ctx.Pipe() for _ in range(nranks)]
    procs = []
    for rank in range(nranks):
        proc = ctx.Process(
            target=_worker_main,
            args=(engine, rank, pipes, fn, args, kwargs),
            name=f"spmd-rank-{rank}",
            daemon=True,
        )
        procs.append(proc)
        proc.start()
    for _parent_end, child_end in pipes:
        child_end.close()

    conns = {rank: pipes[rank][0] for rank in range(nranks)}
    rank_of = {conn: rank for rank, conn in conns.items()}

    pending: dict[tuple, dict[int, bytes]] = {}
    mailbox: dict[tuple[int, int], list[bytes]] = {}
    waiting_get: set[tuple[int, int]] = set()
    exited: dict[int, tuple[str, bytes | None]] = {}
    leftover_segments: set[str] = set()
    aborting = False

    def live_conns():
        return [conn for rank, conn in conns.items() if rank not in exited]

    def try_send(target, msg):
        # A worker may exit (or die) between electing to reply and the
        # write landing; its exit/EOF is handled on its own pipe.
        try:
            target.send(msg)
        except (BrokenPipeError, OSError):
            pass

    def broadcast_abort():
        nonlocal aborting
        aborting = True
        for rank, conn in conns.items():
            if rank not in exited:
                try_send(conn, ("abort",))

    stalled = False
    while len(exited) < nranks:
        ready = connection.wait(live_conns(), timeout=engine.timeout)
        if not ready:
            if stalled:
                # Second silent window after the abort broadcast: give
                # up on graceful exits and terminate below.
                break
            engine.abort(
                -1,
                TimeoutError(
                    f"collective timed out after {engine.timeout}s — a rank "
                    "never arrived (deadlock or mismatched collectives)"
                ),
            )
            broadcast_abort()
            stalled = True
            continue
        for conn in ready:
            try:
                msg = conn.recv()
            except EOFError:
                rank = rank_of[conn]
                exited[rank] = ("lost", None)
                if not aborting:
                    engine.abort(
                        rank, RuntimeError(f"worker for rank {rank} died unexpectedly")
                    )
                    broadcast_abort()
                continue
            kind = msg[0]
            if kind == "coll":
                _kind, gid, seq, member, blob = msg
                if aborting:
                    try_send(conn, ("abort",))
                    continue
                entry = pending.setdefault((gid, seq), {})
                entry[member] = blob
                members = gid[0]
                if len(entry) == len(members):
                    ordered = [entry[i] for i in range(len(members))]
                    for grank in members:
                        try_send(conns[grank], ("ok", ordered))
                    del pending[(gid, seq)]
            elif kind == "put":
                _kind, src, dst, blob = msg
                if (src, dst) in waiting_get:
                    waiting_get.discard((src, dst))
                    try_send(conns[dst], ("ok", blob))
                else:
                    mailbox.setdefault((src, dst), []).append(blob)
            elif kind == "get":
                _kind, src, dst = msg
                if aborting:
                    try_send(conn, ("abort",))
                    continue
                box = mailbox.get((src, dst))
                if box:
                    try_send(conn, ("ok", box.pop(0)))
                else:
                    waiting_get.add((src, dst))
            elif kind == "exit":
                _kind, rank, status, blob = msg
                exited[rank] = (status, blob)
                if status == "error" and not aborting:
                    broadcast_abort()
            else:  # pragma: no cover - protocol violation
                raise RuntimeError(f"unknown worker message {msg!r}")

    grace = min(engine.timeout, _ABORT_GRACE)
    for rank, proc in enumerate(procs):
        proc.join(timeout=None if rank in exited else grace)
        if proc.is_alive():
            proc.terminate()
            proc.join()
    for conn in conns.values():
        conn.close()

    returns: list[Any] = [None] * nranks
    failures: list[tuple[int, BaseException]] = []
    for rank in sorted(exited):
        status, blob = exited[rank]
        if blob is None:
            continue
        payload = pickle.loads(blob)
        leftover_segments.update(payload.get("segments", ()))
        _merge_shards(engine, kwargs, rank, payload)
        if status == "done":
            returns[rank] = payload["return"]
        elif status == "error" and payload["error"] is not None:
            failures.append((rank, payload["error"]))
    _unlink_leftovers(leftover_segments)

    # A body failure outranks the secondary timeout/lost-worker errors
    # it triggers; fall back to those only when no body failed.
    if failures:
        rank, exc = failures[0]
        raise SpmdFailure(rank, exc, engine.sim_stats()) from exc
    failure = engine.first_failure()
    if failure is not None:
        rank, exc = failure
        raise SpmdFailure(rank, exc, engine.sim_stats()) from exc
    return SpmdResult(returns=returns, stats=engine.sim_stats())
