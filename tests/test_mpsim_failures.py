"""Failure injection and robustness tests for the SPMD engine."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.comm import RawCodec
from repro.core.bfs1d import bfs_1d
from repro.core.bfs_dirop import bfs_1d_dirop
from repro.graphs.rmat import rmat_graph
from repro.mpsim import SpmdFailure, run_spmd
from repro.runtime.base import EngineBase


def _assert_structural_deadlock(nranks, fn):
    """``fn`` deadlocks; the sequential scheduler must abort it at once.

    No ``timeout=`` is passed: the abort comes from the scheduler seeing
    every live rank blocked, not from a timer.  The runtime is pinned
    because the ``processes`` coordinator can only detect a stall by
    waiting out its timeout.  The run is launched on a helper thread so
    a missed detection fails the test instead of hanging it.
    """
    failures = []

    def launch():
        try:
            run_spmd(nranks, fn, runtime="sequential")
        except SpmdFailure as failure:
            failures.append(failure)

    launcher = threading.Thread(target=launch, daemon=True)
    launcher.start()
    launcher.join(timeout=10.0)
    assert not launcher.is_alive(), "deadlock not detected within 10 s"
    (failure,) = failures
    assert isinstance(failure.exc, TimeoutError)
    assert str(failure.exc).startswith("deadlock: every live rank is blocked")


class TestAbortPaths:
    def test_exception_in_combine_phase(self):
        """A rank crashing mid-collective releases peers blocked in it."""

        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("dies before the collective")
            comm.allreduce(1)

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            run_spmd(4, fn)

    def test_exception_in_subcommunicator(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            if comm.rank == 1:
                raise ValueError("odd group member dies")
            sub.barrier()
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_spmd(4, fn)

    def test_exception_while_peer_waits_on_recv(self):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("sender never sends")
            comm.recv(source=0)

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            run_spmd(2, fn)

    def test_multiple_failures_report_first(self):
        def fn(comm):
            raise KeyError(f"rank {comm.rank}")

        with pytest.raises(RuntimeError, match="failed"):
            run_spmd(3, fn)

    def test_mismatched_collectives_abort_not_hang(self):
        """Rank 0 calls a different collective than the others; the
        deterministic protocol still exchanges payloads (the mismatch is
        a semantic bug), but a hard *count* mismatch — one rank exiting
        early, a barrier member missing — must abort rather than hang."""

        def fn(comm):
            if comm.rank == 0:
                return None  # leaves the group short-handed
            comm.barrier()

        _assert_structural_deadlock(2, fn)


class TestBottomUpExpandFailure:
    def test_crash_inside_bitmap_allgatherv_releases_peers(self):
        """A rank dying inside the bottom-up expand must not leave the
        other ranks hung in the bitmap ``Allgatherv``: the engine aborts
        the collective and surfaces the originating rank."""

        class FailingComm:
            """Delegating wrapper whose allgatherv raises on one rank."""

            def __init__(self, comm, fail_rank):
                self._comm = comm
                self._fail_rank = fail_rank

            def __getattr__(self, name):
                return getattr(self._comm, name)

            def allgatherv(self, buf, concat=True):
                if self._comm.rank == self._fail_rank:
                    raise RuntimeError("NIC falls over mid-expand")
                return self._comm.allgatherv(buf, concat=concat)

        graph = rmat_graph(9, 16, seed=1)
        source = int(
            np.asarray(
                graph.to_internal(
                    int(graph.random_nonisolated_vertices(1, seed=2)[0])
                )
            )
        )

        def fn(comm):
            # alpha huge -> the very first level runs bottom-up, so every
            # surviving rank is parked inside the real allgatherv when
            # rank 1 raises.
            return bfs_1d_dirop(
                FailingComm(comm, fail_rank=1),
                graph.csr,
                source,
                alpha=1e9,
            )

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_spmd(4, fn)

    def test_healthy_ranks_complete_without_injection(self):
        # Control: the same harness with no failing rank terminates.
        graph = rmat_graph(9, 16, seed=1)
        source = int(
            np.asarray(
                graph.to_internal(
                    int(graph.random_nonisolated_vertices(1, seed=2)[0])
                )
            )
        )
        res = run_spmd(4, bfs_1d_dirop, graph.csr, source, alpha=1e9)
        assert all(r["nlevels"] >= 1 for r in res.returns)


def _rmat_case():
    graph = rmat_graph(9, 16, seed=1)
    source = int(
        np.asarray(
            graph.to_internal(
                int(graph.random_nonisolated_vertices(1, seed=2)[0])
            )
        )
    )
    return graph, source


class TestMidDecodeFailure:
    def test_crash_mid_decode_releases_peers(self):
        """A rank raising while decoding its received buffers dies *after*
        the Alltoallv but before the termination Allreduce; the peers are
        already parked in (or heading into) the next collective and must
        be released with the originating rank reported, not deadlock."""
        graph, source = _rmat_case()

        def fn(comm):
            class FailingDecode(RawCodec):
                def decode_pairs(self, wire, ctx=None):
                    if comm.rank == 1:
                        raise RuntimeError("bit flip in the receive buffer")
                    return super().decode_pairs(wire, ctx)

            # Codec *instances* are accepted wherever names are; that is
            # what makes this injection possible from outside the comm
            # package.
            return bfs_1d(comm, graph.csr, source, codec=FailingDecode())

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_spmd(4, fn)

    def test_codec_instance_control_completes(self):
        # Control: the same harness minus the injected raise terminates
        # and matches the name-configured raw codec.
        graph, source = _rmat_case()
        res = run_spmd(4, bfs_1d, graph.csr, source, codec=RawCodec())
        ref = run_spmd(4, bfs_1d, graph.csr, source, codec="raw")
        for got, want in zip(res.returns, ref.returns):
            assert np.array_equal(got["levels"], want["levels"])
            assert np.array_equal(got["parents"], want["parents"])


class TestDeadlockDetection:
    def test_recv_and_barrier_wait_on_each_other(self):
        def fn(comm):
            if comm.rank == 0:
                comm.recv(source=1)  # never sent
            else:
                comm.barrier()  # rank 0 never joins

        _assert_structural_deadlock(2, fn)

    def test_recv_nobody_sends(self):
        def fn(comm):
            if comm.rank == 0:
                comm.recv(source=1)  # rank 1 returns without sending
            return comm.rank

        _assert_structural_deadlock(2, fn)

    def test_subcommunicator_short_by_one_rank(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            if comm.rank != 3:  # rank 1 waits for rank 3 in the odd group
                sub.barrier()
            return comm.rank

        _assert_structural_deadlock(4, fn)


class TestEngineValidation:
    def test_bad_nranks(self):
        with pytest.raises(ValueError, match="nranks"):
            EngineBase(0)

    def test_results_preserved_before_failure(self):
        """Ranks that returned before the abort keep their results...
        but the run as a whole still raises."""

        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("late failure")
            return comm.rank

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd(2, fn)

    def test_non_collective_work_unaffected_by_abort_machinery(self):
        def fn(comm):
            data = np.arange(100)
            comm.charge_compute(0.0, touched=float(data.sum()))
            return int(data.sum())

        res = run_spmd(3, fn)
        assert res.returns == [4950] * 3
        assert res.stats.counter("touched") == 3 * 4950


class TestCommunicatorValidation:
    def test_bad_destinations(self):
        def fn(comm):
            with pytest.raises(ValueError, match="out of range"):
                comm.send(np.array([1]), dest=5)
            with pytest.raises(ValueError, match="out of range"):
                comm.recv(source=-1)
            with pytest.raises(ValueError, match="out of range"):
                comm.exchange(9, np.array([1]))
            return True

        assert all(run_spmd(2, fn).returns)

    def test_alltoallv_wrong_buffer_count(self):
        def fn(comm):
            with pytest.raises(ValueError, match="send buffers"):
                comm.alltoallv([np.array([1])])  # needs comm.size buffers
            return True

        assert all(run_spmd(3, fn).returns)


class TestFailurePickling:
    """Failure exceptions cross process boundaries intact (the process
    runtime ships them over a pipe; the default exception reduction
    would replay ``__init__`` with the formatted message and crash)."""

    def test_spmd_failure_round_trips_rank_exc_stats(self):
        import pickle

        def fn(comm):
            comm.allreduce(comm.rank)
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(SpmdFailure) as info:
            run_spmd(3, fn)
        failure = info.value
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.rank == failure.rank == 1
        assert isinstance(clone.exc, ValueError)
        assert clone.exc.args == ("boom",)
        assert str(clone) == str(failure)
        # The partial stats a recovery driver needs survive too.
        assert clone.stats.makespan == failure.stats.makespan
        assert len(clone.stats.clocks) == 3

    def test_fault_exceptions_round_trip(self):
        import pickle

        from repro.faults import RankCrashError, RetryExhaustedError

        crash = RankCrashError(2, 5, 7)
        crash_clone = pickle.loads(pickle.dumps(crash))
        assert (crash_clone.rank, crash_clone.level, crash_clone.event_index) == (2, 5, 7)
        assert str(crash_clone) == str(crash)

        retry = RetryExhaustedError("allreduce", 3, 4)
        retry_clone = pickle.loads(pickle.dumps(retry))
        assert (retry_clone.site, retry_clone.level, retry_clone.attempts) == ("allreduce", 3, 4)
        assert str(retry_clone) == str(retry)
