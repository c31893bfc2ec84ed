"""Runtime-equivalence sweep: full runs under every execution backend.

For every registered algorithm, one complete timed traversal runs under
each execution runtime — ``sequential`` and ``processes`` — and the
*entire* observable output is asserted identical: levels,
parents, level count, traversed-edge count, the modeled time breakdown,
and (for the instrumented families) the full span stream.  This is the
end-to-end half of the runtime bit-identity contract (see
:mod:`repro.runtime`): swapping the backend may change wall-clock only,
never results.

The fault half of the contract gets its own sweep: an injected crash
plus checkpoint-restart must recover identically — same recovered tree,
same attempt count, same restore records on the same virtual timeline —
on every backend, for every flat fault-capable family.

``RUNTIME_BACKEND_ALGORITHMS`` is an import-time snapshot of the
registry, wired into ``tests/test_registry_coverage.py`` as the
``runtime-backend`` harness — registering an algorithm that skips this
sweep fails the coverage meta-test by name.
"""

from __future__ import annotations

import glob
import os
import pickle

import numpy as np
import pytest

from repro import runtime
from repro.core.runner import ALGORITHMS, RunConfig
from repro.graphs.rmat import rmat_graph
from repro.mpsim import run_spmd
from repro.obs import Tracer

from tests.conftest import launch_any

#: Every registered algorithm; the registry coverage meta-test compares
#: this import-time list against the live registry.
RUNTIME_BACKEND_ALGORITHMS = sorted(ALGORITHMS)

#: The instrumented flat families additionally lock the span stream.
TRACED_ALGORITHMS = sorted(
    name
    for name, spec in ALGORITHMS.items()
    if "tracer" in spec.capabilities and not spec.hybrid
)

#: One crash/checkpoint-restart scenario per flat fault-capable family.
CRASH_ALGORITHMS = sorted(
    name
    for name, spec in ALGORITHMS.items()
    if "faults" in spec.capabilities and not spec.hybrid
)

RUNTIMES = runtime.BACKENDS

#: Small-but-structured instance: R-MAT keeps hubs (dense middle levels,
#: bottom-up switches) while staying cheap enough to fork a worker set
#: per run at full registry width.
GRAPH = rmat_graph(8, 8, seed=2)
SOURCE = 17
NPROCS = 4


def _run(algorithm: str, runtime_name: str, **kwargs):
    return launch_any(
        GRAPH,
        SOURCE,
        algorithm,
        nprocs=NPROCS,
        machine="hopper",
        runtime=runtime_name,
        **kwargs,
    )


def _observe(result) -> dict:
    """Everything a runtime switch must leave bit-identical."""
    return {
        "levels": np.asarray(result.levels).tolist(),
        "parents": np.asarray(result.parents).tolist(),
        "nlevels": result.nlevels,
        "m_traversed": result.m_traversed,
        "time_total": result.time_total,
        "time_comm": result.time_comm,
        "time_comp": result.time_comp,
    }


@pytest.mark.parametrize("algorithm", RUNTIME_BACKEND_ALGORITHMS)
def test_runtime_switch_preserves_full_run(algorithm):
    """sequential and processes agree on every observable."""
    baseline = _observe(_run(algorithm, "sequential"))
    for name in RUNTIMES[1:]:
        assert _observe(_run(algorithm, name)) == baseline, name


@pytest.mark.parametrize("algorithm", TRACED_ALGORITHMS)
def test_runtime_switch_preserves_spans(algorithm):
    """The virtual-time span stream is backend-invariant, including for
    the processes backend where spans are shipped home as shards."""
    streams = {}
    for name in RUNTIMES:
        tracer = Tracer()
        _run(algorithm, name, tracer=tracer)
        streams[name] = [
            (s.rank, s.phase, s.t_start, s.t_end, s.level, s.depth, s.parent)
            for s in tracer.all_spans()
        ]
    assert streams["processes"] == streams["sequential"]


@pytest.mark.parametrize("algorithm", CRASH_ALGORITHMS)
def test_runtime_switch_preserves_crash_recovery(algorithm):
    """A permanent rank loss plus checkpoint-restart recovers to the
    same tree, with the same attempt count and the same restore records
    on the same virtual timeline, under every backend."""
    oracle = _run(algorithm, "sequential")
    crash_level = max(1, min(2, oracle.nlevels - 1))
    fault_spec = f"crash:rank=1,level={crash_level};seed=3"
    observed = {}
    for name in RUNTIMES:
        result = _run(
            algorithm, name, faults=fault_spec, checkpoint_every=1
        )
        meta = result.meta["faults"]
        observed[name] = (
            _observe(result),
            meta["attempts"],
            tuple(
                (r["rank"], r["crash_level"], r["resume_level"], r["at_time"])
                for r in meta["restores"]
            ),
        )
    # The crash actually fired and the driver actually restarted.
    assert observed["sequential"][1] == 2
    assert observed["processes"] == observed["sequential"]
    assert np.array_equal(
        observed["sequential"][0]["levels"], _observe(oracle)["levels"]
    )


class TestProcessesMechanics:
    """Direct checks of the process backend's distinctive claims."""

    def test_workers_run_concurrently_in_distinct_processes(self):
        """All ranks rendezvous at one collective while alive at once,
        each in its own forked interpreter (the CI smoke's assertion)."""

        def body(comm):
            pids = comm.allgatherv(np.array([os.getpid()], dtype=np.int64))
            return sorted(int(p) for p in pids)

        spmd = run_spmd(4, body, runtime="processes")
        pids = spmd.returns[0]
        assert spmd.returns == [pids] * 4
        assert len(set(pids)) == 4, "each rank must be its own process"
        assert os.getpid() not in pids, "ranks must not run in the parent"

    def test_shared_memory_transfers_round_trip_and_clean_up(self):
        """Buffers above the shm threshold cross correctly and every
        segment is unlinked by the end of the run."""
        from repro.runtime.processes import SHM_MIN_BYTES

        words = 2 * SHM_MIN_BYTES // 8

        def body(comm):
            data = np.full(words, comm.rank + 1, dtype=np.int64)
            gathered = comm.allgatherv(data)
            return int(gathered.sum())

        shm_visible = os.path.isdir("/dev/shm")
        before = set(glob.glob("/dev/shm/psm_*")) if shm_visible else set()
        spmd = run_spmd(4, body, runtime="processes")
        expected = sum(r + 1 for r in range(4)) * words
        assert list(spmd.returns) == [expected] * 4
        if shm_visible:
            assert set(glob.glob("/dev/shm/psm_*")) <= before

    def test_worker_failure_raises_picklable_spmd_failure(self):
        def body(comm):
            if comm.rank == 2:
                raise ValueError("boom on rank 2")
            comm.barrier()
            return comm.rank

        from repro.mpsim import SpmdFailure

        with pytest.raises(SpmdFailure, match="rank 2 failed") as info:
            run_spmd(4, body, runtime="processes")
        failure = info.value
        assert failure.rank == 2
        assert isinstance(failure.exc, ValueError)
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.rank == 2 and str(clone) == str(failure)

    def test_missing_fork_raises_a_clear_error(self, monkeypatch):
        """Without the fork start method the backend refuses to start
        and names the runtime that works everywhere."""
        from repro.runtime import processes

        monkeypatch.setattr(processes, "_fork_available", lambda: False)
        with pytest.raises(RuntimeError, match="fork") as info:
            run_spmd(2, lambda comm: comm.rank, runtime="processes")
        assert "sequential" in str(info.value)
        assert "threads" not in str(info.value)


class TestRuntimePolicy:
    """REPRO_RUNTIME resolution mirrors the REPRO_KERNELS policy."""

    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(runtime.ENV_VAR, raising=False)
        assert runtime.active_runtime() == "sequential"
        assert runtime.get_backend().name == "sequential"

    def test_env_selects_startup_runtime(self, monkeypatch):
        monkeypatch.setenv(runtime.ENV_VAR, "processes")
        assert runtime.active_runtime() == "processes"
        assert runtime.get_backend().name == "processes"

    def test_env_rejects_unknown_name(self, monkeypatch):
        for name in ("fibers", "threads"):
            monkeypatch.setenv(runtime.ENV_VAR, name)
            with pytest.raises(
                ValueError,
                match=rf"REPRO_RUNTIME='{name}' .*; known: "
                r"\['processes', 'sequential'\]",
            ):
                runtime.active_runtime()

    def test_run_config_validates_runtime(self):
        for name in ("fibers", "threads"):
            with pytest.raises(
                ValueError,
                match=rf"unknown execution runtime '{name}'; known: "
                r"\['processes', 'sequential'\]",
            ):
                RunConfig(runtime=name)
        with pytest.raises(ValueError, match="spmd_timeout"):
            RunConfig(spmd_timeout=0.0)


class TestTimeoutPolicy:
    """REPRO_SPMD_TIMEOUT and the spmd_timeout= override."""

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(runtime.TIMEOUT_ENV_VAR, raising=False)
        assert runtime.default_timeout() == runtime.DEFAULT_TIMEOUT

    def test_env_overrides_engine_default(self, monkeypatch):
        monkeypatch.setenv(runtime.TIMEOUT_ENV_VAR, "42.5")
        assert runtime.default_timeout() == 42.5
        assert runtime.EngineBase(2).timeout == 42.5
        # An explicit timeout= still wins over the environment.
        assert runtime.EngineBase(2, timeout=7.0).timeout == 7.0

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(runtime.TIMEOUT_ENV_VAR, "soon")
        with pytest.raises(ValueError, match="not a number"):
            runtime.default_timeout()
        monkeypatch.setenv(runtime.TIMEOUT_ENV_VAR, "-3")
        with pytest.raises(ValueError, match="must be > 0"):
            runtime.default_timeout()

    def test_spmd_timeout_reaches_the_engine(self):
        """The timeout arrives as the processes coordinator's stall
        bound: a run that deadlocks under a tiny budget aborts (instead
        of waiting out the 600 s default), proving the value was
        applied."""

        def stuck(comm):
            if comm.rank == 0:
                comm.barrier()
            return True

        from repro.mpsim import SpmdFailure

        with pytest.raises(SpmdFailure, match="failed"):
            run_spmd(2, stuck, runtime="processes", timeout=0.4)
