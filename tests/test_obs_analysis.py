"""Critical-path, imbalance, and comm/comp analyses over traced runs."""

from __future__ import annotations

import pytest

from repro.core import run_bfs
from repro.obs import (
    COMM_PHASES,
    UNTRACED,
    Tracer,
    check_critical_path,
    comm_comp_summary,
    critical_path,
    load_imbalance,
)


def _traced(graph, algorithm, **kwargs):
    tracer = Tracer()
    result = run_bfs(
        graph, 5, algorithm, nprocs=4, machine="hopper", tracer=tracer, **kwargs
    )
    return result, tracer


class TestCriticalPath:
    @pytest.mark.parametrize(
        "algorithm",
        ["1d", "1d-hybrid", "1d-dirop", "1d-dirop-hybrid", "2d", "2d-hybrid"],
    )
    def test_sums_to_modeled_total(self, rmat_small, algorithm):
        """The acceptance bar: init + per-level phase times == makespan
        within 1e-6 relative tolerance (here they match to fp roundoff)."""
        result, tracer = _traced(rmat_small, algorithm)
        path = check_critical_path(tracer, result.time_total, rel_tol=1e-6)
        assert path.total == pytest.approx(result.time_total, rel=1e-9)
        for lc in path.levels:
            assert sum(lc.phases.values()) == pytest.approx(lc.duration, rel=1e-9)

    def test_mismatch_raises(self, rmat_small):
        result, tracer = _traced(rmat_small, "1d")
        with pytest.raises(ValueError, match="critical path sums"):
            check_critical_path(tracer, result.time_total * 1.5)

    def test_level_structure(self, rmat_small):
        result, tracer = _traced(rmat_small, "1d-dirop")
        path = critical_path(tracer)
        assert [lc.level for lc in path.levels] == list(
            range(1, result.nlevels + 1)
        )
        assert path.init > 0  # dirop's initial frontier-stats allreduce
        for prev, cur in zip(path.levels, path.levels[1:]):
            assert cur.t_start == pytest.approx(prev.t_end)
        for lc in path.levels:
            assert lc.rank in tracer.ranks
            assert UNTRACED in lc.phases
            assert lc.bounding_phase in lc.phases

    def test_phase_names_match_algorithm(self, rmat_small):
        _result, tracer = _traced(rmat_small, "2d")
        totals = critical_path(tracer).phase_totals()
        assert {"transpose", "expand", "spmsv", "fold-exchange", "sync"} <= set(
            totals
        )
        _result, tracer = _traced(rmat_small, "1d")
        totals = critical_path(tracer).phase_totals()
        assert {"td-scan", "td-pack", "td-exchange", "td-update", "sync"} <= set(
            totals
        )

    def test_empty_tracer(self):
        path = critical_path(Tracer())
        assert path.init == 0.0 and path.levels == [] and path.total == 0.0

    def test_untimed_run_checks_out_at_zero(self, rmat_small):
        tracer = Tracer()
        result = run_bfs(rmat_small, 5, "1d", nprocs=4, tracer=tracer)
        path = check_critical_path(tracer, result.time_total)
        assert path.total == 0.0


class TestImbalance:
    def test_per_level_per_phase_records(self, rmat_small):
        result, tracer = _traced(rmat_small, "1d")
        records = load_imbalance(tracer)
        assert records
        levels = {r.level for r in records}
        assert levels == set(range(1, result.nlevels + 1))
        for rec in records:
            assert rec.max_seconds >= rec.mean_seconds >= 0
            assert rec.imbalance >= 1.0
            assert rec.straggler in tracer.ranks

    def test_skewed_workload_attributes_straggler(self):
        """A rank doing 4x the compute of its peers must be named the
        straggler with the matching max/mean factor."""
        from repro.model import FRANKLIN, NetworkCostModel
        from repro.mpsim import run_spmd

        tracer = Tracer()

        def fn(comm):
            rt = tracer.for_rank(comm)
            with rt.span("level", level=1):
                with rt.span("work"):
                    comm.charge_compute(4e-5 if comm.rank == 2 else 1e-5)
                with rt.span("sync"):
                    comm.allreduce(1)
            return True

        # Pinned to the shared-memory runtime: the tracer here is a
        # closure capture, which only the runner's ``tracer=`` kwarg
        # plumbing can ship back from process workers.
        run_spmd(
            4,
            fn,
            cost_model=NetworkCostModel(FRANKLIN, total_ranks=4),
            runtime="sequential",
        )
        (work,) = [r for r in load_imbalance(tracer) if r.phase == "work"]
        assert work.straggler == 2
        assert work.imbalance == pytest.approx(4 / ((3 * 1 + 4) / 4))
        # The fast ranks absorb the skew as waiting inside the sync.
        (sync,) = [r for r in load_imbalance(tracer) if r.phase == "sync"]
        assert sync.straggler != 2


class TestCommComp:
    def test_totals_accumulate_levels(self, rmat_small):
        _result, tracer = _traced(rmat_small, "2d")
        summary = comm_comp_summary(tracer)
        levels = summary["levels"]
        assert levels
        assert summary["totals"]["comm_max"] == pytest.approx(
            sum(lv["comm_max"] for lv in levels)
        )
        for lv in levels:
            assert lv["comm_max"] >= 0 and lv["comp_max"] >= 0
            assert lv["comm_mean"] <= lv["comm_max"] + 1e-18

    def test_means_tile_levels_exactly(self, rmat_small):
        """Sync-aligned level spans have identical durations on every
        rank, so comm_mean + comp_mean reproduces each level exactly."""
        _result, tracer = _traced(rmat_small, "1d")
        summary = comm_comp_summary(tracer)
        path = critical_path(tracer)
        assert len(summary["levels"]) == len(path.levels)
        for lv, lc in zip(summary["levels"], path.levels):
            assert lv["comm_mean"] + lv["comp_mean"] == pytest.approx(
                lc.duration, rel=1e-9
            )
            # Maxes are over different ranks, so they bound from above.
            assert lv["comm_max"] + lv["comp_max"] >= lc.duration - 1e-15
        assert summary["totals"]["comm_max"] > 0

    def test_comm_phase_classifier_covers_instrumentation(self):
        assert {"alltoallv", "allgatherv", "allreduce", "transpose"} <= COMM_PHASES
