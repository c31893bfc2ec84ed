"""Unit tests for the resilience layer: specs, plans, policies, stores."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import run_bfs
from repro.faults import (
    CheckpointConfig,
    CheckpointStore,
    FaultEvent,
    RankCrashError,
    RetryPolicy,
    corrupt_pieces,
    parse_fault_spec,
    random_fault_plan,
    resolve_fault_plan,
)
from repro.graphs import rmat_graph
from repro.model.machine import HOPPER
from repro.obs import MetricsRegistry


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor", rank=0)

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError, match="level"):
            FaultEvent(kind="timeout", level=0)

    @pytest.mark.parametrize("kind", ["crash", "corrupt", "delay"])
    def test_rank_required_for_targeted_kinds(self, kind):
        with pytest.raises(ValueError, match="rank"):
            FaultEvent(kind=kind)

    def test_timeout_needs_no_rank(self):
        assert FaultEvent(kind="timeout", level=2).rank == -1

    def test_bad_site_rejected(self):
        with pytest.raises(ValueError, match="site"):
            FaultEvent(kind="timeout", site="bcast")

    def test_negative_seconds_and_attempt_rejected(self):
        with pytest.raises(ValueError, match="seconds"):
            FaultEvent(kind="delay", rank=0, seconds=-1.0)
        with pytest.raises(ValueError, match="attempt"):
            FaultEvent(kind="timeout", attempt=-1)


class TestSpecGrammar:
    SPEC = (
        "crash:rank=1,level=3;"
        "timeout:level=2,site=alltoallv;"
        "corrupt:rank=0,level=2,attempt=1;"
        "delay:rank=2,level=1,seconds=0.001;"
        "seed=7"
    )

    def test_parse(self):
        plan = parse_fault_spec(self.SPEC)
        assert len(plan) == 4
        assert plan.seed == 7
        kinds = [e.kind for e in plan.events]
        assert kinds == ["crash", "timeout", "corrupt", "delay"]
        assert plan.events[1].site == "alltoallv"
        assert plan.events[2].attempt == 1
        assert plan.events[3].seconds == pytest.approx(1e-3)

    def test_round_trip(self):
        plan = parse_fault_spec(self.SPEC)
        again = parse_fault_spec(plan.spec())
        assert again.events == plan.events
        assert again.seed == plan.seed

    def test_whitespace_and_empty_segments_tolerated(self):
        plan = parse_fault_spec(" crash:rank=0,level=1 ; ;seed=3 ")
        assert len(plan) == 1 and plan.seed == 3

    @pytest.mark.parametrize(
        "bad",
        ["sudden-death", "crash:rank", "crash:color=red", "crash:rank=1 level=2"],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(
            ValueError, match="bad fault spec|unknown fault kind|invalid literal"
        ):
            parse_fault_spec(bad)


class TestFaultPlan:
    def test_crash_at_level_respects_fired(self):
        plan = parse_fault_spec("crash:rank=1,level=3")
        index, event = plan.crash_at_level(3)
        assert event.rank == 1
        assert plan.crash_at_level(2) is None
        plan.mark_fired(index)
        assert plan.crash_at_level(3) is None

    def test_copy_resets_fired(self):
        plan = parse_fault_spec("crash:rank=1,level=3")
        plan.mark_fired(0)
        fresh = plan.copy()
        assert fresh.crash_at_level(3) is not None
        assert plan.crash_at_level(3) is None

    def test_delay_matches_rank_and_level(self):
        plan = parse_fault_spec("delay:rank=2,level=4,seconds=1e-4")
        assert plan.delay_at(2, 4) is not None
        assert plan.delay_at(1, 4) is None
        assert plan.delay_at(2, 3) is None

    def test_transients_filter_on_site(self):
        plan = parse_fault_spec(
            "timeout:level=2,site=alltoallv;corrupt:rank=0,level=2"
        )
        assert len(list(plan.transients_at("alltoallv", 2))) == 2
        # The wildcard corrupt event matches either site; the pinned
        # timeout does not.
        assert [e.kind for _i, e in plan.transients_at("allgatherv", 2)] == [
            "corrupt"
        ]
        assert list(plan.transients_at("alltoallv", 3)) == []

    def test_max_rank(self):
        assert parse_fault_spec("timeout:level=1").max_rank() == -1
        assert parse_fault_spec("crash:rank=5,level=1").max_rank() == 5

    def test_resolve_coercions(self):
        assert len(resolve_fault_plan(None)) == 0
        assert len(resolve_fault_plan("crash:rank=0,level=1")) == 1
        event = FaultEvent(kind="timeout", level=1)
        assert resolve_fault_plan(event).events == (event,)
        plan = parse_fault_spec("crash:rank=0,level=1")
        plan.mark_fired(0)
        assert resolve_fault_plan(plan).fired == set()
        with pytest.raises(TypeError, match="faults must be"):
            resolve_fault_plan(42)


class TestRandomPlan:
    def test_deterministic_and_in_bounds(self):
        a = random_fault_plan(9, nranks=4, max_level=5)
        b = random_fault_plan(9, nranks=4, max_level=5)
        assert a.events == b.events and a.seed == b.seed == 9
        for event in a.events:
            assert event.rank < 4
            assert 1 <= event.level <= 5

    def test_shape_knobs(self):
        plan = random_fault_plan(
            3, nranks=2, max_level=4, n_transients=0, crash=False, delay=False
        )
        assert len(plan) == 0
        plan = random_fault_plan(3, nranks=2, max_level=4, n_transients=3)
        kinds = [e.kind for e in plan.events]
        assert kinds.count("crash") == 1 and kinds.count("delay") == 1
        assert len(plan) == 5


class TestRetryPolicy:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_penalty_grows_with_attempt(self):
        policy = RetryPolicy()
        p0 = policy.penalty_seconds(HOPPER, 0)
        p1 = policy.penalty_seconds(HOPPER, 1)
        assert 0 < p0 < p1

    def test_untimed_runs_charge_nothing(self):
        assert RetryPolicy().penalty_seconds(None, 0) == 0.0


class TestCheckpointStore:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError, match="nranks"):
            CheckpointStore(0)
        with pytest.raises(ValueError, match="interval"):
            CheckpointConfig(CheckpointStore(2), every=0)

    def test_latest_complete_needs_every_rank(self):
        store = CheckpointStore(2)
        assert store.latest_complete() is None
        store.save(0, 1, {"x": 1})
        assert store.latest_complete() is None  # rank 1 missing
        store.save(1, 1, {"x": 2})
        assert store.latest_complete() == 1
        store.save(0, 2, {"x": 3})
        assert store.latest_complete() == 1  # level 2 still torn
        store.save(1, 2, {"x": 4})
        assert store.latest_complete() == 2
        assert store.get(2, 1) == {"x": 4}
        assert store.levels() == [1, 2]

    def test_cadence(self):
        config = CheckpointConfig(CheckpointStore(1), every=3)
        assert [level for level in range(1, 8) if config.due(level)] == [3, 6]


class TestCorruptPieces:
    def test_truncate_drops_last_word_of_largest_piece(self):
        pieces = [np.arange(2), np.arange(5), np.arange(3)]
        index, bad = corrupt_pieces(pieces, "truncate")
        assert index == 1
        assert np.array_equal(bad, np.arange(4))
        assert pieces[1].size == 5  # original untouched

    def test_smash_overwrites_first_word(self):
        index, bad = corrupt_pieces([np.array([7, 8])], "smash")
        assert index == 0
        assert bad[0] > 2**60 and bad[1] == 8

    def test_nothing_corruptible(self):
        assert corrupt_pieces([np.empty(0, dtype=np.int64)], "smash") is None
        assert corrupt_pieces([np.array([1])], "truncate") is None


class TestRunnerGating:
    @pytest.mark.parametrize("algorithm", ["serial", "pbgl", "graph500-ref"])
    def test_uninstrumented_families_reject_fault_options(
        self, rmat_small, algorithm
    ):
        with pytest.raises(ValueError, match="no fault/checkpoint"):
            run_bfs(rmat_small, 5, algorithm, nprocs=2, checkpoint_every=1)

    def test_fault_plan_must_fit_the_run(self, rmat_small):
        with pytest.raises(ValueError, match="only 4 ranks"):
            run_bfs(
                rmat_small, 5, "1d", nprocs=4, faults="crash:rank=7,level=1"
            )

    def test_crash_without_checkpointing_aborts_cleanly(self, rmat_small):
        with pytest.raises(RankCrashError, match="rank 1 at level 2"):
            run_bfs(
                rmat_small, 5, "1d", nprocs=4, machine="hopper",
                faults="crash:rank=1,level=2",
            )

    def test_crash_beyond_traversal_never_fires(self, rmat_small):
        plain = run_bfs(rmat_small, 5, "1d", nprocs=4, machine="hopper")
        result = run_bfs(
            rmat_small, 5, "1d", nprocs=4, machine="hopper",
            faults=f"crash:rank=0,level={plain.nlevels + 5}",
            checkpoint_every=1,
        )
        assert result.meta["faults"]["attempts"] == 1
        assert result.meta["faults"]["restores"] == []
        assert np.array_equal(result.parents, plain.parents)


class TestRetriedExchangeAccounting:
    """A retried exchange moves its words again but packs nothing new."""

    def test_sieve_drops_count_once_under_a_corrupt_retry(self):
        registry = MetricsRegistry()
        result = run_bfs(
            rmat_graph(10, seed=3), 5, "1d", nprocs=4, machine="hopper",
            codec="delta-varint", sieve=True,
            faults="corrupt:rank=0,level=3,site=alltoallv", metrics=registry,
        )
        stats = result.stats
        assert stats.counter("fault_corruptions") == 1
        assert stats.counter("fault_retries") == result.nranks
        # The sieve ran once per exchange, so the ledger, the clock
        # counter and the metric all count its drops once.
        assert stats.sieve_dropped == stats.counter("sieve_dropped")
        assert registry.counter_value("sieve_dropped") == stats.sieve_dropped
        # The retried attempt is still on the wire: its words count twice.
        assert stats.wire_words("alltoallv") == stats.words_sent("alltoallv")
        retried = [x for rank in stats.comm for x in rank.exchanges if x.retry]
        assert len(retried) == result.nranks
        assert {(x.kind, x.level) for x in retried} == {("alltoallv", 3)}
