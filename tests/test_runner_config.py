"""RunConfig / run_bfs compatibility-shim contract tests.

Three guarantees:

* **Mapping** — every legacy ``run_bfs`` keyword lands on the
  :class:`repro.core.runner.RunConfig` field of the same name, locked by
  monkeypatching :func:`repro.core.runner.run` and comparing the config
  the shim builds (frozen-dataclass equality) for the keyword combos the
  experiment harness and CLI actually use.
* **Error messages** — every validation failure raises the SAME
  ``ValueError`` text as before the refactor, locked with
  ``pytest.raises(match=...)`` so downstream ``except`` handlers and CLI
  output stay stable.
* **Equivalence** — one real traversal through each API produces
  identical parents, levels and modeled stats.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

import repro.core.runner as runner_mod
from repro.core import RunConfig, run, run_bfs
from repro.obs import Tracer

from tests.conftest import make_path_graph


@pytest.fixture
def captured(monkeypatch):
    """Monkeypatch the typed driver; record the config the shim builds."""
    calls: list[tuple] = []

    def fake_run(graph, source, config):
        calls.append((graph, source, config))
        return None

    monkeypatch.setattr(runner_mod, "run", fake_run)
    return calls


class TestShimMapping:
    """Legacy keyword combos map onto the equivalent RunConfig."""

    def test_defaults(self, captured):
        graph = object()
        run_bfs(graph, 3)
        assert captured == [(graph, 3, RunConfig())]

    def test_experiment_harness_combo(self, captured):
        # The strong-scaling sweeps: flat 1d with the ablation switches.
        run_bfs(
            object(), 0, "1d", nprocs=16, machine="franklin",
            dedup_sends=False, codec="delta-varint", sieve=True,
        )
        assert captured[0][2] == RunConfig(
            algorithm="1d", nprocs=16, machine="franklin",
            dedup_sends=False, codec="delta-varint", sieve=True,
        )

    def test_hybrid_threads(self, captured):
        run_bfs(object(), 0, "1d-hybrid", nprocs=8, threads=6, machine="hopper")
        assert captured[0][2] == RunConfig(
            algorithm="1d-hybrid", nprocs=8, threads=6, machine="hopper"
        )

    def test_2d_combo(self, captured):
        # The Figure 4/6 ablations: grid, kernel, vector distribution.
        run_bfs(
            object(), 0, "2d", nprocs=16, kernel="heap", vector_dist="1d",
            modeled_cores=64, grid_shape=(2, 8), validate=True,
        )
        assert captured[0][2] == RunConfig(
            algorithm="2d", nprocs=16, kernel="heap", vector_dist="1d",
            modeled_cores=64, grid_shape=(2, 8), validate=True,
        )

    def test_dirop_thresholds_and_trace(self, captured):
        run_bfs(
            object(), 0, "1d-dirop", dirop_alpha=12.0, dirop_beta=20.0,
            trace=True,
        )
        assert captured[0][2] == RunConfig(
            algorithm="1d-dirop", dirop_alpha=12.0, dirop_beta=20.0,
            trace=True,
        )

    def test_tracer_passthrough(self, captured):
        tracer = Tracer()
        run_bfs(object(), 0, "1d", tracer=tracer)
        assert captured[0][2].tracer is tracer

    def test_resilience_combo(self, captured):
        # The fault-ablation harness: spec string + checkpointing + retries.
        run_bfs(
            object(), 0, "1d", machine="hopper",
            faults="crash:rank=1,level=3;seed=7",
            checkpoint_every=2, max_retries=5,
        )
        config = captured[0][2]
        assert config == RunConfig(
            algorithm="1d", machine="hopper",
            faults="crash:rank=1,level=3;seed=7",
            checkpoint_every=2, max_retries=5,
        )
        assert config.resilient

    def test_positional_algorithm_and_keyword_equivalent(self, captured):
        run_bfs(object(), 0, "2d-hybrid")
        run_bfs(object(), 0, algorithm="2d-hybrid")
        assert captured[0][2] == captured[1][2]


class TestValidationMessages:
    """The exact pre-refactor ValueError texts, locked verbatim."""

    @pytest.fixture(scope="class")
    def graph(self):
        return make_path_graph(32)

    def test_unknown_algorithm(self, graph):
        known = sorted(runner_mod.ALGORITHMS)
        msg = re.escape(f"unknown algorithm 'bogus'; known: {known}")
        with pytest.raises(ValueError, match=msg):
            run_bfs(graph, 0, "bogus")
        with pytest.raises(ValueError, match=msg):
            RunConfig(algorithm="bogus")

    def test_source_out_of_range(self, graph):
        with pytest.raises(
            ValueError, match=re.escape("source 32 out of range [0, 32)")
        ):
            run_bfs(graph, 32)
        with pytest.raises(
            ValueError, match=re.escape("source -1 out of range [0, 32)")
        ):
            run_bfs(graph, -1)

    def test_unknown_machine(self, graph):
        with pytest.raises(ValueError, match=re.escape("unknown machine 'cray-3'")):
            run_bfs(graph, 0, "1d", machine="cray-3")

    def test_bad_thread_count(self, graph):
        with pytest.raises(ValueError, match=re.escape("threads must be >= 1, got 0")):
            run_bfs(graph, 0, "1d-hybrid", threads=0)

    def test_threads_on_flat_variant(self, graph):
        with pytest.raises(
            ValueError,
            match=re.escape("1d is a flat variant; use a hybrid for threads > 1"),
        ):
            run_bfs(graph, 0, "1d", threads=4)

    @pytest.mark.parametrize("algorithm", ["serial", "pbgl", "graph500-ref"])
    def test_wire_options_gated_by_capability(self, graph, algorithm):
        msg = re.escape(
            f"{algorithm} does not route its exchanges through repro.comm; "
            "codec/sieve apply to the 1d/2d families only"
        )
        with pytest.raises(ValueError, match=msg):
            run_bfs(graph, 0, algorithm, codec="delta-varint")
        with pytest.raises(ValueError, match=msg):
            run_bfs(graph, 0, algorithm, sieve=True)

    def test_raw_codec_allowed_everywhere(self, graph):
        # codec="raw" is the no-op default; it must not trip the gate.
        result = run_bfs(graph, 0, "serial", codec="raw", sieve=False)
        assert result.nlevels == 31

    @pytest.mark.parametrize("algorithm", ["serial", "pbgl", "graph500-ref"])
    def test_tracer_gated_by_capability(self, graph, algorithm):
        msg = re.escape(
            f"{algorithm} is not instrumented for span tracing; "
            "tracer applies to the 1d/2d families only"
        )
        with pytest.raises(ValueError, match=msg):
            run_bfs(graph, 0, algorithm, tracer=Tracer())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"faults": "crash:rank=0,level=1"},
            {"checkpoint_every": 2},
            {"max_retries": 5},
        ],
    )
    def test_resilience_gated_by_capability(self, graph, kwargs):
        msg = re.escape(
            "serial has no fault/checkpoint instrumentation; "
            "faults/checkpoint_every/max_retries apply to the 1d/2d families only"
        )
        with pytest.raises(ValueError, match=msg):
            run_bfs(graph, 0, "serial", **kwargs)

    def test_bad_grid(self, graph):
        with pytest.raises(ValueError, match=re.escape("grid must be positive, got 0x2")):
            run_bfs(graph, 0, "2d", grid_shape=(0, 2))

    def test_fault_plan_rank_out_of_range(self, graph):
        with pytest.raises(
            ValueError,
            match=re.escape("fault plan targets rank 7 but the run has only 4 ranks"),
        ):
            run_bfs(
                graph, 0, "1d", nprocs=4,
                faults="crash:rank=7,level=1", checkpoint_every=1,
            )

    def test_bad_checkpoint_interval(self, graph):
        with pytest.raises(
            ValueError, match=re.escape("checkpoint interval must be >= 1, got 0")
        ):
            run_bfs(graph, 0, "1d", checkpoint_every=0)


class TestRunEquivalence:
    """run_bfs(...) and run(graph, src, RunConfig(...)) are the same run."""

    def test_identical_results(self, rmat_small):
        source = int(rmat_small.random_nonisolated_vertices(1, seed=11)[0])
        kwargs = dict(
            algorithm="1d-dirop", nprocs=4, machine="hopper",
            codec="delta-varint", sieve=True, trace=True,
        )
        via_shim = run_bfs(rmat_small, source, **kwargs)
        via_config = run(rmat_small, source, RunConfig(**kwargs))
        np.testing.assert_array_equal(via_shim.parents, via_config.parents)
        np.testing.assert_array_equal(via_shim.levels, via_config.levels)
        assert via_shim.stats.makespan == via_config.stats.makespan
        assert via_shim.meta["level_profile"] == via_config.meta["level_profile"]
