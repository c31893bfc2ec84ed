"""Smoke tests of the wall-clock benchmark, at toy sizes.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import layers
import measure
import repro
import repro.core.runner
import workloads
from repro.core.validate import ValidationError
from repro.graphs.graph import Graph
from repro.mpsim.communicator import Communicator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = {name: replace(w, scale=8, nprocs=4) for name, w in workloads.WORKLOADS.items()}


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_benchmark_json_matches_the_workloads():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert units(BENCH["end_to_end"]) == measure.END_TO_END_UNITS


@pytest.mark.parametrize("name", sorted(TOY))
def test_end_to_end_metrics_are_emitted_with_units(name):
    result = measure.measure(TOY[name], seed=3, seconds=0.0, trace=False)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == measure.NBFS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units(BENCH["end_to_end"])
    got = values(result)
    assert got["validated_frac"] == 1.0
    assert all(v > 0 for v in got.values())
    assert set(result["host"]) >= {"cpus", "python", "numpy", "kernels", "runtime", "commit"}


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_run_emits_per_layer_metrics_and_is_passive(name):
    result = measure.measure(TOY[name], seed=3, seconds=0.0, trace=True)
    # ``correct`` covers the passivity checks: identical modeled outputs and
    # first-search trees in both passes, and no wrapper left behind.
    assert result["correct"], result["problems"]
    assert result["attempted"] == 2 * measure.NBFS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units(BENCH["per_layer"])
    got = values(result)
    assert got["runtime.spmd.calls"] == measure.NBFS
    assert got["graphs.generate_s"] > 0 and got["graphs.construct_s"] > 0
    assert got["core.build_2d_blocks.calls"] == (measure.NBFS if name == "g500-2d" else 0)
    assert (got["query.run_query.wall_s"] > 0) == (name == "msbfs-b64")
    assert (got["kernels.lane_prune.calls"] > 0) == (name == "msbfs-b64")
    assert (got["kernels.varint_encode.calls"] > 0) == (name == "g500-1d-wire")
    assert got["mpsim.allreduce.calls"] > 0 and got["model.time_s"] > 0
    assert [label for label, _ in result["notes"]["stages"]][-1] == "total"
    assert layers.leftover_wrappers() == []


def test_layer_trace_restores_every_binding_even_after_an_error():
    before = (
        repro.kernels.dedup_max,
        repro.core.runner.validate_bfs,
        repro.core.runner.run_spmd,
        vars(Graph)["from_edges"],
        vars(Communicator)["alltoallv"],
    )
    with pytest.raises(RuntimeError, match="inside"):
        with layers.LayerTrace():
            assert hasattr(repro.core.runner.validate_bfs, layers.WRAPPED)
            assert len(layers.leftover_wrappers()) > len(layers.FUNCTIONS)
            raise RuntimeError("inside the trace")
    after = (
        repro.kernels.dedup_max,
        repro.core.runner.validate_bfs,
        repro.core.runner.run_spmd,
        vars(Graph)["from_edges"],
        vars(Communicator)["alltoallv"],
    )
    assert all(a is b for a, b in zip(before, after))
    assert layers.leftover_wrappers() == []


def test_injected_validation_failure_is_counted_not_dropped(monkeypatch):
    original = repro.core.runner.validate_bfs
    calls = []

    def fails_on_second_search(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValidationError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.core.runner, "validate_bfs", fails_on_second_search)
    result = measure.measure(TOY["g500-2d"], seed=3, seconds=0.0, trace=False)
    assert result["attempted"] == measure.NBFS
    assert result["failed"] == 1
    assert not result["correct"]
    assert any("injected" in p for p in result["problems"])
    assert result["notes"]["failed_frac"] == 1 / measure.NBFS
    assert values(result)["validated_frac"] == (measure.NBFS - 1) / measure.NBFS


def test_wrong_tree_fails_the_benchmarks_own_check():
    levels = np.array([0, 1, 2, -1])
    assert workloads.check_tree(levels, np.array([0, 0, 1, -1]), 0) is None
    assert "one level above" in workloads.check_tree(levels, np.array([0, 0, 0, -1]), 0)
    assert "disagree" in workloads.check_tree(levels, np.array([0, 0, 1, 2]), 0)
    assert "source" in workloads.check_tree(levels, np.array([1, 0, 1, -1]), 0)


@pytest.mark.parametrize("name", ["g500-2d", "msbfs-b64"])
def test_seed_changes_the_inputs(name):
    w = TOY[name]
    first, again, other = (workloads.setup(w, s) for s in (1, 1, 2))
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert not (first.keys == other.keys).all()


def test_modeled_outputs_repeat_exactly_across_runs():
    runs = [measure.measure(TOY["g500-1d-wire"], seed=5, seconds=0.0, trace=True) for _ in range(2)]
    exact = ["model.time_s", "model.comm_s", "model.comp_s", "comm.payload_words",
             "comm.wire_words"]
    assert [values(runs[0])[k] for k in exact] == [values(runs[1])[k] for k in exact]
    e2e = [measure.measure(TOY["g500-1d-wire"], seed=5, seconds=0.0, trace=False)
           for _ in range(2)]
    assert values(e2e[0])["modeled_gteps"] == values(e2e[1])["modeled_gteps"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert measure.tail([float(v) for v in range(20, 0, -1)]) == (10.0, 50.0)
    assert measure.tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11)
    with pytest.raises(ValueError):
        measure.tail([1.0] * 10)


def test_cli_writes_a_result_file_outside_the_bench_globs(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "WORKLOADS", TOY)
    monkeypatch.setattr(measure, "RESULTS", tmp_path / "results")
    assert measure.main("msbfs-b64", 2, 0.0, False) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == measure.NBFS
    (written,) = (tmp_path / "results").iterdir()
    assert not fnmatch.fnmatch(written.name, "BENCH_*.json")
    assert json.loads(written.read_text())["host"]["runtime"] == repro.runtime.active_runtime()


def test_result_directory_is_the_benchmarks_own():
    assert measure.RESULTS == HERE / "results"


def test_unknown_workload_is_refused(capsys):
    assert measure.main("no-such-workload", 1, 0.0, False) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "g500-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
