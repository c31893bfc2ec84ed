"""Measure one workload: closed-loop searches, metrics, host block, result.

One client in one process runs validated searches back to back.  A pass
sets the workload up, then searches until ``seconds`` have passed and at
least :data:`NBFS` searches are done.  The first ``NBFS`` searches are the
pass's Graph 500 run: ``run_s``, ``modeled_gteps`` and the modeled counts
come from them alone, so they do not depend on how fast the host is.

With tracing off, the pass reports the end-to-end metrics.  With tracing
on, an untraced pass of ``NBFS`` searches is followed by the same pass
under :class:`layers.LayerTrace`; the per-layer metrics come from the
traced pass, and both passes must agree on every modeled output.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.kernels
import repro.runtime
import workloads
from layers import COLLECTIVES, LayerTrace, leftover_wrappers

ROOT = Path(__file__).resolve().parent.parent
#: Result files; the ``run-`` prefix keeps them out of every ``BENCH_*.json``
#: glob the trajectory gate reads.
RESULTS = Path(__file__).resolve().parent / "results"

#: Searches in every pass: the Graph 500 run the modeled metrics and
#: ``run_s`` describe, and enough samples that ``search_s_tail`` is defined.
NBFS = 16
#: Samples ``search_s_tail`` leaves beyond it.
TAIL_BEYOND = 10
#: An end-to-end pass sets up at least this many times and for at least
#: ``SETUP_MIN_S`` seconds; ``setup_s`` is the median.
SETUP_REPS = 5
SETUP_MIN_S = 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "search_s_p50": "s",
    "search_s_tail": "s",
    "run_s": "s",
    "wall_mteps": "Medges/s",
    "modeled_gteps": "Gedges/s",
    "peak_rss_mb": "MB",
    "validated_frac": "fraction",
}


@dataclass
class Search:
    wall_s: float
    error: str | None = None
    m_traversed: int = 0
    #: Every modeled output of the search, compared across passes.
    modeled: tuple | None = None


@dataclass
class Pass:
    setup_s: list[float]
    digest: str
    rss_after_setup_mb: float
    searches: list[Search] = field(default_factory=list)
    #: ``(levels, parents)`` of the first search.
    first: tuple | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def head(self) -> list[Search]:
        return self.searches[:NBFS]

    @property
    def run_s(self) -> float:
        return statistics.median(self.setup_s) + sum(s.wall_s for s in self.head)

    @property
    def failed(self) -> int:
        return sum(s.error is not None for s in self.searches)


def current_rss_mb() -> float:
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def steal_s() -> float:
    """Seconds the hypervisor gave this machine's CPUs to other guests."""
    try:
        with open("/proc/stat") as stat:
            ticks = int(stat.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def modeled(result) -> tuple:
    stats = result.stats
    return (
        result.nlevels,
        result.m_traversed,
        result.time_total,
        result.time_comm,
        result.time_comp,
        stats.payload_words(),
        stats.wire_words(),
    )


def run_pass(w: workloads.Workload, seed: int, seconds: float, setup_reps: int,
             setup_min_s: float = 0.0) -> Pass:
    setup_s, digests = [], set()
    inputs = None
    while len(setup_s) < setup_reps or sum(setup_s) < setup_min_s:
        inputs = None  # free the previous graph before building the next
        t0 = time.perf_counter()
        inputs = workloads.setup(w, seed)
        setup_s.append(time.perf_counter() - t0)
        digests.add(inputs.digest)
    p = Pass(setup_s, inputs.digest, current_rss_mb())
    if len(digests) != 1:
        p.problems.append(f"setup gave different inputs for one seed: {sorted(digests)}")
    start = time.perf_counter()
    i = 0
    while i < NBFS or time.perf_counter() - start < seconds:
        key = inputs.keys[i % len(inputs.keys)]
        t0 = time.perf_counter()
        try:
            result = workloads.search(w, inputs.graph, key)
            wall = time.perf_counter() - t0
            problem = workloads.check_result(w, result, key)
            search = Search(wall, problem, result.m_traversed, modeled(result))
        except Exception as exc:  # a failed search is counted and the loop goes on
            search = Search(time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
            print(f"search {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            if i == 0:
                p.first = (result.levels, result.parents)
        p.searches.append(search)
        i += 1
    return p


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and its rank."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise ValueError(f"{len(ordered)} samples leave no {TAIL_BEYOND} beyond any percentile")
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(p: Pass) -> tuple[dict, dict]:
    """End-to-end metrics as ``name -> value``, plus notes for the report."""
    walls = [s.wall_s for s in p.searches]
    ok = [s for s in p.searches if s.error is None]
    head_ok = [s for s in p.head if s.error is None]
    tail_s, tail_pct = tail(walls)
    rates = [s.m_traversed / s.modeled[2] / 1e9 for s in head_ok]
    metrics = {
        "setup_s": statistics.median(p.setup_s),
        "search_s_p50": statistics.median(walls),
        "search_s_tail": tail_s,
        "run_s": p.run_s,
        "wall_mteps": sum(s.m_traversed for s in ok) / sum(walls) / 1e6,
        "modeled_gteps": statistics.harmonic_mean(rates) if rates else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "validated_frac": len(ok) / len(p.searches),
    }
    notes = {
        "searches": len(walls),
        "search_s_tail_percentile": round(tail_pct, 2),
        "failed_frac": p.failed / len(p.searches),
        "setup_reps": len(p.setup_s),
    }
    return metrics, notes


def layer_metrics(trace: LayerTrace, traced: Pass, untraced: Pass) -> dict:
    """Per-layer metrics as ``name -> (value, unit)`` from a traced pass."""
    out = {}

    def stat(layer: str, *fields: str) -> None:
        s = trace.layer(layer)
        for f in fields:
            out[f"{layer}.{f}"] = (getattr(s, f), "count" if f in ("calls", "items") else "s")

    out["graphs.generate_s"] = (trace.layer("graphs.generate").wall_s, "s")
    out["graphs.construct_s"] = (trace.layer("graphs.construct").wall_s, "s")
    stat("core.build_2d_blocks", "calls", "busy_s")
    stat("core.validate", "busy_s")
    stat("core.serial_oracle", "busy_s")
    stat("core.count_edges", "busy_s")
    stat("runtime.spmd", "calls", "wall_s")
    for name in COLLECTIVES:
        stat(f"mpsim.{name}", "calls", "busy_s", "wait_s")
    for name in repro.kernels.KERNELS:
        stat(f"kernels.{name}", "calls", "items", "busy_s")
    stat("comm.encode", "busy_s")
    stat("comm.decode", "busy_s")
    head = [s.modeled for s in traced.head if s.modeled is not None]
    out["comm.payload_words"] = (sum(m[5] for m in head), "words")
    out["comm.wire_words"] = (sum(m[6] for m in head), "words")
    stat("query.run_query", "wall_s")
    out["model.time_s"] = (sum(m[2] for m in head), "s")
    out["model.comm_s"] = (sum(m[3] for m in head), "s")
    out["model.comp_s"] = (sum(m[4] for m in head), "s")
    out["mem.rss_after_setup_mb"] = (traced.rss_after_setup_mb, "MB")
    out["trace.overhead_frac"] = (traced.run_s / untraced.run_s - 1.0, "fraction")
    return out


def passivity_problems(untraced: Pass, traced: Pass) -> list[str]:
    """Where the traced pass's modeled outputs differ from the untraced pass's."""
    problems = []
    if traced.digest != untraced.digest:
        problems.append("traced and untraced passes built different inputs")
    for i, (a, b) in enumerate(zip(untraced.head, traced.head)):
        if a.modeled != b.modeled:
            problems.append(f"search {i}: modeled outputs {a.modeled} untraced, {b.modeled} traced")
    if untraced.first is None or traced.first is None or not all(
        np.array_equal(x, y) for x, y in zip(untraced.first, traced.first)
    ):
        problems.append("levels or parents of the first search differ under tracing")
    return problems


def stage_table(trace: LayerTrace, traced: Pass) -> list[tuple[str, float]]:
    """Where the traced pass's wall-clock went, by stage."""
    searches = sum(s.wall_s for s in traced.head)
    rows = [
        ("setup (generate, construct, pick keys)", traced.setup_s[0]),
        ("build_2d_blocks", trace.layer("core.build_2d_blocks").wall_s),
        ("traversal (run_spmd)", trace.layer("runtime.spmd").wall_s),
        ("serial oracle + validation", trace.layer("core.serial_oracle").wall_s
         + trace.layer("core.validate").wall_s),
        ("count traversed edges", trace.layer("core.count_edges").wall_s),
    ]
    rows.append(("other search work", searches - sum(v for _, v in rows[1:])))
    rows.append(("total", traced.setup_s[0] + searches))
    return rows


def host() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": repro.kernels.active_backend(),
        "runtime": repro.runtime.active_runtime(),
        "commit": commit,
        "platform": platform.platform(),
    }


def measure(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full result (see :func:`main`)."""
    result = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace}
    steal0 = steal_s()
    if not trace:
        p = run_pass(w, seed, seconds, SETUP_REPS, SETUP_MIN_S)
        values, notes = end_to_end(p)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        passes, problems = [p], list(p.problems)
    else:
        untraced = run_pass(w, seed, 0.0, 1)
        with LayerTrace() as lt:
            traced = run_pass(w, seed, 0.0, 1)
        metrics = layer_metrics(lt, traced, untraced)
        passes = [untraced, traced]
        problems = untraced.problems + traced.problems + passivity_problems(untraced, traced)
        problems += [f"still wrapped after the trace: {n}" for n in leftover_wrappers()]
        notes = {"stages": stage_table(lt, traced)}
    notes["host_steal_s"] = round(steal_s() - steal0, 2)
    attempted = sum(len(p.searches) for p in passes)
    failed = sum(p.failed for p in passes)
    problems += [
        f"search {i}: {s.error}"
        for p in passes for i, s in enumerate(p.searches) if s.error is not None
    ]
    result.update(
        host=host(),
        digest=passes[0].digest,
        correct=not problems,
        attempted=attempted,
        failed=failed,
        problems=problems,
        notes=notes,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        search_wall_s=[[s.wall_s for s in p.searches] for p in passes],
    )
    return result


def report(result: dict) -> str:
    lines = [f"workload {result['workload']}  seed {result['seed']}  digest {result['digest']}"]
    lines += [f"host.{k}: {v}" for k, v in result["host"].items()]
    for name, m in result["metrics"].items():
        lines.append(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    notes = dict(result["notes"])
    stages = notes.pop("stages", None)
    lines += [f"{k}: {v}" for k, v in notes.items()]
    if stages:
        total = stages[-1][1]
        lines.append(f"stage breakdown of the traced pass ({NBFS} searches)")
        for label, seconds in stages:
            lines.append(f"  {label:<40} {seconds:9.3f} s {100 * seconds / total:6.1f}%")
    lines += [f"PROBLEM: {p}" for p in result["problems"]]
    return "\n".join(lines)


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if workload not in workloads.WORKLOADS:
        print(f"unknown workload {workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = measure(workloads.WORKLOADS[workload], seed, seconds, trace)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"run-{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(report(result))
    print(f"result file: {os.path.relpath(out, ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0
