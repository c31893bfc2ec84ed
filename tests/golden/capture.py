"""Capture golden run-report fixtures for the engine parity tests.

Runs each distributed BFS family once with every cross-cutting concern
enabled — wire codec, sender-side sieve, per-level trace profile, span
tracer, fault injection (crash + transients), and checkpoint-restart —
and freezes the observable outputs as JSON:

* ``parents`` / ``levels`` in the caller's labels,
* the machine-readable run report (config, modeled times, GTEPS,
  ``stats.summary()`` comm volumes, span-derived phase/level/critical
  sections, and the fault/checkpoint accounting),
* the merged per-level trace profile,
* the full Chrome ``trace_event`` span tree of every rank.

It also freezes the metrics registry's OpenMetrics exposition
(``tests/golden/metrics/<family>.<variant>.txt``) for one algorithm per
instrumented family, under two variants: ``wire`` (delta-varint codec,
plus the sieve where the family takes one) and ``faults`` (the shared
:data:`FAULT_SPEC` with ``checkpoint_every=2``, for the families that
declare fault instrumentation).  ``tests/test_golden_metrics.py``
asserts the exposition is reproduced byte for byte.

The fixtures committed under ``tests/golden/`` were produced by the
pre-engine scaffolding (one hand-rolled level loop per algorithm file);
``tests/test_golden_parity.py`` asserts the refactored
:mod:`repro.core.engine` reproduces them bit-identically.  Regenerate
(only when an intentional behavior change is being locked in) with::

    PYTHONPATH=src python tests/golden/capture.py [family ...]

Passing family names regenerates only those fixtures, so locking in a
new algorithm (or an intentional change to one family) never rewrites
the unrelated files; ``--metrics`` regenerates the metrics expositions
instead (again optionally restricted to the named families).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core import run_bfs
from repro.core.runner import ALGORITHMS
from repro.graphs import rmat_graph
from repro.obs import MetricsRegistry, Tracer, chrome_trace, run_report
from repro.query import run_query

GOLDEN_DIR = Path(__file__).resolve().parent
METRICS_DIR = GOLDEN_DIR / "metrics"

#: One deterministic fault schedule shared by every family: a rank-1
#: crash at level 3 (forcing a checkpoint restart), a timeout on the
#: level-2 alltoallv (one retry), a corruption on rank 0 (detected via
#: CodecError on the damaged wire, then retried) and a fixed-length
#: delay on rank 0 at level 1.
FAULT_SPEC = (
    "crash:rank=1,level=3;"
    "timeout:level=2,site=alltoallv;"
    "corrupt:rank=0,level=2;"
    "delay:rank=0,level=1,seconds=1e-4;"
    "seed=7"
)

#: Graph + run configuration of every fixture (kwargs to ``run_bfs``).
CONFIGS: dict[str, dict] = {
    algorithm: dict(
        algorithm=algorithm,
        nprocs=4,
        machine="hopper",
        codec="delta-varint",
        sieve=True,
        trace=True,
        faults=FAULT_SPEC,
        checkpoint_every=2,
        validate=True,
    )
    for algorithm in ("1d", "1d-dirop", "2d", "2d-dirop")
}

#: The batched query families ride the same harness — everything on at
#: once except the sieve (structurally refused for triple-shipping
#: kinds, so the key is absent rather than False).
CONFIGS["msbfs-1d"] = dict(
    algorithm="msbfs-1d",
    nprocs=4,
    machine="hopper",
    codec="delta-varint",
    trace=True,
    faults=FAULT_SPEC,
    checkpoint_every=2,
    validate=True,
)

GRAPH = dict(scale=9, edgefactor=8, seed=5)
SOURCE_SEED = 3
QUERY_BATCH = 8

#: One algorithm per metered family (``FAMILY_ALGORITHMS`` of
#: ``tests/test_obs_metrics.py``).
METRICS_FAMILIES = (
    "1d",
    "1d-dirop",
    "2d",
    "2d-dirop",
    "msbfs-1d",
    "cc",
    "sssp-delta",
    "landmark",
)


def metrics_variants(algorithm: str) -> dict[str, dict]:
    """The metered configurations frozen for one family, by variant name."""
    spec = ALGORITHMS[algorithm]
    base = dict(algorithm=algorithm, nprocs=4, machine="hopper")
    wire = dict(base, codec="delta-varint")
    if spec.kind == "bfs":
        wire["sieve"] = True
    variants = {"wire": wire}
    if "faults" in spec.capabilities:
        variants["faults"] = dict(base, faults=FAULT_SPEC, checkpoint_every=2)
    return variants


def _graph():
    return rmat_graph(GRAPH["scale"], GRAPH["edgefactor"], seed=GRAPH["seed"])


def _launch(graph, config: dict):
    """Run one configuration; returns ``(source, result)``.

    Dispatches on the registry kind: single-source BFS families run
    through ``run_bfs``; ``msbfs``/``sssp`` query families get a
    deterministic source batch, ``landmark`` a landmark count of the
    same size, and ``cc`` seeds itself.
    """
    config = dict(config)
    algorithm = config.pop("algorithm")
    kind = ALGORITHMS[algorithm].kind
    if kind == "bfs":
        source = int(graph.random_nonisolated_vertices(1, seed=SOURCE_SEED)[0])
        return source, run_bfs(graph, source, algorithm, **config)
    if kind in ("msbfs", "sssp"):
        source = [
            int(s)
            for s in graph.random_nonisolated_vertices(
                QUERY_BATCH, seed=SOURCE_SEED
            )
        ]
        return source, run_query(
            graph, sources=source, algorithm=algorithm, **config
        )
    if kind == "landmark":
        config["landmarks"] = QUERY_BATCH
    return None, run_query(graph, algorithm=algorithm, **config)


def capture_metrics(algorithm: str, variant: str) -> str:
    """The OpenMetrics exposition of one metered family/variant run."""
    registry = MetricsRegistry()
    _launch(_graph(), dict(metrics_variants(algorithm)[variant], metrics=registry))
    return registry.render_openmetrics()


def metrics_path(algorithm: str, variant: str) -> Path:
    return METRICS_DIR / f"{algorithm}.{variant}.txt"


def capture(algorithm: str) -> dict:
    """Run one fixture configuration and freeze its observables.

    Single-source BFS families freeze flat ``parents``/``levels`` lists;
    query families run with a deterministic source batch and freeze the
    2-D lane arrays (``source`` holds the batch).
    """
    tracer = Tracer()
    config = dict(CONFIGS[algorithm])
    source, result = _launch(_graph(), dict(config, tracer=tracer))
    algorithm = config.pop("algorithm")
    return {
        "graph": dict(GRAPH),
        "source": source,
        "config": {"algorithm": algorithm, **config},
        "parents": result.parents.tolist(),
        "levels": result.levels.tolist(),
        "report": run_report(result),
        "level_profile": result.meta["level_profile"],
        "trace_events": chrome_trace(tracer)["traceEvents"],
    }


def main_metrics(names: list[str]) -> None:
    names = names or list(METRICS_FAMILIES)
    unknown = sorted(set(names) - set(METRICS_FAMILIES))
    if unknown:
        raise SystemExit(
            f"unknown families {unknown}; known: {list(METRICS_FAMILIES)}"
        )
    METRICS_DIR.mkdir(exist_ok=True)
    for algorithm in names:
        for variant in metrics_variants(algorithm):
            path = metrics_path(algorithm, variant)
            text = capture_metrics(algorithm, variant)
            path.write_text(text)
            print(f"wrote metrics/{path.name}: {text.count(chr(10))} lines")


def main(argv: list[str] | None = None) -> None:
    names = list(argv if argv is not None else sys.argv[1:])
    if "--metrics" in names:
        names.remove("--metrics")
        main_metrics(names)
        return
    names = names or sorted(CONFIGS)
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        raise SystemExit(
            f"unknown families {unknown}; known: {sorted(CONFIGS)}"
        )
    for algorithm in names:
        fixture = capture(algorithm)
        path = GOLDEN_DIR / f"{algorithm}.json"
        path.write_text(
            json.dumps(fixture, indent=1, allow_nan=False, sort_keys=True) + "\n"
        )
        profile = fixture["level_profile"]
        directions = {
            entry["direction"] for entry in profile if "direction" in entry
        }
        print(
            f"wrote {path.name}: nlevels={fixture['report']['graph']['nlevels']} "
            f"spans={len(fixture['trace_events'])} "
            f"attempts={fixture['report']['faults']['attempts']}"
            + (f" directions={sorted(directions)}" if directions else "")
        )


if __name__ == "__main__":
    main()
