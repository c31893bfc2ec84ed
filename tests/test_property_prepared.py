"""Repeated-search harness: one graph, many searches, one prepared state.

``repro.core.runner.prepare`` builds a run's source-independent state —
the rank count and the step's graph-side arguments, e.g. the 2D blocks —
once per graph and configuration, freezes it and keeps it on the
:class:`~repro.graphs.graph.Graph`.  For every single-source BFS family
in the registry, under every execution runtime, two searches from
different sources on one graph object must be bit-identical — levels,
parents and every modeled output — to the same searches on freshly
built equal graphs.  The 2D families search once more with another
``threads``/``grid_shape`` in between, so every search runs on a
rebuilt entry and a cache key that misses a field shows as a mismatch.  Further tests pin the cache's shape: one entry per
graph, released with the graph, and read-only.

``PREPARED_ALGORITHMS`` is an import-time snapshot of the registry,
wired into ``tests/test_registry_coverage.py`` as the
``repeated-search`` harness.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro import runtime
from repro.core.runner import ALGORITHMS, RunConfig, prepare, run
from repro.graphs.rmat import rmat_graph

#: Every single-source BFS family; batched queries run through run_query.
PREPARED_ALGORITHMS = sorted(
    name for name, spec in ALGORITHMS.items() if spec.kind == "bfs"
)

#: The families whose prepared state is a 2D block distribution.
GRID_ALGORITHMS = [
    name for name in PREPARED_ALGORITHMS if ALGORITHMS[name].family.startswith("2d")
]

SOURCES = (17, 200)
NPROCS = 4


def make_graph():
    """A fresh graph; every call returns an equal, independent instance."""
    return rmat_graph(8, 8, seed=2)


def modeled(result) -> tuple:
    """Every modeled output of a search."""
    stats = result.stats
    words = (stats.payload_words(), stats.wire_words()) if stats else ()
    return (
        result.nranks,
        result.nlevels,
        result.m_traversed,
        result.time_total,
        result.time_comm,
        result.time_comp,
        *words,
    )


def observe(result) -> tuple:
    return (
        np.asarray(result.levels).tolist(),
        np.asarray(result.parents).tolist(),
        modeled(result),
    )


def detour(config: RunConfig) -> RunConfig:
    """A configuration with a different prepared state than ``config``."""
    if config.spec.hybrid:
        return replace(config, threads=2)
    return replace(config, grid_shape=(1, NPROCS))


@pytest.mark.parametrize("runtime_name", runtime.BACKENDS)
@pytest.mark.parametrize("algorithm", PREPARED_ALGORITHMS)
def test_repeated_searches_match_fresh_graphs(algorithm, runtime_name):
    config = RunConfig(
        algorithm=algorithm, nprocs=NPROCS, machine="hopper", runtime=runtime_name
    )
    searches = [(SOURCES[0], config), (SOURCES[1], config)]
    if algorithm in GRID_ALGORITHMS:
        searches.insert(1, (SOURCES[0], detour(config)))
    graph = make_graph()
    for source, cfg in searches:
        fresh = run(make_graph(), source, cfg)
        assert observe(run(graph, source, cfg)) == observe(fresh), (source, cfg)


@pytest.mark.parametrize("algorithm", PREPARED_ALGORITHMS)
def test_cache_holds_one_entry(algorithm):
    config = RunConfig(algorithm=algorithm, nprocs=NPROCS)
    graph = make_graph()
    for source in SOURCES:
        run(graph, source, config)
    if ALGORITHMS[algorithm].prepare is None:
        assert graph._prepared is None
        return
    key, entry = graph._prepared
    assert entry is prepare(graph, config.resolve())
    if algorithm in GRID_ALGORITHMS:
        run(graph, SOURCES[0], detour(config))
        new_key, new_entry = graph._prepared
        assert new_key != key and new_entry is not entry


@pytest.mark.parametrize("algorithm", GRID_ALGORITHMS)
def test_cached_blocks_die_with_the_graph(algorithm):
    graph = make_graph()
    result = run(graph, SOURCES[0], RunConfig(algorithm=algorithm, nprocs=NPROCS))
    _, prepared = graph._prepared
    block = weakref.ref(prepared.args[0][0])
    del graph, prepared
    gc.collect()
    assert block() is None
    assert result.levels[SOURCES[0]] == 0


@pytest.mark.parametrize("algorithm", GRID_ALGORITHMS)
def test_cached_state_is_read_only(algorithm):
    graph = make_graph()
    prepared = prepare(graph, RunConfig(algorithm=algorithm, nprocs=NPROCS).resolve())
    blocks, decomp = prepared.args
    piece = next(p for b in blocks for p in b.pieces if p.nnz)
    for array in (piece.ir, piece.jc, piece.cp, decomp.row_bounds):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    for array in prepared.kwargs.values():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
