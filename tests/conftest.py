"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, rmat_graph, webcrawl_graph


@pytest.fixture(scope="session")
def rmat_small() -> Graph:
    """Scale-11 R-MAT graph (2048 vertices) used across integration tests."""
    return rmat_graph(11, 16, seed=42)


@pytest.fixture(scope="session")
def rmat_medium() -> Graph:
    """Scale-13 R-MAT graph for the heavier distributed tests."""
    return rmat_graph(13, 16, seed=7)


@pytest.fixture(scope="session")
def crawl_graph() -> Graph:
    """High-diameter synthetic web crawl (uk-union stand-in)."""
    return webcrawl_graph(6000, n_hosts=30, host_reach=1, seed=3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def dense_spmsv(nrows, ncols, rows, cols, frontier_idx, frontier_val):
    """Brute-force (select, max) SpMSV oracle on a dense boolean matrix.

    Output row ``r`` takes the largest payload among the frontier columns
    ``c`` with ``A[r, c]`` set; payloads must be >= 0.
    """
    a = np.zeros((nrows, ncols), dtype=bool)
    a[rows, cols] = True
    x = np.full(ncols, -1, dtype=np.int64)
    x[frontier_idx] = frontier_val
    best = np.where(a, x, -1).max(axis=1)
    out = np.flatnonzero(best >= 0)
    return out, best[out]


def make_path_graph(n: int) -> Graph:
    """Deterministic path 0-1-2-...-(n-1): known levels for exact checks."""
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    return Graph.from_edges(n, src, dst, shuffle=False, name=f"path-{n}")


def make_star_graph(n: int) -> Graph:
    """Star with center 0: every other vertex at level 1."""
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    return Graph.from_edges(n, src, dst, shuffle=False, name=f"star-{n}")


def make_disconnected_graph() -> Graph:
    """Two components: a triangle {0,1,2} and an edge {3,4}; vertex 5 isolated."""
    src = np.array([0, 1, 2, 3], dtype=np.int64)
    dst = np.array([1, 2, 0, 4], dtype=np.int64)
    return Graph.from_edges(6, src, dst, shuffle=False, name="disconnected")


def query_sources(graph: Graph, source: int, k: int = 4) -> list[int]:
    """Deterministic batch anchored at ``source``: k distinct vertex ids."""
    return [(source + i) % graph.n for i in range(min(k, graph.n))]


def launch_any(graph: Graph, source: int, algorithm: str, *, batch: int = 4, **kwargs):
    """Kind-dispatching launcher for registry-driven sweeps.

    The harnesses parametrize over the whole ``ALGORITHMS`` registry;
    BFS entries run through :func:`repro.core.run_bfs` and the batched
    query kinds through :func:`repro.query.run_query` with a
    deterministic source batch derived from ``source``, so one helper
    covers every entry — current and future — without per-name branches
    in the tests.
    """
    from repro.core import run_bfs
    from repro.core.runner import ALGORITHMS
    from repro.query import run_query

    kind = ALGORITHMS[algorithm].kind
    if kind == "bfs":
        return run_bfs(graph, source, algorithm, **kwargs)
    if kind == "msbfs":
        return run_query(
            graph,
            sources=query_sources(graph, source, batch),
            algorithm=algorithm,
            **kwargs,
        )
    if kind == "sssp":
        return run_query(graph, sources=[source], algorithm=algorithm, **kwargs)
    if kind == "cc":
        return run_query(graph, algorithm=algorithm, **kwargs)
    if kind == "landmark":
        return run_query(
            graph, algorithm=algorithm, landmarks=min(batch, graph.n), **kwargs
        )
    raise ValueError(f"unknown algorithm kind {kind!r}")  # pragma: no cover
