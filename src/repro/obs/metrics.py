"""Typed, labeled runtime metrics for simulated BFS runs.

A :class:`MetricsRegistry` holds numeric metrics — monotonic
**counters**, last-value **gauges**, and bucketed **histograms** — about
one run: engine levels, frontier sizes and candidates, checkpoint saves
and restores, active query lanes, payload/wire words, codec encodes,
sieve and lane-prune hit rates, fault retries, delays and recovery cost.

Metrics are a **view of the stats ledger**, not a second record.  The
engine, the comm channel and the fault layer write each event once, to
the rank's :class:`~repro.mpsim.stats.RankStats` (``exchanges``,
``levels``, ``faults``) and clock counters; after the launch, in the
parent, :meth:`MetricsRegistry.add_run` derives every series from the
ledgers of all the launch's attempts.  No rank body sees the registry,
so metering cannot perturb a run (parents, clocks, spans and stats stay
bit-identical, ``tests/test_obs_metrics.py`` asserts it per family), and
the counters cannot disagree with the ledger: ``comm_wire_words`` sums
to ``result.stats.wire_words()``, ``sieve_dropped`` to
``result.stats.sieve_dropped``, ``fault_retries`` to the clock counter
of the same name, and so on.

Every sample may carry string **labels** (``kind="alltoallv"``,
``codec="raw"``, ``level=3``); a metric name is bound to exactly one
type on first use and re-use under a different type raises.  Series are
kept per rank and read back aggregated across ranks::

    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    result = repro.run_bfs(graph, src, "1d-dirop", nprocs=8,
                           machine="hopper", metrics=metrics)
    metrics.counter_value("comm_wire_words", kind="alltoallv")
    print(metrics.render_openmetrics())        # text exposition
    snapshot = metrics.snapshot()              # JSON-able dict
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

#: Metric type tags (the "typed" in typed metrics).
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default histogram bucket upper bounds: one per decade across the
#: dynamic range of the quantities observed here (virtual seconds at the
#: small end, wire words at the large end).  A ``+Inf`` bucket is
#: implicit: every observation lands in some bucket.
DEFAULT_BUCKETS = tuple(10.0**e for e in range(-9, 10))

#: Schema tag stamped into :meth:`MetricsRegistry.snapshot`.
METRICS_SCHEMA = "repro.obs/metrics/v1"


def _label_key(labels: dict) -> tuple:
    """Canonical hashable form of a label set (values stringified)."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Histogram:
    """One histogram series: cumulative bucket counts plus count/sum.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    (non-cumulative storage; the exposition cumulates), with one
    overflow slot at the end for observations above every bound.
    """

    bounds: tuple = DEFAULT_BUCKETS
    bucket_counts: list = field(default_factory=list)
    count: int = 0
    sum: float = 0.0

    def __post_init__(self):
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.sum += other.sum

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
        }


class RankMetrics:
    """One rank's series maps, obtained through :meth:`MetricsRegistry.for_rank`."""

    __slots__ = ("rank", "_registry", "counters", "gauges", "histograms")

    def __init__(self, rank: int, registry: "MetricsRegistry"):
        self.rank = rank
        self._registry = registry
        self.counters: dict[str, dict[tuple, float]] = {}
        self.gauges: dict[str, dict[tuple, float]] = {}
        self.histograms: dict[str, dict[tuple, Histogram]] = {}

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to a counter series (must be non-negative)."""
        if value < 0:
            raise ValueError(f"counter {name!r} increment must be >= 0: {value}")
        self._registry._bind(name, COUNTER)
        series = self.counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to its latest value."""
        self._registry._bind(name, GAUGE)
        self.gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into a histogram series."""
        self._registry._bind(name, HISTOGRAM)
        series = self.histograms.setdefault(name, {})
        key = _label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = Histogram(self._registry.buckets_for(name))
        hist.observe(value)


class MetricsRegistry:
    """Run-wide metric collector: one :class:`RankMetrics` per rank.

    Pass one instance to ``run_bfs(..., metrics=registry)`` (or
    ``run_query``); every launch of the run adds its series through
    :meth:`add_run`, and you read them back aggregated across ranks.  A
    registry describes one run — call :meth:`reset` (or build a fresh
    one) before reusing it.
    """

    def __init__(self):
        self._ranks: dict[int, RankMetrics] = {}
        self._types: dict[str, str] = {}
        self._buckets: dict[str, tuple] = {}

    # -- recording side -----------------------------------------------------
    def for_rank(self, rank: int) -> RankMetrics:
        """The series maps of global rank ``rank`` (created on first use)."""
        rm = self._ranks.get(rank)
        if rm is None:
            rm = self._ranks[rank] = RankMetrics(rank, self)
        return rm

    def declare_histogram(self, name: str, buckets) -> None:
        """Pre-bind a histogram's bucket bounds (before first observe)."""
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._bind(name, HISTOGRAM)
        existing = self._buckets.get(name)
        if existing is not None and existing != bounds:
            raise ValueError(
                f"histogram {name!r} already declared with buckets {existing}"
            )
        self._buckets[name] = bounds

    def add_run(self, attempts) -> None:
        """Add one launch's series, derived from its stats ledgers.

        ``attempts`` holds the :class:`~repro.mpsim.stats.SimStats` of
        every attempt of the launch, in order (one, unless a crash forced
        checkpoint restarts), so counters accumulate across attempts:
        a failed attempt's work is real modeled work.  The only writer
        of metric series; see the taxonomy in ``docs/observability.md``.
        """
        for stats in attempts:
            for rank, (clock, ledger) in enumerate(zip(stats.clocks, stats.comm)):
                m = self.for_rank(rank)
                for lv in ledger.levels:
                    m.inc("engine_levels")
                    m.inc("engine_candidates", float(lv["candidates"]))
                    m.inc("engine_discovered", float(lv["discovered"]), level=lv["level"])
                    m.observe("engine_frontier_size", float(lv["frontier"]))
                    if "lanes" in lv:
                        m.set_gauge("query_lanes_active", float(lv["lanes"]), level=lv["level"])
                    if "direction" in lv:
                        m.inc("engine_direction_levels", direction=lv["direction"])
                    if "lane_prune_kept" in lv:
                        m.inc("lane_prune_candidates", float(lv["candidates"]))
                        m.inc("lane_prune_kept", float(lv["lane_prune_kept"]))
                for x in ledger.exchanges:
                    m.inc("comm_exchanges", kind=x.kind)
                    m.inc("comm_payload_words", x.payload_words, kind=x.kind)
                    m.inc("comm_wire_words", x.wire_words, kind=x.kind)
                    m.observe("comm_wire_words_per_exchange", x.wire_words, kind=x.kind)
                    if x.retry:
                        continue
                    if x.sieved:
                        m.inc("sieve_candidates", float(x.pairs + x.dropped))
                        m.inc("sieve_dropped", float(x.dropped))
                    m.inc("codec_encodes", codec=x.codec)
                for f in ledger.faults:
                    if f.kind == "crash":
                        m.inc("fault_crashes")
                        continue
                    if f.kind == "delay":
                        m.inc("fault_delays")
                    else:
                        m.inc("fault_retries", kind=f.kind, site=f.site)
                    m.inc("fault_seconds", f.seconds, kind=f.kind)
                for name, counter in (
                    ("checkpoint_saves", "checkpoints"),
                    ("checkpoint_restores", "restores"),
                ):
                    if clock.counters.get(counter):
                        m.inc(name, clock.counters[counter])

    def buckets_for(self, name: str) -> tuple:
        return self._buckets.get(name, DEFAULT_BUCKETS)

    def _bind(self, name: str, mtype: str) -> None:
        """Bind ``name`` to one metric type; conflicting re-use raises."""
        bound = self._types.get(name)
        if bound is None:
            self._types[name] = mtype
        elif bound != mtype:
            raise TypeError(
                f"metric {name!r} is a {bound}, not a {mtype}; "
                "one name maps to one type"
            )

    # -- reading side -------------------------------------------------------
    @property
    def nranks(self) -> int:
        return len(self._ranks)

    @property
    def ranks(self) -> list[int]:
        return sorted(self._ranks)

    def names(self) -> dict[str, str]:
        """``{metric name: type}`` for everything recorded so far."""
        return dict(sorted(self._types.items()))

    def _series(self, kind: str, name: str) -> dict[tuple, list]:
        """``{label key: [(rank, value)...]}`` across ranks for one metric."""
        out: dict[tuple, list] = {}
        for rank in self.ranks:
            rm = self._ranks[rank]
            store = getattr(rm, kind).get(name, {})
            for key, value in store.items():
                out.setdefault(key, []).append((rank, value))
        return out

    def counter_value(self, name: str, rank: int | None = None, **labels) -> float:
        """A counter summed across ranks and matching label sets.

        With labels given, only series carrying *all* of them (exact
        values) contribute; without labels, every series of the name
        contributes — so ``counter_value("comm_wire_words")`` is the
        run-wide total and ``counter_value("comm_wire_words",
        kind="alltoallv")`` one collective's share.  ``rank`` restricts
        the sum to one rank's contributions.
        """
        want = dict(_label_key(labels))
        total = 0.0
        for key, pairs in self._series("counters", name).items():
            have = dict(key)
            if all(have.get(k) == v for k, v in want.items()):
                total += sum(v for r, v in pairs if rank is None or r == rank)
        return total

    def gauge_value(self, name: str, rank: int | None = None, **labels) -> float | None:
        """A gauge's value: max across ranks and matching label sets.

        Label matching is a subset test like :meth:`counter_value`; pass
        ``rank`` to read one rank's view only.
        """
        want = dict(_label_key(labels))
        values = []
        for key, pairs in self._series("gauges", name).items():
            have = dict(key)
            if all(have.get(k) == v for k, v in want.items()):
                values.extend(v for r, v in pairs if rank is None or r == rank)
        return max(values) if values else None

    def histogram_value(self, name: str, **labels) -> Histogram | None:
        """A histogram merged across ranks for one exact label set."""
        key = _label_key(labels)
        merged: Histogram | None = None
        for _rank, hist in self._series("histograms", name).get(key, []):
            if merged is None:
                merged = Histogram(hist.bounds)
            merged.merge(hist)
        return merged

    def label_sets(self, name: str) -> list[dict]:
        """Every label combination recorded for one metric name."""
        mtype = self._types.get(name)
        if mtype is None:
            return []
        kind = {COUNTER: "counters", GAUGE: "gauges", HISTOGRAM: "histograms"}[mtype]
        return [dict(key) for key in sorted(self._series(kind, name))]

    def reset(self) -> None:
        """Drop all recorded series so the registry can meter another run."""
        self._ranks.clear()
        self._types.clear()

    # -- exposition ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able aggregate of every metric (embedded in run reports).

        Counters are summed across ranks per label set; gauges keep the
        per-rank maximum (the straggler's view); histograms merge bucket
        counts.  Label sets render as sorted ``k=v`` strings so the
        snapshot is deterministic and diff-friendly.
        """
        metrics: dict[str, dict] = {}
        for name, mtype in sorted(self._types.items()):
            entry: dict = {"type": mtype, "series": {}}
            if mtype == COUNTER:
                for key, pairs in sorted(self._series("counters", name).items()):
                    entry["series"][_render_labels(key)] = sum(v for _, v in pairs)
            elif mtype == GAUGE:
                for key, pairs in sorted(self._series("gauges", name).items()):
                    entry["series"][_render_labels(key)] = max(v for _, v in pairs)
            else:
                for key, pairs in sorted(self._series("histograms", name).items()):
                    merged = Histogram(pairs[0][1].bounds)
                    for _rank, hist in pairs:
                        merged.merge(hist)
                    entry["series"][_render_labels(key)] = merged.as_dict()
            metrics[name] = entry
        return {"schema": METRICS_SCHEMA, "nranks": self.nranks, "metrics": metrics}

    def render_openmetrics(self) -> str:
        """OpenMetrics-style text exposition of the aggregated metrics.

        One ``# TYPE`` line per metric, then one sample per label set;
        histograms expose cumulative ``_bucket{le=...}`` samples plus
        ``_count``/``_sum``, following the Prometheus text format.  Rank
        aggregation matches :meth:`snapshot`.
        """
        lines: list[str] = []
        for name, mtype in sorted(self._types.items()):
            lines.append(f"# TYPE {name} {mtype}")
            if mtype == COUNTER:
                for key, pairs in sorted(self._series("counters", name).items()):
                    total = sum(v for _, v in pairs)
                    lines.append(f"{name}{_openmetrics_labels(key)} {total:g}")
            elif mtype == GAUGE:
                for key, pairs in sorted(self._series("gauges", name).items()):
                    value = max(v for _, v in pairs)
                    lines.append(f"{name}{_openmetrics_labels(key)} {value:g}")
            else:
                for key, pairs in sorted(self._series("histograms", name).items()):
                    merged = Histogram(pairs[0][1].bounds)
                    for _rank, hist in pairs:
                        merged.merge(hist)
                    cumulative = 0
                    for bound, count in zip(merged.bounds, merged.bucket_counts):
                        cumulative += count
                        labels = _openmetrics_labels(key + (("le", f"{bound:g}"),))
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _openmetrics_labels(key + (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{labels} {merged.count}")
                    suffix = _openmetrics_labels(key)
                    lines.append(f"{name}_count{suffix} {merged.count}")
                    lines.append(f"{name}_sum{suffix} {merged.sum:g}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _render_labels(key: tuple) -> str:
    """Snapshot series key: ``"kind=alltoallv,level=3"`` ("" when bare)."""
    return ",".join(f"{k}={v}" for k, v in key)


def _openmetrics_labels(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"
