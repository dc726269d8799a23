"""Metrics registry: counters, gauges, and histograms with labeled series.

Dependency-free (stdlib only) so every layer of the stack can import it
without cycles. A :class:`MetricsRegistry` owns metric *families* (one name,
one type, one help string); each family holds labeled *series* (one
instrument per unique label set). Snapshots carry both the simulated-time
clock (injected by the owner, normally the :class:`~repro.sim.engine.Simulator`)
and a wall-clock ``perf_counter`` timestamp so exported artifacts can be
correlated against either timeline.

Design constraints, in order: (1) the hot path — ``Counter.inc`` and
``Histogram.observe`` — must be cheap enough to run per simulated event and
per telemetry record (the near-RT loop budget is 10ms-1s and the bench
overhead budget is 10% wall-clock); (2) snapshots must be plain-JSON
serializable for the JSONL export and the benchmark artifacts.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from typing import Any, Callable, Iterable, Optional

LabelKey = tuple  # sorted ((key, value), ...) pairs

# Latency-shaped default buckets: 100us .. 10s, roughly log-spaced.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

# Reservoir cap per histogram series; beyond it old observations are
# overwritten ring-style (deterministic, no RNG — runs stay reproducible).
RESERVOIR_CAP = 4096

# Histogram.observe_many vectorises from this many values up.
BULK_OBSERVE_MIN = 32


def _label_key(labels: Optional[dict]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def export(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Point-in-time value; either set directly or computed at snapshot."""

    __slots__ = ("_value", "fn")

    def __init__(self, fn: Optional[Callable[[], float]] = None) -> None:
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def export(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Distribution summary: bucket counts plus a bounded reservoir.

    The buckets give cheap cumulative counts (Prometheus-style ``le``
    semantics); the reservoir keeps up to :data:`RESERVOIR_CAP` raw
    observations (ring-overwritten once full) for percentile estimates.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "total", "min", "max", "_reservoir", "_ring")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +inf overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: list[float] = []
        self._ring = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        if len(self._reservoir) < RESERVOIR_CAP:
            self._reservoir.append(value)
        else:
            self._reservoir[self._ring] = value
            self._ring = (self._ring + 1) % RESERVOIR_CAP

    def observe_many(self, values) -> None:
        """Bulk-observe a one-dimensional numeric sequence.

        Leaves the histogram exactly as ``for v in values: observe(v)``
        would, ``total`` included (it is accumulated in sequence order).
        A few values are cheapest through that very loop — a vectorised
        round costs about five ``observe`` calls before it sees a value —
        so only :data:`BULK_OBSERVE_MIN` or more take the numpy path
        (imported lazily, keeping this module stdlib-only at import time).
        """
        if len(values) < BULK_OBSERVE_MIN:
            for value in values:
                self.observe(value)
            return
        import numpy as np

        arr = np.asarray(values, dtype=np.float64)
        self.count += int(arr.size)
        # accumulate is sequential by definition: the same adds, in the
        # same order, as observe() makes one at a time.
        self.total = float(np.add.accumulate(np.concatenate(([self.total], arr)))[-1])
        lo = float(arr.min())
        hi = float(arr.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi
        # Cumulative "le" bucket fill. observe() places v via
        # bisect_left(buckets, v), i.e. bucket i holds (buckets[i-1],
        # buckets[i]] — so the cumulative count at boundary b is
        # #{v <= b} = searchsorted(sorted, b, side="right").
        sorted_arr = np.sort(arr)
        edges = np.searchsorted(sorted_arr, np.asarray(self.buckets), side="right")
        per_bucket = np.diff(np.concatenate(([0], edges, [arr.size])))
        for i, n in enumerate(per_bucket):
            if n:
                self.bucket_counts[i] += int(n)
        for value in arr.tolist():
            if len(self._reservoir) < RESERVOIR_CAP:
                self._reservoir.append(value)
            else:
                self._reservoir[self._ring] = value
                self._ring = (self._ring + 1) % RESERVOIR_CAP

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def count_under(self, threshold: float) -> int:
        """Observations known to be ``<= threshold`` from the ``le`` buckets.

        Exact when ``threshold`` is a bucket boundary; otherwise the count
        is conservative (the partial bucket straddling the threshold is
        excluded). This is the "good events" side of a latency SLI.
        """
        idx = bisect_left(self.buckets, threshold)
        if idx < len(self.buckets) and self.buckets[idx] == threshold:
            idx += 1
        return sum(self.bucket_counts[:idx])

    def percentile(self, p: float) -> Optional[float]:
        """Approximate percentile (exact until the reservoir wraps)."""
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        rank = min(len(ordered) - 1, int(p / 100.0 * len(ordered)))
        return ordered[rank]

    def stats(self) -> dict:
        if not self.count:
            return {"n": 0}
        return {
            "n": self.count,
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max,
            "sum": self.total,
        }

    def export(self) -> dict:
        out = self.stats()
        out["buckets"] = {
            ("+inf" if i == len(self.buckets) else repr(self.buckets[i])): c
            for i, c in enumerate(self.bucket_counts)
            if c
        }
        return out


class _Family:
    __slots__ = ("name", "kind", "help", "series", "buckets")

    def __init__(self, name: str, kind: str, help: str = "", buckets=DEFAULT_BUCKETS) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.series: dict[LabelKey, Any] = {}


class MetricsRegistry:
    """Named metric families with labeled series and JSON/text export."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        # ``clock`` supplies simulated time; defaults to a frozen zero clock
        # for registries used outside a simulation.
        self.clock = clock or (lambda: 0.0)
        self._families: dict[str, _Family] = {}

    # -- instrument accessors (get-or-create) --------------------------------

    def _family(self, name: str, kind: str, help: str, buckets=DEFAULT_BUCKETS) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise TypeError(f"metric {name!r} is a {family.kind}, not a {kind}")
        return family

    def counter(self, name: str, labels: Optional[dict] = None, help: str = "") -> Counter:
        family = self._family(name, "counter", help)
        key = _label_key(labels)
        series = family.series.get(key)
        if series is None:
            series = family.series[key] = Counter()
        return series

    def gauge(
        self,
        name: str,
        labels: Optional[dict] = None,
        fn: Optional[Callable[[], float]] = None,
        help: str = "",
    ) -> Gauge:
        family = self._family(name, "gauge", help)
        key = _label_key(labels)
        series = family.series.get(key)
        if series is None:
            series = family.series[key] = Gauge(fn=fn)
        elif fn is not None:
            series.fn = fn
        return series

    def histogram(
        self,
        name: str,
        labels: Optional[dict] = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        family = self._family(name, "histogram", help, buckets)
        key = _label_key(labels)
        series = family.series.get(key)
        if series is None:
            series = family.series[key] = Histogram(buckets=family.buckets)
        return series

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Drop every family and series (fresh run)."""
        self._families.clear()

    def names(self) -> list[str]:
        return sorted(self._families)

    def family_kind(self, name: str) -> Optional[str]:
        """The family's instrument kind, or ``None`` if it doesn't exist."""
        family = self._families.get(name)
        return family.kind if family is not None else None

    def family_series(self, name: str) -> list:
        """``(labels dict, instrument)`` pairs of a family (empty if absent).

        Read-only introspection for consumers that aggregate across the
        labeled series of one family (the SLO engine, the OpenMetrics
        exporter) without creating series as the accessors would.
        """
        family = self._families.get(name)
        if family is None:
            return []
        return [(dict(key), series) for key, series in sorted(family.series.items())]

    def families(self) -> list:
        """``(name, kind, help, [(labels, instrument), ...])`` per family."""
        return [
            (
                name,
                family.kind,
                family.help,
                [(dict(key), series) for key, series in sorted(family.series.items())],
            )
            for name, family in sorted(self._families.items())
        ]

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict dump of every series, stamped with both clocks."""
        families = {}
        for name in sorted(self._families):
            family = self._families[name]
            families[name] = {
                "type": family.kind,
                "help": family.help,
                "series": [
                    {"labels": dict(key), **series.export()}
                    for key, series in sorted(family.series.items())
                ],
            }
        return {
            "sim_time_s": self.clock(),
            "wall_time_s": time.perf_counter(),
            "metrics": families,
        }

    def to_jsonl(self) -> str:
        """One JSON object per series — the machine-readable export."""
        snap = self.snapshot()
        lines = []
        for name, family in snap["metrics"].items():
            for series in family["series"]:
                lines.append(
                    json.dumps(
                        {
                            "name": name,
                            "type": family["type"],
                            "sim_time_s": snap["sim_time_s"],
                            "wall_time_s": snap["wall_time_s"],
                            **series,
                        },
                        sort_keys=True,
                    )
                )
        return "\n".join(lines)

    def render(self) -> str:
        """Human-readable dump, grouped by family."""
        lines = [f"metrics @ sim t={self.clock():.3f}s"]
        for name in sorted(self._families):
            family = self._families[name]
            for key, series in sorted(family.series.items()):
                label_text = (
                    "{" + ",".join(f"{k}={v}" for k, v in key) + "}" if key else ""
                )
                if family.kind == "histogram":
                    s = series.stats()
                    if s["n"]:
                        body = (
                            f"n={s['n']} mean={s['mean']:.6g} p50={s['p50']:.6g} "
                            f"p99={s['p99']:.6g} max={s['max']:.6g}"
                        )
                    else:
                        body = "n=0"
                else:
                    body = f"{series.value:g}"
                lines.append(f"  {name}{label_text:<1} [{family.kind}] {body}")
        return "\n".join(lines)


class WallTimer:
    """Context manager: observe a wall-clock ``perf_counter`` duration.

    Usage::

        with WallTimer(registry.histogram("mobiwatch.inference_wall_s")):
            detector.scores(window)
    """

    __slots__ = ("histogram", "_start", "elapsed")

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self.elapsed = 0.0

    def __enter__(self) -> "WallTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
        self.histogram.observe(self.elapsed)
