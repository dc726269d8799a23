"""Exporter plane: OpenMetrics text exposition, JSONL snapshots, health.

Three consumers of the shared :class:`~repro.obs.metrics.MetricsRegistry`:

- :func:`render_openmetrics` — Prometheus/OpenMetrics text exposition of
  every family (counters as ``_total``, histograms as cumulative
  ``_bucket{le=...}`` + ``_sum``/``_count``), terminated by ``# EOF`` so a
  real scraper accepts the output verbatim;
- :class:`ContinuousExporter` — appends one JSON snapshot line to a file
  every :data:`EXPORT_INTERVAL_S` sim seconds (the obs context schedules
  its ticks against each run's horizon);
- :class:`HealthScoreboard` — per-component up/degraded/down from the
  ``health.heartbeat_ts`` gauges components set on the registry (older
  than :data:`HEARTBEAT_STALE_S` means down).
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

# Sim seconds between two JSONL snapshots.
EXPORT_INTERVAL_S = 5.0
# A heartbeat this old marks its component down (half of it, degraded).
HEARTBEAT_STALE_S = 5.0

HEALTH_UP = "up"
HEALTH_DEGRADED = "degraded"
HEALTH_DOWN = "down"
_HEALTH_SCORE = {HEALTH_UP: 2.0, HEALTH_DEGRADED: 1.0, HEALTH_DOWN: 0.0}


def _sanitize(name: str) -> str:
    """Metric names use dots internally; exposition wants ``[a-zA-Z0-9_:]``."""
    clean = _NAME_RE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


def _label_text(labels: dict, extra: Optional[str] = None) -> str:
    parts = [f'{_sanitize(k)}="{v}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_openmetrics(metrics: MetricsRegistry) -> str:
    """OpenMetrics text exposition of every family in the registry."""
    lines: list[str] = []
    for name, kind, help_text, series_list in metrics.families():
        exposed = _sanitize(name)
        if kind == "counter":
            exposed_total = exposed + "_total"
            if help_text:
                lines.append(f"# HELP {exposed_total} {help_text}")
            lines.append(f"# TYPE {exposed_total} counter")
            for labels, counter in series_list:
                lines.append(f"{exposed_total}{_label_text(labels)} {counter.value:g}")
        elif kind == "gauge":
            if help_text:
                lines.append(f"# HELP {exposed} {help_text}")
            lines.append(f"# TYPE {exposed} gauge")
            for labels, gauge in series_list:
                lines.append(f"{exposed}{_label_text(labels)} {gauge.value:g}")
        else:  # histogram
            if help_text:
                lines.append(f"# HELP {exposed} {help_text}")
            lines.append(f"# TYPE {exposed} histogram")
            for labels, hist in series_list:
                cumulative = 0
                for i, bound in enumerate(hist.buckets):
                    cumulative += hist.bucket_counts[i]
                    le = 'le="%g"' % bound
                    lines.append(
                        f"{exposed}_bucket{_label_text(labels, le)} {cumulative}"
                    )
                inf_le = 'le="+Inf"'
                lines.append(
                    f"{exposed}_bucket{_label_text(labels, inf_le)} {hist.count}"
                )
                lines.append(f"{exposed}_sum{_label_text(labels)} {hist.total:g}")
                lines.append(f"{exposed}_count{_label_text(labels)} {hist.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class ContinuousExporter:
    """JSONL metric snapshots on a sim-clock cadence, bounded per run."""

    def __init__(self, metrics: MetricsRegistry, path: Optional[str] = None) -> None:
        self.metrics = metrics
        self.path = path
        self.snapshots = 0
        # In-memory ring of recent snapshot lines (the CLI/bench artifact
        # when no path is configured).
        self.lines: list[str] = []
        self.max_lines = 256

    def snapshot_once(self) -> str:
        """Take one snapshot line now; append to the file if configured."""
        line = json.dumps(self.metrics.snapshot(), sort_keys=True)
        self.snapshots += 1
        self.lines.append(line)
        if len(self.lines) > self.max_lines:
            del self.lines[: len(self.lines) - self.max_lines]
        if self.path:
            try:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            except OSError:
                pass  # export is best-effort; the in-memory ring holds it
        return line


class HealthScoreboard:
    """Up/degraded/down per component from its heartbeat gauge."""

    def __init__(
        self, metrics: MetricsRegistry, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.metrics = metrics
        self.clock = clock or metrics.clock

    def statuses(self) -> Dict[str, str]:
        now = self.clock()
        out: Dict[str, str] = {}
        # Components stamp their heartbeat on the shared registry; they
        # never need a scoreboard reference.
        for labels, gauge in self.metrics.family_series("health.heartbeat_ts"):
            component = labels.get("component", "")
            if not component:
                continue
            age = now - gauge.value
            if age >= HEARTBEAT_STALE_S:
                status = HEALTH_DOWN
            elif age >= HEARTBEAT_STALE_S / 2:
                status = HEALTH_DEGRADED
            else:
                status = HEALTH_UP
            out[component] = status
        for component, status in out.items():
            self.metrics.gauge(
                "health.status",
                labels={"component": component},
                help="2=up 1=degraded 0=down",
            ).set(_HEALTH_SCORE[status])
        return out

    def render(self) -> str:
        statuses = self.statuses()
        if not statuses:
            return "health scoreboard: no components registered"
        width = max(len(c) for c in statuses)
        return "\n".join(
            f"{component:<{width}}  {status}"
            for component, status in sorted(statuses.items())
        )
