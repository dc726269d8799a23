"""Exporter plane: OpenMetrics text exposition, JSONL snapshots, health.

Three consumers of the shared :class:`~repro.obs.metrics.MetricsRegistry`:

- :func:`render_openmetrics` — Prometheus/OpenMetrics text exposition of
  every family (counters as ``_total``, histograms as cumulative
  ``_bucket{le=...}`` + ``_sum``/``_count``), terminated by ``# EOF`` so a
  real scraper accepts the output verbatim;
- :class:`ContinuousExporter` — appends one JSON snapshot line per
  sim-clock interval to a file. Ticks are *pre-scheduled* against a known
  run horizon (a self-rescheduling recurring event would keep the event
  queue non-empty forever and ``run(until=None)`` would never terminate);
- :class:`HealthScoreboard` — per-component up/degraded/down from
  registered liveness probes (SDL shards: up or down) and heartbeat gauges
  (components report ``health.heartbeat_ts``; stale means down). The board
  reads the same liveness the sharded SDL's failover acts on, so "down"
  here and "failed over" there always agree.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

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

    def __init__(
        self,
        metrics: MetricsRegistry,
        path: Optional[str] = None,
        interval_s: float = 5.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.metrics = metrics
        self.path = path
        self.interval_s = interval_s
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

    def schedule_ticks(self, sim, until: Optional[float]) -> int:
        """Pre-schedule snapshot events on the simulator up to ``until``.

        Bounded: with no horizon there is nothing to schedule against (the
        caller takes a final snapshot after the run instead). Returns the
        number of ticks scheduled.
        """
        if until is None:
            return 0
        count = 0
        t = sim.now + self.interval_s
        while t <= until:
            sim.schedule_at(t, self.snapshot_once, name="slo.export")
            t += self.interval_s
            count += 1
        return count


class HealthScoreboard:
    """Up/degraded/down per component from probes and heartbeat gauges."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        clock: Optional[Callable[[], float]] = None,
        stale_after_s: float = 5.0,
    ) -> None:
        self.metrics = metrics
        self.clock = clock or metrics.clock
        self.stale_after_s = stale_after_s
        # component -> probe() returning {"up": bool}.
        self._probes: Dict[str, Callable[[], dict]] = {}
        self._heartbeats: Dict[str, object] = {}

    # -- sources -----------------------------------------------------------

    def register_probe(self, component: str, probe: Callable[[], dict]) -> None:
        self._probes[component] = probe

    def watch_sharded_sdl(self, sdl) -> None:
        """One probe per shard, reading the liveness failover acts on."""
        for name in sdl.shard_names:
            shard_name = name

            def probe(n=shard_name):
                return {"up": sdl._shards[n].alive}

            self.register_probe(f"sdl.{shard_name}", probe)

    def heartbeat(self, component: str) -> None:
        """Record a liveness beat for a component (sim-clock stamped)."""
        gauge = self._heartbeats.get(component)
        if gauge is None:
            gauge = self._heartbeats[component] = self.metrics.gauge(
                "health.heartbeat_ts",
                labels={"component": component},
                help="sim time of the component's last heartbeat",
            )
        gauge.set(self.clock())

    # -- evaluation --------------------------------------------------------

    def statuses(self) -> Dict[str, str]:
        now = self.clock()
        out: Dict[str, str] = {}
        for component, probe in self._probes.items():
            out[component] = HEALTH_UP if probe().get("up", True) else HEALTH_DOWN
        # Heartbeats set directly on the shared registry (components never
        # need a scoreboard reference) join the explicitly registered ones.
        heartbeats = dict(self._heartbeats)
        for labels, gauge in self.metrics.family_series("health.heartbeat_ts"):
            component = labels.get("component", "")
            if component and component not in heartbeats:
                heartbeats[component] = gauge
        for component, gauge in heartbeats.items():
            age = now - gauge.value
            if age >= self.stale_after_s:
                status = HEALTH_DOWN
            elif age >= self.stale_after_s / 2:
                status = HEALTH_DEGRADED
            else:
                status = HEALTH_UP
            # A probe for the same component wins only if it is worse.
            existing = out.get(component)
            if existing is None or _HEALTH_SCORE[status] < _HEALTH_SCORE[existing]:
                out[component] = status
        for component, status in out.items():
            self.metrics.gauge(
                "health.status",
                labels={"component": component},
                help="2=up 1=degraded 0=down",
            ).set(_HEALTH_SCORE[status])
        return out

    def down_components(self) -> list:
        return sorted(c for c, s in self.statuses().items() if s == HEALTH_DOWN)

    def render(self) -> str:
        statuses = self.statuses()
        if not statuses:
            return "health scoreboard: no components registered"
        width = max(len(c) for c in statuses)
        return "\n".join(
            f"{component:<{width}}  {status}"
            for component, status in sorted(statuses.items())
        )
