"""Span-based tracing of the closed control loop.

A :class:`Trace` is one unit of work crossing the system — for 6G-XSec, one
MobiFlow telemetry window's journey from capture to control action. It holds
ordered :class:`Span`\\ s (named stages with sim-time start/end and optional
wall-clock cost) so per-stage latency and the critical path are first-class
artifacts rather than scattered timestamps.

Spans are reconstructed from timestamps recorded along the way
(``trace.span("verdict", start, end)``), because a window's stages execute
in different entities.

The :class:`Tracer` aggregates traces into a per-stage breakdown (count /
mean / p50 / max per stage name, in first-seen stage order) and a
critical-path report naming, per trace and in aggregate, the stage that
dominates end-to-end latency.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import Histogram


@dataclass
class Span:
    """One named stage of a trace, in simulated seconds."""

    name: str
    start: float
    end: Optional[float] = None
    wall_cost_s: Optional[float] = None  # optional CPU cost of the stage
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def finish(self, end: float, **attrs) -> "Span":
        self.end = end
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        out = {"name": self.name, "start_s": self.start, "end_s": self.end}
        if self.duration_s is not None:
            out["duration_s"] = self.duration_s
        if self.wall_cost_s is not None:
            out["wall_cost_s"] = self.wall_cost_s
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


@dataclass
class Trace:
    """One traced journey through the loop."""

    trace_id: int
    name: str
    attrs: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def span(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        wall_cost_s: Optional[float] = None,
        **attrs,
    ) -> Span:
        """Record a (possibly already completed) stage."""
        created = Span(name=name, start=start, end=end, wall_cost_s=wall_cost_s, attrs=attrs)
        self.spans.append(created)
        return created

    @property
    def start_s(self) -> Optional[float]:
        starts = [s.start for s in self.spans]
        return min(starts) if starts else None

    @property
    def end_s(self) -> Optional[float]:
        ends = [s.end for s in self.spans if s.end is not None]
        return max(ends) if ends else None

    @property
    def duration_s(self) -> Optional[float]:
        if self.start_s is None or self.end_s is None:
            return None
        return self.end_s - self.start_s

    def critical_span(self) -> Optional[Span]:
        """The finished span with the largest sim-time duration."""
        finished = [s for s in self.spans if s.duration_s is not None]
        if not finished:
            return None
        return max(finished, key=lambda s: s.duration_s)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "duration_s": self.duration_s,
            "spans": [s.to_dict() for s in sorted(self.spans, key=lambda s: s.start)],
        }


class Tracer:
    """Collects traces and reports per-stage latency over all of them."""

    def __init__(self) -> None:
        self.traces: list[Trace] = []
        self._ids = itertools.count(1)

    def trace(self, name: str, **attrs) -> Trace:
        created = Trace(trace_id=next(self._ids), name=name, attrs=attrs)
        self.traces.append(created)
        return created

    def reset(self) -> None:
        self.traces.clear()

    # -- aggregation ----------------------------------------------------------

    def stage_breakdown(self, stage_order: Optional[list] = None) -> dict:
        """Per-stage duration stats across every trace.

        Returns ``{stage: {n, mean, p50, p90, p99, max, ...}}`` ordered by
        ``stage_order`` when given, else by first appearance.
        """
        stages: dict[str, Histogram] = {}
        order: list[str] = list(stage_order or [])
        for trace in self.traces:
            for span in trace.spans:
                if span.duration_s is None:
                    continue
                if span.name not in stages:
                    stages[span.name] = Histogram()
                    if span.name not in order:
                        order.append(span.name)
                stages[span.name].observe(span.duration_s)
        return {name: stages[name].stats() for name in order if name in stages}

    def critical_path_report(self) -> dict:
        """Which stage dominates each trace's end-to-end latency."""
        dominant: dict[str, int] = {}
        durations = Histogram()
        for trace in self.traces:
            worst = trace.critical_span()
            if worst is None:
                continue
            dominant[worst.name] = dominant.get(worst.name, 0) + 1
            if trace.duration_s is not None:
                durations.observe(trace.duration_s)
        return {
            "traces": len(self.traces),
            "end_to_end_s": durations.stats(),
            "dominant_stage_counts": dict(
                sorted(dominant.items(), key=lambda kv: -kv[1])
            ),
        }

    def render_breakdown(self, stage_order: Optional[list] = None, title: str = "") -> str:
        """Human-readable per-stage latency table plus the critical path."""
        breakdown = self.stage_breakdown(stage_order)
        lines = [title or f"per-stage latency over {len(self.traces)} traces (sim seconds)"]
        header = f"  {'stage':<12} {'n':>6} {'mean':>10} {'p50':>10} {'p99':>10} {'max':>10}"
        lines.append(header)
        for stage, stats in breakdown.items():
            if not stats.get("n"):
                continue
            lines.append(
                f"  {stage:<12} {stats['n']:>6} {stats['mean']:>10.4f} "
                f"{stats['p50']:>10.4f} {stats['p99']:>10.4f} {stats['max']:>10.4f}"
            )
        report = self.critical_path_report()
        if report["dominant_stage_counts"]:
            dominant = ", ".join(
                f"{stage} ({count})" for stage, count in report["dominant_stage_counts"].items()
            )
            lines.append(f"  critical path dominated by: {dominant}")
        e2e = report["end_to_end_s"]
        if e2e.get("n"):
            lines.append(
                f"  end-to-end: mean={e2e['mean']:.4f}s p50={e2e['p50']:.4f}s max={e2e['max']:.4f}s"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"traces": [t.to_dict() for t in self.traces]}

