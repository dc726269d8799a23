"""SLO engine: declarative objectives, sliding windows, burn-rate alerts.

An :class:`SloObjective` declares a service-level indicator over metric
families that the stack already emits:

- ``latency`` — fraction of histogram observations at or under a
  threshold (e.g. ``mobiwatch.detection_latency_s <= 1.0``), read from the
  Prometheus-style cumulative ``le`` buckets
  (:meth:`~repro.obs.metrics.Histogram.count_under`);
- ``ratio`` — 1 minus a bad/total counter ratio (e.g. ingest drops over
  offered records), summed across every labeled series of each family.

The :class:`SloEngine` samples each objective's cumulative (good, total)
event counts on a fixed cadence and keeps a bounded ring of samples. From
the deltas it derives, per objective:

- **attainment** over the fast and slow sliding windows (good/total);
- **burn rate** per window: ``(1 - attainment) / (1 - target)`` — burn 1.0
  spends exactly the error budget, 14.4 over a 5s window is the classic
  fast-page signal (SRE multi-window multi-burn-rate alerting);
- an **alert state machine** — ``inactive -> pending`` on breach,
  ``pending -> firing`` once the breach persists ``pending_for_s``,
  ``firing -> inactive`` (resolved) once recovery persists
  ``resolve_after_s``. A recovery shorter than the resolve dwell keeps the
  alert firing and is counted as a suppressed flap.

Breach condition: the fast-window burn exceeding ``fast_burn_threshold``
*or* the slow-window burn exceeding ``slow_burn_threshold`` — the fast
window catches sudden budget exhaustion, the slow window a sustained slow
bleed that never trips the fast threshold.

Every transition is counted (``slo.alert_transitions_total``) and kept in
an event log for the ``slo alerts`` CLI; attainment and burn are exported
as gauges so the OpenMetrics plane carries the SLO state itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.obs.metrics import MetricsRegistry

from repro.slo.settings import SloSettings

_KINDS = ("latency", "ratio")

ALERT_INACTIVE = "inactive"
ALERT_PENDING = "pending"
ALERT_FIRING = "firing"


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective over existing metric families."""

    name: str
    kind: str  # "latency" | "ratio"
    target: float  # attainment target in (0, 1), e.g. 0.99
    # latency kind: histogram family + threshold (seconds).
    metric: str = ""
    threshold: float = 0.0
    # ratio kind: bad / total counter families.
    bad_metric: str = ""
    total_metric: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.kind == "latency" and not self.metric:
            raise ValueError(f"objective {self.name!r}: latency kind needs a metric")
        if self.kind == "ratio" and not (self.bad_metric and self.total_metric):
            raise ValueError(
                f"objective {self.name!r}: ratio kind needs bad_metric and total_metric"
            )

    @property
    def budget(self) -> float:
        """Error budget: the tolerated bad-event fraction (1 - target)."""
        return 1.0 - self.target

    def sli_text(self) -> str:
        if self.kind == "latency":
            return f"{self.metric} <= {self.threshold:g}s"
        return f"{self.bad_metric} / {self.total_metric}"


def default_objectives(config=None) -> List[SloObjective]:
    """The deployment's stock objectives over metrics the stack emits.

    ``config`` (an ``XsecConfig``) only tunes thresholds; the families are
    the ones MobiWatch, the batcher and the analyzer register.
    """
    return [
        SloObjective(
            name="detection-latency",
            kind="latency",
            target=0.99,
            metric="mobiwatch.detection_latency_s",
            threshold=1.0,
            description="newest flagged telemetry -> alarm within the 1s near-RT budget",
        ),
        SloObjective(
            name="ingest-drop-rate",
            kind="ratio",
            target=0.999,
            bad_metric="batcher.dropped_total",
            total_metric="batcher.offered_total",
            description="telemetry records dropped by the bounded ingest queue",
        ),
        SloObjective(
            name="inference-wall",
            kind="latency",
            target=0.99,
            metric="mobiwatch.inference_wall_s",
            threshold=0.01,
            description="detector scoring wall-clock within 10ms per window",
        ),
        SloObjective(
            name="verdict-latency",
            kind="latency",
            target=0.95,
            metric="llm.response_latency_s",
            threshold=10.0,
            description="LLM round trip within the non-RT expert budget",
        ),
    ]


class AlertState:
    """Per-objective alert state machine with dwell and flap suppression."""

    __slots__ = ("state", "breach_since", "clear_since", "flaps")

    def __init__(self) -> None:
        self.state = ALERT_INACTIVE
        self.breach_since: Optional[float] = None
        self.clear_since: Optional[float] = None
        self.flaps = 0

    def update(self, now: float, breach: bool, settings: SloSettings) -> Optional[str]:
        """Advance the machine; returns the new state on a transition."""
        if breach:
            if self.state == ALERT_INACTIVE:
                self.state = ALERT_PENDING
                self.breach_since = now
                self.clear_since = None
                return ALERT_PENDING
            if self.state == ALERT_PENDING:
                since = self.breach_since if self.breach_since is not None else now
                if now - since >= settings.pending_for_s:
                    self.state = ALERT_FIRING
                    return ALERT_FIRING
                return None
            # firing: a breach during a brief recovery suppresses the flap.
            if self.clear_since is not None:
                self.clear_since = None
                self.flaps += 1
            return None
        if self.state == ALERT_PENDING:
            # The breach never matured: back to inactive without an event.
            self.state = ALERT_INACTIVE
            self.breach_since = None
            return None
        if self.state == ALERT_FIRING:
            if self.clear_since is None:
                self.clear_since = now
                return None
            if now - self.clear_since >= settings.resolve_after_s:
                self.state = ALERT_INACTIVE
                self.breach_since = None
                self.clear_since = None
                return "resolved"
        return None


@dataclass
class AlertEvent:
    """One recorded transition, kept for the ``slo alerts`` CLI."""

    time_s: float
    objective: str
    to_state: str
    fast_burn: float
    slow_burn: float


class _Track:
    """One objective's sample ring and alert state."""

    __slots__ = ("objective", "samples", "alert")

    def __init__(self, objective: SloObjective, capacity: int) -> None:
        self.objective = objective
        # (t, cumulative good, cumulative total), oldest first.
        self.samples: deque = deque(maxlen=capacity)
        self.alert = AlertState()


class SloEngine:
    """Evaluates objectives over a registry on an explicit tick cadence."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        settings: Optional[SloSettings] = None,
        objectives: Optional[List[SloObjective]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.metrics = metrics
        self.settings = settings or SloSettings(enabled=True)
        self.clock = clock or metrics.clock
        capacity = (
            int(self.settings.slow_window_s / self.settings.eval_interval_s) + 2
        )
        self._tracks = {
            obj.name: _Track(obj, capacity)
            for obj in (objectives if objectives is not None else default_objectives())
        }
        self.events: List[AlertEvent] = []
        self._transition_counters: dict = {}
        self.ticks = 0

    @property
    def objectives(self) -> List[SloObjective]:
        return [track.objective for track in self._tracks.values()]

    def add_objective(self, objective: SloObjective) -> None:
        capacity = (
            int(self.settings.slow_window_s / self.settings.eval_interval_s) + 2
        )
        self._tracks[objective.name] = _Track(objective, capacity)

    # -- SLI sampling ------------------------------------------------------

    def _cumulative(self, objective: SloObjective) -> tuple:
        """Cumulative (good, total) event counts across labeled series."""
        if objective.kind == "latency":
            good = total = 0
            for _, hist in self.metrics.family_series(objective.metric):
                good += hist.count_under(objective.threshold)
                total += hist.count
            return good, total
        bad = sum(
            series.value for _, series in self.metrics.family_series(objective.bad_metric)
        )
        total = sum(
            series.value
            for _, series in self.metrics.family_series(objective.total_metric)
        )
        return total - bad, total

    def _window(self, track: _Track, now: float, window_s: float) -> tuple:
        """(attainment, burn) over the trailing ``window_s`` of samples."""
        samples = track.samples
        if not samples:
            return 1.0, 0.0
        newest = samples[-1]
        # The youngest sample at or before the window start (fall back to
        # the oldest we kept: early in a run the window is the whole run).
        base = samples[0]
        cutoff = now - window_s
        for sample in reversed(samples):
            if sample[0] <= cutoff:
                base = sample
                break
        good = newest[1] - base[1]
        total = newest[2] - base[2]
        if total <= 0:
            return 1.0, 0.0
        attainment = good / total
        burn = (1.0 - attainment) / track.objective.budget
        return attainment, burn

    # -- ticking -----------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> None:
        """Sample every objective and advance the alert machines."""
        now = self.clock() if now is None else now
        self.ticks += 1
        s = self.settings
        for track in self._tracks.values():
            good, total = self._cumulative(track.objective)
            track.samples.append((now, good, total))
            fast_att, fast_burn = self._window(track, now, s.fast_window_s)
            slow_att, slow_burn = self._window(track, now, s.slow_window_s)
            labels = {"objective": track.objective.name}
            self.metrics.gauge("slo.attainment", labels=labels).set(slow_att)
            self.metrics.gauge(
                "slo.burn_rate", labels={**labels, "window": "fast"}
            ).set(fast_burn)
            self.metrics.gauge(
                "slo.burn_rate", labels={**labels, "window": "slow"}
            ).set(slow_burn)
            breach = (
                fast_burn >= s.fast_burn_threshold
                or slow_burn >= s.slow_burn_threshold
            )
            transition = track.alert.update(now, breach, s)
            if transition is not None:
                self._record_transition(
                    now, track.objective.name, transition, fast_burn, slow_burn
                )

    def _record_transition(
        self, now: float, objective: str, to_state: str, fast: float, slow: float
    ) -> None:
        self.events.append(AlertEvent(now, objective, to_state, fast, slow))
        key = (objective, to_state)
        counter = self._transition_counters.get(key)
        if counter is None:
            counter = self._transition_counters[key] = self.metrics.counter(
                "slo.alert_transitions_total",
                labels={"objective": objective, "to": to_state},
                help="alert state machine transitions",
            )
        counter.inc()

    # -- reporting ---------------------------------------------------------

    def alert_state(self, objective: str) -> str:
        return self._tracks[objective].alert.state

    def report(self) -> List[dict]:
        """Per-objective attainment/burn/alert rows for the CLI."""
        now = self.clock()
        s = self.settings
        rows = []
        for track in self._tracks.values():
            good, total = (
                track.samples[-1][1:] if track.samples else self._cumulative(track.objective)
            )
            fast_att, fast_burn = self._window(track, now, s.fast_window_s)
            slow_att, slow_burn = self._window(track, now, s.slow_window_s)
            rows.append(
                {
                    "objective": track.objective.name,
                    "sli": track.objective.sli_text(),
                    "target": track.objective.target,
                    "good": good,
                    "total": total,
                    "attainment": (good / total) if total else 1.0,
                    "fast_burn": fast_burn,
                    "slow_burn": slow_burn,
                    "alert": track.alert.state,
                    "flaps_suppressed": track.alert.flaps,
                }
            )
        return rows

    def render(self) -> str:
        rows = self.report()
        lines = [
            f"{'objective':<20} {'sli':<42} {'target':>7} {'attained':>9} "
            f"{'burn(fast)':>10} {'burn(slow)':>10} {'alert':>8}"
        ]
        for r in rows:
            lines.append(
                f"{r['objective']:<20} {r['sli']:<42} {r['target']:>6.1%} "
                f"{r['attainment']:>8.2%} {r['fast_burn']:>10.2f} "
                f"{r['slow_burn']:>10.2f} {r['alert']:>8}"
            )
        return "\n".join(lines)

    def render_alerts(self) -> str:
        if not self.events:
            return "no alert transitions recorded"
        lines = []
        for e in self.events:
            lines.append(
                f"t={e.time_s:8.2f}s  {e.objective:<20} -> {e.to_state:<8} "
                f"(burn fast={e.fast_burn:.2f} slow={e.slow_burn:.2f})"
            )
        return "\n".join(lines)
