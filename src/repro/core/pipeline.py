"""Closed-loop pipeline: detect -> explain -> respond (Figure 3).

Keeps one :class:`IncidentRecord` per alarm, the one record of its journey
(telemetry capture -> MobiWatch detection -> LLM verdict -> control action)
that the stage breakdown, the latency report and ``slo explain`` all read;
implements the automated-response policy (§5, Automated Network Responses)
mapping confirmed attack classes, through the attack catalogue
(``repro.llm.knowledge``), to E2 control actions; a class outside it waits
in the human-supervision queue with the detector/LLM contradictions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional

from repro.core.config import XsecConfig
from repro.core.llm_analyzer import LlmAnalyzerXApp, VerdictEvent
from repro.core.mobiwatch import AnomalyEvent, MobiWatchXApp
from repro.obs import LOOP_STAGES
from repro.obs.metrics import Histogram
from repro.obs.provenance import render_chain
from repro.oran.e2sm_kpm import (
    ACTION_BLOCKLIST_TMSI,
    ACTION_RATE_LIMIT_ACCESS,
    ACTION_RELEASE_UE,
    AccessRatePolicy,
)


@dataclass
class IncidentRecord:
    """One anomaly's journey through the loop: its alarm, verdict and action."""

    anomaly: AnomalyEvent
    verdict: Optional[VerdictEvent] = None
    action: str = ""
    action_at: Optional[float] = None

    @property
    def detection_latency_s(self) -> Optional[float]:
        """Newest telemetry entry -> MobiWatch alarm."""
        return self.anomaly.detected_at - self.anomaly.newest_record_ts

    @property
    def explanation_latency_s(self) -> Optional[float]:
        """MobiWatch alarm -> parsed LLM verdict."""
        if self.verdict is None:
            return None
        return self.verdict.completed_at - self.anomaly.detected_at

    @property
    def response_latency_s(self) -> Optional[float]:
        """MobiWatch alarm -> control action issued."""
        if self.action_at is None:
            return None
        return self.action_at - self.anomaly.detected_at

    def _stage_spans(self) -> list:
        """``(stage, start, end)`` in sim seconds, in loop order:

        - ``capture``    — oldest -> newest telemetry entry of the window;
        - ``indication`` — newest capture -> xApp ingest (report batching +
          E2 transport + RMR hops);
        - ``detection``  — ingest -> MobiWatch alarm (windowing + inference +
          short-session maturity);
        - ``verdict``    — alarm -> parsed LLM verdict;
        - ``action``     — verdict -> E2 control action issued.
        """
        anomaly = self.anomaly
        spans = []
        if anomaly.first_record_ts is not None:
            spans.append(("capture", anomaly.first_record_ts, anomaly.newest_record_ts))
        start = anomaly.newest_record_ts
        if anomaly.arrival_ts is not None:
            spans.append(("indication", start, anomaly.arrival_ts))
            start = anomaly.arrival_ts
        spans.append(("detection", start, anomaly.detected_at))
        start = anomaly.detected_at
        if self.verdict is not None:
            spans.append(("verdict", start, self.verdict.completed_at))
            start = self.verdict.completed_at
        if self.action_at is not None:
            spans.append(("action", start, self.action_at))
        return spans

    def stage_timings_s(self) -> dict:
        """Per-stage sim-second durations, keyed by :data:`LOOP_STAGES`."""
        return {stage: max(0.0, end - start) for stage, start, end in self._stage_spans()}

    @property
    def end_to_end_s(self) -> float:
        """First stage's start -> last stage's end."""
        spans = self._stage_spans()
        return max(end for _, _, end in spans) - min(start for _, start, _ in spans)

    def provenance(self, evidence) -> dict:
        """The incident's evidence chain, as persisted to ``xsec.provenance``.

        ``evidence`` is the alarm-time :class:`~repro.obs.provenance.ProvenanceRecord`.
        """
        anomaly, verdict = self.anomaly, self.verdict
        return {
            "provenance_id": evidence.provenance_id,
            "trace_id": evidence.trace_id,
            "session_id": anomaly.session_id,
            "detected_at": anomaly.detected_at,
            "score": anomaly.score,
            "threshold": anomaly.threshold,
            "record_indices": list(anomaly.record_indices),
            "first_record_ts": anomaly.first_record_ts,
            "newest_record_ts": anomaly.newest_record_ts,
            "capture_digest": evidence.capture_digest,
            "model_snapshot_id": evidence.model_snapshot_id,
            "threshold_snapshot_id": evidence.threshold_snapshot_id,
            "stage_timings_s": self.stage_timings_s(),
            "verdict_model": verdict.verdict.model if verdict else "",
            "verdict_text": verdict.verdict.response.verdict if verdict else "",
            "verdict_top_attack": verdict.top_attack if verdict else "",
            "verdict_confirmed": verdict.confirmed if verdict else None,
            "verdict_completed_at": verdict.completed_at if verdict else None,
            "action": self.action,
            "action_at": self.action_at,
        }


class ClosedLoopPipeline:
    """Wires MobiWatch -> LLM analyzer -> automated responses."""

    def __init__(
        self,
        mobiwatch: MobiWatchXApp,
        analyzer: LlmAnalyzerXApp,
        config: Optional[XsecConfig] = None,
    ) -> None:
        self.config = config or XsecConfig()
        self.mobiwatch = mobiwatch
        self.analyzer = analyzer
        self.incidents: list[IncidentRecord] = []
        self._by_anomaly: dict[int, IncidentRecord] = {}
        self.actions_taken: list[tuple[str, dict]] = []
        analyzer.on_verdict(self._on_verdict)
        # Observe anomalies as MobiWatch emits them (shared list reference).
        self._seen_anomalies = 0
        # The alarm-time evidence store (slo_enabled only): each incident's
        # chain is persisted when it is raised, decided and acted on.
        self._provenance = mobiwatch.provenance
        if self._provenance is not None:
            mobiwatch.on_anomaly(lambda _event: self.poll_anomalies())

    def poll_anomalies(self) -> None:
        """Fold newly emitted MobiWatch anomalies into incident records."""
        while self._seen_anomalies < len(self.mobiwatch.anomalies):
            anomaly = self.mobiwatch.anomalies[self._seen_anomalies]
            self._seen_anomalies += 1
            self._persist(self._add_incident(anomaly))

    def _add_incident(self, anomaly: AnomalyEvent) -> IncidentRecord:
        incident = IncidentRecord(anomaly=anomaly)
        self.incidents.append(incident)
        self._by_anomaly[id(anomaly)] = incident
        return incident

    def _persist(self, incident: IncidentRecord) -> None:
        store = self._provenance
        if store is None:
            return
        evidence = store.get(incident.anomaly.provenance_id)
        if evidence is not None:
            store.persist(incident.provenance(evidence))

    # -- verdict handling -------------------------------------------------------

    def _on_verdict(self, event: VerdictEvent) -> None:
        self.poll_anomalies()
        incident = self._by_anomaly.get(id(event.anomaly))
        if incident is None:
            incident = self._add_incident(event.anomaly)
        incident.verdict = event
        self._persist(incident)
        if event.confirmed:
            self._respond(incident, event)

    def _respond(self, incident: IncidentRecord, event: VerdictEvent) -> None:
        """Take the first action of the class's catalogue entry that is
        switched on and whose target the anomaly carries (MobiWatch's method
        of the action's name sends it)."""
        if event.article is None:
            return  # an unknown class acts on nothing: it awaits human review
        config, anomaly = self.config, event.anomaly
        options = {  # action -> (switched on, parameters); a None target is absent
            ACTION_RATE_LIMIT_ACCESS: (config.auto_rate_limit, asdict(AccessRatePolicy())),
            ACTION_BLOCKLIST_TMSI: (config.auto_blocklist, {"tmsi": anomaly.s_tmsi}),
            ACTION_RELEASE_UE: (config.auto_release, {"rnti": anomaly.rnti}),
        }
        for action in event.article.response:
            enabled, params = options[action]
            if enabled and None not in params.values():
                getattr(self.mobiwatch, action)(**params)
                incident.action = action
                incident.action_at = self.mobiwatch.now
                self.actions_taken.append((action, params))
                self.mobiwatch.sim.obs.metrics.counter(
                    "pipeline.actions_total", labels={"action": action}
                ).inc()
                self._persist(incident)
                return

    # -- reporting ------------------------------------------------------------------

    def summary(self) -> dict:
        self.poll_anomalies()
        confirmed = [
            i for i in self.incidents if i.verdict is not None and i.verdict.confirmed
        ]
        return {
            "anomalies": len(self.incidents),
            "verdicts": sum(1 for i in self.incidents if i.verdict is not None),
            "confirmed": len(confirmed),
            "needs_human_review": len(self.analyzer.human_review_queue),
            "actions": len(self.actions_taken),
            "queries_suppressed": self.analyzer.queries_suppressed,
        }

    def latency_report(self) -> dict:
        """Control-loop timing stats (the near-RT budget is 10ms-1s)."""
        self.poll_anomalies()
        detection = [
            latency
            for i in self.incidents
            if (latency := i.detection_latency_s) is not None
        ]
        explanation = [
            latency
            for i in self.incidents
            if (latency := i.explanation_latency_s) is not None
        ]
        response = [
            latency
            for i in self.incidents
            if (latency := i.response_latency_s) is not None
        ]

        def stats(values):
            if not values:
                return {"n": 0}
            ordered = sorted(values)
            return {
                "n": len(ordered),
                "mean": sum(ordered) / len(ordered),
                "p50": ordered[len(ordered) // 2],
                "max": ordered[-1],
            }

        return {
            "detection_s": stats(detection),
            "explanation_s": stats(explanation),
            "response_s": stats(response),
        }

    # -- the loop's stages, read from the incidents ---------------------------------

    def stage_breakdown(self) -> dict:
        """Per-stage latency stats over every incident, in loop order."""
        self.poll_anomalies()
        stages = {stage: Histogram() for stage in LOOP_STAGES}
        for incident in self.incidents:
            for stage, value in incident.stage_timings_s().items():
                stages[stage].observe(value)
        return {stage: h.stats() for stage, h in stages.items() if h.count}

    def render_stage_breakdown(self) -> str:
        breakdown = self.stage_breakdown()
        lines = [
            f"closed-loop stage latency over {len(self.incidents)} incidents "
            "(sim seconds; near-RT budget: capture->alarm within 1s)",
            f"  {'stage':<12} {'n':>6} {'mean':>10} {'p50':>10} {'p99':>10} {'max':>10}",
        ]
        for stage, stats in breakdown.items():
            lines.append(
                f"  {stage:<12} {stats['n']:>6} {stats['mean']:>10.4f} "
                f"{stats['p50']:>10.4f} {stats['p99']:>10.4f} {stats['max']:>10.4f}"
            )
        if self.incidents:
            # The critical path: each incident's longest stage (the first, on a tie).
            dominant: Counter = Counter()
            end_to_end = Histogram()
            for incident in self.incidents:
                timings = incident.stage_timings_s()
                dominant[max(timings, key=timings.get)] += 1
                end_to_end.observe(incident.end_to_end_s)
            counts = ", ".join(f"{stage} ({n})" for stage, n in dominant.most_common())
            e2e = end_to_end.stats()
            lines += [
                f"  critical path dominated by: {counts}",
                f"  end-to-end: mean={e2e['mean']:.4f}s p50={e2e['p50']:.4f}s "
                f"max={e2e['max']:.4f}s",
            ]
        return "\n".join(lines)

    def explain(self, provenance_id: Optional[int] = None) -> Optional[str]:
        """Render one incident's evidence chain (``slo explain``).

        The default is the newest incident with a verdict (a cooldown-
        suppressed alarm never receives one, so its chain legitimately ends
        "(pending)"), else the newest. None when the SLO plane is off or no
        incident has that id.
        """
        self.poll_anomalies()
        store = self._provenance
        if store is None:
            return None
        chained = [i for i in self.incidents if store.get(i.anomaly.provenance_id)]
        if provenance_id is None:
            chained = [i for i in chained if i.verdict is not None] or chained
        else:
            chained = [i for i in chained if i.anomaly.provenance_id == provenance_id]
        if not chained:
            return None
        incident = chained[-1]
        return render_chain(incident.provenance(store.get(incident.anomaly.provenance_id)))
