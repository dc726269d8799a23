"""MobiWatch: the unsupervised anomaly-detection xApp (paper §3.2).

Subscribes to the MobiFlow-extended KPM service model, stores incoming
telemetry in the SDL, featurizes the stream, and scores each session's
most recent window with the deployed detector. Sessions whose window score
exceeds the trained threshold produce :class:`AnomalyEvent`\\ s, routed over
RMR to the LLM analyzer xApp (the pre-filter/expensive-expert chain of
§3.3).

The deployed model arrives via the SMO train-then-deploy workflow
(Figure 3: "Train -> Deploy"); until a model is deployed the xApp only
accumulates telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import wire
from repro.core.config import XsecConfig
from repro.ml.arena import SessionWindowArena
from repro.ml.detector import AnomalyDetector
from repro.obs import profiler as _profiler
from repro.obs.metrics import WallTimer
from repro.obs.provenance import ProvenanceStore
from repro.oran.a1 import RESPONSE_POLICY_TYPE
from repro.oran.e2ap import ActionType, RicIndication
from repro.oran.e2sm_kpm import (
    ACTION_BLOCKLIST_TMSI,
    ACTION_RATE_LIMIT_ACCESS,
    ACTION_RELEASE_UE,
    MOBIFLOW_RAN_FUNCTION_ID,
    MobiFlowKpmModel,
    MobiFlowReportStyle,
)
from repro.oran.xapp import XApp
from repro.sim.engine import Event
from repro.telemetry.mobiflow import MobiFlowRecord, TelemetrySeries

# The RRC message that ends a session (the release signal eviction keys on).
RRC_RELEASE_MSG = "RRCRelease"

# RMR message type for anomaly events toward the analyzer xApp.
XSEC_ANOMALY_MTYPE = 60001

SDL_TELEMETRY_NS = "xsec.mobiflow"
SDL_ANOMALY_NS = "xsec.anomalies"


@dataclass(frozen=True)
class AnomalyEvent:
    """One flagged telemetry window."""

    detected_at: float
    session_id: int
    rnti: Optional[int]
    s_tmsi: Optional[int]
    score: float
    threshold: float
    # Indices into MobiWatch's record history covered by the window.
    record_indices: tuple
    # Timestamp of the newest telemetry entry in the window.
    newest_record_ts: float = 0.0
    # Capture time of the window's first entry, and the sim time the newest
    # one reached MobiWatch (the loop's capture and indication stages).
    first_record_ts: Optional[float] = None
    arrival_ts: Optional[float] = None
    # Evidence chain id (repro.obs provenance); None when slo is disabled.
    provenance_id: Optional[int] = None


class MobiWatchXApp(XApp):
    """Unsupervised anomaly detection over live security telemetry."""

    def __init__(self, ric, config: Optional[XsecConfig] = None, name: str = "mobiwatch") -> None:
        super().__init__(ric, name)
        self.config = config or XsecConfig()
        self.detector: Optional[AnomalyDetector] = None
        self.series = TelemetrySeries()
        self._encoder = self.config.spec.streaming_encoder()
        # Arrival (ingest) sim-time per record index — stamped on each alarm.
        self._arrival_ts: list[float] = []
        self._session_records: dict[int, list[int]] = {}
        self._alerted_counts: dict[int, int] = {}
        # At most one pending short-session maturity check per session
        # (scheduling one per touch double-scored quiet short sessions:
        # two timers at the same record count both pass the count guard).
        self._pending_maturity: dict[int, Event] = {}
        self.records_seen = 0
        self.windows_scored = 0
        self.sessions_evicted = 0
        # Observers notified after a session's state is evicted (the LLM
        # analyzer prunes its per-session cooldown ledger through this).
        self._evict_callbacks: list = []
        self.anomalies: list[AnomalyEvent] = []
        # Observers notified of each alarm as it is raised (the pipeline
        # persists its evidence chain through this).
        self._anomaly_callbacks: list = []
        metrics = self.sim.obs.metrics
        self._records_counter = metrics.counter(
            "mobiwatch.records_total", help="telemetry records ingested"
        )
        self._windows_counter = metrics.counter(
            "mobiwatch.windows_scored_total", help="inference passes"
        )
        self._anomaly_counter = metrics.counter(
            "mobiwatch.anomalies_total", help="alarms emitted"
        )
        self._rejected_counter = metrics.counter(
            "mobiwatch.indications_rejected_total",
            help="indications dropped because header or message failed to decode",
        )
        self._capture_to_ingest = metrics.histogram(
            "mobiwatch.capture_to_ingest_s",
            help="record capture -> xApp ingest (report batching + E2 + RMR)",
        )
        self._inference_wall = metrics.histogram(
            "mobiwatch.inference_wall_s",
            help="scoring wall-clock cost, one observation per tick on every provider",
        )
        self._score_hist = metrics.histogram(
            "mobiwatch.window_score",
            buckets=(1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
            help="detector anomaly scores",
        )
        self._detection_latency = metrics.histogram(
            "mobiwatch.detection_latency_s",
            help="newest telemetry entry of a flagged window -> alarm",
        )
        # Featurized rows per session: the last window of any session is
        # one contiguous view (the tick gather's sources).
        self._arena = SessionWindowArena(self.config.spec.dim, self.config.window)
        self._window = self.config.window
        # Where a batch of sessions' scores comes from, bound once by
        # deploy_detector (see there). Until a model is deployed rows only
        # accumulate.
        self._batch_scores = None
        # The tick batch: reusable [n_sessions, window * dim] gather matrix.
        self._gather_buf: Optional[np.ndarray] = None
        # Session eviction bounds per-session state (default off, see
        # docs/PERFORMANCE.md).
        self._last_touch: dict[int, float] = {}
        self._track_touch = self.config.evict_idle_s > 0
        self._evicted_counter = None
        if self.config.evict_on_release or self._track_touch:
            self._evicted_counter = metrics.counter(
                "mobiwatch.sessions_evicted_total",
                help="sessions whose per-session state was dropped",
            )
        # SLO plane: provenance minting + liveness heartbeat. Both gated on
        # slo_enabled so the disabled path creates no new metric series.
        self.provenance: Optional[ProvenanceStore] = None
        self._heartbeat_gauge = None
        if self.config.slo_enabled:
            self.provenance = ProvenanceStore(metrics=metrics, sdl=self.sdl)
            self._heartbeat_gauge = metrics.gauge(
                "health.heartbeat_ts",
                labels={"component": self.name},
                help="sim time of the component's last heartbeat",
            )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        super().start()
        trigger = MobiFlowKpmModel.encode_event_trigger(
            MobiFlowReportStyle(self.config.report_period_s).to_trigger()
        )
        self.subscribe(MOBIFLOW_RAN_FUNCTION_ID, trigger, ActionType.REPORT)
        if self._track_touch:
            self.schedule(
                self.config.evict_idle_s / 2, self._evict_sweep, name=f"{self.name}.evict"
            )

    def deploy_detector(self, detector: AnomalyDetector) -> None:
        """Install a trained model (called by the SMO deploy step).

        Binds the score provider, the inline row-exact call. Before the
        first deploy it is ``None`` and rows only accumulate.
        """
        if detector.threshold.threshold is None:
            raise ValueError("detector must be fitted before deployment")
        self.detector = detector
        detector.recompile()  # a deployment never inherits another's score memo
        detector.attach_metrics(self.sim.obs.metrics)
        self._batch_scores = self._gathered_scores
        self.log(
            "detector deployed",
            detector=detector.name,
            threshold=detector.threshold.threshold,
        )

    # -- policy (A1) -----------------------------------------------------------

    def on_policy(self, policy_type_id: int, policy: dict) -> None:
        """A response policy switches the automated responses on the shared
        config the closed-loop responder reads; a detection policy re-fits
        the operating threshold."""
        if policy_type_id == RESPONSE_POLICY_TYPE.policy_type_id:
            self.config.auto_release = policy["auto_release"]
            self.config.auto_blocklist = policy["auto_blocklist"]
            self.log("response policy applied", **policy)
            return
        percentile = policy.get("threshold_percentile")
        detector = self.detector
        if percentile is not None and detector is not None:
            if detector.training_scores is None:
                self.log("policy ignored: no training scores retained")
                return
            detector.threshold.percentile = float(percentile)
            detector.threshold.fit(detector.training_scores)
            self.log(f"threshold re-fit at percentile {percentile}")

    # -- telemetry ingestion -------------------------------------------------------

    def on_indication(self, indication: RicIndication) -> None:
        # Stage boundary for the slo profiler: ingest covers decode + SDL
        # writes + featurization; scoring shows up under its own blocks.
        with _profiler.profile_block("mobiwatch.ingest"):
            self._on_indication(indication)

    def _on_indication(self, indication: RicIndication) -> None:
        try:
            records = MobiFlowKpmModel.decode_indication(
                indication.indication_header, indication.indication_message
            )
        except (ValueError, TypeError) as exc:
            # E2smError and WireError are ValueErrors; the record codec
            # (which checks every field's type and range) raises either on
            # a well-formed TLV of the wrong shape. Bytes from the E2 edge
            # must not stop the run: count, drop, carry on.
            self._rejected_counter.inc()
            self.log(
                "indication rejected",
                sequence=indication.sequence_number,
                error=str(exc),
            )
            return
        # Sim time stands still inside a callback: one clock read, and the
        # counters and the delay histogram once per indication.
        now = self.now
        if self._heartbeat_gauge is not None:
            self._heartbeat_gauge.set(now)
        touched: dict[int, None] = {}  # insertion-ordered set
        # Session-release signals drive eviction.
        released: list[int] = []
        evict_release = self.config.evict_on_release
        track_touch = self._track_touch
        ingest_row = self._arena.append
        push = self._encoder.push
        series = self.series
        session_records = self._session_records
        # Telemetry is persisted after the ingest loop as one acked SDL
        # write per indication. A record is stored as the bytes it arrived
        # in — its span of the indication payload, which the decoder has
        # checked to be exactly its own encoding — unless that no longer
        # describes the record (clamped timestamp).
        pending_writes: list[tuple[str, object]] = []
        delays: list[float] = []
        payload = records.payload
        index = len(series)
        newest_ts = series[index - 1].timestamp if index else float("-inf")
        for record, span in zip(records, records.spans):
            if record.timestamp < newest_ts:
                # Batches from different report intervals can interleave
                # slightly; process in arrival order, clamping the clock.
                record = record._replace(timestamp=newest_ts)
                span = None
            else:
                newest_ts = record.timestamp
            series.append(record)
            row = push(record)
            value = record.to_wire_dict() if span is None else wire.Encoded(payload, *span)
            pending_writes.append((f"{index:09d}", value))
            delays.append(now - newest_ts)
            session_id = record.session_id
            if session_id:
                ingest_row(session_id, row)
                indices = session_records.get(session_id)
                if indices is None:
                    indices = session_records[session_id] = []
                indices.append(index)
                touched[session_id] = None
                if track_touch:
                    self._last_touch[session_id] = now
                if evict_release and record.msg == RRC_RELEASE_MSG:
                    released.append(session_id)
            index += 1
        self._arrival_ts += [now] * len(delays)
        self.records_seen += len(delays)
        self._records_counter.inc(len(delays))
        self._capture_to_ingest.observe_many(delays)
        if pending_writes:
            self.sdl.set_many(SDL_TELEMETRY_NS, pending_writes)
        if self._batch_scores is not None:
            self._tick(list(touched))
        if released:
            self._evict_released(released)

    # -- scoring ------------------------------------------------------------------------

    # A session shorter than the window is scored (left-padded) only after
    # it has gone quiet for this long: an in-flight registration is not an
    # "uncompleted connection" until it stalls. Keeps live semantics equal
    # to the offline windowing without alarming on every session prefix.
    SHORT_SESSION_MATURITY_S = 0.75

    def _schedule_maturity(self, session_id: int, count: int) -> None:
        """(Re)arm the session's single pending maturity check.

        Superseded checks are cancelled: scheduling one per touch left two
        timers at the same record count, both passing the count guard and
        double-scoring a quiet short session (inflated windows_scored,
        score histogram, and profiler samples).
        """
        pending = self._pending_maturity.get(session_id)
        if pending is not None:
            pending.cancel()
        self._pending_maturity[session_id] = self.schedule(
            self.SHORT_SESSION_MATURITY_S,
            lambda: self._mature_short_session(session_id, count),
            name=f"{self.name}.mature",
        )

    def _mature_short_session(self, session_id: int, count: int) -> None:
        self._pending_maturity.pop(session_id, None)
        indices = self._session_records.get(session_id, [])
        if len(indices) != count:
            return  # progressed since the check was armed
        self._score_one(session_id)

    # -- one tick walker; a provider is only where its scores come from ----------------

    def _tick(self, session_ids: list) -> None:
        """Score every touched session that holds a full window in one call.

        Side effects land in session order — a short session (re)arms its
        maturity check, a scored one is thresholded and may alert — exactly
        as if each session had been scored by its own call.
        """
        window = self._window
        threshold = self._threshold()
        session_records = self._session_records
        ready = [s for s in session_ids if len(session_records[s]) >= window]
        scored = iter(self._batch_scores(ready) if ready else ready)
        now = self.now
        for session_id in session_ids:
            indices = session_records[session_id]
            if len(indices) < window:
                self._schedule_maturity(session_id, len(indices))
                continue
            score = next(scored)
            if score > threshold:
                self._maybe_alert(
                    session_id, len(indices), indices[-window:], score, now, threshold
                )

    def _score_one(self, session_id: int) -> None:
        """A matured (or released) short session is the batch of one."""
        threshold = self._threshold()
        (score,) = self._batch_scores([session_id])
        if score > threshold:
            indices = self._session_records[session_id]
            self._maybe_alert(
                session_id, len(indices), indices[-self._window :], score, self.now, threshold
            )

    def _threshold(self) -> float:
        return self.detector.threshold.threshold or 0.0

    def _count_scores(self, scores: list) -> None:
        self.windows_scored += len(scores)
        self._windows_counter.inc(len(scores))
        self._score_hist.observe_many(scores)

    # -- the score provider: one row-exact call over the tick's gather -----------------

    def _gather(self, ready: list) -> np.ndarray:
        """The sessions' last windows, one flattened row each.

        Each arena window view (zero-padded on the left for a short
        session) is copied into one reusable ``[n_sessions, window * dim]``
        matrix.
        """
        n = len(ready)
        buf = self._gather_buf
        if buf is None or buf.shape[0] < n:
            capacity = max(n, 16 if buf is None else buf.shape[0] * 2)
            width = self._window * self.config.spec.dim
            buf = self._gather_buf = np.empty((capacity, width), dtype=self._arena.dtype)
        matrix = buf[:n]
        window_rows = self._arena.window_rows
        for row, session_id in enumerate(ready):
            matrix[row] = window_rows(session_id).reshape(-1)
        return matrix

    def _gathered_scores(self, ready: list) -> list:
        """Gather the sessions' last windows; score them in one kernel call.

        The gather matrix is handed to
        ``detector.scores(matrix, per_row=True)``: in float64 every row's
        score is bit-identical to its own ``[1, window * dim]`` call at any
        batch height (the row-exact kernel mode of :mod:`repro.ml.compiled`,
        enforced per attack scenario by tests/test_megabatch.py), so rows
        this deployment has scored before, byte for byte, come from the
        snapshot's score memo and only the rest reach the kernels — for the
        LSTM one ``CompiledLstm.row_scores`` call, the same kernel at height
        1 as at 64.
        """
        matrix = self._gather(ready)
        with _profiler.profile_block("mobiwatch.score"), WallTimer(self._inference_wall):
            scores = self.detector.scores(matrix, per_row=True).tolist()
        self._count_scores(scores)
        return scores

    # -- session eviction: bounded per-session state ---------------------------------

    def _evict_released(self, released) -> None:
        for session_id in dict.fromkeys(released):
            pending = self._pending_maturity.pop(session_id, None)
            if pending is not None:
                pending.cancel()
                # The release completes the session: score its final short
                # window now instead of waiting out the maturity timer.
                if self._session_records.get(session_id) and self._batch_scores is not None:
                    self._score_one(session_id)
            self._evict_session(session_id)

    def _evict_sweep(self) -> None:
        idle_s = self.config.evict_idle_s
        horizon = self.now - idle_s
        stale = [s for s, t in self._last_touch.items() if t <= horizon]
        for session_id in stale:
            self._evict_session(session_id)
        self.schedule(idle_s / 2, self._evict_sweep, name=f"{self.name}.evict")

    def _evict_session(self, session_id: int) -> bool:
        """Drop every piece of the session's per-xApp state.

        Without eviction, _session_records / the arena / _alerted_counts
        grow forever — a leak at fleet scale.
        A re-appearing session starts from an empty window history.
        """
        pending = self._pending_maturity.pop(session_id, None)
        if pending is not None:
            pending.cancel()
        indices = self._session_records.pop(session_id, None)
        if indices is None:
            return False
        self._alerted_counts.pop(session_id, None)
        self._last_touch.pop(session_id, None)
        self._arena.release(session_id)
        self.sessions_evicted += 1
        if self._evicted_counter is not None:
            self._evicted_counter.inc()
        for callback in self._evict_callbacks:
            callback(session_id)
        return True

    def on_session_evicted(self, callback) -> None:
        """Register an observer for session evictions (called with the
        session id after every successful :meth:`_evict_session`)."""
        self._evict_callbacks.append(callback)

    def on_anomaly(self, callback) -> None:
        """Register an observer called with each :class:`AnomalyEvent` as
        it is raised."""
        self._anomaly_callbacks.append(callback)

    def _maybe_alert(
        self,
        session_id: int,
        record_count: int,
        chosen: list,
        score: float,
        detected_at: float,
        threshold: float,
    ) -> None:
        # One alert per session per record-count (new evidence -> new alert).
        if self._alerted_counts.get(session_id) == record_count:
            return
        self._alerted_counts[session_id] = record_count
        newest = self.series[chosen[-1]]
        self._detection_latency.observe(max(0.0, detected_at - newest.timestamp))
        provenance_id = None
        if self.provenance is not None:
            provenance_id = self.provenance.mint(
                session_id=session_id,
                records=[self.series[i] for i in chosen],
                detector=self.detector,
            ).provenance_id
        event = AnomalyEvent(
            detected_at=detected_at,
            session_id=session_id,
            rnti=newest.rnti,
            s_tmsi=newest.s_tmsi,
            score=score,
            threshold=threshold,
            record_indices=tuple(chosen),
            newest_record_ts=newest.timestamp,
            first_record_ts=self.series[chosen[0]].timestamp,
            arrival_ts=self.arrival_time(chosen[-1]),
            provenance_id=provenance_id,
        )
        self.anomalies.append(event)
        for callback in self._anomaly_callbacks:
            callback(event)
        self._anomaly_counter.inc()
        self.log(
            "anomaly detected",
            session=session_id,
            score=round(score, 5),
            threshold=round(threshold, 5),
        )
        self.sdl.set(
            SDL_ANOMALY_NS,
            f"{len(self.anomalies):06d}",
            {
                "session": session_id,
                "score": score,
                "threshold": threshold,
                "detected_at": event.detected_at,
            },
        )
        self.ric.rmr.send(XSEC_ANOMALY_MTYPE, -1, event)

    # -- context access (for the analyzer) ---------------------------------------------

    def arrival_time(self, record_index: int) -> Optional[float]:
        """Sim time when the record reached this xApp."""
        if 0 <= record_index < len(self._arrival_ts):
            return self._arrival_ts[record_index]
        return None

    def context_for(self, event: AnomalyEvent, max_records: int = 40) -> list[MobiFlowRecord]:
        """The flagged window plus surrounding stream context."""
        end = event.record_indices[-1] + 1
        start = max(0, end - max_records)
        return self.series[start:end].records

    # -- response helpers (used by the pipeline's closed loop) ---------------------------

    def release_ue(self, rnti: int) -> None:
        header, message = MobiFlowKpmModel.encode_control(ACTION_RELEASE_UE, rnti=rnti)
        self.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, message)

    def blocklist_tmsi(self, tmsi: int) -> None:
        header, message = MobiFlowKpmModel.encode_control(
            ACTION_BLOCKLIST_TMSI, tmsi=tmsi
        )
        self.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, message)

    def rate_limit_access(self, max_setups: int, window_s: float) -> None:
        header, message = MobiFlowKpmModel.encode_control(
            ACTION_RATE_LIMIT_ACCESS, max_setups=max_setups, window_s=window_s
        )
        self.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, message)
