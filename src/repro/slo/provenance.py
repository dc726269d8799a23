"""Verdict provenance: why did this alarm / verdict / action happen?

Every :class:`~repro.core.mobiwatch.AnomalyEvent` minted while
``XsecConfig.slo.enabled`` carries a ``provenance_id`` resolving, through
the :class:`ProvenanceStore`, to the full evidence chain:

- **capture digest** — SHA-256 of the fast TLV encoding of exactly the
  telemetry records in the flagged window (the same content addressing as
  :func:`repro.experiments.cache.series_digest`): the bytes that produced the
  alarm, re-hashable by anyone holding the capture;
- **window span** — record indices plus first/newest capture timestamps;
- **model / threshold snapshot ids** — SHA-256 over the deployed
  detector's parameter arrays and over its fitted operating point, so a
  verdict is attributable to one exact set of weights even across
  re-deployments;
- **trace id + per-stage timings** — filled progressively as the incident
  moves through the loop (detection at alarm time, verdict/explanation
  when the LLM responds, action when the responder fires).

Records persist into the ``xsec.provenance`` SDL namespace as they grow,
and ``python -m repro slo explain <verdict>`` renders the chain. A write the
SDL refuses is counted under ``slo.provenance_persist_failures_total``; the
record stays readable from memory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

SDL_PROVENANCE_NS = "xsec.provenance"


def _hash_arrays(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode("utf-8"))
    return h.hexdigest()[:16]


def model_snapshot_id(detector) -> str:
    """Short SHA-256 over the detector's parameter arrays + identity."""
    parts: list = [detector.name.encode("utf-8")]
    model = detector.model
    if hasattr(model, "Wx"):  # LstmPredictor
        params = (model.Wx, model.Wh, model.b, model.head.W, model.head.b)
        parts.extend(p.value.tobytes() for p in params)
    elif hasattr(model, "model"):  # Autoencoder wraps a layer stack
        for layer in model.model.layers:
            for attr in ("W", "b"):
                param = getattr(layer, attr, None)
                if param is not None:
                    parts.append(param.value.tobytes())
    return _hash_arrays(parts)


def threshold_snapshot_id(detector) -> str:
    """Short hash of the fitted operating point (percentile + threshold)."""
    t = detector.threshold
    return _hash_arrays([(t.percentile, t.threshold)])


def capture_digest(records) -> str:
    """SHA-256 of the records' fast TLV encoding (content addressing)."""
    from repro.telemetry import encoder as telemetry_encoder

    payload = telemetry_encoder.encode_batch(list(records))
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class ProvenanceRecord:
    """The evidence chain of one incident, filled progressively."""

    provenance_id: int
    trace_id: str
    session_id: int
    detected_at: float
    score: float
    threshold: float
    record_indices: tuple
    first_record_ts: float
    newest_record_ts: float
    capture_digest: str
    model_snapshot_id: str
    threshold_snapshot_id: str
    # Per-stage sim-second timings, keyed by the canonical loop stages.
    stage_timings_s: Dict[str, float] = field(default_factory=dict)
    # Verdict chain (attached when the LLM responds).
    verdict_model: str = ""
    verdict_text: str = ""
    verdict_top_attack: str = ""
    verdict_confirmed: Optional[bool] = None
    verdict_completed_at: Optional[float] = None
    # Response chain (attached when the closed loop acts).
    action: str = ""
    action_at: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "provenance_id": self.provenance_id,
            "trace_id": self.trace_id,
            "session_id": self.session_id,
            "detected_at": self.detected_at,
            "score": self.score,
            "threshold": self.threshold,
            "record_indices": list(self.record_indices),
            "first_record_ts": self.first_record_ts,
            "newest_record_ts": self.newest_record_ts,
            "capture_digest": self.capture_digest,
            "model_snapshot_id": self.model_snapshot_id,
            "threshold_snapshot_id": self.threshold_snapshot_id,
            "stage_timings_s": dict(self.stage_timings_s),
            "verdict_model": self.verdict_model,
            "verdict_text": self.verdict_text,
            "verdict_top_attack": self.verdict_top_attack,
            "verdict_confirmed": self.verdict_confirmed,
            "verdict_completed_at": self.verdict_completed_at,
            "action": self.action,
            "action_at": self.action_at,
        }

    def render(self) -> str:
        lines = [
            f"provenance #{self.provenance_id}  trace {self.trace_id}",
            f"  session      {self.session_id}",
            f"  detected_at  t={self.detected_at:.4f}s  score {self.score:.5f} "
            f"(threshold {self.threshold:.5f})",
            f"  window       records {self.record_indices[0]}..{self.record_indices[-1]} "
            f"({len(self.record_indices)} entries), capture span "
            f"[{self.first_record_ts:.4f}s, {self.newest_record_ts:.4f}s]",
            f"  capture      digest {self.capture_digest}",
            f"  model        snapshot {self.model_snapshot_id}  "
            f"threshold snapshot {self.threshold_snapshot_id}",
        ]
        if self.stage_timings_s:
            timing = "  ".join(
                f"{stage}={value * 1e3:.1f}ms"
                for stage, value in self.stage_timings_s.items()
            )
            lines.append(f"  stages       {timing}")
        if self.verdict_completed_at is not None:
            confirmed = "confirmed" if self.verdict_confirmed else "not confirmed"
            lines.append(
                f"  verdict      {self.verdict_text or '-'} ({confirmed}) by "
                f"{self.verdict_model} at t={self.verdict_completed_at:.4f}s"
            )
            if self.verdict_top_attack:
                lines.append(f"  attribution  {self.verdict_top_attack}")
        else:
            lines.append("  verdict      (pending)")
        if self.action_at is not None:
            lines.append(f"  action       {self.action} at t={self.action_at:.4f}s")
        return "\n".join(lines)


class ProvenanceStore:
    """Mints and updates provenance records; persists them to the SDL."""

    def __init__(self, metrics=None, sdl=None) -> None:
        self.sdl = sdl
        self._records: Dict[int, ProvenanceRecord] = {}
        self._next_id = 1
        self._minted_counter = self._persist_failures = None
        if metrics is not None:
            self._minted_counter = metrics.counter(
                "slo.provenance_records_total", help="evidence chains minted"
            )
            self._persist_failures = metrics.counter(
                "slo.provenance_persist_failures_total",
                help="provenance writes the SDL refused (the record stays in memory)",
            )
        # Model identity is stable between deployments: memoize per object.
        self._model_ids: Dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self._records)

    def get(self, provenance_id: Optional[int]) -> Optional[ProvenanceRecord]:
        if provenance_id is None:
            return None
        return self._records.get(provenance_id)

    def _snapshot_ids(self, detector) -> tuple:
        key = id(detector)
        cached = self._model_ids.get(key)
        if cached is None:
            cached = self._model_ids[key] = (
                model_snapshot_id(detector),
                threshold_snapshot_id(detector),
            )
        return cached

    def mint(
        self,
        *,
        session_id: int,
        detected_at: float,
        score: float,
        threshold: float,
        record_indices: tuple,
        records,
        detector,
        arrival_ts: Optional[float] = None,
    ) -> ProvenanceRecord:
        """Create the record at alarm time, with the detection chain filled."""
        provenance_id = self._next_id
        self._next_id += 1
        model_id, threshold_id = self._snapshot_ids(detector)
        records = list(records)
        first_ts = records[0].timestamp if records else 0.0
        newest_ts = records[-1].timestamp if records else 0.0
        record = ProvenanceRecord(
            provenance_id=provenance_id,
            trace_id=f"{session_id:x}-{provenance_id:06d}",
            session_id=session_id,
            detected_at=detected_at,
            score=score,
            threshold=threshold,
            record_indices=tuple(record_indices),
            first_record_ts=first_ts,
            newest_record_ts=newest_ts,
            capture_digest=capture_digest(records),
            model_snapshot_id=model_id,
            threshold_snapshot_id=threshold_id,
        )
        record.stage_timings_s["capture"] = max(0.0, newest_ts - first_ts)
        if arrival_ts is not None:
            record.stage_timings_s["indication"] = max(0.0, arrival_ts - newest_ts)
            record.stage_timings_s["detection"] = max(0.0, detected_at - arrival_ts)
        else:
            record.stage_timings_s["detection"] = max(0.0, detected_at - newest_ts)
        self._records[provenance_id] = record
        if self._minted_counter is not None:
            self._minted_counter.inc()
        self._persist(record)
        return record

    def attach_verdict(
        self,
        provenance_id: Optional[int],
        *,
        model: str,
        verdict_text: str,
        top_attack: str,
        confirmed: bool,
        completed_at: float,
    ) -> Optional[ProvenanceRecord]:
        record = self.get(provenance_id)
        if record is None:
            return None
        record.verdict_model = model
        record.verdict_text = verdict_text
        record.verdict_top_attack = top_attack
        record.verdict_confirmed = confirmed
        record.verdict_completed_at = completed_at
        record.stage_timings_s["verdict"] = max(
            0.0, completed_at - record.detected_at
        )
        self._persist(record)
        return record

    def attach_action(
        self, provenance_id: Optional[int], *, action: str, action_at: float
    ) -> Optional[ProvenanceRecord]:
        record = self.get(provenance_id)
        if record is None:
            return None
        record.action = action
        record.action_at = action_at
        start = (
            record.verdict_completed_at
            if record.verdict_completed_at is not None
            else record.detected_at
        )
        record.stage_timings_s["action"] = max(0.0, action_at - start)
        self._persist(record)
        return record

    def _persist(self, record: ProvenanceRecord) -> None:
        if self.sdl is None:
            return
        value = {k: v for k, v in record.to_dict().items() if v is not None}
        try:
            self.sdl.set(SDL_PROVENANCE_NS, f"{record.provenance_id:06d}", value)
        except (ValueError, RuntimeError):
            # What a well-formed set can raise: repro.wire.WireError (a
            # ValueError) or repro.scale.ShardUnavailableError (a
            # RuntimeError), caught through their bases so this package
            # imports nothing past repro.obs. Memory still holds the record.
            if self._persist_failures is not None:
                self._persist_failures.inc()
