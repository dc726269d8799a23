"""Verdict provenance: why did this alarm / verdict / action happen?

Every :class:`~repro.core.mobiwatch.AnomalyEvent` minted while
``XsecConfig.slo_enabled`` carries a ``provenance_id`` resolving, through
the :class:`ProvenanceStore`, to the full evidence chain:

- **capture digest** — SHA-256 of the fast TLV encoding of exactly the
  telemetry records in the flagged window: the bytes that produced the
  alarm, re-hashable by anyone holding the capture;
- **model / threshold snapshot ids** — SHA-256 over the deployed
  detector's parameter arrays and over its fitted operating point, so a
  verdict is attributable to one exact set of weights even across
  re-deployments;
- **trace id**.

That is all the store keeps: the window, the verdict, the action and the
stage timings are the incident's (``repro.core.pipeline.IncidentRecord``),
which persists its whole chain into the ``xsec.provenance`` SDL namespace
at alarm, verdict and action time. ``python -m repro slo explain
<verdict>`` renders it with :func:`render_chain`. A write the SDL refuses
is counted under ``slo.provenance_persist_failures_total``; the evidence
stays readable from memory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
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


def printable(text: str) -> str:
    """Provider text made safe for a terminal: every non-printable
    character is escaped (``\\x1b``, ``\\r``, ``\\u2028``), line breaks
    between lines are kept, and printable text is left as it is."""
    if text.isprintable():
        return text
    return "\n".join(
        "".join(
            ch if ch.isprintable() else ch.encode("unicode_escape").decode("ascii")
            for ch in line
        )
        for line in text.split("\n")
    )


def render_chain(chain: dict) -> str:
    """One incident's evidence chain, as ``slo explain`` prints it.

    ``chain`` is the dict the incident persists (see
    ``IncidentRecord.provenance``); the verdict and attribution are
    provider text and go through :func:`printable`.
    """
    indices = chain["record_indices"]
    lines = [
        f"provenance #{chain['provenance_id']}  trace {chain['trace_id']}",
        f"  session      {chain['session_id']}",
        f"  detected_at  t={chain['detected_at']:.4f}s  score {chain['score']:.5f} "
        f"(threshold {chain['threshold']:.5f})",
        f"  window       records {indices[0]}..{indices[-1]} "
        f"({len(indices)} entries), capture span "
        f"[{chain['first_record_ts']:.4f}s, {chain['newest_record_ts']:.4f}s]",
        f"  capture      digest {chain['capture_digest']}",
        f"  model        snapshot {chain['model_snapshot_id']}  "
        f"threshold snapshot {chain['threshold_snapshot_id']}",
    ]
    if chain["stage_timings_s"]:
        timing = "  ".join(
            f"{stage}={value * 1e3:.1f}ms"
            for stage, value in chain["stage_timings_s"].items()
        )
        lines.append(f"  stages       {timing}")
    if chain.get("verdict_completed_at") is not None:
        confirmed = "confirmed" if chain["verdict_confirmed"] else "not confirmed"
        lines.append(
            f"  verdict      {printable(chain['verdict_text']) or '-'} ({confirmed}) by "
            f"{chain['verdict_model']} at t={chain['verdict_completed_at']:.4f}s"
        )
        if chain["verdict_top_attack"]:
            lines.append(f"  attribution  {printable(chain['verdict_top_attack'])}")
    else:
        lines.append("  verdict      (pending)")
    if chain.get("action_at") is not None:
        lines.append(f"  action       {chain['action']} at t={chain['action_at']:.4f}s")
    return "\n".join(lines)


@dataclass(frozen=True)
class ProvenanceRecord:
    """What only the alarm knows: the exact window and the deployed model.

    The rest of an incident's chain (its anomaly, verdict, action and stage
    timings) is the incident's own; see ``IncidentRecord.provenance``.
    """

    provenance_id: int
    trace_id: str
    capture_digest: str
    model_snapshot_id: str
    threshold_snapshot_id: str


class ProvenanceStore:
    """Mints alarm-time evidence; persists incidents' chains to the SDL."""

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
        # (compiled snapshot, its model id): the detector scores with that
        # snapshot, and every fit / deploy_detector replaces it (recompile).
        self._model_memo: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self._records)

    def get(self, provenance_id: Optional[int]) -> Optional[ProvenanceRecord]:
        if provenance_id is None:
            return None
        return self._records.get(provenance_id)

    def _model_id(self, detector) -> str:
        compiled = detector.compiled
        memo = self._model_memo
        if memo is None or memo[0] is not compiled:
            memo = self._model_memo = (compiled, model_snapshot_id(detector))
        return memo[1]

    def mint(self, *, session_id: int, records, detector) -> ProvenanceRecord:
        """Record the flagged window's evidence at alarm time."""
        provenance_id = self._next_id
        self._next_id += 1
        record = ProvenanceRecord(
            provenance_id=provenance_id,
            trace_id=f"{session_id:x}-{provenance_id:06d}",
            capture_digest=capture_digest(records),
            model_snapshot_id=self._model_id(detector),
            # An A1 policy re-fits the threshold in place: hash it every time.
            threshold_snapshot_id=threshold_snapshot_id(detector),
        )
        self._records[provenance_id] = record
        if self._minted_counter is not None:
            self._minted_counter.inc()
        return record

    def persist(self, chain: dict) -> None:
        """Write an incident's chain (None values dropped) to the SDL."""
        if self.sdl is None:
            return
        value = {k: v for k, v in chain.items() if v is not None}
        try:
            self.sdl.set(SDL_PROVENANCE_NS, f"{chain['provenance_id']:06d}", value)
        except ValueError:
            # What a well-formed set can raise: repro.wire.WireError (a
            # value the codec refuses), caught through its base so this
            # package imports nothing past repro.obs. Memory still holds
            # the evidence; any other error is a bug and propagates.
            if self._persist_failures is not None:
                self._persist_failures.inc()
