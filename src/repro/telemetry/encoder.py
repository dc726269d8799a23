"""Key-value wire encoding of MobiFlow records for E2 reporting.

Paper §3.1: *"the telemetry can be encoded as (key, value) data"* inside the
extended E2SM-KPM report. Only non-null fields are encoded, keeping the
indication payload compact.
"""

from __future__ import annotations

from repro import wire
from repro.telemetry.batch import MobiFlowBatch
from repro.telemetry.mobiflow import MobiFlowRecord


def encode_record(record: MobiFlowRecord) -> bytes:
    """Encode one MobiFlow record as compact (key, value) TLV bytes."""
    return wire.encode(record.to_wire_dict())


def decode_record(data: bytes) -> MobiFlowRecord:
    """Inverse of :func:`encode_record`."""
    payload = wire.decode(data)
    if not isinstance(payload, dict):
        raise wire.WireError("MobiFlow KV payload is not a dict")
    return MobiFlowRecord.from_dict(payload)


def encode_batch(records: list[MobiFlowRecord]) -> bytes:
    """Encode a telemetry batch (one E2 indication per report interval)."""
    return wire.encode([record.to_wire_dict() for record in records])


def decode_batch(data: bytes) -> list[MobiFlowRecord]:
    """Inverse of :func:`encode_batch`."""
    payload = wire.decode(data)
    if not isinstance(payload, list):
        raise wire.WireError("MobiFlow batch payload is not a list")
    return [MobiFlowRecord.from_dict(item) for item in payload]


# -- columnar batches (repro.genfast) -----------------------------------------
#
# The per-record batch encoding re-states every field name in every record.
# The columnar encoding pays for each name once per batch and ships the
# string categories as per-batch vocabularies plus small-int id columns.
# Contract: decode_batch_columnar(encode_batch_columnar(b)).to_records()
# equals b.to_records() field for field — so re-encoding the decoded batch
# through the seed per-record codec reproduces the seed bytes exactly.


def encode_batch_columnar(batch: MobiFlowBatch) -> bytes:
    """Encode a columnar MobiFlow batch as one struct-of-arrays TLV value."""
    columns, meta = batch.to_columns()
    return wire.encode_columnar(columns, meta)


def decode_batch_columnar(data: bytes) -> MobiFlowBatch:
    """Inverse of :func:`encode_batch_columnar`."""
    columns, meta, n = wire.decode_columnar(data)
    return MobiFlowBatch.from_columns(columns, meta, n)
