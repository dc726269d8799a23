"""Key-value wire encoding of MobiFlow records for E2 reporting.

Paper §3.1: *"the telemetry can be encoded as (key, value) data"* inside the
extended E2SM-KPM report. Only non-null fields are encoded, keeping the
indication payload compact.
"""

from __future__ import annotations

import sys
from typing import Any, Optional

from repro import wire
from repro.telemetry.mobiflow import FIELD_NAMES, MobiFlowRecord

# What a field may hold when it arrives from the E2 edge: the Python types
# of its wire value, and a range check. A record that breaks a rule is a
# ValueError, which rejects the indication that carries it — MobiWatch
# orders timestamps, hashes session ids and TMSIs and indexes feature rows
# by algorithm number, so a wrong-typed field would otherwise raise out of
# the simulator after the record had been half ingested.
_FLOAT_MAX = sys.float_info.max


def _finite(value: Any) -> Any:
    # Also refuses an int too large for the float arithmetic done on it.
    if -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return value
    raise ValueError(f"MobiFlow timestamp {value!r} is not finite")


def _non_negative(value: Optional[int]) -> Optional[int]:
    if value is None or value >= 0:
        return value
    raise ValueError(f"MobiFlow field holds a negative value: {value}")


_NONE = type(None)
_FIELD_RULES: dict[str, tuple] = {
    "timestamp": ((int, float), _finite),
    "msg": ((str,), None),
    "protocol": ((str,), None),
    "direction": ((str,), None),
    "session_id": ((int,), _non_negative),
    "rnti": ((int, _NONE), None),
    "s_tmsi": ((int, _NONE), None),
    "suci": ((str, _NONE), None),
    "supi": ((str, _NONE), None),
    "cipher_alg": ((int, _NONE), _non_negative),
    "integrity_alg": ((int, _NONE), _non_negative),
    "establishment_cause": ((str, _NONE), None),
}

_PLAN = wire.ClassPlan(
    MobiFlowRecord,
    FIELD_NAMES,
    types={name: types for name, (types, _) in _FIELD_RULES.items()},
    converters={name: check for name, (_, check) in _FIELD_RULES.items()},
)


def _record_from_value(item: Any) -> MobiFlowRecord:
    """A generically decoded record dict, held to the same rules."""
    record = MobiFlowRecord.from_dict(item)
    for name, (types, check) in _FIELD_RULES.items():
        value = getattr(record, name)
        if type(value) not in types:
            raise ValueError(
                f"MobiFlow field {name!r} holds a {type(value).__name__}"
            )
        if check is not None:
            check(value)
    return record


class RecordBatch(list):
    """The records of one decoded batch, plus where each was found.

    ``spans[i]`` is the ``(start, stop)`` of record ``i``'s TLV in
    ``payload``, byte for byte what :func:`encode_record` would produce for
    it, so a consumer that stores the record can store the bytes it arrived
    in. ``spans`` is None when there are none to keep: the payload was valid
    but not laid out the way :func:`encode_batch` lays it out.
    """

    def __init__(self, records: list, payload: bytes, spans: Optional[list]) -> None:
        super().__init__(records)
        self.payload = payload
        self.spans = spans


def encode_record(record: MobiFlowRecord) -> bytes:
    """Encode one MobiFlow record as compact (key, value) TLV bytes."""
    return _PLAN.encode(record)


def decode_record(data: bytes) -> MobiFlowRecord:
    """Inverse of :func:`encode_record`."""
    payload = wire.decode(data)
    if not isinstance(payload, dict):
        raise wire.WireError("MobiFlow KV payload is not a dict")
    return _record_from_value(payload)


def encode_batch(records: list[MobiFlowRecord]) -> bytes:
    """Encode the records of one E2 indication (one per report interval)."""
    return _PLAN.encode_list(records)


def decode_batch(data: bytes) -> RecordBatch:
    """Inverse of :func:`encode_batch`."""
    data = bytes(data)
    planned = _PLAN.decode_list(data)
    if planned is not None:
        return RecordBatch(planned[0], data, planned[1])
    payload = wire.decode(data)
    if not isinstance(payload, list):
        raise wire.WireError("MobiFlow batch payload is not a list")
    return RecordBatch([_record_from_value(item) for item in payload], data, None)
