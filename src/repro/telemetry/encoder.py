"""Key-value wire encoding of MobiFlow records for E2 reporting.

Paper §3.1: *"the telemetry can be encoded as (key, value) data"* inside the
extended E2SM-KPM report. Only what the service model cannot derive is
encoded, keeping the indication payload compact: null fields are left out,
and so — since wire format revision 3 — are a record's ``protocol`` and
``direction`` when they are the :data:`CATALOGUE` entry of its ``msg``. The
decoder fills them back in. It accepts only the bytes the encoder writes, so
bytes of an older revision (both fields written out, or two-byte symbols)
are refused with :class:`~repro.wire.WireError`.
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

# The (protocol, direction) of every message name a record can carry, as
# the E2SM knows them: a record leaves either field off the wire when it
# equals its entry here. Append-only, like ``wire.SYMBOLS``: stored bytes
# that left a field off mean this entry, and bytes that write a field equal
# to it are refused (tests/fixtures/mobiflow_catalogue.json pins the
# table). A name added to the tree is appended; a record whose name is
# missing, or whose pair differs, is written in full.
CATALOGUE: dict[str, tuple[str, str]] = {
    "AuthenticationFailure": ("NAS", "UL"),
    "AuthenticationReject": ("NAS", "DL"),
    "AuthenticationRequest": ("NAS", "DL"),
    "AuthenticationResponse": ("NAS", "UL"),
    "ConfigurationUpdateCommand": ("NAS", "DL"),
    "DLInformationTransfer": ("RRC", "DL"),
    "DeregistrationAccept": ("NAS", "DL"),
    "DeregistrationRequest": ("NAS", "UL"),
    "F1DLRRCMessageTransfer": ("RRC", "DL"),
    "F1InitialULRRCMessageTransfer": ("RRC", "UL"),
    "F1Paging": ("RRC", "DL"),
    "F1UEContextReleaseCommand": ("RRC", "DL"),
    "F1UEContextReleaseComplete": ("RRC", "UL"),
    "F1UEContextSetupRequest": ("RRC", "DL"),
    "F1UEContextSetupResponse": ("RRC", "UL"),
    "F1ULRRCMessageTransfer": ("RRC", "UL"),
    "IdentityRequest": ("NAS", "DL"),
    "IdentityResponse": ("NAS", "UL"),
    "MeasurementReport": ("RRC", "UL"),
    "NASSecurityModeCommand": ("NAS", "DL"),
    "NASSecurityModeComplete": ("NAS", "UL"),
    "NASSecurityModeReject": ("NAS", "UL"),
    "NGDownlinkNASTransport": ("NAS", "DL"),
    "NGInitialContextSetupRequest": ("NAS", "DL"),
    "NGInitialContextSetupResponse": ("NAS", "UL"),
    "NGInitialUEMessage": ("NAS", "UL"),
    "NGPaging": ("NAS", "DL"),
    "NGUEContextReleaseCommand": ("NAS", "DL"),
    "NGUEContextReleaseComplete": ("NAS", "UL"),
    "NGUEContextReleaseRequest": ("NAS", "UL"),
    "NGUplinkNASTransport": ("NAS", "UL"),
    "Paging": ("RRC", "DL"),
    "RRCReconfiguration": ("RRC", "DL"),
    "RRCReconfigurationComplete": ("RRC", "UL"),
    "RRCReestablishmentRequest": ("RRC", "UL"),
    "RRCReject": ("RRC", "DL"),
    "RRCRelease": ("RRC", "DL"),
    "RRCSecurityModeCommand": ("RRC", "DL"),
    "RRCSecurityModeComplete": ("RRC", "UL"),
    "RRCSecurityModeFailure": ("RRC", "UL"),
    "RRCSetup": ("RRC", "DL"),
    "RRCSetupComplete": ("RRC", "UL"),
    "RRCSetupRequest": ("RRC", "UL"),
    "RegistrationAccept": ("NAS", "DL"),
    "RegistrationComplete": ("NAS", "UL"),
    "RegistrationReject": ("NAS", "DL"),
    "RegistrationRequest": ("NAS", "UL"),
    "ServiceAccept": ("NAS", "DL"),
    "ServiceReject": ("NAS", "DL"),
    "ServiceRequest": ("NAS", "UL"),
    "ULInformationTransfer": ("RRC", "UL"),
}


def wire_values(record: MobiFlowRecord) -> tuple:
    """The record's field values as the E2SM writes them, field by field:
    None for a field that is left off — a null one, or ``protocol`` /
    ``direction`` where the catalogue entry of ``msg`` gives it."""
    try:
        derived = CATALOGUE.get(record[1])
    except TypeError:  # an unhashable msg, which decoding refuses anyway
        return record
    if derived is None:
        return record
    protocol, direction = derived
    return (
        record[0],
        record[1],
        None if record[2] == protocol else record[2],
        None if record[3] == direction else record[3],
        *record[4:],
    )


class _RecordPlan(wire.ClassPlan):
    """The compact record plan, with ``protocol`` and ``direction`` left
    off where the catalogue gives them. A record that writes either although
    it equals its entry, or leaves either off although ``msg`` has no entry,
    is not what the encoder writes: it is refused."""

    def __init__(self) -> None:
        types = {name: types for name, (types, _) in _FIELD_RULES.items()}
        # May be absent on the wire; the decoded record always has both.
        types["protocol"] = types["direction"] = (str, _NONE)
        super().__init__(
            MobiFlowRecord,
            FIELD_NAMES,
            types=types,
            converters={name: check for name, (_, check) in _FIELD_RULES.items()},
        )
        # What the plan writes per field, in place of the record's own
        # values: a compact plan leaves a None off the wire.
        self._values = wire_values

    def _decode_fields(self, data: bytes, offset: int, stop: int, depth: int) -> list:
        values = super()._decode_fields(data, offset, stop, depth)
        derived = CATALOGUE.get(values[1])
        if derived is None:
            if values[2] is None or values[3] is None:
                raise wire.WireError(
                    f"MobiFlow record of msg {values[1]!r} leaves protocol or "
                    "direction off, and the catalogue has no entry for it"
                )
            return values
        protocol, direction = derived
        if values[2] == protocol or values[3] == direction:
            raise wire.WireError(
                f"MobiFlow record of msg {values[1]!r} writes the protocol or "
                "direction its catalogue entry gives"
            )
        if values[2] is None:
            values[2] = protocol
        if values[3] is None:
            values[3] = direction
        return values


_PLAN = _RecordPlan()


class RecordBatch(list):
    """The records of one decoded batch, plus where each was found.

    ``spans[i]`` is the ``(start, stop)`` of record ``i``'s TLV in
    ``payload``, byte for byte what :func:`encode_record` produces for it
    (the decoder accepts nothing else), so a consumer that stores the record
    can store the bytes it arrived in.
    """

    def __init__(self, records: list, payload: bytes, spans: list) -> None:
        super().__init__(records)
        self.payload = payload
        self.spans = spans


def encode_record(record: MobiFlowRecord) -> bytes:
    """Encode one MobiFlow record as compact (key, value) TLV bytes."""
    return _PLAN.encode(record)


def decode_record(data: bytes) -> MobiFlowRecord:
    """Inverse of :func:`encode_record`: any bytes it would not have
    written are a :class:`~repro.wire.WireError`."""
    return _PLAN.decode(bytes(data))


def encode_batch(records: list[MobiFlowRecord]) -> bytes:
    """Encode the records of one E2 indication (one per report interval)."""
    return _PLAN.encode_list(records)


def decode_batch(data: bytes) -> RecordBatch:
    """Inverse of :func:`encode_batch`: any bytes it would not have
    written are a :class:`~repro.wire.WireError`."""
    data = bytes(data)
    records, spans = _PLAN.decode_list(data)
    return RecordBatch(records, data, spans)
