"""Byte-level packet capture of the F1AP/NGAP interfaces.

The paper: *"we instrument the F1AP and NGAP interface to obtain pcap
streams, which are further parsed into MobiFlow security telemetry formats."*
This module is that capture substrate: every envelope crossing F1 or NG is
recorded with a timestamp and interface tag and read back as raw TLV bytes;
the telemetry collector (:mod:`repro.telemetry.collector`) parses records
back into structured events, exercising a real decode path.

A live deployment taps the collector on the message objects, so most
captured bytes are never read: a record serialises its envelope the first
time ``payload`` is asked for.

Payloads are :mod:`repro.wire` TLV. Since wire format revision 2 message
and IE names are written as two-byte symbols (a third of the bytes of a
capture written before); a stream written before it still loads and
parses to the same events, because the spelled-out form keeps decoding.
"""

from __future__ import annotations

import io
import math
import struct
from typing import Iterator, Union

from repro.ran.messages import Message

_RECORD_MAGIC = 0x6F5C
_IFACE_CODES = {"F1AP": 1, "NGAP": 2}
_IFACE_NAMES = {code: name for name, code in _IFACE_CODES.items()}


class PcapError(ValueError):
    """Raised on malformed capture data."""


class CaptureRecord:
    """One captured packet: when, where, and the raw bytes.

    ``payload`` may be given as the captured envelope itself; it is
    serialised on first read. Envelopes are not modified once sent, so the
    bytes are those an eager capture would have held.
    """

    __slots__ = ("timestamp", "interface", "_payload")

    def __init__(
        self, timestamp: float, interface: str, payload: Union[bytes, Message]
    ) -> None:
        self.timestamp = timestamp
        self.interface = interface
        self._payload = payload

    @property
    def payload(self) -> bytes:
        payload = self._payload
        if not isinstance(payload, bytes):
            payload = self._payload = payload.to_wire()
        return payload

    def decode(self) -> Message:
        """Parse the raw payload back into its message object."""
        return Message.from_wire(self.payload)

    def _key(self) -> tuple:
        return (self.timestamp, self.interface, self.payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaptureRecord):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"CaptureRecord(timestamp={self.timestamp!r}, "
            f"interface={self.interface!r}, payload={self.payload!r})"
        )


class PcapStream:
    """An in-memory, serializable stream of :class:`CaptureRecord`.

    ``to_bytes``/``from_bytes`` round-trip through a pcap-like binary
    framing (magic, interface code, timestamp, length, payload) so datasets
    can be persisted to disk exactly like the paper's 2.5 MB of pcap files.
    """

    def __init__(self) -> None:
        self._records: list[CaptureRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[CaptureRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[CaptureRecord]:
        return list(self._records)

    def capture(self, timestamp: float, interface: str, message: Message) -> CaptureRecord:
        """Record ``message`` crossing ``interface`` at ``timestamp``."""
        if interface not in _IFACE_CODES:
            raise PcapError(f"unknown interface {interface!r}")
        record = CaptureRecord(timestamp, interface, message)
        self._records.append(record)
        return record

    def extend(self, other: "PcapStream") -> None:
        self._records.extend(other._records)

    def byte_size(self) -> int:
        """Total payload bytes captured (for dataset-size reporting)."""
        return sum(len(record.payload) for record in self._records)

    def to_bytes(self) -> bytes:
        out = io.BytesIO()
        for record in self._records:
            out.write(
                struct.pack(
                    ">HBdI",
                    _RECORD_MAGIC,
                    _IFACE_CODES[record.interface],
                    record.timestamp,
                    len(record.payload),
                )
            )
            out.write(record.payload)
        return out.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "PcapStream":
        stream = cls()
        offset = 0
        header = struct.Struct(">HBdI")
        while offset < len(data):
            if offset + header.size > len(data):
                raise PcapError("truncated record header")
            magic, iface_code, timestamp, length = header.unpack_from(data, offset)
            if magic != _RECORD_MAGIC:
                raise PcapError(f"bad record magic 0x{magic:04x} at offset {offset}")
            iface = _IFACE_NAMES.get(iface_code)
            if iface is None:
                raise PcapError(f"unknown interface code {iface_code}")
            # NaN would pass every timestamp-order check downstream (each
            # comparison is false); an infinity breaks the order after it.
            if not math.isfinite(timestamp):
                raise PcapError(f"non-finite timestamp {timestamp!r} at offset {offset}")
            offset += header.size
            end = offset + length
            if end > len(data):
                raise PcapError("truncated record payload")
            stream._records.append(
                CaptureRecord(timestamp, iface, bytes(data[offset:end]))
            )
            offset = end
        return stream
