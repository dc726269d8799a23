"""TLV wire encoding shared by the RAN interfaces and the O-RAN E2 stack.

The real systems (OAI, the OSC RIC) exchange ASN.1 PER-encoded structures.
We substitute a compact, self-describing tag-length-value encoding that gives
the same property the reproduction needs: telemetry and control messages
cross interfaces as *bytes* and must be parsed back, so encode/decode bugs
are observable. The format is deterministic, so captures are byte-stable
across runs with the same seed.

Supported values: ``None``, ``bool``, ``int`` (signed, arbitrary size),
``float``, ``str``, ``bytes``, ``list`` and ``dict`` (string keys), nested
arbitrarily.
"""

from __future__ import annotations

import struct
from typing import Any

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08


class WireError(ValueError):
    """Raised on malformed wire data or unsupported values."""


def _encode_length(length: int) -> bytes:
    """Variable-length length field: 7 bits per byte, MSB = continuation."""
    if length < 0:
        raise WireError(f"negative length {length}")
    out = bytearray()
    while True:
        byte = length & 0x7F
        length >>= 7
        if length:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _decode_length(data: bytes, offset: int) -> tuple[int, int]:
    length = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise WireError("truncated length field")
        byte = data[offset]
        offset += 1
        length |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return length, offset
        shift += 7
        if shift > 63:
            raise WireError("length field too long")


# The encoder builds each message in growing bytearrays (one per container,
# not one bytes object per value) and interns the encodings of small strings
# and ints: the telemetry schema repeats the same dozen field names in every
# record of every E2 indication.

_FLOAT_STRUCT = struct.Struct(">d")
_TAG_FLOAT_BYTE = bytes([_TAG_FLOAT])
_LEN1 = tuple(bytes([i]) for i in range(0x80))  # varint of any length < 128

_STR_CACHE: dict[str, bytes] = {}
_STR_CACHE_MAX_ENTRIES = 4096
_STR_CACHE_MAX_LEN = 64

_INT_CACHE: dict[int, bytes] = {}
_INT_CACHE_RANGE = (-1, 1024)


def _str_tlv(value: str) -> bytes:
    payload = value.encode("utf-8")
    return bytes([_TAG_STR]) + _encode_length(len(payload)) + payload


def _int_tlv(value: int) -> bytes:
    payload = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
    return bytes([_TAG_INT]) + _encode_length(len(payload)) + payload


def _encode_str(value: str) -> bytes:
    encoded = _STR_CACHE.get(value)
    if encoded is None:
        encoded = _str_tlv(value)
        if len(value) <= _STR_CACHE_MAX_LEN and len(_STR_CACHE) < _STR_CACHE_MAX_ENTRIES:
            _STR_CACHE[value] = encoded
    return encoded


def _encode_int(value: int) -> bytes:
    encoded = _INT_CACHE.get(value)
    if encoded is None:
        encoded = _int_tlv(value)
        if _INT_CACHE_RANGE[0] <= value <= _INT_CACHE_RANGE[1]:
            _INT_CACHE[value] = encoded
    return encoded


def _append_body(out: bytearray, tag: int, body) -> None:
    out.append(tag)
    n = len(body)
    out += _LEN1[n] if n < 0x80 else _encode_length(n)
    out += body


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NONE)
        return
    if value is False:
        out.append(_TAG_FALSE)
        return
    if value is True:
        out.append(_TAG_TRUE)
        return
    kind = type(value)
    if kind is int:
        out += _encode_int(value)
    elif kind is float:
        out += _TAG_FLOAT_BYTE
        out += _FLOAT_STRUCT.pack(value)
    elif kind is str:
        out += _encode_str(value)
    elif isinstance(value, dict):
        body = bytearray()
        for key, item in value.items():
            if type(key) is str:
                body += _encode_str(key)
            elif isinstance(key, str):
                body += _str_tlv(key)
            else:
                raise WireError(f"dict keys must be str, got {type(key).__name__}")
            _encode_into(body, item)
        _append_body(out, _TAG_DICT, body)
    elif isinstance(value, (list, tuple)):
        body = bytearray()
        for item in value:
            _encode_into(body, item)
        _append_body(out, _TAG_LIST, body)
    elif isinstance(value, (bytes, bytearray)):
        _append_body(out, _TAG_BYTES, value)
    # Scalar subclasses (IntEnum, numpy.float64, str enums) encode as their
    # base type, uninterned: their hash/eq need not match the base's.
    elif isinstance(value, int):
        out += _int_tlv(value)
    elif isinstance(value, float):
        out += _TAG_FLOAT_BYTE
        out += _FLOAT_STRUCT.pack(value)
    elif isinstance(value, str):
        out += _str_tlv(value)
    else:
        raise WireError(f"unsupported wire type: {kind.__name__}")


def encode(value: Any) -> bytes:
    """Encode ``value`` into TLV bytes."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _decode_str(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"string payload is not UTF-8: {exc}") from None


_DECODE_KEY_CACHE: dict[bytes, str] = {}
_DECODE_KEY_CACHE_MAX = 4096


def _decode_key_at(data: bytes, offset: int) -> tuple[Any, int]:
    """Decode a dict-key value, interning repeated short string keys."""
    if data[offset] == _TAG_STR:
        length, payload_start = _decode_length(data, offset + 1)
        end = payload_start + length
        if length <= _STR_CACHE_MAX_LEN and end <= len(data):
            raw = data[payload_start:end]
            key = _DECODE_KEY_CACHE.get(raw)
            if key is None:
                key = _decode_str(raw)
                if len(_DECODE_KEY_CACHE) < _DECODE_KEY_CACHE_MAX:
                    _DECODE_KEY_CACHE[raw] = key
            return key, end
    return _decode_at(data, offset)


def _decode_at(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise WireError("truncated value (no tag)")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FLOAT:
        if offset + 8 > len(data):
            raise WireError("truncated float")
        return struct.unpack(">d", data[offset : offset + 8])[0], offset + 8
    if tag in (_TAG_INT, _TAG_STR, _TAG_BYTES, _TAG_LIST, _TAG_DICT):
        length, offset = _decode_length(data, offset)
        end = offset + length
        if end > len(data):
            raise WireError("truncated payload")
        payload = data[offset:end]
        if tag == _TAG_INT:
            return int.from_bytes(payload, "big", signed=True), end
        if tag == _TAG_STR:
            return _decode_str(payload), end
        if tag == _TAG_BYTES:
            return bytes(payload), end
        if tag == _TAG_LIST:
            items = []
            inner = 0
            while inner < len(payload):
                item, inner = _decode_at(payload, inner)
                items.append(item)
            return items, end
        # dict
        result: dict[str, Any] = {}
        inner = 0
        while inner < len(payload):
            key, inner = _decode_key_at(payload, inner)
            if not isinstance(key, str):
                raise WireError("dict key is not a string")
            if inner >= len(payload):
                raise WireError("dict key without value")
            item, inner = _decode_at(payload, inner)
            result[key] = item
        return result, end
    raise WireError(f"unknown tag 0x{tag:02x}")


def decode(data: bytes) -> Any:
    """Decode one TLV value; raises :class:`WireError` on trailing bytes."""
    value, offset = _decode_at(bytes(data), 0)
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes after value")
    return value


def decode_prefix(data: bytes) -> tuple[Any, bytes]:
    """Decode one TLV value and return ``(value, remaining_bytes)``."""
    value, offset = _decode_at(bytes(data), 0)
    return value, bytes(data[offset:])


# -- columnar batch container --------------------------------------------------
#
# repro.genfast ships telemetry batches struct-of-arrays: one TLV dict with
# named columns (equal-length lists) plus small scalar metadata, instead of
# one dict per record. The per-record schema repeats every field name in
# every record; the columnar form pays for each name once per batch, and
# vocab-interned columns (message names, causes) become small-int lists that
# hit the encoder's int cache. decode_columnar() restores the columns
# exactly — reconstructing per-record values from them is the caller's
# contract (see repro.telemetry.batch).

COLUMNAR_SCHEMA = 1


def encode_columnar(
    columns: dict[str, Any], meta: dict[str, Any] | None = None, n: int | None = None
) -> bytes:
    """Encode ``columns`` (plus scalar ``meta``) as one TLV dict.

    A column is either a list of ``n`` per-record values, or a ``bytes``
    buffer packing the column at a fixed stride (the caller owns the dtype
    contract). ``n`` is inferred from the list columns when not given;
    all-packed batches must pass it explicitly.
    """
    lengths = {len(values) for values in columns.values() if isinstance(values, list)}
    if len(lengths) > 1:
        raise WireError(f"columnar batch with ragged columns: {sorted(lengths)}")
    if lengths:
        inferred = lengths.pop()
        if n is not None and n != inferred:
            raise WireError(f"columnar batch n={n} but columns hold {inferred} values")
        n = inferred
    elif n is None:
        n = 0
    return encode(
        {"schema": COLUMNAR_SCHEMA, "n": n, "meta": dict(meta or {}), "cols": columns}
    )


def decode_columnar(data: bytes) -> tuple[dict[str, Any], dict[str, Any], int]:
    """Decode a columnar batch; returns ``(columns, meta, n)``."""
    value = decode(data)
    if not isinstance(value, dict) or value.get("schema") != COLUMNAR_SCHEMA:
        raise WireError("not a columnar batch")
    n = value.get("n")
    columns = value.get("cols")
    meta = value.get("meta", {})
    if not isinstance(n, int) or not isinstance(columns, dict) or not isinstance(meta, dict):
        raise WireError("malformed columnar batch")
    for name, values in columns.items():
        if isinstance(values, list):
            if len(values) != n:
                raise WireError(
                    f"columnar batch column {name!r} holds {len(values)} of {n} values"
                )
        elif not isinstance(values, bytes):
            raise WireError(f"columnar batch column {name!r} is not a list or bytes")
    return columns, meta, n


# -- length-prefixed framing ---------------------------------------------------
#
# The process runtime (repro.runtime) moves TLV messages over stream
# sockets, where message boundaries are not preserved: a recv() may return
# half a message or three and a half. frame()/deframe() add an explicit
# boundary — a magic byte (so a desynced or corrupted stream is detected
# immediately instead of mis-parsed) plus a u32 payload length — and
# FrameDecoder reassembles frames from arbitrary chunk sequences.

FRAME_MAGIC = 0xA5
_FRAME_HEADER = struct.Struct(">BI")  # magic, payload length
FRAME_HEADER_SIZE = _FRAME_HEADER.size
# Upper bound on a single frame; anything larger is treated as a desync
# (a garbage length field would otherwise make the decoder wait forever).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class IncompleteFrameError(WireError):
    """The buffer ends mid-frame; feed more bytes and retry."""


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length-prefixed frame for stream transports."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame payload of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _FRAME_HEADER.pack(FRAME_MAGIC, len(payload)) + payload


def deframe(data: bytes) -> tuple[bytes, bytes]:
    """Split one frame off ``data``; returns ``(payload, remaining)``.

    Raises :class:`IncompleteFrameError` when ``data`` ends mid-frame
    (partial read: keep the bytes and retry with more) and plain
    :class:`WireError` when the head of ``data`` is not a frame at all
    (garbage or a desynced stream — the connection cannot be recovered).
    """
    data = bytes(data)
    if len(data) < FRAME_HEADER_SIZE:
        if data and data[0] != FRAME_MAGIC:
            raise WireError(f"framing desync: expected magic 0x{FRAME_MAGIC:02x}, got 0x{data[0]:02x}")
        raise IncompleteFrameError(f"need {FRAME_HEADER_SIZE - len(data)} more header bytes")
    magic, length = _FRAME_HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise WireError(f"framing desync: expected magic 0x{FRAME_MAGIC:02x}, got 0x{magic:02x}")
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES} (desync?)")
    end = FRAME_HEADER_SIZE + length
    if len(data) < end:
        raise IncompleteFrameError(f"need {end - len(data)} more payload bytes")
    return data[FRAME_HEADER_SIZE:end], data[end:]


class FrameDecoder:
    """Streaming frame reassembly over arbitrary read chunks.

    ``feed(chunk)`` returns every complete frame payload the buffer now
    holds (possibly none); partial frames wait for the next feed. Garbage
    at a frame boundary raises :class:`WireError` — a stream transport
    cannot resynchronize, so the caller should drop the connection.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[bytes]:
        self._buffer += chunk
        frames: list[bytes] = []
        view = bytes(self._buffer)
        while True:
            try:
                payload, view = deframe(view)
            except IncompleteFrameError:
                break
            frames.append(payload)
        self._buffer = bytearray(view)
        return frames
