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

ASN.1 PER never spells a field name; neither does this codec for the names
it knows. A string whose content is an entry of :data:`SYMBOLS` — the field,
message and PDU names of the tree and its few fixed words — is written as
the tag ``0x09`` and one index byte, as a dict key or as a value, on every
interface; any other string is written out. The spelled-out form of a table
string still decodes, to the same value, so bytes written before the table
existed stay readable; no encoder produces it any more.

Three kinds of object cross the interfaces by the thousand per simulated
second — F1/NG/RRC/NAS messages, E2AP PDUs and MobiFlow records — and each
is a fixed set of named fields. :class:`ClassPlan` encodes and decodes
those straight from and to attributes, with the same bytes and the same
errors as ``encode``/``decode`` of the equivalent dict, which stay the
codec for every other value.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from operator import attrgetter
from typing import Any, Callable, Mapping, Optional, Sequence

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08
_TAG_SYMBOL = 0x09

# The strings that cross the wire as ``_TAG_SYMBOL`` + their index here.
# Append-only and at most 256 long: an index is part of the format, so an
# entry is never moved, changed or removed (tests/fixtures/wire_symbols.json
# pins the order), and a message, PDU or record field added to the tree
# appends its names at the end. Decoding needs nothing but this tuple — no
# per-connection state to negotiate or resynchronise.
SYMBOLS: tuple[str, ...] = (
    # 0: MobiFlow record fields
    "timestamp", "msg", "protocol", "direction", "session_id", "rnti", "s_tmsi",
    "suci", "supi", "cipher_alg", "integrity_alg", "establishment_cause",
    # 12: envelope keys, protocol and direction values
    "ie", "pdu", "RRC", "NAS", "UL", "DL",
    # 18: E2SM-KPM indication header ("columnar" is retired: read, never written)
    "sm", "count", "columnar", "ORAN-E2SM-KPM-MobiFlow",
    # 22: RRC establishment causes
    "emergency", "highPriorityAccess", "mt-Access", "mo-Signalling", "mo-Data",
    "mo-VoiceCall", "mo-SMS", "mps-PriorityAccess",
    # 30: message names (RRC, NAS, F1AP, NGAP)
    "AuthenticationFailure", "AuthenticationReject", "AuthenticationRequest",
    "AuthenticationResponse", "ConfigurationUpdateCommand", "DLInformationTransfer",
    "DeregistrationAccept", "DeregistrationRequest", "F1DLRRCMessageTransfer",
    "F1InitialULRRCMessageTransfer", "F1Paging", "F1UEContextReleaseCommand",
    "F1UEContextReleaseComplete", "F1UEContextSetupRequest",
    "F1UEContextSetupResponse", "F1ULRRCMessageTransfer", "IdentityRequest",
    "IdentityResponse", "MeasurementReport", "NASSecurityModeCommand",
    "NASSecurityModeComplete", "NASSecurityModeReject", "NGDownlinkNASTransport",
    "NGInitialContextSetupRequest", "NGInitialContextSetupResponse",
    "NGInitialUEMessage", "NGPaging", "NGUEContextReleaseCommand",
    "NGUEContextReleaseComplete", "NGUEContextReleaseRequest",
    "NGUplinkNASTransport", "Paging", "RRCReconfiguration",
    "RRCReconfigurationComplete", "RRCReestablishmentRequest", "RRCReject",
    "RRCRelease", "RRCSecurityModeCommand", "RRCSecurityModeComplete",
    "RRCSecurityModeFailure", "RRCSetup", "RRCSetupComplete", "RRCSetupRequest",
    "RegistrationAccept", "RegistrationComplete", "RegistrationReject",
    "RegistrationRequest", "ServiceAccept", "ServiceReject", "ServiceRequest",
    "ULInformationTransfer",
    # 81: message IE names
    "cause", "rand", "autn", "sqn", "res_star", "guti", "nas_pdu", "switch_off",
    "gnb_du_ue_id", "gnb_cu_ue_id", "rrc_container", "c_rnti", "identity_type",
    "identity_value", "rsrp_dbm", "rsrq_db", "replayed_capabilities", "ran_ue_id",
    "amf_ue_id", "kgnb", "rrc_transaction_id", "wait_time_s", "selected_plmn",
    "ue_identity", "identity_is_tmsi", "registration_type",
    "ue_security_capabilities",
    # 108: E2AP PDU names
    "E2SetupRequest", "E2SetupResponse", "RICSubscriptionRequest",
    "RICSubscriptionResponse", "RICSubscriptionDeleteRequest", "RICIndication",
    "RICControlRequest", "RICControlAck", "RICServiceUpdate",
    # 117: E2AP PDU field names
    "e2_node_id", "ran_functions", "ric_id", "accepted_functions", "ric_request_id",
    "ran_function_id", "event_trigger", "action_type", "admitted",
    "sequence_number", "indication_header", "indication_message", "control_header",
    "control_message", "ack_requested", "success", "outcome",
)
# Indexed by the byte after the tag; None past the end of the table.
_SYMBOL_AT: tuple = SYMBOLS + (None,) * (256 - len(SYMBOLS))
# Keyed by UTF-8 content, so a str subclass finds its entry whatever its
# own __hash__/__eq__ say.
_SYMBOL_TLV: dict[bytes, bytes] = {
    symbol.encode("utf-8"): bytes((_TAG_SYMBOL, index))
    for index, symbol in enumerate(SYMBOLS)
}


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


def _decode_length(data: bytes, offset: int, end: int) -> tuple[int, int]:
    length = 0
    shift = 0
    while True:
        if offset >= end:
            raise WireError("truncated length field")
        byte = data[offset]
        offset += 1
        length |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return length, offset
        shift += 7
        if shift > 63:
            raise WireError("length field too long")


# Containers nested deeper than this are refused in both directions: the
# codec recurses once per nesting level, and a few KB of hostile bytes
# (2 000 nested lists) would otherwise surface as RecursionError, which no
# ``except WireError`` at an interface edge catches.
MAX_DEPTH = 64

# The encoder appends every value of a message to one growing bytearray
# (a container reserves its length byte and patches it once its children
# are in) and interns the encodings of small strings and ints: the
# telemetry schema repeats the same dozen field names in every record of
# every E2 indication. Scalars are appended by the loop of the container
# that holds them; only nested containers recurse.

_FLOAT_STRUCT = struct.Struct(">d")
_pack_float = _FLOAT_STRUCT.pack
_unpack_float_from = _FLOAT_STRUCT.unpack_from
# Named tuple classes that a ClassPlan reads and builds (see _encode_into).
_PLANNED_TUPLES: set = set()

_STR_CACHE: dict[str, bytes] = {}
_STR_CACHE_MAX_ENTRIES = 4096
_STR_CACHE_MAX_LEN = 64


def _str_tlv(value: str) -> bytes:
    """The one producer of string TLVs: a table string is its symbol."""
    payload = value.encode("utf-8")
    return _SYMBOL_TLV.get(payload) or (
        bytes([_TAG_STR]) + _encode_length(len(payload)) + payload
    )


def _intern_str(value: str) -> bytes:
    """Encode a str the cache does not hold yet, caching it when short."""
    encoded = _str_tlv(value)
    if len(value) <= _STR_CACHE_MAX_LEN and len(_STR_CACHE) < _STR_CACHE_MAX_ENTRIES:
        _STR_CACHE[value] = encoded
    return encoded


def _append_int(out: bytearray, value: int) -> None:
    """Append an int with no intermediate TLV (an RNTI, a TMSI, an IntEnum)."""
    size = (value.bit_length() + 8) // 8
    out.append(_TAG_INT)
    if size < 0x80:
        out.append(size)
    else:
        out += _encode_length(size)
    out += value.to_bytes(size, "big", signed=True)


def _int_tlv(value: int) -> bytes:
    out = bytearray()
    _append_int(out, value)
    return bytes(out)


# Small ints (counts, vocab ids, algorithm numbers) are one table lookup.
_INT_CACHE: dict[int, bytes] = {value: _int_tlv(value) for value in range(-1, 1025)}


class Encoded:
    """One complete, already-validated TLV value: ``data[start:stop]``.

    ``encode`` embeds the span verbatim wherever a value may stand, so bytes
    that were just decoded and checked (a record of an E2 indication on its
    way into the SDL) are stored as received instead of being rebuilt from
    the decoded object. Whoever creates the marker vouches that the span is
    exactly what ``encode`` of the decoded value would produce.
    """

    __slots__ = ("data", "start", "stop")

    def __init__(self, data: bytes, start: int = 0, stop: Optional[int] = None) -> None:
        self.data = data
        self.start = start
        self.stop = len(data) if stop is None else stop

    def value(self) -> Any:
        """The value the span encodes."""
        value, offset = _decode_at(self.data, self.start, self.stop, 0)
        if offset != self.stop:
            raise WireError(f"{self.stop - offset} trailing bytes after value")
        return value


def plain(value: Any) -> Any:
    """``value`` itself, or what it encodes when it is an :class:`Encoded`."""
    return value.value() if type(value) is Encoded else value


def _encode_into(out: bytearray, value: Any, depth: int) -> None:
    """Append one value; ``depth`` counts the containers around it."""
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
        encoded = _INT_CACHE.get(value)
        if encoded is None:
            _append_int(out, value)
        else:
            out += encoded
    elif kind is float:
        out.append(_TAG_FLOAT)
        out += _pack_float(value)
    elif kind is str:
        out += _STR_CACHE.get(value) or _intern_str(value)
    elif isinstance(value, (dict, list, tuple)):
        # A named tuple read by a ClassPlan (a MobiFlow record) crosses the
        # wire through that plan only, never as a list of its fields.
        if kind is not dict and kind is not list and kind is not tuple and kind in _PLANNED_TUPLES:
            raise WireError(f"unsupported wire type: {kind.__name__}")
        if depth >= MAX_DEPTH:
            raise WireError("nesting too deep")
        depth += 1
        keyed = isinstance(value, dict)
        out.append(_TAG_DICT if keyed else _TAG_LIST)
        mark = len(out)
        out.append(0)
        str_cache = _STR_CACHE.get
        int_cache = _INT_CACHE.get
        for item in value.items() if keyed else value:
            if keyed:
                key, item = item
                if type(key) is str:
                    out += str_cache(key) or _intern_str(key)
                elif isinstance(key, str):
                    out += _str_tlv(key)
                else:
                    raise WireError(f"dict keys must be str, got {type(key).__name__}")
            kind = type(item)
            if kind is str:
                out += str_cache(item) or _intern_str(item)
            elif kind is int:
                encoded = int_cache(item)
                if encoded is None:
                    _append_int(out, item)
                else:
                    out += encoded
            elif kind is float:
                out.append(_TAG_FLOAT)
                out += _pack_float(item)
            elif item is None:
                out.append(_TAG_NONE)
            else:
                _encode_into(out, item, depth)
        length = len(out) - mark - 1
        if length < 0x80:
            out[mark] = length
        else:
            out[mark : mark + 1] = _encode_length(length)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        length = len(value)
        if length < 0x80:
            out.append(length)
        else:
            out += _encode_length(length)
        out += value
    elif kind is Encoded:
        if depth >= MAX_DEPTH and _TAG_LIST <= value.data[value.start] <= _TAG_DICT:
            raise WireError("nesting too deep")
        out += value.data[value.start : value.stop]
    # Scalar subclasses (IntEnum, numpy.float64, str enums) encode as their
    # base type, uninterned: their hash/eq need not match the base's.
    elif isinstance(value, int):
        _append_int(out, value)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _pack_float(value)
    elif isinstance(value, str):
        out += _str_tlv(value)
    else:
        raise WireError(f"unsupported wire type: {kind.__name__}")


def encode(value: Any) -> bytes:
    """Encode ``value`` into TLV bytes."""
    if type(value) is Encoded:
        return value.data[value.start : value.stop]
    out = bytearray()
    _encode_into(out, value, 0)
    return bytes(out)


# The decoder reads one buffer by offset. A container's children are
# bounded by the container's own ``end``, never by the buffer's, so a child
# whose length runs past its parent is rejected even when the bytes exist.
# One-byte lengths are read inline (longer varints go through
# _decode_length) and the short scalars of a container are decoded by its
# own loop; only nested containers recurse, through _decode_at.

_SINGLETONS = (None, False, True)  # indexed by _TAG_NONE/_TAG_FALSE/_TAG_TRUE

_DECODE_KEY_CACHE: dict[bytes, str] = {}
_DECODE_KEY_CACHE_MAX = 4096


def _decode_key(raw: bytes) -> str:
    key = str(raw, "utf-8")
    if len(_DECODE_KEY_CACHE) < _DECODE_KEY_CACHE_MAX:
        _DECODE_KEY_CACHE[raw] = key
    return key


def _decode_at(data: bytes, offset: int, end: int, depth: int) -> tuple[Any, int]:
    """Decode the value at ``offset``, which must finish by ``end``."""
    if offset >= end:
        raise WireError("truncated value (no tag)")
    tag = data[offset]
    offset += 1
    if tag < _TAG_INT:
        return _SINGLETONS[tag], offset
    if tag == _TAG_FLOAT:
        if offset + 8 > end:
            raise WireError("truncated float")
        return _unpack_float_from(data, offset)[0], offset + 8
    if tag > _TAG_DICT:
        if tag != _TAG_SYMBOL:
            raise WireError(f"unknown tag 0x{tag:02x}")
        if offset >= end:
            raise WireError("truncated symbol")
        symbol = _SYMBOL_AT[data[offset]]
        if symbol is None:
            raise WireError(f"unknown symbol {data[offset]}")
        return symbol, offset + 1
    if offset < end and (length := data[offset]) < 0x80:
        offset += 1
    else:
        length, offset = _decode_length(data, offset, end)
    stop = offset + length
    if stop > end:
        raise WireError("truncated payload")
    try:
        if tag < _TAG_LIST:
            if tag == _TAG_INT:
                return int.from_bytes(data[offset:stop], "big", signed=True), stop
            if tag == _TAG_STR:
                return str(data[offset:stop], "utf-8"), stop
            return data[offset:stop], stop
        if depth >= MAX_DEPTH:
            raise WireError("nesting too deep")
        depth += 1
        keyed = tag == _TAG_DICT
        result: Any = {} if keyed else []
        append = None if keyed else result.append
        key_cache = _DECODE_KEY_CACHE.get
        while offset < stop:
            if keyed:
                tag = data[offset]
                body = offset + 2
                if tag == _TAG_SYMBOL and body <= stop:
                    key = _SYMBOL_AT[data[offset + 1]]
                    if key is None:
                        raise WireError(f"unknown symbol {data[offset + 1]}")
                    offset = body
                # Short string keys are interned: a batch repeats a dozen names.
                elif (
                    tag == _TAG_STR
                    and body <= stop
                    and (length := data[offset + 1]) <= _STR_CACHE_MAX_LEN
                    and body + length <= stop
                ):
                    offset = body + length
                    raw = data[body:offset]
                    key = key_cache(raw) or _decode_key(raw)
                else:
                    key, offset = _decode_at(data, offset, stop, depth)
                    if type(key) is not str:
                        raise WireError("dict key is not a string")
                if offset >= stop:
                    raise WireError("dict key without value")
            tag = data[offset]
            body = offset + 2
            if (
                (tag == _TAG_STR or tag == _TAG_INT or tag == _TAG_BYTES)
                and body <= stop
                and (length := data[offset + 1]) < 0x80
                and body + length <= stop
            ):
                offset = body + length
                if tag == _TAG_STR:
                    item = str(data[body:offset], "utf-8")
                elif tag == _TAG_INT:
                    item = int.from_bytes(data[body:offset], "big", signed=True)
                else:
                    item = data[body:offset]
            elif tag == _TAG_SYMBOL and body <= stop:
                item = _SYMBOL_AT[data[offset + 1]]
                if item is None:
                    raise WireError(f"unknown symbol {data[offset + 1]}")
                offset = body
            elif tag == _TAG_FLOAT and offset + 9 <= stop:
                item = _unpack_float_from(data, offset + 1)[0]
                offset += 9
            elif tag < _TAG_INT:
                item = _SINGLETONS[tag]
                offset += 1
            else:
                item, offset = _decode_at(data, offset, stop, depth)
            if keyed:
                result[key] = item
            else:
                append(item)
    except UnicodeDecodeError as exc:
        raise WireError(f"string payload is not UTF-8: {exc}") from None
    return result, stop


def decode(data: bytes) -> Any:
    """Decode one TLV value; raises :class:`WireError` on trailing bytes."""
    data = bytes(data)
    value, offset = _decode_at(data, 0, len(data), 0)
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes after value")
    return value


def decode_prefix(data: bytes) -> tuple[Any, bytes]:
    """Decode one TLV value and return ``(value, remaining_bytes)``."""
    data = bytes(data)
    value, offset = _decode_at(data, 0, len(data), 0)
    return value, data[offset:]


# -- per-class codec plans ---------------------------------------------------------
#
# A message, an E2AP PDU or a MobiFlow record always crosses the wire as a
# dict of the same field names in the same order. A ClassPlan builds each
# key's TLV (and, for an enveloped class, everything up to the IE dict) once
# per class, appends str/int/float/None/short-bytes field values inline and
# hands anything else to _encode_into; on the way in it matches the keys it
# expects at the offsets it expects them and decodes short scalars inline,
# leaving the rest to _decode_at. Bytes that are not laid out exactly as the
# plan's own encoder would lay them out are not an error here: the planned
# decoders return None and the caller runs the generic decode, which accepts
# or rejects them with its own messages.

_ANY_TAG = (1 << (_TAG_SYMBOL + 1)) - 1
_TAGS_OF_TYPE = {
    type(None): 1 << _TAG_NONE,
    bool: 1 << _TAG_FALSE | 1 << _TAG_TRUE,
    int: 1 << _TAG_INT,
    float: 1 << _TAG_FLOAT,
    str: 1 << _TAG_STR | 1 << _TAG_SYMBOL,
    bytes: 1 << _TAG_BYTES,
    list: 1 << _TAG_LIST,
    dict: 1 << _TAG_DICT,
}
_IE_KEY = _str_tlv("ie")
_IE_KEY_LENGTH = len(_IE_KEY)


def _patch_length(out: bytearray, mark: int) -> None:
    """Fill in the length byte reserved at ``mark`` for the container that
    runs from there to the end of ``out``, widening it when one byte is
    not enough."""
    length = len(out) - mark - 1
    if length < 0x80:
        out[mark] = length
    else:
        out[mark : mark + 1] = _encode_length(length)


class ClassPlan:
    """How instances of ``cls`` cross the wire as a dict of their fields.

    ``envelope=(kind, name)`` wraps the field dict as ``{kind: name, "ie":
    {...}}`` (messages, E2AP PDUs); without it the value is the bare dict.
    ``converters`` maps a field name to what turns its decoded value (None
    for an absent field) into the attribute: an enum class, a range check
    that raises ValueError. They run in field order once the whole value
    has been decoded, as they would over a generically decoded dict.

    ``types`` (field name -> allowed Python types) makes the plan *compact*,
    the MobiFlow (key, value) form: None-valued fields are left out, and
    the decoder accepts only the bytes the encoder would produce for the
    decoded object — keys in order, fields of the stated types (a field
    whose types include ``type(None)`` may be absent), minimal lengths and
    ints — so every decoded object's span can be stored as it was received.
    An uncompact plan writes None like any value and enum members as their
    ``.value``, and decodes any valid encoding of a field value.

    Instances are built as ``cls(*values)`` in field order.
    """

    def __init__(
        self,
        cls: type,
        names: Sequence[str],
        *,
        envelope: Optional[tuple[str, str]] = None,
        converters: Optional[Mapping[str, Callable[[Any], Any]]] = None,
        types: Optional[Mapping[str, tuple]] = None,
    ) -> None:
        self.cls = cls
        self.names = tuple(names)
        self.compact = types is not None
        converters = converters or {}
        self.converters = tuple(converters.get(name) for name in self.names)
        self._converting = tuple(
            (index, convert)
            for index, convert in enumerate(self.converters)
            if convert is not None
        )
        self._keys = tuple(_str_tlv(name) for name in self.names)
        if issubclass(cls, tuple):
            _PLANNED_TUPLES.add(cls)
        if len(self.names) > 1:
            self._values = attrgetter(*self.names)
        elif self.names:
            only = attrgetter(self.names[0])
            self._values = lambda obj: (only(obj),)
        else:
            self._values = lambda obj: ()
        # (key TLV, its length, allowed tags, may be absent)
        fields = []
        for name, key in zip(self.names, self._keys):
            if types is None:
                fields.append((key, len(key), _ANY_TAG, False))
                continue
            mask = 0
            for kind in types[name]:
                mask |= _TAGS_OF_TYPE[kind]
            optional = bool(mask & 1 << _TAG_NONE)
            fields.append((key, len(key), mask & ~(1 << _TAG_NONE), optional))
        self._fields = tuple(fields)
        # Everything before the first field: dict tag and a length byte to
        # patch, preceded for an enveloped class by the outer dict's tag,
        # length byte, kind key, name and "ie" key.
        if envelope is None:
            self.head = b""
            self._prefix = bytes([_TAG_DICT, 0])
        else:
            kind, name = envelope
            self.head = _str_tlv(kind) + _str_tlv(name) + _IE_KEY
            self._prefix = bytes([_TAG_DICT, 0]) + self.head + bytes([_TAG_DICT, 0])
        # Containers around a field value that belong to the plan itself.
        self._levels = 1 if envelope is None else 2

    # -- encoding ----------------------------------------------------------------

    def _encode_into(self, out: bytearray, obj: Any, depth: int) -> None:
        """Append ``obj``; ``depth`` counts the containers around it."""
        start = len(out)
        out += self._prefix
        depth += self._levels
        compact = self.compact
        int_cache = _INT_CACHE.get
        str_cache = _STR_CACHE.get
        for key, value in zip(self._keys, self._values(obj)):
            kind = type(value)
            if kind is int:
                out += key
                encoded = int_cache(value)
                if encoded is None:
                    _append_int(out, value)
                else:
                    out += encoded
            elif kind is str:
                out += key
                out += str_cache(value) or _intern_str(value)
            elif value is None:
                if not compact:
                    out += key
                    out.append(_TAG_NONE)
            elif kind is float:
                out += key
                out.append(_TAG_FLOAT)
                out += _pack_float(value)
            elif kind is bytes and len(value) < 0x80:
                out += key
                out.append(_TAG_BYTES)
                out.append(len(value))
                out += value
            else:
                out += key
                if not compact and isinstance(value, enum.Enum):
                    value = value.value
                _encode_into(out, value, depth)
        # Close the field dict, then the envelope around it.
        _patch_length(out, start + len(self._prefix) - 1)
        if self._levels == 2:
            _patch_length(out, start + 1)

    def encode(self, obj: Any) -> bytes:
        """``obj`` as one TLV value."""
        out = bytearray()
        self._encode_into(out, obj, 0)
        return bytes(out)

    def encode_list(self, objs: Sequence[Any]) -> bytes:
        """``objs`` as one TLV list."""
        out = bytearray((_TAG_LIST, 0))
        for obj in objs:
            self._encode_into(out, obj, 1)
        _patch_length(out, 1)
        return bytes(out)

    # -- decoding ----------------------------------------------------------------

    def _decode_fields(self, data: bytes, offset: int, stop: int, depth: int) -> Optional[list]:
        """Field values from the dict body ``data[offset:stop]``, or None
        when it is not laid out as this plan's encoder lays it out."""
        values: list = []
        append = values.append
        compact = self.compact
        try:
            for key, key_length, mask, optional in self._fields:
                if not data.startswith(key, offset):
                    if optional:
                        append(None)
                        continue
                    return None
                offset += key_length
                if offset >= stop:
                    return None
                tag = data[offset]
                if not mask >> tag & 1:
                    return None
                body = offset + 2
                if (
                    (tag == _TAG_STR or tag == _TAG_INT or tag == _TAG_BYTES)
                    and body <= stop
                    and (length := data[offset + 1]) < 0x80
                    and body + length <= stop
                ):
                    offset = body + length
                    if tag == _TAG_STR:
                        raw = data[body:offset]
                        # A table string spelled out is not what the encoder
                        # writes: the span could not be stored as received.
                        if compact and raw in _SYMBOL_TLV:
                            return None
                        value = str(raw, "utf-8")
                    elif tag == _TAG_INT:
                        value = int.from_bytes(data[body:offset], "big", signed=True)
                        if compact and length != (value.bit_length() + 8) // 8:
                            return None
                    else:
                        value = data[body:offset]
                elif tag == _TAG_SYMBOL and body <= stop:
                    value = _SYMBOL_AT[data[offset + 1]]
                    if value is None:
                        return None
                    offset = body
                elif tag == _TAG_FLOAT and offset + 9 <= stop:
                    value = _unpack_float_from(data, offset + 1)[0]
                    offset += 9
                elif tag < _TAG_INT:
                    value = _SINGLETONS[tag]
                    offset += 1
                elif compact:
                    return None
                else:
                    value, offset = _decode_at(data, offset, stop, depth)
                append(value)
        except UnicodeDecodeError:
            return None
        return values if offset == stop else None

    def _build(self, values: list) -> Any:
        for index, convert in self._converting:
            values[index] = convert(values[index])
        return self.cls(*values)

    def decode_list(self, data: bytes) -> Optional[tuple[list, list]]:
        """Instances and the ``(start, stop)`` span of each in ``data``, when
        ``data`` is what :meth:`encode_list` of a plan without envelope
        writes; None when it is anything else."""
        try:
            if data[0] != _TAG_LIST:
                return None
            end = len(data)
            length, offset = _decode_length(data, 1, end)
            if offset + length != end:
                return None
            decoded: list = []
            spans: list = []
            while offset < end:
                start = offset
                if data[offset] != _TAG_DICT:
                    return None
                # The one- and two-byte minimal length forms (< 16 KiB).
                if (length := data[offset + 1]) < 0x80:
                    offset += 2
                else:
                    high = data[offset + 2]
                    if not 0 < high < 0x80:
                        return None
                    length = length & 0x7F | high << 7
                    offset += 3
                stop = offset + length
                if stop > end:
                    return None
                values = self._decode_fields(data, offset, stop, 2)
                if values is None:
                    return None
                decoded.append(values)
                spans.append((start, stop))
                offset = stop
        except (IndexError, WireError):
            return None
        build = self._build
        return [build(values) for values in decoded], spans


class EnvelopePlans:
    """The plans of one family of enveloped dataclasses (every ``Message``,
    every ``E2apPdu``), built on first use and found again by envelope head.

    A plan cannot be built in ``__init_subclass__`` — ``@dataclass`` wraps
    the class *after* that hook runs — so it is built the first time the
    class is encoded, or decoded through the generic path. Plans are keyed
    by the exact class: a subclass defined later gets its own.

    ``name_of(cls)`` is the class's wire name, ``registry`` the family's
    name -> class table (only a class it holds can be decoded by name) and
    ``converter_of(annotation)`` what rehydrates a field so annotated, or
    None.
    """

    def __init__(
        self,
        kind: str,
        name_of: Callable[[type], str],
        registry: Mapping[str, type],
        converter_of: Callable[[Any], Optional[Callable[[Any], Any]]],
    ) -> None:
        self._kind = kind
        self._name_of = name_of
        self._registry = registry
        self._converter_of = converter_of
        self._kind_length = len(_str_tlv(kind))
        self._by_class: dict[type, ClassPlan] = {}
        self._by_head: dict[bytes, ClassPlan] = {}

    def plan(self, cls: type) -> ClassPlan:
        plan = self._by_class.get(cls)
        if plan is None:
            fields = dataclasses.fields(cls)
            name = self._name_of(cls)
            plan = self._by_class[cls] = ClassPlan(
                cls,
                [field.name for field in fields],
                envelope=(self._kind, name),
                converters={field.name: self._converter_of(field.type) for field in fields},
            )
            if self._registry.get(name) is cls:
                self._by_head[plan.head] = plan
        return plan

    def clear(self) -> None:
        """Forget every plan (what ``converter_of`` answers has changed)."""
        self._by_class.clear()
        self._by_head.clear()

    def decode(self, data: bytes) -> Any:
        """The instance ``data`` encodes, when it is laid out as the encoder
        of a plan built so far lays it out; else None."""
        try:
            if data[0] != _TAG_DICT:
                return None
            end = len(data)
            if (length := data[1]) < 0x80:
                offset = 2
            else:
                length, offset = _decode_length(data, 1, end)
            if offset + length != end:
                return None
            # kind key, then the name — a symbol, or a string with a
            # one-byte length — then the "ie" key.
            name_at = offset + self._kind_length
            dict_at = name_at + 2 + _IE_KEY_LENGTH
            if data[name_at] != _TAG_SYMBOL:
                dict_at += data[name_at + 1]
            plan = self._by_head.get(data[offset:dict_at])
            if plan is None or data[dict_at] != _TAG_DICT:
                return None
            if (length := data[dict_at + 1]) < 0x80:
                offset = dict_at + 2
            else:
                length, offset = _decode_length(data, dict_at + 1, end)
            if offset + length != end:
                return None
            values = plan._decode_fields(data, offset, end, 2)
        except (IndexError, WireError):
            return None
        return None if values is None else plan._build(values)

