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
a symbol, as a dict key or as a value, on every interface; any other string
is written out. Since revision 4 a symbol whose index is below 240 is the
single tag byte ``0x10 + index``; an index of 240-255 is the tag ``0x09``
and one index byte. Tags ``0x0A``-``0x0F`` are reserved. Revision 3
appended the E2SM control vocabulary (the ``action`` key, the action names
and their parameter keys), and left off the MobiFlow fields the service
model derives (see :mod:`repro.telemetry.encoder`).

Three kinds of object cross the interfaces by the thousand per simulated
second — F1/NG/RRC/NAS messages, E2AP PDUs and MobiFlow records — and each
is a fixed set of named fields. :class:`ClassPlan` encodes those straight
from attributes, with the bytes ``encode`` writes for the equivalent dict,
and is their only decoder: it accepts exactly the bytes it writes and
raises :class:`WireError` on any other, older revisions included.
``encode``/``decode`` stay the codec of every other value (event triggers,
control parameters, SDL values); ``decode`` also reads the two-byte and
spelled-out forms of a table string, as the same value.
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
_TAG_SYMBOL = 0x09  # + one index byte: indices 240-255 (revisions 2-3: any index)
# 0x0A-0x0F are reserved for future value types.
_TAG_SHORT_SYMBOL = 0x10  # + index, in one byte: indices 0-239
_SHORT_SYMBOLS = 0x100 - _TAG_SHORT_SYMBOL

# The strings that cross the wire as symbols of their index here.
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
    # 18: E2SM-KPM indication header ("columnar" is retired: never written)
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
    # 134 (revision 3): E2SM control header key, actions and parameter keys
    "action", "release_ue", "blocklist_tmsi", "unblock_tmsi", "rate_limit_access",
    "clear_rate_limit", "tmsi", "max_setups", "window_s",
)
# Indexed by symbol index; None past the end of the table.
_SYMBOL_AT: tuple = SYMBOLS + (None,) * (256 - len(SYMBOLS))
# Keyed by UTF-8 content, so a str subclass finds its entry whatever its
# own __hash__/__eq__ say.
_SYMBOL_TLV: dict[bytes, bytes] = {
    symbol.encode("utf-8"): (
        bytes((_TAG_SHORT_SYMBOL + index,))
        if index < _SHORT_SYMBOLS
        else bytes((_TAG_SYMBOL, index))
    )
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
        if tag >= _TAG_SHORT_SYMBOL:
            symbol = _SYMBOL_AT[tag - _TAG_SHORT_SYMBOL]
            if symbol is None:
                raise WireError(f"unknown symbol {tag - _TAG_SHORT_SYMBOL}")
            return symbol, offset
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
                if tag >= _TAG_SHORT_SYMBOL:
                    key = _SYMBOL_AT[tag - _TAG_SHORT_SYMBOL]
                    if key is None:
                        raise WireError(f"unknown symbol {tag - _TAG_SHORT_SYMBOL}")
                    offset += 1
                elif tag == _TAG_SYMBOL and body <= stop:
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
            if tag >= _TAG_SHORT_SYMBOL:
                item = _SYMBOL_AT[tag - _TAG_SHORT_SYMBOL]
                if item is None:
                    raise WireError(f"unknown symbol {tag - _TAG_SHORT_SYMBOL}")
                offset += 1
            elif (
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
# hands anything else to _encode_into. Its decoder is the only decoder of the
# class, and it accepts exactly the bytes its encoder writes: the keys in
# field order, each field's value as its own TLV (a table string as its
# one-byte symbol, never spelled out or in the two-byte form; an int and
# every length in their shortest form) and nothing after the last field.
# Anything else raises WireError. Only a list or dict field value is read by
# the generic _decode_at, with the generic accept set.

# A field's allowed tags as a bit mask; bit ``_TAG_SHORT_SYMBOL`` stands for
# every one-byte symbol tag.
_SHORT_SYMBOL_BIT = 1 << _TAG_SHORT_SYMBOL
_ANY_TAG = (_SHORT_SYMBOL_BIT << 1) - 1
_TAGS_OF_TYPE = {
    type(None): 1 << _TAG_NONE,
    bool: 1 << _TAG_FALSE | 1 << _TAG_TRUE,
    int: 1 << _TAG_INT,
    float: 1 << _TAG_FLOAT,
    str: 1 << _TAG_STR | 1 << _TAG_SYMBOL | _SHORT_SYMBOL_BIT,
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


def _minimal_length(data: bytes, offset: int, end: int) -> tuple[int, int]:
    """The length field at ``offset``, which must be the one
    ``_encode_length`` writes: no high group of zero bits."""
    length, after = _decode_length(data, offset, end)
    if after - offset > 1 and not data[after - 1]:
        raise WireError("length field is not in its shortest form")
    return length, after


def _body_at(data: bytes, offset: int, end: int, what: str) -> int:
    """Where the body of the container whose length field is at ``offset``
    starts; the container must run exactly to ``end``."""
    if offset < end and (length := data[offset]) < 0x80:
        offset += 1
    else:
        length, offset = _minimal_length(data, offset, end)
    if offset + length > end:
        raise WireError(f"truncated {what}")
    if offset + length < end:
        raise WireError(f"{end - offset - length} trailing bytes after {what}")
    return offset


class ClassPlan:
    """How instances of ``cls`` cross the wire as a dict of their fields.

    ``envelope=(kind, name)`` wraps the field dict as ``{kind: name, "ie":
    {...}}`` (messages, E2AP PDUs); without it the value is the bare dict.
    ``converters`` maps a field name to what turns its decoded value (None
    for an absent field) into the attribute: an enum class, a range check.
    They run in field order once the whole value has been decoded; one that
    raises ValueError or TypeError refuses the bytes (WireError).

    ``types`` (field name -> allowed Python types) makes the plan *compact*,
    the MobiFlow (key, value) form: None-valued fields are left out, and a
    field holds only a value of its stated types (a field whose types
    include ``type(None)`` may be absent). An uncompact plan writes None like
    any value and enum members as their ``.value``.

    The decoder accepts only what the encoder writes (see the comment
    above), so a decoded object's span can be stored as it was received.
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
        # How errors name the object and its members.
        self.label = cls.__name__ if envelope is None else envelope[1]
        self._member = "field" if envelope is None else "IE"
        converters = converters or {}
        self._converting = tuple(
            (index, converters[name])
            for index, name in enumerate(self.names)
            if converters.get(name) is not None
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
        # (name, key TLV, its length, allowed tags, may be absent)
        fields = []
        for name, key in zip(self.names, self._keys):
            if types is None:
                fields.append((name, key, len(key), _ANY_TAG, False))
                continue
            mask = 0
            for kind in types[name]:
                mask |= _TAGS_OF_TYPE[kind]
            optional = bool(mask & 1 << _TAG_NONE)
            fields.append((name, key, len(key), mask & ~(1 << _TAG_NONE), optional))
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

    def _decode_fields(self, data: bytes, offset: int, stop: int, depth: int) -> list:
        """Field values from the dict body ``data[offset:stop]``, which must
        be laid out exactly as this plan's encoder lays it out."""
        values: list = []
        append = values.append
        # A key is looked for at ``stop`` too when the last fields are
        # absent; the byte there is the parent's (the next record's dict
        # tag) or past the end, which no key TLV starts with.
        for name, key, key_length, mask, optional in self._fields:
            if not data.startswith(key, offset):
                if optional:
                    append(None)
                    continue
                raise WireError(
                    f"{self.label}: missing {self._member} {name!r} where its encoder writes it"
                )
            offset += key_length
            if offset >= stop:
                raise WireError(f"{self.label}: {self._member} {name!r} has no value")
            tag = data[offset]
            if tag >= _TAG_SHORT_SYMBOL:
                value = _SYMBOL_AT[tag - _TAG_SHORT_SYMBOL]
                if value is None:
                    raise WireError(f"unknown symbol {tag - _TAG_SHORT_SYMBOL}")
                if not mask & _SHORT_SYMBOL_BIT:
                    raise WireError(f"{self.label}: {self._member} {name!r} holds a string")
                offset += 1
            elif not mask >> tag & 1:
                if tag > _TAG_SYMBOL:
                    raise WireError(f"unknown tag 0x{tag:02x}")
                raise WireError(f"{self.label}: {self._member} {name!r} holds tag 0x{tag:02x}")
            elif tag == _TAG_INT or tag == _TAG_BYTES or tag == _TAG_STR:
                body = offset + 1
                if body < stop and (length := data[body]) < 0x80:
                    body += 1
                else:
                    length, body = _minimal_length(data, body, stop)
                offset = body + length
                if offset > stop:
                    raise WireError("truncated payload")
                raw = data[body:offset]
                if tag == _TAG_INT:
                    value = int.from_bytes(raw, "big", signed=True)
                    if length != (value.bit_length() + 8) // 8:
                        raise WireError(f"{self.label}: int {name!r} is not in its shortest form")
                elif tag == _TAG_STR:
                    if raw in _SYMBOL_TLV:
                        raise WireError(f"{self.label}: table string {name!r} is spelled out")
                    try:
                        value = str(raw, "utf-8")
                    except UnicodeDecodeError as exc:
                        raise WireError(f"string payload is not UTF-8: {exc}") from None
                else:
                    value = raw
            elif tag == _TAG_FLOAT:
                if offset + 9 > stop:
                    raise WireError("truncated float")
                value = _unpack_float_from(data, offset + 1)[0]
                offset += 9
            elif tag < _TAG_INT:
                value = _SINGLETONS[tag]
                offset += 1
            elif tag <= _TAG_DICT:
                value, offset = _decode_at(data, offset, stop, depth)
            elif tag == _TAG_SYMBOL and offset + 2 <= stop:
                index = data[offset + 1]
                if index < _SHORT_SYMBOLS:
                    raise WireError(f"{self.label}: symbol {index} in its two-byte form")
                value = _SYMBOL_AT[index]
                if value is None:
                    raise WireError(f"unknown symbol {index}")
                offset += 2
            else:
                raise WireError(f"unknown tag 0x{tag:02x}" if tag > _TAG_SYMBOL else "truncated symbol")
            append(value)
        if offset != stop:
            raise WireError(
                f"{self.label}: {stop - offset} bytes after the last {self._member} "
                "(a key unknown, repeated or out of order)"
            )
        return values

    def _build(self, values: list) -> Any:
        try:
            for index, convert in self._converting:
                values[index] = convert(values[index])
        except (ValueError, TypeError) as exc:
            raise WireError(f"{self.label}: {exc}") from None
        return self.cls(*values)

    def decode(self, data: bytes) -> Any:
        """The instance that :meth:`encode` of a plan without envelope
        wrote as ``data``."""
        if not data or data[0] != _TAG_DICT:
            raise WireError(f"{self.label} is not a dict")
        end = len(data)
        return self._build(self._decode_fields(data, _body_at(data, 1, end, self.label), end, 1))

    def decode_list(self, data: bytes) -> tuple[list, list]:
        """The instances that :meth:`encode_list` of a plan without envelope
        wrote as ``data``, and the ``(start, stop)`` span of each."""
        if not data or data[0] != _TAG_LIST:
            raise WireError(f"not a list of {self.label}")
        end = len(data)
        offset = _body_at(data, 1, end, "list")
        decoded: list = []
        spans: list = []
        while offset < end:
            start = offset
            if data[offset] != _TAG_DICT:
                raise WireError(f"{self.label} is not a dict")
            offset += 1
            if offset < end and (length := data[offset]) < 0x80:
                offset += 1
            else:
                length, offset = _minimal_length(data, offset, end)
            stop = offset + length
            if stop > end:
                raise WireError(f"truncated {self.label}")
            decoded.append(self._decode_fields(data, offset, stop, 2))
            spans.append((start, stop))
            offset = stop
        build = self._build
        return [build(values) for values in decoded], spans


class EnvelopePlans:
    """The plans of one family of enveloped dataclasses (every ``Message``,
    every ``E2apPdu``), found by class to encode and by envelope head to
    decode.

    A plan cannot be built in ``__init_subclass__`` — ``@dataclass`` wraps
    the class *after* that hook runs — so it is built the first time the
    class is encoded, or the first time a head is not found (then every
    registered class gets its plan). Plans are keyed by the exact class: a
    subclass gets its own.

    ``noun`` names the family in errors, ``name_of(cls)`` is the class's
    wire name, ``registry`` the family's name -> class table (only a class
    it holds can be decoded) and ``converter_of(annotation)`` what
    rehydrates a field so annotated, or None.
    """

    def __init__(
        self,
        kind: str,
        noun: str,
        name_of: Callable[[type], str],
        registry: Mapping[str, type],
        converter_of: Callable[[Any], Optional[Callable[[Any], Any]]],
    ) -> None:
        self._kind_key = _str_tlv(kind)
        self._kind_length = len(self._kind_key)
        self._kind = kind
        self._noun = noun
        self._a_noun = ("an " if noun[0] in "AEIOU" else "a ") + noun
        self._name_of = name_of
        self._registry = registry
        self._converter_of = converter_of
        self._by_class: dict[type, ClassPlan] = {}
        self._by_head: dict[bytes, ClassPlan] = {}
        # How many registered classes had their plan built by the last miss.
        self._built = 0

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
        self._built = 0

    def _missed(self, data: bytes, offset: int, dict_at: int, end: int) -> ClassPlan:
        """The plan of the head ``data[offset:dict_at]`` that was not found:
        one of a class never encoded yet, or none."""
        head = data[offset:dict_at]
        if self._built != len(self._registry):
            for cls in list(self._registry.values()):
                self.plan(cls)
            self._built = len(self._registry)
            plan = self._by_head.get(head)
            if plan is not None:
                return plan
        if not data.startswith(self._kind_key, offset, end):
            raise WireError(f"not {self._a_noun} envelope")
        name = _decode_at(data, offset + self._kind_length, end, 1)[0]
        if type(name) is str and name in self._registry:
            raise WireError(f"{self._noun} {name!r}: envelope not laid out as its encoder writes it")
        raise WireError(f"unknown {self._noun} name {name!r}")

    def decode(self, data: bytes) -> Any:
        """The instance ``data`` encodes, which must be laid out exactly as
        the encoder of its class lays it out."""
        end = len(data)
        try:
            if data[0] != _TAG_DICT:
                raise WireError(f"not {self._a_noun} envelope")
            if data[1] < 0x80 and data[1] + 2 == end:
                offset = 2
            else:
                offset = _body_at(data, 1, end, self._noun)
            # The head: kind key, the name — a one-byte symbol, or a string
            # with a one-byte length — and the "ie" key.
            name_at = offset + self._kind_length
            tag = data[name_at]
            if tag >= _TAG_SHORT_SYMBOL:
                dict_at = name_at + 1 + _IE_KEY_LENGTH
            elif tag == _TAG_STR and data[name_at + 1] < 0x80:
                dict_at = name_at + 2 + data[name_at + 1] + _IE_KEY_LENGTH
            else:
                dict_at = _decode_at(data, name_at, end, 1)[1] + _IE_KEY_LENGTH
            plan = self._by_head.get(data[offset:dict_at]) or self._missed(
                data, offset, dict_at, end
            )
            if data[dict_at] != _TAG_DICT:
                raise WireError(f"{self._noun} IEs are not a dict")
            offset = dict_at + 2
            if data[dict_at + 1] >= 0x80 or data[dict_at + 1] + offset != end:
                offset = _body_at(data, dict_at + 1, end, self._noun)
        except IndexError:
            raise WireError(f"truncated {self._noun}") from None
        return plan._build(plan._decode_fields(data, offset, end, 2))
