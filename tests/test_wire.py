"""Tests for the TLV wire codec, including property-based roundtrips."""

import collections
import enum
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire


def examples(count: int) -> settings:
    """``count`` examples, or the active profile's budget when it is larger
    (tests/conftest.py registers ``wire-fuzz`` for CI)."""
    return settings(max_examples=max(count, settings.default.max_examples))


SIMPLE_VALUES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    127,
    128,
    255,
    256,
    -(2**70),
    2**70,
    0.0,
    -1.5,
    math.inf,
    "",
    "hello",
    "ünïcode ✓",
    b"",
    b"\x00\xff" * 10,
    [],
    [1, "two", None],
    {},
    {"k": "v", "n": 3, "nested": {"list": [1, [2, [3]]]}},
]


class TestRoundtrip:
    @pytest.mark.parametrize("value", SIMPLE_VALUES, ids=repr)
    def test_simple_values(self, value):
        assert wire.decode(wire.encode(value)) == value

    def test_nan_roundtrip(self):
        out = wire.decode(wire.encode(float("nan")))
        assert math.isnan(out)

    def test_tuple_decodes_as_list(self):
        assert wire.decode(wire.encode((1, 2))) == [1, 2]

    def test_bytearray_decodes_as_bytes(self):
        assert wire.decode(wire.encode(bytearray(b"abc"))) == b"abc"

    def test_dict_preserves_insertion_order(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(wire.decode(wire.encode(value))) == ["z", "a", "m"]

    def test_long_payload_lengths(self):
        blob = b"x" * 70000  # forces multi-byte length encoding
        assert wire.decode(wire.encode(blob)) == blob

    def test_encoding_is_deterministic(self):
        value = {"a": [1, 2.5, "s"], "b": {"c": b"\x01"}}
        assert wire.encode(value) == wire.encode(value)

# -- golden byte vectors ----------------------------------------------------------
#
# (name, value, hex of the encoding).  The hex was produced by the recursive
# per-value encoder that ``wire.encode`` replaced (commit 7004f58), so this
# table — not a second implementation — is what pins the wire format: every
# tag, nesting, lengths on both sides of the one-byte varint and of the
# intern caches, and the subclasses the encoder must treat as their base.
# Wire format revision 2 (names in ``wire.SYMBOLS`` cross as 0x09 + index)
# moved the vectors that hold such a name and no other, and revision 4
# (0x10 + index, one byte, for an index below 240) moved them again;
# tests/fixtures/repin_wire_golden.py rewrote those literals from the old
# bytes and the pinned table, without calling the encoder.


class _Color(enum.IntEnum):
    RED = 3
    BIG = 70000


class _Label(str):
    pass


class _Kind(str, enum.Enum):
    RRC = "rrc"


_Point = collections.namedtuple("_Point", "x y")

GOLDEN_VECTORS = [
    ("none", None, "00"),
    ("false", False, "01"),
    ("true", True, "02"),
    ("int_zero", 0, "030100"),
    ("int_minus_one", -1, "0301ff"),
    ("int_127", 127, "03017f"),
    ("int_128", 128, "03020080"),
    ("int_intern_edge", 1024, "03020400"),
    ("int_past_intern", 1025, "03020401"),
    ("int_negative_wide", -(2**70), "0309c00000000000000000"),
    ("int_wide", 2**70, "0309400000000000000000"),
    ("float", -1.5, "04bff8000000000000"),
    ("float_neg_zero", -0.0, "048000000000000000"),
    ("float_inf", float("inf"), "047ff0000000000000"),
    ("float_nan", float("nan"), "047ff8000000000000"),
    ("str_empty", "", "0500"),
    ("str_unicode", "ünïcode ✓", "050dc3bc6ec3af636f646520e29c93"),
    ("str_past_intern_len", "k" * 65, "0541" + "6b" * 65),
    ("str_len_128", "s" * 128, "058001" + "73" * 128),
    ("bytes_empty", b"", "0600"),
    ("bytes", b"\x00\xff\x7f", "060300ff7f"),
    (
        "bytes_len_200",
        bytes(range(200)),
        "06c801000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c"
        "1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c"
        "3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c"
        "5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c"
        "7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c"
        "9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbc"
        "bdbebfc0c1c2c3c4c5c6c7",
    ),
    ("bytearray", bytearray(b"\x01\x02\x03"), "0603010203"),
    ("list_empty", [], "0700"),
    ("list_mixed", [1, "two", None, 3.0, b"4"], "0715030101050374776f00044008000000000000060134"),
    ("tuple_nested", (1, (2, (3,))), "070d03010107080301020703030103"),
    ("list_body_ge_128", ["ab"] * 40, "07a001" + "05026162" * 40),
    ("dict_empty", {}, "0800"),
    ("dict_insertion_order", {"b": 1, "a": 2}, "080c050162030101050161030102"),
    (
        "dict_nested",
        {"k": "v", "n": 3, "nested": {"list": [1, [2, [3]]], "flag": True}},
        "083205016b05017605016e03010305066e6573746564081c05046c697374070d"
        "030101070803010207030301030504666c616702",
    ),
    (
        "dict_body_ge_128",
        {f"key-{i:02d}": i * 1000 for i in range(16)},
        "08bf0105066b65792d303003010005066b65792d3031030203e805066b65792d"
        "3032030207d005066b65792d303303020bb805066b65792d303403020fa00506"
        "6b65792d30350302138805066b65792d30360302177005066b65792d30370302"
        "1b5805066b65792d303803021f4005066b65792d30390302232805066b65792d"
        "31300302271005066b65792d313103022af805066b65792d313203022ee00506"
        "6b65792d3133030232c805066b65792d3134030236b005066b65792d31350302"
        "3a98",
    ),
    (
        "record",
        {"timestamp": 1.25, "msg": "RRCSetupRequest", "session_id": 7, "s_tmsi": None},
        "081210043ff40000000000001158140301071600",
    ),
    ("int_enum", _Color.RED, "030103"),
    ("int_enum_wide", _Color.BIG, "0303011170"),
    ("str_subclass", _Label("tagged"), "0506746167676564"),
    ("str_enum", _Kind.RRC, "0503727263"),
    ("str_subclass_key", {_Label("key"): 1}, "080805036b6579030101"),
    ("namedtuple", _Point(1, 2.0), "070c030101044000000000000000"),
    ("ordered_dict", collections.OrderedDict([("z", 1), ("a", [])]), "080b05017a0301010501610700"),
    ("numpy_float64", np.float64(2.5), "044004000000000000"),
    # Objects the per-class plans (wire.ClassPlan) serialise, as the generic
    # dicts they replaced: tests/test_wire_plans.py holds the planned
    # encoders and decoders to these same bytes.
    (
        "message_enum_wide_int_bool",
        {
            "msg": "RRCSetupRequest",
            "ie": {
                "establishment_cause": "mo-Data",
                "ue_identity": 0x9ABCDEF012,
                "identity_is_tmsi": True,
            },
        },
        "081211581c080d1b2a780306009abcdef0127902",
    ),
    (
        "message_long_container",
        {
            "msg": "F1ULRRCMessageTransfer",
            "ie": {"gnb_du_ue_id": 3, "gnb_cu_ue_id": 1025, "rrc_container": bytes(range(200))},
        },
        "08db01113d1c08d501690301036a030204016b06c80100010203040506070809"
        "0a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223242526272829"
        "2a2b2c2d2e2f303132333435363738393a3b3c3d3e3f40414243444546474849"
        "4a4b4c4d4e4f505152535455565758595a5b5c5d5e5f60616263646566676869"
        "6a6b6c6d6e6f707172737475767778797a7b7c7d7e7f80818283848586878889"
        "8a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9"
        "aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7",
    ),
    (
        "message_int_enums_nested_list",
        {
            "msg": "NASSecurityModeCommand",
            "ie": {
                "cipher_alg": 0,
                "integrity_alg": 2,
                "replayed_capabilities": ["NEA0", ["NIA1", 2]],
            },
        },
        "082111411c081c190301001a03010271071105044e454130070905044e494131"
        "030102",
    ),
    (
        "message_no_fields",
        {"msg": "RRCSecurityModeComplete", "ie": {}},
        "080511541c0800",
    ),
    (
        "message_floats",
        {"msg": "MeasurementReport", "ie": {"rsrp_dbm": -101.5, "rsrq_db": -0.0}},
        "081911401c08146f04c05960000000000070048000000000000000",
    ),
    (
        "e2ap_indication",
        {
            "pdu": "RICIndication",
            "ie": {
                "ric_request_id": 7,
                "ran_function_id": 142,
                "sequence_number": 300000,
                "indication_header": b"hdr",
                "indication_message": bytes(130),
            },
        },
        "08a1011d811c089b01890301078a0302008e8e03030493e08f06036864729006"
        "8201000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "00000000",
    ),
    (
        "e2ap_subscription_policy",
        {
            "pdu": "RICSubscriptionRequest",
            "ie": {
                "ric_request_id": 2,
                "ran_function_id": 142,
                "event_trigger": b"\x08\x00",
                "action_type": "policy",
            },
        },
        "081c1d7e1c0817890301028a0302008e8b060208008c0506706f6c696379",
    ),
    (
        "e2ap_setup_dict_field",
        {
            "pdu": "E2SetupRequest",
            "ie": {"e2_node_id": "gnb-cu-0", "ran_functions": {"142": "ORAN-E2SM-KPM-MobiFlow"}},
        },
        "08191d7c1c0814850508676e622d63752d30860806050331343225",
    ),
    (
        "e2ap_control_ack_bools",
        {
            "pdu": "RICControlAck",
            "ie": {
                "ric_request_id": 9,
                "ran_function_id": 142,
                "success": False,
                "outcome": "no active context",
            },
        },
        "08241d831c081f890301098a0302008e94019505116e6f206163746976652063"
        "6f6e74657874",
    ),
    (
        "mobiflow_batch",
        [
            {
                "timestamp": 12.625,
                "msg": "RRCSetupRequest",
                "protocol": "RRC",
                "direction": "UL",
                "session_id": 7,
                "rnti": 0x4601,
                "s_tmsi": 0xDEADBEEF,
                "establishment_cause": "mo-Data",
            },
            {
                "timestamp": 12.75,
                "msg": "NASSecurityModeCommand",
                "protocol": "NAS",
                "direction": "DL",
                "session_id": 7,
                "rnti": 0x4601,
                "s_tmsi": 0xDEADBEEF,
                "suci": "suci-001-01-0000-0-0-1234567890",
                "supi": "imsi-001011234567890",
                "cipher_alg": 0,
                "integrity_alg": 2,
            },
            {"timestamp": 13, "msg": "Paging", "protocol": "RRC", "direction": "DL", "session_id": 0},
        ],
        "0799010823100440294000000000001158121e13201403010715030246011603"
        "0500deadbeef1b2a0862100440298000000000001141121f1321140301071503"
        "02460116030500deadbeef17051f737563692d3030312d30312d303030302d30"
        "2d302d31323334353637383930180514696d73692d3030313031313233343536"
        "37383930190301001a030102080e1003010d114d121e132114030100",
    ),
]


class TestGoldenVectors:
    @pytest.mark.parametrize(
        "value,golden",
        [vector[1:] for vector in GOLDEN_VECTORS],
        ids=[vector[0] for vector in GOLDEN_VECTORS],
    )
    def test_encode_matches_golden_bytes(self, value, golden):
        assert wire.encode(value).hex() == golden

    def test_decode_restores_base_types(self):
        assert wire.decode(wire.encode(_Color.BIG)) == 70000
        assert wire.decode(wire.encode(_Kind.RRC)) == "rrc"
        assert wire.decode(wire.encode(_Point(1, 2.0))) == [1, 2.0]


# -- golden decode expectations ----------------------------------------------------
#
# tests/fixtures/wire_decode_golden.json holds ``repr(wire.decode(golden))`` as
# the recursive, slice-per-container decoder printed it (commit 3f216d3) for
# every golden encode vector here and in tests/test_hotpath.py.  ``repr`` keeps
# what ``==`` would blur: NaN, -0.0, bool vs int, list vs tuple, key order.
# ``hex`` and ``decoded`` are as that commit wrote them and must keep decoding;
# a row whose value holds a ``wire.SYMBOLS`` name also has ``hex_v2``, what the
# encoder wrote for it at revisions 2 and 3 (two-byte symbols, still read),
# and ``hex_v4``, what it writes since revision 4 (a row without them did not
# move).

DECODE_GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "wire_decode_golden.json").read_text()
)
CANONICAL_GOLDEN = {row.get("hex_v4", row["hex"]) for row in DECODE_GOLDEN}
FIRST_PINNED = {row["id"]: row["hex"] for row in DECODE_GOLDEN}


def _tlv(tag: int, body: bytes) -> bytes:
    assert len(body) < 0x80
    return bytes([tag, len(body)]) + body


class TestDecodeOracle:
    def test_fixture_covers_every_golden_vector(self):
        assert {golden for _, _, golden in GOLDEN_VECTORS} <= CANONICAL_GOLDEN

    @pytest.mark.parametrize(
        "golden,decoded,two_byte,canonical",
        [
            (row["hex"], row["decoded"], row.get("hex_v2"), row.get("hex_v4"))
            for row in DECODE_GOLDEN
        ],
        ids=[row["id"] for row in DECODE_GOLDEN],
    )
    def test_decode_matches_parent_decoder(self, golden, decoded, two_byte, canonical):
        value = wire.decode(bytes.fromhex(golden))
        assert repr(value) == decoded
        assert wire.encode(value).hex() == (canonical or golden)
        assert (two_byte is None) == (canonical is None)
        if canonical is not None:
            assert repr(wire.decode(bytes.fromhex(two_byte))) == decoded
            assert repr(wire.decode(bytes.fromhex(canonical))) == decoded
            assert len(canonical) < len(two_byte) < len(golden)

    def test_only_vectors_holding_a_table_name_moved(self):
        def strings(value):
            if isinstance(value, str):
                yield value
            elif isinstance(value, dict):
                for key, item in value.items():
                    yield key
                    yield from strings(item)
            elif isinstance(value, list):
                for item in value:
                    yield from strings(item)

        for row in DECODE_GOLDEN:
            named = any(
                text in wire.SYMBOLS for text in strings(wire.decode(bytes.fromhex(row["hex"])))
            )
            assert ("hex_v2" in row) == ("hex_v4" in row) == named, row["id"]

    @pytest.mark.parametrize(
        "value,golden",
        [
            (value, FIRST_PINNED[f"wire:{name}"])
            for name, value, _ in GOLDEN_VECTORS
            if name in ("float", "dict_nested", "record", "bytes")
        ],
    )
    def test_decode_equals_encoded_value(self, value, golden):
        """``golden``: the bytes as first pinned — ``record`` with its names
        spelled out, which no encoder writes any more."""
        assert wire.decode(bytes.fromhex(golden)) == value
        assert wire.decode(wire.encode(value)) == value

    @pytest.mark.parametrize("row", DECODE_GOLDEN, ids=[row["id"] for row in DECODE_GOLDEN])
    def test_every_strict_prefix_is_rejected(self, row):
        for column in ("hex", "hex_v2", "hex_v3", "hex_v4", "hex_v4_records"):
            data = bytes.fromhex(row.get(column, ""))
            for cut in range(len(data)):
                with pytest.raises(wire.WireError):
                    wire.decode(data[:cut])

    # A child whose length runs past its parent's end while the bytes exist
    # further on in the buffer: a decoder that bounded children by the buffer
    # would read the sibling's bytes as the child's.
    @pytest.mark.parametrize("outer", [0x07, 0x08], ids=["in_list", "in_dict"])
    @pytest.mark.parametrize(
        "overrun",
        [
            pytest.param(lambda sibling: bytes([0x07, 2, 0x05, 4]) + sibling, id="list_item"),
            pytest.param(lambda sibling: bytes([0x07, 3, 0x03, 2, 0x01]) + sibling, id="list_int"),
            pytest.param(lambda sibling: bytes([0x07, 1, 0x04]) + sibling, id="list_float"),
            pytest.param(lambda sibling: bytes([0x07, 2, 0x06, 0x81]) + sibling, id="list_varint"),
            pytest.param(lambda sibling: bytes([0x08, 2, 0x05, 3]) + sibling, id="dict_key"),
            pytest.param(
                lambda sibling: bytes([0x08, 5, 0x05, 1, 0x6B, 0x05, 4]) + sibling,
                id="dict_value",
            ),
            pytest.param(
                lambda sibling: bytes([0x08, 3, 0x05, 1, 0x6B]) + sibling,
                id="dict_value_missing",
            ),
            pytest.param(
                lambda sibling: bytes([0x08, 4, 0x05, 1, 0x6B, 0x07, 3]) + sibling,
                id="dict_value_container",
            ),
        ],
    )
    def test_child_overrunning_its_parent_is_rejected(self, outer, overrun):
        sibling = wire.encode("sibling-bytes")  # what the overrun would swallow
        body = overrun(sibling)
        if outer == 0x08:
            body = wire.encode("outer") + body
        data = _tlv(outer, body)
        with pytest.raises(wire.WireError):
            wire.decode(data)
        # Same bytes with honest lengths decode: only the overrun is at fault.
        assert wire.decode(_tlv(0x07, sibling)) == ["sibling-bytes"]

    def test_non_canonical_varint_still_decodes(self):
        assert wire.decode(bytes.fromhex("05850068656c6c6f")) == "hello"
        assert wire.decode(bytes.fromhex("078300" + "030107")) == [7]
        assert wire.decode(bytes.fromhex("088800" + "05810061" + "0381002a")) == {"a": 42}

    def test_length_shift_past_63_bits_rejected(self):
        with pytest.raises(wire.WireError, match="length field too long"):
            wire.decode(b"\x06" + b"\x80" * 10 + b"\x00")
        # nine continuation bytes (shift 63) is the longest field accepted
        with pytest.raises(wire.WireError, match="truncated payload"):
            wire.decode(b"\x06" + b"\x80" * 9 + b"\x01")


def nested_lists(depth: int) -> bytes:
    """TLV bytes of ``depth`` lists nested in each other around a None."""
    payload = b"\x00"
    for _ in range(depth):
        payload = b"\x07" + wire._encode_length(len(payload)) + payload
    return payload


class TestDepthBound:
    def test_deeply_nested_payload_is_a_wire_error(self):
        payload = nested_lists(2000)
        assert len(payload) < 7000
        with pytest.raises(wire.WireError, match="nesting too deep"):
            wire.decode(payload)

    def test_deeply_nested_value_is_a_wire_error(self):
        value: list = []
        for _ in range(2000):
            value = [value]
        with pytest.raises(wire.WireError, match="nesting too deep"):
            wire.encode(value)
        cyclic: dict = {}
        cyclic["self"] = cyclic
        with pytest.raises(wire.WireError, match="nesting too deep"):
            wire.encode(cyclic)

    def test_max_depth_itself_roundtrips(self):
        value: object = "leaf"
        for level in range(wire.MAX_DEPTH):
            value = {"k": value} if level % 2 else [value]
        encoded = wire.encode(value)
        assert wire.decode(encoded) == value
        one_deeper = b"\x07" + wire._encode_length(len(encoded)) + encoded
        with pytest.raises(wire.WireError, match="nesting too deep"):
            wire.decode(one_deeper)
        with pytest.raises(wire.WireError, match="nesting too deep"):
            wire.encode([value])


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(wire.WireError):
            wire.encode(object())

    def test_named_tuple_refused_plain_tuple_is_a_list(self):
        """A MobiFlow record is a named tuple with a plan of its own; the
        generic codec must not write it as a 12-item list. A named tuple
        without a plan is still a list (the ``namedtuple`` golden vector)."""
        from repro.oran.sdl import SharedDataLayer
        from repro.telemetry.mobiflow import MobiFlowRecord

        record = MobiFlowRecord(1.0, "RRCSetupRequest", "RRC", "UL", 7)
        for value in (record, [record], {"r": record}):
            with pytest.raises(wire.WireError, match="unsupported wire type: MobiFlowRecord"):
                wire.encode(value)
        with pytest.raises(wire.WireError, match="unsupported wire type: MobiFlowRecord"):
            SharedDataLayer().set("ns", "key", record)
        assert wire.encode((1, "two", None)) == wire.encode([1, "two", None])
        assert wire.decode(wire.encode(tuple(record))) == list(record)
        assert wire.encode(_Point(*record[:2])) == wire.encode([1.0, "RRCSetupRequest"])

    def test_non_string_dict_key(self):
        with pytest.raises(wire.WireError):
            wire.encode({1: "x"})

    def test_trailing_bytes_rejected(self):
        data = wire.encode(1) + b"\x00"
        with pytest.raises(wire.WireError):
            wire.decode(data)

    def test_truncated_payload(self):
        data = wire.encode("hello")[:-1]
        with pytest.raises(wire.WireError):
            wire.decode(data)

    def test_empty_input(self):
        with pytest.raises(wire.WireError):
            wire.decode(b"")

    def test_unknown_tag(self):
        # 0x0A-0x0F are reserved; every tag from 0x10 up is a one-byte
        # symbol (revision 4), unknown only past the table's end.
        for tag in range(0x0A, 0x10):
            with pytest.raises(wire.WireError, match="unknown tag"):
                wire.decode(bytes([tag]))
        with pytest.raises(wire.WireError, match="unknown symbol"):
            wire.decode(b"\xff")

    def test_truncated_float(self):
        with pytest.raises(wire.WireError):
            wire.decode(b"\x04\x00\x00")

    def test_invalid_utf8_is_a_wire_error(self):
        """Used to escape as UnicodeDecodeError (found by the garbage property)."""
        with pytest.raises(wire.WireError):
            wire.decode(b"\x05\x06\x00\x00\x00\x00\x00\x80")
        with pytest.raises(wire.WireError):
            wire.decode(b"\x08\x04\x05\x01\x80\x00")  # as a dict key

    def test_decode_prefix_returns_remainder(self):
        data = wire.encode(1) + wire.encode("two")
        value, rest = wire.decode_prefix(data)
        assert value == 1
        assert wire.decode(rest) == "two"


# Recursive strategy over all supported wire types; table names, which
# random text never hits, are drawn on purpose as keys and as values.
table_names = st.sampled_from(wire.SYMBOLS)
wire_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=50)
    | table_names
    | st.binary(max_size=50),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=10) | table_names, children, max_size=5),
    max_leaves=20,
)


class TestPropertyBased:
    @examples(200)
    @given(wire_values)
    def test_roundtrip_any_supported_value(self, value):
        assert wire.decode(wire.encode(value)) == value

    @examples(100)
    @given(st.integers())
    def test_int_roundtrip_any_size(self, value):
        assert wire.decode(wire.encode(value)) == value

    @examples(100)
    @given(st.binary(max_size=200))
    def test_garbage_never_crashes_decoder(self, data):
        try:
            wire.decode(data)
        except wire.WireError:
            pass  # rejecting is fine; crashing is not

    @examples(300)
    @given(wire_values, st.data())
    def test_mutated_encoding_decodes_or_raises_wire_error(self, value, data):
        """One byte flipped, inserted or deleted in a *valid* encoding reaches
        the bounds checks deep inside containers that random garbage rarely
        gets to: the outcome is a value or WireError, never IndexError,
        struct.error or RecursionError."""
        encoded = bytearray(wire.encode(value))
        position = data.draw(st.integers(0, len(encoded) - 1))
        mutation = data.draw(st.sampled_from(["flip", "insert", "delete"]))
        if mutation == "flip":
            encoded[position] ^= 1 << data.draw(st.integers(0, 7))
        elif mutation == "insert":
            encoded.insert(position, data.draw(st.integers(0, 255)))
        else:
            del encoded[position]
        try:
            wire.decode(bytes(encoded))
        except wire.WireError:
            pass

