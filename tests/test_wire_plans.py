"""The codec contract of the per-class plans (``wire.ClassPlan``).

``Message``, ``E2apPdu`` and the MobiFlow batch no longer pass through a
dict on their way to and from bytes. Their planned encoders must write the
bytes ``wire.encode`` writes for the dict they replaced, and their planned
decoders must return — or refuse, with the same exception type — what the
generic decode followed by the old construction did. The oracles below are
those old code paths, kept here; the golden bytes are the ones in
tests/test_wire.py (``GOLDEN_VECTORS`` / fixtures/wire_decode_golden.json).
"""

import copy
import dataclasses
import enum
import pickle
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import wire
from repro.oran import e2ap
from repro.oran.e2ap import ActionType, E2apError, E2apPdu
from repro.oran.sdl import SharedDataLayer
from repro.ran import f1ap, messages, nas, ngap, rrc  # noqa: F401  (register every class)
from repro.ran.messages import Message, MessageError, register_enum_field_type
from repro.ran.security import CipherAlg, IntegrityAlg
from repro.scale.sharded_sdl import ShardedSdl
from repro.telemetry.encoder import (
    RecordBatch,
    decode_batch,
    decode_record,
    encode_batch,
    encode_record,
)
from repro.telemetry.mobiflow import FIELD_NAMES, MobiFlowRecord
from tests.test_wire import FIRST_PINNED, GOLDEN_VECTORS, examples, nested_lists

GOLDEN = {name: bytes.fromhex(golden) for name, _, golden in GOLDEN_VECTORS}
# The same vectors as every encoder wrote them before revision 2 (names
# spelled out): no longer produced, still decoded.
REVISION_1 = {name: bytes.fromhex(FIRST_PINNED[f"wire:{name}"]) for name in GOLDEN}

# The program's own classes (other test modules register throwaway ones).
MESSAGE_CLASSES = [
    cls
    for cls in (Message.lookup(name) for name in Message.registered_names())
    if cls.__module__.startswith("repro.")
]
PDU_CLASSES = [
    cls for cls in e2ap._PDU_REGISTRY.values() if cls.__module__.startswith("repro.")
]


# -- oracles: the generic codec plus the construction it used to feed ------------


def generic_message_bytes(message: Message) -> bytes:
    return wire.encode({"msg": type(message).NAME, "ie": message.fields()})


def generic_message(data: bytes) -> Message:
    try:
        blob = wire.decode(data)
    except wire.WireError as exc:
        raise MessageError(f"undecodable message: {exc}") from exc
    if not isinstance(blob, dict) or "msg" not in blob:
        raise MessageError("wire blob is not a message envelope")
    cls = Message.lookup(blob["msg"])
    ie = blob.get("ie", {})
    if not isinstance(ie, dict):
        raise MessageError("message IEs are not a dict")
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name not in ie:
            raise MessageError(f"{blob['msg']}: missing IE {field.name!r}")
        value = ie[field.name]
        convert = messages._enum_converter(field.type)
        kwargs[field.name] = value if convert is None else convert(value)
    return cls(**kwargs)


def generic_pdu_bytes(pdu: E2apPdu) -> bytes:
    ies = {}
    for field in dataclasses.fields(pdu):
        value = getattr(pdu, field.name)
        ies[field.name] = value.value if isinstance(value, enum.Enum) else value
    return wire.encode({"pdu": type(pdu).PDU, "ie": ies})


def generic_pdu(data: bytes) -> E2apPdu:
    try:
        blob = wire.decode(data)
    except wire.WireError as exc:
        raise E2apError(f"undecodable E2AP PDU: {exc}") from exc
    if not isinstance(blob, dict) or "pdu" not in blob:
        raise E2apError("not an E2AP PDU envelope")
    cls = e2ap._PDU_REGISTRY.get(blob["pdu"])
    if cls is None:
        raise E2apError(f"unknown E2AP PDU {blob['pdu']!r}")
    ies = blob.get("ie", {})
    if not isinstance(ies, dict):
        raise E2apError("E2AP IEs are not a dict")
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name not in ies:
            raise E2apError(f"{blob['pdu']}: missing IE {field.name!r}")
        value = ies[field.name]
        if field.type == "ActionType" and value is not None:
            value = ActionType(value)
        kwargs[field.name] = value
    return cls(**kwargs)


def generic_batch_bytes(records) -> bytes:
    return wire.encode([record.to_wire_dict() for record in records])


_INTS = ("session_id", "rnti", "s_tmsi", "cipher_alg", "integrity_alg")
_STRS = ("msg", "protocol", "direction", "suci", "supi", "establishment_cause")
_REQUIRED = ("timestamp", "msg", "protocol", "direction", "session_id")
_NON_NEGATIVE = ("session_id", "cipher_alg", "integrity_alg")


def check_field_rules(record: MobiFlowRecord) -> None:
    """ISSUE 17's field rules, written out independently of the codec."""
    for name in FIELD_NAMES:
        value = getattr(record, name)
        if value is None:
            ok = name not in _REQUIRED
        elif name == "timestamp":
            ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        elif name in _INTS:
            ok = type(value) is int and (name not in _NON_NEGATIVE or value >= 0)
        else:
            assert name in _STRS
            ok = type(value) is str
        if not ok:
            raise ValueError(f"bad {name}: {value!r}")


def generic_batch(data: bytes) -> list:
    payload = wire.decode(data)
    if not isinstance(payload, list):
        raise wire.WireError("MobiFlow batch payload is not a list")
    records = []
    for item in payload:
        records.append(MobiFlowRecord.from_dict(item))
        check_field_rules(records[-1])
    return records


def outcome(function, *args):
    """``("ok", repr of the result)`` or ``("raised", exception type)``.

    ``repr`` rather than ``==``: it tells NaN from NaN, -0.0 from 0.0, bool
    from int and one class from another, all of which a mutated byte makes.
    """
    try:
        result = function(*args)
    except Exception as exc:  # the *type* is what is compared
        return "raised", type(exc)
    return "ok", repr(list(result) if isinstance(result, list) else result)


# -- values ----------------------------------------------------------------------


class _Alg(enum.IntEnum):
    ZERO = 0
    WIDE = 70000


# What a field can hold that takes a different branch of either codec.
EDGE_VALUES = [
    None,
    True,
    False,
    _Alg.ZERO,
    _Alg.WIDE,
    CipherAlg.NEA0,
    rrc.EstablishmentCause.MO_DATA,
    -2,
    1024,
    1025,  # past the int cache
    2**63 - 1,
    2**63,
    -(2**63) - 1,
    2**70,
    10**400,
    0.5,
    -0.0,
    float("inf"),
    "",
    "mo-Data",
    "k" * 64,
    "k" * 65,  # past the str cache
    "s" * 127,
    "s" * 128,  # two-byte length
    "ü" * 64,  # 128 bytes of UTF-8
    b"",
    bytes(127),
    bytes(128),
    bytes(16384),  # three-byte length
    [],
    [1, [2, [3, "deep"]]],
    {"k": [None, True]},
    (1, 2),
]

scalars = (
    st.none()
    | st.booleans()
    | st.sampled_from(list(_Alg) + list(CipherAlg) + list(IntegrityAlg))
    | st.integers()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.sampled_from(wire.SYMBOLS)
    | st.binary(max_size=40)
)
field_values = st.sampled_from(EDGE_VALUES) | st.recursive(
    scalars, lambda children: st.lists(children, max_size=3), max_leaves=6
)


def instance_with(cls, data):
    """``cls`` with every field drawn from ``field_values``."""
    return cls(
        **{
            field.name: data.draw(field_values, label=field.name)
            for field in dataclasses.fields(cls)
        }
    )


def assert_message_contract(message: Message) -> None:
    try:
        expected = generic_message_bytes(message)
    except wire.WireError:
        with pytest.raises(wire.WireError):
            message.to_wire()
        return
    encoded = message.to_wire()
    assert encoded == expected
    assert outcome(Message.from_wire, encoded) == outcome(generic_message, encoded)


def assert_pdu_contract(pdu: E2apPdu) -> None:
    try:
        expected = generic_pdu_bytes(pdu)
    except wire.WireError:
        with pytest.raises(wire.WireError):
            pdu.to_wire()
        return
    encoded = pdu.to_wire()
    assert encoded == expected
    assert outcome(E2apPdu.from_wire, encoded) == outcome(generic_pdu, encoded)


def assert_batch_contract(records: list) -> None:
    try:
        expected = generic_batch_bytes(records)
    except wire.WireError:
        with pytest.raises(wire.WireError):
            encode_batch(records)
        return
    encoded = encode_batch(records)
    assert encoded == expected
    assert outcome(decode_batch, encoded) == outcome(generic_batch, encoded)


def base_record(**overrides) -> MobiFlowRecord:
    fields = dict(timestamp=1.5, msg="RRCSetup", protocol="RRC", direction="DL", session_id=3)
    fields.update(overrides)
    return MobiFlowRecord(**fields)


# -- the record itself ------------------------------------------------------------

valid_records = st.builds(
    MobiFlowRecord,
    timestamp=st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**60), 2**60),
    msg=st.text(max_size=20) | st.sampled_from(wire.SYMBOLS),
    protocol=st.sampled_from(["RRC", "NAS"]),
    direction=st.sampled_from(["UL", "DL"]),
    session_id=st.integers(0, 2**40),
    rnti=st.none() | st.integers(0, 0xFFFF),
    s_tmsi=st.none() | st.integers(-(2**40), 2**40),
    suci=st.none() | st.text(max_size=30),
    supi=st.none() | st.text(max_size=20),
    cipher_alg=st.none() | st.integers(0, 3),
    integrity_alg=st.none() | st.integers(0, 3),
    establishment_cause=st.none() | st.sampled_from(["mo-Data", "emergency"]),
)


def dataclass_era_repr(record: MobiFlowRecord) -> str:
    """How the frozen-dataclass record printed itself."""
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in FIELD_NAMES)
    return f"MobiFlowRecord({body})"


class TestRecordSemantics:
    """What callers rely on now that a record is a named tuple: immutable,
    hashed as the tuple of its fields, printed as before (the oracles above
    compare ``repr``), built and copied as before."""

    FULL = MobiFlowRecord(
        timestamp=1.25,
        msg="RRCSetupRequest",
        protocol="RRC",
        direction="UL",
        session_id=7,
        rnti=0x4601,
        suci="suci-null-001",
        cipher_alg=0,
        integrity_alg=2,
        establishment_cause="mo-Signalling",
    )

    def test_fields_are_read_only(self):
        for name in FIELD_NAMES:
            with pytest.raises(AttributeError):
                setattr(self.FULL, name, None)
        with pytest.raises(AttributeError):
            self.FULL.extra = 1

    def test_repr_is_byte_equal_to_the_dataclass_era(self):
        assert repr(self.FULL) == (
            "MobiFlowRecord(timestamp=1.25, msg='RRCSetupRequest', protocol='RRC', "
            "direction='UL', session_id=7, rnti=17921, s_tmsi=None, "
            "suci='suci-null-001', supi=None, cipher_alg=0, integrity_alg=2, "
            "establishment_cause='mo-Signalling')"
        )
        assert str(self.FULL) == repr(self.FULL)

    @examples(200)
    @given(valid_records)
    def test_hash_repr_copy_and_pickle(self, record):
        assert hash(record) == hash(tuple(getattr(record, name) for name in FIELD_NAMES))
        assert repr(record) == dataclass_era_repr(record)
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for other in copies:
            assert type(other) is MobiFlowRecord
            assert other == record and hash(other) == hash(record)
            assert repr(other) == repr(record)
        assert MobiFlowRecord.from_dict(record.to_dict()) == record
        assert decode_batch(encode_batch([record]))[0] == record

    def test_keyword_positional_and_default_construction(self):
        values = [getattr(self.FULL, name) for name in FIELD_NAMES]
        assert MobiFlowRecord(*values) == self.FULL
        assert MobiFlowRecord(**dict(zip(FIELD_NAMES, values))) == self.FULL
        assert MobiFlowRecord(1.25, "RRCSetupRequest", "RRC", "UL", 7, 0x4601).rnti == 0x4601
        bare = MobiFlowRecord(0.5, "Paging", protocol="RRC", direction="DL")
        assert bare.session_id == 0
        assert [getattr(bare, name) for name in FIELD_NAMES[5:]] == [None] * 7
        with pytest.raises(TypeError):
            MobiFlowRecord(0.5, "Paging", "RRC")
        with pytest.raises(TypeError):
            MobiFlowRecord(0.5, "Paging", "RRC", "DL", bogus=1)

    def test_from_dict_refuses_unknown_and_missing_fields(self):
        with pytest.raises(ValueError):
            MobiFlowRecord.from_dict({**self.FULL.to_dict(), "bogus": 1})
        with pytest.raises(TypeError):
            MobiFlowRecord.from_dict({"timestamp": 1.0, "msg": "x", "protocol": "RRC"})

    def test_replace_makes_a_changed_copy(self):
        moved = self.FULL._replace(timestamp=2.0)
        assert type(moved) is MobiFlowRecord and moved.timestamp == 2.0
        assert moved[1:] == self.FULL[1:] and self.FULL.timestamp == 1.25

    def test_field_names_lead_the_symbol_table(self):
        assert FIELD_NAMES == MobiFlowRecord._fields == wire.SYMBOLS[:12]

    def test_a_record_equals_the_plain_tuple_of_its_values(self):
        """The one semantic the frozen dataclass did not have."""
        plain = tuple(getattr(self.FULL, name) for name in FIELD_NAMES)
        assert self.FULL == plain and hash(self.FULL) == hash(plain)


# -- same bytes out, same objects back --------------------------------------------


class TestEveryClass:
    """Deterministic sweep: every field of every class holds every edge value
    once (the others at their defaults)."""

    def test_program_classes_are_all_here(self):
        assert len(MESSAGE_CLASSES) >= 50
        assert len(PDU_CLASSES) == 9

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.NAME)
    def test_message(self, cls):
        assert_message_contract(cls())
        for field in dataclasses.fields(cls):
            for value in EDGE_VALUES:
                assert_message_contract(cls(**{field.name: value}))

    @pytest.mark.parametrize("cls", PDU_CLASSES, ids=lambda cls: cls.PDU)
    def test_pdu(self, cls):
        assert_pdu_contract(cls())
        for field in dataclasses.fields(cls):
            for value in EDGE_VALUES:
                assert_pdu_contract(cls(**{field.name: value}))

    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_record(self, name):
        for value in EDGE_VALUES:
            odd = base_record(**{name: value})
            assert_batch_contract([odd])
            assert_batch_contract([base_record(), odd, base_record(timestamp=2)])


class TestAnyFieldValues:
    @examples(300)
    @given(st.data())
    def test_message(self, data):
        cls = data.draw(st.sampled_from(MESSAGE_CLASSES))
        assert_message_contract(instance_with(cls, data))

    @examples(150)
    @given(st.data())
    def test_pdu(self, data):
        cls = data.draw(st.sampled_from(PDU_CLASSES))
        assert_pdu_contract(instance_with(cls, data))

    @examples(200)
    @given(st.data())
    def test_record_batch(self, data):
        records = [base_record()]
        for _ in range(data.draw(st.integers(0, 3))):
            name = data.draw(st.sampled_from(FIELD_NAMES))
            records.append(base_record(**{name: data.draw(field_values, label=name)}))
        assert_batch_contract(records)

    @examples(200)
    @given(
        st.lists(
            st.builds(
                MobiFlowRecord,
                timestamp=st.floats(0, 1e6) | st.integers(0, 10**6),
                msg=st.sampled_from(["RRCSetupRequest", "Paging", "x" * 70]),
                protocol=st.sampled_from(["RRC", "NAS"]),
                direction=st.sampled_from(["UL", "DL"]),
                session_id=st.integers(0, 2**40),
                rnti=st.none() | st.integers(0, 0xFFFF),
                s_tmsi=st.none() | st.integers(-(2**33), 2**33),
                suci=st.none() | st.text(max_size=40),
                supi=st.none() | st.text(max_size=20),
                cipher_alg=st.none() | st.integers(0, 3),
                integrity_alg=st.none() | st.integers(0, 3),
                establishment_cause=st.none() | st.sampled_from(["mo-Data", "emergency"]),
            ),
            max_size=6,
        )
    )
    def test_valid_batch_roundtrips_with_spans(self, records):
        """What the agent really sends: decoded equal, and every span is
        exactly the record's own encoding."""
        encoded = encode_batch(records)
        assert encoded == generic_batch_bytes(records)
        decoded = decode_batch(encoded)
        assert isinstance(decoded, RecordBatch) and list(decoded) == records
        assert decoded.payload == encoded
        assert len(decoded.spans) == len(records)
        for record, (start, stop) in zip(records, decoded.spans):
            assert encoded[start:stop] == wire.encode(record.to_wire_dict())
            assert encoded[start:stop] == encode_record(record)
            assert decode_record(encoded[start:stop]) == record


class TestGoldenBytes:
    """The planned codecs against the bytes the generic codec of PR 16 wrote,
    re-pinned for revision 2 from those bytes and the symbol table."""

    OBJECTS = {
        "message_enum_wide_int_bool": rrc.RrcSetupRequest(
            establishment_cause=rrc.EstablishmentCause.MO_DATA,
            ue_identity=0x9ABCDEF012,
            identity_is_tmsi=True,
        ),
        "message_long_container": f1ap.F1UlRrcMessageTransfer(
            gnb_du_ue_id=3, gnb_cu_ue_id=1025, rrc_container=bytes(range(200))
        ),
        "message_int_enums_nested_list": nas.NasSecurityModeCommand(
            cipher_alg=CipherAlg.NEA0,
            integrity_alg=IntegrityAlg.NIA2,
            replayed_capabilities=["NEA0", ["NIA1", 2]],
        ),
        "message_no_fields": rrc.RrcSecurityModeComplete(),
        "message_floats": rrc.RrcMeasurementReport(rsrp_dbm=-101.5, rsrq_db=-0.0),
        "e2ap_indication": e2ap.RicIndication(
            ric_request_id=7,
            ran_function_id=142,
            sequence_number=300000,
            indication_header=b"hdr",
            indication_message=bytes(130),
        ),
        "e2ap_subscription_policy": e2ap.RicSubscriptionRequest(
            ric_request_id=2,
            ran_function_id=142,
            event_trigger=b"\x08\x00",
            action_type=ActionType.POLICY,
        ),
        "e2ap_setup_dict_field": e2ap.E2SetupRequest(
            e2_node_id="gnb-cu-0", ran_functions={"142": "ORAN-E2SM-KPM-MobiFlow"}
        ),
        "e2ap_control_ack_bools": e2ap.RicControlAck(
            ric_request_id=9, ran_function_id=142, success=False, outcome="no active context"
        ),
    }
    BATCH = [
        MobiFlowRecord(
            timestamp=12.625,
            msg="RRCSetupRequest",
            protocol="RRC",
            direction="UL",
            session_id=7,
            rnti=0x4601,
            s_tmsi=0xDEADBEEF,
            establishment_cause="mo-Data",
        ),
        MobiFlowRecord(
            timestamp=12.75,
            msg="NASSecurityModeCommand",
            protocol="NAS",
            direction="DL",
            session_id=7,
            rnti=0x4601,
            s_tmsi=0xDEADBEEF,
            suci="suci-001-01-0000-0-0-1234567890",
            supi="imsi-001011234567890",
            cipher_alg=0,
            integrity_alg=2,
        ),
        MobiFlowRecord(timestamp=13, msg="Paging", protocol="RRC", direction="DL"),
    ]

    @pytest.mark.parametrize("name", sorted(OBJECTS))
    def test_object(self, name):
        obj, golden = self.OBJECTS[name], GOLDEN[name]
        assert obj.to_wire() == golden
        decoded = type(obj).from_wire(golden)
        assert type(decoded) is type(obj)
        assert repr(decoded) == repr(obj)  # -0.0 stays -0.0, True stays True

    def test_batch(self):
        golden = GOLDEN["mobiflow_batch"]
        assert encode_batch(self.BATCH) == golden
        decoded = decode_batch(golden)
        assert list(decoded) == self.BATCH
        assert type(decoded[2].timestamp) is int
        assert [golden[a:b] for a, b in decoded.spans] == [
            wire.encode(record.to_wire_dict()) for record in self.BATCH
        ]

    @pytest.mark.parametrize("name", sorted(OBJECTS))
    def test_revision_1_object_still_decodes(self, name):
        obj, old = self.OBJECTS[name], REVISION_1[name]
        assert old != GOLDEN[name]
        decoded = type(obj).from_wire(old)
        assert type(decoded) is type(obj) and repr(decoded) == repr(obj)
        assert decoded.to_wire() == GOLDEN[name]

    def test_revision_1_batch_still_decodes_without_spans(self):
        decoded = decode_batch(REVISION_1["mobiflow_batch"])
        assert list(decoded) == self.BATCH and decoded.spans is None
        assert encode_batch(decoded) == GOLDEN["mobiflow_batch"]

    @pytest.mark.parametrize("name", sorted(OBJECTS) + ["mobiflow_batch"])
    def test_every_strict_prefix_is_rejected(self, name):
        golden = GOLDEN[name]
        decode = decode_batch if name == "mobiflow_batch" else self._decoder(name)
        for cut in range(len(golden)):
            with pytest.raises(ValueError):
                decode(golden[:cut])
            with pytest.raises(ValueError):
                decode(golden + golden[: cut + 1])  # and trailing bytes

    @staticmethod
    def _decoder(name):
        return Message.from_wire if name.startswith("message") else E2apPdu.from_wire


# -- valid bytes the planned encoders would not have written ----------------------


def tlv(tag: int, body: bytes, long_form: bool = False) -> bytes:
    """One TLV; ``long_form`` spends a second, empty length byte."""
    if long_form:
        assert len(body) < 0x80
        return bytes([tag, len(body) | 0x80, 0]) + body
    return bytes([tag]) + wire._encode_length(len(body)) + body


def spelled(value: str, long_form: bool = False) -> bytes:
    """A string written out, table name or not (the revision-1 form)."""
    return tlv(0x05, value.encode(), long_form)


def text(value: str) -> bytes:
    """A string as the encoder writes it: a table name as its symbol."""
    if value in wire.SYMBOLS:
        return bytes([0x09, wire.SYMBOLS.index(value)])
    return spelled(value)


def pairs(*items, long_form: bool = False) -> bytes:
    """A dict from alternating key str / encoded value."""
    body = b"".join(text(item) if isinstance(item, str) else item for item in items)
    return tlv(0x08, body, long_form)


CAUSE = text("mo-Data")
IDENTITY = wire.encode(77)
IS_TMSI = wire.encode(True)
SETUP_REQUEST = rrc.RrcSetupRequest(
    establishment_cause=rrc.EstablishmentCause.MO_DATA, ue_identity=77, identity_is_tmsi=True
)
CANONICAL_IE = pairs(
    "establishment_cause", CAUSE, "ue_identity", IDENTITY, "identity_is_tmsi", IS_TMSI
)
NAME = text("RRCSetupRequest")
# The same IEs with the cause written out: valid, read by the plan, and
# the only string in them with a length byte to tamper with.
SPELLED_CAUSE_IE = pairs(
    "establishment_cause", spelled("mo-Data"), "ue_identity", IDENTITY, "identity_is_tmsi", IS_TMSI
)

NON_CANONICAL_MESSAGES = {
    "reordered_ies": pairs(
        "msg", NAME, "ie",
        pairs("identity_is_tmsi", IS_TMSI, "establishment_cause", CAUSE, "ue_identity", IDENTITY),
    ),
    "ie_before_msg": pairs("ie", CANONICAL_IE, "msg", NAME),
    "long_form_outer_length": pairs("msg", NAME, "ie", CANONICAL_IE, long_form=True),
    "long_form_ie_length": pairs(
        "msg", NAME, "ie",
        pairs(
            "establishment_cause", CAUSE, "ue_identity", IDENTITY, "identity_is_tmsi", IS_TMSI,
            long_form=True,
        ),
    ),
    "long_form_key": pairs(
        "msg", NAME, "ie",
        pairs(
            spelled("establishment_cause", long_form=True), CAUSE,
            "ue_identity", IDENTITY, "identity_is_tmsi", IS_TMSI,
        ),
    ),
    "long_form_value": pairs(
        "msg", NAME, "ie",
        pairs(
            "establishment_cause", spelled("mo-Data", long_form=True),
            "ue_identity", IDENTITY, "identity_is_tmsi", IS_TMSI,
        ),
    ),
    "long_form_name": pairs("msg", spelled("RRCSetupRequest", long_form=True), "ie", CANONICAL_IE),
    "non_minimal_int": pairs(
        "msg", NAME, "ie",
        pairs(
            "establishment_cause", CAUSE, "ue_identity", tlv(0x03, b"\x00\x00\x4d"),
            "identity_is_tmsi", IS_TMSI,
        ),
    ),
    "duplicate_ie_last_wins": pairs(
        "msg", NAME, "ie",
        pairs(
            "establishment_cause", CAUSE, "ue_identity", wire.encode(5),
            "ue_identity", IDENTITY, "identity_is_tmsi", IS_TMSI,
        ),
    ),
    "duplicate_msg_last_wins": pairs("msg", text("RRCSetup"), "msg", NAME, "ie", CANONICAL_IE),
    "unknown_ie_ignored": pairs(
        "msg", NAME, "ie",
        pairs(
            "establishment_cause", CAUSE, "ue_identity", IDENTITY, "identity_is_tmsi", IS_TMSI,
            "vendor_extension", wire.encode([1, 2]),
        ),
    ),
    "unknown_top_level_key": pairs("msg", NAME, "ie", CANONICAL_IE, "trailer", wire.encode(None)),
    # Table names written out, as every encoder did before revision 2.
    "spelled_out_key": pairs(
        "msg", NAME, "ie",
        pairs(
            spelled("establishment_cause"), CAUSE,
            "ue_identity", IDENTITY, "identity_is_tmsi", IS_TMSI,
        ),
    ),
    "spelled_out_value": pairs("msg", NAME, "ie", SPELLED_CAUSE_IE),
    "spelled_out_name": pairs("msg", spelled("RRCSetupRequest"), "ie", CANONICAL_IE),
    "spelled_out_envelope_keys": pairs(spelled("msg"), NAME, spelled("ie"), CANONICAL_IE),
    "revision_1_bytes": pairs(
        spelled("msg"), spelled("RRCSetupRequest"), spelled("ie"),
        pairs(
            spelled("establishment_cause"), spelled("mo-Data"),
            spelled("ue_identity"), IDENTITY, spelled("identity_is_tmsi"), IS_TMSI,
        ),
    ),
}  # fmt: skip
# Odd lengths, ints or value spellings under the right keys: the planned
# message decoder reads any valid encoding of a value (it keeps no spans).
READ_BY_THE_PLAN = ("long_form", "non_minimal_int", "spelled_out_value")

RECORD = base_record(rnti=0x4601)
RECORD_ITEMS = (
    "timestamp", wire.encode(1.5), "msg", text("RRCSetup"), "protocol", text("RRC"),
    "direction", text("DL"), "session_id", wire.encode(3), "rnti", wire.encode(0x4601),
)  # fmt: skip


def batch_of(*records: bytes, long_form: bool = False) -> bytes:
    return tlv(0x07, b"".join(records), long_form)


NON_CANONICAL_BATCHES = {
    "reordered_keys": batch_of(pairs(*RECORD_ITEMS[2:], *RECORD_ITEMS[:2])),
    "explicit_none": batch_of(pairs(*RECORD_ITEMS, "suci", wire.encode(None))),
    "long_form_record_length": batch_of(pairs(*RECORD_ITEMS, long_form=True)),
    "long_form_list_length": batch_of(pairs(*RECORD_ITEMS), long_form=True),
    "long_form_value": batch_of(
        pairs(*RECORD_ITEMS[:3], spelled("RRCSetup", long_form=True), *RECORD_ITEMS[4:])
    ),
    "long_form_key": batch_of(pairs(spelled("timestamp", long_form=True), *RECORD_ITEMS[1:])),
    "non_minimal_int": batch_of(pairs(*RECORD_ITEMS[:-1], tlv(0x03, b"\x00\x00\x46\x01"))),
    "empty_int_is_zero": batch_of(pairs(*RECORD_ITEMS[:-1], tlv(0x03, b""))),
    "duplicate_key_last_wins": batch_of(
        pairs("timestamp", wire.encode(9.0), *RECORD_ITEMS)
    ),
    "session_id_left_to_default": batch_of(pairs(*RECORD_ITEMS[:8], *RECORD_ITEMS[10:])),
    "canonical_then_reordered": batch_of(
        pairs(*RECORD_ITEMS), pairs(*RECORD_ITEMS[2:], *RECORD_ITEMS[:2])
    ),
    # One table name written out is enough to lose the span: the stored
    # bytes must be what encoding the record gives.
    "spelled_out_key": batch_of(pairs(spelled("timestamp"), *RECORD_ITEMS[1:])),
    "spelled_out_value": batch_of(
        pairs(*RECORD_ITEMS[:3], spelled("RRCSetup"), *RECORD_ITEMS[4:])
    ),
    "revision_1_bytes": batch_of(
        pairs(
            spelled("timestamp"), wire.encode(1.5), spelled("msg"), spelled("RRCSetup"),
            spelled("protocol"), spelled("RRC"), spelled("direction"), spelled("DL"),
            spelled("session_id"), wire.encode(3), spelled("rnti"), wire.encode(0x4601),
        )
    ),
}


class TestNonCanonicalInput:
    """The planned decoders step aside; the generic path answers as before."""

    def test_the_canonical_form_is_what_the_encoder_writes(self):
        assert pairs("msg", NAME, "ie", CANONICAL_IE) == SETUP_REQUEST.to_wire()
        assert batch_of(pairs(*RECORD_ITEMS)) == encode_batch([RECORD])

    @pytest.mark.parametrize("name", sorted(NON_CANONICAL_MESSAGES))
    def test_message(self, name):
        data = NON_CANONICAL_MESSAGES[name]
        assert data != SETUP_REQUEST.to_wire()
        if not any(part in name for part in READ_BY_THE_PLAN):
            # Keys out of place or not as written: only the generic decode
            # can answer.
            assert messages._PLANS.decode(data) is None
        decoded = Message.from_wire(data)
        assert decoded == generic_message(data)
        assert decoded == SETUP_REQUEST

    def test_pdu_reordered_and_unknown_ies(self):
        pdu = e2ap.RicSubscriptionDeleteRequest(ric_request_id=4, ran_function_id=142)
        data = pairs(
            "ie",
            pairs("ran_function_id", wire.encode(142), "x", b"\x00", "ric_request_id", wire.encode(4)),
            "pdu",
            text(pdu.PDU),
        )
        assert E2apPdu.from_wire(data) == generic_pdu(data) == pdu

    def test_pdu_ies_that_are_not_a_dict_are_an_e2ap_error(self):
        with pytest.raises(E2apError, match="not a dict"):
            E2apPdu.from_wire(wire.encode({"pdu": "RICIndication", "ie": [1, 2]}))

    @pytest.mark.parametrize("name", sorted(NON_CANONICAL_BATCHES))
    def test_batch(self, name):
        data = NON_CANONICAL_BATCHES[name]
        decoded = decode_batch(data)
        assert list(decoded) == generic_batch(data)
        if name == "long_form_list_length":
            # Only the list header is odd; the record's own bytes are canonical.
            ((start, stop),) = decoded.spans
            assert data[start:stop] == encode_record(RECORD)
        else:
            # No span: these bytes are not what re-encoding the record gives.
            assert decoded.spans is None
        if name == "empty_int_is_zero":
            assert decoded[0] == base_record(rnti=0)
        elif name == "session_id_left_to_default":
            assert decoded[0] == base_record(rnti=0x4601, session_id=0)
        else:
            assert decoded[0] == RECORD

    @pytest.mark.parametrize(
        "data,error",
        [
            (batch_of(pairs(*RECORD_ITEMS, "vendor_extension", wire.encode(1))), ValueError),
            (batch_of(pairs(*RECORD_ITEMS[2:])), TypeError),  # no timestamp
            (batch_of(wire.encode(7)), TypeError),
            (pairs(*RECORD_ITEMS), wire.WireError),  # a record, not a batch
        ],
        ids=["unknown_key", "missing_required", "record_not_a_dict", "not_a_list"],
    )
    def test_batch_rejections_are_the_generic_path_s(self, data, error):
        with pytest.raises(error):
            decode_batch(data)
        with pytest.raises(error):
            generic_batch(data)

    def test_child_overrunning_the_ie_dict_is_rejected(self):
        """The last IE claims one byte more than its dict holds; the byte
        exists further on (a sibling key), so only the parent's bound can
        catch it — on the planned path as on the generic one."""
        ie = bytearray(SPELLED_CAUSE_IE)
        cause_length = SPELLED_CAUSE_IE.index(b"\x05\x07mo-Data") + 1
        ie[cause_length] += 1
        data = pairs("msg", NAME, "ie", bytes(ie), "pad", wire.encode(None))
        with pytest.raises(MessageError):
            Message.from_wire(data)
        with pytest.raises(MessageError):
            generic_message(data)

    def test_record_overrunning_its_batch_is_rejected(self):
        record = pairs(*RECORD_ITEMS)
        data = tlv(0x07, record[:-1]) + record[-1:]
        with pytest.raises(wire.WireError):
            decode_batch(data)


class TestDepthBound:
    def test_nested_field_at_and_past_the_bound(self):
        deep: object = "leaf"
        for _ in range(wire.MAX_DEPTH - 2):  # the envelope is two levels itself
            deep = [deep]
        fits = nas.NasSecurityModeCommand(replayed_capabilities=deep)
        assert fits.to_wire() == generic_message_bytes(fits)
        assert Message.from_wire(fits.to_wire()) == fits
        too_deep = nas.NasSecurityModeCommand(replayed_capabilities=[deep])
        with pytest.raises(wire.WireError, match="nesting too deep"):
            too_deep.to_wire()
        # The same value one level deeper, as bytes: refused by the decoder.
        inner = wire.encode(deep)
        hostile = pairs(
            "msg", text("NASSecurityModeCommand"), "ie",
            pairs(
                "cipher_alg", wire.encode(2), "integrity_alg", wire.encode(2),
                "replayed_capabilities", tlv(0x07, inner),
            ),
        )  # fmt: skip
        with pytest.raises(MessageError, match="nesting too deep"):
            Message.from_wire(hostile)

    def test_nesting_bomb_in_a_batch_is_a_wire_error(self):
        with pytest.raises(wire.WireError, match="nesting too deep"):
            decode_batch(nested_lists(2000))


# -- mutation fuzz: PR 14's strategy on planned encodings ---------------------------


def mutate(encoded: bytes, data) -> bytes:
    mutated = bytearray(encoded)
    position = data.draw(st.integers(0, len(mutated) - 1))
    mutation = data.draw(st.sampled_from(["flip", "insert", "delete"]))
    if mutation == "flip":
        mutated[position] ^= 1 << data.draw(st.integers(0, 7))
    elif mutation == "insert":
        mutated.insert(position, data.draw(st.integers(0, 255)))
    else:
        del mutated[position]
    return bytes(mutated)


message_instances = st.sampled_from(
    [cls() for cls in MESSAGE_CLASSES] + list(TestGoldenBytes.OBJECTS.values())[:5]
)
pdu_instances = st.sampled_from(
    [cls() for cls in PDU_CLASSES] + list(TestGoldenBytes.OBJECTS.values())[5:]
)


class TestMutatedEncodings:
    """One byte flipped, inserted or deleted in a planned encoding: the
    planned decoder and the generic path raise the same exception type or
    return the same value — never IndexError, never a different answer."""

    @examples(300)
    @given(message_instances, st.data())
    def test_message(self, message, data):
        mutated = mutate(message.to_wire(), data)
        got = outcome(Message.from_wire, mutated)
        assert got == outcome(generic_message, mutated)
        assert got[0] == "ok" or issubclass(got[1], (ValueError, TypeError))

    @examples(200)
    @given(pdu_instances, st.data())
    def test_pdu(self, pdu, data):
        mutated = mutate(pdu.to_wire(), data)
        got = outcome(E2apPdu.from_wire, mutated)
        assert got == outcome(generic_pdu, mutated)
        assert got[0] == "ok" or issubclass(got[1], (ValueError, TypeError))

    @examples(300)
    @given(st.integers(1, 3), st.data())
    def test_batch(self, count, data):
        mutated = mutate(encode_batch(TestGoldenBytes.BATCH[:count]), data)
        got = outcome(decode_batch, mutated)
        assert got == outcome(generic_batch, mutated)
        assert got[0] == "ok" or issubclass(got[1], (ValueError, TypeError))
        if got[0] == "ok":
            # A span survives only where the bytes are still canonical.
            decoded = decode_batch(mutated)
            for record, (start, stop) in zip(decoded, decoded.spans or ()):
                assert mutated[start:stop] == wire.encode(record.to_wire_dict())


# -- plans are per class and follow the enum registry --------------------------------


class _LateEnum(enum.Enum):
    A = "a"
    B = "b"


class TestPlanLifetime:
    def test_canonical_bytes_take_the_planned_path_once_the_plan_exists(self):
        @dataclass
        class Fresh(Message):
            NAME = "TestWirePlansFresh"
            number: int = 0

        encoded = Fresh(number=5).to_wire()  # builds the plan
        assert messages._PLANS.decode(encoded) == Fresh(number=5)
        messages._PLANS.clear()
        # No plan yet: the generic path decodes it and leaves a plan behind.
        assert messages._PLANS.decode(encoded) is None
        assert Message.from_wire(encoded) == Fresh(number=5)
        assert messages._PLANS.decode(encoded) == Fresh(number=5)

    def test_register_enum_field_type_invalidates_built_plans(self):
        @dataclass
        class Late(Message):
            NAME = "TestWirePlansLate"
            choice: "_LateEnum" = _LateEnum.A
            maybe: "Optional[_LateEnum]" = None

        encoded = Late(choice=_LateEnum.B).to_wire()
        assert encoded == wire.encode({"msg": Late.NAME, "ie": {"choice": "b", "maybe": None}})
        assert Message.from_wire(encoded).choice == "b"  # not a known enum yet
        register_enum_field_type(_LateEnum)
        assert messages._PLANS.decode(encoded) is None  # every plan was dropped
        decoded = Message.from_wire(encoded)
        assert decoded.choice is _LateEnum.B and decoded.maybe is None
        assert Message.from_wire(Late(maybe=_LateEnum.A).to_wire()).maybe is _LateEnum.A
        with pytest.raises(ValueError):
            Message.from_wire(wire.encode({"msg": Late.NAME, "ie": {"choice": "z", "maybe": None}}))

    def test_subclass_gets_its_own_plan_and_head(self):
        @dataclass
        class Parent(Message):
            NAME = "TestWirePlansParent"
            first: int = 1

        assert Message.from_wire(Parent(first=2).to_wire()) == Parent(first=2)

        @dataclass
        class Child(Parent):
            NAME = "TestWirePlansChild"
            second: bytes = b""

        child = Child(first=3, second=bytes(200))
        assert child.to_wire() == generic_message_bytes(child)
        decoded = Message.from_wire(child.to_wire())
        assert type(decoded) is Child and decoded == child
        assert type(Message.from_wire(Parent().to_wire())) is Parent

    def test_unregistered_class_encodes_but_is_not_decodable(self):
        @dataclass
        class Anonymous(Message):
            value: int = 0

        encoded = Anonymous(value=4).to_wire()
        assert encoded == wire.encode({"msg": "", "ie": {"value": 4}})
        with pytest.raises(MessageError, match="unknown message name ''"):
            Message.from_wire(encoded)


# -- the marker for bytes that are already a value ------------------------------------


class TestEncodedMarker:
    VALUE = {"timestamp": 1.5, "msg": "RRCSetup", "rnti": 70000, "tags": [1, None]}

    def test_embeds_verbatim_at_top_level_and_nested(self):
        encoded = wire.encode(self.VALUE)
        padded = b"\xff" * 3 + encoded + b"\xee" * 2
        marker = wire.Encoded(padded, 3, 3 + len(encoded))
        assert wire.encode(marker) == encoded
        assert wire.encode(wire.Encoded(encoded)) == encoded
        assert wire.encode({"k": marker, "l": [marker, 7, marker]}) == wire.encode(
            {"k": self.VALUE, "l": [self.VALUE, 7, self.VALUE]}
        )
        assert wire.encode([wire.Encoded(wire.encode(5))]) == wire.encode([5])
        assert marker.value() == self.VALUE
        assert wire.plain(marker) == self.VALUE
        assert wire.plain(self.VALUE) is self.VALUE

    def test_value_rejects_a_span_that_is_not_one_value(self):
        encoded = wire.encode(self.VALUE)
        with pytest.raises(wire.WireError):
            wire.Encoded(encoded + b"\x00").value()
        with pytest.raises(wire.WireError):
            wire.Encoded(encoded, 0, len(encoded) - 1).value()

    def test_container_span_counts_against_the_depth_bound(self):
        value: object = wire.Encoded(wire.encode([1]))
        for _ in range(wire.MAX_DEPTH):
            value = [value]
        with pytest.raises(wire.WireError, match="nesting too deep"):
            wire.encode(value)
        scalar: object = wire.Encoded(wire.encode(1))
        for _ in range(wire.MAX_DEPTH):
            scalar = [scalar]
        assert wire.encode(scalar)[-3:] == wire.encode(1)

    @pytest.mark.parametrize("make_sdl", [SharedDataLayer, lambda: ShardedSdl(shards=3, replication=2)])
    def test_sdl_stores_a_span_as_the_bytes_of_its_value(self, make_sdl):
        record = TestGoldenBytes.BATCH[1]
        payload = encode_batch(TestGoldenBytes.BATCH)
        start, stop = decode_batch(payload).spans[1]
        spans, dicts = make_sdl(), make_sdl()
        seen = []
        spans.watch("ns", lambda namespace, key, value: seen.append((key, value)))
        extra = {} if isinstance(spans, SharedDataLayer) else {"shard_key": "7"}
        spans.set_many("ns", [("a", wire.Encoded(payload, start, stop)), ("b", {"n": 1})], **extra)
        dicts.set_many("ns", [("a", record.to_wire_dict()), ("b", {"n": 1})], **extra)
        spans.set("ns", "c", wire.Encoded(payload, start, stop))
        dicts.set("ns", "c", record.to_wire_dict())
        assert spans.get("ns", "a", **extra) == record.to_wire_dict() == spans.get("ns", "c")
        # Watchers are handed values, never spans.
        assert seen == [("a", record.to_wire_dict()), ("b", {"n": 1}), ("c", record.to_wire_dict())]
        if isinstance(spans, SharedDataLayer):
            assert spans._data == dicts._data
        else:
            assert {n: s.data for n, s in spans._shards.items()} == {
                n: s.data for n, s in dicts._shards.items()
            }
        assert spans.writes == dicts.writes == 2
        assert spans._value_bytes.total == dicts._value_bytes.total
