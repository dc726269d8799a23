"""The codec contract of the per-class plans (``wire.ClassPlan``).

``Message``, ``E2apPdu`` and the MobiFlow batch no longer pass through a
dict on their way to and from bytes, and each has one decoder: its plan's.
The planned encoders must write the bytes ``wire.encode`` writes for the
dict they replaced. The planned decoders accept exactly those bytes: on
them they return what the generic decode followed by the old construction
returned, when that object encodes back to the same bytes, and they refuse
everything else with the family's error type (``MessageError``,
``E2apError``, ``WireError``). The oracles below are those old code paths,
kept here; the golden bytes are the ones in tests/test_wire.py
(``GOLDEN_VECTORS`` / fixtures/wire_decode_golden.json).

Since wire format revision 3 a record leaves ``protocol`` and ``direction``
off where the catalogue entry of its ``msg`` gives them; the record oracles
apply that rule from the pinned table (fixtures/mobiflow_catalogue.json),
not from the codec's own. Bytes of older revisions are still valid TLV
values, which the generic ``wire.decode`` reads; the class decoders refuse
them, and the edges count them.
"""

import copy
import dataclasses
import enum
import json
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

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
from tests.fixtures.repin_wire_golden import canonical
from tests.test_core_units import indication, make_ric
from tests.test_wire import DECODE_GOLDEN, FIRST_PINNED, GOLDEN_VECTORS, examples, nested_lists

GOLDEN = {name: bytes.fromhex(golden) for name, _, golden in GOLDEN_VECTORS}
# The same vectors as every encoder wrote them before revision 2 (names
# spelled out) and at revisions 2 and 3 (two-byte symbols): no longer
# produced, and refused by the class decoders.
REVISION_1 = {name: bytes.fromhex(FIRST_PINNED[f"wire:{name}"]) for name in GOLDEN}
_ROWS = {row["id"]: row for row in DECODE_GOLDEN}
REVISION_2 = {
    name: bytes.fromhex(_ROWS[f"wire:{name}"].get("hex_v2", _ROWS[f"wire:{name}"]["hex"]))
    for name in GOLDEN
}
# The golden batch as the record codec wrote it at revision 3, and as it
# writes it since revision 4.
REVISION_3_BATCH = bytes.fromhex(_ROWS["wire:mobiflow_batch"]["hex_v3"])
REVISION_4_BATCH = bytes.fromhex(_ROWS["wire:mobiflow_batch"]["hex_v4_records"])
CATALOGUE = {
    name: (protocol, direction)
    for name, protocol, direction in json.loads(
        (Path(__file__).parent / "fixtures" / "mobiflow_catalogue.json").read_text()
    )
}

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


def derived_fields(msg) -> dict:
    """What the pinned catalogue says ``protocol`` / ``direction`` are."""
    entry = CATALOGUE.get(msg) if isinstance(msg, str) else None
    return {} if entry is None else dict(zip(("protocol", "direction"), entry))


def wire_dict(record: MobiFlowRecord) -> dict:
    """The record's (key, value) dict as revision 3 writes it: non-null
    fields, less a protocol / direction equal to its catalogue entry."""
    derived = derived_fields(record.msg)
    return {
        name: value
        for name, value in zip(FIELD_NAMES, record)
        if value is not None and not (name in derived and value == derived[name])
    }


def revision_2_bytes(records) -> bytes:
    """The batch as revision 2 wrote it: every non-null field, names as
    two-byte symbols."""
    dicts = [
        {name: value for name, value in zip(FIELD_NAMES, r) if value is not None} for r in records
    ]
    return canonical(wire.encode(dicts), 2)


def generic_batch_bytes(records) -> bytes:
    return wire.encode([wire_dict(record) for record in records])


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
        if isinstance(item, dict) and not {"protocol", "direction"} <= item.keys():
            derived = derived_fields(item.get("msg"))
            if not derived:
                raise ValueError("protocol or direction left off an uncatalogued msg")
            item = {**derived, **item}
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


def assert_one_decoder(decode, oracle, encode, error, data: bytes) -> None:
    """``decode`` on ``data``: what the old generic path returned, when that
    encodes back to ``data``; refused with ``error`` otherwise."""
    try:
        expected = oracle(data)
        canonical_bytes = encode(expected) == data
    except (ValueError, TypeError):
        canonical_bytes = False
    if canonical_bytes:
        assert outcome(decode, data) == outcome(oracle, data)
    else:
        with pytest.raises(error):
            decode(data)


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
    assert_one_decoder(
        Message.from_wire, generic_message, Message.to_wire, MessageError, encoded
    )


def assert_pdu_contract(pdu: E2apPdu) -> None:
    try:
        expected = generic_pdu_bytes(pdu)
    except wire.WireError:
        with pytest.raises(wire.WireError):
            pdu.to_wire()
        return
    encoded = pdu.to_wire()
    assert encoded == expected
    assert_one_decoder(E2apPdu.from_wire, generic_pdu, E2apPdu.to_wire, E2apError, encoded)


def assert_batch_contract(records: list) -> None:
    try:
        expected = generic_batch_bytes(records)
    except wire.WireError:
        with pytest.raises(wire.WireError):
            encode_batch(records)
        return
    encoded = encode_batch(records)
    assert encoded == expected
    assert [record.to_wire_dict() for record in records] == [wire_dict(r) for r in records]
    assert_one_decoder(decode_batch, generic_batch, encode_batch, wire.WireError, encoded)


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


catalogue_records = st.builds(
    MobiFlowRecord,
    timestamp=st.floats(0, 1e6) | st.integers(0, 10**6),
    msg=st.sampled_from(sorted(CATALOGUE)) | st.text(max_size=12) | st.sampled_from(wire.SYMBOLS),
    protocol=st.sampled_from(["RRC", "NAS"]) | st.text(max_size=4),
    direction=st.sampled_from(["UL", "DL"]) | st.text(max_size=4),
    session_id=st.integers(0, 2**40),
    rnti=st.none() | st.integers(0, 0xFFFF),
    s_tmsi=st.none() | st.integers(0, 2**40),
    suci=st.none() | st.text(max_size=8),
    supi=st.none(),
    cipher_alg=st.none() | st.integers(0, 3),
    integrity_alg=st.none() | st.integers(0, 3),
    establishment_cause=st.none() | st.sampled_from(["mo-Data", "emergency"]),
)


class TestCatalogueFieldsLeftOff:
    """Revision 3: a record's ``protocol`` / ``direction`` cross the wire
    only where they differ from the catalogue entry of its ``msg``."""

    @examples(300)
    @given(st.lists(catalogue_records, max_size=6))
    def test_round_trip_spans_and_what_is_written(self, records):
        encoded = encode_batch(records)
        decoded = decode_batch(encoded)
        assert list(decoded) == records
        assert [encoded[start:stop] for start, stop in decoded.spans] == [
            encode_record(record) for record in records
        ]
        for record, written in zip(records, wire.decode(encoded)):
            assert written == wire_dict(record)
            for name, value in derived_fields(record.msg).items():
                assert written.get(name) != value
        # The same records with both fields written out, as revision 2 did,
        # and as revision 3 wrote them: the same dicts to the generic
        # codec, refused by the record decoder.
        for old in (revision_2_bytes(records), canonical(encoded, 2)):
            assert generic_batch(old) == records
            if old != encoded:
                with pytest.raises(wire.WireError):
                    decode_batch(old)


class TestGoldenBytes:
    """The planned codecs against the bytes the generic codec of PR 16 wrote,
    re-pinned for revisions 2 and 4 from those bytes and the symbol table,
    and the record batch for revisions 3 and 4 from those and the
    catalogue."""

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
        golden = REVISION_4_BATCH
        assert encode_batch(self.BATCH) == golden
        # protocol and direction, one-byte keys and values, on each record
        assert len(golden) == len(GOLDEN["mobiflow_batch"]) - 3 * 4
        assert len(REVISION_3_BATCH) == len(REVISION_2["mobiflow_batch"]) - 3 * 8
        decoded = decode_batch(golden)
        assert list(decoded) == self.BATCH
        assert type(decoded[2].timestamp) is int
        assert [golden[a:b] for a, b in decoded.spans] == [
            wire.encode(record.to_wire_dict()) for record in self.BATCH
        ]

    # Bytes of an older revision are still one valid TLV value, which the
    # generic codec reads as it reads today's; the class decoders refuse
    # them.

    def test_revision_2_batch_still_decodes_without_spans(self):
        for old in (REVISION_2["mobiflow_batch"], GOLDEN["mobiflow_batch"]):
            assert generic_batch(old) == self.BATCH
            with pytest.raises(wire.WireError):
                decode_batch(old)

    def test_revision_3_batch_still_decodes_without_spans(self):
        assert generic_batch(REVISION_3_BATCH) == self.BATCH
        with pytest.raises(wire.WireError):
            decode_batch(REVISION_3_BATCH)

    @pytest.mark.parametrize("name", sorted(OBJECTS))
    def test_revision_1_object_still_decodes(self, name):
        obj, old = self.OBJECTS[name], REVISION_1[name]
        assert old != GOLDEN[name]
        assert wire.decode(old) == wire.decode(GOLDEN[name])
        with pytest.raises(self._error(name)):
            type(obj).from_wire(old)

    @pytest.mark.parametrize("name", sorted(OBJECTS))
    def test_revision_2_object_still_decodes(self, name):
        """Two-byte symbols: the generic codec reads them, the class
        decoder refuses them."""
        obj, old = self.OBJECTS[name], REVISION_2[name]
        assert old != GOLDEN[name] and len(old) > len(GOLDEN[name])
        assert wire.decode(old) == wire.decode(GOLDEN[name])
        plans = messages._PLANS if name.startswith("message") else e2ap._PLANS
        with pytest.raises(wire.WireError):
            plans.decode(old)
        with pytest.raises(self._error(name)):
            type(obj).from_wire(old)

    def test_revision_1_batch_still_decodes_without_spans(self):
        assert generic_batch(REVISION_1["mobiflow_batch"]) == self.BATCH
        with pytest.raises(wire.WireError):
            decode_batch(REVISION_1["mobiflow_batch"])

    @pytest.mark.parametrize("name", sorted(OBJECTS) + ["mobiflow_batch"])
    def test_every_strict_prefix_is_rejected(self, name):
        if name == "mobiflow_batch":
            golden, decode = REVISION_4_BATCH, decode_batch
        else:
            golden, decode = GOLDEN[name], self._decoder(name)
        for cut in range(len(golden)):
            with pytest.raises(ValueError):
                decode(golden[:cut])
            with pytest.raises(ValueError):
                decode(golden + golden[: cut + 1])  # and trailing bytes

    @staticmethod
    def _decoder(name):
        return Message.from_wire if name.startswith("message") else E2apPdu.from_wire

    @staticmethod
    def _error(name):
        return MessageError if name.startswith("message") else E2apError


FIXTURES = Path(__file__).parent / "fixtures"


class TestOlderRevisionsAreRefused:
    """Bytes the revision-2 and revision-3 encoders wrote, pinned from them:
    an E2 indication of eight records (fixtures/revision_{2,3}_e2.json) and
    a ``.mfl`` series of twenty (fixtures/revision_{2,3}_series.mfl), two of
    them outside the catalogue. They are still valid TLV values holding the
    pinned records, and nothing in the tree reads them any more: the E2
    termination counts and drops the indication, and the file does not
    load."""

    RECORDS = [
        MobiFlowRecord(*fields)
        for fields in json.loads((FIXTURES / "revision_2_e2.json").read_text())["records"]
    ]

    @pytest.mark.parametrize("revision", [2, 3])
    def test_indication_is_counted_and_dropped(self, revision):
        from repro.oran.e2agent import _E2Envelope
        from repro.oran.e2sm_kpm import MobiFlowKpmModel
        from tests.test_e2_pipeline import _endpoints, rejected

        pinned = json.loads((FIXTURES / f"revision_{revision}_e2.json").read_text())
        data = bytes.fromhex(pinned["indication_hex"])
        ies = wire.decode(data)["ie"]
        assert generic_batch(ies["indication_message"]) == self.RECORDS[:8]
        net, agent, e2term, sent = _endpoints()
        e2term.on_e2(_E2Envelope(data))
        assert rejected(net.sim, "e2term") == 1 and sent == []
        with pytest.raises(wire.WireError):
            MobiFlowKpmModel.decode_indication(ies["indication_header"], ies["indication_message"])

    @pytest.mark.parametrize("revision", [2, 3])
    def test_mfl_file_does_not_load(self, revision):
        from repro.telemetry.persist import load_series

        mfl = FIXTURES / f"revision_{revision}_series.mfl"
        assert generic_batch(mfl.read_bytes()[4:]) == self.RECORDS
        assert [(r.msg, r.protocol) for r in self.RECORDS[-2:]] == [
            ("Paging", "NAS"),
            ("VendorReport", "RRC"),
        ]
        with pytest.raises(wire.WireError):
            load_series(mfl)


# -- valid TLV the encoders would not have written: refused and counted ------------


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
    """A string as the encoder writes it: a table name as its one-byte
    symbol (revision 4)."""
    if value in wire.SYMBOLS:
        return bytes([0x10 + wire.SYMBOLS.index(value)])
    return spelled(value)


def two_byte(value: str) -> bytes:
    """A table name as revisions 2 and 3 wrote it."""
    return bytes([0x09, wire.SYMBOLS.index(value)])


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
# The same IEs with the cause written out: valid TLV, and the only string
# in them with a length byte to tamper with.
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
    # Table names as two-byte symbols, as revisions 2 and 3 wrote them.
    "two_byte_key": pairs(
        "msg", NAME, "ie",
        pairs(
            two_byte("establishment_cause"), CAUSE,
            "ue_identity", IDENTITY, "identity_is_tmsi", IS_TMSI,
        ),
    ),
    "two_byte_value": pairs(
        "msg", NAME, "ie",
        pairs(
            "establishment_cause", two_byte("mo-Data"),
            "ue_identity", IDENTITY, "identity_is_tmsi", IS_TMSI,
        ),
    ),
    "two_byte_name": pairs("msg", two_byte("RRCSetupRequest"), "ie", CANONICAL_IE),
    "two_byte_envelope_keys": pairs(two_byte("msg"), NAME, two_byte("ie"), CANONICAL_IE),
    "revision_3_bytes": pairs(
        two_byte("msg"), two_byte("RRCSetupRequest"), two_byte("ie"),
        pairs(
            two_byte("establishment_cause"), two_byte("mo-Data"),
            two_byte("ue_identity"), IDENTITY, two_byte("identity_is_tmsi"), IS_TMSI,
        ),
    ),
    "revision_1_bytes": pairs(
        spelled("msg"), spelled("RRCSetupRequest"), spelled("ie"),
        pairs(
            spelled("establishment_cause"), spelled("mo-Data"),
            spelled("ue_identity"), IDENTITY, spelled("identity_is_tmsi"), IS_TMSI,
        ),
    ),
}  # fmt: skip

RECORD = base_record(rnti=0x4601)
# An RRCSetup is RRC DL, its catalogue entry: protocol and direction are
# left off.
RECORD_ITEMS = (
    "timestamp", wire.encode(1.5), "msg", text("RRCSetup"),
    "session_id", wire.encode(3), "rnti", wire.encode(0x4601),
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
    "session_id_left_to_default": batch_of(pairs(*RECORD_ITEMS[:4], *RECORD_ITEMS[6:])),
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
    # A two-byte symbol is enough too (revisions 2 and 3 wrote them).
    "two_byte_key": batch_of(pairs(two_byte("timestamp"), *RECORD_ITEMS[1:])),
    "two_byte_value": batch_of(
        pairs(*RECORD_ITEMS[:3], two_byte("RRCSetup"), *RECORD_ITEMS[4:])
    ),
    "revision_3_bytes": batch_of(
        pairs(
            two_byte("timestamp"), wire.encode(1.5), two_byte("msg"), two_byte("RRCSetup"),
            two_byte("session_id"), wire.encode(3), two_byte("rnti"), wire.encode(0x4601),
        )
    ),
    # What the catalogue gives, written anyway (revision 2 wrote both).
    "revision_2_bytes": batch_of(
        pairs(*RECORD_ITEMS[:4], "protocol", text("RRC"), "direction", text("DL"), *RECORD_ITEMS[4:])
    ),
    "catalogue_protocol_written": batch_of(
        pairs(*RECORD_ITEMS[:4], "protocol", text("RRC"), *RECORD_ITEMS[4:])
    ),
    "catalogue_direction_written": batch_of(
        pairs(*RECORD_ITEMS[:4], "direction", text("DL"), *RECORD_ITEMS[4:])
    ),
}


def collector_reads(container: bytes) -> tuple:
    """(records, captures counted undecodable) when an F1 setup carries
    ``container`` to a collector."""
    from repro.obs.metrics import MetricsRegistry
    from repro.ran.pcap import PcapStream
    from repro.telemetry import MobiFlowCollector

    stream = PcapStream()
    setup = f1ap.F1InitialUlRrcMessageTransfer(gnb_du_ue_id=1, c_rnti=0x4601, rrc_container=container)
    stream.capture(0.1, "F1AP", setup)
    metrics = MetricsRegistry()
    records = len(MobiFlowCollector(metrics).parse_stream(stream))
    undecodable = metrics.counter("collector.undecodable_total", labels={"interface": "F1AP"})
    return records, undecodable.value


def mobiwatch_reads(message: bytes, count: int = 1) -> tuple:
    """(records seen, indications rejected) when an indication whose header
    announces ``count`` records carries ``message`` to MobiWatch."""
    from repro.core import XsecConfig
    from repro.core.mobiwatch import MobiWatchXApp

    sim, ric = make_ric()
    watch = MobiWatchXApp(ric, XsecConfig())
    pdu = indication([RECORD] * count)
    pdu.indication_message = message
    watch.on_indication(pdu)
    rejected = sim.obs.metrics.counter("mobiwatch.indications_rejected_total").value
    return watch.records_seen, rejected


class TestNonCanonicalInput:
    """Bytes the generic codec reads but no encoder writes: the class
    decoders refuse them, and the collector and MobiWatch count and drop
    them. The ids name what the generic decode made of them."""

    def test_the_canonical_form_is_what_the_encoder_writes(self):
        assert pairs("msg", NAME, "ie", CANONICAL_IE) == SETUP_REQUEST.to_wire()
        assert batch_of(pairs(*RECORD_ITEMS)) == encode_batch([RECORD])
        assert collector_reads(SETUP_REQUEST.to_wire()) == (1, 0)
        assert mobiwatch_reads(encode_batch([RECORD])) == (1, 0)

    @pytest.mark.parametrize("name", sorted(NON_CANONICAL_MESSAGES))
    def test_message(self, name):
        data = NON_CANONICAL_MESSAGES[name]
        assert data != SETUP_REQUEST.to_wire()
        assert generic_message(data) == SETUP_REQUEST
        with pytest.raises(wire.WireError):
            messages._PLANS.decode(data)
        with pytest.raises(MessageError):
            Message.from_wire(data)
        assert collector_reads(data) == (0, 1)

    def test_pdu_reordered_and_unknown_ies(self):
        pdu = e2ap.RicSubscriptionDeleteRequest(ric_request_id=4, ran_function_id=142)
        data = pairs(
            "ie",
            pairs("ran_function_id", wire.encode(142), "x", b"\x00", "ric_request_id", wire.encode(4)),
            "pdu",
            text(pdu.PDU),
        )
        assert generic_pdu(data) == pdu
        with pytest.raises(E2apError):
            E2apPdu.from_wire(data)

    def test_pdu_ies_that_are_not_a_dict_are_an_e2ap_error(self):
        with pytest.raises(E2apError, match="not a dict"):
            E2apPdu.from_wire(wire.encode({"pdu": "RICIndication", "ie": [1, 2]}))

    @pytest.mark.parametrize("name", sorted(NON_CANONICAL_BATCHES))
    def test_batch(self, name):
        data = NON_CANONICAL_BATCHES[name]
        records = generic_batch(data)
        assert encode_batch(records) != data
        if name == "empty_int_is_zero":
            assert records[0] == base_record(rnti=0)
        elif name == "session_id_left_to_default":
            assert records[0] == base_record(rnti=0x4601, session_id=0)
        else:
            assert records[0] == RECORD
        with pytest.raises(wire.WireError):
            decode_batch(data)
        assert mobiwatch_reads(data, len(records)) == (0, 1)

    @pytest.mark.parametrize(
        "data,error",
        [
            (batch_of(pairs(*RECORD_ITEMS, "vendor_extension", wire.encode(1))), ValueError),
            (batch_of(pairs(*RECORD_ITEMS[2:])), TypeError),  # no timestamp
            (batch_of(wire.encode(7)), TypeError),
            (pairs(*RECORD_ITEMS), wire.WireError),  # a record, not a batch
            # Nothing to derive them from: a name the catalogue does not hold.
            (
                batch_of(pairs("timestamp", wire.encode(1.5), "msg", text("Vendor"))),
                ValueError,
            ),
            (
                batch_of(
                    pairs("timestamp", wire.encode(1.5), "msg", text("Vendor"), "protocol", text("RRC"))
                ),
                ValueError,
            ),
        ],
        ids=[
            "unknown_key",
            "missing_required",
            "record_not_a_dict",
            "not_a_list",
            "uncatalogued_without_either",
            "uncatalogued_without_direction",
        ],
    )
    def test_batch_rejections_are_the_generic_path_s(self, data, error):
        """What the generic path refused (with ``error``), the record
        decoder refuses too, with its family's error."""
        with pytest.raises(wire.WireError):
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
        # No record field holds a list: the bomb is refused at its first
        # level, as a batch and as a field value.
        with pytest.raises(wire.WireError):
            decode_batch(nested_lists(2000))
        with pytest.raises(wire.WireError, match="'rnti' holds tag 0x07"):
            decode_batch(batch_of(pairs(*RECORD_ITEMS[:-1], nested_lists(2000))))


# -- mutation fuzz: one decoder, refusal or the same bytes back ---------------------
#
# A canonical encoding is mutated either at the byte level (a bit flipped, a
# byte inserted or deleted) or in its structure, with every container
# length recomputed: a one-byte symbol in its two-byte or spelled-out form,
# an int or a length field one byte longer than needed, two keys of a dict
# swapped. The decoder must refuse the result with its family's error, or
# return an object whose encoding is the result itself.


def parse_tlv(data: bytes, offset: int = 0, end=None):
    """``(node, next offset)``: a node is ``[tag, children or None, raw]``
    (test-side walker, independent of the codec's decoders)."""
    end = len(data) if end is None else end
    tag = data[offset]
    if tag >= 0x10 or tag < 0x03:
        stop = offset + 1
    elif tag == 0x09:
        stop = offset + 2
    elif tag == 0x04:
        stop = offset + 9
    else:
        length, body = wire._decode_length(data, offset + 1, end)
        stop = body + length
        if tag >= 0x07:
            children = []
            while body < stop:
                child, body = parse_tlv(data, body, stop)
                children.append(child)
            return [tag, children, data[offset:stop]], stop
    return [tag, None, data[offset:stop]], stop


def build_tlv(node) -> bytes:
    tag, children, raw = node
    if children is None:
        return raw
    body = b"".join(build_tlv(child) for child in children)
    return bytes([tag]) + wire._encode_length(len(body)) + body


def tlv_nodes(node, depth: int = 0):
    """``(node, depth)`` of every node, in encoding order."""
    yield node, depth
    for child in node[1] or ():
        yield from tlv_nodes(child, depth + 1)


def _long_length(raw: bytes) -> bytes:
    """``raw`` with its length field spelled with one high zero group."""
    length, body = wire._decode_length(raw, 1, len(raw))
    return raw[:1] + wire._encode_length(length)[:-1] + bytes([raw[body - 1] | 0x80, 0]) + raw[body:]


def structural_mutations(node, depth: int, plan_layer: int) -> list:
    """The structural mutations of ``node`` (a function of the node) that
    the plan itself must refuse; ``plan_layer`` is the depth of the field
    values the plan reads (the values of the IE or record dict)."""
    tag, children, raw = node
    options = []
    # A nested list or dict value, and all below it, is the generic
    # decoder's: its accept set is not the plan's.
    if depth > plan_layer or (depth == plan_layer and children is not None):
        return options
    if tag >= 0x10:
        index = tag - 0x10
        options.append(("two_byte", bytes([0x09, index])))
        name = wire.SYMBOLS[index].encode()
        options.append(("spelled", bytes([0x05, len(name)]) + name))
    if tag == 0x03:
        value = int.from_bytes(raw[2:], "big", signed=True)
        pad = b"\xff" if value < 0 else b"\x00"
        options.append(("long_int", bytes([0x03, len(raw) - 1]) + pad + raw[2:]))
    if 0x03 <= tag <= 0x08 and tag != 0x04:
        options.append(("long_length", _long_length(raw)))
    if tag == 0x08 and len(children) >= 4:
        options.append(("swap_keys", None))
    return options


def mutate_structure(encoded: bytes, plan_layer: int, data) -> bytes:
    root, _ = parse_tlv(encoded)
    sites = [
        (node, kind, raw)
        for node, depth in tlv_nodes(root)
        for kind, raw in structural_mutations(node, depth, plan_layer)
    ]
    node, kind, raw = data.draw(st.sampled_from(sites), label="site")
    if kind == "swap_keys":
        pairs_ = [node[1][i : i + 2] for i in range(0, len(node[1]), 2)]
        first = data.draw(st.integers(0, len(pairs_) - 2), label="pair")
        pairs_[first], pairs_[first + 1] = pairs_[first + 1], pairs_[first]
        node[1] = [child for pair in pairs_ for child in pair]
    else:
        node[0], node[1], node[2] = raw[0], None, raw
    return build_tlv(root)


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


def generic_below(data: bytes, plan_layer: int) -> bytes:
    """``data`` with every list or dict value the plan hands the generic
    decoder re-encoded by the generic codec."""
    root, _ = parse_tlv(data)
    for node, depth in tlv_nodes(root):
        if depth == plan_layer and node[1] is not None:
            node[:] = parse_tlv(wire.encode(wire.decode(node[2])))[0]
    return build_tlv(root)


def assert_refused_or_exact(decode, encode, error, mutated: bytes, plan_layer: int) -> None:
    """Refused with ``error``, or decoded to an object that encodes back to
    ``mutated`` — at the plan layer: a list or dict value below it is read
    by the generic decoder, which also accepts other spellings of it."""
    try:
        decoded = decode(mutated)
    except error:
        return
    again = encode(decoded)
    if again != mutated:
        assert again == generic_below(mutated, plan_layer)


message_instances = st.sampled_from(
    [cls() for cls in MESSAGE_CLASSES] + list(TestGoldenBytes.OBJECTS.values())[:5]
)
pdu_instances = st.sampled_from(
    [cls() for cls in PDU_CLASSES] + list(TestGoldenBytes.OBJECTS.values())[5:]
)


class TestMutatedEncodings:
    """A mutated canonical encoding is refused with the family's error, or
    decodes to an object whose encoding is the mutated bytes: never
    IndexError, never another object."""

    @examples(300)
    @given(message_instances, st.data())
    def test_message(self, message, data):
        encoded = message.to_wire()
        for mutated in (mutate(encoded, data), mutate_structure(encoded, 2, data)):
            assert_refused_or_exact(Message.from_wire, Message.to_wire, MessageError, mutated, 2)
        with pytest.raises(MessageError):
            Message.from_wire(mutated)

    @examples(200)
    @given(pdu_instances, st.data())
    def test_pdu(self, pdu, data):
        encoded = pdu.to_wire()
        for mutated in (mutate(encoded, data), mutate_structure(encoded, 2, data)):
            assert_refused_or_exact(E2apPdu.from_wire, E2apPdu.to_wire, E2apError, mutated, 2)
        with pytest.raises(E2apError):
            E2apPdu.from_wire(mutated)

    @examples(300)
    @given(st.integers(1, 3), st.data())
    def test_batch(self, count, data):
        encoded = encode_batch(TestGoldenBytes.BATCH[:count])
        for mutated in (mutate(encoded, data), mutate_structure(encoded, 2, data)):
            assert_refused_or_exact(decode_batch, encode_batch, wire.WireError, mutated, 2)
        with pytest.raises(wire.WireError):
            decode_batch(mutated)
        # Every record a batch yields is stored as its span: its own bytes.
        decoded = decode_batch(encoded)
        assert [encoded[a:b] for a, b in decoded.spans] == [encode_record(r) for r in decoded]

    @examples(100)
    @given(st.integers(1, 3), st.booleans(), st.data())
    def test_refusals_are_counted_at_the_edges(self, count, structural, data):
        """A mutated indication at MobiWatch, and a mutated container at
        the collector: counted and dropped when refused, never raised."""
        batch = encode_batch(TestGoldenBytes.BATCH[:count])
        container = SETUP_REQUEST.to_wire()
        if structural:
            batch, container = mutate_structure(batch, 2, data), mutate_structure(container, 2, data)
        else:
            batch, container = mutate(batch, data), mutate(container, data)
        try:
            records = len(decode_batch(batch))
        except wire.WireError:
            assert mobiwatch_reads(batch, count) == (0, 1)
        else:
            assert mobiwatch_reads(batch, records) == (records, 0)
        try:
            Message.from_wire(container)
        except MessageError:
            assert collector_reads(container) == (0, 1)
        else:
            assert collector_reads(container)[1] == 0


# -- plans are per class and follow the enum registry --------------------------------


class _LateEnum(enum.Enum):
    A = "a"
    B = "b"


class TestPlanLifetime:
    def test_a_class_decodes_before_it_is_ever_encoded(self):
        @dataclass
        class Fresh(Message):
            NAME = "TestWirePlansFresh"
            number: int = 0

        encoded = Fresh(number=5).to_wire()  # builds the plan
        assert messages._PLANS.decode(encoded) == Fresh(number=5)
        messages._PLANS.clear()
        # No plan yet: the head is not found, so every registered class
        # gets its plan, and the bytes decode.
        assert Message.from_wire(encoded) == Fresh(number=5)
        assert messages._PLANS._by_class.keys() >= set(map(Message.lookup, Message.registered_names()))
        with pytest.raises(MessageError, match="unknown message name 'TestWirePlansNever'"):
            Message.from_wire(encoded.replace(b"Fresh", b"Never"))

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
        assert not messages._PLANS._by_class  # every plan was dropped
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
