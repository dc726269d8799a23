"""Wire format revisions 2 and 4: the static symbol table and its contract.

A string whose content is an entry of ``wire.SYMBOLS`` crosses every
interface as a symbol: since revision 4 the one tag byte ``0x10 + index``
for an index below 240, before it (revisions 2 and 3) the tag ``0x09`` and
one index byte. The table is part of the format: append-only
(tests/fixtures/wire_symbols.json pins the order), at most 256 long, and it
must hold every name the tree puts on the wire by the thousand. All three
forms — one byte, two bytes, spelled out — are read by the generic
``wire.decode`` as the same value; no encoder writes a table string in any
but the first, and the class decoders (messages, E2AP PDUs, MobiFlow
batches) accept no other. An index past the table, or a reserved tag
(``0x0A``-``0x0F``), is a ``WireError`` that the E2 edge and the collector
count and drop.
"""

import dataclasses
import enum
import json
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import wire
from repro.core import XsecConfig
from repro.core.mobiwatch import SDL_TELEMETRY_NS, MobiWatchXApp
from repro.oran import e2ap
from repro.oran.e2sm_kpm import KNOWN_ACTIONS, MobiFlowKpmModel
from repro.ran import f1ap, nas, ngap, rrc  # noqa: F401  (register every class)
from repro.ran.messages import Direction, Message, MessageError, Protocol
from repro.telemetry.encoder import CATALOGUE, decode_batch, encode_batch, encode_record
from repro.telemetry.features import DEFAULT_CAUSE_VOCAB
from repro.telemetry.mobiflow import FIELD_NAMES
from tests.fixtures.repin_wire_golden import canonical
from tests.test_core_units import indication, make_ric, record
from tests.test_wire import examples

PINNED = json.loads((Path(__file__).parent / "fixtures" / "wire_symbols.json").read_text())
PINNED_CATALOGUE = [
    (name, (protocol, direction))
    for name, protocol, direction in json.loads(
        (Path(__file__).parent / "fixtures" / "mobiflow_catalogue.json").read_text()
    )
]
TWO_BYTE = 0x09  # + index: revisions 2 and 3, and indices 240-255
SHORT = 0x10  # + index, one byte: indices below 240 since revision 4
RESERVED = range(0x0A, 0x10)


def spelled(name: str) -> bytes:
    body = name.encode("utf-8")
    assert len(body) < 0x80
    return bytes([0x05, len(body)]) + body


def symbol(name: str) -> bytes:
    """A table name as the encoder writes it since revision 4."""
    index = wire.SYMBOLS.index(name)
    assert index < 240
    return bytes([SHORT + index])


def two_byte(name: str) -> bytes:
    """A table name as revisions 2 and 3 wrote it."""
    return bytes([TWO_BYTE, wire.SYMBOLS.index(name)])


class _Label(str):
    """Equal to nothing and hashed apart from its content: a lookup keyed by
    the object itself would never find its table entry."""

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return False


class _Word(str, enum.Enum):
    RRC = "RRC"
    UPLINK = "UL"


class TestTheTable:
    def test_is_append_only(self):
        """A reorder, a rename or a removal changes what stored bytes mean."""
        assert list(wire.SYMBOLS[: len(PINNED)]) == PINNED, (
            "wire.SYMBOLS no longer starts with tests/fixtures/wire_symbols.json: "
            "entries may only be appended (then append them to the fixture too)"
        )
        assert len(PINNED) >= 134

    def test_fixture_is_not_behind(self):
        assert len(PINNED) == len(wire.SYMBOLS), (
            "append the new wire.SYMBOLS entries to tests/fixtures/wire_symbols.json"
        )

    def test_no_duplicates_and_one_index_byte(self):
        assert len(set(wire.SYMBOLS)) == len(wire.SYMBOLS) <= 256
        assert all(type(name) is str and name for name in wire.SYMBOLS)

    def test_covers_every_name_the_tree_puts_on_the_wire(self):
        needed = {"msg", "ie", "pdu", "sm", "count", MobiFlowKpmModel.NAME}
        # The E2SM control vocabulary: header key, actions, parameter keys.
        needed.update(("action", *KNOWN_ACTIONS, "rnti", "tmsi", "max_setups", "window_s"))
        needed.update(FIELD_NAMES)
        needed.update(DEFAULT_CAUSE_VOCAB)
        needed.update(member.value for member in (*Protocol, *Direction))
        for name in Message.registered_names():
            cls = Message.lookup(name)
            if cls.__module__.startswith("repro."):  # tests register throwaway ones
                needed.add(name)
                needed.update(field.name for field in dataclasses.fields(cls))
        for name, cls in e2ap._PDU_REGISTRY.items():
            if cls.__module__.startswith("repro."):
                needed.add(name)
                needed.update(field.name for field in dataclasses.fields(cls))
        missing = sorted(needed - set(wire.SYMBOLS))
        assert not missing, (
            f"{missing} cross the wire spelled out: append them to wire.SYMBOLS "
            "(at the end — never reorder) and to tests/fixtures/wire_symbols.json"
        )
        # Retired, not missing: nothing writes the columnar header key any
        # more, but an index is part of the format, so the entry keeps its
        # place and both of its forms still decode (TestBothFormsOneValue).
        assert "columnar" not in needed and wire.SYMBOLS[20] == "columnar"


class TestTheCatalogue:
    """The record codec's msg -> (protocol, direction) table is part of the
    format too: stored bytes that left a field off mean its entry."""

    def test_is_append_only(self):
        assert list(CATALOGUE.items())[: len(PINNED_CATALOGUE)] == PINNED_CATALOGUE, (
            "telemetry.encoder.CATALOGUE no longer starts with "
            "tests/fixtures/mobiflow_catalogue.json: entries may only be appended "
            "(then append them to the fixture too)"
        )
        assert len(PINNED_CATALOGUE) >= 51

    def test_fixture_is_not_behind(self):
        assert len(PINNED_CATALOGUE) == len(CATALOGUE), (
            "append the new CATALOGUE entries to tests/fixtures/mobiflow_catalogue.json"
        )

    def test_every_message_class_is_in_it(self):
        pinned = dict(PINNED_CATALOGUE)
        for name in Message.registered_names():
            cls = Message.lookup(name)
            if not cls.__module__.startswith("repro."):  # tests register throwaway ones
                continue
            pair = (cls.PROTOCOL.value, cls.DIRECTION.value)
            assert pinned.get(name) == pair, (
                f"{name} is {pair}: append it to telemetry.encoder.CATALOGUE and "
                "tests/fixtures/mobiflow_catalogue.json (an entry never changes)"
            )
            assert CATALOGUE[name] == pair

    def test_every_entry_is_a_table_name(self):
        assert set(CATALOGUE) <= set(wire.SYMBOLS)
        assert {value for pair in CATALOGUE.values() for value in pair} <= {"RRC", "NAS", "UL", "DL"}


class TestBothFormsOneValue:
    @pytest.mark.parametrize("name", wire.SYMBOLS)
    def test_entry(self, name):
        assert wire.encode(name) == symbol(name)
        assert wire.decode(symbol(name)) is name  # the table's own object
        assert wire.decode(two_byte(name)) is name
        assert wire.decode(spelled(name)) == name
        for outer in ([name], {name: name}, {"other": [{name: [name]}]}):
            encoded = wire.encode(outer)
            assert spelled(name) not in encoded and canonical(encoded) == encoded
            assert two_byte(name) not in encoded
            assert (
                wire.decode(encoded)
                == outer
                == wire.decode(spell_out(encoded))
                == wire.decode(canonical(encoded, 2))
            )

    @pytest.mark.parametrize("value", [_Label("RRC"), _Word.RRC, _Word.UPLINK, "RRC"])
    def test_subclasses_and_enum_members_are_looked_up_by_content(self, value):
        content = value.value if isinstance(value, enum.Enum) else str.__str__(value)
        assert wire.encode(value) == symbol(content)
        assert wire.encode([value]) == b"\x07\x01" + symbol(content)
        assert wire.encode({"k": {"n": value}})[-1:] == symbol(content)
        assert wire.encode({value: 1}) == b"\x08\x04" + symbol(content) + wire.encode(1)
        assert wire.encode([{value: [value]}])[4:] == symbol(content) + b"\x07\x01" + symbol(content)

    def test_other_strings_are_written_as_before(self):
        for text in ("", "rrc", "Rrc", "msg ", "timestamps", "ünïcode", "x" * 200):
            assert wire.encode(text)[0] == 0x05
            assert wire.decode(wire.encode(text)) == text

    def test_plans_write_symbols_and_equal_the_generic_codec(self):
        request = rrc.RrcSetupRequest(establishment_cause=rrc.EstablishmentCause.MO_DATA)
        encoded = request.to_wire()
        assert encoded == wire.encode({"msg": request.NAME, "ie": request.fields()})
        assert encoded[2:5] == symbol("msg") + symbol("RRCSetupRequest") + symbol("ie")
        assert symbol("establishment_cause") + symbol("mo-Data") in encoded
        assert b"mo-Data" not in encoded
        pdu = e2ap.RicControlAck(ric_request_id=1, outcome="released")
        assert pdu.to_wire()[2:5] == symbol("pdu") + symbol("RICControlAck") + symbol("ie")
        assert b"released" in pdu.to_wire()  # not a table string
        entry = record(1.5, "RRCSetupComplete", rnti=0x4601, s_tmsi=0x12345678)
        assert encode_record(entry) == wire.encode(entry.to_wire_dict())
        # 36 with two-byte symbols (revision 3), 44 with protocol and
        # direction written as well (revision 2), 114 with every name
        # spelled out (revision 1).
        assert len(encode_record(entry)) == 30
        assert len(canonical(encode_record(entry), 2)) == 36
        header, _ = MobiFlowKpmModel.encode_indication([entry])
        assert header == b"\x08\x06" + symbol("sm") + symbol(MobiFlowKpmModel.NAME) + symbol(
            "count"
        ) + wire.encode(1)  # 8 B; 11 B with two-byte symbols, 40 B spelled out

    @pytest.mark.parametrize(
        "action,params",
        [
            ("release_ue", {"rnti": 0x4601}),
            ("blocklist_tmsi", {"tmsi": 0xBEEF}),
            ("unblock_tmsi", {"tmsi": 0xBEEF}),
            ("rate_limit_access", {"max_setups": 3, "window_s": 1.0}),
            ("clear_rate_limit", {}),
        ],
    )
    def test_control_names_its_action_and_parameters_by_symbol(self, action, params):
        header, message = MobiFlowKpmModel.encode_control(action, **params)
        assert header == b"\x08\x04" + symbol("sm") + symbol(MobiFlowKpmModel.NAME) + symbol(
            "action"
        ) + symbol(action)  # 6 B; 10 B in two-byte symbols, 26-33 B spelled out
        assert all(symbol(key) in message for key in params)
        assert canonical(header) == header and canonical(message) == message
        assert MobiFlowKpmModel.decode_control(header, message) == (action, params)
        # Written out, as before revision 3: still the same action.
        body = symbol("sm") + symbol(MobiFlowKpmModel.NAME) + spelled("action") + spelled(action)
        old_header = bytes([0x08, len(body)]) + body
        assert MobiFlowKpmModel.decode_control(old_header, spell_out(message)) == (action, params)
        assert MobiFlowKpmModel.decode_control(
            canonical(header, 2), canonical(message, 2)
        ) == (action, params)

    def test_a_message_outside_the_table_still_round_trips(self):
        @dataclass
        class Vendor(Message):
            NAME = "TestWireSymbolsVendor"
            vendor_field: int = 0
            cause: str = ""

        encoded = Vendor(vendor_field=5, cause="mo-Data").to_wire()
        assert spelled("TestWireSymbolsVendor") in encoded and spelled("vendor_field") in encoded
        assert symbol("cause") + symbol("mo-Data") in encoded
        assert Message.from_wire(encoded) == Vendor(vendor_field=5, cause="mo-Data")
        assert Message.from_wire(canonical(encoded)) == Vendor(vendor_field=5, cause="mo-Data")
        with pytest.raises(MessageError):  # revision-3 bytes
            Message.from_wire(canonical(encoded, 2))

    @examples(100)
    @given(st.lists(st.sampled_from(wire.SYMBOLS) | st.text(max_size=8), max_size=6))
    def test_spelling_a_value_out_never_changes_what_it_decodes_to(self, names):
        value = {name: [name, {"k": name}] for name in names}
        encoded = wire.encode(value)
        assert canonical(encoded) == encoded
        # The independent walker's inverse: spell every symbol out again.
        old = spell_out(encoded)
        assert wire.decode(old) == value == wire.decode(encoded)
        assert canonical(old) == encoded


def rewrite_symbols(data: bytes, rewrite) -> bytes:
    """``data`` rebuilt with every symbol, of either width, replaced by
    ``rewrite(index, offset, depth)`` and every container length recomputed
    (test-side walker; ``depth`` counts the containers around the symbol)."""

    def at(offset, depth):
        tag = data[offset]
        if tag >= SHORT:
            return rewrite(tag - SHORT, offset, depth), offset + 1
        if tag == TWO_BYTE:
            return rewrite(data[offset + 1], offset, depth), offset + 2
        if tag < 0x03:
            return data[offset : offset + 1], offset + 1
        if tag == 0x04:
            return data[offset : offset + 9], offset + 9
        length, body = wire._decode_length(data, offset + 1, len(data))
        stop = body + length
        if tag < 0x07:
            return data[offset:stop], stop
        children = b""
        while body < stop:
            child, body = at(body, depth + 1)
            children += child
        return bytes([tag]) + wire._encode_length(len(children)) + children, stop

    out, end = at(0, 0)
    assert end == len(data)
    return out


def spell_out(data: bytes) -> bytes:
    """Bytes with every symbol of either width written out, as every
    encoder wrote them before revision 2."""
    return rewrite_symbols(data, lambda index, offset, depth: spelled(wire.SYMBOLS[index]))


def symbol_sites(data: bytes) -> list[tuple[int, int, int]]:
    """``(offset, index, depth)`` of every symbol in revision-4 bytes."""
    sites = []

    def note(index, offset, depth):
        sites.append((offset, index, depth))
        return bytes([SHORT + index])

    assert rewrite_symbols(data, note) == data
    return sites


class TestHostileSymbols:
    @staticmethod
    def _placements(hostile: bytes):
        return (
            hostile,  # top level
            bytes([0x07, len(hostile)]) + hostile,  # list item
            bytes([0x08, len(hostile) + 1]) + hostile + b"\x00",  # dict key
            bytes([0x08, len(hostile) + 1]) + symbol("msg") + hostile,  # dict value
        )

    def test_every_index_past_the_table(self):
        for index in range(len(wire.SYMBOLS), 256):
            forms = [bytes([TWO_BYTE, index])]
            if index < 240:
                forms.append(bytes([SHORT + index]))
            for hostile in forms:
                for data in self._placements(hostile):
                    with pytest.raises(wire.WireError, match=f"unknown symbol {index}"):
                        wire.decode(data)

    @pytest.mark.parametrize("tag", RESERVED)
    def test_reserved_tags(self, tag):
        for data in self._placements(bytes([tag, 0])):
            with pytest.raises(wire.WireError, match=f"unknown tag 0x{tag:02x}"):
                wire.decode(data)

    def test_truncated_symbol(self):
        for data in (
            bytes([TWO_BYTE]),
            b"\x07\x01" + bytes([TWO_BYTE]),
            b"\x08\x01" + bytes([TWO_BYTE]),
            b"\x08\x02" + symbol("msg") + bytes([TWO_BYTE]),
            b"\x07\x01" + two_byte("msg"),  # the index byte lies past the parent's end
            b"\x08\x01" + symbol("msg"),  # a key without a value
        ):
            with pytest.raises(wire.WireError):
                wire.decode(data)

    def test_planned_decoders_answer_as_the_generic_one(self):
        """Where the generic decoder finds a bad symbol or tag, so do the
        class decoders, under their own error types."""
        past_end = bytes([SHORT + len(wire.SYMBOLS)])
        good = rrc.RrcSetupRequest().to_wire()
        at = good.index(symbol("establishment_cause") + symbol("mo-Signalling")) + 1
        for hostile in (past_end, b"\xff"):
            with pytest.raises(MessageError, match="unknown symbol"):
                Message.from_wire(good[:at] + hostile + good[at + 1 :])
        # One byte longer: the envelope's length no longer matches first.
        with pytest.raises(MessageError):
            Message.from_wire(good[:at] + two_byte("mo-Signalling")[:1] + b"\xff" + good[at + 1 :])
        with pytest.raises(ValueError):
            Message.from_wire(good[: at + 1])  # cut right after the symbol
        with pytest.raises(ValueError, match="unknown tag"):
            Message.from_wire(good[:at] + b"\x0a" + good[at + 1 :])
        batch = encode_batch([record(0.1, "RRCSetup")])
        at = batch.index(symbol("msg") + symbol("RRCSetup")) + 1
        with pytest.raises(wire.WireError, match="unknown symbol"):
            decode_batch(batch[:at] + past_end + batch[at + 1 :])
        with pytest.raises(wire.WireError, match="unknown tag"):
            decode_batch(batch[:at] + b"\x0f" + batch[at + 1 :])
        pdu = e2ap.RicControlAck().to_wire()
        at = pdu.index(symbol("pdu") + symbol("RICControlAck")) + 1
        with pytest.raises(e2ap.E2apError, match="unknown symbol"):
            e2ap.E2apPdu.from_wire(pdu[:at] + b"\xfe" + pdu[at + 1 :])
        with pytest.raises(e2ap.E2apError):
            e2ap.E2apPdu.from_wire(pdu[:at] + two_byte("pdu")[:1] + b"\xfe" + pdu[at + 1 :])


class TestSpelledOutRecordIsRefused:
    def test_one_spelled_out_name_refuses_it(self):
        records = [record(1.0, "RRCSetup"), record(1.1, "RRCSetupComplete", s_tmsi=7)]

        def batch_bytes(*spelled_out):
            """The batch, with the named strings of its first record written out."""
            first = b""
            for item in (part for pair in records[0].to_wire_dict().items() for part in pair):
                first += spelled(item) if item in spelled_out else wire.encode(item)
            body = bytes([0x08, len(first)]) + first + encode_record(records[1])
            return bytes([0x07, len(body)]) + body

        assert batch_bytes() == encode_batch(records)
        assert list(decode_batch(batch_bytes())) == records
        one = batch_bytes("RRCSetup")
        for data in (
            one,
            batch_bytes("rnti"),
            spell_out(encode_batch(records)),
            canonical(encode_batch(records), 2),  # revision-3 bytes
        ):
            assert [dict(item) for item in wire.decode(data)] == [
                entry.to_wire_dict() for entry in records
            ]
            with pytest.raises(wire.WireError):
                decode_batch(data)

        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        batch = indication(records)
        batch.indication_message = one
        watch.on_indication(batch)
        assert watch.records_seen == 0
        assert sim.obs.metrics.counter("mobiwatch.indications_rejected_total").value == 1
        assert SDL_TELEMETRY_NS not in ric.sdl._data


class TestNoEncoderSpellsATableStringOut:
    """One format on every interface: everything a live deployment puts on
    F1/NG, on E2 and into the SDL is already what the independent walker
    would rewrite it to."""

    def test_live_deployment(self):
        from tests.test_wire_path import LiveRun

        e2 = []
        run = LiveRun(
            "bts_dos",
            before_run=lambda xsec: xsec.e2.add_tap(
                lambda ts, iface, message: e2.append(message.to_wire())
            ),
        )
        xsec = run.xsec
        sdl = [value for namespace in xsec.ric.sdl._data.values() for value in namespace.values()]
        captures = [capture.payload for capture in xsec.net.pcap]
        assert len(captures) > 100 and len(e2) > 15 and len(sdl) > 100
        assert xsec.mobiwatch.anomalies

        checked = 0

        def check(data: bytes) -> None:
            nonlocal checked
            assert canonical(data) == data
            checked += 1
            for leaf in _bytes_leaves(wire.decode(data)):
                try:  # a container, a header, an event trigger: TLV inside TLV
                    wire.decode(leaf)
                except wire.WireError:
                    continue
                check(leaf)

        for data in captures + e2 + sdl:
            check(data)
        assert checked > len(captures) + len(e2) + len(sdl)  # nested ones too


def _bytes_leaves(value):
    if isinstance(value, bytes):
        if value:
            yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _bytes_leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _bytes_leaves(item)


# -- revision 4: one-byte symbols ----------------------------------------------------

FORMS = {
    "one_byte": lambda index: bytes([SHORT + index]),
    "two_byte": lambda index: bytes([TWO_BYTE, index]),
    "spelled": lambda index: spelled(wire.SYMBOLS[index]),
}
# A byte no revision-4 value starts with: a reserved tag, or a one-byte
# symbol past the table's end.
HOSTILE_TAGS = [*RESERVED, *range(SHORT + len(wire.SYMBOLS), 0x100)]
names = st.sampled_from(wire.SYMBOLS) | st.text(max_size=6)
values = st.recursive(
    names | st.integers(-300, 300) | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(names, inner, max_size=4),
    max_leaves=12,
)


def _planned_cases() -> list:
    """(decoder family, object): every message and PDU class of the tree,
    and two record batches."""
    from tests.test_wire_plans import MESSAGE_CLASSES, PDU_CLASSES

    batches = [
        [record(0.1, "RRCSetupRequest", establishment_cause="mo-Data")],
        [
            record(0.2, "RRCSetup", direction="DL", s_tmsi=0xBEEF),
            record(0.3, "RegistrationRequest", protocol="NAS", suci="suci-0-001-01-0-0-0-1"),
            record(0.4, "VendorReport"),
        ],
    ]
    return (
        [("message", cls()) for cls in MESSAGE_CLASSES]
        + [("pdu", cls()) for cls in PDU_CLASSES]
        + [("batch", batch) for batch in batches]
    )


PLANNED_CASES = _planned_cases()


def _planned(kind: str):
    """(encode, planned decode, public decode, its error) of one decoder
    family."""
    from repro.ran import messages
    from repro.telemetry import encoder

    if kind == "message":
        return (
            (lambda obj: obj.to_wire()), messages._PLANS.decode, Message.from_wire, MessageError
        )
    if kind == "pdu":
        return (
            (lambda obj: obj.to_wire()), e2ap._PLANS.decode, e2ap.E2apPdu.from_wire, e2ap.E2apError
        )
    return (
        encode_batch,
        encoder._PLAN.decode_list,
        (lambda data: list(decode_batch(data))),
        wire.WireError,
    )


class TestRevision4OneByteSymbols:
    """Revision 4's contract as properties (CI's ``wire-fuzz`` profile runs
    them at 5 000 examples)."""

    @examples(100)
    @given(st.sampled_from(range(min(len(wire.SYMBOLS), 240))))
    def test_every_index_below_240_encodes_to_one_byte(self, index):
        name = wire.SYMBOLS[index]
        one = bytes([SHORT + index])
        assert wire.encode(name) == wire.encode(_Label(name)) == one
        assert wire.encode([name]) == b"\x07\x01" + one
        assert wire.encode({name: name}) == b"\x08\x02" + one + one

    @examples(300)
    @given(values, st.data())
    def test_all_three_forms_decode_to_the_same_str(self, value, data):
        encoded = wire.encode(value)
        assert canonical(encoded) == encoded
        mixed = rewrite_symbols(
            encoded,
            lambda index, offset, depth: FORMS[data.draw(st.sampled_from(sorted(FORMS)))](index),
        )
        decoded = wire.decode(mixed)
        assert decoded == value == wire.decode(encoded)
        assert canonical(mixed) == encoded and wire.encode(decoded) == encoded

    @examples(300)
    @given(st.sampled_from(PLANNED_CASES), st.data())
    def test_class_decoders_refuse_a_two_byte_form(self, case, data):
        kind, obj = case
        encode, planned, decode, error = _planned(kind)
        encoded = encode(obj)
        # The symbols the plan itself reads: envelope keys and name, field
        # keys and scalar values (deeper ones are the generic decoder's).
        sites = [offset for offset, _, depth in symbol_sites(encoded) if depth <= 2]
        widen = data.draw(st.sampled_from(sites))
        widened = rewrite_symbols(
            encoded,
            lambda index, offset, depth: FORMS["two_byte" if offset == widen else "one_byte"](
                index
            ),
        )
        assert len(widened) > len(encoded)
        assert wire.decode(widened) == wire.decode(encoded)
        with pytest.raises(wire.WireError):
            planned(widened)
        with pytest.raises(error):
            decode(widened)
        assert decode(encoded) == obj

    @examples(300)
    @given(st.sampled_from(PLANNED_CASES), st.sampled_from(HOSTILE_TAGS), st.data())
    def test_a_hostile_symbol_byte_is_a_wire_error_everywhere(self, case, hostile, data):
        kind, obj = case
        encode, planned, decode, error = _planned(kind)
        encoded = encode(obj)
        at = data.draw(st.sampled_from([offset for offset, _, _ in symbol_sites(encoded)]))
        bad = encoded[:at] + bytes([hostile]) + encoded[at + 1 :]
        match = "unknown tag" if hostile in RESERVED else "unknown symbol"
        with pytest.raises(wire.WireError, match=match):
            wire.decode(bad)
        # A bad name or key is not looked for: the class decoder refuses
        # the bytes where it finds them out of place.
        with pytest.raises(wire.WireError):
            planned(bad)
        with pytest.raises(error):
            decode(bad)

    @examples(50)
    @given(st.sampled_from(HOSTILE_TAGS), st.booleans(), st.data())
    def test_e2_counts_and_drops_it(self, hostile, in_header, data):
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        bad = indication([record(0.1, "RRCSetup", direction="DL")], seq=2)
        part = bad.indication_header if in_header else bad.indication_message
        at = data.draw(st.sampled_from([offset for offset, _, _ in symbol_sites(part)]))
        part = part[:at] + bytes([hostile]) + part[at + 1 :]
        if in_header:
            bad.indication_header = part
        else:
            bad.indication_message = part
        batches = [
            indication([record(0.0, "RRCSetupRequest")]),
            bad,
            indication([record(0.2, "RRCSetupComplete")], seq=3),
        ]
        for delay, batch in enumerate(batches, start=1):
            sim.schedule(0.1 * delay, lambda batch=batch: watch.on_indication(batch))
        sim.run(until=1.0)
        rejected = sim.obs.metrics.counter("mobiwatch.indications_rejected_total").value
        assert (rejected, watch.records_seen) == (1, 2)

    @examples(50)
    @given(st.sampled_from(HOSTILE_TAGS), st.booleans(), st.data())
    def test_f1_and_ng_count_and_skip_it(self, hostile, in_container, data):
        from repro.obs.metrics import MetricsRegistry
        from repro.ran.pcap import CaptureRecord, PcapStream
        from repro.telemetry import MobiFlowCollector

        def corrupt(encoded: bytes) -> bytes:
            at = data.draw(st.sampled_from([offset for offset, _, _ in symbol_sites(encoded)]))
            return encoded[:at] + bytes([hostile]) + encoded[at + 1 :]

        container = rrc.RrcSetupRequest(ue_identity=7).to_wire()
        nas_pdu = nas.RegistrationRequest().to_wire()
        if in_container:
            container, nas_pdu = corrupt(container), corrupt(nas_pdu)
        setup = f1ap.F1InitialUlRrcMessageTransfer(
            gnb_du_ue_id=1, c_rnti=0x4601, rrc_container=container
        )
        captures = [
            ("F1AP", setup.to_wire()),
            ("NGAP", ngap.NgInitialUeMessage(ran_ue_id=1, nas_pdu=nas_pdu).to_wire()),
        ]
        if not in_container:
            captures = [(interface, corrupt(payload)) for interface, payload in captures]
        stream = PcapStream()
        for index, (interface, payload) in enumerate(captures):
            stream._records.append(CaptureRecord(0.1 * (index + 1), interface, payload))
        metrics = MetricsRegistry()
        assert len(MobiFlowCollector(metrics).parse_stream(stream)) == 0
        counted = {
            interface: metrics.counter(
                "collector.undecodable_total", labels={"interface": interface}
            ).value
            for interface in ("F1AP", "NGAP")
        }
        assert counted == {"F1AP": 1, "NGAP": 1}
