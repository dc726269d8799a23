"""Wire format revision 2: the static symbol table and its contract.

A string whose content is an entry of ``wire.SYMBOLS`` crosses every
interface as the tag ``0x09`` and one index byte. The table is part of the
format: append-only (tests/fixtures/wire_symbols.json pins the order), at
most 256 long, and it must hold every name the tree puts on the wire by the
thousand. Both forms decode to the same value; no encoder writes a table
string spelled out; an index past the table is a ``WireError`` that the E2
edge and the collector count and drop.
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
from repro.ran.messages import Direction, Message, Protocol
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
SYMBOL = 0x09


def spelled(name: str) -> bytes:
    body = name.encode("utf-8")
    assert len(body) < 0x80
    return bytes([0x05, len(body)]) + body


def symbol(name: str) -> bytes:
    return bytes([SYMBOL, wire.SYMBOLS.index(name)])


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
        assert wire.decode(spelled(name)) == name
        for outer in ([name], {name: name}, {"other": [{name: [name]}]}):
            encoded = wire.encode(outer)
            assert spelled(name) not in encoded and canonical(encoded) == encoded
            assert wire.decode(encoded) == outer == wire.decode(spell_out(encoded))

    @pytest.mark.parametrize("value", [_Label("RRC"), _Word.RRC, _Word.UPLINK, "RRC"])
    def test_subclasses_and_enum_members_are_looked_up_by_content(self, value):
        content = value.value if isinstance(value, enum.Enum) else str.__str__(value)
        assert wire.encode(value) == symbol(content)
        assert wire.encode([value]) == b"\x07\x02" + symbol(content)
        assert wire.encode({"k": {"n": value}})[-2:] == symbol(content)
        assert wire.encode({value: 1}) == b"\x08\x05" + symbol(content) + wire.encode(1)
        assert wire.encode([{value: [value]}])[4:] == symbol(content) + b"\x07\x02" + symbol(content)

    def test_other_strings_are_written_as_before(self):
        for text in ("", "rrc", "Rrc", "msg ", "timestamps", "ünïcode", "x" * 200):
            assert wire.encode(text)[0] == 0x05
            assert wire.decode(wire.encode(text)) == text

    def test_plans_write_symbols_and_equal_the_generic_codec(self):
        request = rrc.RrcSetupRequest(establishment_cause=rrc.EstablishmentCause.MO_DATA)
        encoded = request.to_wire()
        assert encoded == wire.encode({"msg": request.NAME, "ie": request.fields()})
        assert encoded[2:8] == symbol("msg") + symbol("RRCSetupRequest") + symbol("ie")
        assert symbol("mo-Data") in encoded and b"mo-Data" not in encoded
        pdu = e2ap.RicControlAck(ric_request_id=1, outcome="released")
        assert pdu.to_wire()[2:8] == symbol("pdu") + symbol("RICControlAck") + symbol("ie")
        assert b"released" in pdu.to_wire()  # not a table string
        entry = record(1.5, "RRCSetupComplete", rnti=0x4601, s_tmsi=0x12345678)
        assert encode_record(entry) == wire.encode(entry.to_wire_dict())
        # 44 with protocol and direction written (revision 2), 114 with
        # every name spelled out as well (revision 1).
        assert len(encode_record(entry)) == 36
        header, _ = MobiFlowKpmModel.encode_indication([entry])
        assert header == b"\x08\x09" + symbol("sm") + symbol(MobiFlowKpmModel.NAME) + symbol(
            "count"
        ) + wire.encode(1)  # 11 B; 40 B spelled out

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
        assert header == b"\x08\x08" + symbol("sm") + symbol(MobiFlowKpmModel.NAME) + symbol(
            "action"
        ) + symbol(action)  # 10 B; 26-33 B with the action spelled out
        assert all(symbol(key) in message for key in params)
        assert canonical(header) == header and canonical(message) == message
        assert MobiFlowKpmModel.decode_control(header, message) == (action, params)
        # Written out, as before revision 3: still the same action.
        body = symbol("sm") + symbol(MobiFlowKpmModel.NAME) + spelled("action") + spelled(action)
        old_header = bytes([0x08, len(body)]) + body
        assert MobiFlowKpmModel.decode_control(old_header, spell_out(message)) == (action, params)

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


def spell_out(data: bytes) -> bytes:
    """Revision-2 bytes as every encoder wrote them before (test-side walker)."""

    def at(offset):
        tag = data[offset]
        if tag < 0x03:
            return data[offset : offset + 1], offset + 1
        if tag == 0x04:
            return data[offset : offset + 9], offset + 9
        if tag == SYMBOL:
            return spelled(wire.SYMBOLS[data[offset + 1]]), offset + 2
        length, body = wire._decode_length(data, offset + 1, len(data))
        stop = body + length
        if tag < 0x07:
            return data[offset:stop], stop
        children = b""
        while body < stop:
            child, body = at(body)
            children += child
        return bytes([tag]) + wire._encode_length(len(children)) + children, stop

    out, end = at(0)
    assert end == len(data)
    return out


class TestHostileSymbols:
    def test_every_index_past_the_table(self):
        for index in range(len(wire.SYMBOLS), 256):
            hostile = bytes([SYMBOL, index])
            for data in (
                hostile,  # top level
                b"\x07\x02" + hostile,  # list item
                b"\x08\x03" + hostile + b"\x00",  # dict key
                b"\x08\x04" + symbol("msg") + hostile,  # dict value
            ):
                with pytest.raises(wire.WireError, match=f"unknown symbol {index}"):
                    wire.decode(data)

    def test_truncated_symbol(self):
        for data in (
            bytes([SYMBOL]),
            b"\x07\x01" + bytes([SYMBOL]),
            b"\x08\x01" + bytes([SYMBOL]),
            b"\x08\x03" + symbol("msg") + bytes([SYMBOL]),
            b"\x07\x01" + symbol("msg"),  # the index byte lies past the parent's end
        ):
            with pytest.raises(wire.WireError):
                wire.decode(data)

    def test_planned_decoders_answer_as_the_generic_one(self):
        good = rrc.RrcSetupRequest().to_wire()
        at = good.index(symbol("mo-Signalling")) + 1
        hostile = good[:at] + b"\xff" + good[at + 1 :]
        with pytest.raises(ValueError, match="unknown symbol"):
            Message.from_wire(hostile)
        with pytest.raises(ValueError):
            Message.from_wire(good[: at + 1])  # cut right after the symbol
        batch = encode_batch([record(0.1, "RRCSetup")])
        at = batch.index(symbol("RRCSetup")) + 1
        with pytest.raises(wire.WireError, match="unknown symbol"):
            decode_batch(batch[:at] + bytes([len(wire.SYMBOLS)]) + batch[at + 1 :])
        pdu = e2ap.RicControlAck().to_wire()
        at = pdu.index(symbol("RICControlAck")) + 1
        with pytest.raises(e2ap.E2apError, match="unknown symbol"):
            e2ap.E2apPdu.from_wire(pdu[:at] + b"\xfe" + pdu[at + 1 :])


class TestSpelledOutRecordIsStoredCanonically:
    def test_one_spelled_out_name_loses_the_span_not_the_record(self):
        records = [record(1.0, "RRCSetup"), record(1.1, "RRCSetupComplete", s_tmsi=7)]

        def batch_bytes(*spelled_out):
            """The batch, with the named strings of its first record written out."""
            first = b""
            for item in (part for pair in records[0].to_wire_dict().items() for part in pair):
                first += spelled(item) if item in spelled_out else wire.encode(item)
            body = bytes([0x08, len(first)]) + first + encode_record(records[1])
            return bytes([0x07, len(body)]) + body

        assert batch_bytes() == encode_batch(records)
        assert decode_batch(batch_bytes()).spans is not None
        one = batch_bytes("RRCSetup")
        for data in (one, batch_bytes("rnti"), spell_out(encode_batch(records))):
            decoded = decode_batch(data)
            assert list(decoded) == records and decoded.spans is None

        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        batch = indication(records)
        batch.indication_message = one
        watch.on_indication(batch)
        assert watch.records_seen == 2
        assert ric.sdl._data[SDL_TELEMETRY_NS] == {
            f"{index:09d}": encode_record(entry) for index, entry in enumerate(records)
        }


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
