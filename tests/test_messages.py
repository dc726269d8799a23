"""Tests for the control-message base machinery and RRC/NAS definitions."""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro import wire
from tests.test_wire import nested_lists
from repro.ran import nas, rrc
from repro.ran.messages import Direction, Message, MessageError, Protocol
from repro.ran.security import CipherAlg, IntegrityAlg


def _instantiate_all_registered():
    """One default instance of every registered message class."""
    return [Message.lookup(name)() for name in Message.registered_names()]


class TestRegistry:
    def test_all_expected_messages_registered(self):
        names = Message.registered_names()
        for expected in (
            "RRCSetupRequest",
            "RRCSetup",
            "RRCSetupComplete",
            "RegistrationRequest",
            "AuthenticationRequest",
            "AuthenticationResponse",
            "IdentityRequest",
            "IdentityResponse",
            "NASSecurityModeCommand",
            "RegistrationAccept",
            "F1InitialULRRCMessageTransfer",
            "NGInitialUEMessage",
        ):
            assert expected in names

    def test_lookup_unknown_raises(self):
        with pytest.raises(MessageError):
            Message.lookup("NotAMessage")

    def test_duplicate_name_rejected(self):
        with pytest.raises(MessageError):

            class Duplicate(Message):
                NAME = "RRCSetupRequest"


class TestWireRoundtrip:
    def test_every_registered_message_roundtrips_with_defaults(self):
        for message in _instantiate_all_registered():
            decoded = Message.from_wire(message.to_wire())
            assert type(decoded) is type(message)
            assert decoded.fields() == message.fields()

    def test_enum_fields_rehydrate(self):
        original = rrc.RrcSetupRequest(
            establishment_cause=rrc.EstablishmentCause.MO_DATA,
            ue_identity=0x1234,
            identity_is_tmsi=True,
        )
        decoded = Message.from_wire(original.to_wire())
        assert decoded.establishment_cause is rrc.EstablishmentCause.MO_DATA
        assert decoded.ue_identity == 0x1234
        assert decoded.identity_is_tmsi is True

    def test_security_mode_command_algs_roundtrip(self):
        original = nas.NasSecurityModeCommand(
            cipher_alg=CipherAlg.NEA0, integrity_alg=IntegrityAlg.NIA0
        )
        decoded = Message.from_wire(original.to_wire())
        assert decoded.cipher_alg is CipherAlg.NEA0
        assert decoded.integrity_alg is IntegrityAlg.NIA0

    def test_nested_nas_pdu_roundtrip(self):
        inner = nas.RegistrationRequest(suci="suci-001-01-abc")
        outer = rrc.RrcSetupComplete(nas_pdu=inner.to_wire())
        decoded_outer = Message.from_wire(outer.to_wire())
        decoded_inner = Message.from_wire(decoded_outer.nas_pdu)
        assert isinstance(decoded_inner, nas.RegistrationRequest)
        assert decoded_inner.suci == "suci-001-01-abc"

    def test_from_wire_rejects_garbage(self):
        with pytest.raises(MessageError):
            Message.from_wire(b"\x00garbage")

    def test_from_wire_rejects_unknown_message(self):
        from repro import wire

        with pytest.raises(MessageError):
            Message.from_wire(wire.encode({"msg": "Bogus", "ie": {}}))

    def test_from_wire_rejects_missing_ie(self):
        from repro import wire

        with pytest.raises(MessageError):
            Message.from_wire(wire.encode({"msg": "RRCSetup", "ie": {}}))


@dataclass
class _PlanProbe(Message):
    """One field per annotation shape the per-class plan must tell apart."""

    NAME = "TestPlanProbe"

    cause: rrc.EstablishmentCause = rrc.EstablishmentCause.MO_DATA  # a real type
    cipher: "CipherAlg" = CipherAlg.NEA2  # a string, as under __future__ annotations
    integrity: "Optional[IntegrityAlg]" = None
    plain: Optional[int] = None


class TestWirePlans:
    """from_wire/fields run off one cached plan per class (field name + enum
    converter) instead of dataclasses.fields() per message."""

    def test_every_registered_message_roundtrips_to_an_equal_instance(self):
        for message in _instantiate_all_registered():
            assert Message.from_wire(message.to_wire()) == message

    @pytest.mark.parametrize("integrity", [None, IntegrityAlg.NIA0])
    def test_enum_and_optional_enum_fields(self, integrity):
        original = _PlanProbe(
            cause=rrc.EstablishmentCause.MO_SMS,
            cipher=CipherAlg.NEA0,
            integrity=integrity,
            plain=7,
        )
        decoded = Message.from_wire(original.to_wire())
        assert decoded == original
        assert decoded.cause is rrc.EstablishmentCause.MO_SMS
        assert decoded.cipher is CipherAlg.NEA0
        assert decoded.integrity is integrity
        assert original.fields() == {
            "cause": "mo-SMS",
            "cipher": 0,
            "integrity": None if integrity is None else 0,
            "plain": 7,
        }

    def test_string_annotated_enum_passes_none_but_a_real_type_does_not(self):
        blob = {"cause": "mo-Data", "cipher": None, "integrity": None, "plain": None}
        assert Message.from_wire(wire.encode({"msg": "TestPlanProbe", "ie": blob})).cipher is None
        blob["cause"] = None
        with pytest.raises(ValueError):
            Message.from_wire(wire.encode({"msg": "TestPlanProbe", "ie": blob}))

    def test_error_messages_unchanged(self):
        with pytest.raises(MessageError, match="RRCSetup: missing IE 'rrc_transaction_id'"):
            Message.from_wire(wire.encode({"msg": "RRCSetup", "ie": {}}))
        with pytest.raises(MessageError, match="unknown message name 'Bogus'"):
            Message.from_wire(wire.encode({"msg": "Bogus", "ie": {}}))
        with pytest.raises(MessageError, match="message IEs are not a dict"):
            Message.from_wire(wire.encode({"msg": "RRCSetup", "ie": [1]}))
        with pytest.raises(MessageError, match="not a message envelope"):
            Message.from_wire(wire.encode(["msg"]))

    def test_deep_nesting_is_a_message_error(self):
        # A nesting bomb where a list IE is read by the generic decoder ...
        bomb = nas.NasSecurityModeCommand(replayed_capabilities=wire.Encoded(nested_lists(2000)))
        with pytest.raises(MessageError, match="nesting too deep"):
            Message.from_wire(bomb.to_wire())
        # ... and a bare one, which is not an envelope at all.
        with pytest.raises(MessageError):
            Message.from_wire(nested_lists(2000))

    def test_subclass_defined_after_first_use_gets_its_own_plan(self):
        @dataclass
        class PlanBase(Message):
            NAME = "TestPlanBase"
            first: int = 1

        assert Message.from_wire(PlanBase(first=5).to_wire()) == PlanBase(first=5)

        @dataclass
        class PlanChild(PlanBase):
            NAME = "TestPlanChild"
            second: "CipherAlg" = CipherAlg.NEA1

        child = PlanChild(first=2, second=CipherAlg.NEA3)
        assert child.fields() == {"first": 2, "second": 3}
        decoded = Message.from_wire(child.to_wire())
        assert type(decoded) is PlanChild and decoded == child
        assert decoded.second is CipherAlg.NEA3
        assert PlanBase(first=9).fields() == {"first": 9}


class TestMetadata:
    def test_protocol_and_direction_attributes(self):
        assert rrc.RrcSetupRequest.PROTOCOL is Protocol.RRC
        assert rrc.RrcSetupRequest.DIRECTION is Direction.UPLINK
        assert nas.AuthenticationRequest.PROTOCOL is Protocol.NAS
        assert nas.AuthenticationRequest.DIRECTION is Direction.DOWNLINK

    def test_name_property(self):
        assert rrc.RrcSetup().name == "RRCSetup"
        assert nas.RegistrationAccept().name == "RegistrationAccept"

    def test_fields_converts_enums_to_values(self):
        fields = rrc.RrcSetupRequest(
            establishment_cause=rrc.EstablishmentCause.MO_SMS
        ).fields()
        assert fields["establishment_cause"] == "mo-SMS"
