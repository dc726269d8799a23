"""Tests for the O-RAN platform pieces: SDL, wire PDUs, RMR, A1, SMO."""

import pytest

from repro import wire
from tests.test_wire import nested_lists
from repro.oran.a1 import A1Error, A1Interface, A1PolicyType
from repro.oran.e2ap import (
    ActionType,
    E2apError,
    E2apPdu,
    E2SetupRequest,
    E2SetupResponse,
    RicIndication,
    RicSubscriptionRequest,
)
from repro.oran.e2sm import E2smError
from repro.oran.e2sm_kpm import (
    ACTION_RELEASE_UE,
    MobiFlowKpmModel,
    MobiFlowReportStyle,
)
from repro.oran.rmr import RIC_INDICATION, RmrRouter, RoutingError
from repro.oran.sdl import SdlError, SharedDataLayer
from repro.oran.smo import JobState, Smo
from repro.sim import Simulator
from repro.telemetry.mobiflow import MobiFlowRecord


class TestSdl:
    def test_set_get_roundtrip(self):
        sdl = SharedDataLayer()
        sdl.set("ns", "key", {"a": 1, "b": [1, 2]})
        assert sdl.get("ns", "key") == {"a": 1, "b": [1, 2]}

    def test_get_default(self):
        assert SharedDataLayer().get("ns", "missing", default=42) == 42

    def test_require_raises(self):
        with pytest.raises(SdlError):
            SharedDataLayer().require("ns", "missing")

    def test_values_must_be_serializable(self):
        sdl = SharedDataLayer()
        with pytest.raises(wire.WireError):
            sdl.set("ns", "key", object())

    def test_values_are_stored_by_value(self):
        sdl = SharedDataLayer()
        value = {"list": [1]}
        sdl.set("ns", "k", value)
        value["list"].append(2)  # mutating the original must not leak in
        assert sdl.get("ns", "k") == {"list": [1]}

    def test_delete(self):
        sdl = SharedDataLayer()
        sdl.set("ns", "k", 1)
        assert sdl.delete("ns", "k") is True
        assert sdl.delete("ns", "k") is False

    def test_keys_sorted(self):
        sdl = SharedDataLayer()
        sdl.set("ns", "b", 1)
        sdl.set("ns", "a", 2)
        assert sdl.keys("ns") == ["a", "b"]

    def test_append_list(self):
        sdl = SharedDataLayer()
        assert sdl.append("ns", "log", "x") == 1
        assert sdl.append("ns", "log", "y") == 2
        assert sdl.get("ns", "log") == ["x", "y"]

    def test_append_non_list_rejected(self):
        sdl = SharedDataLayer()
        sdl.set("ns", "k", 3)
        with pytest.raises(TypeError):
            sdl.append("ns", "k", 1)

    def test_watch_fires_on_write(self):
        sdl = SharedDataLayer()
        seen = []
        sdl.watch("ns", lambda ns, k, v: seen.append((ns, k, v)))
        sdl.set("ns", "k", 1)
        sdl.set("other", "k", 2)  # different namespace: not watched
        assert seen == [("ns", "k", 1)]

    def test_unwatch(self):
        sdl = SharedDataLayer()
        seen = []
        callback = lambda ns, k, v: seen.append(k)
        sdl.watch("ns", callback)
        sdl.unwatch("ns", callback)
        sdl.set("ns", "k", 1)
        assert seen == []


class TestE2apPdus:
    def test_roundtrip_all_pdus(self):
        pdus = [
            E2SetupRequest(e2_node_id="gnb-1", ran_functions={"142": {"name": "kpm"}}),
            RicSubscriptionRequest(
                ric_request_id=3,
                ran_function_id=142,
                event_trigger=b"\x01\x02",
                action_type=ActionType.REPORT,
            ),
            RicIndication(
                ric_request_id=3,
                sequence_number=9,
                indication_header=b"h",
                indication_message=b"m",
            ),
        ]
        for pdu in pdus:
            decoded = E2apPdu.from_wire(pdu.to_wire())
            assert type(decoded) is type(pdu)
            assert decoded == pdu

    def test_action_type_rehydrates(self):
        pdu = RicSubscriptionRequest(action_type=ActionType.POLICY)
        decoded = E2apPdu.from_wire(pdu.to_wire())
        assert decoded.action_type is ActionType.POLICY

    def test_every_registered_pdu_roundtrips(self):
        """Enum and optional-enum IEs included, at their defaults."""
        from repro.oran.e2ap import _PDU_REGISTRY

        assert len(_PDU_REGISTRY) >= 9
        for cls in list(_PDU_REGISTRY.values()):
            pdu = cls()
            decoded = E2apPdu.from_wire(pdu.to_wire())
            assert type(decoded) is cls
            assert decoded == pdu

    def test_action_type_none_passes_through(self):
        pdu = RicSubscriptionRequest(action_type=None)
        assert E2apPdu.from_wire(pdu.to_wire()) == pdu

    def test_pdu_subclass_defined_after_first_use_roundtrips(self):
        from dataclasses import dataclass

        assert E2apPdu.from_wire(RicIndication().to_wire()) == RicIndication()

        @dataclass
        class LabelledIndication(RicIndication):
            PDU = "TestLabelledIndication"
            label: str = ""
            action_type: "ActionType" = ActionType.INSERT

        pdu = LabelledIndication(sequence_number=4, label="x")
        decoded = E2apPdu.from_wire(pdu.to_wire())
        assert type(decoded) is LabelledIndication and decoded == pdu
        assert decoded.action_type is ActionType.INSERT
        assert "label" not in wire.decode(RicIndication().to_wire())["ie"]

    def test_missing_ie_rejected(self):
        with pytest.raises(E2apError, match="RICIndication: missing IE 'ric_request_id'"):
            E2apPdu.from_wire(wire.encode({"pdu": "RICIndication", "ie": {}}))

    def test_deep_nesting_is_an_e2ap_error(self):
        # A nesting bomb where a list IE is read by the generic decoder ...
        bomb = E2SetupResponse(accepted_functions=wire.Encoded(nested_lists(2000)))
        with pytest.raises(E2apError, match="nesting too deep"):
            E2apPdu.from_wire(bomb.to_wire())
        # ... and a bare one, which is not an envelope at all.
        with pytest.raises(E2apError):
            E2apPdu.from_wire(nested_lists(2000))

    def test_unknown_pdu_rejected(self):
        with pytest.raises(E2apError):
            E2apPdu.from_wire(wire.encode({"pdu": "Bogus", "ie": {}}))

    def test_garbage_rejected(self):
        with pytest.raises(E2apError):
            E2apPdu.from_wire(b"\x00\x01\x02")


class TestMobiFlowKpm:
    def _records(self):
        return [
            MobiFlowRecord(
                timestamp=1.0, msg="RRCSetupRequest", protocol="RRC", direction="UL",
                session_id=1, rnti=0x10,
            ),
            MobiFlowRecord(
                timestamp=1.1, msg="RegistrationRequest", protocol="NAS", direction="UL",
                session_id=1, rnti=0x10, suci="suci-001-01-x",
            ),
        ]

    def test_indication_roundtrip(self):
        header, message = MobiFlowKpmModel.encode_indication(self._records())
        decoded = MobiFlowKpmModel.decode_indication(header, message)
        assert decoded == self._records()

    def test_count_mismatch_detected(self):
        header, _ = MobiFlowKpmModel.encode_indication(self._records())
        _, wrong_message = MobiFlowKpmModel.encode_indication(self._records()[:1])
        with pytest.raises(E2smError):
            MobiFlowKpmModel.decode_indication(header, wrong_message)

    def test_columnar_header_is_not_spoken(self):
        """One MobiFlow format on E2: a header that announces the retired
        struct-of-arrays encoding is not the header the model writes."""
        _, message = MobiFlowKpmModel.encode_indication(self._records())
        header = wire.encode({"sm": MobiFlowKpmModel.NAME, "count": 2, "columnar": True})
        with pytest.raises(E2smError, match="header is not MobiFlow-KPM's for 2 records"):
            MobiFlowKpmModel.decode_indication(header, message)

    def test_event_trigger_roundtrip(self):
        style = MobiFlowReportStyle(report_period_s=0.25, max_records_per_indication=10)
        trigger = MobiFlowKpmModel.encode_event_trigger(style.to_trigger())
        decoded = MobiFlowReportStyle.from_trigger(
            MobiFlowKpmModel.decode_event_trigger(trigger)
        )
        assert decoded == style

    def test_control_roundtrip(self):
        header, message = MobiFlowKpmModel.encode_control(ACTION_RELEASE_UE, rnti=0x42)
        action, params = MobiFlowKpmModel.decode_control(header, message)
        assert action == ACTION_RELEASE_UE
        assert params == {"rnti": 0x42}

    def test_unknown_control_action_rejected(self):
        with pytest.raises(E2smError):
            MobiFlowKpmModel.encode_control("reboot_gnb")


class TestRmr:
    def test_routes_by_mtype_and_subid(self):
        sim = Simulator()
        rmr = RmrRouter(sim)
        seen = []
        rmr.register_endpoint("xapp-a", lambda m, s, p: seen.append(("a", s, p)))
        rmr.register_endpoint("xapp-b", lambda m, s, p: seen.append(("b", s, p)))
        rmr.add_route(RIC_INDICATION, "xapp-a", sub_id=1)
        rmr.add_route(RIC_INDICATION, "xapp-b", sub_id=2)
        rmr.send(RIC_INDICATION, 1, "payload-1")
        sim.run()
        assert seen == [("a", 1, "payload-1")]

    def test_wildcard_route(self):
        sim = Simulator()
        rmr = RmrRouter(sim)
        seen = []
        rmr.register_endpoint("xapp", lambda m, s, p: seen.append(s))
        rmr.add_route(RIC_INDICATION, "xapp", sub_id=-1)
        rmr.send(RIC_INDICATION, 7, None)
        rmr.send(RIC_INDICATION, 8, None)
        sim.run()
        assert seen == [7, 8]

    def test_unrouted_message_dropped(self):
        sim = Simulator()
        rmr = RmrRouter(sim)
        assert rmr.send(RIC_INDICATION, 1, None) == 0
        assert rmr.messages_dropped == 1

    def test_route_to_unknown_endpoint_rejected(self):
        rmr = RmrRouter(Simulator())
        with pytest.raises(RoutingError):
            rmr.add_route(RIC_INDICATION, "ghost")

    def test_duplicate_endpoint_rejected(self):
        rmr = RmrRouter(Simulator())
        rmr.register_endpoint("x", lambda m, s, p: None)
        with pytest.raises(ValueError):
            rmr.register_endpoint("x", lambda m, s, p: None)

    def test_remove_endpoint_clears_routes(self):
        sim = Simulator()
        rmr = RmrRouter(sim)
        rmr.register_endpoint("x", lambda m, s, p: None)
        rmr.add_route(RIC_INDICATION, "x")
        rmr.remove_endpoint("x")
        assert rmr.send(RIC_INDICATION, 1, None) == 0


class FakeRic:
    """Minimal RIC stand-in for A1/SMO tests."""

    def __init__(self):
        self.delivered = []

    def deliver_policy(self, xapp, type_id, policy):
        self.delivered.append((xapp, type_id, policy))


class TestA1:
    def _a1(self):
        ric = FakeRic()
        a1 = A1Interface(ric)
        a1.register_policy_type(
            A1PolicyType(policy_type_id=1, name="test", schema={"x": int})
        )
        return ric, a1

    def test_put_policy_delivers(self):
        ric, a1 = self._a1()
        a1.put_policy(1, "inst", {"x": 5}, target_xapp="mobiwatch")
        assert ric.delivered == [("mobiwatch", 1, {"x": 5})]
        assert a1.get_policy(1, "inst") == {"x": 5}

    def test_schema_validation(self):
        ric, a1 = self._a1()
        with pytest.raises(A1Error):
            a1.put_policy(1, "inst", {"x": "wrong type"}, target_xapp="m")
        with pytest.raises(A1Error):
            a1.put_policy(1, "inst", {"y": 5}, target_xapp="m")
        with pytest.raises(A1Error):
            a1.put_policy(1, "inst", {"x": 5, "extra": 1}, target_xapp="m")

    def test_unknown_type_rejected(self):
        ric, a1 = self._a1()
        with pytest.raises(A1Error):
            a1.put_policy(99, "inst", {}, target_xapp="m")

    def test_delete_policy(self):
        ric, a1 = self._a1()
        a1.put_policy(1, "inst", {"x": 1}, target_xapp="m")
        assert a1.delete_policy(1, "inst") is True
        assert a1.get_policy(1, "inst") is None


class TestSmo:
    def test_training_job_lifecycle(self):
        smo = Smo(FakeRic())
        deployed = []
        smo.submit_training_job(
            "job",
            collect=lambda: [1, 2, 3],
            train=lambda data: sum(data),
            deploy=deployed.append,
        )
        job = smo.run_job("job")
        assert job.state is JobState.DEPLOYED
        assert job.model == 6
        assert deployed == [6]
        assert smo.model_catalog["job"] == 6

    def test_failed_job_records_error(self):
        smo = Smo(FakeRic())

        def broken(data):
            raise RuntimeError("boom")

        smo.submit_training_job("job", collect=list, train=broken, deploy=lambda m: None)
        job = smo.run_job("job")
        assert job.state is JobState.FAILED
        assert "boom" in job.error

    def test_duplicate_job_rejected(self):
        smo = Smo(FakeRic())
        smo.submit_training_job("job", collect=list, train=list, deploy=lambda m: None)
        with pytest.raises(ValueError):
            smo.submit_training_job("job", collect=list, train=list, deploy=lambda m: None)

    def test_default_policy_types_registered(self):
        smo = Smo(FakeRic())
        assert smo.a1.policy_types() == [20008, 20009]
