"""Integration tests: RIC agent <-> E2 termination <-> xApps."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import wire
from repro.oran import NearRtRic, RicAgent, XApp
from repro.oran.e2agent import _E2Envelope, _pdu_envelope
from repro.oran.e2ap import (
    _PDU_REGISTRY,
    ActionType,
    E2apPdu,
    E2SetupRequest,
    RicControlAck,
    RicControlRequest,
    RicSubscriptionRequest,
)
from repro.oran.e2sm_kpm import (
    ACTION_RELEASE_UE,
    KNOWN_ACTIONS,
    MOBIFLOW_RAN_FUNCTION_ID,
    MobiFlowKpmModel,
    MobiFlowReportStyle,
)
from repro.ran import FiveGNetwork, NetworkConfig
from repro.ran.links import InterfaceLink
from tests.test_wire import examples, wire_values


class ProbeXApp(XApp):
    """Subscribes to MobiFlow telemetry and records what it receives."""

    def start(self):
        super().start()
        self.records = []
        self.acks = []
        trigger = MobiFlowKpmModel.encode_event_trigger(
            MobiFlowReportStyle(0.1).to_trigger()
        )
        self.subscribe(MOBIFLOW_RAN_FUNCTION_ID, trigger)

    def on_indication(self, indication):
        self.records.extend(
            MobiFlowKpmModel.decode_indication(
                indication.indication_header, indication.indication_message
            )
        )

    def on_control_ack(self, ack):
        self.acks.append(ack)


def build_stack(seed=1):
    net = FiveGNetwork(NetworkConfig(seed=seed))
    e2 = InterfaceLink(net.sim, "E2", latency_s=0.002)
    agent = RicAgent(net, e2)
    ric = NearRtRic(net.sim, e2)
    e2.connect(a_handler=agent.on_e2, b_handler=ric.e2term.on_e2)
    probe = ProbeXApp(ric, "probe")
    agent.start()
    ric.start()
    return net, agent, ric, probe


class TestE2Setup:
    def test_node_connects_and_advertises_function(self):
        net, agent, ric, probe = build_stack()
        net.run(until=1.0)
        assert "gnb-cu-0" in ric.e2term.connected_nodes
        functions = ric.e2term.connected_nodes["gnb-cu-0"]
        assert str(MOBIFLOW_RAN_FUNCTION_ID) in functions

    def test_subscription_admitted(self):
        net, agent, ric, probe = build_stack()
        net.run(until=1.0)
        subscription = ric.e2term.subscriptions[probe.subscription_ids[0]]
        assert subscription.admitted
        assert subscription.xapp_name == "probe"


class TestTelemetryReporting:
    def test_xapp_receives_all_telemetry(self):
        net, agent, ric, probe = build_stack()
        ue = net.add_ue("pixel5")
        net.sim.schedule(0.5, ue.start_session)
        net.run(until=20.0)
        assert len(probe.records) == len(agent.collector.series)
        assert len(probe.records) > 10
        names = [record.msg for record in probe.records]
        assert "RegistrationRequest" in names

    def test_reporting_batches_by_interval(self):
        net, agent, ric, probe = build_stack()
        ue = net.add_ue("pixel5")
        net.sim.schedule(0.5, ue.start_session)
        net.run(until=20.0)
        # A ~1.5s registration at 100ms report period -> several indications.
        assert agent.indications_sent >= 3
        assert ric.e2term.indications_received == agent.indications_sent

    def test_max_records_per_indication(self):
        net = FiveGNetwork(NetworkConfig(seed=2))
        e2 = InterfaceLink(net.sim, "E2", latency_s=0.002)
        agent = RicAgent(net, e2)
        ric = NearRtRic(net.sim, e2)
        e2.connect(a_handler=agent.on_e2, b_handler=ric.e2term.on_e2)

        received_batches = []

        class CapProbe(XApp):
            def start(self):
                super().start()
                trigger = MobiFlowKpmModel.encode_event_trigger(
                    MobiFlowReportStyle(0.1, max_records_per_indication=3).to_trigger()
                )
                self.subscribe(MOBIFLOW_RAN_FUNCTION_ID, trigger)

            def on_indication(self, indication):
                received_batches.append(
                    MobiFlowKpmModel.decode_indication(
                        indication.indication_header, indication.indication_message
                    )
                )

        CapProbe(ric, "cap")
        agent.start()
        ric.start()
        ue = net.add_ue("pixel5")
        net.sim.schedule(0.5, ue.start_session)
        net.run(until=20.0)
        assert received_batches
        assert all(len(batch) <= 3 for batch in received_batches)


class TestControlActions:
    def test_blocklist_control_executes_and_acks(self):
        net, agent, ric, probe = build_stack()
        net.run(until=1.0)
        header, message = MobiFlowKpmModel.encode_control("blocklist_tmsi", tmsi=0xBEEF)
        probe.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, message)
        net.run(until=2.0)
        assert 0xBEEF in net.cu.tmsi_blocklist
        assert len(probe.acks) == 1
        assert probe.acks[0].success

    def test_blocklisted_tmsi_is_rejected_at_access(self):
        net, agent, ric, probe = build_stack(seed=3)
        ue = net.add_ue("pixel5")
        ue.start_session()
        net.run(until=20.0)
        assert ue.s_tmsi is not None
        header, message = MobiFlowKpmModel.encode_control(
            "blocklist_tmsi", tmsi=ue.s_tmsi
        )
        probe.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, message)
        net.run(until=21.0)
        outcomes = []
        ue.start_session(on_end=lambda u, o: outcomes.append(o))
        net.run(until=40.0)
        assert outcomes == ["rejected"]
        assert net.cu.setup_requests_rejected >= 1

    def test_release_control_on_unknown_rnti_fails_gracefully(self):
        net, agent, ric, probe = build_stack()
        net.run(until=1.0)
        header, message = MobiFlowKpmModel.encode_control("release_ue", rnti=0x7777)
        probe.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, message)
        net.run(until=2.0)
        assert len(probe.acks) == 1
        assert not probe.acks[0].success

    def test_release_control_drops_connected_ue(self):
        net, agent, ric, probe = build_stack(seed=4)
        ue = net.add_ue("galaxy_a22")
        ue.start_session()
        net.run(until=2.0)
        ctx = net.cu.context_for_rnti(ue.rnti)
        assert ctx is not None
        header, message = MobiFlowKpmModel.encode_control("release_ue", rnti=ue.rnti)
        probe.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, message)
        net.run(until=10.0)
        assert probe.acks and probe.acks[0].success
        assert net.cu.context_for_rnti(ue.rnti) is None


class TestXAppRegistry:
    def test_duplicate_xapp_name_rejected(self):
        net = FiveGNetwork(NetworkConfig(seed=1))
        e2 = InterfaceLink(net.sim, "E2")
        ric = NearRtRic(net.sim, e2)
        ProbeXApp(ric, "probe")
        with pytest.raises(ValueError):
            ProbeXApp(ric, "probe")

    def test_deregister_stops_delivery(self):
        net, agent, ric, probe = build_stack()
        ric.deregister_xapp("probe")
        ue = net.add_ue("pixel5")
        net.sim.schedule(0.5, ue.start_session)
        net.run(until=10.0)
        assert probe.records == []
        assert not probe.started


def rejected(sim, endpoint: str) -> float:
    return sim.obs.metrics.counter(f"{endpoint}.pdus_rejected_total").value


class TestHostilePdus:
    """Bytes from the E2 edge never stop the run: a PDU an endpoint cannot
    read is counted and dropped, and a control it cannot carry out is
    refused in its ack."""

    GARBAGE = b"\xff\x00garbage"

    @pytest.mark.parametrize("toward", ["ric", "node"])
    def test_garbage_envelope_is_counted_and_the_run_goes_on(self, toward):
        net, agent, ric, probe = build_stack()
        send = agent.e2.send_to_b if toward == "ric" else agent.e2.send_to_a
        net.sim.schedule(0.3, lambda: send(_E2Envelope(self.GARBAGE)))
        ue = net.add_ue("pixel5")
        net.sim.schedule(0.5, ue.start_session)
        net.run(until=20.0)
        endpoint = "e2term" if toward == "ric" else "e2agent"
        assert rejected(net.sim, endpoint) == 1
        assert len(probe.records) == len(agent.collector.series) > 10

    def test_control_with_undecodable_header_is_refused(self):
        net, agent, ric, probe = build_stack()
        net.run(until=0.5)
        probe.send_control(MOBIFLOW_RAN_FUNCTION_ID, self.GARBAGE, wire.encode({}))
        net.run(until=1.0)
        assert [ack.success for ack in probe.acks] == [False]
        assert agent.controls_executed == 0

    def test_control_without_its_target_is_refused(self):
        net, agent, ric, probe = build_stack()
        net.run(until=0.5)
        header, _ = MobiFlowKpmModel.encode_control(ACTION_RELEASE_UE, rnti=1)
        probe.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, wire.encode({}))
        net.run(until=1.0)
        assert [ack.success for ack in probe.acks] == [False]
        assert "rnti" in probe.acks[0].outcome
        assert rejected(net.sim, "e2agent") == 0

    @pytest.mark.parametrize("period_s", [0.0, -1.0, float("inf"), float("nan")])
    def test_report_subscription_with_a_bad_period_is_not_admitted(self, period_s):
        """A zero period would tick forever at one sim instant."""
        net, agent, ric, probe = build_stack()
        trigger = MobiFlowKpmModel.encode_event_trigger(
            {"style": "mobiflow-report", "period_s": period_s, "max_records": 0}
        )
        request_id = probe.subscribe(MOBIFLOW_RAN_FUNCTION_ID, trigger)
        net.run(until=1.0)
        assert ric.e2term.subscriptions[request_id].admitted is False
        assert ric.e2term.subscriptions[probe.subscription_ids[0]].admitted


def _pdu_or_none(data: bytes):
    try:
        return E2apPdu.from_wire(data)
    except (ValueError, TypeError):
        return None


def _endpoints():
    """Both E2 endpoints, each with what it sends captured instead of sent."""
    net, agent, ric, _ = build_stack()
    sent: list = []
    agent._send = sent.append
    ric.e2term._send = sent.append
    return net, agent, ric.e2term, sent


pdu_names = st.sampled_from(sorted(_PDU_REGISTRY))
hostile_values = wire_values | st.floats()
hostile_pdus = st.builds(
    lambda name, ies: wire.encode({"pdu": name, "ie": ies}),
    pdu_names,
    st.dictionaries(
        st.sampled_from(
            sorted({f.name for cls in _PDU_REGISTRY.values() for f in dataclasses.fields(cls)})
        ),
        hostile_values,
        max_size=8,
    ),
)
control_headers = st.sampled_from(KNOWN_ACTIONS).map(
    lambda action: MobiFlowKpmModel.encode_control(action)[0]
) | st.binary(max_size=32)
control_messages = st.dictionaries(
    st.sampled_from(["rnti", "tmsi", "max_setups", "window_s"]) | st.text(max_size=4),
    hostile_values,
    max_size=4,
).map(wire.encode) | st.binary(max_size=32)


class TestAnyBytesAtTheE2Edge:
    """Any bytes, in either direction, are counted or answered, never raised."""

    @examples(200)
    @given(data=st.binary(max_size=64) | hostile_pdus, toward_ric=st.booleans())
    def test_counted_or_answered(self, data, toward_ric):
        net, agent, e2term, sent = _endpoints()
        endpoint, name = (e2term, "e2term") if toward_ric else (agent, "e2agent")
        endpoint.on_e2(_E2Envelope(data))
        pdu, outcomes = _pdu_or_none(data), len(sent) + rejected(net.sim, name)
        answered = (E2SetupRequest,) if toward_ric else (RicSubscriptionRequest, RicControlRequest)
        if pdu is None:
            assert rejected(net.sim, name) == 1 and sent == []
        elif isinstance(pdu, answered) and getattr(pdu, "ack_requested", True):
            assert outcomes == 1
        else:
            assert outcomes <= 1

    @examples(200)
    @given(
        request_id=st.integers(min_value=0, max_value=2**31),
        header=control_headers,
        message=control_messages,
        ack=st.booleans(),
    )
    def test_every_control_is_acked_when_asked(self, request_id, header, message, ack):
        net, agent, _, sent = _endpoints()
        request = RicControlRequest(
            ric_request_id=request_id,
            ran_function_id=MOBIFLOW_RAN_FUNCTION_ID,
            control_header=header,
            control_message=message,
            ack_requested=ack,
        )
        agent.on_e2(_pdu_envelope(request))
        assert rejected(net.sim, "e2agent") == 0
        if ack:
            assert [type(pdu) for pdu in sent] == [RicControlAck]
            assert sent[0].success == (agent.controls_executed == 1)
        else:
            assert sent == []
