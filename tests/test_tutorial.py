"""The docs/WRITING_AN_XAPP.md tutorial, executed.

Keeps the tutorial honest: this test builds the exact KPI-monitor xApp the
document walks through and checks every documented behaviour.
"""

from repro import wire
from repro.oran import NearRtRic, RicAgent
from repro.oran.e2ap import ActionType
from repro.oran.e2sm_kpm import (
    MOBIFLOW_RAN_FUNCTION_ID,
    MobiFlowKpmModel,
    MobiFlowReportStyle,
)
from repro.oran.xapp import XApp
from repro.ran import FiveGNetwork, NetworkConfig
from repro.ran.links import InterfaceLink


class KpiMonitorXApp(XApp):
    """Counts control messages per session; bars noisy identities."""

    SETUPS_BEFORE_BARRING = 5

    def start(self):
        super().start()
        self._setups_per_tmsi = {}
        self.acks = []
        self.seen = []
        trigger = MobiFlowKpmModel.encode_event_trigger(
            MobiFlowReportStyle(report_period_s=0.1).to_trigger()
        )
        self.subscribe(MOBIFLOW_RAN_FUNCTION_ID, trigger, ActionType.REPORT)

    def on_indication(self, indication):
        records = MobiFlowKpmModel.decode_indication(
            indication.indication_header, indication.indication_message
        )
        for record in records:
            self.sdl.append("kpi", "messages", record.msg)
            if record.msg == "RRCSetupRequest" and record.s_tmsi is not None:
                count = self._setups_per_tmsi.get(record.s_tmsi, 0) + 1
                self._setups_per_tmsi[record.s_tmsi] = count
                if count == self.SETUPS_BEFORE_BARRING:
                    self._bar(record.s_tmsi)
        self.sdl.set_many(
            "kpi.raw",
            [
                (f"{indication.sequence_number}.{i}", wire.Encoded(records.payload, *span))
                for i, span in enumerate(records.spans)
            ],
        )
        self.seen.extend(records)

    def _bar(self, tmsi):
        header, message = MobiFlowKpmModel.encode_control(
            "blocklist_tmsi", tmsi=tmsi
        )
        self.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, message)

    def on_control_ack(self, ack):
        self.acks.append(ack)

    def on_policy(self, policy_type_id, policy):
        if "threshold_percentile" in policy:
            self.SETUPS_BEFORE_BARRING = int(policy["threshold_percentile"])


def deploy(seed=71):
    net = FiveGNetwork(NetworkConfig(seed=seed))
    e2 = InterfaceLink(net.sim, "E2", latency_s=0.002)
    agent = RicAgent(net, e2)
    ric = NearRtRic(net.sim, e2)
    e2.connect(a_handler=agent.on_e2, b_handler=ric.e2term.on_e2)
    xapp = KpiMonitorXApp(ric, "kpi-monitor")
    agent.start()
    ric.start()
    return net, ric, xapp


class TestTutorialXApp:
    def test_kpi_counters_accumulate(self):
        net, ric, xapp = deploy()
        ue = net.add_ue("pixel5")
        net.sim.schedule(0.5, ue.start_session)
        net.run(until=30.0)
        messages = ric.sdl.get("kpi", "messages")
        assert messages and "RegistrationRequest" in messages

    def test_records_stored_as_received_spans_read_back_as_dicts(self):
        net, ric, xapp = deploy()
        watched = []
        ric.sdl.watch("kpi.raw", lambda namespace, key, value: watched.append(value))
        ue = net.add_ue("pixel5")
        net.sim.schedule(0.5, ue.start_session)
        net.run(until=30.0)
        stored = [value for _, value in ric.sdl.items("kpi.raw")]
        expected = [record.to_wire_dict() for record in xapp.seen]
        assert len(expected) > 10
        assert sorted(stored, key=repr) == sorted(expected, key=repr)
        assert watched == expected  # watchers get decoded values, not spans

    def test_noisy_identity_gets_barred(self):
        from repro.attacks import BlindDosAttack

        net, ric, xapp = deploy(seed=72)
        victim = net.add_ue("pixel6", name="victim")
        net.sim.schedule(0.5, victim.start_session)
        attack = BlindDosAttack(net, victim=victim, start_time=5.0, replays=8)
        attack.arm()
        net.run(until=60.0)
        # The replayed S-TMSI crossed the xApp's threshold and was barred.
        assert xapp.acks and xapp.acks[0].success
        assert net.cu.tmsi_blocklist

    def test_policy_tunes_the_threshold(self):
        net, ric, xapp = deploy(seed=73)
        ric.deliver_policy("kpi-monitor", 20008, {"threshold_percentile": 2})
        assert xapp.SETUPS_BEFORE_BARRING == 2
