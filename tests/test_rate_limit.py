"""Tests for the DU access rate limiter (dApp-style control, §5)."""

import importlib.util
from pathlib import Path

import pytest

from repro.attacks import BtsDosAttack
from repro.core import SixGXSec, XsecConfig
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.oran.e2sm_kpm import MobiFlowKpmModel, MOBIFLOW_RAN_FUNCTION_ID
from repro.ran import FiveGNetwork, NetworkConfig
from repro.ran.network import NetworkConfig as NetCfg


class TestDuRateLimiter:
    def test_flood_is_capped(self):
        net = FiveGNetwork(NetworkConfig(seed=31))
        net.du.set_rate_limit(3, 1.0)
        attack = BtsDosAttack(net, start_time=0.5, connections=15, interval_s=0.05)
        attack.arm()
        net.run(until=20.0)
        assert net.du.setup_requests_rate_limited > 0
        # The flood consumed far fewer RNTIs than it attempted connections.
        assert len(attack.malicious_rntis) < 15

    def test_normal_traffic_unaffected(self):
        net = FiveGNetwork(NetworkConfig(seed=32))
        net.du.set_rate_limit(3, 1.0)
        ues = [net.add_ue("pixel5"), net.add_ue("galaxy_a53")]
        for i, ue in enumerate(ues):
            net.sim.schedule(0.5 + 2.0 * i, ue.start_session)
        net.run(until=30.0)
        assert net.amf.registrations_accepted == 2
        assert net.du.setup_requests_rate_limited == 0

    def test_clear_restores_admission(self):
        net = FiveGNetwork(NetworkConfig(seed=33))
        net.du.set_rate_limit(1, 10.0)
        ue_a, ue_b = net.add_ue("pixel5"), net.add_ue("pixel6")
        outcomes = []
        net.sim.schedule(0.5, lambda: ue_a.start_session())
        net.sim.schedule(1.0, lambda: ue_b.start_session(on_end=lambda u, o: outcomes.append(o)))
        net.run(until=10.0)
        assert net.du.setup_requests_rate_limited >= 1
        assert outcomes == ["setup-failed"]  # barred at the radio
        net.du.clear_rate_limit()
        ue_b.start_session(on_end=lambda u, o: outcomes.append(o))
        net.run(until=40.0)
        assert outcomes[-1] == "completed"
        assert net.amf.registrations_accepted == 2

    def test_invalid_limit_rejected(self):
        net = FiveGNetwork(NetworkConfig(seed=34))
        with pytest.raises(ValueError):
            net.du.set_rate_limit(0, 1.0)
        with pytest.raises(ValueError):
            net.du.set_rate_limit(3, 0.0)

    @pytest.mark.parametrize("window_s", [float("inf"), float("nan")])
    def test_non_finite_window_rejected(self, window_s):
        """An infinite window bars every setup after the first for good; a
        NaN one bars nothing."""
        net = FiveGNetwork(NetworkConfig(seed=34))
        with pytest.raises(ValueError):
            net.du.set_rate_limit(1, window_s)
        assert net.du._rate_limit is None


class TestRateLimitViaE2:
    def test_control_action_reaches_du(self):
        from repro.oran import NearRtRic, RicAgent, XApp
        from repro.ran.links import InterfaceLink

        net = FiveGNetwork(NetworkConfig(seed=35))
        e2 = InterfaceLink(net.sim, "E2", latency_s=0.002)
        agent = RicAgent(net, e2)
        ric = NearRtRic(net.sim, e2)
        e2.connect(a_handler=agent.on_e2, b_handler=ric.e2term.on_e2)

        acks = []

        class Ctl(XApp):
            def on_control_ack(self, ack):
                acks.append(ack)

        ctl = Ctl(ric, "ctl")
        agent.start()
        ric.start()
        header, message = MobiFlowKpmModel.encode_control(
            "rate_limit_access", max_setups=2, window_s=0.5
        )
        ctl.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, message)
        net.run(until=1.0)
        assert acks and acks[0].success
        assert net.du._rate_limit == (2, 0.5)

    def test_bad_params_nack(self):
        from repro.oran import NearRtRic, RicAgent, XApp
        from repro.ran.links import InterfaceLink

        net = FiveGNetwork(NetworkConfig(seed=36))
        e2 = InterfaceLink(net.sim, "E2", latency_s=0.002)
        agent = RicAgent(net, e2)
        ric = NearRtRic(net.sim, e2)
        e2.connect(a_handler=agent.on_e2, b_handler=ric.e2term.on_e2)
        acks = []

        class Ctl(XApp):
            def on_control_ack(self, ack):
                acks.append(ack)

        ctl = Ctl(ric, "ctl")
        agent.start()
        ric.start()
        header, message = MobiFlowKpmModel.encode_control(
            "rate_limit_access", max_setups=0, window_s=1.0
        )
        ctl.send_control(MOBIFLOW_RAN_FUNCTION_ID, header, message)
        net.run(until=1.0)
        assert acks and not acks[0].success


class TestClosedLoopRateLimit:
    def test_confirmed_storm_triggers_rate_limit(self):
        config = XsecConfig(train_epochs=8, auto_rate_limit=True)
        capture = generate_benign_dataset(
            BenignDatasetConfig(
                duration_s=120.0, ue_mix=(("pixel5", 1), ("oai_ue", 2))
            )
        )
        labeled = capture.labeled(config.spec, config.window, "benign")
        xsec = SixGXSec(config, network_config=NetCfg(seed=37))
        xsec.train_from_benign(labeled.windowed.windows)
        # A sustained flood: still running when the confirmed verdict (a
        # few seconds after the first alarm) installs the limiter.
        attack = BtsDosAttack(xsec.net, start_time=3.0, connections=80, interval_s=0.12)
        attack.arm()
        xsec.run(until=40.0)
        actions = [name for name, _ in xsec.pipeline.actions_taken]
        assert "rate_limit_access" in actions
        # The limiter bit: part of the flood was barred at the radio.
        assert xsec.net.du.setup_requests_rate_limited > 0


@pytest.fixture(scope="module")
def dos_closed_loop():
    """examples/dos_closed_loop.py, loaded, and the result of its one run."""
    path = Path(__file__).parent.parent / "examples" / "dos_closed_loop.py"
    spec = importlib.util.spec_from_file_location("dos_closed_loop", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    return example, example.run_closed_loop()


class TestDosClosedLoopExample:
    """examples/dos_closed_loop.py is the one end-to-end run with
    ``auto_rate_limit`` on: the storm is rate-limited at each confirmed
    verdict, then the replayed S-TMSI is blocklisted."""

    def test_actions_taken(self, dos_closed_loop):
        _, (xsec, storm, replay) = dos_closed_loop
        rate_limit = ("rate_limit_access", {"max_setups": 3, "window_s": 1.0})
        blocklist = ("blocklist_tmsi", {"tmsi": 0x7E0E2827})
        assert xsec.pipeline.actions_taken == [rate_limit] * 13 + [blocklist]
        assert replay.rogue.victim_s_tmsi == 0x7E0E2827

    def test_prints_identifiers_in_hex_and_the_rate_as_is(
        self, dos_closed_loop, capsys, monkeypatch
    ):
        example, result = dos_closed_loop
        monkeypatch.setattr(example, "run_closed_loop", lambda: result)
        example.main()
        out = capsys.readouterr().out
        assert "rate_limit_access: {'max_setups': 3, 'window_s': 1.0}" in out
        assert "blocklist_tmsi: {'tmsi': '0x7e0e2827'}" in out
