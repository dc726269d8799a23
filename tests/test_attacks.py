"""Tests for the five attack implementations and their telemetry signatures."""

import hashlib

import pytest

from repro.attacks import (
    BlindDosAttack,
    BtsDosAttack,
    DownlinkIdExtractionAttack,
    NullCipherAttack,
    UplinkIdExtractionAttack,
)
from repro import wire
from repro.obs.metrics import MetricsRegistry
from repro.ran import FiveGNetwork, NetworkConfig
from repro.ran.channel import ChannelConfig
from repro.ran.core_network import AmfConfig
from repro.ran.messages import Message
from repro.ran.pcap import CaptureRecord, PcapStream
from repro.telemetry import MobiFlowCollector
from tests.fixtures.repin_wire_golden import canonical
from tests.test_wire_symbols import spell_out


def make_net(seed=3, with_benign=2, **config_kwargs):
    net = FiveGNetwork(NetworkConfig(seed=seed, **config_kwargs))
    for i in range(with_benign):
        ue = net.add_ue("pixel5" if i % 2 == 0 else "galaxy_a22")
        net.sim.schedule(0.1 + 0.8 * i, ue.start_session)
    return net


def collect(net):
    return MobiFlowCollector().parse_stream(net.pcap)


CONTAINERS = ("rrc_container", "nas_pdu")


def contents(message):
    """A message as ``(name, fields)`` with the messages it carries decoded
    the same way: what was sent, whatever bytes the codec spends on it."""
    fields = message.fields()
    for container in CONTAINERS:
        if fields.get(container):
            fields[container] = contents(Message.from_wire(fields[container]))
    return message.name, fields


def rewritten(message, rewrite):
    """The envelope's bytes passed through ``rewrite``, and the bytes of the
    messages it carries too."""
    fields = message.fields()
    for container in CONTAINERS:
        if fields.get(container):
            fields[container] = rewritten(Message.from_wire(fields[container]), rewrite)
    return rewrite(wire.encode({"msg": message.name, "ie": fields}))


def revision_1_bytes(message):
    """The envelope as every encoder wrote it before wire format revision 2:
    every name spelled out, in the messages it carries too."""
    return rewritten(message, spell_out)


def revision_2_bytes(message):
    """The envelope as wire format revisions 2 and 3 wrote it: every table
    name a two-byte symbol, in the messages it carries too."""
    return rewritten(message, lambda data: canonical(data, 2))


class TestBtsDos:
    def test_floods_fresh_rntis(self):
        net = make_net()
        attack = BtsDosAttack(net, start_time=2.0, connections=10, interval_s=0.05)
        attack.arm()
        net.run(until=20.0)
        assert len(attack.malicious_rntis) >= 10

    def test_sessions_end_at_authentication(self):
        net = make_net()
        attack = BtsDosAttack(net, start_time=2.0, connections=8, interval_s=0.05)
        attack.arm()
        net.run(until=20.0)
        series = collect(net)
        by_session = series.sessions()
        attack_sessions = [
            msgs
            for msgs in by_session.values()
            if msgs and msgs[0].rnti in attack.malicious_rntis
        ]
        assert len(attack_sessions) >= 8
        for msgs in attack_sessions:
            names = [m.msg for m in msgs]
            assert "AuthenticationResponse" not in names
            # ends with the challenge or the eventual forced release
            assert "AuthenticationRequest" in names or "RRCRelease" in names

    def test_ground_truth_excludes_benign_traffic(self):
        net = make_net()
        attack = BtsDosAttack(net, start_time=2.0, connections=6, interval_s=0.05)
        attack.arm()
        net.run(until=20.0)
        series = collect(net)
        benign_rntis = {
            r.rnti
            for r in series
            if r.rnti is not None and r.rnti not in attack.malicious_rntis
        }
        assert benign_rntis, "expected benign traffic alongside the attack"
        assert not benign_rntis & attack.malicious_rntis

    def test_arming_twice_rejected(self):
        net = make_net(with_benign=0)
        attack = BtsDosAttack(net)
        attack.arm()
        with pytest.raises(RuntimeError):
            attack.arm()

    @staticmethod
    def _flood(seed, duplicate_prob):
        channel = ChannelConfig(duplicate_prob=duplicate_prob)
        net = FiveGNetwork(NetworkConfig(seed=seed, channel=channel))
        attack = BtsDosAttack(net, start_time=0.5, connections=20, interval_s=0.05)
        attack.arm()
        net.run(until=10.0)
        return net, attack

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_flood_survives_channel_duplication(self, seed):
        """A duplicated AuthenticationRequest used to arm a second
        next-connection event, which fired into the session the first had
        opened and raised "session already in progress" out of the run
        (4 of these 8 seeds)."""
        net, attack = self._flood(seed, duplicate_prob=0.05)
        assert net.channel.frames_duplicated > 0
        assert attack.rogue.sessions_started == 20
        assert attack.rogue._pending_next is None

    def test_flood_unchanged_without_duplication(self):
        """Capture digest, event count and RNG positions recorded before the
        fix: with ``duplicate_prob=0`` nothing moves."""
        net, attack = self._flood(seed=1, duplicate_prob=0.0)
        digest, sent, before = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
        two_byte = hashlib.sha256()
        old_capture = PcapStream()
        for record in net.pcap:
            where = repr((record.timestamp, record.interface)).encode()
            digest.update(where)
            digest.update(record.decode().to_wire())
            two_byte.update(where)
            two_byte.update(revision_2_bytes(record.decode()))
            sent.update(
                repr((record.timestamp, record.interface, contents(record.decode()))).encode()
            )
            old_capture._records.append(
                CaptureRecord(record.timestamp, record.interface, revision_1_bytes(record.decode()))
            )
            before.update(where)
            before.update(old_capture._records[-1].payload)
        # What was sent, independent of the codec: computed at the commit
        # before wire format revision 2 and unchanged by it ...
        assert sent.hexdigest() == (
            "0ed4b031d1b0440a885d0b00347c859a94d64bdf9881b38d3f65137271d47237"
        )
        # ... and the bytes it was sent in (re-pinned for revision 4) ...
        assert digest.hexdigest() == (
            "173b555d592bb1ad8f9b02948664b9f00802190926e457ced7e56bf959904ae6"
        )
        # ... which, with every symbol in its two-byte form, are the bytes
        # this test pinned for revisions 2 and 3.
        assert two_byte.hexdigest() == (
            "a4b244ef6847412374ce56aed6144037dc74c8e11a4f708cf170be8a25dc5eeb"
        )
        # The same capture with every name spelled out is, byte for byte,
        # what this test pinned before revision 2 — and a capture stored
        # then no longer parses: every envelope is counted undecodable.
        assert before.hexdigest() == (
            "f6ad3c21ad1838e55074c9cda1649464eb70355029f331f2552baafb8c7ccad6"
        )
        assert old_capture.byte_size() > 2.5 * net.pcap.byte_size()
        metrics = MetricsRegistry()
        assert MobiFlowCollector(metrics).parse_stream(old_capture).records == []
        assert sum(
            metrics.counter("collector.undecodable_total", labels={"interface": name}).value
            for name in ("F1AP", "NGAP")
        ) == len(old_capture) > 0
        assert net.sim.events_processed == 411
        assert net.sim.rng.stream("channel").random() == 0.7995638674119381
        assert attack.rogue.rng.random() == 0.057608794667628915


class TestBlindDos:
    def _run(self, seed=3):
        net = make_net(seed=seed, with_benign=1)
        victim = net.ues[0]
        attack = BlindDosAttack(net, victim=victim, start_time=3.0, replays=5)
        attack.arm()
        net.run(until=25.0)
        return net, victim, attack

    def test_replays_victim_tmsi(self):
        net, victim, attack = self._run()
        series = collect(net)
        replayed = [
            r
            for r in series
            if r.rnti in attack.malicious_rntis and r.msg == "RRCSetupRequest"
        ]
        assert len(replayed) >= 5
        tmsis = {r.s_tmsi for r in replayed}
        assert len(tmsis) == 1, "all replays must carry the same sniffed TMSI"

    def test_waits_for_victim_registration(self):
        net, victim, attack = self._run()
        assert attack.window_start is not None
        # All attack activity happens after the victim had an S-TMSI.
        assert victim.s_tmsi is not None

    def test_ground_truth_covers_attack_sessions(self):
        net, victim, attack = self._run()
        series = collect(net)
        malicious = [r for r in series if attack.is_malicious(r)]
        assert malicious
        assert all(r.rnti in attack.malicious_rntis for r in malicious)


class TestUplinkIdExtraction:
    def _run(self, seed=3):
        net = make_net(seed=seed, with_benign=1)
        victim = net.add_ue("pixel6", name="victim")
        net.sim.schedule(2.5, victim.start_session)
        attack = UplinkIdExtractionAttack(net, victim=victim, start_time=2.0, duration_s=10.0)
        attack.arm()
        net.run(until=25.0)
        return net, victim, attack

    def test_suci_downgraded_to_null_scheme(self):
        net, victim, attack = self._run()
        series = collect(net)
        malicious = [r for r in series if attack.is_malicious(r)]
        assert len(malicious) == 1
        record = malicious[0]
        assert record.msg == "RegistrationRequest"
        assert record.suci.startswith("suci-null-")
        assert victim.supi.msin in record.suci
        assert record.exposes_permanent_identity()

    def test_trace_remains_standard_compliant(self):
        net, victim, attack = self._run()
        # Registration still succeeds: null-scheme SUCI is legal.
        assert victim.guti is not None

    def test_extraction_counter(self):
        net, victim, attack = self._run()
        assert attack.extractions == 1

    def test_no_effect_outside_window(self):
        net = make_net(seed=3, with_benign=1)
        victim = net.add_ue("pixel6", name="victim")
        net.sim.schedule(8.0, victim.start_session)  # after window closes
        attack = UplinkIdExtractionAttack(net, victim=victim, start_time=2.0, duration_s=3.0)
        attack.arm()
        net.run(until=25.0)
        assert attack.extractions == 0


class TestDownlinkIdExtraction:
    def _run(self, seed=3):
        net = make_net(seed=seed, with_benign=1)
        victim = net.add_ue("pixel6", name="victim")
        net.sim.schedule(2.5, victim.start_session)
        attack = DownlinkIdExtractionAttack(net, victim=victim, start_time=2.0, duration_s=10.0)
        attack.arm()
        net.run(until=25.0)
        return net, victim, attack

    def test_supi_extracted(self):
        net, victim, attack = self._run()
        assert attack.extracted_supis == [str(victim.supi)]

    def test_out_of_order_sequence_in_telemetry(self):
        net, victim, attack = self._run()
        series = collect(net)
        malicious = [r for r in series if attack.is_malicious(r)]
        assert len(malicious) == 1
        identity_response = malicious[0]
        assert identity_response.supi == str(victim.supi)
        # The entry immediately preceding it in the same session is the
        # AuthenticationRequest — the Figure 2a out-of-order signature.
        session = [r for r in series if r.session_id == identity_response.session_id]
        idx = session.index(identity_response)
        assert session[idx - 1].msg == "AuthenticationRequest"

    def test_victim_still_registers_afterwards(self):
        net, victim, attack = self._run()
        assert victim.guti is not None

    def test_single_shot_by_default(self):
        net, victim, attack = self._run()
        assert attack.shots_left == 0
        series = collect(net)
        # Only one IdentityResponse carrying a plaintext SUPI.
        leaks = [r for r in series if r.supi is not None]
        assert len(leaks) == 1


class TestNullCipher:
    def _run(self, seed=3, allow_null=True):
        net = make_net(seed=seed, with_benign=1, amf=AmfConfig(allow_null_algorithms=allow_null))
        attack = NullCipherAttack(net, start_time=2.0)
        attack.arm()
        net.run(until=25.0)
        return net, attack

    def test_null_algorithms_negotiated(self):
        net, attack = self._run()
        series = collect(net)
        smc = [
            r
            for r in series
            if r.msg == "NASSecurityModeCommand" and r.rnti in attack.malicious_rntis
        ]
        assert len(smc) == 1
        assert smc[0].cipher_alg == 0
        assert smc[0].integrity_alg == 0

    def test_benign_smc_unaffected(self):
        net, attack = self._run()
        series = collect(net)
        benign_smc = [
            r
            for r in series
            if r.msg == "NASSecurityModeCommand" and r.rnti not in attack.malicious_rntis
        ]
        assert benign_smc
        assert all(r.cipher_alg != 0 for r in benign_smc)

    def test_registration_succeeds_with_null_security(self):
        net, attack = self._run()
        assert attack.rogue is not None
        assert attack.rogue.guti is not None
        assert attack.rogue.last_cipher is not None
        assert attack.rogue.last_cipher.is_null
        assert attack.rogue.last_integrity.is_null

    def test_strict_network_rejects_null_only_ue(self):
        net, attack = self._run(allow_null=False)
        assert attack.rogue is not None
        assert attack.rogue.guti is None
        assert net.amf.registrations_rejected >= 1
