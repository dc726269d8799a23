"""Tests for MobiFlow collection: parsing, sessions, state tracking."""

from repro import wire
from repro.obs.metrics import MetricsRegistry
from repro.ran import FiveGNetwork, NetworkConfig, f1ap, ngap, rrc
from repro.ran import nas as nas_messages
from repro.ran.links import InterfaceLink
from repro.ran.pcap import CaptureRecord, PcapStream
from repro.sim import Simulator
from repro.telemetry import MobiFlowCollector, decode_record, encode_record
from repro.telemetry.encoder import decode_batch, encode_batch
from repro.telemetry.mobiflow import MobiFlowRecord, TelemetrySeries

import pytest


def run_benign(seed=1, ues=1, until=30.0):
    net = FiveGNetwork(NetworkConfig(seed=seed))
    for i in range(ues):
        ue = net.add_ue("pixel5" if i % 2 == 0 else "galaxy_a53")
        net.sim.schedule(0.2 * i, ue.start_session)
    net.run(until=until)
    return net


def undecodable_total(metrics):
    return {
        interface: metrics.counter(
            "collector.undecodable_total", labels={"interface": interface}
        ).value
        for interface in ("F1AP", "NGAP")
    }


# A benign registration flow, cycled per session.
_FLOW = (
    ("RRCSetupRequest", "RRC", "UL"),
    ("RRCSetup", "RRC", "DL"),
    ("RRCSetupComplete", "RRC", "UL"),
    ("RegistrationRequest", "NAS", "UL"),
    ("AuthenticationRequest", "NAS", "DL"),
    ("AuthenticationResponse", "NAS", "UL"),
    ("NASSecurityModeCommand", "NAS", "DL"),
    ("NASSecurityModeComplete", "NAS", "UL"),
    ("RegistrationAccept", "NAS", "DL"),
    ("RRCRelease", "RRC", "DL"),
)


def field_stream(records, sessions):
    """Raw field values of a synthetic capture, in time order, with TMSI/SUCI
    identity variety so every nullable field holds both values and holes."""
    for index in range(records):
        session_id = 1 + index % sessions
        step = (index // sessions) % len(_FLOW)
        msg, protocol, direction = _FLOW[step]
        yield {
            "timestamp": index * 0.002,
            "msg": msg,
            "protocol": protocol,
            "direction": direction,
            "session_id": session_id,
            "rnti": 0x4000 + session_id,
            "s_tmsi": 0x00C0_0000 + session_id if step >= 2 else None,
            "suci": (
                f"suci-0-999-70-0000-{session_id:07d}"
                if step == 3 and session_id % 5 == 0
                else None
            ),
            "supi": None,
            "cipher_alg": 2 if step >= 7 else None,
            "integrity_alg": 2 if step >= 7 else None,
            "establishment_cause": "mo-Signalling" if step == 0 else None,
        }


class TestUndecodableCaptures:
    """One packet that does not decode is counted and skipped; it used to
    raise MessageError out of parse_stream (losing the rest of the capture)
    and, live, out of the link tap into InterfaceLink._send."""

    GARBAGE = b"\x08\x05garbage"
    # A table name: the one tag byte 0x10 + index.
    CAUSE = wire.encode("establishment_cause") + wire.encode("mo-Signalling")

    def _setup(self, du_id, container):
        return f1ap.F1InitialUlRrcMessageTransfer(
            gnb_du_ue_id=du_id, c_rnti=0x4600 + du_id, rrc_container=container
        )

    def test_undecodable_container_skips_one_record(self):
        good = rrc.RrcSetupRequest(ue_identity=7).to_wire()
        stream = PcapStream()
        stream.capture(0.1, "F1AP", self._setup(1, good))
        stream.capture(0.2, "F1AP", self._setup(2, self.GARBAGE))
        stream.capture(0.3, "F1AP", self._setup(3, good))
        metrics = MetricsRegistry()
        series = MobiFlowCollector(metrics).parse_stream(stream)
        assert [(r.timestamp, r.msg, r.rnti) for r in series] == [
            (0.1, "RRCSetupRequest", 0x4601),
            (0.3, "RRCSetupRequest", 0x4603),
        ]
        assert undecodable_total(metrics) == {"F1AP": 1, "NGAP": 0}

    @pytest.mark.parametrize(
        "container",
        [
            GARBAGE,
            b"",
            rrc.RrcSetupRequest().to_wire()[:-1],
            # Decodes as TLV, names a real class, carries a value no enum has.
            wire.encode(
                {
                    "msg": "RRCSetupRequest",
                    "ie": {**rrc.RrcSetupRequest().fields(), "establishment_cause": "mo-Xignalling"},
                }
            ),
            # The cause as a symbol past the end of wire.SYMBOLS, two-byte
            # and one-byte, and as a reserved tag.
            rrc.RrcSetupRequest().to_wire().replace(CAUSE, CAUSE[:1] + b"\x09\xff"),
            rrc.RrcSetupRequest().to_wire().replace(
                CAUSE, CAUSE[:1] + bytes([0x10 + len(wire.SYMBOLS)])
            ),
            rrc.RrcSetupRequest().to_wire().replace(CAUSE, CAUSE[:1] + b"\x0f"),
            None,
            "not bytes",
        ],
        ids=[
            "garbage", "empty", "truncated", "enum_out_of_range", "symbol_out_of_range",
            "one_byte_symbol_out_of_range", "reserved_tag", "none", "str",
        ],
    )  # fmt: skip
    def test_every_kind_of_bad_container_and_pdu(self, container):
        metrics = MetricsRegistry()
        collector = MobiFlowCollector(metrics)
        collector.on_capture(0.1, "F1AP", self._setup(1, container))
        collector.on_capture(
            0.2, "F1AP", f1ap.F1UlRrcMessageTransfer(gnb_du_ue_id=1, rrc_container=container)
        )
        collector.on_capture(0.3, "NGAP", ngap.NgInitialUeMessage(ran_ue_id=1, nas_pdu=container))
        collector.on_capture(
            0.4, "NGAP", ngap.NgUplinkNasTransport(ran_ue_id=1, nas_pdu=container)
        )
        assert len(collector.series) == 0
        assert undecodable_total(metrics) == {"F1AP": 2, "NGAP": 2}

    def test_undecodable_capture_payload_is_skipped(self):
        good = self._setup(1, rrc.RrcSetupRequest().to_wire())
        stream = PcapStream()
        stream.capture(0.1, "F1AP", good)
        stream._records.append(CaptureRecord(0.2, "NGAP", self.GARBAGE))
        stream.capture(0.3, "F1AP", self._setup(2, rrc.RrcSetupRequest().to_wire()))
        restored = PcapStream.from_bytes(stream.to_bytes())
        metrics = MetricsRegistry()
        assert len(MobiFlowCollector(metrics).parse_stream(restored)) == 2
        assert undecodable_total(metrics) == {"F1AP": 0, "NGAP": 1}

    def test_capture_payload_with_an_unknown_symbol_is_skipped(self):
        good = self._setup(1, b"").to_wire()
        index = good.index(wire.encode("F1InitialULRRCMessageTransfer"))
        hostile = good[: index + 1] + bytes([len(wire.SYMBOLS)]) + good[index + 2 :]
        stream = PcapStream()
        stream._records.append(CaptureRecord(0.1, "F1AP", hostile))
        stream.capture(0.2, "F1AP", self._setup(2, rrc.RrcSetupRequest().to_wire()))
        metrics = MetricsRegistry()
        series = MobiFlowCollector(metrics).parse_stream(PcapStream.from_bytes(stream.to_bytes()))
        assert [r.rnti for r in series] == [0x4602]
        assert undecodable_total(metrics) == {"F1AP": 1, "NGAP": 0}

    def test_live_tap_does_not_raise_into_the_sender(self):
        sim = Simulator()
        link = InterfaceLink(sim, "F1AP")
        delivered = []
        link.connect(a_handler=delivered.append, b_handler=delivered.append)
        collector = MobiFlowCollector(sim.obs.metrics)
        link.add_tap(collector.on_capture)
        link.send_to_b(self._setup(1, self.GARBAGE))
        link.send_to_b(self._setup(2, rrc.RrcSetupRequest().to_wire()))
        sim.run()
        assert len(delivered) == 2 and link.messages_carried == 2
        assert len(collector.series) == 1
        assert undecodable_total(sim.obs.metrics) == {"F1AP": 1, "NGAP": 0}

    def test_unknown_interface_is_still_an_error(self):
        with pytest.raises(ValueError, match="unknown interface"):
            MobiFlowCollector().on_capture(0.0, "X2AP", rrc.RrcSetup())


class TestCollector:
    def test_records_are_time_ordered(self):
        net = run_benign(ues=3)
        series = MobiFlowCollector().parse_stream(net.pcap)
        times = [r.timestamp for r in series]
        assert times == sorted(times)

    def test_wrappers_not_emitted(self):
        net = run_benign()
        names = set(MobiFlowCollector().parse_stream(net.pcap).message_names())
        assert "ULInformationTransfer" not in names
        assert "DLInformationTransfer" not in names
        assert "F1ULRRCMessageTransfer" not in names
        assert "NGUplinkNASTransport" not in names

    def test_nas_not_double_counted(self):
        net = run_benign()
        series = MobiFlowCollector().parse_stream(net.pcap)
        reg_requests = [r for r in series if r.msg == "RegistrationRequest"]
        assert len(reg_requests) == 1

    def test_sessions_assigned_per_connection(self):
        net = run_benign(ues=2)
        series = MobiFlowCollector().parse_stream(net.pcap)
        sessions = series.sessions()
        assert len([s for s in sessions if s != 0]) >= 2
        for session_id, records in sessions.items():
            if session_id == 0:
                continue
            rntis = {r.rnti for r in records}
            assert len(rntis) == 1, "one RNTI per session"
            assert records[0].msg == "RRCSetupRequest"

    def test_security_algorithms_captured(self):
        net = run_benign()
        series = MobiFlowCollector().parse_stream(net.pcap)
        nas_smc = next(r for r in series if r.msg == "NASSecurityModeCommand")
        assert nas_smc.cipher_alg == 2
        assert nas_smc.integrity_alg == 2
        rrc_smc = next(r for r in series if r.msg == "RRCSecurityModeCommand")
        assert rrc_smc.cipher_alg == 2

    def test_tmsi_sticky_within_session(self):
        net = run_benign()
        series = MobiFlowCollector().parse_stream(net.pcap)
        accept_index = next(
            i for i, r in enumerate(series) if r.msg == "RegistrationAccept"
        )
        session = series[accept_index].session_id
        tmsi = series[accept_index].s_tmsi
        assert tmsi is not None
        after = [
            r
            for r in list(series)[accept_index:]
            if r.session_id == session
        ]
        assert all(r.s_tmsi == tmsi for r in after)

    def test_unknown_context_tmsi_does_not_leak_to_other_ues(self):
        """Session 0 is every connection the capture never saw set up: a
        TMSI one of them presents was remembered under it and stamped on
        every later unknown-context record of any other UE."""
        metrics = MetricsRegistry()
        collector = MobiFlowCollector(metrics)

        def uplink(t, ran_ue_id, nas):
            collector.on_capture(
                t, "NGAP", ngap.NgUplinkNasTransport(ran_ue_id=ran_ue_id, nas_pdu=nas.to_wire())
            )

        uplink(0.1, 77, nas_messages.ServiceRequest(s_tmsi=0xABCD))
        uplink(0.2, 99, nas_messages.AuthenticationResponse())
        uplink(0.3, 55, nas_messages.RegistrationRequest(guti="5g-guti-00101-cafe-0000beef"))
        uplink(0.4, 99, nas_messages.RegistrationComplete())
        collector.on_capture(
            0.5,
            "NGAP",
            ngap.NgDownlinkNasTransport(
                ran_ue_id=55,
                nas_pdu=nas_messages.RegistrationAccept(guti="5g-guti-00101-cafe-00001234").to_wire(),
            ),
        )
        uplink(0.6, 99, nas_messages.NasSecurityModeComplete())
        # A message's own identity is still its record's; nobody else's.
        assert [(r.session_id, r.rnti, r.s_tmsi) for r in collector.series] == [
            (0, None, 0xABCD),
            (0, None, None),
            (0, None, 0xBEEF),
            (0, None, None),
            (0, None, 0x1234),
            (0, None, None),
        ]
        assert collector._session_tmsi == {}

    def test_a_message_subclass_inherits_its_base_extractor(self):
        class LaterServiceRequest(nas_messages.ServiceRequest):
            NAME = ""  # unregistered: defined after the collector's tables

        collector = MobiFlowCollector()
        collector._emit_nas(0.1, None, LaterServiceRequest(s_tmsi=7))
        collector._emit_nas(0.2, None, nas_messages.ServiceRequest(s_tmsi=8))
        assert [r.s_tmsi for r in collector.series] == [7, 8]

    def test_live_subscription_sees_all_records(self):
        net = run_benign()
        collector = MobiFlowCollector()
        live: list[MobiFlowRecord] = []
        collector.subscribe(live.append)
        series = collector.parse_stream(net.pcap)
        assert live == series.records

    def test_direction_and_protocol_fields(self):
        net = run_benign()
        series = MobiFlowCollector().parse_stream(net.pcap)
        by_name = {r.msg: r for r in series}
        assert by_name["RRCSetupRequest"].direction == "UL"
        assert by_name["RRCSetupRequest"].protocol == "RRC"
        assert by_name["AuthenticationRequest"].direction == "DL"
        assert by_name["AuthenticationRequest"].protocol == "NAS"

    def test_unknown_interface_rejected(self):
        collector = MobiFlowCollector()
        from repro.ran.rrc import RrcSetup

        with pytest.raises(ValueError):
            collector.on_capture(0.0, "E1AP", RrcSetup())


class TestEncoder:
    def _record(self):
        return MobiFlowRecord(
            timestamp=1.25,
            msg="RegistrationRequest",
            protocol="NAS",
            direction="UL",
            session_id=3,
            rnti=0x1234,
            suci="suci-001-01-abcd",
        )

    def test_record_roundtrip(self):
        record = self._record()
        assert decode_record(encode_record(record)) == record

    def test_none_fields_not_encoded(self):
        from repro import wire

        payload = wire.decode(encode_record(self._record()))
        assert "supi" not in payload
        assert "cipher_alg" not in payload

    def test_batch_roundtrip(self):
        records = [self._record(), self._record()]
        assert decode_batch(encode_batch(records)) == records

    # (records in the batch, payload bytes at revision 4, at revision 3)
    # over prefixes of a registration flow cycled across twelve sessions:
    # with names as one-byte symbols and protocol and direction left to the
    # catalogue (wire format revision 4) a record costs 25-31 B at any batch
    # size, 6-7 B under revision 3's two-byte symbols — the figure a second
    # E2 format has to beat (docs/PERFORMANCE.md, "Flag verdicts").
    PAYLOAD_BYTES = [(6, 153, 195), (12, 303, 387), (64, 1837, 2223), (300, 9321, 11271)]

    def test_payload_bytes_per_batch_size(self):
        from tests.fixtures.repin_wire_golden import canonical

        records = [MobiFlowRecord(**fields) for fields in field_stream(300, 12)]
        measured = []
        for count, _, _ in self.PAYLOAD_BYTES:
            payload = encode_batch(records[:count])
            measured.append((count, len(payload), len(canonical(payload, 2))))
        assert measured == self.PAYLOAD_BYTES

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            MobiFlowRecord.from_dict({"timestamp": 0.0, "msg": "x", "bogus": 1})


class TestTelemetrySeries:
    def test_append_enforces_time_order(self):
        series = TelemetrySeries()
        series.append(
            MobiFlowRecord(timestamp=1.0, msg="A", protocol="RRC", direction="UL")
        )
        with pytest.raises(ValueError):
            series.append(
                MobiFlowRecord(timestamp=0.5, msg="B", protocol="RRC", direction="UL")
            )

    def test_slicing_returns_series(self):
        series = TelemetrySeries(
            [
                MobiFlowRecord(timestamp=float(i), msg=f"M{i}", protocol="RRC", direction="UL")
                for i in range(5)
            ]
        )
        sliced = series[1:3]
        assert isinstance(sliced, TelemetrySeries)
        assert len(sliced) == 2
        assert sliced[0].msg == "M1"

    def test_time_span(self):
        series = TelemetrySeries(
            [
                MobiFlowRecord(timestamp=1.0, msg="A", protocol="RRC", direction="UL"),
                MobiFlowRecord(timestamp=4.0, msg="B", protocol="RRC", direction="UL"),
            ]
        )
        assert series.time_span() == 3.0
        assert TelemetrySeries().time_span() == 0.0

    def test_exposes_permanent_identity(self):
        base = dict(timestamp=0.0, msg="X", protocol="NAS", direction="UL")
        assert MobiFlowRecord(**base, supi="imsi-001").exposes_permanent_identity()
        assert MobiFlowRecord(
            **base, suci="suci-null-001-01-123456789"
        ).exposes_permanent_identity()
        assert not MobiFlowRecord(
            **base, suci="suci-001-01-abcd"
        ).exposes_permanent_identity()
        assert not MobiFlowRecord(**base).exposes_permanent_identity()


class TestCollectorGutiErrors:
    def _deliver_accept(self, collector, guti):
        nas_pdu = nas_messages.RegistrationAccept(guti=guti).to_wire()
        collector.on_capture(
            0.0, "NGAP", ngap.NgDownlinkNasTransport(ran_ue_id=1, nas_pdu=nas_pdu)
        )

    def test_malformed_guti_counted(self):
        metrics = MetricsRegistry()
        collector = MobiFlowCollector(metrics)
        counter = metrics.counter("collector.guti_parse_errors_total")
        self._deliver_accept(collector, "not-a-guti")
        assert counter.value == 1
        # The record still lands — only the TMSI identity feature is lost.
        assert collector.series[-1].msg == "RegistrationAccept"
        assert collector.series[-1].s_tmsi is None

    def test_wellformed_guti_not_counted(self):
        metrics = MetricsRegistry()
        collector = MobiFlowCollector(metrics)
        counter = metrics.counter("collector.guti_parse_errors_total")
        self._deliver_accept(collector, "999-70-0-00c000ff")
        assert counter.value == 0
        assert collector.series[-1].s_tmsi == 0x00C000FF
