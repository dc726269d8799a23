"""Nothing on the live path is serialised twice — and nothing reads different
bytes because of it.

MobiWatch stores each record as its span of the indication payload instead
of re-encoding the decoded record, and ``net.pcap`` serialises an envelope
the first time its payload is read instead of when it is captured. Both
must leave exactly the bytes the eager code left: the SDL telemetry
namespace is compared with a re-encoding of every ingested record, the
capture with a tap that serialises eagerly beside it.
"""

import pytest

from repro import wire
from repro.core import SixGXSec, XsecConfig
from repro.core.mobiwatch import SDL_TELEMETRY_NS, MobiWatchXApp
from repro.experiments.colosseum import ColosseumScenario, run_scenario
from repro.oran.e2sm_kpm import MobiFlowKpmModel
from repro.ran.network import NetworkConfig
from repro.ran.pcap import PcapStream
from repro.telemetry.collector import MobiFlowCollector
from repro.telemetry.mobiflow import MobiFlowRecord
from tests.test_core_units import indication, make_ric, record
from tests.test_megabatch import ATTACK_SCENARIOS, NonzeroCountDetector


def benign_fleet(net):
    scenario = ColosseumScenario(
        duration_s=16.0, ue_mix=(("pixel5", 2), ("oai_ue", 2)), mean_think_time_s=1.5
    )
    run_scenario(net, scenario, run=False)


SCENARIOS = {
    name: (lambda net, factory=factory: factory(net).arm(), net_kwargs)
    for name, (factory, net_kwargs) in ATTACK_SCENARIOS.items()
}
SCENARIOS["benign_fleet"] = (benign_fleet, {})


class LiveRun:
    """One live deployment, with an eager serialiser tapped beside the pcap
    and counts of the records MobiWatch clamped and flattened to a dict."""

    def __init__(self, scenario, config=None, before_run=None, reverse_batches=False):
        traffic, net_kwargs = SCENARIOS[scenario]
        config = config or XsecConfig()
        detector = NonzeroCountDetector(window=config.window, feature_dim=config.spec.dim)
        detector.threshold.threshold = 4.5  # about two windows in seven alarm
        self.xsec = xsec = SixGXSec(config, network_config=NetworkConfig(seed=77, **net_kwargs))
        xsec.deploy_detector(detector)
        self.eager = []
        for link in (xsec.net.f1, xsec.net.ng):
            link.add_tap(lambda ts, iface, msg: self.eager.append((ts, iface, msg.to_wire())))
        for profile in ("pixel5", "oai_ue"):
            ue = xsec.net.add_ue(profile)
            xsec.net.sim.schedule(0.5, ue.start_session)
        traffic(xsec.net)
        if before_run is not None:
            before_run(xsec)
        self.flattened = self.clamped = 0
        to_wire_dict = MobiFlowRecord.to_wire_dict
        replace = MobiFlowRecord._replace
        encode_indication = MobiFlowKpmModel.encode_indication.__func__

        def counted(record):
            self.flattened += 1
            return to_wire_dict(record)

        def counted_replace(record, **changes):
            self.clamped += 1
            return replace(record, **changes)

        def reversed_batches(cls, payload):
            return encode_indication(cls, list(reversed(payload)))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MobiFlowRecord, "to_wire_dict", counted)
            # MobiWatch clamps a record with record._replace(timestamp=...).
            patch.setattr(MobiFlowRecord, "_replace", counted_replace)
            if reverse_batches:
                patch.setattr(
                    MobiFlowKpmModel, "encode_indication", classmethod(reversed_batches)
                )
            xsec.run(until=16.0)

    def expected_telemetry(self):
        return {
            f"{index:09d}": wire.encode(record.to_wire_dict())
            for index, record in enumerate(self.xsec.mobiwatch.series)
        }


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def live(request):
    return LiveRun(request.param)


class TestSdlHoldsReceivedSpans:
    def test_telemetry_namespace_is_the_re_encoding_byte_for_byte(self, live):
        stored = live.xsec.ric.sdl._data[SDL_TELEMETRY_NS]
        assert len(stored) == live.xsec.mobiwatch.records_seen > 40
        assert stored == live.expected_telemetry()
        # ... and no record was flattened to get there.
        assert live.flattened == live.clamped == 0

    def test_reads_return_the_record_dicts(self, live):
        sdl, series = live.xsec.ric.sdl, live.xsec.mobiwatch.series
        for index in (0, len(series) // 2, len(series) - 1):
            assert sdl.get(SDL_TELEMETRY_NS, f"{index:09d}") == series[index].to_wire_dict()

    def test_other_namespaces_and_alarms_are_there(self, live):
        assert live.xsec.mobiwatch.anomalies
        assert len(live.xsec.ric.sdl.keys("xsec.anomalies")) == len(live.xsec.mobiwatch.anomalies)


class TestRegressingTimestamps:
    def test_clamped_record_is_re_encoded_and_its_neighbours_are_spans(self):
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        watch.on_indication(indication([record(5.0, "RRCSetupRequest")]))
        flattened = []
        to_wire_dict = MobiFlowRecord.to_wire_dict
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                MobiFlowRecord,
                "to_wire_dict",
                lambda r: flattened.append(r) or to_wire_dict(r),
            )
            watch.on_indication(
                indication(
                    [
                        record(4.0, "RRCSetup"),  # regresses: clamped to 5.0
                        record(6.0, "RRCSetupComplete"),
                        record(5.5, "RRCRelease", suci="suci-x"),  # clamped to 6.0
                        record(7.0, "Paging"),
                    ],
                    seq=2,
                )
            )
        assert [r.timestamp for r in watch.series] == [5.0, 5.0, 6.0, 6.0, 7.0]
        assert [(r.timestamp, r.msg) for r in flattened] == [(5.0, "RRCSetup"), (6.0, "RRCRelease")]
        assert ric.sdl._data[SDL_TELEMETRY_NS] == {
            f"{index:09d}": wire.encode(r.to_wire_dict()) for index, r in enumerate(watch.series)
        }

    def test_live_run_with_reversed_batches(self):
        """The agent ships every batch newest-first: most records regress."""
        run = LiveRun("bts_dos", reverse_batches=True)
        # Exactly the clamped records were flattened and re-encoded; the
        # others (the first of each batch, at least) went in as spans.
        assert 10 < run.clamped == run.flattened < len(run.xsec.mobiwatch.series) - 10
        assert run.xsec.ric.sdl._data[SDL_TELEMETRY_NS] == run.expected_telemetry()

    def test_non_canonical_batch_is_stored_re_encoded(self):
        """Valid bytes the agent would not have written (keys reordered):
        ingested like any batch, stored in canonical form."""
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        fields = record(1.0, "RRCSetup").to_wire_dict()
        scrambled = dict(reversed(list(fields.items())))
        batch = indication([record(1.0, "RRCSetup")])
        batch.indication_message = wire.encode([scrambled])
        watch.on_indication(batch)
        assert watch.records_seen == 1
        assert ric.sdl._data[SDL_TELEMETRY_NS] == {"000000000": wire.encode(fields)}


class TestLazyCapture:
    def test_payloads_are_the_bytes_an_eager_tap_saw(self, live):
        pcap = live.xsec.net.pcap
        assert len(pcap) == len(live.eager) > 80
        assert [(r.timestamp, r.interface, r.payload) for r in pcap] == live.eager
        assert pcap.byte_size() == sum(len(payload) for _, _, payload in live.eager)

    def test_stream_round_trips_and_records_equal_their_twins(self, live):
        pcap = live.xsec.net.pcap
        data = pcap.to_bytes()
        restored = PcapStream.from_bytes(data)
        assert restored.to_bytes() == data
        assert len(restored) == len(pcap)
        for captured, twin in zip(pcap, restored):
            assert captured == twin and twin == captured
            assert hash(captured) == hash(twin)
        assert pcap.records[0] != pcap.records[1]

    def test_offline_parse_of_the_capture_matches_the_live_collector(self, live):
        offline = MobiFlowCollector().parse_stream(live.xsec.net.pcap)
        assert offline.records == live.xsec.agent.collector.series.records

    def test_capture_serialises_on_first_read_only(self):
        from repro.ran.rrc import RrcSetup

        calls = []

        class Counted(RrcSetup):
            NAME = "TestWirePathCounted"

            def to_wire(self):
                calls.append(self)
                return super().to_wire()

        stream = PcapStream()
        captured = stream.capture(0.5, "F1AP", Counted(rrc_transaction_id=2))
        assert calls == []
        payload = captured.payload
        assert len(calls) == 1
        assert captured.payload is payload and stream.byte_size() == len(payload)
        assert captured.decode() == Counted(rrc_transaction_id=2)
        assert "payload=b'" in repr(captured)
        assert len(calls) == 1
