"""Unit tests for the MobiWatch and LLM-analyzer xApps in isolation."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import XsecConfig
from repro.core.llm_analyzer import LlmAnalyzerXApp
from repro import wire
from tests.test_wire import examples, nested_lists
from repro.core.mobiwatch import (
    SDL_TELEMETRY_NS,
    XSEC_ANOMALY_MTYPE,
    AnomalyEvent,
    MobiWatchXApp,
)
from repro.ml import AutoencoderDetector
from repro.obs.metrics import BULK_OBSERVE_MIN, Histogram
from repro.oran.e2agent import RicAgent
from repro.oran.e2ap import RicIndication
from repro.oran.e2sm_kpm import (
    MOBIFLOW_RAN_FUNCTION_ID,
    MobiFlowKpmModel,
    MobiFlowReportStyle,
)
from repro.oran.ric import NearRtRic
from repro.ran import FiveGNetwork, NetworkConfig
from repro.ran.links import InterfaceLink
from repro.sim import Simulator
from repro.telemetry.mobiflow import MobiFlowRecord


def make_ric(seed=0):
    sim = Simulator(seed=seed)
    e2 = InterfaceLink(sim, "E2")
    e2.connect(a_handler=lambda m: None, b_handler=lambda m: None)
    return sim, NearRtRic(sim, e2)


def record(t, msg, session=1, rnti=0x10, **kwargs):
    defaults = dict(protocol="RRC", direction="UL")
    defaults.update(kwargs)
    return MobiFlowRecord(
        timestamp=t, msg=msg, session_id=session, rnti=rnti, **defaults
    )


def indication(records, request_id=1, seq=1):
    header, message = MobiFlowKpmModel.encode_indication(records)
    return RicIndication(
        ric_request_id=request_id,
        ran_function_id=MOBIFLOW_RAN_FUNCTION_ID,
        sequence_number=seq,
        indication_header=header,
        indication_message=message,
    )


# One RRCSetup record as the struct-of-arrays lane of commit 323bba3 put it
# on E2 (MobiFlowKpmModel.encode_indication of a MobiFlowBatch, byte for
# byte): the encoding is not spoken any more, an agent may still send it.
COLUMNAR_HEADER = bytes.fromhex("080c091209150913030101091402")
COLUMNAR_MESSAGE = bytes.fromhex(
    "08ac020506736368656d6103010105016e03010105046d657461084705096d73675f766f63"
    "616207020946050e70726f746f636f6c5f766f6361620702090e050f646972656374696f6e"
    "5f766f63616207020910050b63617573655f766f63616207000504636f6c7308c301090006"
    "089a9999999999b93f09010604000000000902060400000000090306040000000009040608"
    "0100000000000000090506081000000000000000050c726e74695f70726573656e74060101"
    "090606080000000000000000050e735f746d73695f70726573656e74060100090707010009"
    "08070100090906080000000000000000050e6369706865725f70726573656e74060100090a"
    "060800000000000000000511696e746567726974795f70726573656e74060100090b0608ff"
    "ffffffffffffff"
)


def hostile_batch(**fields):
    """A well-formed one-record batch whose record carries the given field
    values, whatever their type."""
    return wire.encode([{**record(0.1, "RRCSetup").to_wire_dict(), **fields}])


# One value of every wire type, and the edges of the ones with a range.
WIRE_SAMPLES = [
    None, True, False, 5, -5, 2**70, -(10**9), 10**400, 0.5, -1e300, float("nan"),
    float("inf"), "x", "", "s" * 200, b"x", [1], [1, 2], [], {"k": 1}, {},
]  # fmt: skip
RECORD_FIELDS = list(record(0.0, "RRCSetup").to_dict())


def trained_detector(config, seed=0):
    rng = np.random.default_rng(seed)
    windows = rng.random((80, config.window * config.spec.dim)) * 0.1
    detector = AutoencoderDetector(
        window=config.window, feature_dim=config.spec.dim, seed=seed
    )
    detector.fit(windows, epochs=2)
    return detector


DETECTOR = trained_detector(XsecConfig())
MSG = wire.encode("msg")
MSG_RRC_SETUP = MSG + wire.encode("RRCSetup")


class TestMobiWatchUnit:
    def test_accumulates_without_detector(self):
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        watch.on_indication(indication([record(0.0, "RRCSetupRequest")]))
        assert watch.records_seen == 1
        assert watch.windows_scored == 0
        assert watch.anomalies == []

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda h, m: (h, m[:-3]), id="truncated_message"),
            pytest.param(lambda h, m: (h[:4], m), id="truncated_header"),
            pytest.param(lambda h, m: (h, nested_lists(2000)), id="nested_too_deep"),
            pytest.param(lambda h, m: (wire.encode({"sm": "other"}), m), id="foreign_header"),
            pytest.param(
                lambda h, m: (h, wire.encode([{"no_such_field": 1}])), id="unknown_field"
            ),
            pytest.param(lambda h, m: (h, wire.encode([7])), id="record_not_a_dict"),
            # A name as a symbol past the end of wire.SYMBOLS (two-byte and
            # one-byte forms) or as a reserved tag, in the batch and in the
            # header; and a batch cut right after a two-byte symbol's tag.
            pytest.param(
                lambda h, m: (h, m.replace(MSG_RRC_SETUP, MSG + b"\x09\xff")),
                id="symbol_out_of_range",
            ),
            pytest.param(
                lambda h, m: (h, m.replace(MSG_RRC_SETUP, MSG + bytes([0x10 + len(wire.SYMBOLS)]))),
                id="one_byte_symbol_out_of_range",
            ),
            pytest.param(
                lambda h, m: (h, m.replace(MSG_RRC_SETUP, MSG + b"\x0a")), id="reserved_tag"
            ),
            pytest.param(
                lambda h, m: (h.replace(wire.encode("count"), b"\x09\xf0"), m),
                id="header_symbol_out_of_range",
            ),
            pytest.param(
                lambda h, m: (h.replace(wire.encode("count"), b"\xff"), m),
                id="header_one_byte_symbol_out_of_range",
            ),
            pytest.param(
                lambda h, m: (h, b"\x07\x03\x08\x01\x09"), id="symbol_truncated"
            ),
            pytest.param(lambda h, m: (h, wire.encode([{"msg": "x"}])), id="missing_field"),
            # protocol left off a name the catalogue has no entry for.
            pytest.param(
                lambda h, m: (
                    h,
                    wire.encode([{"timestamp": 0.1, "msg": "VendorMessage", "direction": "UL"}]),
                ),
                id="uncatalogued_msg_without_protocol",
            ),
            pytest.param(lambda h, m: (h, wire.encode([])), id="count_mismatch"),
            # The retired columnar encoding: its header on a per-record
            # message must not fall through to the row decoder, nor a whole
            # indication of it.
            pytest.param(lambda h, m: (COLUMNAR_HEADER, m), id="columnar_header_on_rows"),
            pytest.param(
                lambda h, m: (COLUMNAR_HEADER, COLUMNAR_MESSAGE), id="columnar_parent_bytes"
            ),
            # Well-formed TLV, wrong-typed field: these raised TypeError out of
            # Simulator.run *after* series.append ("zzz" < 0.1, hash([1, 2])),
            # or were ingested (msg=7, timestamp=nan).
            pytest.param(lambda h, m: (h, hostile_batch(timestamp="zzz")), id="timestamp_str"),
            pytest.param(lambda h, m: (h, hostile_batch(cipher_alg="x")), id="cipher_alg_str"),
            pytest.param(lambda h, m: (h, hostile_batch(session_id=[1, 2])), id="session_id_list"),
            pytest.param(lambda h, m: (h, hostile_batch(s_tmsi=[1])), id="s_tmsi_list"),
            pytest.param(lambda h, m: (h, hostile_batch(msg=7)), id="msg_int"),
            pytest.param(
                lambda h, m: (h, hostile_batch(timestamp=float("nan"))), id="timestamp_nan"
            ),
            pytest.param(
                lambda h, m: (h, hostile_batch(timestamp=float("inf"))), id="timestamp_inf"
            ),
            pytest.param(lambda h, m: (h, hostile_batch(timestamp=True)), id="timestamp_bool"),
            pytest.param(
                lambda h, m: (h, hostile_batch(timestamp=10**400)), id="timestamp_int_past_float"
            ),
            pytest.param(lambda h, m: (h, hostile_batch(session_id=-1)), id="session_id_negative"),
            pytest.param(lambda h, m: (h, hostile_batch(session_id=None)), id="session_id_none"),
            pytest.param(
                lambda h, m: (h, hostile_batch(integrity_alg=-(10**9))), id="alg_negative"
            ),
            pytest.param(lambda h, m: (h, hostile_batch(rnti=1.5)), id="rnti_float"),
            pytest.param(lambda h, m: (h, hostile_batch(suci=b"bytes")), id="suci_bytes"),
            pytest.param(lambda h, m: (h, hostile_batch(direction=None)), id="direction_none"),
        ],
    )
    def test_corrupt_indication_is_counted_and_dropped(self, corrupt):
        """Hostile bytes at the E2 edge used to raise out of Simulator.run."""
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        bad = indication([record(0.1, "RRCSetup")], seq=2)
        bad.indication_header, bad.indication_message = corrupt(
            bad.indication_header, bad.indication_message
        )
        batches = [
            indication([record(0.0, "RRCSetupRequest")]),
            bad,
            indication([record(0.2, "RRCSetupComplete")], seq=3),
        ]
        for delay, batch in enumerate(batches, start=1):
            sim.schedule(0.1 * delay, lambda batch=batch: watch.on_indication(batch))
        sim.run(until=1.0)
        counters = {
            name: sim.obs.metrics.counter(f"mobiwatch.{name}_total").value
            for name in ("indications_rejected", "records")
        }
        assert counters == {"indications_rejected": 1, "records": 2}
        # The record ledger still balances: every ingested record is in the
        # series, the arrival log and the SDL, and nothing of the bad batch is.
        assert watch.records_seen == len(watch.series) == 2
        assert [r.msg for r in watch.series] == ["RRCSetupRequest", "RRCSetupComplete"]
        assert len(ric.sdl.keys(SDL_TELEMETRY_NS)) == 2
        assert len(watch._arrival_ts) == 2
        assert any("indication rejected" in line for _, line in watch.logs)
        assert watch.anomalies == []

    def test_catalogued_record_without_protocol_is_accepted(self):
        """The E2SM derives protocol and direction from a catalogued msg:
        a record leaves off each that equals its entry, and is ingested
        with it. One that writes its entry's value anyway is not what the
        encoder writes: refused and counted."""
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        rows = [
            {"timestamp": 0.1, "msg": "RRCSetupRequest", "direction": "DL", "session_id": 1},
            {"timestamp": 0.2, "msg": "RRCSetup", "session_id": 1},
            {"timestamp": 0.3, "msg": "RRCSetupComplete", "protocol": "NAS", "session_id": 1},
            {"timestamp": 0.4, "msg": "RRCSetupComplete", "direction": "UL", "session_id": 1},
        ]
        for seq, row in enumerate(rows, start=1):
            header = wire.encode({"sm": MobiFlowKpmModel.NAME, "count": 1})
            watch.on_indication(
                RicIndication(
                    ric_request_id=1,
                    ran_function_id=MOBIFLOW_RAN_FUNCTION_ID,
                    sequence_number=seq,
                    indication_header=header,
                    indication_message=wire.encode([row]),
                )
            )
        assert sim.obs.metrics.counter("mobiwatch.indications_rejected_total").value == 1
        assert [(r.msg, r.protocol, r.direction) for r in watch.series] == [
            ("RRCSetupRequest", "RRC", "DL"),
            ("RRCSetup", "RRC", "DL"),
            ("RRCSetupComplete", "NAS", "UL"),
        ]

    @examples(150)
    @given(
        st.lists(
            st.none()
            | st.tuples(
                st.booleans(), st.sampled_from(RECORD_FIELDS), st.sampled_from(WIRE_SAMPLES)
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_hostile_field_values_never_raise(self, steps):
        """Any wire value in any field of either record of an indication:
        the indication is ingested whole or rejected whole, ``on_indication``
        never raises, the ledger balances after each, and what was accepted
        is scored without raising."""
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        watch.deploy_detector(copy.deepcopy(DETECTOR))
        rejected = sim.obs.metrics.counter("mobiwatch.indications_rejected_total")
        accepted = 0
        for seq, step in enumerate(steps, start=1):
            rows = [
                record(0.2 * seq + 0.1 * i, "RRCSetup", session=1 + seq % 2).to_wire_dict()
                for i in range(2)
            ]
            if step is not None:
                second, name, value = step
                rows[second][name] = value
            header = wire.encode({"sm": MobiFlowKpmModel.NAME, "count": 2})
            before = watch.records_seen
            watch.on_indication(
                RicIndication(
                    ric_request_id=1,
                    ran_function_id=MOBIFLOW_RAN_FUNCTION_ID,
                    sequence_number=seq,
                    indication_header=header,
                    indication_message=wire.encode(rows),
                )
            )
            assert watch.records_seen - before in (0, 2)
            accepted += watch.records_seen > before
            assert (
                watch.records_seen
                == len(watch.series)
                == len(watch._arrival_ts)
                == len(ric.sdl.keys(SDL_TELEMETRY_NS))
            )
            sim.run(until=sim.now + 1.0)  # maturity timers: score what got in
        assert accepted + rejected.value == len(steps)
        if all(step is None for step in steps):
            assert rejected.value == 0

    def test_out_of_order_batches_clamped(self):
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        watch.on_indication(indication([record(5.0, "RRCSetup")]))
        watch.on_indication(indication([record(4.0, "RRCSetupComplete")]))
        times = [r.timestamp for r in watch.series]
        assert times == sorted(times)

    def test_short_session_scored_after_maturation(self):
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        watch.deploy_detector(trained_detector(config))
        watch.on_indication(indication([record(0.0, "RRCSetupRequest")]))
        # In-flight short sessions are not scored immediately ...
        assert watch.windows_scored == 0
        sim.run(until=2.0)
        # ... but once quiet, the padded window is evaluated.
        assert watch.windows_scored == 1

    def test_maturation_skipped_when_session_progresses(self):
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        watch.deploy_detector(trained_detector(config))
        watch.on_indication(indication([record(0.0, "RRCSetupRequest")]))

        def feed_more():
            watch.on_indication(
                indication([record(0.4, "RRCSetup")], seq=2)
            )

        sim.schedule(0.4, feed_more)
        sim.run(until=3.0)
        # The first maturity check (count=1) was invalidated by progress;
        # only the final state (count=2) was scored.
        assert watch.windows_scored == 1

    def test_one_alert_per_session_per_record_count(self):
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        detector = trained_detector(config)
        detector.threshold.threshold = -1.0  # everything is anomalous
        watch.deploy_detector(detector)
        batch = [record(0.0, "RRCSetupRequest"), record(0.1, "RRCSetup")]
        watch.on_indication(indication(batch))
        sim.run(until=2.0)
        first = len(watch.anomalies)
        assert first == 1
        watch.on_indication(indication([record(0.2, "RRCSetupComplete")], seq=2))
        sim.run(until=4.0)
        # New evidence (a third record) re-arms exactly one more alert.
        assert len(watch.anomalies) == first + 1

    def test_sdl_record_mirror(self):
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        watch.on_indication(indication([record(0.0, "RRCSetupRequest")]))
        keys = ric.sdl.keys("xsec.mobiflow")
        assert len(keys) == 1
        stored = ric.sdl.get("xsec.mobiflow", keys[0])
        assert stored["msg"] == "RRCSetupRequest"

    def test_deploy_unfitted_rejected(self):
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        with pytest.raises(ValueError):
            watch.deploy_detector(
                AutoencoderDetector(window=config.window, feature_dim=config.spec.dim)
            )

    def test_policy_without_training_scores_is_ignored(self):
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        detector = trained_detector(config)
        detector.training_scores = None
        watch.deploy_detector(detector)
        before = detector.threshold.threshold
        watch.on_policy(20008, {"threshold_percentile": 50.0, "window_size": 6})
        assert detector.threshold.threshold == before

    def test_context_for_returns_window_plus_history(self):
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        batch = [record(0.1 * i, "MeasurementReport") for i in range(10)]
        watch.on_indication(indication(batch))
        event = AnomalyEvent(
            detected_at=1.0,
            session_id=1,
            rnti=0x10,
            s_tmsi=None,
            score=1.0,
            threshold=0.5,
            record_indices=(6, 7, 8, 9),
        )
        context = watch.context_for(event, max_records=5)
        assert len(context) == 5
        assert context[-1] is watch.series[9]


def looped(values):
    """The histogram a per-value ``observe`` loop leaves."""
    hist = Histogram()
    for value in values:
        hist.observe(value)
    return hist


def summary(hist):
    return (hist.count, hist.total, hist.min, hist.max, list(hist.bucket_counts))


class TestBookKeepingPerIndication:
    """Counters and delay histograms move once per indication; what they
    hold equals the per-record loop's, on both sides of BULK_OBSERVE_MIN."""

    SMALL, BIG = 3, 40

    def _batches(self):
        assert self.SMALL < BULK_OBSERVE_MIN <= self.BIG
        small = [record(1.0 + 0.01 * i, "RRCSetup", session=1 + i % 2) for i in range(self.SMALL)]
        big = [record(2.0 + 0.013 * i, "RRCSetup", session=(i % 5)) for i in range(self.BIG)]
        # An interleaved older record: clamped to its predecessor's time.
        big[7] = big[7]._replace(timestamp=1.5)
        return small, big

    def test_mobiwatch_equals_the_per_record_loop(self):
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, XsecConfig())
        small, big = self._batches()
        sim.schedule(1.2, lambda: watch.on_indication(indication(small, seq=1)))
        sim.schedule(2.9, lambda: watch.on_indication(indication(big, seq=2)))
        sim.run(until=3.0)
        total = self.SMALL + self.BIG
        clamped = list(small) + list(big)
        clamped[self.SMALL + 7] = big[7]._replace(timestamp=big[6].timestamp)
        assert list(watch.series) == clamped
        arrivals = [1.2] * self.SMALL + [2.9] * self.BIG
        assert watch._arrival_ts == arrivals
        metrics = sim.obs.metrics
        assert watch.records_seen == total
        assert metrics.counter("mobiwatch.records_total").value == total
        assert len(ric.sdl.keys(SDL_TELEMETRY_NS)) == total
        # The clamped record is stored as what it became, not as it arrived.
        stored = ric.sdl.get(SDL_TELEMETRY_NS, f"{self.SMALL + 7:09d}")
        assert stored["timestamp"] == big[6].timestamp
        expected = looped(now - r.timestamp for now, r in zip(arrivals, clamped))
        hist = metrics.histogram("mobiwatch.capture_to_ingest_s")
        assert summary(hist) == summary(expected)
        assert hist.percentile(50) == expected.percentile(50)

        # A rejected indication moves none of it.
        before = (watch.records_seen, summary(hist), len(watch.series), len(watch._arrival_ts))
        bad = indication(big, seq=3)
        watch.on_indication(dataclasses.replace(bad, indication_message=bad.indication_message[:-3]))
        assert metrics.counter("mobiwatch.indications_rejected_total").value == 1
        assert before == (
            watch.records_seen, summary(hist), len(watch.series), len(watch._arrival_ts)
        )
        assert metrics.counter("mobiwatch.records_total").value == total
        assert len(ric.sdl.keys(SDL_TELEMETRY_NS)) == total

    def test_agent_report_queue_latency_equals_the_per_record_loop(self):
        net = FiveGNetwork(NetworkConfig(seed=1))
        e2 = InterfaceLink(net.sim, "E2")
        agent = RicAgent(net, e2)
        sent = []
        e2.connect(a_handler=agent.on_e2, b_handler=sent.append)
        agent._subscription = (1, MobiFlowReportStyle(report_period_s=10.0))
        small, big = self._batches()
        net.sim.schedule(1.2, lambda: (agent._buffer.extend(small), agent._report_tick()))
        net.sim.schedule(2.9, lambda: (agent._buffer.extend(big), agent._report_tick()))
        net.run(until=3.0)
        assert agent.indications_sent == len(sent) == 2
        expected = looped(
            [1.2 - r.timestamp for r in small] + [2.9 - r.timestamp for r in big]
        )
        hist = net.sim.obs.metrics.histogram("e2agent.report_queue_latency_s")
        assert summary(hist) == summary(expected)


class TestAnalyzerUnit:
    def _stack(self):
        config = XsecConfig(llm_session_cooldown_s=10.0)
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        analyzer = LlmAnalyzerXApp(ric, watch, config=config)
        watch.start_called = True
        analyzer.start()
        return sim, ric, watch, analyzer

    def _anomaly(self, session=1, ts=0.0):
        return AnomalyEvent(
            detected_at=ts,
            session_id=session,
            rnti=0x10,
            s_tmsi=None,
            score=1.0,
            threshold=0.5,
            record_indices=(0,),
            newest_record_ts=ts,
        )

    def test_cooldown_suppresses_repeat_queries(self):
        sim, ric, watch, analyzer = self._stack()
        watch.on_indication(indication([record(0.0, "RRCSetupRequest")]))
        analyzer._on_anomaly(self._anomaly(session=1))
        analyzer._on_anomaly(self._anomaly(session=1))
        assert analyzer.queries_sent == 1
        assert analyzer.queries_suppressed == 1

    def test_different_sessions_not_suppressed(self):
        sim, ric, watch, analyzer = self._stack()
        watch.on_indication(
            indication(
                [record(0.0, "RRCSetupRequest", session=1), record(0.1, "RRCSetup", session=2)]
            )
        )
        analyzer._on_anomaly(self._anomaly(session=1))
        analyzer._on_anomaly(self._anomaly(session=2))
        assert analyzer.queries_sent == 2

    def test_verdict_lands_after_latency(self):
        sim, ric, watch, analyzer = self._stack()
        watch.on_indication(indication([record(0.0, "RRCSetupRequest")]))
        analyzer._on_anomaly(self._anomaly(session=1))
        assert analyzer.verdicts == []  # the API round trip is in flight
        sim.run(until=30.0)
        assert len(analyzer.verdicts) == 1
        assert analyzer.verdicts[0].completed_at > 0.3

    def test_verdicts_mirrored_to_sdl(self):
        sim, ric, watch, analyzer = self._stack()
        watch.on_indication(indication([record(0.0, "RRCSetupRequest")]))
        analyzer._on_anomaly(self._anomaly(session=1))
        sim.run(until=30.0)
        assert len(ric.sdl.keys("xsec.verdicts")) == 1

    def test_rmr_routing_delivers_anomaly_events(self):
        sim, ric, watch, analyzer = self._stack()
        watch.on_indication(indication([record(0.0, "RRCSetupRequest")]))
        ric.rmr.send(XSEC_ANOMALY_MTYPE, -1, self._anomaly(session=3))
        sim.run(until=30.0)
        assert analyzer.queries_sent == 1
