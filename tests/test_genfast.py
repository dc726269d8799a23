"""repro.genfast: equality contracts, columnar wire, gates.

The generation/ingest path trades representation for speed only where
the result is provably the same, so most tests here are equality tests:

- the default config keeps per-record TLV on E2 (genfast flag off);
- the one-pass vectorized featurizer (what every offline build runs) is
  bit-identical (float64 arithmetic, float32 storage) to the reference
  ``StreamingEncoder`` on captures from each of the five attacks'
  scenarios plus a benign mix;
- the columnar TLV wire decodes to the exact per-record stream whose
  per-record encoding is byte-identical to the per-record batch payload;
- a live pipeline with columnar indications on produces the bit-identical
  ``AnomalyEvent`` stream and SDL telemetry contents;
- the golden-vector fixture freezes the feature column layout itself.

Plus the satellite regressions: the event-queue tombstone compaction bound,
and the GUTI-parse-error counter.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import (
    BlindDosAttack,
    BtsDosAttack,
    DownlinkIdExtractionAttack,
    NullCipherAttack,
    UplinkIdExtractionAttack,
)
from repro.core import SixGXSec, XsecConfig
from repro.core.framework import build_detector
from repro.core.mobiwatch import SDL_TELEMETRY_NS
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.genfast.bench import (
    BASELINE_SLACK,
    END_TO_END_SINGLE_CORE_MIN,
    END_TO_END_SPEEDUP_MIN,
    FEATURIZATION_SPEEDUP_MIN,
    GenfastBenchResult,
    violations,
)
from repro.genfast.settings import GenfastSettings
from repro.genfast.workload import (
    GenfastWorkloadConfig,
    field_stream,
    lanes_equal,
    run_fast_lane,
    run_seed_lane,
    streaming_rows,
)
from repro.obs.metrics import MetricsRegistry
from repro.oran.sdl import SharedDataLayer
from repro.ran import nas as nas_messages
from repro.ran import ngap
from repro.ran.core_network import AmfConfig
from repro.ran.network import FiveGNetwork, NetworkConfig
from repro.scale.batcher import BoundedBatcher
from repro.scale.sharded_sdl import ShardedSdl
from repro.sim.engine import EventQueue
from repro.telemetry import encoder as telemetry_encoder
from repro.telemetry.batch import MobiFlowBatch, MobiFlowBatchBuilder
from repro.telemetry.collector import MobiFlowCollector
from repro.telemetry.features import FeatureSpec, WindowedDataset
from repro.telemetry.mobiflow import MobiFlowRecord
from repro.telemetry.vectorized import encode_batch, windowed_from_batch
from repro import wire

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# settings


class TestGenfastSettings:
    def test_defaults_all_off(self):
        settings = GenfastSettings()
        assert not settings.columnar_batches
        assert not settings.any_enabled

    def test_any_enabled_tracks_each_flag(self):
        assert GenfastSettings(columnar_batches=True).any_enabled

    def test_all_on(self):
        assert GenfastSettings.all_on().columnar_batches

    def test_default_config_keeps_seed_flags(self):
        assert not XsecConfig().genfast.any_enabled


# ---------------------------------------------------------------------------
# attack-scenario captures (shared by the featurization and wire tests)


def _uplink_extraction(net):
    victim = net.add_ue("pixel6", name="victim")
    net.sim.schedule(2.5, victim.start_session)
    return UplinkIdExtractionAttack(net, victim=victim, start_time=2.0, duration_s=8.0)


def _downlink_extraction(net):
    victim = net.add_ue("pixel6", name="victim")
    net.sim.schedule(2.5, victim.start_session)
    return DownlinkIdExtractionAttack(net, victim=victim, start_time=2.0, duration_s=8.0)


# name -> (attack factory taking the live network, extra NetworkConfig kwargs)
ATTACK_SCENARIOS = {
    "bts_dos": (
        lambda net: BtsDosAttack(net, start_time=3.0, connections=8, interval_s=0.08),
        {},
    ),
    "blind_dos": (
        lambda net: BlindDosAttack(net, victim=net.ues[0], start_time=3.0, replays=5),
        {},
    ),
    "uplink_id_extraction": (_uplink_extraction, {}),
    "downlink_id_extraction": (_downlink_extraction, {}),
    "null_cipher": (
        lambda net: NullCipherAttack(net, start_time=3.0),
        {"amf": AmfConfig(allow_null_algorithms=True)},
    ),
}


@pytest.fixture(scope="module")
def scenario_series():
    """Telemetry series from a live capture of each attack's scenario."""
    out = {}
    for name, (factory, net_kwargs) in ATTACK_SCENARIOS.items():
        net = FiveGNetwork(NetworkConfig(seed=77, **net_kwargs))
        for profile in ("pixel5", "oai_ue"):
            ue = net.add_ue(profile)
            net.sim.schedule(0.5, ue.start_session)
        factory(net).arm()
        net.run(until=16.0)
        series = MobiFlowCollector().parse_stream(net.pcap)
        assert len(series.records) > 0, name
        out[name] = series
    return out


@pytest.fixture(scope="module")
def benign_series():
    capture = generate_benign_dataset(
        BenignDatasetConfig(duration_s=90.0, ue_mix=(("pixel5", 1), ("oai_ue", 1)))
    )
    return capture.series


# ---------------------------------------------------------------------------
# vectorized featurization bit-identity (the acceptance contract)


class TestVectorizedFeaturizationBitIdentity:
    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_attack_captures_bit_identical(self, scenario_series, scenario):
        series = scenario_series[scenario]
        spec = FeatureSpec()
        seed_rows = streaming_rows(spec, series)
        fast_rows = spec.encode_series(series)
        # np.array_equal, not allclose: float64 arithmetic, float32 storage,
        # bit for bit.
        assert np.array_equal(seed_rows, fast_rows)

    def test_benign_capture_bit_identical(self, benign_series):
        spec = FeatureSpec()
        assert np.array_equal(
            streaming_rows(spec, benign_series),
            spec.encode_series(benign_series),
        )

    def test_windowed_from_batch_matches_from_series(self, scenario_series):
        series = scenario_series["bts_dos"]
        spec = FeatureSpec()
        seed = WindowedDataset.from_series(series, spec, window=6, mode="session")
        fast = windowed_from_batch(
            MobiFlowBatch.from_records(series.records), spec, window=6
        )
        assert np.array_equal(seed.windows, fast.windows)
        assert seed.window_records == fast.window_records

    def test_from_series_vectorized_flag_identical(self, scenario_series):
        series = scenario_series["null_cipher"]
        spec = FeatureSpec()
        seed = WindowedDataset._assemble(
            series, spec, 6, "session", streaming_rows(spec, series)
        )
        fast = WindowedDataset.from_series(series, spec, window=6)
        assert np.array_equal(seed.windows, fast.windows)
        assert seed.window_records == fast.window_records

    def test_unordered_batch_rejected(self):
        records = [
            MobiFlowRecord(
                timestamp=t, msg="RRCSetupRequest", protocol="RRC", direction="UL",
                session_id=1,
            )
            for t in (1.0, 0.5)
        ]
        batch = MobiFlowBatch.from_records(records)
        with pytest.raises(ValueError):
            encode_batch(FeatureSpec(), batch)


# ---------------------------------------------------------------------------
# golden-vector fixture: freezes the one-hot column layout


class TestGoldenFeatureLayout:
    """Any change to the feature columns (order, vocab, bucket bounds,
    weights) breaks this test — update the fixture deliberately."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(FIXTURES / "features_golden.json", "r", encoding="utf-8") as fh:
            return json.load(fh)

    def _records(self, golden):
        return [MobiFlowRecord(**fields) for fields in golden["records"]]

    def test_feature_names_frozen(self, golden):
        assert FeatureSpec().feature_names() == golden["feature_names"]

    def test_dim_frozen(self, golden):
        assert FeatureSpec().dim == len(golden["feature_names"])

    def test_streaming_rows_frozen(self, golden):
        spec = FeatureSpec()
        encoder = spec.streaming_encoder()
        rows = np.stack([encoder.push(r) for r in self._records(golden)])
        # float32 values are exactly representable in JSON's float64.
        assert np.array_equal(rows, np.asarray(golden["rows"], dtype=np.float32))

    def test_vectorized_rows_frozen(self, golden):
        spec = FeatureSpec()
        batch = MobiFlowBatch.from_records(self._records(golden))
        assert np.array_equal(
            encode_batch(spec, batch), np.asarray(golden["rows"], dtype=np.float32)
        )


# ---------------------------------------------------------------------------
# columnar batches and the columnar wire


def _stream_records(records=300, sessions=12):
    config = GenfastWorkloadConfig(records=records, sessions=sessions)
    return [MobiFlowRecord(**fields) for fields in field_stream(config)]


class TestMobiFlowBatch:
    def test_roundtrip_exact(self, scenario_series):
        records = scenario_series["uplink_id_extraction"].records
        assert MobiFlowBatch.from_records(records).to_records() == records

    def test_builder_matches_from_records(self):
        records = _stream_records()
        builder = MobiFlowBatchBuilder()
        for record in records:
            builder.append(record)
        assert builder.build().to_records() == records

    def test_append_fields_matches_records(self):
        config = GenfastWorkloadConfig(records=200, sessions=8)
        builder = MobiFlowBatchBuilder()
        for fields in field_stream(config):
            builder.append_fields(**fields)
        records = [MobiFlowRecord(**fields) for fields in field_stream(config)]
        assert builder.build().to_records() == records

    def test_flush_resets_builder(self):
        builder = MobiFlowBatchBuilder()
        for record in _stream_records(records=10, sessions=2):
            builder.append(record)
        batch = builder.flush()
        assert len(batch) == 10
        assert len(builder) == 0
        assert len(builder.flush()) == 0

    def test_concat_matches_single_batch(self):
        records = _stream_records()
        # Uneven splits so the vocabularies of later chunks need remapping.
        chunks = [records[:70], records[70:71], records[71:250], records[250:]]
        batches = [MobiFlowBatch.from_records(chunk) for chunk in chunks]
        merged = MobiFlowBatch.concat(batches)
        assert merged.to_records() == records
        # Feature rows from the merged batch match the one-shot batch.
        spec = FeatureSpec()
        assert np.array_equal(
            encode_batch(spec, merged),
            encode_batch(spec, MobiFlowBatch.from_records(records)),
        )

    def test_concat_empty(self):
        assert len(MobiFlowBatch.concat([])) == 0


class TestColumnarWire:
    def test_decodes_byte_identical_to_seed_stream(self, scenario_series):
        """The acceptance contract: the columnar payload decodes to the
        exact record stream whose per-record encoding is the seed bytes."""
        for name, series in scenario_series.items():
            records = series.records
            blob = telemetry_encoder.encode_batch_columnar(
                MobiFlowBatch.from_records(records)
            )
            decoded = telemetry_encoder.decode_batch_columnar(blob)
            assert decoded.to_records() == records, name
            assert telemetry_encoder.encode_batch(
                decoded.to_records()
            ) == telemetry_encoder.encode_batch(records), name

    def test_blob_roundtrip_stable(self):
        batch = MobiFlowBatch.from_records(_stream_records())
        blob = telemetry_encoder.encode_batch_columnar(batch)
        decoded = telemetry_encoder.decode_batch_columnar(blob)
        assert telemetry_encoder.encode_batch_columnar(decoded) == blob

    def test_empty_batch_roundtrip(self):
        blob = telemetry_encoder.encode_batch_columnar(
            MobiFlowBatch.from_records([])
        )
        assert len(telemetry_encoder.decode_batch_columnar(blob)) == 0

    # (records in the batch, per-record payload bytes, columnar payload bytes)
    # over prefixes of the _stream_records() stream. With names as symbols
    # (wire format revision 2) the per-record lane costs 40-46 B a record at
    # any batch size; the columnar lane pays its column names, vocabularies
    # and packed 8-byte columns and never gets under 75 B. Before revision 2
    # the per-record lane cost 117-137 B and columnar was the smaller one at
    # every size (807 < 819 B at six records).
    PAYLOAD_BYTES = [(6, 243, 675), (12, 483, 1119), (64, 2735, 5045), (300, 13671, 22634)]

    def test_payload_bytes_of_both_lanes(self):
        records = _stream_records()
        measured = [
            (
                count,
                len(telemetry_encoder.encode_batch(records[:count])),
                len(
                    telemetry_encoder.encode_batch_columnar(
                        MobiFlowBatch.from_records(records[:count])
                    )
                ),
            )
            for count, _, _ in self.PAYLOAD_BYTES
        ]
        assert measured == self.PAYLOAD_BYTES
        assert all(per_record < columnar for _, per_record, columnar in measured)

    def test_decode_rejects_non_columnar(self):
        with pytest.raises(wire.WireError):
            wire.decode_columnar(wire.encode({"schema": "nope"}))

    def test_ragged_list_columns_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode_columnar({"a": [1, 2, 3], "b": [1, 2]})

    def test_all_packed_carries_explicit_n(self):
        packed = np.arange(4, dtype="<i8").tobytes()
        # Packed buffers are opaque to the wire: without an explicit n the
        # batch length cannot be inferred and falls back to 0.
        assert wire.decode_columnar(wire.encode_columnar({"a": packed}))[2] == 0
        blob = wire.encode_columnar({"a": packed}, n=4)
        columns, _, n = wire.decode_columnar(blob)
        assert n == 4
        assert np.array_equal(
            np.frombuffer(columns["a"], dtype="<i8"), np.arange(4)
        )

    def test_wrong_length_list_column_rejected_on_decode(self):
        blob = wire.encode_columnar({"a": [1, 2, 3]}, n=3)
        columns, meta, n = wire.decode_columnar(blob)
        with pytest.raises(ValueError):
            MobiFlowBatch.from_columns({"suci": [None, None]}, {}, 3)


# ---------------------------------------------------------------------------
# workload lanes (what the bench times must stay equal)


class TestWorkloadLanes:
    def test_lanes_equal_on_default_stream(self):
        config = GenfastWorkloadConfig(records=400, sessions=16, batch_records=32)
        spec = FeatureSpec()
        checks = lanes_equal(run_seed_lane(config, spec), run_fast_lane(config, spec))
        assert all(checks.values()), checks

    def test_fast_lane_one_write_per_batch(self):
        config = GenfastWorkloadConfig(records=256, sessions=8, batch_records=64)
        fast = run_fast_lane(config, FeatureSpec())
        # 256 records / 64 per batch = 4 acked writes, not 256.
        assert fast.sdl.writes == 4


# ---------------------------------------------------------------------------
# live pipeline: genfast all-on is bit-identical to the seed run


def event_tuples(xsec):
    return [
        (
            e.detected_at,
            e.session_id,
            e.rnti,
            e.s_tmsi,
            e.score,
            e.threshold,
            e.record_indices,
            e.newest_record_ts,
        )
        for e in xsec.mobiwatch.anomalies
    ]


@pytest.fixture(scope="module")
def trained_autoencoder(benign_series):
    config = XsecConfig(detector="autoencoder", train_epochs=6)
    dataset = WindowedDataset.from_series(benign_series, config.spec, config.window)
    detector = build_detector(config)
    detector.fit(np.asarray(dataset.windows), epochs=6, lr=config.train_lr)
    return detector


def _run_live(detector, genfast, seed=77, until=20.0):
    import copy

    config = XsecConfig(detector=detector.name, train_epochs=6, genfast=genfast)
    xsec = SixGXSec(
        config,
        network_config=NetworkConfig(seed=seed, amf=AmfConfig(allow_null_algorithms=True)),
    )
    xsec.deploy_detector(copy.deepcopy(detector))
    # Drop the operating threshold so the scenario provably emits events —
    # an empty-vs-empty event comparison would not prove bit-identity.
    xsec.mobiwatch.on_policy(1, {"threshold_percentile": 80.0})
    for profile in ("pixel5", "oai_ue"):
        ue = xsec.net.add_ue(profile)
        xsec.net.sim.schedule(0.5, ue.start_session)
    BtsDosAttack(xsec.net, start_time=3.0, connections=8, interval_s=0.08).arm()
    xsec.run(until=until)
    return xsec


class TestLiveSeedEquivalence:
    """Columnar indications on: bit-identical events, identical SDL contents."""

    @pytest.fixture(scope="class")
    def seed_run(self, trained_autoencoder):
        return _run_live(trained_autoencoder, GenfastSettings())

    @pytest.fixture(scope="class")
    def fast_run(self, trained_autoencoder):
        return _run_live(trained_autoencoder, GenfastSettings.all_on())

    def test_telemetry_stream_identical(self, seed_run, fast_run):
        assert fast_run.mobiwatch.records_seen == seed_run.mobiwatch.records_seen
        assert fast_run.mobiwatch.series.records == seed_run.mobiwatch.series.records

    def test_anomaly_events_bit_identical(self, seed_run, fast_run):
        assert seed_run.mobiwatch.anomalies, "scenario produced no events"
        assert event_tuples(fast_run) == event_tuples(seed_run)
        assert fast_run.mobiwatch.windows_scored == seed_run.mobiwatch.windows_scored

    def test_sdl_telemetry_contents_identical(self, seed_run, fast_run):
        seed_ns = seed_run.ric.sdl._data.get(SDL_TELEMETRY_NS)
        fast_ns = fast_run.ric.sdl._data.get(SDL_TELEMETRY_NS)
        assert seed_ns == fast_ns
        assert seed_ns, "no telemetry stored"
        # One set_many per indication stores what one set per record would.
        per_record = SharedDataLayer()
        for index, record in enumerate(seed_run.mobiwatch.series):
            value = {k: v for k, v in record.to_dict().items() if v is not None}
            per_record.set(SDL_TELEMETRY_NS, f"{index:09d}", value)
        assert per_record._data[SDL_TELEMETRY_NS] == seed_ns


# ---------------------------------------------------------------------------
# event queue: tombstone compaction (satellite bugfix regression)


class TestEventQueueCompaction:
    def test_cancel_churn_keeps_heap_bounded(self):
        """The seed leaked every cancelled event until its deadline; a
        cancel-and-reschedule workload (timers pushed out on every
        activity, like the UE inactivity timers) grew the heap without
        bound. Compaction keeps tombstones under half the heap."""
        queue = EventQueue()
        live = 50
        events = [queue.push(1000.0 + i, lambda: None) for i in range(live)]
        for round_index in range(200):
            for i in range(live):
                events[i].cancel()
                events[i] = queue.push(2000.0 + round_index, lambda: None)
        assert len(queue) == live
        # Bounded: never more than ~2x the live events (+ the pre-compact
        # threshold), not the 10k cancelled this churn produced.
        assert queue.heap_size <= max(2 * live, EventQueue.COMPACT_MIN_HEAP + live)

    def test_compact_drops_only_cancelled(self):
        queue = EventQueue()
        keep = [queue.push(float(i), lambda: None, name=f"k{i}") for i in range(10)]
        drop = [queue.push(float(i) + 0.5, lambda: None) for i in range(10)]
        for event in drop:
            event.cancel()
        assert queue.compact() == 10
        assert queue.heap_size == 10
        assert len(queue) == 10
        popped = [queue.pop() for _ in range(10)]
        assert popped == keep
        assert queue.pop() is None

    def test_no_compaction_below_min_heap(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        # Tiny heaps keep their tombstones (pop discards them lazily).
        assert queue.heap_size == 10
        assert len(queue) == 0
        assert queue.pop() is None
        assert queue.heap_size == 0

    def test_pop_and_peek_account_for_discarded_tombstones(self):
        queue = EventQueue()
        cancelled = queue.push(1.0, lambda: None)
        kept = queue.push(2.0, lambda: None)
        cancelled.cancel()
        assert queue.peek_time() == 2.0  # discards the tombstone
        assert queue.heap_size == 1
        assert queue.pop() is kept
        assert queue.compact() == 0


# ---------------------------------------------------------------------------
# collector: GUTI parse errors are counted (satellite bugfix regression)


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


class TestCollectorBatchMode:
    def test_flush_batch_matches_series(self, scenario_series):
        net = FiveGNetwork(NetworkConfig(seed=5))
        ue = net.add_ue("pixel5")
        net.sim.schedule(0.2, ue.start_session)
        net.run(until=12.0)
        collector = MobiFlowCollector()
        received = []
        collector.subscribe_batches(received.append)
        series = collector.parse_stream(net.pcap)
        assert collector.pending_batch_records == len(series.records)
        batch = collector.flush_batch()
        assert batch.to_records() == series.records
        assert received == [batch]
        assert collector.flush_batch() is None  # drained

    def test_batch_mode_off_by_default(self):
        collector = MobiFlowCollector()
        assert collector.pending_batch_records == 0
        assert collector.flush_batch() is None


# ---------------------------------------------------------------------------
# batched SDL writes


class TestSdlSetMany:
    def test_matches_sequential_sets(self):
        a, b = SharedDataLayer(), SharedDataLayer()
        pairs = [(f"k{i}", {"v": i}) for i in range(5)]
        for key, value in pairs:
            a.set("ns", key, value)
        b.set_many("ns", pairs)
        assert a._data == b._data
        assert b.get("ns", "k3") == {"v": 3}

    def test_one_acked_write_per_batch(self):
        sdl = SharedDataLayer()
        sdl.set_many("ns", [(f"k{i}", i) for i in range(10)])
        assert sdl.writes == 1

    def test_watchers_notified_per_pair(self):
        sdl = SharedDataLayer()
        seen = []
        sdl.watch("ns", lambda ns, key, value: seen.append((key, value)))
        sdl.set_many("ns", [("a", 1), ("b", 2)])
        assert seen == [("a", 1), ("b", 2)]

    def test_empty_batch_noop(self):
        sdl = SharedDataLayer()
        sdl.set_many("ns", [])
        assert sdl.writes == 0

    def test_sharded_set_many_matches_sets(self):
        a = ShardedSdl(shards=3, replication=2)
        b = ShardedSdl(shards=3, replication=2)
        pairs = [(f"k{i}", i) for i in range(8)]
        for key, value in pairs:
            a.set("ns", key, value, shard_key="session-7")
        b.set_many("ns", pairs, shard_key="session-7")
        for key, value in pairs:
            assert b.get("ns", key, shard_key="session-7") == value
        assert b.writes == 1
        assert a.keys("ns") == b.keys("ns")


class TestBatcherOfferMany:
    def test_matches_repeated_offer(self):
        flushed_a, flushed_b = [], []
        a = BoundedBatcher(flushed_a.append, flush_records=16)
        b = BoundedBatcher(flushed_b.append, flush_records=16)
        items = list(range(40))
        for item in items:
            a.offer(item)
        assert b.offer_many(items) == 40
        assert flushed_a == flushed_b
        assert a.pending == b.pending

    def test_drop_policy_applied_per_item(self):
        flushed = []
        batcher = BoundedBatcher(
            flushed.append, capacity=4, flush_records=100, drop_policy="newest"
        )
        assert batcher.offer_many(list(range(10))) == 4
        assert batcher.dropped == 6
        assert batcher.pending == 4


# ---------------------------------------------------------------------------
# bench gates


def _passing_result():
    result = GenfastBenchResult(cpus=4)
    result.end_to_end = {"speedup": 4.0, "seed_rps": 1e4, "fast_rps": 4e4}
    result.featurization = {"speedup": 10.0, "seed_rps": 1e5, "fast_rps": 1e6}
    result.equality = {
        "windows_identical": True,
        "window_records_identical": True,
        "columnar_decodes_byte_identical": True,
        "vectorized_rows_identical": True,
    }
    return result


class TestBenchGates:
    def test_passing_result_clears(self):
        assert violations(_passing_result()) == []

    def test_equality_break_is_violation(self):
        result = _passing_result()
        result.equality["windows_identical"] = False
        assert any("windows_identical" in v for v in violations(result))

    def test_end_to_end_floor_multi_core(self):
        result = _passing_result()
        result.end_to_end["speedup"] = END_TO_END_SPEEDUP_MIN - 0.1
        assert any("end-to-end" in v for v in violations(result))

    def test_end_to_end_floor_single_core(self):
        result = _passing_result()
        result.cpus = 1
        result.end_to_end["speedup"] = END_TO_END_SINGLE_CORE_MIN - 0.1
        assert any("single-core" in v for v in violations(result))
        result.end_to_end["speedup"] = END_TO_END_SINGLE_CORE_MIN + 0.1
        assert violations(result) == []

    def test_featurization_floor(self):
        result = _passing_result()
        result.featurization["speedup"] = FEATURIZATION_SPEEDUP_MIN - 0.5
        assert any("featurization" in v for v in violations(result))

    def test_baseline_regression_detected(self):
        result = _passing_result()
        baseline = {
            "floor_applied": "multi-core",
            "end_to_end": {"speedup": result.end_to_end["speedup"] / BASELINE_SLACK * 2},
            "featurization": {"speedup": 1.0},
        }
        assert any("regressed" in v for v in violations(result, baseline))

    def test_cross_regime_baseline_ignored(self):
        result = _passing_result()
        baseline = {
            "floor_applied": "single-core",
            "end_to_end": {"speedup": 100.0},
            "featurization": {"speedup": 100.0},
        }
        assert violations(result, baseline) == []

    def test_to_dict_schema(self):
        snapshot = _passing_result().to_dict()
        assert snapshot["schema"] == 1
        assert snapshot["floor_applied"] == "multi-core"
        assert snapshot["cpus"] == 4
