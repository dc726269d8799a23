"""Tests for featurization: one-hot encoding, flags, sliding windows, and
the one featurizer, ``StreamingEncoder``.

``FeatureSpec.encode_series`` (what every offline build runs: the live
encoder pushed record by record) is held bit-identical (float64
arithmetic, float32 storage) to the seed ``push`` in
``tests/reference_features.py`` on captures from each of the five attacks'
scenarios plus a benign mix; the streaming encoder is held to the same
oracle on arbitrary record sequences; the golden-vector fixture freezes
the feature column layout itself.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attacks import (
    BlindDosAttack,
    BtsDosAttack,
    DownlinkIdExtractionAttack,
    NullCipherAttack,
    UplinkIdExtractionAttack,
)
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.ran.core_network import AmfConfig
from repro.ran.network import FiveGNetwork, NetworkConfig
from repro.telemetry.collector import MobiFlowCollector
from repro.telemetry.features import (
    DEFAULT_MESSAGE_VOCAB,
    FeatureSpec,
    WindowedDataset,
    sliding_windows,
)
from repro.telemetry.mobiflow import MobiFlowRecord, TelemetrySeries
from tests.reference_features import SeedStreamingEncoder

FIXTURES = Path(__file__).parent / "fixtures"


def record(t, msg, session=1, **kwargs):
    defaults = dict(protocol="RRC", direction="UL")
    defaults.update(kwargs)
    return MobiFlowRecord(timestamp=t, msg=msg, session_id=session, **defaults)


def simple_series():
    return TelemetrySeries(
        [
            record(0.00, "RRCSetupRequest", establishment_cause="mo-Data"),
            record(0.01, "RRCSetup", direction="DL"),
            record(0.02, "RRCSetupComplete"),
            record(0.03, "RegistrationRequest", protocol="NAS", suci="suci-001-01-x"),
            record(0.04, "AuthenticationRequest", protocol="NAS", direction="DL"),
        ]
    )


class TestFeatureSpec:
    def test_dim_matches_names(self):
        spec = FeatureSpec()
        assert len(spec.feature_names()) == spec.dim

    def test_subset_specs_have_smaller_dims(self):
        full = FeatureSpec()
        no_state = FeatureSpec(include_state=False)
        no_ids = FeatureSpec(include_identifiers=False)
        no_timing = FeatureSpec(include_timing=False)
        assert no_state.dim < full.dim
        assert no_ids.dim < full.dim
        assert no_timing.dim < full.dim
        assert len(no_state.feature_names()) == no_state.dim

    def test_encode_shape(self):
        spec = FeatureSpec()
        matrix = spec.encode_series(simple_series())
        assert matrix.shape == (5, spec.dim)
        assert matrix.dtype == np.float32

    def test_message_one_hot_sums_to_one(self):
        spec = FeatureSpec()
        matrix = spec.encode_series(simple_series())
        msg_block = matrix[:, : len(spec.message_vocab) + 1]
        assert np.all(msg_block.sum(axis=1) == 1.0)

    def test_unknown_message_falls_into_other_bucket(self):
        spec = FeatureSpec()
        series = TelemetrySeries([record(0.0, "SomethingNew")])
        matrix = spec.encode_series(series)
        other_col = len(spec.message_vocab)
        assert matrix[0, other_col] == 1.0

    def test_direction_encoding(self):
        spec = FeatureSpec()
        names = spec.feature_names()
        ul_col = names.index("dir=UL")
        dl_col = names.index("dir=DL")
        matrix = spec.encode_series(simple_series())
        assert matrix[0, ul_col] == 1.0 and matrix[0, dl_col] == 0.0
        assert matrix[1, dl_col] == 1.0 and matrix[1, ul_col] == 0.0

    def test_new_session_flag(self):
        spec = FeatureSpec()
        col = spec.feature_names().index("new_session")
        series = TelemetrySeries(
            [record(0.0, "A", session=1), record(0.1, "B", session=1), record(0.2, "C", session=2)]
        )
        matrix = spec.encode_series(series)
        assert list(matrix[:, col]) == [1.0, 0.0, 1.0]

    def test_tmsi_reuse_fires_on_third_usage_episode(self):
        spec = FeatureSpec(identifier_weight=1.0)
        col = spec.feature_names().index("tmsi_reused")
        series = TelemetrySeries(
            [
                record(0.0, "A", session=1, s_tmsi=0xAA),  # episode 1
                record(0.3, "B", session=1, s_tmsi=0xAA),  # same episode
                record(5.0, "C", session=2, s_tmsi=0xAA),  # episode 2 (benign re-reg)
                record(10.0, "D", session=3, s_tmsi=0xAA),  # episode 3: reuse!
                record(15.0, "E", session=4, s_tmsi=0xBB),  # fresh tmsi
            ]
        )
        matrix = spec.encode_series(series)
        assert list(matrix[:, col]) == [0.0, 0.0, 0.0, 1.0, 0.0]

    def test_tmsi_retries_merge_into_one_episode(self):
        """Duplicates/T300 retries within the horizon must not count as reuse."""
        spec = FeatureSpec(identifier_weight=1.0)
        col = spec.feature_names().index("tmsi_reused")
        series = TelemetrySeries(
            [
                record(0.0, "A", session=1, s_tmsi=0xAA),
                record(4.0, "B", session=2, s_tmsi=0xAA),  # episode 2
                record(4.4, "B", session=3, s_tmsi=0xAA),  # retry: same episode
                record(4.8, "B", session=4, s_tmsi=0xAA),  # retry: same episode
            ]
        )
        matrix = spec.encode_series(series)
        assert list(matrix[:, col]) == [0.0, 0.0, 0.0, 0.0]

    def test_identity_exposed_flag(self):
        spec = FeatureSpec(identifier_weight=1.0)
        col = spec.feature_names().index("identity_exposed")
        series = TelemetrySeries(
            [
                record(0.0, "A", suci="suci-001-01-xyz"),
                record(0.1, "B", suci="suci-null-001-01-123456789"),
                record(0.2, "C", supi="imsi-00101123456789"),
            ]
        )
        matrix = spec.encode_series(series)
        assert list(matrix[:, col]) == [0.0, 1.0, 1.0]

    def test_repeated_message_flag(self):
        spec = FeatureSpec()
        col = spec.feature_names().index("repeated_msg")
        series = TelemetrySeries([record(0.0, "A"), record(0.1, "A"), record(0.2, "B")])
        matrix = spec.encode_series(series)
        assert list(matrix[:, col]) == [0.0, 1.0, 0.0]

    def test_iat_buckets(self):
        spec = FeatureSpec(iat_buckets=(0.01, 0.1))
        names = spec.feature_names()
        fast = names.index("iat<0.01")
        mid = names.index("iat<0.1")
        slow = names.index("iat>=last")
        series = TelemetrySeries([record(0.0, "A"), record(0.005, "B"), record(1.0, "C")])
        matrix = spec.encode_series(series)
        assert matrix[0, fast] == 1.0  # first record: iat 0
        assert matrix[1, fast] == 1.0
        assert matrix[2, slow] == 1.0
        assert matrix[2, mid] == 0.0

    def test_encoding_is_causal(self):
        """Features of entry i must not depend on entries after i."""
        spec = FeatureSpec()
        series_full = TelemetrySeries(
            [record(0.0, "A", session=1, s_tmsi=1), record(0.1, "B", session=2, s_tmsi=1)]
        )
        series_prefix = TelemetrySeries([record(0.0, "A", session=1, s_tmsi=1)])
        full = spec.encode_series(series_full)
        prefix = spec.encode_series(series_prefix)
        assert np.array_equal(full[0], prefix[0])


class TestSlidingWindows:
    def test_window_count_and_shape(self):
        matrix = np.arange(20, dtype=np.float32).reshape(5, 4)
        windows = sliding_windows(matrix, 3)
        assert windows.shape == (3, 12)

    def test_window_content(self):
        matrix = np.arange(6, dtype=np.float32).reshape(3, 2)
        windows = sliding_windows(matrix, 2)
        assert list(windows[0]) == [0, 1, 2, 3]
        assert list(windows[1]) == [2, 3, 4, 5]

    def test_too_short_series_gives_empty(self):
        matrix = np.zeros((2, 4), dtype=np.float32)
        assert sliding_windows(matrix, 3).shape == (0, 12)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            sliding_windows(np.zeros((3, 2)), 0)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12))
    def test_window_count_property(self, window, rows):
        matrix = np.zeros((rows, 3), dtype=np.float32)
        windows = sliding_windows(matrix, window)
        expected = max(0, rows - window + 1)
        assert windows.shape == (expected, window * 3)


class TestWindowedDataset:
    def test_from_series(self):
        spec = FeatureSpec()
        dataset = WindowedDataset.from_series(simple_series(), spec, window=3)
        assert dataset.num_windows == 3
        assert dataset.windows.shape == (3, 3 * spec.dim)
        assert dataset.per_record.shape == (5, spec.dim)

    def test_record_range(self):
        spec = FeatureSpec()
        dataset = WindowedDataset.from_series(simple_series(), spec, window=3)
        assert dataset.record_range(0) == (0, 3)
        assert dataset.record_range(2) == (2, 5)
        with pytest.raises(IndexError):
            dataset.record_range(3)


# ---------------------------------------------------------------------------
# attack-scenario captures (shared by the encode_series and seed-push tests)


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


def seed_rows(spec, records):
    """Oracle featurization: the seed encoder pushed record by record."""
    encoder = SeedStreamingEncoder(spec)
    return np.stack([encoder.push(r) for r in records])


# ---------------------------------------------------------------------------
# encode_series bit-identity to the seed oracle (the acceptance contract)


class TestVectorizedFeaturizationBitIdentity:
    """``FeatureSpec.encode_series``, what every offline dataset build runs,
    against the seed oracle's rows, byte for byte."""

    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_attack_captures_bit_identical(self, scenario_series, scenario):
        series = scenario_series[scenario]
        spec = FeatureSpec()
        # tobytes, not allclose: float64 arithmetic, float32 storage, bit
        # for bit.
        assert spec.encode_series(series).tobytes() == seed_rows(spec, series).tobytes()

    def test_benign_capture_bit_identical(self, benign_series):
        spec = FeatureSpec()
        assert (
            spec.encode_series(benign_series).tobytes()
            == seed_rows(spec, benign_series).tobytes()
        )

    def test_from_series_vectorized_flag_identical(self, scenario_series):
        series = scenario_series["null_cipher"]
        spec = FeatureSpec()
        seed = WindowedDataset._assemble(
            series, spec, 6, "session", seed_rows(spec, series)
        )
        built = WindowedDataset.from_series(series, spec, window=6)
        assert built.windows.tobytes() == seed.windows.tobytes()
        assert built.window_records == seed.window_records

    def test_unordered_batch_rejected(self):
        series = TelemetrySeries(
            [
                MobiFlowRecord(
                    timestamp=t, msg="RRCSetupRequest", protocol="RRC", direction="UL",
                    session_id=1,
                )
                for t in (1.0, 0.5)
            ]
        )
        with pytest.raises(ValueError):
            FeatureSpec().encode_series(series)

    def test_empty_series_gives_empty_matrix(self):
        spec = FeatureSpec()
        assert spec.encode_series(TelemetrySeries()).shape == (0, spec.dim)


# ---------------------------------------------------------------------------
# the table-driven StreamingEncoder against the seed push, kept as an oracle

# A small pool makes repeats (back-to-back messages, reused TMSIs, returning
# sessions) as likely as misses (names outside both vocabularies).
_MSG_POOL = ("RRCSetupRequest",) * 3 + ("RRCSetup", "ServiceRequest", "NotInTheVocab", "")
_CAUSE_POOL = (None, "mo-Data", "emergency", "notACause")
_SUCI_POOL = (None, "", "suci-001-01-x", "suci-null-001-01-imsi")
_INCLUDES = (
    "include_messages", "include_state", "include_identifiers", "include_timing",
    "include_rates",
)
_ALGS = st.none() | st.integers(0, 7)


@st.composite
def stream_records(draw):
    """Arbitrary record sequences: timestamps move by a signed step, so
    they repeat, jump past the 1 s windows, and *decrease*."""
    steps = draw(
        st.lists(
            st.sampled_from((0.0, 0.004, 0.03, 0.3, 0.6, 1.0, 1.7, -0.02, -0.4, -1.2)),
            min_size=1,
            max_size=40,
        )
    )
    out, t = [], 10.0
    for step in steps:
        t += step
        out.append(
            MobiFlowRecord(
                timestamp=t,
                msg=draw(st.sampled_from(_MSG_POOL)),
                protocol="RRC",
                direction=draw(st.sampled_from(("UL", "DL"))),
                session_id=draw(st.integers(0, 3) | st.integers(0, 40)),
                s_tmsi=draw(st.none() | st.integers(1, 3)),
                suci=draw(st.sampled_from(_SUCI_POOL)),
                supi=draw(st.sampled_from((None, "", "imsi-001010000000001"))),
                cipher_alg=draw(_ALGS),
                integrity_alg=draw(_ALGS),
                establishment_cause=draw(st.sampled_from(_CAUSE_POOL)),
            )
        )
    return out


def assert_equals_seed_push(spec, records):
    seed, encoder = SeedStreamingEncoder(spec), spec.streaming_encoder()
    rows = []
    for index, item in enumerate(records):
        expected, row = seed.push(item), encoder.push(item)
        assert row.dtype == expected.dtype and row.shape == expected.shape
        assert row.tobytes() == expected.tobytes(), (index, item)
        rows.append(row)
    return rows


class TestStreamingEncoderEqualsSeedPush:
    @given(
        records=stream_records(),
        includes=st.tuples(*[st.booleans()] * len(_INCLUDES)),
        weights=st.sampled_from(((3.0, 2.0), (1.0, 1.0), (-2.0, 0.5), (0.0, 0.0))),
        shuffled_buckets=st.booleans(),
    )
    def test_rows_bit_equal(self, records, includes, weights, shuffled_buckets):
        spec = FeatureSpec(
            # A duplicate vocabulary entry resolves to its first index.
            message_vocab=DEFAULT_MESSAGE_VOCAB[:4] + ("RRCSetup", "ServiceRequest"),
            iat_buckets=(0.2, 0.01, 1.0, 0.05) if shuffled_buckets else (0.01, 0.05, 0.2, 1.0),
            identifier_weight=weights[0],
            state_weight=weights[1],
            **dict(zip(_INCLUDES, includes)),
        )
        assert_equals_seed_push(spec, records)

    @pytest.mark.parametrize("off", _INCLUDES)
    def test_every_group_off_on_a_capture(self, scenario_series, off):
        """Every ``include_*`` off in turn, on a real (monotone) capture."""
        assert_equals_seed_push(FeatureSpec(**{off: False}), scenario_series["bts_dos"])

    def test_rate_windows_expire_like_the_filter_when_time_decreases(self):
        """An event older than the one before it must leave its window
        first: a window only popped from the left would keep it."""
        records = [
            record(5.0, "RRCSetupRequest", session=1),
            record(4.6, "RRCSetupRequest", session=2),
            record(5.6, "RRCSetup", session=1),  # horizon 4.6: drops the 4.6s
            record(6.2, "RRCSetup", session=1),
        ]
        rows = assert_equals_seed_push(FeatureSpec(), records)
        names = FeatureSpec().feature_names()
        assert rows[2][names.index("setup_rate=1")] == 1.0
        assert rows[2][names.index("session_churn=1")] == 1.0


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
