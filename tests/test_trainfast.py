"""Training: the one loop against its oracle, sweep determinism, cache.

Almost every test here is an equality test:

- defaults keep the sweeps serial with no dataset cache;
- ``AnomalyDetector.fit`` — the one mini-batch loop of
  ``repro.ml.training`` — reproduces the seed loops kept in
  ``tests/reference_training.py`` bit-for-bit (per-epoch loss
  trajectories *and* final weights) for both models, on captures from
  each of the five attacks' scenarios, and so does the early-stopping
  path of ``train_minibatch``;
- a parallel float64 sweep returns exactly the serial seed sweep's rows;
- the dataset cache is content-addressed: identical telemetry hits,
  different telemetry/spec/window never alias.
"""

import numpy as np
import pytest

from repro.attacks import (
    BlindDosAttack,
    BtsDosAttack,
    DownlinkIdExtractionAttack,
    NullCipherAttack,
    UplinkIdExtractionAttack,
)
from repro.core import XsecConfig
from repro.core.framework import build_detector
from repro.experiments.ablations import AblationConfig, run_window_ablation
from repro.experiments.datasets import (
    AttackDatasetConfig,
    BenignDatasetConfig,
    generate_benign_dataset,
)
from repro.ml.autoencoder import Autoencoder
from repro.ml.detector import AutoencoderDetector, LstmDetector
from repro.ml.lstm import LstmPredictor
from repro.ml.training import TrainConfig, train_autoencoder
from repro.ran.core_network import AmfConfig
from repro.ran.network import FiveGNetwork, NetworkConfig
from repro.telemetry.collector import MobiFlowCollector
from repro.telemetry.features import FeatureSpec, WindowedDataset
from repro.telemetry.mobiflow import MobiFlowRecord, TelemetrySeries
from repro.experiments.cache import DatasetCache, series_digest, spec_key
from repro.experiments.sweep import SweepRunner, derive_seed, sweep_tools

from tests import reference_training


# ---------------------------------------------------------------------------
# settings


class TestTrainfastSettings:
    """The sweep knobs are keyword arguments of the sweep entry points
    (``sweep_tools`` turns them into a runner and a cache)."""

    def test_defaults_all_off(self):
        runner, cache = sweep_tools()
        assert runner.workers == 0 and cache is None

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            sweep_tools(sweep_workers=-1)


# ---------------------------------------------------------------------------
# the one loop == the seed loops, bitwise, per attack scenario


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
def scenario_windows():
    """Window matrices from a live capture of each attack's scenario."""
    spec = FeatureSpec()
    out = {}
    for name, (factory, net_kwargs) in ATTACK_SCENARIOS.items():
        net = FiveGNetwork(NetworkConfig(seed=77, **net_kwargs))
        for profile in ("pixel5", "oai_ue"):
            ue = net.add_ue(profile)
            net.sim.schedule(0.5, ue.start_session)
        factory(net).arm()
        net.run(until=16.0)
        series = MobiFlowCollector().parse_stream(net.pcap)
        dataset = WindowedDataset.from_series(series, spec, window=6)
        assert dataset.num_windows > 0, name
        out[name] = np.asarray(dataset.windows, dtype=np.float64)
    return out


class TestCompiledTrainerBitIdentity:
    """The acceptance contract: ``AnomalyDetector.fit`` == the seed loops
    (tests/reference_training.py), losses and weights, bitwise."""

    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_autoencoder_losses_and_weights(self, scenario_windows, scenario):
        windows = scenario_windows[scenario]
        dim = windows.shape[1]
        seed_model = Autoencoder(dim, hidden_dim=48, latent_dim=12, seed=3)
        detector = AutoencoderDetector(6, dim // 6, hidden_dim=48, latent_dim=12, seed=3)
        seed_losses = reference_training.autoencoder_fit(seed_model, windows, epochs=4)
        report = detector.fit(windows, epochs=4)
        assert seed_losses == report.epoch_losses
        for a, b in zip(seed_model.params(), detector.model.params()):
            assert np.array_equal(a.value, b.value)

    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_lstm_losses_and_weights(self, scenario_windows, scenario):
        windows = scenario_windows[scenario]
        dim = windows.shape[1] // 6
        unflat = windows.reshape(len(windows), 6, dim)
        sequences, targets = unflat[:, :-1, :], unflat[:, 1:, :]
        seed_model = LstmPredictor(dim, hidden_dim=24, output_dim=dim, seed=3)
        detector = LstmDetector(6, dim, hidden_dim=24, seed=3)
        seed_losses = reference_training.lstm_fit(seed_model, sequences, targets, epochs=4)
        report = detector.fit(windows, epochs=4)
        assert seed_losses == report.epoch_losses
        for a, b in zip(seed_model.params(), detector.model.params()):
            assert np.array_equal(a.value, b.value)

    def test_train_minibatch_early_stopping_mirrored(self, scenario_windows):
        windows = scenario_windows["null_cipher"]
        dim = windows.shape[1]
        config = TrainConfig(
            epochs=12, lr=2e-3, validation_fraction=0.2, patience=2, seed=5
        )
        seed_model = Autoencoder(dim, hidden_dim=32, latent_dim=8, seed=5)
        model = Autoencoder(dim, hidden_dim=32, latent_dim=8, seed=5)
        seed_hist = reference_training.train_minibatch(
            reference_training.AutoencoderAdapter(seed_model), windows, windows, config
        )
        hist = train_autoencoder(model, windows, config)
        assert seed_hist.epoch_losses == hist.epoch_losses
        assert seed_hist.validation_losses == hist.validation_losses
        assert seed_hist.best_epoch == hist.best_epoch
        assert seed_hist.stopped_early == hist.stopped_early
        for a, b in zip(seed_model.params(), model.params()):
            assert np.array_equal(a.value, b.value)


# ---------------------------------------------------------------------------
# detector routing


@pytest.fixture(scope="module")
def benign_windows():
    capture = generate_benign_dataset(BenignDatasetConfig(seed=11, duration_s=30.0))
    dataset = capture.labeled(FeatureSpec(), 6, "benign")
    return np.asarray(dataset.windowed.windows, dtype=np.float64)


def _reference_fit(detector, windows, **train_kwargs) -> None:
    """``detector.fit`` through the references: the seed training loops,
    then layer-walking scores for the threshold."""
    windows = detector._check(windows)
    if isinstance(detector, LstmDetector):
        reference_training.lstm_fit(detector.model, *detector._split(windows), **train_kwargs)
    else:
        reference_training.autoencoder_fit(detector.model, windows, **train_kwargs)
    detector.training_scores = detector.reference_scores(windows)
    detector.threshold.fit(detector.training_scores)


class TestDetectorRouting:
    @pytest.mark.parametrize("detector_name", ["autoencoder", "lstm"])
    def test_compiled_f64_fit_equals_seed_fit(self, benign_windows, detector_name):
        config = XsecConfig(detector=detector_name, train_epochs=4)
        seed_det = build_detector(config)
        fast_det = build_detector(config)
        _reference_fit(seed_det, benign_windows, epochs=4)
        fast_det.fit(benign_windows, epochs=4)
        # float64 end to end: weights, training scores, and the threshold
        # all land on exactly the seed's bits.
        for a, b in zip(seed_det.model.params(), fast_det.model.params()):
            assert np.array_equal(a.value, b.value)
        assert np.array_equal(seed_det.training_scores, fast_det.training_scores)
        assert seed_det.threshold.threshold == fast_det.threshold.threshold

    def test_fit_without_trainfast_leaves_no_snapshot(self, benign_windows):
        """The snapshot fit() leaves is of the *trained* weights, in float64."""
        detector = build_detector(XsecConfig(train_epochs=2))
        stale = detector.compiled
        detector.fit(benign_windows, epochs=2)
        assert detector.compiled is not stale
        assert detector.compiled.dtype == "float64"
        assert np.array_equal(
            detector.training_scores, detector.reference_scores(benign_windows)
        )


# ---------------------------------------------------------------------------
# sweep runner


class TestSweepRunner:
    def test_derive_seed_deterministic_and_distinct(self):
        seeds = [derive_seed(7, i) for i in range(32)]
        assert seeds == [derive_seed(7, i) for i in range(32)]
        assert len(set(seeds)) == len(seeds)
        assert derive_seed(8, 0) != derive_seed(7, 0)

    def test_serial_map_preserves_order(self):
        runner = SweepRunner(workers=0)
        assert not runner.parallel_available
        assert runner.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        parallel = SweepRunner(workers=2)
        if not parallel.parallel_available:  # pragma: no cover - fork-less host
            pytest.skip("fork start method unavailable")
        items = list(range(8))
        assert parallel.map(lambda x: x * 3 + 1, items) == [x * 3 + 1 for x in items]

    def test_from_settings(self, tmp_path):
        runner, cache = sweep_tools(sweep_workers=3, cache=True, cache_dir=str(tmp_path))
        assert runner.workers == 3
        assert cache.cache_dir == tmp_path


class TestParallelSweepEqualsSerial:
    def test_window_ablation_rows_identical(self):
        config = AblationConfig(
            epochs=3,
            seed=9,
            benign=BenignDatasetConfig(seed=11, duration_s=25.0),
            attack=AttackDatasetConfig(
                seed=12,
                duration_s=20.0,
                bts_dos_instances=1,
                blind_dos_instances=1,
                uplink_id_instances=1,
                downlink_id_instances=1,
                null_cipher_instances=1,
            ),
        )
        windows = (4, 6)
        serial = run_window_ablation(config, windows)
        fast = run_window_ablation(config, windows, sweep_workers=2, cache=True)
        assert serial.rows == fast.rows


# ---------------------------------------------------------------------------
# dataset cache


def _record(t, msg, session=1, **kwargs):
    defaults = dict(protocol="RRC", direction="UL")
    defaults.update(kwargs)
    return MobiFlowRecord(timestamp=t, msg=msg, session_id=session, **defaults)


def _series(extra_msg="RRCSetupComplete"):
    return TelemetrySeries(
        [
            _record(0.00, "RRCSetupRequest", establishment_cause="mo-Data"),
            _record(0.01, "RRCSetup", direction="DL"),
            _record(0.02, extra_msg),
            _record(0.03, "RegistrationRequest", protocol="NAS", suci="suci-001-01-x"),
            _record(0.04, "AuthenticationRequest", protocol="NAS", direction="DL"),
        ]
    )


class TestDatasetCache:
    def test_identical_content_hits_even_across_objects(self):
        cache = DatasetCache()
        spec = FeatureSpec()
        first = WindowedDataset.from_series(_series(), spec, window=3, cache=cache)
        assert cache.misses > 0 and cache.hits == 0
        # A different series object with byte-identical records is the
        # same content-address: pure hit, same dataset object.
        again = WindowedDataset.from_series(_series(), spec, window=3, cache=cache)
        assert again is first
        assert cache.hits > 0

    def test_different_window_is_a_miss_but_shares_the_encode(self):
        cache = DatasetCache()
        spec = FeatureSpec()
        three = WindowedDataset.from_series(_series(), spec, window=3, cache=cache)
        misses_before, hits_before = cache.misses, cache.hits
        two = WindowedDataset.from_series(_series(), spec, window=2, cache=cache)
        assert two is not three
        # New window = a fresh dataset, but the per-record encode (the
        # expensive level) is shared: level-1 hit, no new encode.
        assert cache.misses == misses_before
        assert cache.hits == hits_before + 1
        assert two.per_record is three.per_record

    def test_different_content_never_aliases(self):
        cache = DatasetCache()
        spec = FeatureSpec()
        a = WindowedDataset.from_series(_series(), spec, window=3, cache=cache)
        b = WindowedDataset.from_series(
            _series(extra_msg="RRCReject"), spec, window=3, cache=cache
        )
        assert a is not b
        assert series_digest(_series()) != series_digest(_series(extra_msg="RRCReject"))

    def test_digest_memoized_per_object(self):
        series = _series()
        assert series_digest(series) == series_digest(series)
        assert series_digest(series) == series_digest(_series())

    def test_spec_key_tracks_spec(self):
        assert spec_key(FeatureSpec()) == spec_key(FeatureSpec())

    def test_cached_arrays_are_read_only(self):
        cache = DatasetCache()
        dataset = WindowedDataset.from_series(_series(), FeatureSpec(), 3, cache=cache)
        with pytest.raises(ValueError):
            dataset.windows[0, 0] = 1.0
        with pytest.raises(ValueError):
            dataset.per_record[0, 0] = 1.0

    def test_cache_matches_uncached_build(self):
        cached = WindowedDataset.from_series(
            _series(), FeatureSpec(), 3, cache=DatasetCache()
        )
        plain = WindowedDataset.from_series(_series(), FeatureSpec(), 3)
        assert np.array_equal(cached.windows, plain.windows)
        assert np.array_equal(cached.per_record, plain.per_record)
        assert cached.window_records == plain.window_records

    def test_disk_layer_roundtrip(self, tmp_path):
        spec = FeatureSpec()
        writer = DatasetCache(cache_dir=str(tmp_path))
        matrix = writer.record_matrix(_series(), spec)
        reader = DatasetCache(cache_dir=str(tmp_path))
        loaded = reader.record_matrix(_series(), spec)
        assert reader.hits == 1 and reader.misses == 0
        assert np.array_equal(loaded, matrix)
        assert not loaded.flags.writeable

    def test_clear_resets_storage(self):
        cache = DatasetCache()
        WindowedDataset.from_series(_series(), FeatureSpec(), 3, cache=cache)
        cache.clear()
        assert cache.stats["matrices"] == 0
        assert cache.stats["datasets"] == 0
