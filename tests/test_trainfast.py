"""Training: the one loop against its oracle.

Every test here is an equality test:

- ``AnomalyDetector.fit`` — the one mini-batch loop of
  ``repro.ml.training`` — reproduces the seed loops kept in
  ``tests/reference_training.py`` bit-for-bit (per-epoch loss
  trajectories *and* final weights) for both models, on captures from
  each of the five attacks' scenarios, and so does the early-stopping
  path of ``train_minibatch``.
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
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.ml.autoencoder import Autoencoder
from repro.ml.detector import AutoencoderDetector, LstmDetector
from repro.ml.lstm import LstmPredictor
from repro.ml.training import TrainConfig, train_autoencoder
from repro.ran.core_network import AmfConfig
from repro.ran.network import FiveGNetwork, NetworkConfig
from repro.telemetry.collector import MobiFlowCollector
from repro.telemetry.features import FeatureSpec, WindowedDataset

from tests import reference_training
from tests.reference_scoring import reference_scores


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
    detector.training_scores = reference_scores(detector, windows)
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
        reference = reference_scores(detector, benign_windows)
        assert np.array_equal(detector.training_scores, reference)
        assert detector.scores(benign_windows).tobytes() == reference.tobytes()
