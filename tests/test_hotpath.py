"""The scoring hot path: equality contracts and wiring.

The hot path trades work for speed only where the result is provably the
same, so almost every test here is an equality test:

- the float64 kernels ``scores()`` runs are bit-identical to the
  layer-walking ``reference_scores()``, also row by row in the row-exact
  batch mode;
- the wire codec reproduces the recursive reference encoder's bytes;
- a live pipeline run produces the same anomaly events as its reference
  counterpart.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro import wire
from repro.attacks import (
    BlindDosAttack,
    BtsDosAttack,
    DownlinkIdExtractionAttack,
    NullCipherAttack,
    UplinkIdExtractionAttack,
)
from repro.core import SixGXSec, XsecConfig
from repro.core.framework import build_detector
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.ml.arena import SessionWindowArena
from repro.ml.detector import AnomalyDetector, AutoencoderDetector, LstmDetector
from repro.ran.core_network import AmfConfig
from repro.ran.network import NetworkConfig
from repro.telemetry import encoder
from repro.telemetry.mobiflow import MobiFlowRecord

# ---------------------------------------------------------------------------
# arena


class TestSessionWindowArena:
    def test_short_session_left_padded_like_seed(self):
        arena = SessionWindowArena(dim=3, window=4)
        rows = np.arange(6, dtype=np.float32).reshape(2, 3) + 1.0
        for row in rows:
            arena.append(7, row)
        got = arena.window_rows(7)
        padded = np.zeros((4, 3), dtype=np.float32)
        padded[2:] = rows
        assert got.shape == (4, 3)
        assert np.array_equal(got, padded)

    def test_full_window_is_last_rows(self):
        arena = SessionWindowArena(dim=2, window=3)
        rows = np.random.default_rng(0).random((9, 2)).astype(np.float32)
        for row in rows:
            arena.append(1, row)
        assert np.array_equal(arena.window_rows(1), rows[-3:])
        assert arena.session_length(1) == 9

    def test_growth_keeps_old_views_valid(self):
        arena = SessionWindowArena(dim=2, window=3, initial_rows=3)
        rows = np.random.default_rng(1).random((20, 2)).astype(np.float32)
        arena.append(5, rows[0])
        early = arena.window_rows(5).copy()
        early_view = arena.window_rows(5)
        for row in rows[1:]:
            arena.append(5, row)  # forces at least one reallocation
        # The retired buffer backing the old view was never mutated.
        assert np.array_equal(early_view, early)
        assert np.array_equal(arena.window_rows(5), rows[-3:])

    def test_append_never_mutates_prior_window_views(self):
        arena = SessionWindowArena(dim=2, window=3, initial_rows=16)
        rows = np.random.default_rng(2).random((8, 2)).astype(np.float32)
        views = []
        snapshots = []
        for row in rows:
            arena.append(9, row)
            views.append(arena.window_rows(9))
            snapshots.append(arena.window_rows(9).copy())
        for view, snapshot in zip(views, snapshots):
            assert np.array_equal(view, snapshot)

    def test_sessions_independent(self):
        arena = SessionWindowArena(dim=2, window=2)
        arena.append(1, np.ones(2, dtype=np.float32))
        arena.append(2, np.full(2, 3.0, dtype=np.float32))
        assert 1 in arena and 2 in arena and 3 not in arena
        assert len(arena) == 2
        assert np.array_equal(arena.window_rows(2)[-1], np.full(2, 3.0))
        sessions, allocated = arena.stats()
        assert sessions == 2 and allocated > 0

    def test_unknown_session_raises(self):
        arena = SessionWindowArena(dim=2, window=2)
        with pytest.raises(KeyError):
            arena.window_rows(42)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SessionWindowArena(dim=0, window=2)
        with pytest.raises(ValueError):
            SessionWindowArena(dim=2, window=0)


# ---------------------------------------------------------------------------
# compiled kernels


def _windows(n, window, dim, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).random((n, window * dim)).astype(dtype)


class TestCompiledKernels:
    @pytest.mark.parametrize("aggregate", ["max", "mean"])
    def test_autoencoder_float64_bit_identical(self, aggregate):
        detector = AutoencoderDetector(
            window=4, feature_dim=9, hidden_dim=12, latent_dim=5, seed=3, aggregate=aggregate
        )
        windows = _windows(17, 4, 9, seed=11)
        reference = detector.reference_scores(windows)
        fast = detector.scores(windows)
        assert fast.dtype == np.float64
        assert np.array_equal(reference, fast)

    def test_lstm_float64_bit_identical(self):
        detector = LstmDetector(window=5, feature_dim=7, hidden_dim=10, seed=4)
        windows = _windows(13, 5, 7, seed=12)
        reference = detector.reference_scores(windows)
        fast = detector.scores(windows)
        assert np.array_equal(reference, fast)

    def test_fit_invalidates_snapshot(self):
        detector = AutoencoderDetector(window=2, feature_dim=3, hidden_dim=4, latent_dim=2, seed=6)
        windows = _windows(24, 2, 3, seed=15)
        stale = detector.compiled
        detector.fit(windows, epochs=1)
        assert detector.compiled is not stale
        assert np.array_equal(detector.scores(windows), detector.reference_scores(windows))

    def test_compiled_path_still_validates_shape(self):
        detector = LstmDetector(window=3, feature_dim=4, hidden_dim=6, seed=7)
        with pytest.raises(ValueError):
            detector.scores(np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# the row-exact batch mode (what the live path and the scoring workers call)

# The deployment's geometry (XsecConfig defaults): BLAS picks kernels by
# shape, so the contract is checked at the shapes the live path issues.
_ROW_WINDOW, _ROW_DIM = 6, 71

_ROW_DETECTORS = {
    "lstm": lambda: LstmDetector(_ROW_WINDOW, _ROW_DIM, hidden_dim=64, seed=21),
    "autoencoder-max": lambda: AutoencoderDetector(_ROW_WINDOW, _ROW_DIM, seed=22),
    "autoencoder-mean": lambda: AutoencoderDetector(
        _ROW_WINDOW, _ROW_DIM, seed=23, aggregate="mean"
    ),
}
_ROW_FITTED: dict = {}


def _row_detector(kind):
    """A briefly trained detector (non-zero biases), fitted once per kind."""
    if kind not in _ROW_FITTED:
        detector = _ROW_DETECTORS[kind]()
        rng = np.random.default_rng(5)
        train = (rng.random((96, _ROW_WINDOW * _ROW_DIM)) < 0.08).astype(np.float64)
        detector.fit(train, epochs=2)
        _ROW_FITTED[kind] = detector
    return _ROW_FITTED[kind]


def _row_batch(n, shape, seed):
    """``n`` windows of one of the shapes live telemetry and fuzzing produce."""
    rng = np.random.default_rng(seed)
    width = _ROW_WINDOW * _ROW_DIM
    if shape == "one-hot":
        # Sparse weighted one-hots, float32 like the arena rows.
        matrix = ((rng.random((n, width)) < 0.08) * rng.integers(1, 4, (n, width))).astype(
            np.float32
        )
    elif shape == "dense":
        matrix = rng.normal(size=(n, width))
    elif shape == "saturated":
        # Large entries: gate pre-activations past the sigmoid's +-60 clip.
        matrix = rng.normal(scale=400.0, size=(n, width)) * (rng.random((n, width)) < 0.3)
    elif shape == "non-finite":
        # Hostile telemetry: NaN / +-inf entries in most rows (and -0.0 below).
        matrix = (rng.random((n, width)) < 0.08).astype(np.float64)
        planted = rng.random((n, width)) < 0.004
        matrix[planted] = rng.choice([np.nan, np.inf, -np.inf], int(planted.sum()))
    else:
        # Short sessions: a zero prefix of 0..window-1 entries per window.
        shaped = (rng.random((n, _ROW_WINDOW, _ROW_DIM)) < 0.1).astype(np.float32)
        for i in range(n):
            shaped[i, : rng.integers(0, _ROW_WINDOW)] = 0.0
        matrix = shaped.reshape(n, width)
    negative_zero = (rng.random(matrix.shape) < 0.03) & (matrix == 0)
    return np.where(negative_zero, matrix.dtype.type(-0.0), matrix)


_ROW_SHAPES = ["one-hot", "dense", "zero-padded", "saturated", "non-finite"]


def _single_row_calls(score_fn, matrix):
    return np.array([score_fn(matrix[i : i + 1])[0] for i in range(len(matrix))])


class TestRowExactKernels:
    """``scores(m, per_row=True)[i]`` is ``scores(m[i:i+1])[0]``, bit for bit,
    at any batch height — never relaxed to a tolerance in float64.

    The row-exact calls go to ``detector.compiled.scores``: the kernels, below
    the score memo ``detector.scores(m, per_row=True)`` answers repeated rows
    from (tests/test_score_memo.py holds the memo to these same bytes)."""

    @pytest.mark.parametrize("kind", sorted(_ROW_DETECTORS))
    @given(
        n=st.integers(1, 64),
        shape=st.sampled_from(_ROW_SHAPES),
        seed=st.integers(0, 2**32 - 1),
    )
    @hypothesis_settings(deadline=None)  # budget: the profile's (conftest.py)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, 0 * inf
    def test_bytes_equal_single_row_calls_and_reference(self, kind, n, shape, seed):
        detector = _row_detector(kind)
        matrix = _row_batch(n, shape, seed)
        kernel = detector.compiled.scores
        got = kernel(matrix, per_row=True)
        assert got.dtype == np.float64 and got.shape == (n,)
        singles = _single_row_calls(detector.scores, matrix)
        reference = _single_row_calls(detector.reference_scores, matrix)
        assert got.tobytes() == singles.tobytes()
        assert singles.tobytes() == reference.tobytes()
        assert detector.reference_scores(matrix, per_row=True).tobytes() == got.tobytes()
        # A row's score does not depend on its neighbours or its position.
        order = np.random.default_rng(seed).permutation(n)
        permuted = kernel(matrix[order], per_row=True)
        assert permuted.tobytes() == got[order].tobytes()

    def test_saturated_rows_cross_the_sigmoid_clip(self):
        """The "saturated" shape is not vacuous: its gate pre-activations
        reach past +-60, where the kernels' clip bites."""
        model = _row_detector("lstm").model
        for seed in range(4):
            entries = _row_batch(8, "saturated", seed).reshape(-1, _ROW_DIM)
            assert np.abs(entries @ model.Wx.value + model.b.value).max() > 60

    @pytest.mark.parametrize("kind", sorted(_ROW_DETECTORS))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_batch_of_one_is_the_plain_call(self, kind):
        detector = _row_detector(kind)
        for seed, shape in enumerate(_ROW_SHAPES):
            row = _row_batch(1, shape, seed)
            assert (
                detector.compiled.scores(row, per_row=True).tobytes()
                == detector.scores(row, per_row=False).tobytes()
            )

    @pytest.mark.parametrize("kind", sorted(_ROW_DETECTORS))
    def test_plain_gemm_is_not_row_exact(self, kind):
        """Why the mode exists: full-height GEMMs drift from the row calls in
        the last bits on some batch (else per_row would be dead weight)."""
        detector = _row_detector(kind)
        drifted = 0
        for seed in range(40):
            matrix = _row_batch(12, "dense", seed)
            gemm = detector.scores(matrix)
            rows = detector.compiled.scores(matrix, per_row=True)
            assert np.allclose(gemm, rows, rtol=1e-9, atol=0.0)
            drifted += gemm.tobytes() != rows.tobytes()
        if not drifted:
            pytest.skip("this BLAS issues height-independent GEMMs")

    @pytest.mark.parametrize("kind", sorted(_ROW_DETECTORS))
    def test_growing_buffers_never_leak_stale_rows(self, kind):
        detector = copy.deepcopy(_row_detector(kind))
        oracle = copy.deepcopy(detector)  # its buffers only ever see one row
        for seed, n in enumerate([3, 40, 2, 17, 1]):
            matrix = _row_batch(n, "zero-padded" if seed % 2 else "one-hot", seed)
            got = detector.compiled.scores(matrix, per_row=True)
            assert got.tobytes() == _single_row_calls(oracle.scores, matrix).tobytes()

    def test_copies_of_a_warm_snapshot_score_alike(self):
        """A snapshot keeps its buffers' views per height; a copy or pickle of
        a warm one must not carry views apart from the buffers they view."""
        detector = copy.deepcopy(_row_detector("lstm"))
        detector.recompile()
        batches = [_row_batch(n, "dense", 30 + n) for n in (1, 3, 5)]
        want = [detector.compiled.scores(m, per_row=True).tobytes() for m in batches]
        warm = detector.compiled
        for clone in (copy.deepcopy(warm), pickle.loads(pickle.dumps(warm))):
            for matrix, expect in zip(batches[::-1], want[::-1]):
                assert clone.scores(matrix, per_row=True).tobytes() == expect


# ---------------------------------------------------------------------------
# wire codec: golden bytes (hex) produced by the recursive reference encoder
# the single-pass ``wire.encode`` replaced; tests/test_wire.py holds the rest
# of the table (every tag, subclasses, long lengths). Vector 24 holds table
# names and was re-pinned by tests/fixtures/repin_wire_golden.py.


_TRICKY_VALUES = [
    (None, "00"),
    (True, "02"),
    (False, "01"),
    (0, "030100"),
    (-1, "0301ff"),
    (1024, "03020400"),
    (1025, "03020401"),
    (-(2**40), "0306ff0000000000"),
    (2**63, "0309008000000000000000"),
    (0.0, "040000000000000000"),
    (-0.0, "048000000000000000"),
    (1.5, "043ff8000000000000"),
    (float("inf"), "047ff0000000000000"),
    (float("-inf"), "04fff0000000000000"),
    ("", "0500"),
    ("short", "050573686f7274"),
    ("x" * 63, "053f" + "78" * 63),
    ("y" * 64, "0540" + "79" * 64),
    ("z" * 65, "0541" + "7a" * 65),  # past the intern-cache length cutoff
    ("ünïcode-κλειδί", "0516c3bc6ec3af636f64652dcebacebbceb5ceb9ceb4ceaf"),
    ([], "0700"),
    ({}, "0800"),
    ([1, "two", 3.0, None, True], "0713030101050374776f0440080000000000000002"),
    ({"a": 1, "b": [2, {"c": "d"}], "e": {"f": None}}, (
        "081f050161030101050162070b03010208060501630501640501650804050166"
        "00"
    )),
    ([{"msg": "RRCSetupRequest"} for _ in range(5)], (
        "071e080409010948080409010948080409010948080409010948080409010948"
    )),
    (("tu", "ple"), "0709050274750503706c65"),
]


class TestWireFastPath:
    @pytest.mark.parametrize(
        "value,golden", _TRICKY_VALUES, ids=range(len(_TRICKY_VALUES))
    )
    def test_byte_identical_to_reference(self, value, golden):
        assert wire.encode(value).hex() == golden

    def test_decode_oracle_covers_these_vectors(self):
        """tests/test_wire.py checks the decoder against what the parent's
        decoder printed for every vector in the fixture, these included."""
        from tests.test_wire import CANONICAL_GOLDEN

        assert {golden for _, golden in _TRICKY_VALUES} <= CANONICAL_GOLDEN

    def test_roundtrip(self):
        values = [value for value, _ in _TRICKY_VALUES[:-1]]  # tuples decode as lists
        assert wire.decode(wire.encode({"batch": values})) == {"batch": values}

    def test_nan_encodes_identically(self):
        encoded = wire.encode(float("nan"))
        assert encoded.hex() == "047ff8000000000000"
        assert np.isnan(wire.decode(encoded))

    def test_subclasses_fall_back_to_reference(self):
        """Subclasses encode exactly as their base type does."""

        class MyInt(int):
            pass

        class MyList(list):
            pass

        assert wire.encode(MyInt(7)) == wire.encode(7)
        assert wire.encode(MyList([1, 2])) == wire.encode([1, 2])
        assert wire.encode({"k": MyInt(3)}) == wire.encode({"k": 3})

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode({1: "a"})

    def test_decoded_dict_keys_are_interned(self):
        payload = wire.encode([{"session_id": i, "msg": "RRCSetup"} for i in range(4)])
        decoded = wire.decode(payload)
        first_keys = list(decoded[0])
        for entry in decoded[1:]:
            for a, b in zip(first_keys, list(entry)):
                assert a is b

    def test_interning_survives_repeated_use(self):
        # Same structure encoded twice: identical bytes both times (the
        # caches must never change the output).
        value = {"msg": "NASSecurityModeCommand", "ids": list(range(40))}
        first = wire.encode(value)
        assert wire.encode(value) == first
        assert wire.decode(first) == value


class TestTelemetryEncoderFastPath:
    def _records(self):
        return [
            MobiFlowRecord(
                timestamp=1.25 * i,
                msg="RRCSetupRequest" if i % 2 else "RegistrationRequest",
                protocol="RRC" if i % 2 else "NAS",
                direction="UL",
                session_id=100 + i,
                rnti=17000 + i,
                s_tmsi=None if i % 3 else 0xABCD00 + i,
                suci=None if i % 2 else f"suci-0-001-01-{i:04d}",
                cipher_alg=None,
                integrity_alg=None,
            )
            for i in range(6)
        ]

    def test_record_bytes_match_reference_encoder(self):
        for record in self._records():
            reference = wire.encode(
                {k: v for k, v in record.to_dict().items() if v is not None}
            )
            assert encoder.encode_record(record) == reference
            assert encoder.decode_record(encoder.encode_record(record)) == record

    def test_batch_bytes_match_reference_encoder(self):
        records = self._records()
        reference = wire.encode(
            [{k: v for k, v in r.to_dict().items() if v is not None} for r in records]
        )
        payload = encoder.encode_batch(records)
        assert payload == reference
        assert encoder.decode_batch(payload) == records


# ---------------------------------------------------------------------------
# live pipeline wiring


@pytest.fixture(scope="module")
def benign_windows():
    config = XsecConfig()
    capture = generate_benign_dataset(
        BenignDatasetConfig(duration_s=90.0, ue_mix=(("pixel5", 1), ("oai_ue", 1)))
    )
    return capture.labeled(config.spec, config.window, "benign").windowed.windows


def _train(detector_name, benign_windows):
    config = XsecConfig(detector=detector_name, train_epochs=6)
    detector = build_detector(config)
    detector.fit(np.asarray(benign_windows), epochs=6, lr=config.train_lr)
    return detector


@pytest.fixture(scope="module")
def trained_autoencoder(benign_windows):
    return _train("autoencoder", benign_windows)


def _uplink_extraction(net):
    victim = net.add_ue("pixel6", name="victim")
    net.sim.schedule(2.5, victim.start_session)
    return UplinkIdExtractionAttack(net, victim=victim, start_time=2.0, duration_s=10.0)


def _downlink_extraction(net):
    victim = net.add_ue("pixel6", name="victim")
    net.sim.schedule(2.5, victim.start_session)
    return DownlinkIdExtractionAttack(net, victim=victim, start_time=2.0, duration_s=10.0)


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


def run_live(detector, attack=None, seed=77, until=20.0, net_kwargs=None, percentile=None):
    """One live pipeline run with a pre-trained detector copy deployed."""
    config = XsecConfig(detector=detector.name, train_epochs=6)
    xsec = SixGXSec(config, network_config=NetworkConfig(seed=seed, **(net_kwargs or {})))
    xsec.deploy_detector(copy.deepcopy(detector))
    if percentile is not None:
        # Lower the operating threshold so the scenario provably emits
        # events: empty-vs-empty would not prove bit-identity.
        xsec.mobiwatch.on_policy(1, {"threshold_percentile": percentile})
    for profile in ("pixel5", "oai_ue"):
        ue = xsec.net.add_ue(profile)
        xsec.net.sim.schedule(0.5, ue.start_session)
    if attack is not None:
        attack(xsec.net).arm()
    xsec.run(until=until)
    return xsec


def run_live_reference(detector, **kwargs):
    """``run_live`` with every ``scores()`` call swapped for the layer-walking
    ``reference_scores()`` — the reference the default path must equal."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AnomalyDetector, "scores", AnomalyDetector.reference_scores)
        return run_live(detector, **kwargs)


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


class TestDefaultsAreSeedPath:
    def test_default_config_keeps_seed_components(self, trained_autoencoder):
        xsec = SixGXSec(XsecConfig())
        assert xsec.mobiwatch._batch_scores is None
        xsec.deploy_detector(copy.deepcopy(trained_autoencoder))
        assert xsec.mobiwatch._batch_scores == xsec.mobiwatch._gathered_scores


class TestLiveSeedEquivalence:
    """The default live path against its references: layer-walking scoring,
    and windows stacked row by row from the streaming encoder."""

    SCENARIO = {"attack": ATTACK_SCENARIOS["bts_dos"][0], "percentile": 80.0}

    @pytest.fixture(scope="class")
    def seed_run(self, trained_autoencoder):
        return run_live_reference(trained_autoencoder, **self.SCENARIO)

    def test_arena_and_compiled_f64_bit_identical(self, trained_autoencoder, seed_run):
        fast = run_live(trained_autoencoder, **self.SCENARIO)
        assert fast.mobiwatch.records_seen == seed_run.mobiwatch.records_seen
        assert fast.mobiwatch.windows_scored == seed_run.mobiwatch.windows_scored
        assert event_tuples(fast) == event_tuples(seed_run)
        # Arena views == zero-left-padded np.stack of the records' rows.
        config, detector = fast.config, fast.mobiwatch.detector
        encoder_ = config.spec.streaming_encoder()
        rows = [encoder_.push(record) for record in fast.mobiwatch.series]
        assert fast.mobiwatch.anomalies
        for event in fast.mobiwatch.anomalies:
            stacked = np.stack([rows[i] for i in event.record_indices])
            padded = np.zeros((config.window, config.spec.dim), dtype=stacked.dtype)
            padded[config.window - len(stacked) :] = stacked
            assert detector.reference_scores(padded.reshape(1, -1))[0] == event.score
