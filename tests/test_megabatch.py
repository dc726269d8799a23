"""Tests for per-tick batched scoring, session eviction, and the hot-path
scoring bugfixes.

The contracts enforced here:

- defaults are the exact inline path (no eviction);
- the inline path's one row-exact call per tick produces bit-identical
  AnomalyEvents to the layer-walking reference scoring every window on
  its own, on every attack scenario;
- a quiet short session is scored exactly once no matter how many times
  it was touched (single pending maturity check);
- per-session state is bounded: release- and idle-driven eviction drop
  every per-session structure.
"""

import copy
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
from repro.core.mobiwatch import RRC_RELEASE_MSG, XSEC_ANOMALY_MTYPE, MobiWatchXApp
from repro.experiments.colosseum import ColosseumScenario, run_scenario
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.ml.detector import AnomalyDetector, AutoencoderDetector
from repro.obs.metrics import BULK_OBSERVE_MIN, Histogram
from repro.oran.e2ap import RicIndication
from repro.oran.e2sm_kpm import MOBIFLOW_RAN_FUNCTION_ID, MobiFlowKpmModel
from repro.oran.ric import NearRtRic
from repro.ran.core_network import AmfConfig
from repro.ran.links import InterfaceLink
from repro.ran.network import NetworkConfig
from repro.sim import Simulator
from repro.telemetry.mobiflow import MobiFlowRecord
from tests.reference_scoring import reference_scores


# ---------------------------------------------------------------------------
# settings


class TestMegabatchSettings:
    """Eviction is two top-level knobs; there is one way to score."""

    def test_defaults_are_seed_path(self):
        config = XsecConfig()
        assert not config.evict_on_release
        assert config.evict_idle_s == 0.0

    def test_eviction_switches(self):
        """Either knob turns eviction on: the counter exists, the idle
        sweep runs only with an idle horizon."""
        for kwargs, sweeps in (({"evict_on_release": True}, False), ({"evict_idle_s": 3.0}, True)):
            sim, ric = make_ric()
            watch = MobiWatchXApp(ric, XsecConfig(**kwargs))
            assert watch._evicted_counter is not None
            assert watch._track_touch is sweeps
        sim, ric = make_ric()
        assert MobiWatchXApp(ric, XsecConfig())._evicted_counter is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            # The scoring tiers are deleted: float64 "exact" is the one path.
            {"scoring": "float16"},
            {"scoring": "incremental"},
            {"scoring": "int8", "detector": "autoencoder"},
            {"evict_idle_s": -1.0},
            # Knobs deleted earlier; the sweep period is evict_idle_s / 2.
            {"state_dtype": "float64"},
            {"evict_sweep_s": 0.0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        error = ValueError if "evict_idle_s" in kwargs else TypeError
        with pytest.raises(error):
            XsecConfig(**kwargs)


# ---------------------------------------------------------------------------
# histogram bulk observation (the batched score-handling path)


class TestObserveMany:
    BUCKETS = (0.1, 0.5, 1.0, 5.0)

    def test_matches_sequential_observes(self):
        rng = np.random.default_rng(3)
        values = rng.random(500) * 6.0
        # Exercise the boundary placement explicitly: values exactly on a
        # bucket edge must land in the same bucket either way.
        values = np.concatenate([values, np.asarray(self.BUCKETS), [0.0, 7.0]])
        one = Histogram(buckets=self.BUCKETS)
        for value in values:
            one.observe(value)
        many = Histogram(buckets=self.BUCKETS)
        many.observe_many(values)
        assert many.count == one.count
        assert many.bucket_counts == one.bucket_counts
        assert many.min == one.min
        assert many.max == one.max
        assert many.total == one.total
        assert many.percentile(50) == one.percentile(50)

    @pytest.mark.parametrize("n", [*range(BULK_OBSERVE_MIN), BULK_OBSERVE_MIN, 5000])
    def test_every_statistic_equals_the_observe_loop(self, n):
        """Every size of the small-batch loop, the vectorised switch (32),
        and past the reservoir cap: ``total`` bit-equal included."""
        values = np.random.default_rng(n).random(n) * 6.0
        one = Histogram(buckets=self.BUCKETS)
        many = Histogram(buckets=self.BUCKETS)
        for hist in (one, many):
            hist.observe(0.3)  # a non-zero running total to add on to
        for value in values:
            one.observe(value)
        many.observe_many(values)
        assert many.export() == one.export()
        assert many.total == one.total
        assert many._reservoir == one._reservoir and many._ring == one._ring
        many.observe_many(values.tolist())
        for value in values:
            one.observe(value)
        assert many.export() == one.export()

    def test_incremental_calls_accumulate(self):
        hist = Histogram(buckets=self.BUCKETS)
        hist.observe_many([0.05, 0.2])
        hist.observe(0.7)
        hist.observe_many([2.0])
        assert hist.count == 4
        assert hist.bucket_counts == [1, 1, 1, 1, 0]

    def test_empty_is_noop(self):
        hist = Histogram(buckets=self.BUCKETS)
        hist.observe_many([])
        assert hist.count == 0
        assert hist.min is None


# ---------------------------------------------------------------------------
# unit harness (mirrors tests/test_core_units.py)


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


def trained_detector(config, seed=0):
    rng = np.random.default_rng(seed)
    windows = rng.random((80, config.window * config.spec.dim)) * 0.1
    detector = AutoencoderDetector(
        window=config.window, feature_dim=config.spec.dim, seed=seed
    )
    detector.fit(windows, epochs=2)
    return detector


class TestMaturityTimer:
    """Satellite bugfix: one pending maturity check per short session."""

    def test_quiet_short_session_scored_once_under_repeated_touches(self):
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        watch.deploy_detector(trained_detector(config))
        # Four separate touches, all leaving the session short (< window).
        for i in range(4):
            watch.on_indication(
                indication([record(0.05 * i, "RRCSetupRequest")], seq=i + 1)
            )
            # The fix: every touch re-arms the same single check.
            assert len(watch._pending_maturity) == 1
        sim.run(until=5.0)
        assert watch.windows_scored == 1
        assert watch._pending_maturity == {}

    def test_multiple_records_per_indication_arm_one_check(self):
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        watch.deploy_detector(trained_detector(config))
        batch = [record(0.0, "RRCSetupRequest"), record(0.05, "RRCSetup")]
        watch.on_indication(indication(batch))
        assert len(watch._pending_maturity) == 1
        sim.run(until=5.0)
        assert watch.windows_scored == 1

    def test_progressed_session_still_skips_stale_check(self):
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        watch.deploy_detector(trained_detector(config))
        watch.on_indication(indication([record(0.0, "RRCSetupRequest")]))
        sim.schedule(
            0.4,
            lambda: watch.on_indication(indication([record(0.4, "RRCSetup")], seq=2)),
        )
        sim.run(until=5.0)
        assert watch.windows_scored == 1


class TestEviction:
    """Satellite bugfix: per-session state is bounded, not grow-forever."""

    @staticmethod
    def _watch(seed=0, **eviction):
        config = XsecConfig(**eviction)
        sim, ric = make_ric(seed)
        watch = MobiWatchXApp(ric, config)
        watch.deploy_detector(trained_detector(config))
        return sim, watch

    def test_release_scores_final_window_and_drops_state(self):
        sim, watch = self._watch(evict_on_release=True)
        batch = [record(0.1 * i, "RRCSetup") for i in range(5)]
        batch.append(record(0.6, RRC_RELEASE_MSG))
        watch.on_indication(indication(batch))
        # 6 records = a full window: scored in the tick, then evicted.
        assert watch.windows_scored == 1
        assert watch.sessions_evicted == 1
        assert watch._session_records == {}
        assert watch._alerted_counts == {}
        assert watch._pending_maturity == {}

    def test_released_short_session_scored_immediately(self):
        sim, watch = self._watch(evict_on_release=True)
        batch = [record(0.0, "RRCSetupRequest"), record(0.1, RRC_RELEASE_MSG)]
        watch.on_indication(indication(batch))
        # No maturity wait: the release closed the session, so its padded
        # final window was evaluated right away and the state dropped.
        assert watch.windows_scored == 1
        assert watch.sessions_evicted == 1
        assert watch._pending_maturity == {}
        assert watch._session_records == {}

    def test_idle_sweep_evicts_stale_sessions(self):
        sim, watch = self._watch(evict_idle_s=1.0)  # swept every 0.5 s
        batch = [record(0.1 * i, "RRCSetup", session=7) for i in range(6)]
        watch.on_indication(indication(batch))
        assert 7 in watch._session_records
        # Pull the sim clock past the idle horizon, then run the sweep.
        sim.schedule(2.0, lambda: None)
        sim.run(until=3.0)
        watch._evict_sweep()
        assert 7 not in watch._session_records
        assert 7 not in watch._last_touch
        assert watch.sessions_evicted == 1

    def test_evicted_counter_exported(self):
        sim, watch = self._watch(evict_on_release=True)
        watch.on_indication(
            indication([record(0.0, "RRCSetup"), record(0.1, RRC_RELEASE_MSG)])
        )
        counter = sim.obs.metrics.counter("mobiwatch.sessions_evicted_total")
        assert int(counter.value) == 1

    def test_seed_config_never_evicts(self):
        config = XsecConfig()
        sim, ric = make_ric()
        watch = MobiWatchXApp(ric, config)
        watch.deploy_detector(trained_detector(config))
        batch = [record(0.1 * i, "RRCSetup") for i in range(5)]
        batch.append(record(0.6, RRC_RELEASE_MSG))
        watch.on_indication(indication(batch))
        sim.run(until=5.0)
        assert watch.sessions_evicted == 0
        assert 1 in watch._session_records


# ---------------------------------------------------------------------------
# live pipeline equality (the tentpole's float64 contract)


@pytest.fixture(scope="module")
def benign_capture():
    return generate_benign_dataset(
        BenignDatasetConfig(duration_s=90.0, ue_mix=(("pixel5", 1), ("oai_ue", 1)))
    )


@pytest.fixture(scope="module")
def benign_windows(benign_capture):
    config = XsecConfig()
    return benign_capture.labeled(config.spec, config.window, "benign").windowed.windows


@pytest.fixture(scope="module")
def trained_lstm(benign_windows):
    config = XsecConfig(detector="lstm", train_epochs=6)
    detector = build_detector(config)
    detector.fit(np.asarray(benign_windows), epochs=6, lr=config.train_lr)
    return detector


@pytest.fixture(scope="module")
def trained_autoencoder(benign_windows):
    config = XsecConfig(detector="autoencoder", train_epochs=6)
    detector = build_detector(config)
    detector.fit(np.asarray(benign_windows), epochs=6, lr=config.train_lr)
    return detector


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


def run_live(
    detector,
    attack=None,
    seed=77,
    until=20.0,
    net_kwargs=None,
    reference_scorer=False,
    deploy_copy=True,
    fleet=None,
):
    """One live pipeline run with a pre-trained detector copy deployed
    (``deploy_copy=False``: the object itself, as the e2e harness redeploys
    one detector pass after pass).

    ``reference_scorer`` swaps every ``scores()`` call for the layer-walking
    ``reference_scores()`` — the reference the fused kernels must equal.
    """
    if reference_scorer:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AnomalyDetector, "scores", reference_scores)
            return run_live(
                detector, attack, seed, until, net_kwargs, deploy_copy=deploy_copy, fleet=fleet
            )
    config = XsecConfig(detector=detector.name, train_epochs=6)
    xsec = SixGXSec(config, network_config=NetworkConfig(seed=seed, **(net_kwargs or {})))
    xsec.deploy_detector(copy.deepcopy(detector) if deploy_copy else detector)
    for profile in ("pixel5", "oai_ue"):
        ue = xsec.net.add_ue(profile)
        xsec.net.sim.schedule(0.5, ue.start_session)
    if fleet is not None:  # a ColosseumScenario: UEs that come back, session after session
        run_scenario(xsec.net, fleet, run=False)
    if attack is not None:
        attack(xsec.net).arm()
    xsec.run(until=until)
    return xsec


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


def counter_total(xsec, name):
    """A counter family's value summed over its labelled series."""
    family = xsec.obs.snapshot()["metrics"][name]
    return int(sum(series["value"] for series in family["series"]))


class TestDefaultsAreSeedPath:
    def test_default_config_keeps_seed_components(self, trained_autoencoder):
        xsec = SixGXSec(XsecConfig())
        xsec.deploy_detector(copy.deepcopy(trained_autoencoder))
        watch = xsec.mobiwatch
        assert watch._batch_scores == watch._gathered_scores
        assert watch._track_touch is False


class TestMegabatchScenarioEquality:
    """The float64 contract: one row-exact call per tick == every window
    scored on its own by the reference, per attack."""

    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_megabatch_f64_bit_identical_to_seed(self, trained_lstm, scenario):
        factory, net_kwargs = ATTACK_SCENARIOS[scenario]
        seed_run = run_live(
            trained_lstm, attack=factory, net_kwargs=net_kwargs, reference_scorer=True
        )
        matured = []
        mature = MobiWatchXApp._mature_short_session

        def counted(watch, session_id, count):
            matured.append(session_id)
            mature(watch, session_id, count)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MobiWatchXApp, "_mature_short_session", counted)
            default = run_live(trained_lstm, attack=factory, net_kwargs=net_kwargs)
        assert default.mobiwatch.records_seen == seed_run.mobiwatch.records_seen
        assert default.mobiwatch.windows_scored == seed_run.mobiwatch.windows_scored
        assert default.mobiwatch.windows_scored > 0
        assert event_tuples(default) == event_tuples(seed_run)
        assert default.net.sim.events_processed == seed_run.net.sim.events_processed
        # Batched for real: at most one kernel call per indication and per
        # matured short session; every window either goes through the
        # kernels or repeats, byte for byte, one this deployment has scored.
        calls, windows, memo_hits, indications = (
            counter_total(default, name)
            for name in (
                "ml.compiled_calls_total",
                "ml.compiled_windows_total",
                "ml.score_memo_hits_total",
                "e2agent.indications_total",
            )
        )
        assert windows + memo_hits == default.mobiwatch.windows_scored
        assert windows == counter_total(default, "ml.score_memo_misses_total")
        assert calls <= indications + len(matured)
        assert calls < default.mobiwatch.windows_scored

    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_score_memo_answers_repeats_without_moving_an_alarm(self, trained_lstm, scenario):
        """UEs that come back session after session repeat windows byte for
        byte; those scores come from the memo and the stream stays the
        reference's."""
        factory, net_kwargs = ATTACK_SCENARIOS[scenario]
        run = dict(
            attack=factory,
            net_kwargs=net_kwargs,
            fleet=ColosseumScenario(ue_mix=(("pixel5", 2), ("oai_ue", 2)), mean_think_time_s=2.0),
        )
        seed_run = run_live(trained_lstm, reference_scorer=True, **run)
        default = run_live(trained_lstm, **run)
        assert event_tuples(default) == event_tuples(seed_run) != []
        assert default.mobiwatch.windows_scored == seed_run.mobiwatch.windows_scored
        hits = counter_total(default, "ml.score_memo_hits_total")
        kernel_windows = counter_total(default, "ml.compiled_windows_total")
        assert hits > 0 and hits + kernel_windows == default.mobiwatch.windows_scored

    def test_each_deployment_starts_cold_and_counts_identically(self, trained_lstm):
        """One detector object deployed twice over the same traffic: the
        second deployment inherits nothing of the first's score memo."""
        factory, net_kwargs = ATTACK_SCENARIOS["bts_dos"]
        detector = copy.deepcopy(trained_lstm)
        names = (
            "ml.score_memo_hits_total",
            "ml.score_memo_misses_total",
            "ml.score_memo_size",
            "ml.compiled_calls_total",
            "ml.compiled_windows_total",
        )
        passes = []
        for _ in range(2):
            xsec = run_live(detector, attack=factory, net_kwargs=net_kwargs, deploy_copy=False)
            passes.append(([counter_total(xsec, name) for name in names], event_tuples(xsec)))
            assert xsec.mobiwatch.detector is detector
        assert passes[0] == passes[1]
        hits, misses, size, _, kernel_windows = passes[0][0]
        assert hits > 0 and misses == size == kernel_windows

class NonzeroCountDetector(AutoencoderDetector):
    """Scores without a BLAS in them: ``count_nonzero(window) % 7``.

    Exact on every box, so a log of which windows alarm can be committed
    (trained weights, and with them near-threshold decisions, move with the
    numpy build). Flags about two windows in seven, full and padded alike.
    """

    def scores(self, windows, per_row=False):
        windows = self._check(windows)
        return (np.count_nonzero(windows, axis=1) % 7).astype(np.float64)


EVENT_LOG_FIXTURE = Path(__file__).parent / "fixtures" / "mobiwatch_event_log.json"
EVENT_LOG_NAMES = ("mobiwatch.mature", f"rmr.{XSEC_ANOMALY_MTYPE}")


def event_log_run():
    """Multi-UE benign traffic + a BTS-DoS flood; returns the ordered
    ``(sim time, event name)`` log of maturity timers armed and anomalies
    published, with the run's totals."""
    config = XsecConfig()
    detector = NonzeroCountDetector(window=config.window, feature_dim=config.spec.dim)
    detector.threshold.threshold = 4.5
    xsec = SixGXSec(config, network_config=NetworkConfig(seed=91))
    xsec.deploy_detector(detector)
    scenario = ColosseumScenario(
        duration_s=20.0,
        ue_mix=(("pixel5", 3), ("oai_ue", 3), ("galaxy_a53", 2)),
        mean_think_time_s=1.5,
    )
    run_scenario(xsec.net, scenario, run=False)
    BtsDosAttack(xsec.net, start_time=3.0, connections=24, interval_s=0.05).arm()
    log = []
    schedule = Simulator.schedule

    def logged(sim, delay, callback, name=""):
        if name in EVENT_LOG_NAMES:
            log.append([sim.now, name])
        return schedule(sim, delay, callback, name=name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "schedule", logged)
        xsec.run(until=20.0)
    return {
        "log": log,
        "sim_events_total": xsec.net.sim.events_processed,
        "records_seen": xsec.mobiwatch.records_seen,
        "windows_scored": xsec.mobiwatch.windows_scored,
        "alarms": [[e.session_id, list(e.record_indices)] for e in xsec.mobiwatch.anomalies],
    }


class TestParentEventLog:
    """tests/fixtures/mobiwatch_event_log.json is ``event_log_run()`` as the
    per-session scoring loop of commit e176483 (before the tick gather)
    produced it: side effects still land in that loop's session order."""

    def test_tick_gather_reproduces_per_session_loop_log(self):
        recorded = json.loads(EVENT_LOG_FIXTURE.read_text())
        got = event_log_run()
        armed, published = (
            {time for time, name in got["log"] if name == wanted} for wanted in EVENT_LOG_NAMES
        )
        # The run arms timers and publishes alarms inside the same ticks, so
        # the log pins how the two interleave there.
        assert len(armed) > 20 and len(published) > 20 and len(armed & published) > 5
        assert got["log"] == recorded["log"]
        assert got["alarms"] == recorded["alarms"]
        for total in ("sim_events_total", "records_seen", "windows_scored"):
            assert got[total] == recorded[total]
