"""End-to-end tests for the assembled 6G-XSec framework (Figure 3)."""

import copy

import numpy as np
import pytest

from repro.attacks import BtsDosAttack, NullCipherAttack
from repro.core import SixGXSec, XsecConfig
from repro.core.framework import build_detector
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.core.mobiwatch import AnomalyEvent
from repro.llm.analyst import ExpertVerdict
from repro.llm.knowledge import KNOWLEDGE_ARTICLES, SIG_SIGNALING_STORM, SIG_TMSI_REPLAY
from repro.llm.response import AnalysisResponse
from repro.oran.a1 import A1Error, DETECTION_POLICY_TYPE, RESPONSE_POLICY_TYPE
from repro.oran.smo import JobState
from repro.ran.network import NetworkConfig

from tests.test_megabatch import ATTACK_SCENARIOS


def small_config(**overrides):
    defaults = dict(train_epochs=8, auto_release=True, auto_blocklist=True)
    defaults.update(overrides)
    return XsecConfig(**defaults)


@pytest.fixture(scope="module")
def benign_windows():
    config = XsecConfig()
    capture = generate_benign_dataset(
        BenignDatasetConfig(
            duration_s=120.0,
            ue_mix=(("pixel5", 1), ("galaxy_a53", 1), ("oai_ue", 2)),
        )
    )
    labeled = capture.labeled(config.spec, config.window, "benign")
    return labeled.windowed.windows


@pytest.fixture(scope="module")
def trained_xsec(benign_windows):
    xsec = SixGXSec(small_config(), network_config=NetworkConfig(seed=42))
    xsec.train_from_benign(benign_windows)
    # Live benign UE + two attacks.
    ue = xsec.net.add_ue("pixel5")
    xsec.net.sim.schedule(0.5, ue.start_session)
    BtsDosAttack(xsec.net, start_time=3.0, connections=8, interval_s=0.08).arm()
    NullCipherAttack(xsec.net, start_time=10.0).arm()
    xsec.run(until=45.0)
    return xsec


class TestTraining:
    def test_smo_job_deploys_model(self, benign_windows):
        xsec = SixGXSec(small_config(), network_config=NetworkConfig(seed=1))
        xsec.train_from_benign(benign_windows)
        job = xsec.smo.jobs["mobiwatch-autoencoder"]
        assert job.state is JobState.DEPLOYED
        assert xsec.mobiwatch.detector is not None
        assert xsec.mobiwatch.detector.threshold.threshold is not None

    def test_undeployed_detector_rejected(self):
        xsec = SixGXSec(small_config())
        from repro.ml import AutoencoderDetector

        untrained = AutoencoderDetector(window=6, feature_dim=xsec.config.spec.dim)
        with pytest.raises(ValueError):
            xsec.deploy_detector(untrained)

    def test_build_detector_unknown_kind(self):
        with pytest.raises(ValueError):
            build_detector(XsecConfig(detector="transformer"))


class TestLivePipeline:
    def test_telemetry_flows_to_mobiwatch(self, trained_xsec):
        assert trained_xsec.mobiwatch.records_seen > 30
        assert trained_xsec.mobiwatch.windows_scored > 0

    def test_attacks_raise_anomalies(self, trained_xsec):
        assert len(trained_xsec.mobiwatch.anomalies) > 0

    def test_llm_verdicts_produced(self, trained_xsec):
        assert len(trained_xsec.analyzer.verdicts) > 0
        confirmed = [v for v in trained_xsec.analyzer.verdicts if v.confirmed]
        assert confirmed, "at least one anomaly should be confirmed by the LLM"

    def test_llm_cooldown_suppresses_queries(self, trained_xsec):
        # The flood raises many anomalies per session window; the cooldown
        # must prevent one LLM query per anomaly.
        assert trained_xsec.analyzer.queries_suppressed > 0

    def test_detection_latency_within_nrt_budget(self, trained_xsec):
        report = trained_xsec.pipeline.latency_report()
        assert report["detection_s"]["n"] > 0
        # Near-RT RIC control loop: 10ms..1s (paper §2.1).
        assert report["detection_s"]["max"] < 1.0

    def test_automated_response_issued(self, trained_xsec):
        assert trained_xsec.pipeline.actions_taken
        assert trained_xsec.agent.controls_executed > 0

    def test_sdl_holds_telemetry_and_verdicts(self, trained_xsec):
        sdl = trained_xsec.ric.sdl
        assert len(sdl.keys("xsec.mobiflow")) == trained_xsec.mobiwatch.records_seen
        assert len(sdl.keys("xsec.anomalies")) == len(trained_xsec.mobiwatch.anomalies)
        assert len(sdl.keys("xsec.verdicts")) == len(trained_xsec.analyzer.verdicts)

    def test_summary_consistent(self, trained_xsec):
        summary = trained_xsec.pipeline.summary()
        assert summary["anomalies"] == len(trained_xsec.mobiwatch.anomalies)
        assert summary["verdicts"] == len(trained_xsec.analyzer.verdicts)
        assert summary["confirmed"] <= summary["verdicts"]


class TestA1Policies:
    def test_detection_policy_refits_threshold(self, benign_windows):
        xsec = SixGXSec(small_config(), network_config=NetworkConfig(seed=2))
        xsec.train_from_benign(benign_windows)
        before = xsec.mobiwatch.detector.threshold.threshold
        xsec.smo.a1.put_policy(
            DETECTION_POLICY_TYPE.policy_type_id,
            "tighter",
            {"threshold_percentile": 90.0},
            target_xapp="mobiwatch",
        )
        after = xsec.mobiwatch.detector.threshold.threshold
        assert after < before


    def test_detection_policy_has_no_window_size(self):
        """The arena width is fixed at construction: no policy may claim to move it."""
        xsec = SixGXSec(small_config(), network_config=NetworkConfig(seed=2))
        with pytest.raises(A1Error):
            xsec.smo.a1.put_policy(
                DETECTION_POLICY_TYPE.policy_type_id,
                "wider",
                {"threshold_percentile": 90.0, "window_size": 8},
                target_xapp="mobiwatch",
            )

    def test_response_policy_disabling_both_stops_the_next_action(self, benign_windows):
        xsec = SixGXSec(small_config(), network_config=NetworkConfig(seed=42))
        xsec.train_from_benign(benign_windows)
        xsec.smo.a1.put_policy(
            RESPONSE_POLICY_TYPE.policy_type_id,
            "observe-only",
            {"auto_release": False, "auto_blocklist": False},
            target_xapp="mobiwatch",
        )
        assert not xsec.config.auto_release and not xsec.config.auto_blocklist
        BtsDosAttack(xsec.net, start_time=3.0, connections=8, interval_s=0.08).arm()
        NullCipherAttack(xsec.net, start_time=10.0).arm()
        xsec.run(until=45.0)
        assert any(v.confirmed for v in xsec.analyzer.verdicts)
        assert xsec.pipeline.actions_taken == []
        assert xsec.agent.controls_executed == 0


def _confirmed(top_attack: str, rnti=0x4601, s_tmsi=0xC0FFEE) -> tuple:
    anomaly = AnomalyEvent(
        detected_at=1.0,
        session_id=5,
        rnti=rnti,
        s_tmsi=s_tmsi,
        score=0.9,
        threshold=0.5,
        record_indices=(0,),
    )
    response = AnalysisResponse(
        verdict="anomalous", explanation="", top_attacks=[(top_attack, "")]
    )
    return anomaly, ExpertVerdict(response=response, prompt="", model="chatgpt-4o")


STORM = KNOWLEDGE_ARTICLES[SIG_SIGNALING_STORM].attack_name
REPLAY = KNOWLEDGE_ARTICLES[SIG_TMSI_REPLAY].attack_name


class TestCatalogueResponder:
    """The responder walks the verdict's catalogue entry: the first action
    switched on whose target the anomaly carries is the one taken."""

    @pytest.mark.parametrize(
        "top,switches,targets,expected",
        [
            (STORM, dict(auto_rate_limit=True), {}, ("rate_limit_access", {"max_setups": 3, "window_s": 1.0})),
            (STORM, {}, {}, ("release_ue", {"rnti": 0x4601})),
            (STORM, {}, dict(rnti=None), None),
            (REPLAY, {}, {}, ("blocklist_tmsi", {"tmsi": 0xC0FFEE})),
            (REPLAY, {}, dict(s_tmsi=None), ("release_ue", {"rnti": 0x4601})),
            (REPLAY, dict(auto_blocklist=False), {}, ("release_ue", {"rnti": 0x4601})),
            ("blind dos", {}, {}, ("blocklist_tmsi", {"tmsi": 0xC0FFEE})),
            ("NEA0/NIA0 bidding down", {}, {}, ("release_ue", {"rnti": 0x4601})),
            ("NEA0/NIA0 bidding down", dict(auto_release=False), {}, None),
        ],
        ids=[
            "storm-rate-limited",
            "storm-released-without-rate-limit",
            "storm-without-rnti-untouched",
            "replay-blocklisted",
            "replay-without-tmsi-released",
            "replay-released-without-blocklist",
            "alias-any-case",
            "null-cipher-released",
            "null-cipher-without-release-untouched",
        ],
    )
    def test_first_enabled_action_with_its_target(self, top, switches, targets, expected):
        xsec = SixGXSec(small_config(**switches))
        anomaly, verdict = _confirmed(top, **targets)
        xsec.analyzer._deliver(anomaly, verdict)
        assert xsec.pipeline.actions_taken == ([expected] if expected else [])
        assert xsec.analyzer.human_review_queue == []

    def test_unknown_class_acts_on_nothing_and_goes_to_human_review(self):
        xsec = SixGXSec(small_config(auto_rate_limit=True))
        anomaly, verdict = _confirmed("Quantum jamming")
        xsec.analyzer._deliver(anomaly, verdict)
        event = xsec.analyzer.verdicts[-1]
        assert event.confirmed and event.article is None and event.needs_human_review
        assert xsec.analyzer.human_review_queue == [event]
        assert xsec.pipeline.actions_taken == []
        assert xsec.pipeline.incidents[-1].action == ""
        assert xsec.pipeline.summary()["needs_human_review"] == 1


class TestBenignOnlyRun:
    def test_quiet_network_produces_few_or_no_incidents(self, benign_windows):
        xsec = SixGXSec(small_config(), network_config=NetworkConfig(seed=77))
        xsec.train_from_benign(benign_windows)
        for i, profile in enumerate(("pixel5", "galaxy_a53")):
            ue = xsec.net.add_ue(profile)
            xsec.net.sim.schedule(0.5 + i, ue.start_session)
        xsec.run(until=30.0)
        # Benign traffic can raise occasional false alarms (<10% of scored
        # windows, per the paper), but must not flood the pipeline.
        assert len(xsec.mobiwatch.anomalies) <= max(
            2, int(0.1 * xsec.mobiwatch.windows_scored)
        )


# ---------------------------------------------------------------------------
# a pre-trained LSTM deployed into live attack scenarios


@pytest.fixture(scope="module")
def trained_lstm():
    config = XsecConfig(detector="lstm", train_epochs=6)
    capture = generate_benign_dataset(
        BenignDatasetConfig(duration_s=90.0, ue_mix=(("pixel5", 1), ("oai_ue", 1)))
    )
    windows = capture.labeled(config.spec, config.window, "benign").windowed.windows
    detector = build_detector(config)
    detector.fit(np.asarray(windows), epochs=6, lr=config.train_lr)
    return detector


def run_deployed(detector, attack=None, net_kwargs=None, percentile=None, observe=None):
    """One live pipeline run with a pre-trained detector copy deployed.

    ``observe(xsec)`` runs after the deploy and before the first event.
    """
    config = XsecConfig(detector=detector.name, train_epochs=6)
    xsec = SixGXSec(config, network_config=NetworkConfig(seed=77, **(net_kwargs or {})))
    xsec.deploy_detector(copy.deepcopy(detector))
    if percentile is not None:
        # Lower the operating threshold so the scenario provably emits
        # events: empty-vs-empty would not prove anything.
        xsec.mobiwatch.on_policy(1, {"threshold_percentile": percentile})
    if observe is not None:
        observe(xsec)
    for profile in ("pixel5", "oai_ue"):
        ue = xsec.net.add_ue(profile)
        xsec.net.sim.schedule(0.5, ue.start_session)
    if attack is not None:
        attack(xsec.net).arm()
    xsec.run(until=20.0)
    return xsec


class TestOneOperatingClock:
    """The score provider models no completion time: an alarm carries the
    sim clock of the event that emitted it, and the scoring wall-time
    histogram gets one observation per provider call — at most one per
    tick."""

    @pytest.mark.parametrize(
        "scenario", sorted(ATTACK_SCENARIOS), ids=sorted(ATTACK_SCENARIOS)
    )
    def test_alarms_stamped_at_emission(self, trained_lstm, scenario):
        factory, net_kwargs = ATTACK_SCENARIOS[scenario]
        stamps, provider_calls, walks = [], [], []

        def observe(xsec):
            watch = xsec.mobiwatch
            alert, provider = watch._maybe_alert, watch._batch_scores
            tick, score_one = watch._tick, watch._score_one

            def stamped_alert(*args):
                emitted = len(watch.anomalies)
                alert(*args)
                stamps.extend(
                    (event.detected_at, watch.sim.now) for event in watch.anomalies[emitted:]
                )

            def counted_provider(ready):
                provider_calls.append(len(ready))
                return provider(ready)

            def counted(walk):
                def wrapper(arg):
                    walks.append(walk.__name__)
                    walk(arg)

                return wrapper

            watch._maybe_alert, watch._batch_scores = stamped_alert, counted_provider
            watch._tick, watch._score_one = counted(tick), counted(score_one)

        xsec = run_deployed(
            trained_lstm,
            attack=factory,
            net_kwargs=net_kwargs,
            percentile=80.0,
            observe=observe,
        )
        watch = xsec.mobiwatch
        assert len(stamps) == len(watch.anomalies) > 0
        assert all(detected_at == now for detected_at, now in stamps)
        wall = xsec.obs.metrics.histogram("mobiwatch.inference_wall_s")
        assert wall.count == len(provider_calls) <= len(walks)
        assert sum(provider_calls) == watch.windows_scored > 0
