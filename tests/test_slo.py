"""Tests for the SLO plane of repro.obs: objectives, alerts, profiler,
export, provenance.

Covers the plane's contracts: burn-rate math over the engine's sliding
windows, the alert state machine's dwell times and flap suppression,
OpenMetrics exposition shape, profiler self-time attribution and the
provenance evidence chain's SDL round trip. Everything runs on explicit
fake clocks — no wall-clock sleeps.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import XsecConfig
from repro.core.framework import SixGXSec
from repro.core.llm_analyzer import VerdictEvent
from repro.core.mobiwatch import AnomalyEvent
from repro.core.pipeline import IncidentRecord
from repro.ml.compiled import PROFILE_SAMPLE
from repro.ml.detector import LstmDetector
from repro.obs import profiler as profiler_mod
from repro.obs.exporter import (
    ContinuousExporter,
    HealthScoreboard,
    render_openmetrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.objectives import (
    ALERT_FIRING,
    ALERT_INACTIVE,
    ALERT_PENDING,
    AlertState,
    SloEngine,
    SloObjective,
    default_objectives,
)
from repro.obs.profiler import Profiler
from repro.obs.provenance import (
    ProvenanceStore,
    SDL_PROVENANCE_NS,
    capture_digest,
    model_snapshot_id,
    printable,
    render_chain,
    threshold_snapshot_id,
)
from repro.oran.sdl import SharedDataLayer
from repro.telemetry.mobiflow import MobiFlowRecord
from repro.wire import WireError


def _records(n, start_ts=1.0, session_id=7):
    return [
        MobiFlowRecord(
            timestamp=start_ts + 0.01 * i,
            msg=f"RRCSetupRequest{i}",
            protocol="RRC",
            direction="UL",
            session_id=session_id,
            rnti=17000 + i,
        )
        for i in range(n)
    ]


def _detector():
    return LstmDetector(window=3, feature_dim=4, hidden_dim=4, seed=0)


class TestSloObjective:
    def test_kind_and_target_validated(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", target=1.0, metric="m", threshold=0.1)
        with pytest.raises(ValueError):
            SloObjective(name="x", target=0.9, metric="", threshold=0.1)
        # Every objective is a latency objective: the counter-ratio kind,
        # which no deployment declared, is gone.
        with pytest.raises(TypeError):
            SloObjective(
                name="x", kind="ratio", target=0.9, bad_metric="b", total_metric="t"
            )

    def test_budget_and_sli_text(self):
        latency = SloObjective(name="lat", target=0.99, metric="m", threshold=0.5)
        assert latency.budget == pytest.approx(0.01)
        assert "m <= 0.5s" == latency.sli_text()

    def test_default_objectives_reference_emitted_families(self):
        """MobiWatch's and the analyzer's; the ingest queue whose drops
        ``ingest-drop-rate`` read is gone, and the objective with it."""
        assert [o.name for o in default_objectives()] == [
            "detection-latency",
            "inference-wall",
            "verdict-latency",
        ]


class TestAlertState:
    """The engine's dwells: pending -> firing after 2 s of breach, firing ->
    resolved after 5 s of recovery."""

    def test_pending_then_firing_then_resolved(self):
        a = AlertState()
        assert a.update(0.0, True) == ALERT_PENDING
        assert a.update(1.0, True) is None  # dwell not met
        assert a.update(2.0, True) == ALERT_FIRING
        assert a.update(3.0, False) is None  # recovery starts
        assert a.update(7.0, False) is None  # dwell not met
        assert a.update(8.0, False) == "resolved"
        assert a.state == ALERT_INACTIVE

    def test_immature_breach_returns_to_inactive_silently(self):
        a = AlertState()
        assert a.update(0.0, True) == ALERT_PENDING
        assert a.update(1.0, False) is None
        assert a.state == ALERT_INACTIVE and a.flaps == 0

    def test_flap_suppressed_while_firing(self):
        a = AlertState()
        a.update(0.0, True)
        a.update(2.0, True)
        assert a.state == ALERT_FIRING
        a.update(3.0, False)  # brief recovery...
        assert a.update(4.0, True) is None  # ...re-breach
        assert a.state == ALERT_FIRING and a.flaps == 1
        # The suppressed flap restarts the recovery dwell.
        a.update(5.0, False)
        assert a.update(9.0, False) is None
        assert a.update(10.0, False) == "resolved"


class TestSloEngine:
    """The deployed engine: 5 s / 60 s windows, burn thresholds 14.4 / 6.0,
    ticked once per simulated second by a fake clock."""

    def _engine(self, metrics, clock):
        # Target 0.99: a 1 % error budget, so an all-slow second burns 100x.
        objective = SloObjective(name="lat", target=0.99, metric="t.lat", threshold=0.1)
        return SloEngine(metrics, objectives=[objective], clock=clock)

    @staticmethod
    def _observe(hist, fast, slow):
        """``fast`` observations within the 0.1 s threshold, ``slow`` over it."""
        for _ in range(fast):
            hist.observe(0.05)
        for _ in range(slow):
            hist.observe(0.5)

    def test_ratio_attainment_and_burn(self):
        """Attainment is the good / total ratio of observations; burn is its
        shortfall measured in error budgets."""
        metrics = MetricsRegistry()
        hist = metrics.histogram("t.lat", buckets=(0.1, 1.0))
        wall = [0.0]
        engine = self._engine(metrics, lambda: wall[0])
        self._observe(hist, 100, 0)
        engine.tick()
        wall[0] = 1.0
        self._observe(hist, 99, 1)  # attainment 0.99 over both windows -> burn 1.0
        engine.tick()
        row = engine.report()[0]
        assert row["attainment"] == pytest.approx(0.995)  # cumulative
        assert row["fast_burn"] == pytest.approx(1.0)
        assert row["slow_burn"] == pytest.approx(1.0)
        assert row["alert"] == ALERT_INACTIVE

    def test_alert_lifecycle_and_transition_events(self):
        """Three all-slow seconds in steady traffic page at once (fast burn
        100 >= 14.4). The fast window forgets them 5 s later, but the slow
        one keeps the alert firing until good traffic dilutes them below
        burn 6.0 (t=51); resolved after the 5 s recovery dwell."""
        metrics = MetricsRegistry()
        hist = metrics.histogram("t.lat", buckets=(0.1, 1.0))
        wall = [0.0]
        engine = self._engine(metrics, lambda: wall[0])
        engine.tick()
        for t in range(1, 61):
            wall[0] = float(t)
            slow = 100 if t <= 3 else 0
            self._observe(hist, 100 - slow, slow)
            engine.tick()
            row = engine.report()[0]
            if t == 10:
                assert row["fast_burn"] == 0.0
                assert row["slow_burn"] >= 6.0
                assert row["alert"] == ALERT_FIRING
        assert engine.alert_state("lat") == ALERT_INACTIVE
        assert [(e.time_s, e.to_state) for e in engine.events] == [
            (1.0, ALERT_PENDING),
            (3.0, ALERT_FIRING),
            (56.0, "resolved"),
        ]
        fired = metrics.counter(
            "slo.alert_transitions_total", labels={"objective": "lat", "to": "firing"}
        )
        assert fired.value == 1

    def test_latency_objective_reads_histogram_buckets(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("t.lat", buckets=(0.01, 0.1, 1.0))
        wall = [0.0]
        objective = SloObjective(name="lat", target=0.9, metric="t.lat", threshold=0.1)
        engine = SloEngine(metrics, objectives=[objective], clock=lambda: wall[0])
        engine.tick()  # t=0 baseline sample: windows are delta-based
        for value in (0.005, 0.05, 0.5):  # 2 of 3 within the 0.1s threshold
            hist.observe(value)
        wall[0] = 1.0
        engine.tick()
        row = engine.report()[0]
        assert row["good"] == 2 and row["total"] == 3
        assert metrics.gauge("slo.attainment", labels={"objective": "lat"}).value == (
            pytest.approx(2 / 3)
        )

    def test_render_is_tabular(self):
        metrics = MetricsRegistry()
        engine = SloEngine(metrics)
        text = engine.render()
        assert "objective" in text and "burn(fast)" in text
        assert engine.render_alerts() == "no alert transitions recorded"


class TestOpenMetrics:
    def test_exposition_shape(self):
        metrics = MetricsRegistry()
        metrics.counter("a.requests", help="reqs").inc(3)
        metrics.gauge("a.depth", labels={"pool": "p0"}).set(2.5)
        hist = metrics.histogram("a.lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = render_openmetrics(metrics)
        assert text.endswith("# EOF\n")
        assert "# TYPE a_requests_total counter" in text
        assert "a_requests_total 3" in text
        assert 'a_depth{pool="p0"} 2.5' in text
        assert 'a_lat_bucket{le="0.1"} 1' in text
        assert 'a_lat_bucket{le="+Inf"} 2' in text
        assert "a_lat_count 2" in text

    def test_names_sanitized(self):
        metrics = MetricsRegistry()
        metrics.counter("weird-name.with-dash").inc()
        text = render_openmetrics(metrics)
        assert "weird_name_with_dash_total 1" in text


class TestProfiler:
    def test_nested_blocks_attribute_self_time(self):
        prof = Profiler()
        with prof.block("outer"):
            with prof.block("inner"):
                pass
        rows = {r["stage"]: r for r in prof.stage_table()}
        assert rows["outer"]["calls"] == 1 and rows["inner"]["calls"] == 1
        # The parent's total includes the child; its self time does not.
        assert rows["outer"]["total_s"] >= rows["inner"]["total_s"]
        assert rows["outer"]["self_s"] <= rows["outer"]["total_s"]
        stacks = prof.collapsed_stacks()
        for line in stacks.splitlines():
            path, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert path in ("outer", "outer;inner")

    def test_record_folds_sampled_measurements(self):
        prof = Profiler()
        prof.record("hot", 0.128, calls=128)
        row = prof.stage_table()[0]
        assert row["calls"] == 128
        assert row["mean_us"] == pytest.approx(1000.0)
        assert row["max_us"] == pytest.approx(1000.0)

    def test_render_without_samples(self):
        assert Profiler().render() == "profiler: no samples"

    def test_global_activation_contract(self):
        assert profiler_mod.CURRENT is None
        prof = profiler_mod.activate(Profiler())
        try:
            assert profiler_mod.CURRENT is prof
            with profiler_mod.profile_block("x"):
                pass
            assert prof.stage_table()[0]["stage"] == "x"
        finally:
            profiler_mod.deactivate()
        # Inactive: the shared null block records nothing.
        with profiler_mod.profile_block("y"):
            pass
        assert [r["stage"] for r in prof.stage_table()] == ["x"]


class TestContinuousExporter:
    def test_snapshot_lines_and_file_append(self, tmp_path):
        metrics = MetricsRegistry()
        metrics.counter("e.count").inc(2)
        out = tmp_path / "snap.jsonl"
        exporter = ContinuousExporter(metrics, path=str(out))
        exporter.snapshot_once()
        metrics.counter("e.count").inc()
        exporter.snapshot_once()
        lines = out.read_text().splitlines()
        assert len(lines) == 2 == exporter.snapshots
        assert all(json.loads(line) for line in lines)

    def test_ring_is_bounded(self):
        exporter = ContinuousExporter(MetricsRegistry())
        exporter.max_lines = 4
        for _ in range(10):
            exporter.snapshot_once()
        assert len(exporter.lines) == 4 and exporter.snapshots == 10


class TestHealthScoreboard:
    """Components stamp ``health.heartbeat_ts`` on the shared registry; a
    beat 2.5 s old reads degraded, 5 s old down."""

    def _board(self, wall):
        metrics = MetricsRegistry()
        return metrics, HealthScoreboard(metrics, clock=lambda: wall[0])

    def _beat(self, metrics, component, now):
        metrics.gauge("health.heartbeat_ts", labels={"component": component}).set(now)

    def test_heartbeat_fresh_degraded_down(self):
        wall = [0.0]
        metrics, board = self._board(wall)
        self._beat(metrics, "mobiwatch", 0.0)
        assert board.statuses()["mobiwatch"] == "up"
        wall[0] = 2.5  # half the stale window
        assert board.statuses()["mobiwatch"] == "degraded"
        wall[0] = 5.0
        assert board.statuses()["mobiwatch"] == "down"
        self._beat(metrics, "mobiwatch", 5.0)
        assert board.statuses()["mobiwatch"] == "up"

    def test_status_is_exported_as_a_gauge(self):
        wall = [0.0]
        metrics, board = self._board(wall)
        self._beat(metrics, "analyzer", 0.0)
        self._beat(metrics, "mobiwatch", -5.0)
        assert board.statuses() == {"analyzer": "up", "mobiwatch": "down"}
        score = metrics.gauge("health.status", labels={"component": "mobiwatch"})
        assert score.value == 0.0
        assert metrics.gauge("health.status", labels={"component": "analyzer"}).value == 2.0

    def test_registry_heartbeats_discovered(self):
        wall = [1.0]
        metrics, board = self._board(wall)
        # A component stamping the shared family directly (no board ref).
        metrics.gauge(
            "health.heartbeat_ts", labels={"component": "analyzer"}
        ).set(1.0)
        assert board.statuses()["analyzer"] == "up"

    def test_render_lists_components(self):
        wall = [0.0]
        metrics, board = self._board(wall)
        assert "no components" in board.render()
        self._beat(metrics, "x", 0.0)
        assert "x" in board.render()


def _alarm(evidence):
    """The anomaly a store's evidence was minted for (three records from t=1.0)."""
    return AnomalyEvent(
        detected_at=2.0,
        session_id=3,
        rnti=17,
        s_tmsi=None,
        score=0.9,
        threshold=0.5,
        record_indices=(0, 1, 2),
        newest_record_ts=1.02,
        first_record_ts=1.0,
        arrival_ts=1.5,
        provenance_id=evidence.provenance_id,
    )


def _verdict(anomaly, completed_at, top_attack="Blind DoS"):
    """A confirmed verdict carrying only the fields the chain reads."""
    response = SimpleNamespace(
        verdict="anomalous", top_attacks=[(top_attack, 0.9)], is_anomalous=True
    )
    return VerdictEvent(
        anomaly=anomaly,
        verdict=SimpleNamespace(model="chatgpt-4o", response=response),
        completed_at=completed_at,
    )


class TestProvenance:
    def test_mint_fills_detection_chain(self):
        store = ProvenanceStore()
        records = _records(3)
        detector = _detector()
        record = store.mint(session_id=7, records=records, detector=detector)
        assert record.provenance_id == 1 and len(store) == 1
        assert store.get(record.provenance_id) is record
        assert record.capture_digest == capture_digest(records)
        assert record.trace_id == "7-000001"
        assert record.model_snapshot_id == model_snapshot_id(detector)
        assert record.threshold_snapshot_id == threshold_snapshot_id(detector)

    def test_sdl_round_trip_grows_with_the_chain(self):
        sdl = SharedDataLayer()
        store = ProvenanceStore(sdl=sdl)
        evidence = store.mint(session_id=3, records=_records(3), detector=_detector())
        incident = IncidentRecord(anomaly=_alarm(evidence))
        store.persist(incident.provenance(evidence))
        persisted = sdl.get(SDL_PROVENANCE_NS, "000001")
        assert persisted["capture_digest"] == evidence.capture_digest
        assert "verdict_completed_at" not in persisted  # None values dropped
        assert persisted["stage_timings_s"] == pytest.approx(
            {"capture": 0.02, "indication": 0.48, "detection": 0.5}
        )
        assert "(pending)" in render_chain(incident.provenance(evidence))
        incident.verdict = _verdict(incident.anomaly, completed_at=4.5)
        incident.action, incident.action_at = "release_ue", 4.6
        store.persist(incident.provenance(evidence))
        persisted = sdl.get(SDL_PROVENANCE_NS, "000001")
        assert persisted["verdict_model"] == "chatgpt-4o"
        assert persisted["verdict_completed_at"] == 4.5
        assert persisted["action"] == "release_ue"
        assert persisted["stage_timings_s"]["verdict"] == pytest.approx(2.5)
        assert persisted["stage_timings_s"]["action"] == pytest.approx(0.1)
        rendered = render_chain(incident.provenance(evidence))
        assert "Blind DoS" in rendered and "release_ue" in rendered

    def test_provider_text_renders_escaped(self):
        """The attribution is provider text: a terminal control sequence, a
        carriage return or a Unicode line separator in it reaches the
        operator escaped, never as a control character."""
        evidence = ProvenanceStore().mint(session_id=3, records=_records(3), detector=_detector())
        incident = IncidentRecord(anomaly=_alarm(evidence))
        hostile = "Blind DoS\x1b[2J\rforged\u2028line"
        incident.verdict = _verdict(incident.anomaly, completed_at=4.5, top_attack=hostile)
        rendered = render_chain(incident.provenance(evidence))
        assert all(ch.isprintable() for line in rendered.split("\n") for ch in line)
        assert "  attribution  Blind DoS\\x1b[2J\\rforged\\u2028line" in rendered
        assert printable("two\nlines, é") == "two\nlines, é"  # printable text as is

    def test_snapshot_ids_track_identity(self):
        a, b = _detector(), _detector()
        assert model_snapshot_id(a) == model_snapshot_id(b)  # same seed
        b.model.Wx.value[0, 0] += 1.0
        assert model_snapshot_id(a) != model_snapshot_id(b)
        assert capture_digest(_records(2)) == capture_digest(_records(2))
        assert capture_digest(_records(2)) != capture_digest(_records(3))

    @staticmethod
    def _fitted(seed=0):
        detector = _detector()
        windows = np.random.default_rng(seed).random((24, 12))
        detector.fit(windows, epochs=1)
        return detector

    def _mint_with(self, store, detector):
        return store.mint(session_id=1, records=_records(1), detector=detector)

    def test_threshold_id_follows_a_policy_refit(self):
        """An A1 policy re-fits the threshold in place (MobiWatchXApp.on_policy):
        the next alarm names the new operating point, not the old one."""
        store, detector = ProvenanceStore(), self._fitted()
        before = self._mint_with(store, detector).threshold_snapshot_id
        detector.threshold.percentile = 90.0
        detector.threshold.fit(detector.training_scores)
        after = self._mint_with(store, detector).threshold_snapshot_id
        assert after == threshold_snapshot_id(detector)
        assert after != before

    def test_model_id_follows_a_retrain_of_the_same_object(self):
        store, detector = ProvenanceStore(), self._fitted()
        before = self._mint_with(store, detector).model_snapshot_id
        detector.fit(np.random.default_rng(1).random((24, 12)), epochs=1)
        after = self._mint_with(store, detector).model_snapshot_id
        assert after == model_snapshot_id(detector)
        assert after != before

    def test_minted_counter(self):
        metrics = MetricsRegistry()
        store = ProvenanceStore(metrics=metrics)
        self._mint_with(store, _detector())
        assert metrics.counter("slo.provenance_records_total").value == 1

    def _mint_and_persist(self, store):
        record = self._mint_with(store, _detector())
        store.persist({"provenance_id": record.provenance_id, "trace_id": record.trace_id})
        return record

    def test_refused_write_is_counted_and_kept_in_memory(self):
        class RefusingSdl:
            def set(self, namespace, key, value):
                raise WireError(f"cannot encode {namespace}/{key}")

        metrics = MetricsRegistry()
        store = ProvenanceStore(metrics=metrics, sdl=RefusingSdl())
        record = self._mint_and_persist(store)
        assert metrics.counter("slo.provenance_persist_failures_total").value == 1
        assert store.get(record.provenance_id) is record

    @pytest.mark.parametrize("error", [KeyError, RuntimeError])
    def test_other_write_errors_propagate(self, error):
        """Only a value the codec refuses is a refused write; a bug in the
        SDL or one of its watchers is not swallowed."""

        class BrokenSdl:
            def set(self, namespace, key, value):
                raise error(key)

        with pytest.raises(error):
            self._mint_and_persist(ProvenanceStore(metrics=MetricsRegistry(), sdl=BrokenSdl()))


class TestSloRuntime:
    """The SLO plane as a deployment runs it: ``XsecConfig.slo_enabled``
    fills ``xsec.obs``; ``close()`` releases the global profiler."""

    def test_disabled_settings_build_nothing(self):
        xsec = SixGXSec(XsecConfig())
        obs = xsec.obs
        assert obs.engine is None and obs.scoreboard is None
        assert obs.profiler is None and obs.exporter is None
        assert xsec.mobiwatch.provenance is None
        assert obs.schedule_ticks(xsec.net.sim, 30.0) == 0
        xsec.close()
        assert profiler_mod.CURRENT is None

    def test_full_settings_build_the_plane(self):
        xsec = SixGXSec(XsecConfig(slo_enabled=True))
        obs = xsec.obs
        try:
            assert obs.engine is not None and obs.scoreboard is not None
            assert profiler_mod.CURRENT is obs.profiler
            # One evidence store: MobiWatch's. The context holds no second one.
            assert isinstance(xsec.mobiwatch.provenance, ProvenanceStore)
            assert not [v for v in vars(obs).values() if isinstance(v, ProvenanceStore)]
            # 1 s engine ticks and 5 s snapshots up to the horizon.
            assert obs.schedule_ticks(xsec.net.sim, 30.0) == 30 + 6
            obs.finalize()
            assert obs.engine.ticks == 1
            assert obs.exporter.snapshots == 1
        finally:
            xsec.close()
        assert profiler_mod.CURRENT is None

    def test_collapsed_stacks_concatenates_sources(self):
        xsec = SixGXSec(XsecConfig(slo_enabled=True))
        try:
            with profiler_mod.profile_block("stage.a"):
                pass
            assert "stage.a" in xsec.obs.profiler.collapsed_stacks()
        finally:
            xsec.close()

    def test_close_is_idempotent_and_releases_only_its_own_profiler(self):
        first = SixGXSec(XsecConfig(slo_enabled=True))
        second = SixGXSec(XsecConfig(slo_enabled=True))
        assert profiler_mod.CURRENT is second.obs.profiler
        first.close()
        assert profiler_mod.CURRENT is second.obs.profiler
        second.close()
        second.close()
        assert profiler_mod.CURRENT is None

    def test_leaving_a_with_block_on_an_error_releases_the_profiler(self):
        with pytest.raises(RuntimeError):
            with SixGXSec(XsecConfig(slo_enabled=True)):
                assert profiler_mod.CURRENT is not None
                raise RuntimeError("run failed")
        assert profiler_mod.CURRENT is None

    def test_a_testbed_run_that_raises_releases_the_profiler(self, monkeypatch):
        from repro.experiments import testbed

        xsec = SixGXSec(XsecConfig(slo_enabled=True))

        def fail(until=None, max_events=None):
            raise RuntimeError("run failed")

        monkeypatch.setattr(xsec, "run", fail)
        monkeypatch.setattr(testbed, "build_trained_framework", lambda config: xsec)
        with pytest.raises(RuntimeError):
            testbed.run_live_testbed()
        assert profiler_mod.CURRENT is None


class TestHotpathInstrumentation:
    """The exact scoring path's hooks: the kernel snapshot's counters and
    its sampled ``ml.compiled.scores`` profiler branch, on the tick-height
    gathers ``detector.scores(gather, per_row=True)`` is handed live."""

    def _detector(self, metrics=None):
        detector = LstmDetector(window=3, feature_dim=5, hidden_dim=4, seed=1)
        if metrics is not None:
            detector.attach_metrics(metrics)
        return detector

    def _gathers(self, seed):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(n, 15)).astype(np.float32) for n in (1, 3, 2, 4)]

    def test_counters_follow_the_stream(self):
        metrics = MetricsRegistry()
        detector = self._detector(metrics)
        gathers = self._gathers(0)
        for gather in gathers + gathers[:2]:  # the last two ticks repeat rows
            detector.scores(gather, per_row=True)
        labels = {"model": "lstm"}
        assert metrics.counter("ml.compiled_calls_total", labels=labels).value == 4
        assert metrics.counter("ml.compiled_windows_total", labels=labels).value == 10
        assert metrics.counter("ml.score_memo_misses_total", labels=labels).value == 10
        assert metrics.counter("ml.score_memo_hits_total", labels=labels).value == 4
        assert metrics.gauge("ml.score_memo_size", labels=labels).value == 10.0

    def test_unwired_scorer_streams_identically(self):
        plain = self._detector()
        observed = self._detector(MetricsRegistry())
        prof = profiler_mod.activate(Profiler())
        try:
            got = [observed.scores(g, per_row=True) for g in self._gathers(2)]
        finally:
            profiler_mod.deactivate()
        want = [plain.scores(g, per_row=True) for g in self._gathers(2)]
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_sampled_profile_extrapolates(self):
        """One kernel call in ``PROFILE_SAMPLE`` is timed and reported as
        that many; a tick the memo answers whole never reaches the kernels
        and counts toward no sample."""
        detector = self._detector(MetricsRegistry())
        gathers = self._gathers(3)
        prof = profiler_mod.activate(Profiler())
        try:
            for gather in gathers * PROFILE_SAMPLE:  # repeats come from the memo
                detector.scores(gather, per_row=True)
            assert prof.stage_table() == []  # len(gathers) kernel calls so far
            detector.compiled._prof_skip = 1  # force the next call to be the sample
            detector.scores(gathers[0] + 1.0, per_row=True)
        finally:
            profiler_mod.deactivate()
        (row,) = prof.stage_table()
        assert row["stage"] == "ml.compiled.scores"
        assert row["calls"] == PROFILE_SAMPLE
        assert row["total_s"] > 0

