"""Tests for repro.slo: objectives, alerts, profilers, export, provenance.

Covers the observability plane's contracts: burn-rate math over sliding
windows, the alert state machine's dwell times and flap suppression,
OpenMetrics exposition shape, profiler self-time attribution, the
provenance evidence chain's SDL round trip, and the obs bench's gating
logic. Everything runs on explicit fake clocks — no wall-clock sleeps.
"""

import json

import numpy as np
import pytest

from repro.bench import driver
from repro.bench import obs as obs_bench
from repro.bench.obs import ObsBenchResult
from repro.ml.compiled import PROFILE_SAMPLE
from repro.ml.detector import LstmDetector
from repro.obs.metrics import MetricsRegistry
from repro.oran.sdl import SharedDataLayer
from repro.scale import ShardedSdl
from repro.slo import profiler as profiler_mod
from repro.slo.exporter import (
    ContinuousExporter,
    HealthScoreboard,
    render_openmetrics,
)
from repro.slo.objectives import (
    ALERT_FIRING,
    ALERT_INACTIVE,
    ALERT_PENDING,
    AlertState,
    SloEngine,
    SloObjective,
    default_objectives,
)
from repro.slo.profiler import Profiler
from repro.slo.provenance import (
    ProvenanceStore,
    SDL_PROVENANCE_NS,
    capture_digest,
    model_snapshot_id,
)
from repro.slo.runtime import SloRuntime
from repro.slo.settings import SloSettings
from repro.telemetry.mobiflow import MobiFlowRecord


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


class TestSloSettings:
    def test_defaults_are_all_off(self):
        s = SloSettings()
        assert not s.enabled and not s.profiler
        assert s.export_interval_s == 0.0
        assert not s.any_enabled

    def test_full_turns_the_plane_on(self):
        s = SloSettings.full(export_path="/tmp/x.jsonl")
        assert s.enabled and s.profiler and s.export_interval_s > 0
        assert s.any_enabled and s.export_path == "/tmp/x.jsonl"

    def test_validation(self):
        with pytest.raises(ValueError):
            SloSettings(eval_interval_s=0.0)
        with pytest.raises(ValueError):
            SloSettings(fast_window_s=10.0, slow_window_s=5.0)
        with pytest.raises(ValueError):
            SloSettings(export_interval_s=-1.0)


class TestSloObjective:
    def test_kind_and_target_validated(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="weird", target=0.9)
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="latency", target=1.0, metric="m")
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="latency", target=0.9)  # no metric
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="ratio", target=0.9, bad_metric="b")

    def test_budget_and_sli_text(self):
        latency = SloObjective(
            name="lat", kind="latency", target=0.99, metric="m", threshold=0.5
        )
        assert latency.budget == pytest.approx(0.01)
        assert "m <= 0.5s" == latency.sli_text()
        ratio = SloObjective(
            name="r", kind="ratio", target=0.9, bad_metric="b", total_metric="t"
        )
        assert ratio.sli_text() == "b / t"

    def test_default_objectives_reference_emitted_families(self):
        names = {o.name for o in default_objectives()}
        assert "detection-latency" in names and "ingest-drop-rate" in names


class TestAlertState:
    SETTINGS = SloSettings(enabled=True, pending_for_s=2.0, resolve_after_s=5.0)

    def test_pending_then_firing_then_resolved(self):
        a = AlertState()
        assert a.update(0.0, True, self.SETTINGS) == ALERT_PENDING
        assert a.update(1.0, True, self.SETTINGS) is None  # dwell not met
        assert a.update(2.0, True, self.SETTINGS) == ALERT_FIRING
        assert a.update(3.0, False, self.SETTINGS) is None  # recovery starts
        assert a.update(7.0, False, self.SETTINGS) is None  # dwell not met
        assert a.update(8.0, False, self.SETTINGS) == "resolved"
        assert a.state == ALERT_INACTIVE

    def test_immature_breach_returns_to_inactive_silently(self):
        a = AlertState()
        assert a.update(0.0, True, self.SETTINGS) == ALERT_PENDING
        assert a.update(1.0, False, self.SETTINGS) is None
        assert a.state == ALERT_INACTIVE and a.flaps == 0

    def test_flap_suppressed_while_firing(self):
        a = AlertState()
        a.update(0.0, True, self.SETTINGS)
        a.update(2.0, True, self.SETTINGS)
        assert a.state == ALERT_FIRING
        a.update(3.0, False, self.SETTINGS)  # brief recovery...
        assert a.update(4.0, True, self.SETTINGS) is None  # ...re-breach
        assert a.state == ALERT_FIRING and a.flaps == 1
        # The suppressed flap restarts the recovery dwell.
        a.update(5.0, False, self.SETTINGS)
        assert a.update(10.0, False, self.SETTINGS) == "resolved"


class TestSloEngine:
    def _engine(self, metrics, clock, **overrides):
        settings = SloSettings(
            enabled=True,
            eval_interval_s=1.0,
            fast_window_s=3.0,
            slow_window_s=10.0,
            fast_burn_threshold=2.0,
            slow_burn_threshold=999.0,  # isolate the fast window
            pending_for_s=2.0,
            resolve_after_s=3.0,
            **overrides,
        )
        objective = SloObjective(
            name="drops", kind="ratio", target=0.5, bad_metric="t.bad",
            total_metric="t.total",
        )
        return SloEngine(metrics, settings=settings, objectives=[objective], clock=clock)

    def test_ratio_attainment_and_burn(self):
        metrics = MetricsRegistry()
        bad = metrics.counter("t.bad")
        total = metrics.counter("t.total")
        wall = [0.0]
        engine = self._engine(metrics, lambda: wall[0])
        total.inc(100)
        engine.tick()
        wall[0] = 1.0
        total.inc(100)
        bad.inc(50)  # attainment 0.5 over the window -> burn 1.0
        engine.tick()
        row = engine.report()[0]
        assert row["attainment"] == pytest.approx(0.75)  # cumulative
        assert row["fast_burn"] == pytest.approx(1.0)
        assert row["alert"] == ALERT_INACTIVE

    def test_alert_lifecycle_and_transition_events(self):
        metrics = MetricsRegistry()
        bad = metrics.counter("t.bad")
        total = metrics.counter("t.total")
        wall = [0.0]
        engine = self._engine(metrics, lambda: wall[0])
        engine.tick()
        # Burn the whole budget: attainment 0 -> burn 2.0 >= fast threshold.
        for t in (1.0, 2.0, 3.0):
            wall[0] = t
            total.inc(10)
            bad.inc(10)
            engine.tick()
        assert engine.alert_state("drops") == ALERT_FIRING
        # Full recovery, held past resolve_after_s. The fast window must
        # slide past the bad samples for the burn to clear.
        for t in (4.0, 5.0, 6.0, 7.0, 8.0):
            wall[0] = t
            total.inc(10)
            engine.tick()
        assert engine.alert_state("drops") == ALERT_INACTIVE
        states = [e.to_state for e in engine.events]
        assert states == [ALERT_PENDING, ALERT_FIRING, "resolved"]
        fired = metrics.counter(
            "slo.alert_transitions_total", labels={"objective": "drops", "to": "firing"}
        )
        assert fired.value == 1

    def test_latency_objective_reads_histogram_buckets(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("t.lat", buckets=(0.01, 0.1, 1.0))
        wall = [0.0]
        settings = SloSettings(enabled=True, eval_interval_s=1.0)
        objective = SloObjective(
            name="lat", kind="latency", target=0.9, metric="t.lat", threshold=0.1
        )
        engine = SloEngine(
            metrics, settings=settings, objectives=[objective], clock=lambda: wall[0]
        )
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
        engine = SloEngine(metrics, settings=SloSettings(enabled=True))
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
        exporter = ContinuousExporter(metrics, path=str(out), interval_s=5.0)
        exporter.snapshot_once()
        metrics.counter("e.count").inc()
        exporter.snapshot_once()
        lines = out.read_text().splitlines()
        assert len(lines) == 2 == exporter.snapshots
        assert all(json.loads(line) for line in lines)

    def test_ring_is_bounded(self):
        exporter = ContinuousExporter(MetricsRegistry(), interval_s=1.0)
        exporter.max_lines = 4
        for _ in range(10):
            exporter.snapshot_once()
        assert len(exporter.lines) == 4 and exporter.snapshots == 10


class TestHealthScoreboard:
    def _board(self, wall):
        metrics = MetricsRegistry()
        return metrics, HealthScoreboard(
            metrics, clock=lambda: wall[0], stale_after_s=4.0
        )

    def test_heartbeat_fresh_degraded_down(self):
        wall = [0.0]
        _, board = self._board(wall)
        board.heartbeat("mobiwatch")
        assert board.statuses()["mobiwatch"] == "up"
        wall[0] = 2.5  # past half the stale window
        assert board.statuses()["mobiwatch"] == "degraded"
        wall[0] = 4.5
        assert board.statuses()["mobiwatch"] == "down"
        assert board.down_components() == ["mobiwatch"]

    def test_registry_heartbeats_discovered(self):
        wall = [1.0]
        metrics, board = self._board(wall)
        # A component stamping the shared family directly (no board ref).
        metrics.gauge(
            "health.heartbeat_ts", labels={"component": "analyzer"}
        ).set(1.0)
        assert board.statuses()["analyzer"] == "up"

    def test_probe_reports_up_or_down(self):
        wall = [0.0]
        metrics, board = self._board(wall)
        board.register_probe("pool.w0", lambda: {"up": True})
        assert board.statuses()["pool.w0"] == "up"
        board.register_probe("pool.w1", lambda: {"up": False})
        statuses = board.statuses()
        assert statuses["pool.w1"] == "down"
        # Health is exported as a gauge family too.
        score = metrics.gauge("health.status", labels={"component": "pool.w1"})
        assert score.value == 0.0

    def test_render_lists_components(self):
        wall = [0.0]
        _, board = self._board(wall)
        assert "no components" in board.render()
        board.heartbeat("x")
        assert "x" in board.render()


class TestProvenance:
    def test_mint_fills_detection_chain(self):
        store = ProvenanceStore()
        records = _records(3)
        record = store.mint(
            session_id=7,
            detected_at=2.0,
            score=0.9,
            threshold=0.5,
            record_indices=(4, 5, 6),
            records=records,
            detector=_detector(),
            arrival_ts=1.5,
        )
        assert record.provenance_id == 1 and len(store) == 1
        assert record.capture_digest == capture_digest(records)
        assert record.trace_id == "7-000001"
        assert record.stage_timings_s["capture"] == pytest.approx(0.02)
        assert record.stage_timings_s["indication"] == pytest.approx(0.48)
        assert record.stage_timings_s["detection"] == pytest.approx(0.5)
        assert "(pending)" in record.render()

    def test_sdl_round_trip_grows_with_the_chain(self):
        sdl = SharedDataLayer()
        store = ProvenanceStore(sdl=sdl)
        record = store.mint(
            session_id=3,
            detected_at=2.0,
            score=0.9,
            threshold=0.5,
            record_indices=(0, 1, 2),
            records=_records(3),
            detector=_detector(),
        )
        persisted = sdl.get(SDL_PROVENANCE_NS, "000001")
        assert persisted["capture_digest"] == record.capture_digest
        assert "verdict_completed_at" not in persisted  # None values dropped
        store.attach_verdict(
            record.provenance_id,
            model="chatgpt-4o",
            verdict_text="anomalous",
            top_attack="Blind DoS",
            confirmed=True,
            completed_at=4.5,
        )
        store.attach_action(record.provenance_id, action="release_ue", action_at=4.6)
        persisted = sdl.get(SDL_PROVENANCE_NS, "000001")
        assert persisted["verdict_model"] == "chatgpt-4o"
        assert persisted["verdict_completed_at"] == 4.5
        assert persisted["action"] == "release_ue"
        assert persisted["stage_timings_s"]["verdict"] == pytest.approx(2.5)
        assert persisted["stage_timings_s"]["action"] == pytest.approx(0.1)
        rendered = store.get(record.provenance_id).render()
        assert "Blind DoS" in rendered and "release_ue" in rendered

    def test_attach_to_unknown_id_is_a_noop(self):
        store = ProvenanceStore()
        assert store.attach_action(None, action="x", action_at=1.0) is None
        assert store.attach_action(99, action="x", action_at=1.0) is None

    def test_snapshot_ids_track_identity(self):
        a, b = _detector(), _detector()
        assert model_snapshot_id(a) == model_snapshot_id(b)  # same seed
        b.model.Wx.value[0, 0] += 1.0
        assert model_snapshot_id(a) != model_snapshot_id(b)
        assert capture_digest(_records(2)) == capture_digest(_records(2))
        assert capture_digest(_records(2)) != capture_digest(_records(3))

    def test_minted_counter(self):
        metrics = MetricsRegistry()
        store = ProvenanceStore(metrics=metrics)
        store.mint(
            session_id=1,
            detected_at=1.0,
            score=1.0,
            threshold=0.5,
            record_indices=(0,),
            records=_records(1),
            detector=_detector(),
        )
        assert metrics.counter("slo.provenance_records_total").value == 1

    def _mint(self, store):
        return store.mint(
            session_id=1,
            detected_at=1.0,
            score=1.0,
            threshold=0.5,
            record_indices=(0,),
            records=_records(1),
            detector=_detector(),
        )

    def test_refused_write_is_counted_and_kept_in_memory(self):
        metrics = MetricsRegistry()
        sdl = ShardedSdl(shards=2)
        for shard in sdl.shard_names:
            sdl.kill_shard(shard)
        store = ProvenanceStore(metrics=metrics, sdl=sdl)
        record = self._mint(store)
        assert metrics.counter("slo.provenance_persist_failures_total").value == 1
        assert store.get(record.provenance_id) is record

    def test_other_write_errors_propagate(self):
        class BrokenSdl:
            def set(self, namespace, key, value):
                raise KeyError(key)

        with pytest.raises(KeyError):
            self._mint(ProvenanceStore(metrics=MetricsRegistry(), sdl=BrokenSdl()))


class TestSloRuntime:
    def test_disabled_settings_build_nothing(self):
        runtime = SloRuntime(SloSettings(), MetricsRegistry())
        assert runtime.engine is None and runtime.scoreboard is None
        assert runtime.profiler is None and runtime.exporter is None
        runtime.shutdown()

    def test_full_settings_build_the_plane(self):
        runtime = SloRuntime(SloSettings.full(), MetricsRegistry())
        try:
            assert runtime.engine is not None and runtime.scoreboard is not None
            assert profiler_mod.CURRENT is runtime.profiler
            runtime.finalize()
            assert runtime.engine.ticks == 1
            assert runtime.exporter.snapshots == 1
        finally:
            runtime.shutdown()
        assert profiler_mod.CURRENT is None

    def test_collapsed_stacks_concatenates_sources(self):
        runtime = SloRuntime(SloSettings.full(), MetricsRegistry())
        try:
            with profiler_mod.profile_block("stage.a"):
                pass
            assert "stage.a" in runtime.collapsed_stacks()
        finally:
            runtime.shutdown()


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


def violations(result, baseline=None):
    return driver.violations(obs_bench, result, baseline)


class TestObsBenchGating:
    def _result(self, overhead_pct):
        result = ObsBenchResult()
        result.per_tick = {"overhead_pct": overhead_pct}
        result.equality = {"observed_scores_exact": True}
        return result

    def test_ceiling(self):
        assert violations(self._result(2.9)) == []
        failures = violations(self._result(3.1))
        assert any("ceiling" in f for f in failures)

    def test_equality_breaks_gate(self):
        result = self._result(0.5)
        result.equality["observed_scores_exact"] = False
        assert any("equality" in f for f in violations(result))

    def test_baseline_creep_is_additive(self):
        baseline = {"per_tick": {"overhead_pct": 0.5}}
        assert violations(self._result(2.4), baseline) == []
        failures = violations(self._result(2.6), baseline)
        assert any("crept" in f for f in failures)
