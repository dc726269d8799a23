"""Tests for the ``repro.obs`` observability package and loop tracing.

Covers the always-on pillars (metrics registry, structured logger, tracer),
their integration with the simulation engine, and the closed-loop
pipeline's incident latency edge cases + trace reconstruction.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import XsecConfig
from repro.core.mobiwatch import AnomalyEvent
from repro.core.pipeline import ClosedLoopPipeline, IncidentRecord
from repro.obs import LOOP_STAGES, ObsContext
from repro.obs.logging import DEBUG, ERROR, INFO, WARNING, ObsLogger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    RESERVOIR_CAP,
    MetricsRegistry,
    WallTimer,
)
from repro.obs.tracing import Tracer
from repro.sim.engine import Simulator
from repro.sim.entity import Entity


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry()
        c = registry.counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        # Same name + labels -> same series object.
        assert registry.counter("requests_total") is c

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("ok")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        a = registry.counter("msgs", labels={"mtype": "1"})
        b = registry.counter("msgs", labels={"mtype": "2"})
        assert a is not b
        a.inc(5)
        assert b.value == 0
        # Label order must not matter.
        ab = registry.counter("pair", labels={"x": 1, "y": 2})
        ba = registry.counter("pair", labels={"y": 2, "x": 1})
        assert ab is ba

    def test_gauge_set_and_collect_fn(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(7)
        assert g.value == 7.0
        g.inc()
        g.dec(2)
        assert g.value == 6.0
        backing = [1, 2, 3]
        live = registry.gauge("live_depth", fn=lambda: len(backing))
        backing.append(4)
        assert live.value == 4.0

    def test_histogram_stats(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        for v in (0.01, 0.02, 0.03, 0.04):
            h.observe(v)
        s = h.stats()
        assert s["n"] == 4
        assert s["min"] == 0.01
        assert s["max"] == 0.04
        assert s["mean"] == pytest.approx(0.025)
        assert s["sum"] == pytest.approx(0.10)
        assert s["p50"] in (0.02, 0.03)
        assert h.stats() == h.stats()  # read-only

    def test_histogram_empty_stats(self):
        h = MetricsRegistry().histogram("empty")
        assert h.stats() == {"n": 0}
        assert h.percentile(50) is None

    def test_histogram_bucket_counts(self):
        h = MetricsRegistry().histogram("b", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        # One observation per bucket incl. the +inf overflow.
        assert h.bucket_counts == [1, 1, 1]

    def test_histogram_reservoir_is_bounded_and_deterministic(self):
        h = MetricsRegistry().histogram("big")
        n = RESERVOIR_CAP + 100
        for i in range(n):
            h.observe(float(i))
        assert h.count == n
        assert len(h._reservoir) == RESERVOIR_CAP
        # Ring overwrite: the oldest 100 observations were replaced.
        assert min(h._reservoir) == 100.0
        assert h.max == float(n - 1)

    def test_registry_kind_conflict(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(TypeError):
            registry.gauge("metric")

    def test_snapshot_reset_and_jsonl(self):
        ticks = [0.0]
        registry = MetricsRegistry(clock=lambda: ticks[0])
        registry.counter("c", labels={"k": "v"}).inc(3)
        registry.histogram("h").observe(0.5)
        ticks[0] = 12.5
        snap = registry.snapshot()
        assert snap["sim_time_s"] == 12.5
        assert "wall_time_s" in snap
        assert snap["metrics"]["c"]["series"][0] == {"labels": {"k": "v"}, "value": 3.0}
        # JSONL: the whole snapshot is one JSON line (`obs --jsonl`, and
        # each line the SLO plane's exporter appends).
        line = json.dumps(snap, sort_keys=True)
        assert "\n" not in line
        assert json.loads(line) == snap
        assert set(snap["metrics"]) == {"c", "h"}
        # render() is human-readable and mentions every family.
        text = registry.render()
        assert "c{k=v} [counter] 3" in text
        assert "[histogram]" in text
        registry.reset()
        assert registry.names() == []

    def test_wall_timer_observes_duration(self):
        h = MetricsRegistry().histogram("wall")
        with WallTimer(h) as timer:
            sum(range(1000))
        assert h.count == 1
        assert timer.elapsed >= 0.0
        assert h.max == timer.elapsed

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# ---------------------------------------------------------------------------
# logging
# ---------------------------------------------------------------------------


class TestLogging:
    def test_levels_filter(self):
        logger = ObsLogger(level=INFO)
        assert logger.debug("x", "hidden") is None
        assert logger.info("x", "kept") is not None
        logger.set_level(DEBUG)
        assert logger.debug("x", "now kept") is not None
        assert [r.message for r in logger.records] == ["kept", "now kept"]

    def test_ring_buffer_capacity(self):
        logger = ObsLogger(capacity=4)
        for i in range(10):
            logger.info("c", f"m{i}")
        assert [r.message for r in logger.records] == ["m6", "m7", "m8", "m9"]

    def test_sinks_and_removal(self):
        logger = ObsLogger()
        seen = []
        logger.add_sink(seen.append)
        logger.warning("c", "boom", code=7)
        assert len(seen) == 1
        assert seen[0].level == WARNING
        logger.remove_sink(seen.append)
        logger.error("c", "again")
        assert len(seen) == 1  # sink detached; record still buffered
        assert len(logger.records) == 2

    def test_scoped_logger_and_records_for(self):
        clock = [3.25]
        logger = ObsLogger(clock=lambda: clock[0])
        ue = logger.scoped("ue1")
        gnb = logger.scoped("gnb")
        ue.info("attach", rnti=17)
        gnb.error("rejected")
        assert [r.message for r in logger.records_for("ue1")] == ["attach"]
        record = logger.records_for("ue1")[0]
        assert record.sim_time == 3.25
        assert dict(record.fields) == {"rnti": 17}
        assert record.to_dict()["component"] == "ue1"
        assert "ERROR" in logger.records_for("gnb")[0].render()

    def test_render_and_jsonl(self):
        logger = ObsLogger()
        logger.info("a", "one", n=1)
        logger.info("b", "two")
        assert logger.render(limit=1).endswith("b: two")
        lines = [json.loads(line) for line in logger.to_jsonl().splitlines()]
        assert lines[0]["message"] == "one"
        assert lines[0]["n"] == 1


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_reconstructed_spans_and_durations(self):
        tracer = Tracer()
        trace = tracer.trace("t", session=1)
        trace.span("capture", start=1.0, end=3.0)
        trace.span("detection", start=3.0, end=3.5, score=0.9)
        open_span = trace.span("verdict", start=3.5)
        assert open_span.duration_s is None
        open_span.finish(6.0, confirmed=True)
        assert open_span.duration_s == 2.5
        assert trace.start_s == 1.0
        assert trace.end_s == 6.0
        assert trace.duration_s == 5.0
        assert trace.critical_span().name == "verdict"

    def test_stage_breakdown_respects_order(self):
        tracer = Tracer()
        for i in range(3):
            trace = tracer.trace("t")
            trace.span("b", start=0.0, end=0.1 * (i + 1))
            trace.span("a", start=0.0, end=0.2)
        breakdown = tracer.stage_breakdown(["a", "b"])
        assert list(breakdown) == ["a", "b"]
        assert breakdown["b"]["n"] == 3
        assert breakdown["b"]["max"] == pytest.approx(0.3)
        # Unknown requested stages are dropped, extra stages appended.
        assert "c" not in tracer.stage_breakdown(["c", "a", "b"])

    def test_critical_path_report(self):
        tracer = Tracer()
        for _ in range(2):
            trace = tracer.trace("t")
            trace.span("fast", start=0.0, end=0.1)
            trace.span("slow", start=0.1, end=1.0)
        report = tracer.critical_path_report()
        assert report["traces"] == 2
        assert report["dominant_stage_counts"] == {"slow": 2}
        assert report["end_to_end_s"]["max"] == pytest.approx(1.0)
        text = tracer.render_breakdown(["fast", "slow"])
        assert "slow" in text and "critical path dominated by: slow (2)" in text

    def test_to_dict_round_trips_json(self):
        tracer = Tracer()
        trace = tracer.trace("t", session=9)
        trace.span("s", start=0.0, end=1.0, records=4)
        dumped = json.loads(json.dumps(tracer.to_dict()))
        assert dumped["traces"][0]["spans"][0]["attrs"] == {"records": 4}


# ---------------------------------------------------------------------------
# context + engine integration
# ---------------------------------------------------------------------------


class TestObsContext:
    def test_set_clock_rebinds_all_pillars(self):
        obs = ObsContext()
        obs.set_clock(lambda: 42.0)
        assert obs.metrics.clock() == 42.0
        assert obs.logger.clock() == 42.0
        assert obs.snapshot()["sim_time_s"] == 42.0

    def test_simulator_owns_obs_and_counts_events(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert sim.obs.metrics.counter("sim.events_total").value == 2.0
        assert sim.obs.metrics.gauge("sim.queue_depth").value == 0.0
        assert sim.obs.metrics.gauge("sim.events_per_sim_s").value == pytest.approx(1.0)
        # Metrics clock is the simulated clock.
        assert sim.obs.metrics.snapshot()["sim_time_s"] == 2.0

    def test_entity_log_routes_to_structured_logger(self):
        sim = Simulator()
        entity = Entity(sim, "ue7")
        sim.schedule(1.5, lambda: entity.log("attached", rnti=9))
        sim.run()
        assert entity.logs == [(1.5, "attached")]
        records = sim.obs.logger.records_for("ue7")
        assert len(records) == 1
        assert records[0].sim_time == 1.5
        assert dict(records[0].fields) == {"rnti": 9}


# ---------------------------------------------------------------------------
# incident latency edge cases + loop tracing
# ---------------------------------------------------------------------------


def _anomaly(detected_at=5.0, newest_ts=4.6, indices=(0, 1)):
    return AnomalyEvent(
        detected_at=detected_at,
        session_id=1,
        rnti=17,
        s_tmsi=None,
        score=0.9,
        threshold=0.5,
        record_indices=tuple(indices),
        newest_record_ts=newest_ts,
    )


class _FakeVerdict:
    """Duck-typed VerdictEvent: only the fields the pipeline touches."""

    def __init__(self, anomaly, completed_at, confirmed=False):
        self.anomaly = anomaly
        self.completed_at = completed_at
        self.confirmed = confirmed


class _StubRecord:
    def __init__(self, timestamp):
        self.timestamp = timestamp


class _StubMobiWatch:
    """Just enough MobiWatch surface for the pipeline."""

    def __init__(self):
        self.anomalies = []
        self.series = [_StubRecord(4.0), _StubRecord(4.6)]
        self._arrivals = {1: 4.7}
        self.now = 0.0

    def arrival_time(self, index):
        return self._arrivals.get(index)


class _StubAnalyzer:
    def __init__(self):
        self.human_review_queue = []
        self.queries_suppressed = 0
        self._callback = None

    def on_verdict(self, callback):
        self._callback = callback

    def emit(self, event):
        self._callback(event)


def _stub_pipeline():
    mobiwatch = _StubMobiWatch()
    analyzer = _StubAnalyzer()
    pipeline = ClosedLoopPipeline(mobiwatch, analyzer, XsecConfig())
    return pipeline, mobiwatch, analyzer


class TestIncidentLatency:
    def test_detection_latency(self):
        incident = IncidentRecord(anomaly=_anomaly(detected_at=5.0, newest_ts=4.6))
        assert incident.detection_latency_s == pytest.approx(0.4)

    def test_no_verdict_means_no_explanation_latency(self):
        incident = IncidentRecord(anomaly=_anomaly())
        assert incident.explanation_latency_s is None
        assert incident.response_latency_s is None

    def test_verdict_without_action(self):
        anomaly = _anomaly(detected_at=5.0)
        incident = IncidentRecord(
            anomaly=anomaly, verdict=_FakeVerdict(anomaly, completed_at=8.0)
        )
        assert incident.explanation_latency_s == pytest.approx(3.0)
        assert incident.response_latency_s is None

    def test_action_latency(self):
        anomaly = _anomaly(detected_at=5.0)
        incident = IncidentRecord(anomaly=anomaly, action="release_ue", action_at=9.5)
        assert incident.response_latency_s == pytest.approx(4.5)


class TestPipelineIncidents:
    def test_poll_anomalies_is_idempotent(self):
        pipeline, mobiwatch, _ = _stub_pipeline()
        mobiwatch.anomalies.append(_anomaly())
        pipeline.poll_anomalies()
        pipeline.poll_anomalies()
        assert len(pipeline.incidents) == 1

    def test_verdict_before_poll_does_not_duplicate(self):
        """A verdict arriving before poll_anomalies() must dedup by anomaly."""
        pipeline, mobiwatch, analyzer = _stub_pipeline()
        anomaly = _anomaly()
        mobiwatch.anomalies.append(anomaly)
        analyzer.emit(_FakeVerdict(anomaly, completed_at=8.0))
        pipeline.poll_anomalies()
        assert len(pipeline.incidents) == 1
        assert pipeline.incidents[0].verdict is not None
        summary = pipeline.summary()
        assert summary["anomalies"] == 1
        assert summary["verdicts"] == 1

    def test_verdict_for_unseen_anomaly_creates_incident(self):
        pipeline, _, analyzer = _stub_pipeline()
        anomaly = _anomaly()
        analyzer.emit(_FakeVerdict(anomaly, completed_at=7.0))
        assert len(pipeline.incidents) == 1
        assert pipeline.incidents[0].explanation_latency_s == pytest.approx(2.0)

    def test_latency_report_skips_missing_stages(self):
        pipeline, mobiwatch, analyzer = _stub_pipeline()
        mobiwatch.anomalies.append(_anomaly())  # no verdict
        confirmed = _anomaly(detected_at=6.0, newest_ts=5.5)
        mobiwatch.anomalies.append(confirmed)
        analyzer.emit(_FakeVerdict(confirmed, completed_at=9.0))
        report = pipeline.latency_report()
        assert report["detection_s"]["n"] == 2
        assert report["explanation_s"]["n"] == 1
        assert report["response_s"] == {"n": 0}


class TestLoopTracing:
    def test_loop_tracer_reconstructs_all_stages(self):
        pipeline, mobiwatch, analyzer = _stub_pipeline()
        anomaly = _anomaly(detected_at=5.0, newest_ts=4.6, indices=(0, 1))
        mobiwatch.anomalies.append(anomaly)
        analyzer.emit(_FakeVerdict(anomaly, completed_at=8.0))
        incident = pipeline.incidents[0]
        incident.action = "release_ue"
        incident.action_at = 8.2

        tracer = pipeline.loop_tracer()
        assert len(tracer.traces) == 1
        spans = {s.name: s for s in tracer.traces[0].spans}
        assert set(spans) == set(LOOP_STAGES)
        assert spans["capture"].duration_s == pytest.approx(0.6)  # 4.0 -> 4.6
        assert spans["indication"].duration_s == pytest.approx(0.1)  # 4.6 -> 4.7
        assert spans["sdl_write"].duration_s == 0.0
        assert spans["detection"].duration_s == pytest.approx(0.3)  # 4.7 -> 5.0
        assert spans["verdict"].duration_s == pytest.approx(3.0)
        assert spans["action"].duration_s == pytest.approx(0.2)

    def test_loop_tracer_without_arrival_falls_back(self):
        pipeline, mobiwatch, _ = _stub_pipeline()
        mobiwatch._arrivals = {}  # e.g. records ingested before instrumentation
        mobiwatch.anomalies.append(_anomaly(detected_at=5.0, newest_ts=4.6))
        spans = {s.name: s for s in pipeline.loop_tracer().traces[0].spans}
        assert "indication" not in spans
        assert spans["detection"].start == 4.6  # falls back to newest capture

    def test_stage_breakdown_orders_by_loop(self):
        pipeline, mobiwatch, analyzer = _stub_pipeline()
        anomaly = _anomaly()
        mobiwatch.anomalies.append(anomaly)
        analyzer.emit(_FakeVerdict(anomaly, completed_at=8.0))
        breakdown = pipeline.stage_breakdown()
        assert list(breakdown) == [
            s for s in LOOP_STAGES if s in breakdown
        ]
        assert breakdown["detection"]["max"] < 1.0
        text = pipeline.render_stage_breakdown()
        assert "detection" in text and "verdict" in text


# ---------------------------------------------------------------------------
# E2 byte accounting
# ---------------------------------------------------------------------------


class TestE2PduBytes:
    """``e2.pdu_bytes_total{direction}`` is what crossed the E2 link: the
    registry alone yields E2 bytes per record, the bounded end-to-end metric
    the composed benchmark otherwise measures with a probe of its own."""

    NODE_TO_RIC = ("E2SetupRequest", "RICSubscriptionResponse", "RICIndication", "RICControlAck")

    @staticmethod
    def _live_run(config=None):
        from tests.test_wire_path import LiveRun

        seen = []

        def five_ues_and_a_probe(xsec):
            for index, profile in enumerate(("galaxy_a22", "galaxy_a53", "pixel5")):
                ue = xsec.net.add_ue(profile)
                xsec.net.sim.schedule(1.0 + 0.7 * index, ue.start_session)
            xsec.e2.add_tap(lambda ts, iface, message: seen.append(message.to_wire()))

        run = LiveRun("bts_dos", config=config, before_run=five_ues_and_a_probe)
        return run.xsec, seen

    def _sent(self, xsec):
        metrics = xsec.obs.metrics
        return {
            direction: metrics.counter(
                "e2.pdu_bytes_total", labels={"direction": direction}
            ).value
            for direction in ("node_to_ric", "ric_to_node")
        }

    def test_counters_equal_what_a_tap_on_the_link_saw(self):
        from repro.oran.e2ap import E2apPdu

        xsec, seen = self._live_run()
        assert len(xsec.net.ues) >= 5 and xsec.mobiwatch.records_seen > 100
        by_direction = {"node_to_ric": 0, "ric_to_node": 0}
        for payload in seen:
            name = E2apPdu.from_wire(payload).pdu_name
            direction = "node_to_ric" if name in self.NODE_TO_RIC else "ric_to_node"
            by_direction[direction] += len(payload)
        assert self._sent(xsec) == by_direction
        assert by_direction["ric_to_node"] > 0  # subscriptions, control requests
        # The same number through the snapshot, with nothing but the registry.
        families = xsec.obs.snapshot()["metrics"]
        e2_bytes = sum(row["value"] for row in families["e2.pdu_bytes_total"]["series"])
        records = families["mobiwatch.records_total"]["series"][0]["value"]
        assert e2_bytes == sum(map(len, seen)) and records == xsec.mobiwatch.records_seen
        # Names as symbols: the whole E2 link costs well under 80 B a record.
        assert 30 < e2_bytes / records < 80
