"""Set-up, passes and correctness checks of the composed benchmark.

A *pass* builds a fresh ``SixGXSec``, deploys the detector trained in
set-up, drives the workload's traffic to ``duration + drain`` sim-s and
closes the deployment.  Passes of one run are deterministic replicas:
everything counted or timed in simulated seconds must come out identical
in each (:func:`check_passes` fails the run otherwise); only CPU time
varies, and is reported as the median over passes, in reference
CPU-seconds (speed.py).
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import struct
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Optional

from repro.core.framework import SixGXSec
from repro.core.llm_analyzer import SDL_VERDICT_NS
from repro.core.mobiwatch import SDL_TELEMETRY_NS
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.ran.network import FiveGNetwork, NetworkConfig
from repro.telemetry.collector import MobiFlowCollector
from repro.telemetry.features import WindowedDataset

from .metrics import NEAR_RT_BUDGET_S
from .speed import SpeedProbe
from .trace import Tracer, inclusive_cpu_s
from .workloads import TRAIN_DURATION_S, Workload

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)

# A pass is driven in slices of this many sim-s, with one call of the
# speed probe (speed.py) between slices.
SLICE_SIM_S = 0.5
# Probe calls between the steps of set-up.
SETUP_PROBE_CALLS = 50
# Sample RSS every this many envelopes crossing E2 (and at pass ends).
RSS_SAMPLE_EVERY = 100


def rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


# -- set-up -------------------------------------------------------------------


@dataclass
class Capture:
    """A recorded run of a workload's traffic on a bare RAN (no RIC)."""

    # Decoded F1AP/NGAP captures, [(timestamp, interface, message)].
    messages: list
    # The armed attacks of the recording run: ground truth for the replay.
    attacks: list
    # MobiFlow records an offline parse of the capture yields.
    records: int


def network_config(workload: Workload, seed: int) -> NetworkConfig:
    return NetworkConfig(seed=seed * 10 + 1, channel=workload.channel)


def record_capture(workload: Workload, seed: int, scale: float = 1.0) -> Capture:
    net = FiveGNetwork(network_config(workload, seed))
    attacks = workload.traffic(net, scale)
    net.run(until=workload.duration_s * scale + workload.drain_s)
    messages = [(r.timestamp, r.interface, r.decode()) for r in net.pcap]
    return Capture(messages, attacks, len(MobiFlowCollector().parse_stream(net.pcap)))


@dataclass
class Prepared:
    """What set-up hands to every pass of a run."""

    workload: Workload
    seed: int
    scale: float
    speed: SpeedProbe
    detector: object
    # None = driven live.
    capture: Optional[Capture]
    # Wall-seconds of each set-up step, and the box speed over all of them.
    timings: dict
    setup_speed: float

    @property
    def until(self) -> float:
        return self.workload.duration_s * self.scale + self.workload.drain_s

    @property
    def setup_s(self) -> float:
        """Wall-seconds of the set-up steps, as the reference box would have
        taken them (speed.py)."""
        return sum(self.timings.values()) * self.setup_speed


def prepare(
    workload: Workload, seed: int, speed: SpeedProbe, scale: float = 1.0
) -> Prepared:
    """Benign dataset -> features -> trained detector (-> recorded capture)."""
    config = workload.config()
    timings: dict = {}
    speed_mark = speed.mark()

    def step(name: str, start: float) -> None:
        timings[name] = perf_counter() - start
        speed(SETUP_PROBE_CALLS)

    speed(SETUP_PROBE_CALLS)
    start = perf_counter()
    benign = generate_benign_dataset(
        BenignDatasetConfig(seed=seed * 10 + 2, duration_s=TRAIN_DURATION_S * scale)
    )
    step("dataset_s", start)

    start = perf_counter()
    # The offline genfast lane, while the flag (and so the argument) exists.
    genfast = getattr(config, "genfast", None)
    lane = {"vectorized": True} if getattr(genfast, "vectorized_features", False) else {}
    windows = WindowedDataset.from_series(
        benign.series, config.spec, config.window, **lane
    ).windows
    step("featurize_s", start)

    start = perf_counter()
    with SixGXSec(config, network_config=NetworkConfig(seed=seed * 10 + 3)) as trainer:
        detector = trainer.train_from_benign(windows)
    step("train_s", start)

    start = perf_counter()
    capture = record_capture(workload, seed, scale) if workload.replay else None
    step("capture_s", start)
    return Prepared(
        workload, seed, scale, speed, detector, capture, timings,
        speed.speed_since(speed_mark),
    )  # fmt: skip


# -- one pass -----------------------------------------------------------------


class _Replayer:
    """Feeds a recorded capture to the collector at the recorded times.

    One pending event at a time (all captures of one instant per event),
    so a replay adds neither a 20k-entry heap nor per-capture closures to
    the simulator it is not meant to measure.
    """

    def __init__(self, xsec: SixGXSec, capture: list) -> None:
        self._sim = xsec.net.sim
        self._collector = xsec.agent.collector
        self._capture = capture
        self._next = 0
        if capture:
            self._sim.schedule_at(capture[0][0], self._fire, name="replay")

    def _fire(self) -> None:
        capture, index = self._capture, self._next
        now = capture[index][0]
        while index < len(capture) and capture[index][0] == now:
            self._collector.on_capture(*capture[index])
            index += 1
        self._next = index
        if index < len(capture):
            self._sim.schedule_at(capture[index][0], self._fire, name="replay")


class _E2Probe:
    """Link tap on ``xsec.e2``: keeps every envelope, and samples RSS.

    The envelopes are only encoded (to count their bytes) after the pass,
    outside the timed region.
    """

    def __init__(self) -> None:
        self.envelopes: list = []
        self.rss_peak_mb = 0.0

    def __call__(self, timestamp, interface, message) -> None:
        self.envelopes.append(message)
        if len(self.envelopes) % RSS_SAMPLE_EVERY == 0:
            self.sample_rss()

    def sample_rss(self) -> None:
        self.rss_peak_mb = max(self.rss_peak_mb, rss_mb())


@dataclass
class PassResult:
    # Measured CPU- and wall-seconds of the pass, the speed probe's excluded.
    cpu_s: float
    wall_s: float
    # Box speed over the pass (speed.py); cpu_s * speed = reference CPU-s.
    speed: float
    deploy_s: float
    rss_peak_mb: float
    # Everything that must repeat exactly from pass to pass.
    exact: dict
    # Sim-time samples (also exact, kept apart because they are lists).
    samples: dict
    problems: list
    layers: Optional[dict] = None
    tick_cpu_s: Optional[list] = None
    spans: int = 0

    @property
    def reference_cpu_s(self) -> float:
        return self.cpu_s * self.speed


def run_pass(
    prepared: Prepared, tracer: Optional[Tracer] = None, pass_index: int = 0
) -> PassResult:
    """Build, deploy, drive, close; then read the outcome from outside."""
    workload = prepared.workload
    speed = prepared.speed
    gc.collect()
    probe = _E2Probe()
    probe.sample_rss()
    error = None
    if tracer is not None:
        tracer.begin_pass(pass_index)
        tracer.install()
    cpu_s = wall_s = 0.0
    speed_mark = speed.mark()
    wall0, cpu0 = perf_counter(), process_time()

    def lap() -> None:
        """Close a timed stretch, let the speed probe run, open the next."""
        nonlocal cpu_s, wall_s, wall0, cpu0
        cpu_s += process_time() - cpu0
        wall_s += perf_counter() - wall0
        speed()
        wall0, cpu0 = perf_counter(), process_time()

    try:
        xsec = SixGXSec(
            workload.config(), network_config=network_config(workload, prepared.seed)
        )
        xsec.deploy_detector(prepared.detector)
        deploy_s = perf_counter() - wall0
        xsec.e2.add_tap(probe)
        if prepared.capture is not None:
            attacks = prepared.capture.attacks
            _Replayer(xsec, prepared.capture.messages)
        else:
            attacks = workload.traffic(xsec.net, prepared.scale)
        lap()
        try:
            for edge in range(1, math.ceil(prepared.until / SLICE_SIM_S) + 1):
                xsec.run(until=min(edge * SLICE_SIM_S, prepared.until))
                lap()
        except Exception as exc:  # the pass's remaining offered work is lost
            error = f"pass raised {type(exc).__name__}: {exc}"
        finally:
            xsec.close()
            lap()
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe.sample_rss()
    exact, samples, problems = observe(xsec, attacks, probe, prepared)
    if error:
        problems.insert(0, error)
    result = PassResult(
        cpu_s, wall_s, speed.speed_since(speed_mark), deploy_s,
        probe.rss_peak_mb, exact, samples, problems,
    )  # fmt: skip
    if tracer is not None:
        result.layers = tracer.summarize()
        result.tick_cpu_s = inclusive_cpu_s(
            tracer.spans, tracer.boundaries, "MobiWatchXApp.on_indication"
        )
        result.spans = len(tracer.spans)
        problems.extend(check_trace(result.layers, exact))
    return result


# -- reading a finished pass from outside -------------------------------------


def _counter_total(snapshot: dict, name: str) -> float:
    family = snapshot["metrics"].get(name)
    return sum(s["value"] for s in family["series"]) if family else 0.0


def alarm_digest(anomalies) -> str:
    """Digest of the AnomalyEvent stream: session, record indices, score bits."""
    digest = hashlib.sha256()
    for event in anomalies:
        digest.update(struct.pack(">qd", event.session_id, event.score))
        digest.update(struct.pack(f">{len(event.record_indices)}q", *event.record_indices))
    return digest.hexdigest()


def observe(xsec: SixGXSec, attacks: list, probe: _E2Probe, prepared: Prepared):
    """Counts, sim-time samples and ledger checks of one finished pass."""
    mobiwatch, analyzer, pipeline = xsec.mobiwatch, xsec.analyzer, xsec.pipeline
    pipeline.poll_anomalies()
    incidents = pipeline.incidents
    series = mobiwatch.series
    emitted = len(xsec.agent.collector.series)
    offered = max(emitted, prepared.capture.records if prepared.capture else 0)
    ingested = len(series)
    alarms = len(mobiwatch.anomalies)
    suppressed = analyzer.queries_suppressed
    queries = alarms - suppressed
    verdicts = len(analyzer.verdicts)

    def malicious(anomaly) -> bool:
        return any(
            attack.is_malicious(series[i])
            for i in anomaly.record_indices
            for attack in attacks
        )

    detected = sum(
        any(
            incident.anomaly.rnti in attack.malicious_rntis
            or attack.in_window(incident.anomaly.newest_record_ts)
            for incident in incidents
        )
        for attack in attacks
    )
    exact = {
        "records_offered": offered,
        "records": ingested,
        "windows": mobiwatch.windows_scored,
        "alarms": alarms,
        "alarm_digest": alarm_digest(mobiwatch.anomalies),
        "benign_alarms": sum(not malicious(a) for a in mobiwatch.anomalies),
        "near_rt_misses": sum(i.detection_latency_s > NEAR_RT_BUDGET_S for i in incidents),
        "suppressed": suppressed,
        "queries": queries,
        "verdicts": verdicts,
        "unanswered": queries - verdicts,
        "actions": len(pipeline.actions_taken),
        "attacks_armed": len(attacks),
        "attacks_detected": detected,
        "indications": xsec.agent.indications_sent,
        "e2_envelopes": len(probe.envelopes),
        "e2_bytes": sum(len(message.to_wire()) for message in probe.envelopes),
        "sim_events": xsec.net.sim.events_processed,
        "sim_s": xsec.net.sim.now,
    }
    samples = {
        "ingest_latency": [
            mobiwatch.arrival_time(i) - series[i].timestamp for i in range(ingested)
        ],
        "detect_latency": [i.detection_latency_s for i in incidents],
        "verdict_latency": [
            i.explanation_latency_s for i in incidents if i.verdict is not None
        ],
        "loop_latency": [
            i.action_at - i.anomaly.newest_record_ts
            for i in incidents
            if i.action_at is not None
        ],
    }

    # Ledgers: outside counts against each other and the program's own.
    snapshot = xsec.obs.snapshot()
    telemetry_keys = len(xsec.ric.sdl.keys(SDL_TELEMETRY_NS))
    verdict_keys = len(xsec.ric.sdl.keys(SDL_VERDICT_NS))
    ledger = [
        ("collector records == capture records", emitted, offered),
        ("collector records == mobiwatch records", emitted, ingested),
        ("mobiwatch records == SDL telemetry keys", ingested, telemetry_keys),
        ("mobiwatch.records_seen", mobiwatch.records_seen, ingested),
        ("obs mobiwatch.records_total", _counter_total(snapshot, "mobiwatch.records_total"), ingested),
        ("obs e2agent.indications_total", _counter_total(snapshot, "e2agent.indications_total"), exact["indications"]),
        ("obs mobiwatch.anomalies_total", _counter_total(snapshot, "mobiwatch.anomalies_total"), alarms),
        ("obs llm.queries_suppressed_total", _counter_total(snapshot, "llm.queries_suppressed_total"), suppressed),
        ("obs llm.verdicts_total", _counter_total(snapshot, "llm.verdicts_total"), verdicts),
        ("verdicts == SDL verdict keys", verdicts, verdict_keys),
        ("incidents == alarms", len(incidents), alarms),
    ]
    fast = analyzer.ledger()
    if fast["offered"]:
        # llmfast submit path: its own five-term ledger must balance, and
        # what it calls offered is what we call queries.
        ledger.append(("llmfast offered == queries", fast["offered"], queries))
        ledger.append(
            (
                "llmfast ledger balances",
                fast["analyzed"] + fast["coalesced"] + fast["cache_hits"]
                + fast["shed"] + fast["pending"],
                fast["offered"],
            )
        )
    else:
        ledger.append(("analyzer queries_sent == queries", analyzer.queries_sent, queries))
    problems = [
        f"ledger: {name}: {left} != {right}" for name, left, right in ledger if left != right
    ]
    if exact["unanswered"] < 0:
        problems.append(f"ledger: more verdicts ({verdicts}) than queries ({queries})")
    return exact, samples, problems


def check_trace(layers: dict, exact: dict) -> list:
    """Counts taken at the wrapped boundaries against the outside counts."""
    calls = {
        name: entry["calls"]
        for layer in layers.values()
        for name, entry in layer["by_boundary"].items()
    }
    pairs = [
        ("e2_encode calls == indications", layers["e2_encode"]["calls"], exact["indications"]),
        ("on_indication calls == indications", calls["MobiWatchXApp.on_indication"], exact["indications"]),
        ("e2_decode calls == indications", layers["e2_decode"]["calls"], exact["indications"]),
        ("featurize calls == records", layers["featurize"]["calls"], exact["records"]),
        ("score windows == windows scored", layers["score"]["work"], exact["windows"]),
        ("analyzer on_message == alarms", calls["LlmAnalyzerXApp.on_message"], exact["alarms"]),
        ("context calls == queries", layers["context"]["calls"], exact["queries"]),
        ("action calls == actions", layers["action"]["calls"], exact["actions"]),
    ]
    return [
        f"trace: {name}: {left} != {right}" for name, left, right in pairs if left != right
    ]


def check_passes(passes: list) -> list:
    """Pass-to-pass identity of everything that is not CPU time."""
    problems = []
    first = passes[0]
    for index, other in enumerate(passes[1:], start=1):
        for key, value in first.exact.items():
            if other.exact[key] != value:
                problems.append(
                    f"pass {index} differs from pass 0 in {key}: {other.exact[key]} != {value}"
                )
        for key, value in first.samples.items():
            if other.samples[key] != value:
                problems.append(f"pass {index} differs from pass 0 in {key} samples")
    return problems
