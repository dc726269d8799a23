"""Experiment P2 — pipeline scalability with traffic load (§1 challenge).

The paper names scalability as a core challenge for cellular edge
analytics. This experiment drives the full live pipeline at increasing
traffic multipliers and measures whether the near-real-time budget holds:
telemetry throughput, detection latency, alarm rate on purely benign
traffic, and the wall-clock cost per simulated second.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import XsecConfig
from repro.core.framework import SixGXSec
from repro.experiments.colosseum import ColosseumScenario, run_scenario
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.experiments.reporting import render_table
from repro.ran.network import NetworkConfig

BASE_MIX = (("pixel5", 1), ("pixel6", 1), ("galaxy_a53", 1), ("oai_ue", 2))


@dataclass
class ScaleConfig:
    multipliers: tuple = (1, 2, 4)
    live_duration_s: float = 60.0
    train_epochs: int = 30
    seed: int = 51
    benign: BenignDatasetConfig = field(default_factory=BenignDatasetConfig)


@dataclass
class ScalePoint:
    multiplier: int
    ues: int
    records: int
    windows_scored: int
    alarms: int
    detection_mean_s: Optional[float]
    detection_max_s: Optional[float]
    # Tail latency from the repro.obs histograms: detection (newest flagged
    # record -> alarm) and ingest (capture -> xApp ingest). Means hide the
    # tail; the near-RT budget is about the worst incident, not the average.
    detection_p95_s: Optional[float] = None
    detection_p99_s: Optional[float] = None
    ingest_p50_s: Optional[float] = None
    ingest_p95_s: Optional[float] = None
    ingest_p99_s: Optional[float] = None
    wall_clock_s: float = 0.0
    # Compact repro.obs summary of the point's run (events, messages, I/O).
    metrics: dict = field(default_factory=dict)

    @property
    def alarm_rate(self) -> float:
        return self.alarms / self.windows_scored if self.windows_scored else 0.0

    def row(self) -> list:
        def ms(value: Optional[float]) -> str:
            return "-" if value is None else f"{1000 * value:.0f}ms"

        return [
            f"x{self.multiplier}",
            str(self.ues),
            str(self.records),
            str(self.windows_scored),
            f"{100 * self.alarm_rate:.1f}%",
            ms(self.detection_mean_s),
            ms(self.detection_p95_s),
            ms(self.detection_p99_s),
            ms(self.detection_max_s),
            ms(self.ingest_p50_s),
            ms(self.ingest_p99_s),
            f"{self.wall_clock_s:.1f}s",
        ]


@dataclass
class ScaleResult:
    points: list

    def render(self) -> str:
        return render_table(
            [
                "Load",
                "UEs",
                "Records",
                "Windows",
                "AlarmRate",
                "DetMean",
                "DetP95",
                "DetP99",
                "DetMax",
                "IngP50",
                "IngP99",
                "Wall",
            ],
            [point.row() for point in self.points],
            title="P2 — pipeline scalability over traffic load (benign only)",
        )


def run_scale_experiment(config: Optional[ScaleConfig] = None) -> ScaleResult:
    config = config or ScaleConfig()
    # Train once; every load point serves the same model.
    xsec_config = XsecConfig(train_epochs=config.train_epochs)
    benign = generate_benign_dataset(config.benign)
    labeled = benign.labeled(xsec_config.spec, xsec_config.window, "benign")
    template = SixGXSec(xsec_config, network_config=NetworkConfig(seed=config.seed))
    detector = template.train_from_benign(labeled.windowed.windows)

    points = []
    for multiplier in config.multipliers:
        xsec = SixGXSec(
            xsec_config, network_config=NetworkConfig(seed=config.seed + multiplier)
        )
        xsec.deploy_detector(detector)
        mix = tuple((profile, count * multiplier) for profile, count in BASE_MIX)
        scenario = ColosseumScenario(
            duration_s=config.live_duration_s,
            ue_mix=mix,
            mean_think_time_s=6.0,
        )
        run_scenario(xsec.net, scenario, run=False)
        # perf_counter: monotonic, immune to wall-clock adjustments.
        started = time.perf_counter()
        xsec.run(until=config.live_duration_s + 20.0)
        wall = time.perf_counter() - started
        latency = xsec.pipeline.latency_report()["detection_s"]
        sim = xsec.net.sim
        detection_hist = xsec.obs.metrics.histogram("mobiwatch.detection_latency_s")
        ingest_hist = xsec.obs.metrics.histogram("mobiwatch.capture_to_ingest_s")
        points.append(
            ScalePoint(
                multiplier=multiplier,
                ues=len(xsec.net.ues),
                records=xsec.mobiwatch.records_seen,
                windows_scored=xsec.mobiwatch.windows_scored,
                alarms=len(xsec.mobiwatch.anomalies),
                detection_mean_s=latency.get("mean"),
                detection_max_s=latency.get("max"),
                detection_p95_s=detection_hist.percentile(95),
                detection_p99_s=detection_hist.percentile(99),
                ingest_p50_s=ingest_hist.percentile(50),
                ingest_p95_s=ingest_hist.percentile(95),
                ingest_p99_s=ingest_hist.percentile(99),
                wall_clock_s=wall,
                metrics={
                    "sim_events": sim.events_processed,
                    "sim_events_per_wall_s": sim.events_processed / wall if wall else 0.0,
                    "rmr_messages": xsec.ric.rmr.messages_routed,
                    "sdl_writes": xsec.ric.sdl.writes,
                    "indications": xsec.agent.indications_sent,
                    "capture_to_ingest_s": xsec.obs.metrics.histogram(
                        "mobiwatch.capture_to_ingest_s"
                    ).stats(),
                },
            )
        )
    return ScaleResult(points=points)
