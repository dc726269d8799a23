"""Full live-testbed assembly (§4 Testbed Setup) and experiment P1.

Builds the complete Figure 3 deployment — simulated OAI-style network, E2
RIC agent, near-RT RIC with MobiWatch + LLM analyzer, SMO training — runs
benign traffic and attacks *live*, and measures the end-to-end control
loop: telemetry capture -> MobiWatch detection -> LLM verdict -> E2
control action. The near-RT control loop must complete within 10 ms - 1 s
(§2.1); the LLM stage deliberately sits outside that budget (it is the
non-real-time expert the nRT pre-filter shields).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.attacks import BlindDosAttack, BtsDosAttack, NullCipherAttack
from repro.core.config import XsecConfig
from repro.core.framework import SixGXSec
from repro.experiments.colosseum import ColosseumScenario, run_scenario
from repro.experiments.datasets import BenignDatasetConfig, generate_benign_dataset
from repro.ran.network import NetworkConfig


@dataclass
class LiveTestbedConfig:
    xsec: XsecConfig = field(default_factory=lambda: XsecConfig(auto_release=True, auto_blocklist=True))
    network_seed: int = 42
    benign: BenignDatasetConfig = field(default_factory=BenignDatasetConfig)
    live_duration_s: float = 60.0
    live_ue_mix: tuple = (("pixel5", 1), ("galaxy_a53", 1), ("oai_ue", 1))


@dataclass
class LiveTestbedRun:
    xsec: SixGXSec
    attacks: list
    summary: dict
    latency: dict
    # repro.obs artifacts: per-stage loop latency + full metrics snapshot.
    stage_breakdown: dict = field(default_factory=dict)
    metrics_snapshot: dict = field(default_factory=dict)

    def render_stage_breakdown(self) -> str:
        return self.xsec.pipeline.render_stage_breakdown()

    def detected_attack_instances(self) -> int:
        """Attack instances whose RNTIs/window overlap a confirmed incident."""
        detected = 0
        for attack in self.attacks:
            hit = any(
                incident.anomaly.rnti in attack.malicious_rntis
                or attack.in_window(incident.anomaly.newest_record_ts)
                for incident in self.xsec.pipeline.incidents
            )
            detected += int(hit)
        return detected


def build_trained_framework(config: Optional[LiveTestbedConfig] = None) -> SixGXSec:
    """Stand up the framework with a detector trained on a benign capture."""
    config = config or LiveTestbedConfig()
    benign = generate_benign_dataset(config.benign)
    labeled = benign.labeled(config.xsec.spec, config.xsec.window, "benign")
    xsec = SixGXSec(config.xsec, network_config=NetworkConfig(seed=config.network_seed))
    try:
        xsec.train_from_benign(labeled.windowed.windows)
    except BaseException:
        xsec.close()
        raise
    return xsec


def run_live_testbed(config: Optional[LiveTestbedConfig] = None) -> LiveTestbedRun:
    """Train, then run live traffic + attacks through the whole pipeline."""
    config = config or LiveTestbedConfig()
    xsec = build_trained_framework(config)
    try:
        xsec.start()
        scenario = ColosseumScenario(
            duration_s=config.live_duration_s,
            ue_mix=config.live_ue_mix,
            mean_think_time_s=8.0,
        )
        run_scenario(xsec.net, scenario, run=False)
        victim = xsec.net.add_ue("pixel6", name="victim")
        xsec.net.sim.schedule(2.0, victim.start_session)
        attacks = [
            BtsDosAttack(xsec.net, start_time=5.0, connections=10, interval_s=0.08),
            BlindDosAttack(xsec.net, victim=victim, start_time=18.0, replays=5),
            NullCipherAttack(xsec.net, start_time=35.0),
        ]
        for attack in attacks:
            attack.arm()
        xsec.run(until=config.live_duration_s + 20.0)
    except BaseException:
        xsec.close()
        raise
    return LiveTestbedRun(
        xsec=xsec,
        attacks=attacks,
        summary=xsec.pipeline.summary(),
        latency=xsec.pipeline.latency_report(),
        stage_breakdown=xsec.pipeline.stage_breakdown(),
        metrics_snapshot=xsec.obs.snapshot(),
    )
