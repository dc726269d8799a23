"""Dataset collection matching the paper's §4 methodology.

- **Benign dataset**: traffic from the four commodity handsets plus
  Colosseum OAI soft-UEs; >100 UE sessions; mild channel noise (RRC
  retransmissions are the paper's main false-positive source).
- **Attack dataset**: a benign background with all five attacks staggered
  through the capture, several instances per attack type (Figure 4 shows
  repeated instances per type). Ground-truth labels come from the attack
  objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.attacks import (
    BlindDosAttack,
    BtsDosAttack,
    DownlinkIdExtractionAttack,
    NullCipherAttack,
    UplinkIdExtractionAttack,
)
from repro.experiments.colosseum import ColosseumScenario, ScenarioStats, run_scenario
from repro.ran.channel import ChannelConfig
from repro.ran.network import FiveGNetwork, NetworkConfig
from repro.telemetry.collector import MobiFlowCollector
from repro.telemetry.dataset import LabeledDataset
from repro.telemetry.features import FeatureSpec
from repro.telemetry.mobiflow import TelemetrySeries

# Mild noise, as on the paper's real-radio testbed (§4.1 attributes the
# false positives to RRC retransmissions and network interference).
DEFAULT_CHANNEL = ChannelConfig(duplicate_prob=0.008, setup_loss_prob=0.004)


@dataclass
class BenignDatasetConfig:
    """Benign collection knobs (defaults sized like the paper's dataset)."""

    seed: int = 1
    duration_s: float = 240.0
    ue_mix: tuple = (
        ("pixel5", 2),
        ("pixel6", 2),
        ("galaxy_a22", 2),
        ("galaxy_a53", 2),
        ("oai_ue", 6),
    )
    mean_think_time_s: float = 5.0
    channel: ChannelConfig = field(default_factory=lambda: DEFAULT_CHANNEL)


@dataclass
class AttackDatasetConfig:
    """Attack collection knobs: benign background + staggered attacks."""

    seed: int = 2
    duration_s: float = 150.0
    background_ue_mix: tuple = (("pixel5", 1), ("galaxy_a53", 1), ("oai_ue", 2))
    mean_think_time_s: float = 6.0
    channel: ChannelConfig = field(default_factory=lambda: DEFAULT_CHANNEL)
    # Instances per attack type (Figure 4 shows several per type).
    bts_dos_instances: int = 3
    blind_dos_instances: int = 2
    uplink_id_instances: int = 2
    downlink_id_instances: int = 2
    null_cipher_instances: int = 2


@dataclass
class CollectedDataset:
    """A finished capture: network, telemetry, attacks, scenario stats."""

    net: FiveGNetwork
    series: TelemetrySeries
    attacks: list
    stats: ScenarioStats

    def labeled(
        self,
        spec: FeatureSpec,
        window: int,
        name: str,
        mode: str = "session",
    ) -> LabeledDataset:
        return LabeledDataset.build(
            name, self.series, spec, window, attacks=self.attacks, mode=mode
        )


def generate_benign_dataset(config: Optional[BenignDatasetConfig] = None) -> CollectedDataset:
    """Collect a benign capture (paper: >100 UE sessions, 4 handset models)."""
    config = config or BenignDatasetConfig()
    net = FiveGNetwork(NetworkConfig(seed=config.seed, channel=config.channel))
    scenario = ColosseumScenario(
        duration_s=config.duration_s,
        ue_mix=config.ue_mix,
        mean_think_time_s=config.mean_think_time_s,
    )
    stats = run_scenario(net, scenario)
    series = MobiFlowCollector().parse_stream(net.pcap)
    return CollectedDataset(net=net, series=series, attacks=[], stats=stats)


def generate_attack_dataset(config: Optional[AttackDatasetConfig] = None) -> CollectedDataset:
    """Collect a capture with all five attacks mixed into benign traffic."""
    config = config or AttackDatasetConfig()
    net = FiveGNetwork(NetworkConfig(seed=config.seed, channel=config.channel))
    scenario = ColosseumScenario(
        duration_s=config.duration_s,
        ue_mix=config.background_ue_mix,
        mean_think_time_s=config.mean_think_time_s,
    )
    stats = run_scenario(net, scenario, run=False)
    attacks: list = []
    timeline = net.sim.rng.stream("attack.timeline")

    # Victims for the targeted attacks register on their own schedule so the
    # MiTM window can catch their registration.
    def add_victim(start: float):
        victim = net.add_ue("pixel6", name=f"victim-{start:.0f}")
        net.sim.schedule(start, victim.start_session)
        stats.ues.append(victim)
        return victim

    cursor = 8.0
    for _ in range(config.bts_dos_instances):
        attacks.append(
            BtsDosAttack(net, start_time=cursor, connections=10, interval_s=0.08)
        )
        cursor += 12.0 + timeline.uniform(0.0, 3.0)
    for _ in range(config.blind_dos_instances):
        victim = add_victim(cursor - 4.0)
        attacks.append(
            BlindDosAttack(net, victim=victim, start_time=cursor, replays=6, interval_s=2.0)
        )
        cursor += 16.0 + timeline.uniform(0.0, 3.0)
    for _ in range(config.uplink_id_instances):
        victim = add_victim(cursor + 1.0)
        attacks.append(
            UplinkIdExtractionAttack(net, victim=victim, start_time=cursor, duration_s=8.0)
        )
        cursor += 10.0 + timeline.uniform(0.0, 3.0)
    for _ in range(config.downlink_id_instances):
        victim = add_victim(cursor + 1.0)
        attacks.append(
            DownlinkIdExtractionAttack(net, victim=victim, start_time=cursor, duration_s=8.0)
        )
        cursor += 10.0 + timeline.uniform(0.0, 3.0)
    for _ in range(config.null_cipher_instances):
        attacks.append(NullCipherAttack(net, start_time=cursor))
        cursor += 8.0 + timeline.uniform(0.0, 3.0)

    for attack in attacks:
        attack.arm()
    net.run(until=max(config.duration_s, cursor) + 30.0)
    series = MobiFlowCollector().parse_stream(net.pcap)
    return CollectedDataset(net=net, series=series, attacks=attacks, stats=stats)
