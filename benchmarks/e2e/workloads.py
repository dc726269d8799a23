"""The four workloads of the composed capture->verdict benchmark.

Every size here is a constant: a workload is the same work on every
machine, so a faster box finishes more passes, never bigger ones.  The
sizes are the issue's prototype sizes cut to roughly a fifth, because
the benchmark driver gives each run ``run_seconds`` (BENCHMARK.json) of
measurement and a pass has to fit into it several times.

A workload is (traffic, deployment config).  Traffic is either driven
*live* (UEs and attackers on the deployment's own RAN, so control
actions feed back into later traffic) or *replayed* (an F1AP/NGAP
capture recorded once in set-up and fed to the RIC agent's collector at
the recorded times on a UE-less network, so the RAN simulator costs almost
nothing and cannot move the result).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

from repro.attacks import (
    BlindDosAttack,
    BtsDosAttack,
    DownlinkIdExtractionAttack,
    NullCipherAttack,
    UplinkIdExtractionAttack,
)
from repro.core.config import XsecConfig
from repro.experiments.colosseum import ColosseumScenario, run_scenario
from repro.experiments.datasets import DEFAULT_CHANNEL
from repro.experiments.scale import BASE_MIX
from repro.ran.channel import ChannelConfig
from repro.ran.network import FiveGNetwork

# The detector is trained once per set-up on a benign capture of this
# shape (the paper's fleet mix, shortened: training cost is part of
# ``setup_s`` and set-up runs several times per benchmark run).
TRAIN_DURATION_S = 30.0
TRAIN_EPOCHS = 20

# Flood-bearing workloads keep ``duplicate_prob=0``: DosUe schedules
# ``_next_connection`` twice when the channel duplicates an
# AuthenticationRequest and then raises "session already in progress"
# (see README, "Known hazard").
LIVE_CHANNEL = ChannelConfig(setup_loss_prob=0.004, duplicate_prob=0.0)
CLEAN_CHANNEL = ChannelConfig()


def _fleet(net: FiveGNetwork, multiplier: int, duration_s: float) -> None:
    mix = tuple((profile, count * multiplier) for profile, count in BASE_MIX)
    scenario = ColosseumScenario(
        duration_s=duration_s, ue_mix=mix, mean_think_time_s=6.0
    )
    run_scenario(net, scenario, run=False)


def _victim(net: FiveGNetwork, start: float, tag: str):
    victim = net.add_ue("pixel6", name=f"victim-{tag}")
    net.sim.schedule_at(start, victim.start_session)
    return victim


# -- traffic builders: schedule everything, return the armed attacks ---------

MIXED_FLEET = 2          # BASE_MIX x 2 = 10 UEs
MIXED_DURATION_S = 90.0
MIXED_ROUNDS = 6
MIXED_ROUND_S = 14.0


def mixed_traffic(net: FiveGNetwork, scale: float = 1.0) -> list:
    """Colosseum fleet plus rounds of all five attacks with victims."""
    duration = MIXED_DURATION_S * scale
    _fleet(net, MIXED_FLEET, duration)
    attacks: list = []
    rounds = max(1, round(MIXED_ROUNDS * scale))
    for index in range(rounds):
        t0 = 4.0 + index * MIXED_ROUND_S
        attacks.append(BtsDosAttack(net, start_time=t0, connections=20, interval_s=0.05))
        attacks.append(
            BlindDosAttack(
                net,
                victim=_victim(net, t0, f"blind-{index}"),
                start_time=t0 + 4.0,
                replays=4,
                interval_s=1.0,
            )
        )
        attacks.append(
            UplinkIdExtractionAttack(
                net,
                victim=_victim(net, t0 + 5.0, f"ul-{index}"),
                start_time=t0 + 4.0,
                duration_s=5.0,
            )
        )
        attacks.append(
            DownlinkIdExtractionAttack(
                net,
                victim=_victim(net, t0 + 10.0, f"dl-{index}"),
                start_time=t0 + 9.0,
                duration_s=4.0,
            )
        )
        attacks.append(NullCipherAttack(net, start_time=t0 + 2.0))
    for attack in attacks:
        attack.arm()
    return attacks


BENIGN_FLEET = 10        # BASE_MIX x 10 = 50 UEs
BENIGN_DURATION_S = 45.0


def benign_traffic(net: FiveGNetwork, scale: float = 1.0) -> list:
    """A benign fleet only; alarms are the detector's false positives."""
    _fleet(net, BENIGN_FLEET, BENIGN_DURATION_S * scale)
    return []


STORM_DURATION_S = 60.0
STORM_INSTANCES = 12     # of each: BTS-DoS flood and Null-cipher
STORM_FLOOD_CONNECTIONS = 40


def storm_traffic(net: FiveGNetwork, scale: float = 1.0) -> list:
    """Back-to-back, non-overlapping floods over a thin background."""
    duration = STORM_DURATION_S * scale
    _fleet(net, 1, duration)
    instances = max(1, round(STORM_INSTANCES * scale))
    period = (duration - 2.0) / instances
    attacks: list = []
    for index in range(instances):
        t0 = 1.0 + index * period
        # 40 connections at 0.05 s plus attach time finish inside `period`.
        attacks.append(
            BtsDosAttack(
                net,
                start_time=t0,
                connections=STORM_FLOOD_CONNECTIONS,
                interval_s=0.05,
            )
        )
        attacks.append(NullCipherAttack(net, start_time=t0 + period / 2))
    for attack in attacks:
        attack.arm()
    return attacks


# -- deployment configs -------------------------------------------------------


def default_config(detector: str = "autoencoder", use_rag: bool = False) -> XsecConfig:
    """What ``SixGXSec(XsecConfig())`` gives a user, plus the closed loop."""
    return XsecConfig(
        detector=detector,
        llm_use_rag=use_rag,
        train_epochs=TRAIN_EPOCHS,
        auto_release=True,
        auto_blocklist=True,
    )


# Every fast lane whose documented contract is bit-/decision-identity and
# whose own BENCH shows >= 1x: (settings family on XsecConfig, flags).
#
# ``llmfast.dispatch`` is deliberately absent.  Its contract ("never
# changes a verdict decision") does not survive this storm: with the
# default ``max_inflight=4`` it sheds or still queues 58% of the queries at
# the end of the drain and raises alarm->verdict p90 from 3.1 to 61 sim-s
# (README, "Findings").  Those are failed operations, and a benchmark
# workload must be one on which no operation fails.
FAST_LANES: tuple = (
    ("hotpath", {"compiled": True, "dtype": "float64", "arena": True}),
    (
        "genfast",
        {
            "columnar_batches": True,
            "batched_sdl_writes": True,
            "vectorized_features": True,
            "sim_fastlane": True,
        },
    ),
    (
        "llmfast",
        {
            "verdict_cache": True,
            "coalesce": True,
            "vectorized_rag": True,
            "compiled_prompts": True,
        },
    ),
    ("trainfast", {"compiled_trainer": True, "compiled_scoring": True}),
)


def apply_fast_lanes(config, lanes: tuple = FAST_LANES):
    """Switch on each fast-lane flag that still exists on ``config``.

    A flag (or a whole settings family) that a later PR promoted to the
    only path and deleted is skipped, so the collapse of the flag lattice
    cannot break the benchmark.  Returns the names that were set.
    """
    applied: list[str] = []
    families = {f.name for f in dataclasses.fields(config)}
    for family, flags in lanes:
        if family not in families:
            continue
        settings = getattr(config, family)
        present = {f.name for f in dataclasses.fields(settings)}
        for flag, value in flags.items():
            if flag in present:
                setattr(settings, flag, value)
                applied.append(f"{family}.{flag}")
    return applied


def fast_config(detector: str = "autoencoder", use_rag: bool = False) -> XsecConfig:
    config = default_config(detector, use_rag)
    apply_fast_lanes(config)
    return config


# -- the catalogue ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    traffic: Callable[..., list]
    config: Callable[[], XsecConfig]
    channel: ChannelConfig
    duration_s: float
    drain_s: float
    # Replayed from a capture recorded in set-up (else driven live).
    replay: bool = False
    # Name of the workload whose AnomalyEvent stream this one must equal.
    same_alarms_as: Optional[str] = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="live_mixed",
            why=(
                "Full loop incl. the RAN: fleet plus six rounds of all five "
                "attacks; the only workload where the RAN sim is the largest "
                "share and control actions change later traffic."
            ),
            traffic=mixed_traffic,
            config=lambda: default_config("autoencoder"),
            channel=LIVE_CHANNEL,
            duration_s=MIXED_DURATION_S,
            drain_s=30.0,
        ),
        Workload(
            name="replay_benign",
            why=(
                "Replayed benign capture with the LSTM detector: collector, "
                "E2 encode/decode, SDL writes, featurize and score carry the "
                "run; RAN-sim and verdict-plane changes cannot move it."
            ),
            traffic=benign_traffic,
            config=lambda: default_config("lstm"),
            channel=DEFAULT_CHANNEL,
            duration_s=BENIGN_DURATION_S,
            drain_s=10.0,
            replay=True,
        ),
        Workload(
            name="replay_storm",
            why=(
                "Replayed alarm-dense capture (back-to-back BTS-DoS floods "
                "and Null-cipher) with RAG: the verdict plane is a third of "
                "the CPU, with cooldown suppression and analyzer queueing."
            ),
            traffic=storm_traffic,
            config=lambda: default_config("autoencoder", use_rag=True),
            channel=CLEAN_CHANNEL,
            duration_s=STORM_DURATION_S,
            drain_s=30.0,
            replay=True,
        ),
        Workload(
            name="replay_storm_fast",
            why=(
                "Same capture bytes as replay_storm with every identity-"
                "contract fast lane on: the composed speedup, and the "
                "workload a seed-path-only optimisation bypasses."
            ),
            traffic=storm_traffic,
            config=lambda: fast_config("autoencoder", use_rag=True),
            channel=CLEAN_CHANNEL,
            duration_s=STORM_DURATION_S,
            drain_s=30.0,
            replay=True,
            same_alarms_as="replay_storm",
        ),
    )
}
