"""Experiment Z1 — telemetry poisoning vs. zero-trust E2 (paper §5).

Threat: "malicious adversaries may poison the AI models with malicious
telemetry to drive the network into abnormal states". A rogue E2 node with
access to the (by default unprotected) E2 transport injects fabricated
MobiFlow indications during MobiWatch's training-collection phase. The
fabricated records mimic a BTS DoS signaling storm, so the model learns
flood patterns as *normal* and later misses the real attack.

The experiment runs the same scenario twice:

- **unprotected E2**: the RIC accepts the forged indications; they pollute
  the SDL and the training set; the detector's recall on a real BTS DoS
  collapses;
- **zero-trust E2** (:mod:`repro.oran.zerotrust` HMAC authentication):
  every forged indication is rejected at the E2 termination and the
  detector is unaffected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import XsecConfig
from repro.core.mobiwatch import MobiWatchXApp
from repro.experiments.colosseum import ColosseumScenario, run_scenario
from repro.experiments.datasets import AttackDatasetConfig, generate_attack_dataset
from repro.ml.detector import AutoencoderDetector
from repro.oran.e2agent import RicAgent, _pdu_envelope
from repro.oran.e2ap import RicIndication
from repro.oran.e2sm_kpm import MOBIFLOW_RAN_FUNCTION_ID, MobiFlowKpmModel
from repro.oran.ric import NearRtRic
from repro.oran.zerotrust import AuthenticatedE2Link
from repro.ran.links import InterfaceLink
from repro.ran.network import FiveGNetwork, NetworkConfig
from repro.telemetry.mobiflow import MobiFlowRecord


def bts_dos_footprint(seed: int = 99, sessions: int = 3) -> list[MobiFlowRecord]:
    """The telemetry footprint of the adversary's own BTS DoS tool.

    Generated by running the attack against a scratch network and keeping
    the first few malicious sessions — what a real adversary would capture
    from a dry run of their SDR tooling.
    """
    from repro.attacks import BtsDosAttack
    from repro.telemetry.collector import MobiFlowCollector

    net = FiveGNetwork(NetworkConfig(seed=seed))
    attack = BtsDosAttack(net, start_time=0.5, connections=sessions + 1, interval_s=0.08)
    attack.arm()
    net.run(until=10.0)
    series = MobiFlowCollector().parse_stream(net.pcap)
    chosen_sessions: list[int] = []
    out: list[MobiFlowRecord] = []
    for record in series:
        if record.rnti not in attack.malicious_rntis:
            continue
        if record.session_id not in chosen_sessions:
            if len(chosen_sessions) >= sessions:
                continue
            chosen_sessions.append(record.session_id)
        out.append(record)
    return out


class RogueE2Node:
    """Adversary with access to the E2 transport.

    Injects forged MobiFlow report indications that mimic a signaling
    storm. It writes raw (unauthenticated) envelopes straight onto the
    transport — exactly what a compromised switch or rogue E2 node can do
    to an unprotected interface.
    """

    def __init__(
        self,
        sim,
        transport: InterfaceLink,
        start_time: float,
        bursts: int = 40,
        interval_s: float = 1.5,
        template: Optional[list] = None,
    ) -> None:
        self.sim = sim
        self.transport = transport
        self.start_time = start_time
        self.bursts = bursts
        self.interval_s = interval_s
        self.injected = 0
        self._session_base = itertools.count(500_000, 100)
        self._rnti_base = itertools.count(0x8000, 100)
        self._sequence = itertools.count(900_000)
        # The adversary replays its own attack tool's telemetry footprint —
        # the most effective poison, since it matches the exact feature
        # distribution the real attack will later produce.
        self.template = template or bts_dos_footprint()
        sim.schedule_at(start_time, self._tick, name="rogue-e2.inject")

    def _fabricate_storm_batch(self, now: float) -> list[MobiFlowRecord]:
        """Replay the attack footprint with fresh identifiers/timestamps."""
        session_base = next(self._session_base)
        rnti_base = next(self._rnti_base)
        session_map: dict[int, int] = {}
        rnti_map: dict[int, int] = {}
        t0 = self.template[0].timestamp
        out = []
        for record in self.template:
            session = session_map.setdefault(
                record.session_id, session_base + len(session_map)
            )
            rnti = (
                rnti_map.setdefault(record.rnti, rnti_base + len(rnti_map))
                if record.rnti is not None
                else None
            )
            out.append(
                MobiFlowRecord(
                    **{
                        **record.to_dict(),
                        "timestamp": now + (record.timestamp - t0),
                        "session_id": session,
                        "rnti": rnti,
                    }
                )
            )
        return out

    def _tick(self) -> None:
        if self.bursts <= 0:
            return
        self.bursts -= 1
        batch = self._fabricate_storm_batch(self.sim.now)
        header, message = MobiFlowKpmModel.encode_indication(batch)
        forged = RicIndication(
            ric_request_id=1,  # the first subscription id on OSC platforms
            ran_function_id=MOBIFLOW_RAN_FUNCTION_ID,
            sequence_number=next(self._sequence),
            indication_header=header,
            indication_message=message,
        )
        self.injected += len(batch)
        self.transport.send_to_b(_pdu_envelope(forged))
        self.sim.schedule(self.interval_s, self._tick, name="rogue-e2.inject")


@dataclass
class PoisoningConfig:
    seed: int = 21
    training_duration_s: float = 180.0
    ue_mix: tuple = (("pixel5", 1), ("galaxy_a53", 1), ("oai_ue", 2))
    rogue_start_s: float = 10.0
    rogue_bursts: int = 60
    epochs: int = 40
    lr: float = 2e-3
    attack: AttackDatasetConfig = field(default_factory=AttackDatasetConfig)


@dataclass
class PoisoningOutcome:
    """One arm of the experiment (protected or not)."""

    authenticated: bool
    records_collected: int
    forged_records_injected: int
    forged_indications_rejected: int
    bts_dos_recall: float
    threshold: float


@dataclass
class PoisoningResult:
    unprotected: PoisoningOutcome
    zero_trust: PoisoningOutcome

    @property
    def recall_damage(self) -> float:
        """Recall lost to poisoning on the unprotected interface."""
        return self.zero_trust.bts_dos_recall - self.unprotected.bts_dos_recall

    def render(self) -> str:
        rows = []
        for outcome in (self.unprotected, self.zero_trust):
            rows.append(
                f"  {'zero-trust E2' if outcome.authenticated else 'unprotected E2':16s}"
                f" collected={outcome.records_collected:5d}"
                f" forged={outcome.forged_records_injected:4d}"
                f" rejected={outcome.forged_indications_rejected:3d}"
                f" bts-dos recall={100 * outcome.bts_dos_recall:5.1f}%"
            )
        return "\n".join(
            [
                "Z1 — telemetry poisoning of MobiWatch training (paper §5)",
                *rows,
                f"  recall damage from poisoning: {100 * self.recall_damage:.1f} points",
            ]
        )


def _run_arm(config: PoisoningConfig, authenticated: bool) -> PoisoningOutcome:
    net = FiveGNetwork(NetworkConfig(seed=config.seed))
    raw_e2 = InterfaceLink(net.sim, "E2", latency_s=0.002)
    if authenticated:
        e2 = AuthenticatedE2Link(raw_e2, node_key=b"k" * 16, ric_key=b"r" * 16)
    else:
        e2 = raw_e2
    agent = RicAgent(net, e2)
    ric = NearRtRic(net.sim, e2)
    e2.connect(a_handler=agent.on_e2, b_handler=ric.e2term.on_e2)
    xsec_config = XsecConfig()
    mobiwatch = MobiWatchXApp(ric, xsec_config)
    agent.start()
    ric.start()

    # Benign training collection + the rogue injector on the raw transport.
    scenario = ColosseumScenario(
        duration_s=config.training_duration_s,
        ue_mix=config.ue_mix,
        mean_think_time_s=8.0,
    )
    run_scenario(net, scenario, run=False)
    rogue = RogueE2Node(
        net.sim, raw_e2, start_time=config.rogue_start_s, bursts=config.rogue_bursts
    )
    net.run(until=config.training_duration_s + 30.0)

    # Train on whatever telemetry the RIC accepted (the poisoning surface).
    training = mobiwatch.series
    from repro.telemetry.features import WindowedDataset

    windowed = WindowedDataset.from_series(training, xsec_config.spec, xsec_config.window)
    detector = AutoencoderDetector(
        window=xsec_config.window,
        feature_dim=xsec_config.spec.dim,
        seed=xsec_config.seed,
    )
    detector.fit(windowed.windows, epochs=config.epochs, lr=config.lr)

    # Evaluate on an independent real attack capture: BTS DoS recall.
    attack_capture = generate_attack_dataset(config.attack)
    attack = attack_capture.labeled(xsec_config.spec, xsec_config.window, "attack")
    predictions = detector.detect(attack.windowed.windows)
    storm_indices = [
        i
        for i in range(attack.num_windows)
        if attack.window_labels[i] and attack.window_attack(i) == "bts_dos"
    ]
    hits = sum(int(predictions[i]) for i in storm_indices)
    recall = hits / len(storm_indices) if storm_indices else 0.0

    rejected = 0
    if authenticated:
        rejected = e2.rejected_at_ric - 0  # forged PDUs bounced at the RIC
    return PoisoningOutcome(
        authenticated=authenticated,
        records_collected=len(training),
        forged_records_injected=rogue.injected,
        forged_indications_rejected=rejected,
        bts_dos_recall=recall,
        threshold=detector.threshold.threshold or 0.0,
    )


def run_poisoning_experiment(config: Optional[PoisoningConfig] = None) -> PoisoningResult:
    config = config or PoisoningConfig()
    return PoisoningResult(
        unprotected=_run_arm(config, authenticated=False),
        zero_trust=_run_arm(config, authenticated=True),
    )
