#!/usr/bin/env python3
"""Closed-loop DoS mitigation: detect, explain, and act automatically.

Scenario: a private 5G cell is serving a handful of subscribers when two
denial-of-service campaigns hit it — a BTS DoS signaling storm, then a
Blind DoS that keeps kicking one victim offline by replaying its S-TMSI.
6G-XSec is deployed with the automated-response policy enabled (paper §5,
Automated Network Responses): each confirmed incident gets the first
response its attack class's catalogue entry lists that is switched on
(``repro.llm.knowledge``), so a signaling storm caps the setup-request rate
at the DU and a TMSI replay bars the replayed identity at the CU.

Run:  python examples/dos_closed_loop.py
"""

from repro.attacks import BlindDosAttack, BtsDosAttack
from repro.core import SixGXSec, XsecConfig
from repro.experiments import generate_benign_dataset
from repro.experiments.colosseum import ColosseumScenario, run_scenario
from repro.experiments.datasets import BenignDatasetConfig
from repro.ran.network import NetworkConfig


def run_closed_loop():
    """Train MobiWatch, arm both campaigns and run the cell for 80 sim-s;
    returns the deployment and the two attacks."""
    config = XsecConfig(
        train_epochs=25, auto_release=True, auto_blocklist=True, auto_rate_limit=True
    )

    print("Training MobiWatch on benign traffic ...")
    benign = generate_benign_dataset(
        BenignDatasetConfig(
            duration_s=240.0,
            ue_mix=(("pixel5", 1), ("pixel6", 1), ("galaxy_a53", 1), ("oai_ue", 2)),
        )
    )
    labeled = benign.labeled(config.spec, config.window, "benign")
    xsec = SixGXSec(config, network_config=NetworkConfig(seed=1234))
    xsec.train_from_benign(labeled.windowed.windows)

    print("Starting live traffic and arming two DoS campaigns ...")
    run_scenario(
        xsec.net,
        ColosseumScenario(
            duration_s=60.0,
            ue_mix=(("pixel5", 1), ("galaxy_a22", 1), ("oai_ue", 1)),
            mean_think_time_s=8.0,
        ),
        run=False,
    )
    victim = xsec.net.add_ue("pixel6", name="victim")
    xsec.net.sim.schedule(2.0, victim.start_session)
    storm = BtsDosAttack(xsec.net, start_time=8.0, connections=12, interval_s=0.08)
    replay = BlindDosAttack(xsec.net, victim=victim, start_time=25.0, replays=6)
    storm.arm()
    replay.arm()
    xsec.run(until=80.0)
    return xsec, storm, replay


def main() -> None:
    xsec, storm, replay = run_closed_loop()
    print("\nIncident timeline:")
    for incident in xsec.pipeline.incidents:
        anomaly = incident.anomaly
        line = (
            f"  t={anomaly.detected_at:7.2f}s session={anomaly.session_id:<4d} "
            f"score={anomaly.score:.3f}"
        )
        if incident.verdict is not None:
            top = incident.verdict.verdict.response.top_attacks
            line += f" -> LLM: {incident.verdict.verdict.response.verdict}"
            if top:
                line += f" ({top[0][0][:42]})"
        if incident.action:
            line += f" -> ACTION: {incident.action} @ t={incident.action_at:.2f}s"
        print(line)

    print("\nAutomated responses taken:")
    for action, params in xsec.pipeline.actions_taken:
        # Identifiers in hex, as the RAN logs them; a rate limit as is.
        pretty = {k: hex(v) if k in ("rnti", "tmsi") else v for k, v in params.items()}
        print(f"  {action}: {pretty}")

    print("\nEffect on the RAN:")
    print(f"  setup requests rejected by the CU blocklist: {xsec.net.cu.setup_requests_rejected}")
    print(f"  setup requests barred by the DU rate limiter: {xsec.net.du.setup_requests_rate_limited}")
    print(f"  E2 control actions executed by the RIC agent: {xsec.agent.controls_executed}")
    print(f"  storm attacker RNTIs consumed: {len(storm.malicious_rntis)}")
    print(f"  replayed victim TMSI: 0x{replay.rogue.victim_s_tmsi:08x}" if replay.rogue else "")
    print(f"\nPipeline summary: {xsec.pipeline.summary()}")


if __name__ == "__main__":
    main()
