#!/usr/bin/env python3
"""Identity extraction, explained by five LLMs (paper §4.2, Table 3).

Scenario: a man-in-the-middle runs both identity-extraction attacks from
the literature against a victim handset — LTrack's downlink overwrite
(AuthenticationRequest -> IdentityRequest, leaking the SUPI in a plaintext
IdentityResponse) and AdaptOver's uplink overshadowing (downgrading the
SUCI to the null concealment scheme). The flagged traces are then handed
to all five simulated LLM analysts, with and without retrieval-augmented
prompts, showing exactly which models catch which attack and how they
explain it.

Run:  python examples/identity_extraction_explained.py
"""

from repro.attacks import DownlinkIdExtractionAttack, UplinkIdExtractionAttack
from repro.llm import ExpertAnalyst, LlmClient, SimulatedLlmServer
from repro.llm.profiles import MODEL_PROFILES
from repro.ran import FiveGNetwork, NetworkConfig
from repro.telemetry import MobiFlowCollector


def run_attack(attack_cls, seed):
    """Run one MiTM attack against a fresh victim; return its trace."""
    net = FiveGNetwork(NetworkConfig(seed=seed))
    background = net.add_ue("pixel5")
    net.sim.schedule(0.2, background.start_session)
    victim = net.add_ue("pixel6", name="victim")
    net.sim.schedule(2.5, victim.start_session)
    attack = attack_cls(net, victim=victim, start_time=2.0, duration_s=10.0)
    attack.arm()
    net.run(until=25.0)
    series = MobiFlowCollector().parse_stream(net.pcap)
    sessions = {r.session_id for r in series if attack.is_malicious(r)}
    trace = [r for r in series if r.session_id in sessions]
    return attack, trace


def main() -> None:
    server = SimulatedLlmServer()
    for attack_cls, title in (
        (DownlinkIdExtractionAttack, "Downlink identity extraction (LTrack)"),
        (UplinkIdExtractionAttack, "Uplink identity extraction (AdaptOver)"),
    ):
        attack, trace = run_attack(attack_cls, seed=7)
        print("=" * 72)
        print(f"{title} — {len(trace)} telemetry entries in the flagged trace")
        exposed = [r for r in trace if r.exposes_permanent_identity()]
        for record in exposed:
            print(
                f"  leaked identity at t={record.timestamp:.3f}: "
                f"msg={record.msg} supi={record.supi} suci={record.suci}"
            )
        print(f"\n  {'model':18s} verdict     top attack")
        for model in MODEL_PROFILES:
            analyst = ExpertAnalyst(client=LlmClient(server=server, model=model))
            verdict = analyst.analyze(trace, detector_flagged=True)
            top = (
                verdict.response.top_attacks[0][0][:44]
                if verdict.response.top_attacks
                else "-"
            )
            flag = " (ESCALATED to human review)" if verdict.needs_human_review else ""
            print(f"  {model:18s} {verdict.response.verdict:10s}  {top}{flag}")

        # Retrieval augmentation (paper §5, Specialized LLM for 6G).
        rag = ExpertAnalyst(
            client=LlmClient(server=server, model="chatgpt-4o"), use_rag=True
        )
        verdict = rag.analyze(trace, detector_flagged=True)
        print("\n  RAG prompt snippets retrieved for chatgpt-4o:")
        for snippet in rag.retrieve_snippets(trace):
            print(f"   - {snippet[:90]}...")
        print(f"\n  chatgpt-4o explanation:\n   {verdict.response.explanation[:320]}")
        print()


if __name__ == "__main__":
    main()
