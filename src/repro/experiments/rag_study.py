"""Experiment S1 — specialized LLMs for 6G: RAG and fine-tuning (paper §5).

The paper's discussion proposes two remedies for the zero-shot misses of
Table 3: retrieval-augmented prompts carrying accurate 3GPP protocol
knowledge, and locally fine-tuned cellular-domain models. This study runs
the Table 3 grid three ways:

1. **zero-shot** (the paper's §4.2 setting),
2. **RAG**: the prompt template appends the knowledge base's most relevant
   procedure snippets — models with the reasoning but not the domain fact
   now connect them (capability profiles' ``rag_boost``),
3. **fine-tuned**: the local ``xsec-ft-7b`` model trained on cellular
   protocol data, which perceives every signature and answers without a
   WAN round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.datasets import AttackDatasetConfig, generate_attack_dataset
from repro.experiments.reporting import render_table
from repro.experiments.table3 import MODEL_ORDER, Table3Config, build_traces, _is_correct
from repro.llm.analyst import ExpertAnalyst
from repro.llm.client import LlmClient, SimulatedLlmServer


@dataclass
class RagStudyConfig:
    attack: AttackDatasetConfig = field(default_factory=AttackDatasetConfig)
    models: tuple = MODEL_ORDER
    finetuned_model: str = "xsec-ft-7b"


@dataclass
class RagStudyResult:
    cases: list
    # (mode, trace, model) -> correct
    grid: dict
    config: RagStudyConfig

    def correct_count(self, mode: str, model: str) -> int:
        return sum(
            1 for case in self.cases if self.grid[(mode, case.name, model)]
        )

    def render(self) -> str:
        total = len(self.cases)
        headers = ["Model", f"Zero-shot (of {total})", f"+RAG (of {total})"]
        rows = []
        for model in self.config.models:
            rows.append(
                [
                    model,
                    str(self.correct_count("zero-shot", model)),
                    str(self.correct_count("rag", model)),
                ]
            )
        rows.append(
            [
                self.config.finetuned_model + " (fine-tuned, local)",
                str(self.correct_count("finetuned", self.config.finetuned_model)),
                "-",
            ]
        )
        return render_table(
            headers,
            rows,
            title="S1 — specialized LLMs: zero-shot vs. RAG vs. fine-tuned (§5)",
        )


def run_rag_study(
    config: Optional[RagStudyConfig] = None,
    capture=None,
) -> RagStudyResult:
    config = config or RagStudyConfig()
    capture = capture or generate_attack_dataset(config.attack)
    cases = build_traces(capture)
    server = SimulatedLlmServer()
    grid: dict = {}
    for model in config.models:
        for mode, use_rag in (("zero-shot", False), ("rag", True)):
            analyst = ExpertAnalyst(
                client=LlmClient(server=server, model=model),
                use_rag=use_rag,
            )
            for case in cases:
                verdict = analyst.analyze(case.records, detector_flagged=case.is_attack)
                grid[(mode, case.name, model)] = _is_correct(case, verdict.response)
    finetuned = ExpertAnalyst(
        client=LlmClient(server=server, model=config.finetuned_model), use_rag=False
    )
    for case in cases:
        verdict = finetuned.analyze(case.records, detector_flagged=case.is_attack)
        grid[("finetuned", case.name, config.finetuned_model)] = _is_correct(
            case, verdict.response
        )
    return RagStudyResult(cases=cases, grid=grid, config=config)
