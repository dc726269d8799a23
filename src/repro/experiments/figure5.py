"""Experiment E4 — Figure 5: prompt template and example response.

Regenerates the paper's Figure 5: the zero-shot prompt built from a BTS
DoS telemetry sequence and ChatGPT-4o's analysis identifying a signaling
storm from the repeated RRC message pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.datasets import AttackDatasetConfig, generate_attack_dataset
from repro.experiments.table3 import build_traces
from repro.llm.client import LlmClient, SimulatedLlmServer
from repro.llm.knowledge import KNOWLEDGE_ARTICLES, SIG_SIGNALING_STORM, classify
from repro.llm.prompt import CompiledPromptBuilder
from repro.llm.response import AnalysisResponse, parse_response


@dataclass
class Figure5Config:
    attack: AttackDatasetConfig = field(default_factory=AttackDatasetConfig)
    model: str = "chatgpt-4o"
    # Figure 5 shows a BTS DoS (signaling storm) example.
    trace_name: str = "bts_dos"
    max_records: int = 30


@dataclass
class Figure5Result:
    prompt: str
    response_text: str
    response: AnalysisResponse
    model: str

    def render(self) -> str:
        return "\n".join(
            [
                "Figure 5 — prompt template and example response",
                "=" * 60,
                "PROMPT:",
                self.prompt,
                "=" * 60,
                f"RESPONSE ({self.model}):",
                self.response_text,
            ]
        )

    @property
    def identifies_signaling_storm(self) -> bool:
        """The paper's headline: the top attack is the signaling storm."""
        top = self.response.top_attacks
        return bool(top) and classify(top[0][0]) is KNOWLEDGE_ARTICLES[SIG_SIGNALING_STORM]


def run_figure5(config: Optional[Figure5Config] = None) -> Figure5Result:
    config = config or Figure5Config()
    capture = generate_attack_dataset(config.attack)
    cases = build_traces(capture)
    case = next(c for c in cases if c.name == config.trace_name)
    records = case.records[: config.max_records]
    prompt = CompiledPromptBuilder().render(records)
    server = SimulatedLlmServer()
    client = LlmClient(server=server, model=config.model)
    text = client.complete(prompt)
    return Figure5Result(
        prompt=prompt,
        response_text=text,
        response=parse_response(text),
        model=config.model,
    )
