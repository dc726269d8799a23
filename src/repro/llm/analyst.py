"""Expert referencing: prompt -> model -> parsed analysis, end to end.

This is the caller-side workflow the LLM analyzer xApp runs for each
anomalous sequence (paper §3.3): render the Figure 5 prompt (optionally
retrieval-augmented), query the model through the REST-style client, parse
the text into the structured classification / explanation / attribution /
remediation outputs, and cross-compare with MobiWatch's verdict.

Retrieval runs through the memoized :class:`VectorizedRetriever` and
prompt assembly through :class:`CompiledPromptBuilder`. Every round is one
provider request over the sequence's own records: a verdict is never
reused for another sequence, so its prompt is always the evidence it
explains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.llm.client import LlmClient
from repro.llm.knowledge import VectorizedRetriever
from repro.llm.prompt import CompiledPromptBuilder
from repro.llm.response import AnalysisResponse, parse_response
from repro.telemetry.mobiflow import MobiFlowRecord


@dataclass
class ExpertVerdict:
    """One complete expert-referencing result for a flagged sequence."""

    response: AnalysisResponse
    prompt: str
    model: str
    # Cross-comparison with the anomaly detector (§3.3): contradictory
    # results require human supervision.
    detector_flagged: bool = True

    @property
    def agrees_with_detector(self) -> bool:
        return self.response.is_anomalous == self.detector_flagged

    @property
    def needs_human_review(self) -> bool:
        return not self.agrees_with_detector


@dataclass
class ExpertAnalyst:
    """Expert-referencing driver bound to one model."""

    client: LlmClient
    use_rag: bool = False
    analyses_run: int = 0
    escalations: int = 0

    def __post_init__(self) -> None:
        self._retriever = VectorizedRetriever()
        self._prompt_builder = CompiledPromptBuilder()

    # -- round primitives ----------------------------------------------------

    def retrieve_snippets(self, records: list[MobiFlowRecord]) -> list[str]:
        """RAG retrieval: the ``top_k=2`` snippets most relevant to the trace."""
        return self._retriever.retrieve(records)

    def build_prompt(
        self, records: list[MobiFlowRecord], snippets: Optional[list] = None
    ) -> str:
        """Render the Figure 5 prompt, RAG snippets appended when given."""
        return self._prompt_builder.render(records, snippets or None)

    # -- the expert-referencing round ----------------------------------------

    def analyze(
        self, records: list[MobiFlowRecord], detector_flagged: bool = True
    ) -> ExpertVerdict:
        """Run one expert-referencing round for a telemetry sequence."""
        snippets: Optional[list] = None
        if self.use_rag:
            snippets = self.retrieve_snippets(records)
        prompt = self.build_prompt(records, snippets)
        text = self.client.complete(prompt)
        response = parse_response(text)
        verdict = ExpertVerdict(
            response=response,
            prompt=prompt,
            model=self.client.model,
            detector_flagged=detector_flagged,
        )
        self.analyses_run += 1
        if verdict.needs_human_review:
            self.escalations += 1
        return verdict
