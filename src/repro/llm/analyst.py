"""Expert referencing: prompt -> model -> parsed analysis, end to end.

This is the caller-side workflow the LLM analyzer xApp runs for each
anomalous sequence (paper §3.3): render the Figure 5 prompt (optionally
retrieval-augmented), query the model through the REST-style client, parse
the text into the structured classification / explanation / attribution /
remediation outputs, and cross-compare with MobiWatch's verdict.

Retrieval runs through the term-indexed :class:`VectorizedRetriever` and
prompt assembly through :class:`CompiledPromptBuilder`. With
``repro.llmfast`` settings attached a content-addressed verdict cache
keyed on canonical trace signatures lets near-duplicate queries skip the
provider round trip while keeping every verdict *decision* identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.llm.client import LlmClient
from repro.llm.knowledge import (
    AnalysisEngine,
    CellularKnowledgeBase,
    VectorizedRetriever,
)
from repro.llm.prompt import CompiledPromptBuilder
from repro.llm.response import AnalysisResponse, parse_response
from repro.telemetry.mobiflow import MobiFlowRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llmfast.settings import LlmfastSettings


@dataclass
class ExpertVerdict:
    """One complete expert-referencing result for a flagged sequence."""

    response: AnalysisResponse
    prompt: str
    model: str
    # Cross-comparison with the anomaly detector (§3.3): contradictory
    # results require human supervision.
    detector_flagged: bool = True
    # repro.llmfast: True when the response was served from the verdict
    # cache instead of a provider round trip.
    from_cache: bool = False

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
    knowledge: CellularKnowledgeBase = field(default_factory=CellularKnowledgeBase)
    # repro.llmfast flags; None = no verdict cache, no signatures.
    llmfast: Optional["LlmfastSettings"] = None
    analyses_run: int = 0
    escalations: int = 0
    cache_hits: int = 0

    def __post_init__(self) -> None:
        self._retriever = VectorizedRetriever(self.knowledge)
        self._prompt_builder = CompiledPromptBuilder()
        self._cache = None
        self._interner = None
        self._engine = None
        settings = self.llmfast
        if settings is not None and (settings.verdict_cache or settings.coalesce):
            from repro.llmfast.cache import SignatureInterner, VerdictCache

            self._cache = (
                VerdictCache(settings.cache_capacity)
                if settings.verdict_cache
                else None
            )
            self._interner = SignatureInterner(settings.cache_capacity)
            # The same shared engine the simulated backends run; used
            # locally only to canonicalize the decision content.
            self._engine = AnalysisEngine(self.knowledge)

    # -- round primitives ----------------------------------------------------

    def retrieve_snippets(self, records: list[MobiFlowRecord]) -> list[str]:
        """RAG retrieval (ranking of ``CellularKnowledgeBase.retrieve``)."""
        return self._retriever.retrieve(records)

    def build_prompt(
        self, records: list[MobiFlowRecord], snippets: Optional[list] = None
    ) -> str:
        """Render the Figure 5 prompt (bytes of ``PromptTemplate.render``)."""
        return self._prompt_builder.render(records, snippets or None)

    def signature_for(self, records: list[MobiFlowRecord]):
        """Canonical trace signature, or None when caching is off."""
        if self._interner is None:
            return None
        from repro.llmfast.cache import trace_signature

        records_key = tuple(records)
        signature = self._interner.get(records_key)
        if signature is None:
            snippets: tuple = ()
            if self.use_rag:
                snippets = tuple(self.retrieve_snippets(records))
            signature = trace_signature(
                records,
                self._engine.analyze(records),
                model=self.client.model,
                use_rag=self.use_rag,
                snippets=snippets,
            )
            self._interner.put(records_key, signature)
        return signature

    def cached_verdict(
        self, signature, detector_flagged: bool = True
    ) -> Optional[ExpertVerdict]:
        """A verdict served from the cache, or None on a miss."""
        if self._cache is None or signature is None:
            return None
        entry = self._cache.get(signature)
        if entry is None:
            return None
        self.cache_hits += 1
        verdict = ExpertVerdict(
            response=entry.response,
            prompt=entry.prompt,
            model=entry.model,
            detector_flagged=detector_flagged,
            from_cache=True,
        )
        if verdict.needs_human_review:
            self.escalations += 1
        return verdict

    @property
    def cache_stats(self) -> dict:
        return self._cache.stats() if self._cache is not None else {}

    # -- the expert-referencing round ----------------------------------------

    def analyze(
        self,
        records: list[MobiFlowRecord],
        detector_flagged: bool = True,
        signature=None,
    ) -> ExpertVerdict:
        """Run one expert-referencing round for a telemetry sequence.

        With the verdict cache enabled, an equal-signature query returns
        the cached analysis without touching the provider; a miss runs
        the full round and populates the cache.  ``signature`` lets the
        xApp pass a precomputed signature (it needs one anyway for
        coalescing); when omitted it is derived here.
        """
        if self._cache is not None:
            if signature is None:
                signature = self.signature_for(records)
            cached = self.cached_verdict(signature, detector_flagged)
            if cached is not None:
                return cached
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
        if self._cache is not None and signature is not None:
            from repro.llmfast.cache import CachedVerdict

            self._cache.put(
                signature,
                CachedVerdict(
                    response=response, prompt=prompt, model=self.client.model
                ),
            )
        return verdict
