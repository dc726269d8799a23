"""The seed retrieval loop and prompt template, kept as test oracles.

``ExpertAnalyst`` retrieves through ``VectorizedRetriever`` (a term index)
and renders through ``CompiledPromptBuilder`` (interned segments and record
lines). These are the plain versions they replaced: one substring loop per
article, and one ``str.format`` of the Figure 5 template per prompt.
``tests/test_llmfast.py`` holds the two to ranking and byte identity. Not
imported by ``src``.
"""

from dataclasses import dataclass, field
from typing import Iterable

from repro.llm.knowledge import CellularKnowledgeBase, trace_terms
from repro.llm.prompt import DATA_DESCRIPTIONS, TEMPLATE, format_record
from repro.telemetry.mobiflow import MobiFlowRecord


def retrieve(
    knowledge: CellularKnowledgeBase, records: list[MobiFlowRecord], top_k: int = 2
) -> list[str]:
    """The 3GPP snippets most relevant to the trace: keyword overlap between
    an article's vocabulary and the trace's terms, ties broken by
    signature, zero-overlap articles dropped."""
    terms = trace_terms(records)
    scored = []
    for article in knowledge.articles.values():
        text = (article.procedure_snippet + " " + article.explanation).lower()
        score = sum(1 for term in terms if term in text)
        scored.append((score, article.signature, article.procedure_snippet))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [snippet for score, _, snippet in scored[:top_k] if score > 0]


def format_records(records: Iterable[MobiFlowRecord]) -> str:
    return "\n".join(format_record(record) for record in records)


@dataclass
class PromptTemplate:
    """Zero-shot prompt builder, optionally retrieval-augmented (§5)."""

    data_descriptions: str = DATA_DESCRIPTIONS
    # Retrieved 3GPP-knowledge snippets appended to the prompt (RAG).
    retrieved_snippets: list = field(default_factory=list)

    def render(self, records: Iterable[MobiFlowRecord]) -> str:
        extra = ""
        if self.retrieved_snippets:
            bullet_list = "\n".join(f"- {snippet}" for snippet in self.retrieved_snippets)
            extra = "\n\nRelevant 3GPP protocol knowledge for reference:\n" + bullet_list
        return TEMPLATE.format(
            data_descriptions=self.data_descriptions,
            data=format_records(records),
            extra=extra,
        )
