"""Configuration for the repro.llmfast verdict-plane fast path.

All flags default to off.  The enabled paths are *contracted* against the
default: the verdict cache / coalescer never change a verdict *decision*
(classification, top attacks, attribution, remediation, human-review
escalation) — only how fast, and at what provider cost, verdicts are
produced.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LlmfastSettings:
    """Flags for the LLM analyzer fast path.

    verdict_cache
        Content-addressed verdict cache keyed on a canonical trace
        signature (message sequence, matched-signature set, model, RAG
        snippet set).  Near-duplicate anomaly bursts — the common case
        in BTS-DoS / signaling-storm captures — resolve without a
        provider round trip and reuse the cached analysis.

    coalesce
        In-flight request coalescing in the analyzer xApp: while a query
        for one trace signature is waiting on the provider, further
        anomalies with the same signature join the pending request and
        the verdict fans out to every waiter on completion.
    """

    verdict_cache: bool = False
    coalesce: bool = False

    # Verdict-cache capacity (completed trace signatures kept, LRU).
    cache_capacity: int = 4096

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")

    @property
    def fast_submit_enabled(self) -> bool:
        """The analyzer xApp computes trace signatures for its queries."""
        return self.verdict_cache or self.coalesce

    @classmethod
    def all_on(cls) -> "LlmfastSettings":
        """Every fast-path flag enabled (benches, tests)."""
        return cls(verdict_cache=True, coalesce=True)
