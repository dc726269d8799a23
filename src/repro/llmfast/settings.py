"""Configuration for the repro.llmfast verdict-plane fast path.

All flags default to off.  The enabled paths are *contracted* against the
default: the verdict cache / coalescer / dispatcher never change a verdict
*decision* (classification, top attacks, attribution, remediation,
human-review escalation) — only how fast, and at what provider cost,
verdicts are produced.
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

    dispatch
        Storm-safe dispatch queue in the analyzer xApp: at most
        ``max_inflight`` concurrent provider requests, severity-priority
        ordering for the backlog, counted never-silent load shedding
        once the backlog exceeds ``queue_capacity``, and batched verdict
        persistence through ``SharedDataLayer.set_many``.  The ledger
        invariant ``offered == analyzed + coalesced + cache_hits + shed
        + pending`` always holds.
    """

    verdict_cache: bool = False
    coalesce: bool = False
    dispatch: bool = False

    # Verdict-cache capacity (completed trace signatures kept, LRU).
    cache_capacity: int = 4096
    # Dispatch: concurrent in-flight provider requests.
    max_inflight: int = 4
    # Dispatch: queued (not yet in-flight) requests kept before shedding.
    queue_capacity: int = 256

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")

    @property
    def fast_submit_enabled(self) -> bool:
        """The analyzer xApp routes anomalies through the fast submit path."""
        return self.verdict_cache or self.coalesce or self.dispatch

    @classmethod
    def all_on(cls) -> "LlmfastSettings":
        """Every fast-path flag enabled (benches, tests)."""
        return cls(verdict_cache=True, coalesce=True, dispatch=True)
