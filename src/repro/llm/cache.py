"""The verdict-plane fast path: content-addressed verdict cache + its flags.

The expensive part of one expert-referencing round is everything behind
the provider boundary: prompt rendering, the simulated model's
regex-parse of the data section, the shared analysis engine run on the
backend side, response text generation, and response parsing — plus, in
the live xApp, the provider's simulated WAN latency.  During an incident
storm the anomalies arriving are near-duplicates (the same attack
flagged over and over), so most of that work resolves to the same
*decision*.

:func:`trace_signature` canonicalizes exactly the decision-relevant
content of a query:

- the model and RAG on/off (which capability profile answers, and
  whether rag-unlock applies);
- the trace's message sequence (what the backend parses out of the
  prompt);
- the matched-signature sequence, confidence-ordered, from a local run
  of the *same* shared :class:`AnalysisEngine` the simulated backends
  use (what the model perceives);
- the retrieved snippet tuple when RAG is on (which knowledge-gap
  unlocks are in the prompt).

Two queries with equal signatures are guaranteed to produce the same
verdict decision — classification, top-attack list, attribution,
remediation set, human-review escalation — because those outputs are
pure functions of the signature components.  Only free-text phrasing
(style seed, evidence timestamps) can differ, and the cache trades that
for skipping the round trip entirely.

A content memo in front (:class:`SignatureInterner`) keys on the exact
record tuple, so byte-identical repeat traces skip even the local engine
pass.

Both lanes are off by default (:class:`LlmfastSettings`, the
``XsecConfig.llmfast`` family) and contracted against the default: they
never change a verdict *decision*, only how fast and at what provider cost
verdicts are produced.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from typing import Optional

from repro.llm.knowledge import AnalysisEngine
from repro.llm.response import AnalysisResponse


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


@dataclass(frozen=True)
class TraceSignature:
    """Canonical decision identity of one expert-referencing query."""

    digest: bytes
    # Introspection fields (not part of the cache key semantics beyond
    # being inputs to the digest).
    n_records: int
    matched: tuple

    def __hash__(self) -> int:
        return hash(self.digest)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TraceSignature) and self.digest == other.digest


def trace_signature(
    records,
    matches,
    model: str,
    use_rag: bool,
    snippets: tuple = (),
) -> TraceSignature:
    """Digest the decision-relevant content of a query."""
    hasher = sha256()
    hasher.update(model.encode("utf-8"))
    hasher.update(b"\x1e1" if use_rag else b"\x1e0")
    for record in records:
        hasher.update(b"\x1f")
        hasher.update(record.msg.encode("utf-8"))
    matched = tuple(m.signature for m in matches)
    for signature in matched:
        hasher.update(b"\x1d")
        hasher.update(signature.encode("utf-8"))
    if use_rag:
        for snippet in snippets:
            hasher.update(b"\x1c")
            hasher.update(snippet.encode("utf-8"))
    return TraceSignature(
        digest=hasher.digest(), n_records=len(records), matched=matched
    )


class SignatureInterner:
    """Memoizes trace signatures for byte-identical repeat traces.

    Keyed on the exact record tuple (``MobiFlowRecord`` is frozen and
    hashable), so an exactly repeated trace — the duplicate-heavy storm
    case — skips the local engine pass; near-duplicates (same messages,
    shifted timestamps) miss here but still coalesce on the signature.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._memo: dict[tuple, TraceSignature] = {}
        self.hits = 0
        self.misses = 0

    def get(self, records_key: tuple) -> Optional[TraceSignature]:
        found = self._memo.get(records_key)
        if found is not None:
            self.hits += 1
        else:
            self.misses += 1
        return found

    def put(self, records_key: tuple, signature: TraceSignature) -> None:
        if len(self._memo) >= self.capacity:
            self._memo.clear()
        self._memo[records_key] = signature


@dataclass
class CachedVerdict:
    """The reusable payload of one completed analysis."""

    response: AnalysisResponse
    prompt: str
    model: str


class VerdictCache:
    """LRU cache of completed analyses keyed on trace signatures."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[TraceSignature, CachedVerdict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, signature: TraceSignature) -> Optional[CachedVerdict]:
        entry = self._entries.get(signature)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(signature)
        self.hits += 1
        return entry

    def put(self, signature: TraceSignature, entry: CachedVerdict) -> None:
        if signature in self._entries:
            self._entries.move_to_end(signature)
        self._entries[signature] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


__all__ = [
    "AnalysisEngine",
    "CachedVerdict",
    "SignatureInterner",
    "TraceSignature",
    "VerdictCache",
    "trace_signature",
]
