"""repro.llmfast — the verdict-plane fast path (PR 10).

The LLM analyzer xApp — the paper's headline *explainable* half of the
loop (§3.3, Figure 3) — pays one serial provider round trip and one SDL
write per anomaly.  This package adds, behind ``XsecConfig.llmfast`` flags
that default to off:

- a **content-addressed verdict cache** + **in-flight coalescing**
  (:mod:`.cache`): near-duplicate anomaly bursts resolve without a
  provider round trip, and concurrent identical queries join one pending
  request — with the ledger invariant ``offered == analyzed + coalesced +
  cache_hits + pending``.

``python -m repro llmfast-bench`` gates the measured speedups against
hard floors and the committed ``BENCH_llmfast.json`` baseline.
"""

from repro.llmfast.cache import (
    CachedVerdict,
    SignatureInterner,
    TraceSignature,
    VerdictCache,
    trace_signature,
)
from repro.llmfast.settings import LlmfastSettings

__all__ = [
    "CachedVerdict",
    "LlmfastSettings",
    "SignatureInterner",
    "TraceSignature",
    "VerdictCache",
    "trace_signature",
]
