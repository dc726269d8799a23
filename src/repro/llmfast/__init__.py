"""repro.llmfast — the verdict-plane fast path (PR 10).

The LLM analyzer xApp — the paper's headline *explainable* half of the
loop (§3.3, Figure 3) — pays one serial provider round trip and one SDL
write per anomaly.  This package adds, behind ``XsecConfig.llmfast`` flags
that default to off:

- a **content-addressed verdict cache** + **in-flight coalescing**
  (:mod:`.cache`): near-duplicate anomaly bursts resolve without a
  provider round trip, and concurrent identical queries join one pending
  request;
- a **storm-safe dispatch queue** (:mod:`.dispatch`): bounded provider
  concurrency, severity-priority backlog, counted never-silent shedding,
  and batched verdict persistence via ``SharedDataLayer.set_many`` —
  with the ledger invariant ``offered == analyzed + coalesced +
  cache_hits + shed + pending``.

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
from repro.llmfast.dispatch import StormDispatcher
from repro.llmfast.settings import LlmfastSettings

__all__ = [
    "CachedVerdict",
    "LlmfastSettings",
    "SignatureInterner",
    "StormDispatcher",
    "TraceSignature",
    "VerdictCache",
    "trace_signature",
]
