"""repro.hotpath: the behaviour-changing tiers of the live scoring path.

- :mod:`repro.hotpath.incremental` — O(1)-amortized per-session LSTM
  scoring with carried hidden/cell state (session-context semantics);
- ``HotpathSettings.dtype`` — the float32 tier of the fused scoring
  kernels (:mod:`repro.ml.compiled`, which every deployment runs; float64
  is the exact default).

All defaults in :class:`~repro.hotpath.settings.HotpathSettings` keep
scoring exact; :mod:`repro.hotpath.bench` measures the speedups and gates
them against the committed ``BENCH_hotpath.json`` (see
docs/PERFORMANCE.md).
"""

from repro.hotpath.incremental import IncrementalLstmScorer
from repro.hotpath.settings import HotpathSettings

__all__ = ["HotpathSettings", "IncrementalLstmScorer"]
