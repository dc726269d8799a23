"""Configuration knobs for the inference hot path (``repro.hotpath``).

Kept dependency-free (like :mod:`repro.scale.settings`) so every layer can
import it without cycles. **Every default keeps scoring exact**: full-window
batch re-runs through the float64 fused kernels, bit-identical to the
layer-walking reference (``AnomalyDetector.reference_scores``).

The two behaviour-changing switches:

- ``incremental`` — per-session carried LSTM hidden/cell state; each new
  record costs one fused LSTM step instead of re-running the whole window
  (O(1) amortized vs O(window) matmuls per record). Scores follow the
  session-context semantics of
  :meth:`repro.ml.detector.LstmDetector.session_window_scores` (the
  offline evaluation path), and are *exactly* reproducible by the batch
  replay (``IncrementalLstmScorer.replay_errors``) in float64 — see
  docs/PERFORMANCE.md for the equality contract.
- ``dtype`` — precision of the fused scoring kernels
  (:mod:`repro.ml.compiled`) and of the incremental step: float64 (the
  default) is exact; float32 trades a tolerance (1e-4 relative, held by
  tests/test_hotpath.py) for ~2x+ kernel throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

_DTYPES = ("float64", "float32")


@dataclass
class HotpathSettings:
    """Knobs of the ``repro.hotpath`` subsystem (see module docstring)."""

    # Per-session carried-state LSTM scoring (LSTM detector only; the flag
    # is ignored with a log line under the autoencoder).
    incremental: bool = False

    # Precision of the fused scoring kernels and the incremental step:
    # "float64" is exact; "float32" is the throughput tier.
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.dtype not in _DTYPES:
            raise ValueError(f"dtype must be one of {_DTYPES}, got {self.dtype!r}")
