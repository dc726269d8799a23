"""Configuration knobs of the quantized tier and session eviction
(``repro.megabatch``).

Kept dependency-free (like :mod:`repro.hotpath.settings`) so every layer can
import it without cycles. **Every default preserves the exact float64
scoring behaviour**: no quantization, no session eviction. (Per-tick
batching is not a knob: MobiWatch's inline path always gathers a tick's
ready windows into one row-exact detector call, see
:mod:`repro.ml.compiled`.)

The independent switches:

- ``quantized`` — the int8/float16 quantized kernel tier (LSTM detector
  only; ignored with a log line under the autoencoder). Weights and
  inputs are quantized to int8 (per-column / per-tensor scales from a
  per-capture calibration pass) and carried exactly inside float32 BLAS
  GEMMs; per-session hidden/cell state is stored in float16 and
  advanced by **one** fused batched LSTM step per tick across all touched
  sessions (session-context semantics, like
  :mod:`repro.hotpath.incremental`). Scores differ from the float64 path;
  the accuracy contract is at the detection-metric level (see
  ``repro.megabatch.quantized.QUANTIZED_METRIC_TOL`` and
  docs/PERFORMANCE.md).
- eviction (``evict_on_release`` / ``evict_idle_s``) — bounded per-session
  state: drop a session's record indices, arena rows, carried scorer
  state and alert bookkeeping when the RAN releases the session or after
  an idle horizon. Off by default because a re-appearing session restarts
  its window history (a behaviour change, not a bit-identical one).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MegabatchSettings:
    """Knobs of the ``repro.megabatch`` subsystem (see module docstring)."""

    # Int8-weight/int8-input quantized batched LSTM tier with carried
    # per-session state (LSTM detector only; the autoencoder keeps the
    # float paths).
    quantized: bool = False

    # Session-state eviction. ``evict_on_release``: an RRCRelease record
    # finishes the session — score its final window immediately (instead
    # of waiting out the maturity timer) and drop its state at the end of
    # the tick. ``evict_idle_s`` > 0: a periodic sweep (every
    # ``evict_sweep_s``) drops sessions untouched for that horizon.
    evict_on_release: bool = False
    evict_idle_s: float = 0.0
    evict_sweep_s: float = 5.0

    def __post_init__(self) -> None:
        if self.evict_idle_s < 0:
            raise ValueError(f"evict_idle_s must be >= 0, got {self.evict_idle_s}")
        if self.evict_sweep_s <= 0:
            raise ValueError(f"evict_sweep_s must be > 0, got {self.evict_sweep_s}")

    @property
    def eviction_enabled(self) -> bool:
        return self.evict_on_release or self.evict_idle_s > 0

    @property
    def any_enabled(self) -> bool:
        return self.quantized or self.eviction_enabled
