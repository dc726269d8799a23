"""Configuration knobs for the training fast path (``repro.trainfast``).

Kept dependency-free (like :mod:`repro.hotpath.settings`) so every layer
can import it without cycles. **Every default keeps training exact**:
float64 compiled kernels (bit-identical to the seed ``fit`` loops), serial
sweeps, no dataset memoization.

The three independent choices:

- ``trainer_dtype`` — precision of the compiled training kernels
  (:mod:`repro.ml.trainer`) that ``AnomalyDetector.fit`` runs. In float64
  the loss trajectory and the resulting weights are **bit-identical** to
  the seed ``train_minibatch`` / ``Autoencoder.fit`` / ``LstmPredictor.fit``
  loops — enforced by tests/test_trainfast.py.
- ``sweep_workers`` — fan ablation/experiment configurations out across
  this many ``multiprocessing`` workers (:mod:`repro.trainfast.sweep`).
  ``0`` keeps the strictly serial sweeps. Results are merged in
  submission order and each task re-seeds deterministically, so a parallel
  sweep returns exactly what the serial sweep returns.
- ``cache`` — content-addressed memoization of encoded telemetry
  (:mod:`repro.trainfast.cache`): per-record feature matrices keyed on
  (capture digest, FeatureSpec), window matrices additionally on
  (window, mode). Sweep configs that share preprocessing stop re-encoding
  identical telemetry. ``cache_dir`` adds a persistent on-disk layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class TrainfastSettings:
    """Knobs of the ``repro.trainfast`` subsystem (see module docstring)."""

    # Kernel dtype for detector.fit(). "float64" (default) is the
    # bit-identity contract mode; "float32" trades exactness (final-loss
    # relative error ~1e-8 on the paper workloads) for the documented
    # >=2x epoch throughput.
    trainer_dtype: str = "float64"

    # Multiprocessing fan-out for ablation/experiment sweeps. 0 = serial
    # (the seed behaviour); N>0 runs sweep tasks across N workers.
    sweep_workers: int = 0

    # Content-addressed dataset cache for encoded window matrices.
    cache: bool = False
    # Optional persistent layer: directory for .npz cache entries. None
    # keeps the cache in-memory only.
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sweep_workers < 0:
            raise ValueError(
                f"sweep_workers must be >= 0, got {self.sweep_workers}"
            )
        if self.trainer_dtype not in ("float64", "float32"):
            raise ValueError(
                f"trainer_dtype must be 'float64' or 'float32', got {self.trainer_dtype!r}"
            )

    @property
    def any_enabled(self) -> bool:
        return self.trainer_dtype != "float64" or self.sweep_workers > 0 or self.cache
