"""Training fast path: sweep fan-out, dataset cache, float32 training tier.

All behind :class:`TrainfastSettings`, whose defaults keep training exact
and serial:

- ``trainer_dtype`` — precision of the compiled forward/backward/Adam
  kernels (:mod:`repro.ml.trainer`) that every ``AnomalyDetector.fit``
  runs (float64 = exact, float32 = fast);
- :mod:`repro.trainfast.sweep` — multiprocessing fan-out for
  ablation/experiment sweeps with submission-order, deterministic results;
- :mod:`repro.trainfast.cache` — content-addressed memoization of encoded
  telemetry datasets.

``repro.trainfast.bench`` measures all three against the committed
``BENCH_trainfast.json`` baseline (``python -m repro trainfast-bench``).
"""

from repro.trainfast.cache import DatasetCache, series_digest, spec_key
from repro.trainfast.settings import TrainfastSettings
from repro.trainfast.sweep import SweepRunner, derive_seed

__all__ = [
    "DatasetCache",
    "SweepRunner",
    "TrainfastSettings",
    "derive_seed",
    "series_digest",
    "spec_key",
]
