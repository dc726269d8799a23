"""The quantized scoring tier and bounded per-session state.

An int8/float16 quantized LSTM tier with carried per-session state and a
per-capture calibration pass, plus session eviction. (The per-tick gather
this package introduced is MobiWatch's only inline path now — one
row-exact detector call per indication, :mod:`repro.ml.compiled`.) See
:mod:`repro.megabatch.settings` for the knobs and the accuracy contract,
and docs/PERFORMANCE.md for numbers.
"""

from repro.megabatch.quantized import (
    QuantCalibration,
    QuantizedLstmEngine,
    calibrate_windows,
)
from repro.megabatch.settings import MegabatchSettings

__all__ = [
    "MegabatchSettings",
    "QuantCalibration",
    "QuantizedLstmEngine",
    "calibrate_windows",
]
