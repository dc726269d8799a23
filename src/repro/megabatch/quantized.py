"""Int8/float16 quantized LSTM tier: one fused batched step per tick.

NumPy has no fast native int8 matmul (``int8 @ int8`` promotes through
slow integer kernels; float16 GEMMs are orders of magnitude slower than
sgemm), so this tier carries int8 arithmetic **inside float32 BLAS**:
quantized weights and inputs are small integers stored in float32 arrays.
Every product is at most ``127 * 127`` and every GEMM accumulates at most
``max(input_dim, hidden_dim)`` of them, far below ``2**24`` — so the
integer part of each dot product is exact in float32; quantization
rounding is the *only* error source of the input-side term.

Quantization scheme:

- **weights**: per-column symmetric int8 — each GEMM output column is the
  dot product of one weight column alone, so a per-column scale factors
  out of the sum exactly;
- **inputs**: per-tensor symmetric int8, scale from a per-capture
  calibration pass over the training windows (the observed absolute
  maximum — :func:`calibrate_windows`);
- **carried state**: the per-session hidden/cell arenas are stored in
  float16 (:data:`STATE_DTYPE`, halving state memory at fleet scale) and
  dequantized to float32 for the batched step. The recurrent
  and head GEMMs multiply float state against int8 weights in sgemm.

The speed of the tier comes from two compounding changes versus the
compiled float32 window kernels: carried state turns O(window) full-window
gate steps per score into **one** step, and the whole fleet's step runs as
a single ``[n_sessions, *]`` GEMM pair per tick (:meth:`megastep`).

Scores follow the *session-context* semantics of
:class:`repro.hotpath.incremental.IncrementalLstmScorer`: a record's
prediction context is its entire session prefix, ``error[0] = 0``, and the
window score is the max over the last ``window`` per-record errors (kept
in a per-session ring). Scores are **not** bit-identical to float64 — the
documented accuracy contract is at the detection-metric level
(:data:`QUANTIZED_METRIC_TOL`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.ml.compiled import _sigmoid_inplace

# Symmetric int8 range used for every quantized tensor.
_QMAX = 127.0
# Storage precision of the carried hidden/cell state arenas: float16 halves
# state memory at fleet scale (the batched step itself computes in float32).
STATE_DTYPE = np.dtype("float16")
# How calibrate_windows picks the input scale (QuantCalibration.method).
CALIBRATION = "minmax"
# The accuracy contract of the tier: Table-2-style detection metrics
# (accuracy/precision/recall/F1 at the percentile operating point) stay
# within this absolute tolerance of the float64 path, verified per attack
# scenario by tests/test_megabatch.py.
QUANTIZED_METRIC_TOL = 0.05


@dataclass(frozen=True)
class QuantCalibration:
    """Per-capture input-quantization scales (from the training windows)."""

    # Per-tensor input scale: real_value ~= int8_value * input_scale.
    input_scale: float
    method: str
    observed_abs_max: float

    def to_dict(self) -> dict:
        return {
            "input_scale": self.input_scale,
            "method": self.method,
            "observed_abs_max": self.observed_abs_max,
        }


def calibrate_windows(windows: np.ndarray) -> QuantCalibration:
    """Calibration pass: pick the int8 input scale from training windows
    (the observed absolute maximum maps to 127)."""
    flat = np.abs(np.asarray(windows, dtype=np.float64)).ravel()
    observed = float(flat.max()) if flat.size else 0.0
    return QuantCalibration(
        input_scale=max(observed, 1e-12) / _QMAX,
        method=CALIBRATION,
        observed_abs_max=observed,
    )


def _quantize_per_column(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-column int8 quantization, kept in float32 arrays.

    Returns ``(wq, scales)`` with ``wq[:, j] * scales[j] ~= weights[:, j]``
    and ``|wq| <= 127`` exactly representable in float32.
    """
    weights = np.asarray(weights, dtype=np.float64)
    scales = np.abs(weights).max(axis=0) / _QMAX
    scales = np.maximum(scales, 1e-12)
    wq = np.rint(weights / scales)
    np.clip(wq, -_QMAX, _QMAX, out=wq)
    return wq.astype(np.float32), scales.astype(np.float32)


class QuantizedLstmEngine:
    """Carried-state batched scorer over int8-quantized LSTM weights."""

    def __init__(
        self,
        detector,
        calibration: QuantCalibration,
        metrics=None,
        initial_sessions: int = 64,
    ) -> None:
        from repro.ml.detector import LstmDetector

        if not isinstance(detector, LstmDetector):
            raise TypeError(
                f"quantized tier needs an LstmDetector, got {type(detector).__name__}"
            )
        self.calibration = calibration
        self.window = detector.window
        model = detector.model
        self.input_dim = model.input_dim
        self.hidden_dim = model.hidden_dim
        hd = self.hidden_dim
        # Same [i, f, g, o] -> [i, f, o, g] column permutation as the
        # compiled kernels: the three sigmoid gates become one contiguous
        # block (one fused sigmoid call). Column permutation commutes with
        # per-column quantization.
        perm = np.concatenate(
            [np.arange(0, 2 * hd), np.arange(3 * hd, 4 * hd), np.arange(2 * hd, 3 * hd)]
        )
        self._wxq, wx_scales = _quantize_per_column(model.Wx.value[:, perm])
        self._whq, wh_scales = _quantize_per_column(model.Wh.value[:, perm])
        self._b = np.ascontiguousarray(model.b.value[perm], dtype=np.float32)
        self._headq, head_scales = _quantize_per_column(model.head.W.value)
        self._head_b = np.ascontiguousarray(model.head.b.value, dtype=np.float32)
        # Composite column scales applied after each GEMM (row vectors so
        # they broadcast over the batch).
        sx = np.float32(calibration.input_scale)
        self._input_scale = sx
        self._x_colscale = (wx_scales * sx)[None, :]
        self._h_colscale = wh_scales[None, :]
        self._head_colscale = head_scales[None, :]
        # Per-session state arenas: slot-indexed dense arrays so one tick's
        # sessions gather/scatter with two fancy-index copies.
        cap = max(initial_sessions, 1)
        self._h = np.zeros((cap, hd), dtype=STATE_DTYPE)
        self._c = np.zeros((cap, hd), dtype=STATE_DTYPE)
        self._err_ring = np.zeros((cap, self.window), dtype=np.float32)
        self._counts = np.zeros(cap, dtype=np.int64)
        self._slots: Dict[int, int] = {}
        self._free: list[int] = []
        self.steps = 0
        self._steps_counter = None
        if metrics is not None:
            self._steps_counter = metrics.counter(
                "megabatch.quantized_steps_total",
                help="records advanced through the fused quantized step",
            )
            metrics.gauge(
                "megabatch.quantized_sessions",
                fn=lambda: float(len(self._slots)),
                help="sessions with carried quantized LSTM state",
            )

    # -- session state management -------------------------------------------------

    def __contains__(self, session_id: int) -> bool:
        return session_id in self._slots

    @property
    def sessions(self) -> int:
        return len(self._slots)

    def session_count(self, session_id: int) -> int:
        slot = self._slots.get(session_id)
        return int(self._counts[slot]) if slot is not None else 0

    def release(self, session_id: int) -> bool:
        """Drop one session's carried state; its slot is recycled."""
        slot = self._slots.pop(session_id, None)
        if slot is None:
            return False
        self._h[slot] = 0
        self._c[slot] = 0
        self._err_ring[slot] = 0.0
        self._counts[slot] = 0
        self._free.append(slot)
        return True

    def _slot(self, session_id: int) -> int:
        slot = self._slots.get(session_id)
        if slot is not None:
            return slot
        if self._free:
            slot = self._free.pop()
        else:
            slot = len(self._slots)
            if slot >= self._h.shape[0]:
                self._grow(slot + 1)
        self._slots[session_id] = slot
        return slot

    def _grow(self, needed: int) -> None:
        cap = max(needed, self._h.shape[0] * 2)
        for name in ("_h", "_c", "_err_ring"):
            old = getattr(self, name)
            grown = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)
        counts = np.zeros(cap, dtype=np.int64)
        counts[: self._counts.shape[0]] = self._counts
        self._counts = counts

    # -- the fused batched step ---------------------------------------------------

    def megastep(self, session_ids, rows: np.ndarray) -> np.ndarray:
        """Ingest one new record for each listed session — one GEMM pair.

        ``session_ids`` must be unique within a call (a session with two
        records in one tick takes two waves — the caller groups records).
        Returns each session's updated window score (session-context: max
        over its last ``window`` per-record errors).
        """
        idx = np.fromiter(
            (self._slot(sid) for sid in session_ids), dtype=np.int64, count=len(session_ids)
        )
        n = idx.shape[0]
        if n == 0:
            return np.zeros(0)
        counter = self._steps_counter
        if counter is not None:
            counter.value += n
        self.steps += n
        hd = self.hidden_dim
        x = np.ascontiguousarray(rows, dtype=np.float32)
        h = self._h[idx].astype(np.float32, copy=False)
        c = self._c[idx].astype(np.float32, copy=False)
        counts = self._counts[idx]
        # Next-entry prediction error of the arriving record, from the
        # state carried over the session prefix. A session's first record
        # is unpredictable: error 0 (the seed convention).
        pred = np.dot(h, self._headq)
        pred *= self._head_colscale
        pred += self._head_b
        pred -= x
        np.multiply(pred, pred, out=pred)
        errors = np.mean(pred, axis=1)
        errors[counts == 0] = 0.0
        # Quantize the inputs (per-tensor scale), then the fused gate step:
        # both GEMMs in float32, int8 values exact, column scales applied
        # after the accumulate.
        xq = x / self._input_scale
        np.rint(xq, out=xq)
        np.clip(xq, -_QMAX, _QMAX, out=xq)
        z = np.dot(xq, self._wxq)
        z *= self._x_colscale
        zh = np.dot(h, self._whq)
        zh *= self._h_colscale
        z += zh
        z += self._b
        # Permuted layout: [i | f | o] sigmoid block, then g.
        i = z[:, :hd]
        f = z[:, hd : 2 * hd]
        o = z[:, 2 * hd : 3 * hd]
        g = z[:, 3 * hd :]
        _sigmoid_inplace(z[:, : 3 * hd])
        np.tanh(g, out=g)
        np.multiply(f, c, out=c)
        c += i * g
        tanh_c = np.tanh(c)
        np.multiply(o, tanh_c, out=h)
        # Scatter state back (casts into the storage dtype) and record the
        # error in each session's ring.
        self._h[idx] = h
        self._c[idx] = c
        self._err_ring[idx, counts % self.window] = errors
        self._counts[idx] = counts + 1
        return self.window_scores_for(session_ids)

    def warm_up(self, session_id: int, rows) -> None:
        """Replay pre-existing session rows (deploy-time catch-up)."""
        for row in np.asarray(rows, dtype=np.float32):
            self.megastep([session_id], row[None, :])

    # -- scoring ------------------------------------------------------------------

    def window_score(self, session_id: int) -> float:
        """One session's current window score (ring max)."""
        slot = self._slots.get(session_id)
        if slot is None or self._counts[slot] == 0:
            raise KeyError(f"no records pushed for session {session_id}")
        return float(self._err_ring[slot].max())

    def window_scores_for(self, session_ids) -> np.ndarray:
        """Vectorized window scores for sessions that already hold state.

        Ring entries never written stay 0.0, which matches the seed
        convention exactly: errors are non-negative and a short session's
        score is the max over its errors including ``error[0] = 0``.
        """
        idx = np.fromiter(
            (self._slots[sid] for sid in session_ids),
            dtype=np.int64,
            count=len(session_ids),
        )
        if idx.shape[0] == 0:
            return np.zeros(0)
        return self._err_ring[idx].max(axis=1).astype(np.float64)

    # -- offline scoring (threshold fitting + accuracy-contract tests) ------------

    def record_errors_for_rows(self, rows: np.ndarray) -> np.ndarray:
        """Per-record quantized session-context errors, fresh state.

        The quantized analogue of
        :meth:`repro.hotpath.incremental.IncrementalLstmScorer.replay_errors`;
        does not touch the live session arenas.
        """
        seq = np.asarray(rows, dtype=np.float32)
        length = seq.shape[0]
        errors = np.zeros(length)
        if length < 2:
            return errors
        hd = self.hidden_dim
        h = np.zeros((1, hd), dtype=STATE_DTYPE)
        c = np.zeros((1, hd), dtype=STATE_DTYPE)
        for t in range(length - 1):
            h32 = h.astype(np.float32, copy=False)
            c32 = c.astype(np.float32, copy=False)
            x = seq[t : t + 1]
            xq = np.clip(np.rint(x / self._input_scale), -_QMAX, _QMAX)
            z = np.dot(xq, self._wxq) * self._x_colscale
            z += np.dot(h32, self._whq) * self._h_colscale
            z += self._b
            i = z[:, :hd]
            f = z[:, hd : 2 * hd]
            o = z[:, 2 * hd : 3 * hd]
            g = z[:, 3 * hd :]
            _sigmoid_inplace(z[:, : 3 * hd])
            np.tanh(g, out=g)
            c32 = f * c32 + i * g
            h32 = o * np.tanh(c32)
            h = h32.astype(STATE_DTYPE)
            c = c32.astype(STATE_DTYPE)
            pred = np.dot(h.astype(np.float32, copy=False), self._headq)
            pred *= self._head_colscale
            pred += self._head_b
            diff = pred - seq[t + 1 : t + 2]
            errors[t + 1] = float(np.mean(diff * diff))
        return errors

    def window_scores(self, windows: np.ndarray, window: int) -> np.ndarray:
        """Quantized window-mode scores (fresh state per window).

        Mirrors ``LstmDetector.scores`` — used to fit the quantized
        operating threshold on the training windows at ``fit`` time, so
        the live percentile operating point refers to quantized score
        space rather than float64 score space.
        """
        windows = np.asarray(windows)
        n = windows.shape[0]
        if n == 0:
            return np.zeros(0)
        steps = window - 1
        hd = self.hidden_dim
        shaped = windows.reshape(n, window, self.input_dim).astype(np.float32)
        h = np.zeros((n, hd), dtype=np.float32)
        c = np.zeros((n, hd), dtype=np.float32)
        errs = np.empty((n, steps), dtype=np.float32)
        for t in range(steps):
            x = shaped[:, t, :]
            xq = np.clip(np.rint(x / self._input_scale), -_QMAX, _QMAX)
            z = np.dot(xq, self._wxq) * self._x_colscale
            z += np.dot(h, self._whq) * self._h_colscale
            z += self._b
            i = z[:, :hd]
            f = z[:, hd : 2 * hd]
            o = z[:, 2 * hd : 3 * hd]
            g = z[:, 3 * hd :]
            _sigmoid_inplace(z[:, : 3 * hd])
            np.tanh(g, out=g)
            np.multiply(f, c, out=c)
            c += i * g
            h = o * np.tanh(c)
            # Round-trip through the storage dtype so window-mode scores
            # see the same state precision as the live path.
            h = h.astype(STATE_DTYPE).astype(np.float32)
            c = c.astype(STATE_DTYPE).astype(np.float32)
            pred = np.dot(h, self._headq)
            pred *= self._head_colscale
            pred += self._head_b
            diff = pred - shaped[:, t + 1, :]
            errs[:, t] = np.mean(diff * diff, axis=1)
        return errs.max(axis=1).astype(np.float64)

    def session_window_scores(self, windowed) -> np.ndarray:
        """Quantized session-context scores for a sessionized dataset.

        The quantized analogue of
        :meth:`repro.ml.detector.LstmDetector.session_window_scores`, for
        the Table-2-style accuracy-contract evaluation.
        """
        from repro.ml.detector import merge_session_groups

        groups = merge_session_groups(windowed.window_records)
        per_record = np.asarray(windowed.per_record, dtype=np.float64)
        record_errors = np.zeros(per_record.shape[0])
        for indices in groups:
            indices = list(indices)
            if len(indices) < 2:
                continue
            record_errors[indices] = self.record_errors_for_rows(per_record[indices])
        return np.array(
            [
                record_errors[list(indices)].max() if indices else 0.0
                for indices in windowed.window_records
            ]
        )

    def stats(self) -> dict:
        return {
            "sessions": self.sessions,
            "steps": self.steps,
            "state_dtype": str(STATE_DTYPE),
            "input_scale": float(self._input_scale),
            "calibration": self.calibration.method,
        }
