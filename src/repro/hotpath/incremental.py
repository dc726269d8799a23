"""O(1)-amortized per-session LSTM scoring with carried hidden/cell state.

The seed live path re-runs the whole window through ``LstmPredictor.forward``
on every new record — O(window) gate matmuls per record, with fresh zero
state per window. This module instead carries each session's LSTM
hidden/cell state across records: scoring a new record costs **one** fused
LSTM step plus one head matmul, and follows the *session-context* semantics
of :meth:`repro.ml.detector.LstmDetector.session_window_scores` (the
offline evaluation path), so a record's prediction context is its entire
session prefix rather than the window prefix — the train/serve scoring
mismatch of the seed live path disappears.

Score of the live window ending at record ``t``:

    max(error[t - window + 1 .. t])        (fewer while the session is short)

where ``error[j]`` is the next-entry prediction error of record ``j`` given
state carried over records ``0..j-1``, and ``error[0] = 0`` (a session's
first record is unpredictable — exactly ``record_errors``' convention).

Equality contract (enforced by tests/test_hotpath.py):

- in **float64** the carried state produces scores *bitwise equal* to
  :meth:`replay_errors`, which recomputes every error from the session
  prefix using the seed's own plain-numpy expressions;
- in **float32** (``hotpath.dtype``) scores match the float64 replay within
  the tolerance the tests document;
- a live pipeline whose scorer is swapped for :meth:`replay_window_score`
  emits identical anomaly events.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional

import numpy as np

from repro.hotpath.settings import HotpathSettings
from repro.ml.compiled import CompiledLstm
from repro.ml.detector import LstmDetector
from repro.slo import profiler as _profiler

# Active-profiler sampling stride on the per-record scoring path: one call
# in this many is timed and extrapolated (repro.slo.profiler.record). The
# stride keeps the skip path to one attribute update; at fleet record
# rates even 1-in-128 yields dozens of samples per second.
_PROFILE_SAMPLE = 128


class _SessionState:
    """One session's carried LSTM state and per-record error history."""

    __slots__ = ("h", "c", "errors")

    def __init__(self, h: np.ndarray, c: np.ndarray) -> None:
        self.h = h
        self.c = c
        self.errors: list[float] = []


class IncrementalLstmScorer:
    """Carried-state scorer for a fitted :class:`LstmDetector`."""

    def __init__(
        self, detector, settings: Optional[HotpathSettings] = None, metrics=None
    ) -> None:
        if not isinstance(detector, LstmDetector):
            raise TypeError(
                f"incremental scoring needs an LstmDetector, got {type(detector).__name__}"
            )
        self.settings = settings if settings is not None else HotpathSettings(incremental=True)
        self.window = detector.window
        self.model = detector.model
        self.dtype = np.dtype(self.settings.dtype)
        # The fused single-step kernel; in float64 its ops mirror the seed
        # expressions exactly (same association, same sigmoid op sequence).
        self._core = CompiledLstm(self.model, str(self.dtype))
        self._sessions: Dict[int, _SessionState] = {}
        # Optional repro.obs counters. push() is the hottest per-record
        # call in the deployment, so the increment is inlined on the raw
        # counter value (no method dispatch) and skipped when unwired.
        self._steps_counter = None
        self._scores_counter = None
        self._prof_skip = _PROFILE_SAMPLE
        if metrics is not None:
            self._steps_counter = metrics.counter(
                "hotpath.incremental_steps_total",
                help="fused LSTM steps (one per ingested record)",
            )
            self._scores_counter = metrics.counter(
                "hotpath.incremental_window_scores_total",
                help="O(1) carried-state window scores",
            )
            metrics.gauge(
                "hotpath.incremental_sessions",
                fn=lambda: float(len(self._sessions)),
                help="sessions with carried LSTM state",
            )

    # -- carried state -----------------------------------------------------------

    def push(self, session_id: int, row: np.ndarray) -> float:
        """Ingest one record; returns its session-context prediction error.

        One fused LSTM step + one head matmul per call.
        """
        counter = self._steps_counter
        if counter is not None:
            counter.value += 1
        state = self._sessions.get(session_id)
        if state is None:
            h, c = self._core.new_state()
            state = self._sessions[session_id] = _SessionState(h, c)
            error = 0.0
        else:
            error = self._core.step_error(state.h, row)
        self._core.step(row, state.h, state.c)
        state.errors.append(error)
        return error

    def warm_up(self, session_id: int, rows: Iterable[np.ndarray]) -> None:
        """Replay pre-existing session rows through the cached state.

        Used at detector deployment when sessions already hold telemetry:
        afterwards the carried state is exactly what record-by-record
        ingest would have produced.
        """
        for row in np.asarray(rows):
            self.push(session_id, row)

    def session_length(self, session_id: int) -> int:
        state = self._sessions.get(session_id)
        return len(state.errors) if state is not None else 0

    def release(self, session_id: int) -> bool:
        """Drop one session's carried state and error history (eviction)."""
        return self._sessions.pop(session_id, None) is not None

    def record_errors(self, session_id: int) -> np.ndarray:
        """The session's per-record errors so far."""
        state = self._sessions.get(session_id)
        if state is None:
            return np.zeros(0)
        return np.asarray(state.errors, dtype=np.float64)

    # -- scoring -----------------------------------------------------------------

    def window_score(self, session_id: int, rows: Optional[np.ndarray] = None) -> float:
        """Score of the session's current last window.

        ``rows`` is the session's full row history ``[L, dim]`` (an arena
        view): what :meth:`replay_window_score` needs when a test swaps it
        in as the oracle; the carried state does not read it.
        """
        # Sampled profiling: this runs once per record at fleet rate, so an
        # active profiler times one call in _PROFILE_SAMPLE and reports the
        # extrapolated total; every other call pays one decrement.
        prof = _profiler.CURRENT
        if prof is not None:
            skip = self._prof_skip - 1
            if skip <= 0:
                self._prof_skip = _PROFILE_SAMPLE
                start = time.perf_counter()
                score = self._window_score(session_id, rows)
                prof.record(
                    "hotpath.window_score",
                    (time.perf_counter() - start) * _PROFILE_SAMPLE,
                    calls=_PROFILE_SAMPLE,
                )
                return score
            self._prof_skip = skip
        return self._window_score(session_id, rows)

    def _window_score(self, session_id: int, rows: Optional[np.ndarray]) -> float:
        state = self._sessions.get(session_id)
        if state is None or not state.errors:
            raise KeyError(f"no records pushed for session {session_id}")
        score = max(state.errors[-self.window :])
        counter = self._scores_counter
        if counter is not None:
            counter.value += 1
        return score

    # -- batch-replay reference --------------------------------------------------

    def replay_errors(self, rows: np.ndarray) -> np.ndarray:
        """Per-record session-context errors recomputed from scratch.

        Runs the seed's own float64 expressions step by step over the whole
        session: the state recursion is the body of
        ``LstmPredictor.forward`` and each step's prediction applies the
        head exactly as ``Dense.forward`` does on a single-row input. The
        float64 cached path must equal this bitwise.
        """
        from repro.ml.lstm import _sigmoid

        seq = np.asarray(rows, dtype=np.float64)
        if seq.ndim != 2 or seq.shape[1] != self.model.input_dim:
            raise ValueError(f"expected [L, {self.model.input_dim}] rows, got {seq.shape}")
        length = seq.shape[0]
        errors = np.zeros(length)
        if length < 2:
            return errors
        model = self.model
        hd = model.hidden_dim
        h = np.zeros((1, hd))
        c = np.zeros((1, hd))
        for t in range(length - 1):
            xt = seq[t : t + 1]
            z = xt @ model.Wx.value + h @ model.Wh.value + model.b.value
            i = _sigmoid(z[:, :hd])
            f = _sigmoid(z[:, hd : 2 * hd])
            g = np.tanh(z[:, 2 * hd : 3 * hd])
            o = _sigmoid(z[:, 3 * hd :])
            c = f * c + i * g
            h = o * np.tanh(c)
            pred = h @ model.head.W.value + model.head.b.value
            errors[t + 1] = np.mean((pred - seq[t + 1 : t + 2]) ** 2, axis=1)[0]
        return errors

    def replay_window_score(self, rows: np.ndarray) -> float:
        """Reference score of the last window of a session's rows."""
        errors = self.replay_errors(rows)
        if len(errors) == 0:
            raise ValueError("cannot score an empty session")
        return float(errors[-self.window :].max())
