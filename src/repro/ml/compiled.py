"""Fused inference kernels over contiguous weight snapshots.

The training-grade model objects pay costs inference never needs: per-call
allocation of every intermediate, ``_StepCache`` bookkeeping for BPTT,
backward-state stashes in every ``Dense``/``ReLU``. A :class:`CompiledModel`
snapshots the detector's weights into contiguous float64 arrays and runs
scoring through preallocated-buffer kernels (``np.dot(..., out=...)`` and
in-place ufuncs).

This is what ``AnomalyDetector.scores`` runs. Equality contract (enforced
by tests/test_hotpath.py): the kernels mirror the model objects' op
sequence exactly — same GEMM shapes, same association, same clip/exp/tanh
calls — so scores are bit-identical to the layer-walking test oracle in
tests/reference_scoring.py.

Two batch modes. By default a batch goes through full-height GEMMs —
offline scoring: training thresholds, the paper's tables. With
``per_row=True`` (the live path: MobiWatch's tick gather) the kernels
are **row-exact**: every GEMM is issued as a stack of the products the
single-window call makes (:func:`_gemv_stack`) while the gate, ReLU and
error element-wise ops run once over the whole batch, so
``scores(m, per_row=True)[i]`` equals ``scores(m[i:i+1])[0]`` bit for bit
at any batch height. The LSTM has its own kernel for it,
:meth:`CompiledLstm.row_scores`, at every height including 1: its input
projections for all steps are one such stack into a step-major buffer,
so each step's gates are one contiguous block, its head is one
``[steps, H] @ [H, D]`` per window, and its element-wise ops are raw
ufunc calls (at tick heights their dispatch, not their arithmetic, is the
bill).

A row-exact score is a function of the row's bytes alone, so the snapshot
remembers it under them (:meth:`CompiledModel.memo_scores`).

Weight snapshots are taken at construction; ``AnomalyDetector.fit`` drops
its snapshot (and the memo with it) and the next ``scores`` call rebuilds it.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional

import numpy as np

from repro.ml.layers import Dense, ReLU
from repro.obs import profiler as _profiler

# Score-memo entries per snapshot: <= 7 MiB of keys at window 6 x dim 71 float32.
SCORE_MEMO_CAPACITY = 4096
# Batch heights whose row-exact buffer views a snapshot keeps built.
ROW_VIEW_CACHE = 32
# The kernels' one precision: the reference's.
DTYPE = np.dtype(np.float64)
# Active-profiler sampling stride on the kernel call MobiWatch makes every
# tick: one call in this many is timed and extrapolated
# (repro.obs.profiler.record), so watching it costs a countdown, not two
# clock reads and a stage update per tick.
PROFILE_SAMPLE = 8


def _sigmoid_inplace(buf: np.ndarray) -> None:
    """In-place ``1 / (1 + exp(-clip(x, -60, 60)))`` — the seed's sigmoid.

    Raw ufuncs: ``np.clip``'s float loop is ``min(max(x, lo), hi)``, so the
    two calls below give its bits without its Python-level wrapper.
    """
    np.maximum(buf, -60.0, out=buf)
    np.minimum(buf, 60.0, out=buf)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    np.add(buf, 1.0, out=buf)
    np.true_divide(1.0, buf, out=buf)


def _mean_last_axis(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.mean(values, axis=-1, out=out)`` as the two ufuncs it runs."""
    total = np.add.reduce(values, axis=-1, out=out)
    return np.true_divide(total, np.intp(values.shape[-1]), out=total, casting="unsafe")


def _gemv_stack(a: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """``out[..., i, :] = a[..., i, :] @ w`` as a stack of ``[1, K] @ [K, N]``
    products.

    ``np.matmul`` hands every item of an ``[..., 1, K]`` stack to BLAS on
    its own — the very GEMV ``np.dot`` issues for a single ``[1, K]``
    window, whatever the strides between the items — so a row's result does
    not depend on how many rows ride along. One ``[n, K] @ [K, N]`` GEMM
    does: BLAS picks differently blocked (and so differently accumulated)
    kernels per batch height.
    """
    np.matmul(a[..., None, :], w, out=out[..., None, :])


class _DenseWeights:
    """One Dense layer's weights, contiguous in float64."""

    __slots__ = ("w", "b")

    def __init__(self, layer) -> None:
        self.w = np.ascontiguousarray(layer.W.value, dtype=DTYPE)
        self.b = np.ascontiguousarray(layer.b.value, dtype=DTYPE)


class CompiledAutoencoder:
    """Fused Dense+ReLU chain scoring windows like ``AutoencoderDetector``."""

    def __init__(self, detector) -> None:
        self.window = detector.window
        self.feature_dim = detector.feature_dim
        self.aggregate = detector.aggregate
        self.input_dim = detector.model.input_dim
        # (weights, relu_after) per Dense layer, in forward order.
        self._chain: list[tuple[_DenseWeights, bool]] = []
        layers = detector.model.model.layers
        for i, layer in enumerate(layers):
            if isinstance(layer, Dense):
                relu = i + 1 < len(layers) and isinstance(layers[i + 1], ReLU)
                self._chain.append((_DenseWeights(layer), relu))
            elif not isinstance(layer, ReLU):
                raise TypeError(f"unsupported autoencoder layer {type(layer).__name__}")
        self._capacity = 0
        self._buffers: list[np.ndarray] = []
        self._masks: list[np.ndarray] = []
        self._input: Optional[np.ndarray] = None
        self._diff: Optional[np.ndarray] = None
        self._slot: Optional[np.ndarray] = None

    def _ensure_capacity(self, n: int) -> None:
        if n <= self._capacity:
            return
        cap = max(n, self._capacity * 2, 16)
        self._input = np.empty((cap, self.input_dim), dtype=DTYPE)
        self._buffers = [
            np.empty((cap, weights.b.shape[0]), dtype=DTYPE) for weights, _ in self._chain
        ]
        self._masks = [
            np.empty((cap, weights.b.shape[0]), dtype=bool)
            for weights, _ in self._chain
        ]
        self._diff = np.empty((cap, self.input_dim), dtype=DTYPE)
        self._slot = np.empty((cap, self.window), dtype=DTYPE)
        self._capacity = cap

    def scores(self, windows: np.ndarray, per_row: bool = False) -> np.ndarray:
        """Anomaly score per window — ``AutoencoderDetector.scores`` fused.

        ``per_row``: row-exact batch mode, see the module docstring.
        """
        windows = np.asarray(windows)
        n = windows.shape[0]
        if n == 0:
            return np.zeros(0)
        self._ensure_capacity(n)
        x = self._input[:n]
        np.copyto(x, windows, casting="unsafe")
        stacked = per_row and n > 1
        out = x
        for (weights, relu), buf, mask in zip(self._chain, self._buffers, self._masks):
            layer_out = buf[:n]
            if stacked:
                _gemv_stack(out, weights.w, layer_out)
            else:
                np.dot(out, weights.w, out=layer_out)
            layer_out += weights.b
            if relu:
                # x * (x > 0): the seed ReLU's exact expression (keeps the
                # sign of -0.0, so scores stay bit-identical).
                np.greater(layer_out, 0, out=mask[:n])
                layer_out *= mask[:n]
            out = layer_out
        diff = self._diff[:n]
        np.subtract(out, x, out=diff)
        np.multiply(diff, diff, out=diff)
        if self.aggregate == "mean":
            return _mean_last_axis(diff)
        slot = _mean_last_axis(diff.reshape(n, self.window, self.feature_dim), self._slot[:n])
        return np.maximum.reduce(slot, axis=1)


class CompiledLstm:
    """Fused LSTM gate kernels for batch window scoring.

    The four gate matmuls write one preallocated ``[*, 4H]`` block per step;
    gate activations are in-place ufuncs on it. No ``_StepCache`` objects,
    no per-step allocation. Two batch kernels: :meth:`window_scores`
    (full-height GEMMs: offline scoring) and :meth:`row_scores`
    (``per_row=True``, the live path, at every height including 1).
    """

    def __init__(self, model) -> None:
        self.input_dim = model.input_dim
        self.hidden_dim = model.hidden_dim
        self.output_dim = model.output_dim
        hd = self.hidden_dim
        # Snapshot with the gate columns permuted [i, f, g, o] -> [i, f, o, g]
        # so the three sigmoid gates are one contiguous block: one fused
        # sigmoid call instead of three. Each GEMM output column is the dot
        # product of its own weight column alone, so permuting columns
        # leaves every value bit-identical (asserted by the equality tests).
        perm = np.concatenate(
            [np.arange(0, 2 * hd), np.arange(3 * hd, 4 * hd), np.arange(2 * hd, 3 * hd)]
        )
        self.wx = np.ascontiguousarray(model.Wx.value[:, perm], dtype=DTYPE)
        self.wh = np.ascontiguousarray(model.Wh.value[:, perm], dtype=DTYPE)
        self.b = np.ascontiguousarray(model.b.value[perm], dtype=DTYPE)
        self.head = _DenseWeights(model.head)
        h4 = 4 * hd
        # The recurrent projection of the zero state, ``zeros[1, H] @ Wh``:
        # the GEMV every row makes at step 0, made once for this snapshot's
        # weights (a re-fit builds a new snapshot and a new product).
        self._zh0 = np.empty((1, h4), dtype=DTYPE)
        _gemv_stack(np.zeros((1, hd), dtype=DTYPE), self.wh, self._zh0)
        # GEMM-mode buffers, grown on demand.
        self._capacity = 0
        self._steps = 0
        self._bufs: dict[str, np.ndarray] = {}
        # Row-exact buffers (flat, see _row_views), grown on demand.
        self._row_capacity = 0
        self._row_window = 0
        self._row_flat: dict[str, np.ndarray] = {}
        self._row_cache: dict[int, tuple] = {}

    def __getstate__(self) -> dict:
        # A copy or pickle would copy each cached view apart from the buffer
        # it views; the copy rebuilds its own.
        state = self.__dict__.copy()
        state["_row_cache"] = {}
        return state

    # -- batch window scoring ----------------------------------------------------

    def _ensure_capacity(self, n: int, steps: int) -> None:
        if n <= self._capacity and steps == self._steps:
            return
        cap = max(n, self._capacity * 2 if steps == self._steps else n, 16)
        hd, h4 = self.hidden_dim, 4 * self.hidden_dim
        self._bufs = {
            "x": np.empty((cap, steps, self.input_dim), dtype=DTYPE),
            "z": np.empty((cap, h4), dtype=DTYPE),
            "zh": np.empty((cap, h4), dtype=DTYPE),
            "h": np.empty((cap, hd), dtype=DTYPE),
            "c": np.empty((cap, hd), dtype=DTYPE),
            "tmp": np.empty((cap, hd), dtype=DTYPE),
            "hs": np.empty((cap, steps, hd), dtype=DTYPE),
            "pred": np.empty((cap * steps, self.output_dim), dtype=DTYPE),
            "err": np.empty((cap, steps), dtype=DTYPE),
        }
        self._capacity = cap
        self._steps = steps

    def window_scores(self, windows: np.ndarray, window: int) -> np.ndarray:
        """``LstmDetector.scores`` fused: worst next-step error per window,
        through full-height GEMMs (BLAS blocks them by batch height)."""
        windows = np.asarray(windows)
        n = windows.shape[0]
        if n == 0:
            return np.zeros(0)
        steps = window - 1
        self._ensure_capacity(n, steps)
        b = self._bufs
        hd = self.hidden_dim
        # Unflatten into float64 once; inputs are entries 0..N-2,
        # targets entries 1..N-1 (the seed's _split).
        shaped = windows.reshape(n, window, self.input_dim)
        xbuf = b["x"][:n]
        np.copyto(xbuf, shaped[:, :-1, :], casting="unsafe")
        h = b["h"][:n]
        c = b["c"][:n]
        h.fill(0.0)
        c.fill(0.0)
        z = b["z"][:n]
        zh = b["zh"][:n]
        tmp = b["tmp"][:n]
        hs = b["hs"][:n]
        for t in range(steps):
            np.dot(xbuf[:, t, :], self.wx, out=z)
            np.dot(h, self.wh, out=zh)
            z += zh
            z += self.b
            # Permuted layout: [i | f | o] sigmoid block, then g.
            i, f, o, g = (
                z[:, :hd],
                z[:, hd : 2 * hd],
                z[:, 2 * hd : 3 * hd],
                z[:, 3 * hd :],
            )
            _sigmoid_inplace(z[:, : 3 * hd])
            np.tanh(g, out=g)
            np.multiply(f, c, out=c)
            np.multiply(i, g, out=tmp)
            c += tmp
            np.tanh(c, out=tmp)
            np.multiply(o, tmp, out=h)
            hs[:, t, :] = h
        pred = b["pred"][: n * steps]
        np.dot(hs.reshape(n * steps, hd), self.head.w, out=pred)
        pred += self.head.b
        # Per-step errors against the targets, then the window max.
        shaped_pred = pred.reshape(n, steps, self.output_dim)
        targets = xbuf  # reuse: overwrite inputs with the diff
        np.copyto(targets, shaped[:, 1:, :], casting="unsafe")
        np.subtract(shaped_pred, targets, out=shaped_pred)
        np.multiply(shaped_pred, shaped_pred, out=shaped_pred)
        err = _mean_last_axis(shaped_pred, b["err"][:n])
        return np.maximum.reduce(err, axis=1)

    def _row_views(self, n: int, window: int) -> tuple:
        """:meth:`row_scores`' buffers seen through their first ``n`` windows.

        Flat arrays carved from the front, so every view is contiguous at
        any height; the views themselves are kept per height (cleared when
        full or when the buffers grow), since at the heights the live path
        issues, building them would cost as much as the ufuncs they feed.
        """
        views = self._row_cache.get(n)
        if views is not None:
            return views
        steps, hd, dim = window - 1, self.hidden_dim, self.input_dim
        h4, out_dim = 4 * hd, self.output_dim
        per_window = {
            "x": window * dim, "zx": steps * h4, "zh": h4, "gc": 2 * hd,
            "hs": steps * hd, "pred": steps * out_dim, "err": steps,
        }
        if n > self._row_capacity or window != self._row_window:
            cap = max(n, 2 * self._row_capacity if window == self._row_window else n, 16)
            self._row_flat = {
                name: np.empty(cap * size, dtype=DTYPE) for name, size in per_window.items()
            }
            self._row_capacity, self._row_window = cap, window
            self._row_cache.clear()
        elif len(self._row_cache) >= ROW_VIEW_CACHE:
            self._row_cache.clear()
        flat = {name: self._row_flat[name][: n * size] for name, size in per_window.items()}
        x = flat["x"].reshape(n, window, dim)
        zx = flat["zx"].reshape(steps, n, h4)
        gc = flat["gc"].reshape(n, 2 * hd)
        hs = flat["hs"].reshape(n, steps, hd)
        per_step = tuple(
            (zx[t], zx[t, :, : 2 * hd], zx[t, :, 2 * hd : 3 * hd], zx[t, :, 3 * hd :], hs[:, t])
            for t in range(steps)
        )
        views = (
            x,
            x[:, :-1].transpose(1, 0, 2),
            x[:, 1:],
            zx,
            flat["zh"].reshape(n, h4),
            gc,
            gc[:, :hd],
            gc[:, hd:],
            hs,
            per_step,
            flat["pred"].reshape(n, steps, out_dim),
            flat["err"].reshape(n, steps),
        )
        self._row_cache[n] = views
        return views

    def row_scores(self, windows: np.ndarray, window: int) -> np.ndarray:
        """:meth:`window_scores` row-exact (``per_row=True``): every
        product is the one the single-window call makes, so row ``i``'s score
        is its ``[1, window * dim]`` call's bit for bit at any height.

        Step-major: step ``t``'s gate pre-activations for all rows are one
        contiguous ``[n, 4H]`` block ``zx[t]``, every step's input projection
        issued up front as one stack of GEMVs. Per step, ``tanh(g)`` goes
        into a ``[g | c]`` buffer, the sigmoid runs over the whole block (the
        g lanes are dead by then), one multiply by ``[g | c]`` gives
        ``[i * g | f * c]`` and one add the seed's ``f * c + i * g``, each
        operand pair in the seed's order (so even a NaN keeps its payload).
        ``h`` lands in ``hs[:, t]``, where the next step's GEMVs and the
        head read it.
        """
        windows = np.asarray(windows)
        n = windows.shape[0]
        if n == 0:
            return np.zeros(0)
        x, inputs, targets, zx, zh, gc, g, c, hs, per_step, pred, err = self._row_views(
            n, window
        )
        # The whole window in float64: inputs and targets are views.
        np.copyto(x, windows.reshape(x.shape), casting="unsafe")
        # Every step's input projection: n * steps GEMVs, step-major out.
        _gemv_stack(inputs, self.wx, zx)
        c.fill(0.0)
        recurrent = self._zh0
        h_prev = None
        for z, z_if, z_o, z_g, h in per_step:
            if h_prev is not None:
                _gemv_stack(h_prev, self.wh, zh)
                recurrent = zh
            np.add(z, recurrent, out=z)
            np.add(z, self.b, out=z)
            # Permuted layout: [i | f | o | g].
            np.tanh(z_g, out=g)
            _sigmoid_inplace(z)
            np.multiply(z_if, gc, out=gc)  # [i * g | f * c]
            np.add(c, g, out=c)
            np.tanh(c, out=g)
            np.multiply(z_o, g, out=h)
            h_prev = h
        # One [steps, H] @ [H, D] GEMM per window: the single-window shape.
        np.matmul(hs, self.head.w, out=pred)
        np.add(pred, self.head.b, out=pred)
        np.subtract(pred, targets, out=pred)
        np.multiply(pred, pred, out=pred)
        return np.maximum.reduce(_mean_last_axis(pred, err), axis=1)


class CompiledModel:
    """Detector-agnostic fused scorer: ``scores(windows)`` like the seed."""

    def __init__(self, detector) -> None:
        self.window = detector.window
        # Dispatch on the detector's registered name (detector.py imports
        # this module, so its classes cannot be imported here).
        self._kind = getattr(detector, "name", None)
        if self._kind == "autoencoder":
            self._impl = CompiledAutoencoder(detector)
        elif self._kind == "lstm":
            self._impl = CompiledLstm(detector.model)
        else:
            raise TypeError(f"cannot compile {type(detector).__name__}")
        self._calls_counter = None
        self._windows_counter = None
        # Row bytes -> row-exact score: see memo_scores.
        self._memo: dict[bytes, float] = {}
        self._memo_hits = self._memo_misses = self._memo_size = None
        self._prof_skip = PROFILE_SAMPLE

    def attach_metrics(self, metrics) -> None:
        """Wire repro.obs counters (one series per model kind)."""
        labels = {"model": self._kind}
        self._memo_hits = metrics.counter(
            "ml.score_memo_hits_total", labels=labels, help="windows answered from the score memo"
        )
        self._memo_misses = metrics.counter(
            "ml.score_memo_misses_total", labels=labels, help="windows sent on to the kernels"
        )
        # Set per call, not computed by a closure: the registry must not keep
        # a superseded snapshot (training-set-sized buffers) alive.
        self._memo_size = metrics.gauge(
            "ml.score_memo_size", labels=labels, help="entries in the snapshot's score memo"
        )
        self._memo_size.set(len(self._memo))
        self._calls_counter = metrics.counter(
            "ml.compiled_calls_total",
            labels=labels,
            help="fused-kernel scoring calls",
        )
        self._windows_counter = metrics.counter(
            "ml.compiled_windows_total",
            labels=labels,
            help="windows scored through fused kernels",
        )

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def lstm(self) -> CompiledLstm:
        if self._kind != "lstm":
            raise TypeError("not an LSTM compiled model")
        return self._impl

    def scores(self, windows: np.ndarray, per_row: bool = False) -> np.ndarray:
        counter = self._calls_counter
        if counter is not None:
            counter.value += 1
            self._windows_counter.value += len(windows)
        prof = _profiler.CURRENT
        if prof is not None:
            skip = self._prof_skip - 1
            if skip == 0:
                self._prof_skip = PROFILE_SAMPLE
                start = time.perf_counter()
                result = self._kernel_scores(windows, per_row)
                prof.record(
                    "ml.compiled.scores",
                    (time.perf_counter() - start) * PROFILE_SAMPLE,
                    calls=PROFILE_SAMPLE,
                )
                return result
            self._prof_skip = skip
        return self._kernel_scores(windows, per_row)

    def memo_scores(self, windows: np.ndarray) -> np.ndarray:
        """``scores(windows, per_row=True)``, each distinct row through the
        kernels once per snapshot.

        Row-exactness makes a score a function of its row's bytes alone, so
        the one remembered under a row's full bytes — never a digest — *is*
        the one the kernels would return. Cleared when full: all-unique
        traffic pays one hash and one insert per window, never a scan.
        """
        if windows.dtype != np.float32 and windows.dtype != np.float64:
            windows = windows.astype(np.float64)  # the kernels' own conversion
        memo = self._memo
        data = windows.tobytes()
        width = len(data) // len(windows)
        keys = [data[at : at + width] for at in range(0, len(data), width)]
        found = list(map(memo.get, keys))
        new = {key: row for row, key in enumerate(keys) if found[row] is None}
        if new:
            rows = windows if len(new) == len(keys) else windows[list(new.values())]
            fresh = dict(zip(new, self.scores(rows, per_row=True).tolist()))
            found = [fresh[key] if score is None else score for key, score in zip(keys, found)]
            room = SCORE_MEMO_CAPACITY - len(memo)
            if len(fresh) > room:
                memo.clear()
                room = SCORE_MEMO_CAPACITY
            memo.update(itertools.islice(fresh.items(), room))
        if self._memo_hits is not None:
            self._memo_hits.value += len(keys) - len(new)
            self._memo_misses.value += len(new)
            self._memo_size.set(len(memo))
        return np.array(found)

    def _kernel_scores(self, windows: np.ndarray, per_row: bool) -> np.ndarray:
        if self._kind == "autoencoder":
            return self._impl.scores(windows, per_row)
        if per_row:
            return self._impl.row_scores(windows, self.window)
        return self._impl.window_scores(windows, self.window)
