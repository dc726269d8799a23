"""Compiled training kernels: what ``AnomalyDetector.fit`` trains through.

The seed training loops pay costs the math never needs: a fresh allocation
for every intermediate of every batch, ``_StepCache`` objects and a
``np.concatenate`` per BPTT step, and an Adam step that allocates six
temporaries per parameter per batch. The trainers here run the *same*
arithmetic through preallocated buffers:

- **autoencoder** — fused Dense+ReLU forward/backward over the layer
  chain, ReLU masks kept from the forward pass, the first layer's unused
  input-gradient GEMM skipped;
- **LSTM** — the per-step input GEMMs of a batch hoisted into one
  ``[B*T, ...]`` GEMM, the three sigmoid gates regrouped into one
  contiguous ``[B, 3H]`` block (``[i,f,g,o] -> [i,f,o]+[g]``) so the gate
  nonlinearity is a single fused activation over contiguous memory,
  backward writing gate gradients straight into a ``[B, 4H]`` buffer in
  the seed's layout (no concatenate), and the final step's unused
  ``dz @ Wh.T`` skipped;
- **Adam** — moments, scratch, and gradients live in one flat contiguous
  vector updated with in-place ufuncs (persistent moment slots, zero
  allocation per step).

Like :mod:`repro.ml.compiled`, trainers take a ``dtype``:

- ``float64`` (default) carries a **bit-identity contract**, enforced by
  tests/test_trainfast.py: the per-epoch loss trajectory *and* the
  resulting weights are bit-identical to the seed loops
  (``Autoencoder.fit``, ``LstmPredictor.fit``, and
  ``repro.ml.training.train_minibatch`` including the validation split and
  early stopping). Every kernel mirrors the seed's op sequence — same GEMM
  shapes and association, same activation expressions, same Adam update
  order; reorderings are only applied where IEEE-754 guarantees the same
  bits (commuted multiplies, column-partitioned GEMMs, hoisted per-step
  GEMMs whose per-row dot products are unchanged, skipped results that
  feed nothing).
- ``float32`` runs the same kernels over single-precision weight
  snapshots (synced back to the model after ``fit``) for roughly another
  2x of memory bandwidth and SIMD width. Loss trajectories track the seed
  closely but are not bit-identical; ``AnomalyDetector.fit`` uses
  ``float64`` unless ``trainfast.trainer_dtype`` says otherwise.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.ml.autoencoder import Autoencoder, TrainReport
from repro.ml.lstm import LstmPredictor
from repro.ml.training import TrainConfig, TrainHistory
from repro.slo import profiler as _profiler


def _load_saxpy():
    """BLAS axpy (y += a*x in one pass, no temporary) for the f32 Adam.

    Imported on first float32 use, not with the module: scipy adds ~30 MiB
    of RSS that the float64 kernels every ``fit`` runs never need.
    """
    try:
        from scipy.linalg.blas import saxpy
    except ImportError:  # pragma: no cover - scipy always ships in the image
        return None
    return saxpy


_LOSS_BUCKETS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


class _ParamStore:
    """The trainable weights, as the kernels see them.

    In float64 the views *are* the model's ``Parameter.value`` arrays, so
    kernel updates land directly in the model (bit-identical, and safe to
    interleave with seed-path code). In float32 the views are slices of
    one flat single-precision snapshot; :meth:`sync_to_model` casts the
    trained weights back into the model's float64 parameters.
    """

    def __init__(self, params: list, dtype: str) -> None:
        self.params = list(params)
        self.dtype = np.dtype(dtype)
        if self.dtype == np.float64:
            self.views = [p.value for p in self.params]
            self._flat: Optional[np.ndarray] = None
        else:
            total = sum(p.value.size for p in self.params)
            self._flat = np.empty(total, dtype=self.dtype)
            self.views = []
            offset = 0
            for p in self.params:
                size = p.value.size
                view = self._flat[offset : offset + size].reshape(p.value.shape)
                view[...] = p.value
                self.views.append(view)
                offset += size

    def sync_to_model(self) -> None:
        if self._flat is not None:
            for p, view in zip(self.params, self.views):
                p.value[...] = view


class FlatAdam:
    """Adam over one flat parameter-sized vector, updated fully in place.

    Mirrors :class:`repro.ml.optim.Adam` op-for-op — ``m``/``v`` scaling
    and accumulation, bias correction, ``lr * m_hat / (sqrt(v_hat)+eps)``
    — so float64 parameter trajectories are bit-identical; it just never
    allocates after construction. Gradients are written into
    :attr:`grad_views` (one view per parameter, aligned with the store).
    """

    def __init__(
        self,
        store: _ParamStore,
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        # float64 mirrors the seed op-for-op; float32 may fold scalar
        # factors together (same math, fewer memory passes).
        self.exact = store.dtype == np.float64
        self._saxpy = None if self.exact else _load_saxpy()
        dtype = store.dtype
        sizes = [w.size for w in store.views]
        total = sum(sizes)
        self._m = np.zeros(total, dtype=dtype)
        self._v = np.zeros(total, dtype=dtype)
        self._grad = np.zeros(total, dtype=dtype)
        self._s1 = np.empty(total, dtype=dtype)
        self._s2 = np.empty(total, dtype=dtype)
        self.grad_views: list[np.ndarray] = []
        self._update_views: list[np.ndarray] = []
        offset = 0
        for w, size in zip(store.views, sizes):
            self.grad_views.append(self._grad[offset : offset + size].reshape(w.shape))
            self._update_views.append(self._s2[offset : offset + size].reshape(w.shape))
            offset += size
        self._t = 0

    def step(self) -> None:
        """One in-place Adam update from the gradients in ``grad_views``."""
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        m, v, g, s1, s2 = self._m, self._v, self._grad, self._s1, self._s2
        _saxpy = self._saxpy
        if _saxpy is not None:
            # f32 fast mode: the moment accumulations as single-pass BLAS
            # axpy (y += a*x) instead of scale-into-scratch-then-add.
            np.multiply(m, self.beta1, out=m)
            _saxpy(g, m, a=1.0 - self.beta1)
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, g, out=s1)
            _saxpy(s1, v, a=1.0 - self.beta2)
        else:
            # m = beta1*m + (1-beta1)*g  (seed: m *= b1; m += (1-b1)*grad)
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, 1.0 - self.beta1, out=s1)
            np.add(m, s1, out=m)
            # v = beta2*v + (1-beta2)*g^2  (g**2 lowers to g*g for floats)
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, g, out=s1)
            np.multiply(s1, 1.0 - self.beta2, out=s1)
            np.add(v, s1, out=v)
        if self.exact:
            # weight -= lr * (m/bias1) / (sqrt(v/bias2) + eps)
            np.divide(v, bias2, out=s1)
            np.sqrt(s1, out=s1)
            np.add(s1, self.eps, out=s1)
            np.divide(m, bias1, out=s2)
            np.multiply(s2, self.lr, out=s2)
            np.divide(s2, s1, out=s2)
            for w, update in zip(self.store.views, self._update_views):
                w -= update
        else:
            # Same update with the bias corrections folded into scalars:
            # sqrt(v/b2) == sqrt(v)/sqrt(b2), (m/b1)*lr == m*(lr/b1).
            np.sqrt(v, out=s1)
            np.multiply(s1, 1.0 / float(np.sqrt(bias2)), out=s1)
            np.add(s1, self.eps, out=s1)
            np.divide(m, s1, out=s2)
            np.multiply(s2, self.lr / bias1, out=s2)
            # s2 is the flat scratch the update views alias; the store's
            # flat weight vector takes the whole update in one op.
            self.store._flat -= self._s2


def _mirrored_loss(pred: np.ndarray, target: np.ndarray, diff: np.ndarray, sq: np.ndarray) -> float:
    """``mse_loss``'s scalar, computed into caller-owned buffers."""
    np.subtract(pred, target, out=diff)
    np.multiply(diff, diff, out=sq)
    return float(np.mean(sq))


def _loss_grad_inplace(diff: np.ndarray) -> np.ndarray:
    """Turn the prediction diff into ``mse_loss``'s gradient, in place.

    Seed: ``grad = 2.0 * diff / diff.size`` — multiply then divide, in that
    order, to keep the rounding identical.
    """
    np.multiply(diff, 2.0, out=diff)
    np.divide(diff, float(diff.size), out=diff)
    return diff


def _val_loss_only(pred: np.ndarray, target: np.ndarray) -> float:
    """``mse_loss`` scalar for a validation pass (gradient discarded)."""
    diff = pred - target
    return float(np.mean(diff * diff))


def _fast_loss_and_grad(pred: np.ndarray, target: np.ndarray, diff: np.ndarray) -> float:
    """float32-mode MSE: BLAS-dot scalar, one fused grad scale.

    Same math as ``mse_loss`` with the ``2/size`` factor folded into one
    multiply; not bit-identical, so only the non-exact path uses it.
    """
    np.subtract(pred, target, out=diff)
    flat = diff.ravel()
    loss = float(np.dot(flat, flat) / flat.size)
    np.multiply(diff, 2.0 / diff.size, out=diff)
    return loss


class CompiledAutoencoderTrainer:
    """Preallocated-buffer trainer for the seed :class:`Autoencoder`.

    In float64, ``fit`` mirrors :meth:`Autoencoder.fit` bit-for-bit: same
    shuffle stream, same batch schedule, same loss trajectory, same final
    weights. The model's parameters are updated in place (float32 syncs a
    single-precision snapshot back after ``fit``), so the autoencoder
    scores with the trained weights either way.
    """

    def __init__(self, autoencoder: Autoencoder, dtype: str = "float64") -> None:
        from repro.ml.layers import Dense, ReLU

        self.model = autoencoder
        self.dtype = np.dtype(dtype)
        self.input_dim = autoencoder.input_dim
        self.store = _ParamStore(autoencoder.model.params(), dtype)
        # (W view, b view, relu_after) per Dense, in forward order.
        self._chain: list[tuple] = []
        layers = autoencoder.model.layers
        dense_idx = 0
        for i, layer in enumerate(layers):
            if isinstance(layer, Dense):
                relu = i + 1 < len(layers) and isinstance(layers[i + 1], ReLU)
                w = self.store.views[2 * dense_idx]
                b = self.store.views[2 * dense_idx + 1]
                self._chain.append((w, b, relu))
                dense_idx += 1
            elif not isinstance(layer, ReLU):
                raise TypeError(
                    f"unsupported autoencoder layer {type(layer).__name__}"
                )
        self._capacity = 0
        self._outs: list[np.ndarray] = []
        self._masks: list[np.ndarray] = []
        self._gins: list[np.ndarray] = []
        self._diff: Optional[np.ndarray] = None
        self._sq: Optional[np.ndarray] = None
        self.epoch_wall_hist = None

    def attach_metrics(self, metrics) -> None:
        """Route per-epoch wall-clock cost into a repro.obs registry."""
        self.epoch_wall_hist = metrics.histogram(
            "trainfast.epoch_wall_s", help="compiled-trainer epoch wall clock"
        )

    def _ensure(self, rows: int) -> None:
        if rows <= self._capacity:
            return
        cap = max(rows, self._capacity * 2, 16)
        dt = self.dtype
        self._outs = [np.empty((cap, w.shape[1]), dtype=dt) for w, _, _ in self._chain]
        self._masks = [
            np.empty((cap, w.shape[1]), dtype=bool) for w, _, _ in self._chain
        ]
        # Input-gradient buffers; index 0 stays unused (the first layer's
        # input gradient feeds nothing and is skipped).
        self._gins = [np.empty((cap, w.shape[0]), dtype=dt) for w, _, _ in self._chain]
        self._diff = np.empty((cap, self.input_dim), dtype=dt)
        self._sq = np.empty((cap, self.input_dim), dtype=dt)
        self._capacity = cap

    # -- kernels -----------------------------------------------------------------

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Fused Dense+ReLU chain; returns a view of the last buffer."""
        rows = x.shape[0]
        self._ensure(rows)
        cur = x
        for (w, b, relu), out_buf, mask_buf in zip(self._chain, self._outs, self._masks):
            out = out_buf[:rows]
            np.dot(cur, w, out=out)
            np.add(out, b, out=out)
            if relu:
                # x * (x > 0): the seed ReLU's exact expression.
                mask = mask_buf[:rows]
                np.greater(out, 0, out=mask)
                np.multiply(out, mask, out=out)
            cur = out
        return cur

    def _backward(self, x: np.ndarray, grad: np.ndarray, grad_views: list) -> None:
        """Accumulate parameter gradients into ``grad_views`` (W, b pairs).

        ``grad`` is consumed in place. The first layer's input-gradient
        GEMM (``grad @ W.T``) is skipped: the seed computes it only to
        return a value the training loop discards.
        """
        rows = x.shape[0]
        g = grad
        for li in range(len(self._chain) - 1, -1, -1):
            w, _, relu = self._chain[li]
            if relu:
                np.multiply(g, self._masks[li][:rows], out=g)
            layer_in = x if li == 0 else self._outs[li - 1][:rows]
            np.dot(layer_in.T, g, out=grad_views[2 * li])
            np.add.reduce(g, axis=0, out=grad_views[2 * li + 1])
            if li > 0:
                gin = self._gins[li][:rows]
                np.dot(g, w.T, out=gin)
                g = gin

    # -- training ----------------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        epochs: int = 30,
        batch_size: int = 64,
        lr: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> TrainReport:
        """Train to reconstruct ``x`` — :meth:`Autoencoder.fit`, compiled.

        ``rng`` defaults to the model's own shuffle stream so a detector
        alternating seed and compiled fits stays on one permutation
        sequence.
        """
        x = np.ascontiguousarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected [n, {self.input_dim}] inputs, got {x.shape}")
        if len(x) == 0:
            raise ValueError("cannot train on an empty dataset")
        rng = rng if rng is not None else self.model._shuffle_rng
        report = TrainReport()
        with _profiler.profile_block("trainfast.fit.autoencoder"):
            report.epoch_losses = _run_epochs_2d(self, x, x, epochs, batch_size, lr, rng)
        self.store.sync_to_model()
        return report


def _run_epochs_2d(
    trainer: CompiledAutoencoderTrainer,
    inputs: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
    optimizer: Optional[FlatAdam] = None,
    on_epoch=None,
) -> list:
    """Shared mini-batch epochs over 2-D data for the autoencoder kernels."""
    n = len(inputs)
    optimizer = optimizer or FlatAdam(trainer.store, lr=lr)
    shuffled_x = np.empty_like(inputs)
    same = targets is inputs
    shuffled_y = shuffled_x if same else np.empty_like(targets)
    losses: list = []
    for _ in range(epochs):
        epoch_start = time.perf_counter()
        order = rng.permutation(n)
        np.take(inputs, order, axis=0, out=shuffled_x)
        if not same:
            np.take(targets, order, axis=0, out=shuffled_y)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            xb = shuffled_x[start : start + batch_size]
            yb = shuffled_y[start : start + batch_size]
            rows = xb.shape[0]
            pred = trainer._forward(xb)
            diff = trainer._diff[:rows]
            if optimizer.exact:
                loss = _mirrored_loss(pred, yb, diff, trainer._sq[:rows])
                _loss_grad_inplace(diff)
            else:
                loss = _fast_loss_and_grad(pred, yb, diff)
            trainer._backward(xb, diff, optimizer.grad_views)
            optimizer.step()
            epoch_loss += loss
            batches += 1
        losses.append(epoch_loss / max(batches, 1))
        _observe_epoch(trainer, time.perf_counter() - epoch_start)
        if on_epoch is not None and on_epoch(losses):
            break
    return losses


def _observe_epoch(trainer, elapsed_s: float) -> None:
    """Report one training epoch to the active profiler and the trainer's
    optional repro.obs histogram (cost: one None check each when unwired)."""
    prof = _profiler.CURRENT
    if prof is not None:
        prof.record("trainfast.epoch", elapsed_s)
    hist = getattr(trainer, "epoch_wall_hist", None)
    if hist is not None:
        hist.observe(elapsed_s)


class CompiledLstmTrainer:
    """Preallocated-buffer BPTT trainer for the seed :class:`LstmPredictor`.

    In float64, ``fit`` mirrors :meth:`LstmPredictor.fit` bit-for-bit. The
    forward pass hoists all per-step input GEMMs into one ``[B*T, ...]``
    GEMM and regroups the gate columns ``[i,f,g,o] -> [i,f,o] + [g]`` so
    the three sigmoid gates form one contiguous block (each GEMM output
    column depends only on its own weight column, so regrouping columns
    leaves every value bit-identical). The backward pass writes gate
    gradients straight into a ``[B, 4H]`` buffer laid out like the seed's
    ``np.concatenate([dzi, dzf, dzg, dzo])`` and runs the same three
    per-step GEMMs against the *original* weight layout, so every sum
    keeps the seed's accumulation order.
    """

    def __init__(self, model: LstmPredictor, dtype: str = "float64") -> None:
        self.model = model
        self.dtype = np.dtype(dtype)
        self._exact = self.dtype == np.float64
        self.input_dim = model.input_dim
        self.hidden_dim = model.hidden_dim
        self.output_dim = model.output_dim
        hd = self.hidden_dim
        self.store = _ParamStore(model.params(), dtype)
        self._wx, self._wh, self._b, self._head_w, self._head_b = self.store.views
        # Sigmoid-gate column group [i, f, o] (g = tanh handled separately).
        self._perm_sig = np.concatenate(
            [np.arange(0, 2 * hd), np.arange(3 * hd, 4 * hd)]
        )
        # Regrouped forward copies, refreshed after every optimizer step.
        dt = self.dtype
        self._wx_sig = np.ascontiguousarray(self._wx[:, self._perm_sig], dtype=dt)
        self._wh_sig = np.ascontiguousarray(self._wh[:, self._perm_sig], dtype=dt)
        self._b_sig = np.ascontiguousarray(self._b[self._perm_sig], dtype=dt)
        self._wx_g = np.ascontiguousarray(self._wx[:, 2 * hd : 3 * hd], dtype=dt)
        self._wh_g = np.ascontiguousarray(self._wh[:, 2 * hd : 3 * hd], dtype=dt)
        self._b_g = np.ascontiguousarray(self._b[2 * hd : 3 * hd], dtype=dt)
        self._capacity = 0
        self._steps = 0
        self._bufs: dict[str, np.ndarray] = {}
        self.epoch_wall_hist = None

    def attach_metrics(self, metrics) -> None:
        """Route per-epoch wall-clock cost into a repro.obs registry."""
        self.epoch_wall_hist = metrics.histogram(
            "trainfast.epoch_wall_s", help="compiled-trainer epoch wall clock"
        )

    def _refresh_grouped(self) -> None:
        hd = self.hidden_dim
        np.take(self._wx, self._perm_sig, axis=1, out=self._wx_sig)
        np.take(self._wh, self._perm_sig, axis=1, out=self._wh_sig)
        np.take(self._b, self._perm_sig, out=self._b_sig)
        self._wx_g[...] = self._wx[:, 2 * hd : 3 * hd]
        self._wh_g[...] = self._wh[:, 2 * hd : 3 * hd]
        self._b_g[...] = self._b[2 * hd : 3 * hd]

    def _ensure(self, rows: int, steps: int) -> None:
        if rows <= self._capacity and steps == self._steps:
            return
        cap = max(rows, self._capacity * 2 if steps == self._steps else rows, 16)
        hd, h3, h4 = self.hidden_dim, 3 * self.hidden_dim, 4 * self.hidden_dim
        od = self.output_dim
        dt = self.dtype
        self._bufs = {
            # Forward state, kept per step for BPTT. zs holds the three
            # sigmoid gates [i | f | o] contiguously; zg holds tanh'd g.
            "zx_sig": np.empty((cap * steps, h3), dtype=dt),
            "zx_g": np.empty((cap * steps, hd), dtype=dt),
            "zs": np.empty((steps, cap, h3), dtype=dt),
            "zg": np.empty((steps, cap, hd), dtype=dt),
            "zh": np.empty((cap, h3), dtype=dt),
            "c": np.empty((steps, cap, hd), dtype=dt),
            "tanh_c": np.empty((steps, cap, hd), dtype=dt),
            "hs": np.empty((cap, steps, hd), dtype=dt),
            "h": np.empty((cap, hd), dtype=dt),
            "cc": np.empty((cap, hd), dtype=dt),
            "tmp": np.empty((cap, hd), dtype=dt),
            # Head + loss.
            "pred": np.empty((cap * steps, od), dtype=dt),
            "diff": np.empty((cap * steps, od), dtype=dt),
            "sq": np.empty((cap * steps, od), dtype=dt),
            # Backward.
            "dh_all": np.empty((cap * steps, hd), dtype=dt),
            "dh": np.empty((cap, hd), dtype=dt),
            "dc": np.empty((cap, hd), dtype=dt),
            "e1": np.empty((cap, hd), dtype=dt),
            "e2": np.empty((cap, hd), dtype=dt),
        }
        if self._exact:
            # Per-step gate-grad buffer + per-step GEMM accumulators (the
            # seed's summation order).
            self._bufs["dz"] = np.empty((cap, h4), dtype=dt)
            self._bufs["s_wx"] = np.empty((self.input_dim, h4), dtype=dt)
            self._bufs["s_wh"] = np.empty((hd, h4), dtype=dt)
            self._bufs["s_b"] = np.empty(h4, dtype=dt)
        else:
            # All steps' gate grads kept so Wx/Wh/b gradients reduce to
            # one batched GEMM each after the BPTT loop.
            self._bufs["dz_all"] = np.empty((cap, steps, h4), dtype=dt)
            self._bufs["hprev"] = np.empty((cap, steps, hd), dtype=dt)
        self._capacity = cap
        self._steps = steps

    # -- kernels -----------------------------------------------------------------

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward over ``[B, T, D]``; fills the BPTT caches.

        Returns the ``[B*T, output_dim]`` prediction buffer (flat view).
        """
        rows, steps, _ = x.shape
        self._ensure(rows, steps)
        b = self._bufs
        hd, h3 = self.hidden_dim, 3 * self.hidden_dim
        # All per-step input GEMMs as one GEMM (per-row dots unchanged).
        flat_x = x.reshape(rows * steps, self.input_dim)
        zx_sig = b["zx_sig"][: rows * steps]
        zx_g = b["zx_g"][: rows * steps]
        np.dot(flat_x, self._wx_sig, out=zx_sig)
        np.dot(flat_x, self._wx_g, out=zx_g)
        zx_sig3 = zx_sig.reshape(rows, steps, h3)
        zx_g3 = zx_g.reshape(rows, steps, hd)
        h = b["h"][:rows]
        c = b["cc"][:rows]
        h.fill(0.0)
        c.fill(0.0)
        zh = b["zh"][:rows]
        tmp = b["tmp"][:rows]
        hs = b["hs"][:rows]
        for t in range(steps):
            zs = b["zs"][t][:rows]
            zg = b["zg"][t][:rows]
            # z = (xt @ Wx + h @ Wh) + b, in the seed's addition order,
            # column-partitioned into the [i|f|o] and [g] groups.
            np.dot(h, self._wh_sig, out=zh)
            np.add(zx_sig3[:, t, :], zh, out=zs)
            np.add(zs, self._b_sig, out=zs)
            np.dot(h, self._wh_g, out=tmp)
            np.add(zx_g3[:, t, :], tmp, out=zg)
            np.add(zg, self._b_g, out=zg)
            # Fused sigmoid over the contiguous [i | f | o] block.
            np.clip(zs, -60, 60, out=zs)
            np.negative(zs, out=zs)
            np.exp(zs, out=zs)
            np.add(zs, 1.0, out=zs)
            np.divide(1.0, zs, out=zs)
            np.tanh(zg, out=zg)
            # c = f * c + i * g
            i = zs[:, :hd]
            f = zs[:, hd : 2 * hd]
            o = zs[:, 2 * hd :]
            np.multiply(f, c, out=c)
            np.multiply(i, zg, out=tmp)
            np.add(c, tmp, out=c)
            b["c"][t][:rows] = c
            tanh_c = b["tanh_c"][t][:rows]
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h)
            hs[:, t, :] = h
        pred = b["pred"][: rows * steps]
        np.dot(hs.reshape(rows * steps, hd), self._head_w, out=pred)
        np.add(pred, self._head_b, out=pred)
        return pred

    def _backward(self, x: np.ndarray, grad_flat: np.ndarray, grad_views: list) -> None:
        """BPTT from ``dLoss/dPred`` (flat ``[B*T, od]``) into ``grad_views``.

        ``grad_views`` is aligned with ``model.params()``:
        ``[Wx, Wh, b, head.W, head.b]``. ``grad_flat`` is consumed.
        """
        rows, steps, _ = x.shape
        b = self._bufs
        hd = self.hidden_dim
        hs_flat = b["hs"][:rows].reshape(rows * steps, hd)
        # Head: one GEMM each for dW, db, and dh_all (the seed's Dense).
        np.dot(hs_flat.T, grad_flat, out=grad_views[3])
        np.add.reduce(grad_flat, axis=0, out=grad_views[4])
        dh_all = b["dh_all"][: rows * steps]
        np.dot(grad_flat, self._head_w.T, out=dh_all)
        dh_all3 = dh_all.reshape(rows, steps, hd)
        dh = b["dh"][:rows]
        dc = b["dc"][:rows]
        dh.fill(0.0)
        dc.fill(0.0)
        e1 = b["e1"][:rows]
        e2 = b["e2"][:rows]
        g_wx, g_wh, g_b = grad_views[0], grad_views[1], grad_views[2]
        exact = self._exact
        if exact:
            dz_step = b["dz"][:rows]
            s_wx, s_wh, s_b = b["s_wx"], b["s_wh"], b["s_b"]
            g_wx.fill(0.0)
            g_wh.fill(0.0)
            g_b.fill(0.0)
        else:
            dz_all = b["dz_all"][:rows]
        for t in range(steps - 1, -1, -1):
            zs = b["zs"][t][:rows]
            i = zs[:, :hd]
            f = zs[:, hd : 2 * hd]
            o = zs[:, 2 * hd :]
            g = b["zg"][t][:rows]
            tanh_c = b["tanh_c"][t][:rows]
            c_prev = b["c"][t - 1][:rows] if t > 0 else None
            np.add(dh, dh_all3[:, t, :], out=dh)
            # dc += (dh * o) * (1 - tanh_c^2)
            np.multiply(dh, o, out=e1)
            np.multiply(tanh_c, tanh_c, out=e2)
            np.subtract(1.0, e2, out=e2)
            np.multiply(e1, e2, out=e1)
            np.add(dc, e1, out=dc)
            # Gate gradients, written into dz in the seed's [i,f,g,o] order.
            dz = dz_step if exact else dz_all[:, t, :]
            dzi = dz[:, :hd]
            dzf = dz[:, hd : 2 * hd]
            dzg = dz[:, 2 * hd : 3 * hd]
            dzo = dz[:, 3 * hd :]
            # dzi = (dc*g) * i * (1-i)
            np.multiply(dc, g, out=e1)
            np.multiply(e1, i, out=dzi)
            np.subtract(1.0, i, out=e1)
            np.multiply(dzi, e1, out=dzi)
            # dzf = (dc*c_prev) * f * (1-f); c_prev is zeros at t == 0.
            if t > 0:
                np.multiply(dc, c_prev, out=e1)
            else:
                e1.fill(0.0)
            np.multiply(e1, f, out=dzf)
            np.subtract(1.0, f, out=e1)
            np.multiply(dzf, e1, out=dzf)
            # dzg = (dc*i) * (1-g^2)
            np.multiply(dc, i, out=e1)
            np.multiply(g, g, out=e2)
            np.subtract(1.0, e2, out=e2)
            np.multiply(e1, e2, out=dzg)
            # dzo = (dh*tanh_c) * o * (1-o)
            np.multiply(dh, tanh_c, out=e1)
            np.multiply(e1, o, out=dzo)
            np.subtract(1.0, o, out=e1)
            np.multiply(dzo, e1, out=dzo)
            if exact:
                # Parameter gradients, accumulated per step like the seed.
                xt = x[:, t, :]
                np.dot(xt.T, dz, out=s_wx)
                np.add(g_wx, s_wx, out=g_wx)
                if t > 0:
                    # h_prev is zeros at t == 0: contributes nothing to
                    # Wh.grad.
                    h_prev = b["hs"][:rows][:, t - 1, :]
                    np.dot(h_prev.T, dz, out=s_wh)
                    np.add(g_wh, s_wh, out=g_wh)
                np.add.reduce(dz, axis=0, out=s_b)
                np.add(g_b, s_b, out=g_b)
            # dh = dz @ Wh.T; dc = dc * f — skipped on the final step, where
            # the seed computes them only to throw them away.
            if t > 0:
                np.dot(dz, self._wh.T, out=dh)
                np.multiply(dc, f, out=dc)
        if not exact:
            # One batched GEMM per parameter over all steps' gate grads
            # (float32 mode: reassociates the per-step sums).
            dz_flat = dz_all.reshape(rows * steps, 4 * hd)
            np.dot(x.reshape(rows * steps, self.input_dim).T, dz_flat, out=g_wx)
            hp = b["hprev"][:rows]
            hp[:, 0, :].fill(0.0)
            hp[:, 1:, :] = b["hs"][:rows][:, :-1, :]
            np.dot(hp.reshape(rows * steps, hd).T, dz_flat, out=g_wh)
            np.add.reduce(dz_flat, axis=0, out=g_b)

    # -- training ----------------------------------------------------------------

    def fit(
        self,
        sequences: np.ndarray,
        targets: np.ndarray,
        epochs: int = 30,
        batch_size: int = 64,
        lr: float = 3e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> TrainReport:
        """Train on benign sequences — :meth:`LstmPredictor.fit`, compiled."""
        sequences = np.ascontiguousarray(sequences, dtype=self.dtype)
        targets = np.ascontiguousarray(targets, dtype=self.dtype)
        if len(sequences) != len(targets):
            raise ValueError("sequences and targets must align")
        if len(sequences) == 0:
            raise ValueError("cannot train on an empty dataset")
        rng = rng if rng is not None else self.model._shuffle_rng
        report = TrainReport()
        with _profiler.profile_block("trainfast.fit.lstm"):
            report.epoch_losses = _run_epochs_3d(
                self, sequences, targets, epochs, batch_size, lr, rng
            )
        self.store.sync_to_model()
        return report


def _run_epochs_3d(
    trainer: CompiledLstmTrainer,
    sequences: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
    optimizer: Optional[FlatAdam] = None,
    on_epoch=None,
) -> list:
    """Shared mini-batch epochs over sequence data for the LSTM kernels."""
    n = len(sequences)
    optimizer = optimizer or FlatAdam(trainer.store, lr=lr)
    shuffled_x = np.empty_like(sequences)
    shuffled_y = np.empty_like(targets)
    losses: list = []
    for _ in range(epochs):
        epoch_start = time.perf_counter()
        order = rng.permutation(n)
        np.take(sequences, order, axis=0, out=shuffled_x)
        np.take(targets, order, axis=0, out=shuffled_y)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            xb = shuffled_x[start : start + batch_size]
            yb = shuffled_y[start : start + batch_size]
            rows, steps, _ = xb.shape
            pred = trainer._forward(xb)
            flat_y = yb.reshape(rows * steps, trainer.output_dim)
            diff = trainer._bufs["diff"][: rows * steps]
            if optimizer.exact:
                loss = _mirrored_loss(
                    pred, flat_y, diff, trainer._bufs["sq"][: rows * steps]
                )
                _loss_grad_inplace(diff)
            else:
                loss = _fast_loss_and_grad(pred, flat_y, diff)
            trainer._backward(xb, diff, optimizer.grad_views)
            optimizer.step()
            trainer._refresh_grouped()
            epoch_loss += loss
            batches += 1
        losses.append(epoch_loss / max(batches, 1))
        _observe_epoch(trainer, time.perf_counter() - epoch_start)
        if on_epoch is not None and on_epoch(losses):
            break
    return losses


def compile_trainer(model, dtype: str = "float64"):
    """Build the matching compiled trainer for a seed model object."""
    if isinstance(model, Autoencoder):
        return CompiledAutoencoderTrainer(model, dtype=dtype)
    if isinstance(model, LstmPredictor):
        return CompiledLstmTrainer(model, dtype=dtype)
    raise TypeError(f"cannot compile a trainer for {type(model).__name__}")


def compiled_train_minibatch(
    model,
    inputs: np.ndarray,
    targets: np.ndarray,
    config: Optional[TrainConfig] = None,
    metrics=None,
) -> TrainHistory:
    """:func:`repro.ml.training.train_minibatch` through compiled kernels.

    Mirrors the seed loop bit-for-bit in float64 — shuffle stream seeded
    from ``config.seed``, the same tail validation split, the same early
    stopping arithmetic — while running every batch through the
    preallocated-buffer kernels. ``model`` is a seed :class:`Autoencoder`
    or :class:`LstmPredictor`; its weights are trained in place.
    """
    config = config or TrainConfig()
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(inputs) != len(targets):
        raise ValueError("inputs and targets must align")
    if len(inputs) == 0:
        raise ValueError("cannot train on an empty dataset")

    n_val = 0
    if config.validation_fraction > 0:
        if not 0 < config.validation_fraction < 1:
            raise ValueError("validation_fraction must be in (0, 1)")
        n_val = max(1, int(len(inputs) * config.validation_fraction))
        if n_val >= len(inputs):
            raise ValueError("validation split leaves no training data")
    train_x = inputs[: len(inputs) - n_val]
    train_y = targets[: len(targets) - n_val]
    val_x = inputs[len(inputs) - n_val :]
    val_y = targets[len(targets) - n_val :]

    trainer = compile_trainer(model, dtype="float64")
    if metrics is not None:
        trainer.attach_metrics(metrics)
    optimizer = FlatAdam(trainer.store, lr=config.lr)
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    epoch_loss_hist = (
        metrics.histogram("ml.train.epoch_loss", buckets=_LOSS_BUCKETS)
        if metrics is not None
        else None
    )
    val_loss_hist = (
        metrics.histogram("ml.train.val_loss", buckets=_LOSS_BUCKETS)
        if metrics is not None
        else None
    )
    state = {"best_val": float("inf"), "stale": 0}

    def on_epoch(losses: list) -> bool:
        history.epoch_losses.append(losses[-1])
        if epoch_loss_hist is not None:
            epoch_loss_hist.observe(losses[-1])
        if not n_val:
            return False
        if isinstance(model, LstmPredictor):
            rows, steps, _ = val_x.shape
            pred = trainer._forward(val_x)
            val_loss = _val_loss_only(
                pred, val_y.reshape(rows * steps, trainer.output_dim)
            )
        else:
            pred = trainer._forward(val_x)
            val_loss = _val_loss_only(pred, val_y)
        if val_loss_hist is not None:
            val_loss_hist.observe(val_loss)
        history.validation_losses.append(val_loss)
        epoch = len(history.epoch_losses) - 1
        if val_loss < state["best_val"] * (1.0 - config.min_improvement):
            state["best_val"] = val_loss
            history.best_epoch = epoch
            state["stale"] = 0
        else:
            state["stale"] += 1
            if state["stale"] >= config.patience:
                history.stopped_early = True
                return True
        return False

    if isinstance(model, LstmPredictor):
        _run_epochs_3d(
            trainer, train_x, train_y, config.epochs, config.batch_size,
            config.lr, rng, optimizer=optimizer, on_epoch=on_epoch,
        )
    else:
        _run_epochs_2d(
            trainer, train_x, train_y, config.epochs, config.batch_size,
            config.lr, rng, optimizer=optimizer, on_epoch=on_epoch,
        )
    if history.best_epoch < 0 and history.epoch_losses:
        history.best_epoch = int(np.argmin(history.epoch_losses))
    return history
