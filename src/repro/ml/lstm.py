"""LSTM next-step predictor with manual BPTT (paper §3.2, Sequence Modeling).

``x_hat_{i+N} = f_LSTM(x_i .. x_{i+N-1})``: the model reads a window of
telemetry feature vectors and predicts the next entry's features; the
prediction error against the actual entry is the anomaly score. The forward
and backward passes (backpropagation through time) are implemented directly
in numpy and verified against finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.layers import Dense, Parameter, glorot_init
from repro.ml.losses import per_sample_mse
from repro.ml.training import TrainConfig, TrainHistory, train_minibatch


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


@dataclass
class _StepCache:
    """Intermediate values of one timestep, kept for BPTT."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray


class LstmPredictor:
    """Single-layer LSTM + linear head predicting the next feature vector."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 32,
        output_dim: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim if output_dim is not None else input_dim
        rng = np.random.default_rng(seed)
        h = hidden_dim
        self.Wx = Parameter(glorot_init(rng, input_dim, 4 * h))
        self.Wh = Parameter(glorot_init(rng, h, 4 * h))
        self.b = Parameter(np.zeros(4 * h))
        # Forget-gate bias starts positive: standard trick for gradient flow.
        self.b.value[h : 2 * h] = 1.0
        self.head = Dense(h, self.output_dim, rng)
        self._caches: list[_StepCache] = []
        self._shuffle_rng = np.random.default_rng(seed + 1)

    def params(self) -> list[Parameter]:
        return [self.Wx, self.Wh, self.b] + self.head.params()

    def reset(self) -> None:
        """Drop BPTT state from the last forward pass (inference cleanup)."""
        self._caches = []
        self.head.reset()

    # -- forward -----------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the LSTM over ``[batch, time, input_dim]``.

        Returns per-step predictions ``[batch, time, output_dim]`` where the
        prediction at step ``t`` is the model's estimate of ``x_{t+1}`` given
        the prefix ``x_0 .. x_t``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(f"expected [B, T, {self.input_dim}], got {x.shape}")
        batch, steps, _ = x.shape
        h = np.zeros((batch, self.hidden_dim))
        c = np.zeros((batch, self.hidden_dim))
        self._caches = []
        hidden_states = []
        hd = self.hidden_dim
        for t in range(steps):
            xt = x[:, t, :]
            z = xt @ self.Wx.value + h @ self.Wh.value + self.b.value
            i = _sigmoid(z[:, :hd])
            f = _sigmoid(z[:, hd : 2 * hd])
            g = np.tanh(z[:, 2 * hd : 3 * hd])
            o = _sigmoid(z[:, 3 * hd :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            self._caches.append(
                _StepCache(x=xt, h_prev=h, c_prev=c, i=i, f=f, g=g, o=o, c=c_new, tanh_c=tanh_c)
            )
            hidden_states.append(h_new)
            h, c = h_new, c_new
        stacked = np.stack(hidden_states, axis=1)  # [B, T, H]
        flat_pred = self.head.forward(stacked.reshape(batch * steps, hd))
        return flat_pred.reshape(batch, steps, self.output_dim)

    # -- backward (BPTT) -----------------------------------------------------------

    def backward(self, grad_pred: np.ndarray) -> None:
        """Accumulate parameter gradients for the last forward pass.

        ``grad_pred`` is dLoss/dPredictions with shape [B, T, output_dim].
        """
        if not self._caches:
            raise RuntimeError("backward called before forward")
        batch, steps, _ = grad_pred.shape
        hd = self.hidden_dim
        dh_all = self.head.backward(
            grad_pred.reshape(batch * steps, self.output_dim)
        ).reshape(batch, steps, hd)
        dh = np.zeros((batch, hd))
        dc = np.zeros((batch, hd))
        for t, cache in zip(reversed(range(steps)), reversed(self._caches)):
            dh = dh + dh_all[:, t, :]
            do = dh * cache.tanh_c
            dtanh_c = dh * cache.o
            dc = dc + dtanh_c * (1.0 - cache.tanh_c**2)
            di = dc * cache.g
            dg = dc * cache.i
            df = dc * cache.c_prev
            dc_prev = dc * cache.f
            # Gate pre-activations.
            dzi = di * cache.i * (1.0 - cache.i)
            dzf = df * cache.f * (1.0 - cache.f)
            dzg = dg * (1.0 - cache.g**2)
            dzo = do * cache.o * (1.0 - cache.o)
            dz = np.concatenate([dzi, dzf, dzg, dzo], axis=1)
            self.Wx.grad += cache.x.T @ dz
            self.Wh.grad += cache.h_prev.T @ dz
            self.b.grad += dz.sum(axis=0)
            dh = dz @ self.Wh.value.T
            dc = dc_prev
        self._caches = []

    # -- training -------------------------------------------------------------------

    def fit(
        self,
        sequences: np.ndarray,
        targets: np.ndarray,
        epochs: int = 30,
        batch_size: int = 64,
        lr: float = 3e-3,
    ) -> TrainHistory:
        """Train on benign sequences (shuffled by the model's own stream).

        ``targets`` has shape [B, T, output_dim]: the next-entry ground truth
        at every step (i.e. the input sequence shifted left by one).
        """
        config = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr)
        return train_minibatch(self, sequences, targets, config, rng=self._shuffle_rng)

    def prediction_errors(self, sequences: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-sample anomaly scores: MSE averaged over steps and features."""
        sequences = np.asarray(sequences, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if len(sequences) == 0:
            return np.zeros(0)
        pred = self.forward(sequences)
        self.reset()  # inference only: drop BPTT state
        return per_sample_mse(pred, targets)

    def per_step_errors(self, sequences: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-step anomaly scores [B, T]: MSE of each next-entry prediction.

        A single out-of-place telemetry entry spikes exactly the step that
        predicts it, so the max over steps is a dilution-free window score.
        """
        sequences = np.asarray(sequences, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if len(sequences) == 0:
            return np.zeros((0, 0))
        pred = self.forward(sequences)
        self.reset()
        return np.mean((pred - targets) ** 2, axis=2)
