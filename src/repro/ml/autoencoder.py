"""Autoencoder for reconstruction-error anomaly scoring (paper §3.2).

``S_hat = f_AE(S)``: the flattened telemetry window is compressed through a
bottleneck and reconstructed; windows unlike the benign training
distribution reconstruct poorly. Mean-squared reconstruction error is the
anomaly score, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Dense, ReLU, Sequential
from repro.ml.losses import per_sample_mse
from repro.ml.training import TrainConfig, TrainHistory, train_minibatch


class Autoencoder:
    """Symmetric MLP autoencoder with a sigmoid output (inputs are one-hot)."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 64,
        latent_dim: int = 16,
        seed: int = 0,
    ) -> None:
        if latent_dim >= input_dim:
            raise ValueError("latent dimension must compress the input")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        rng = np.random.default_rng(seed)
        self.encoder = Sequential(
            Dense(input_dim, hidden_dim, rng),
            ReLU(),
            Dense(hidden_dim, latent_dim, rng),
            ReLU(),
        )
        # Linear output: feature values are weighted one-hots that may
        # exceed 1.0, which a squashing output could never reconstruct.
        self.decoder = Sequential(
            Dense(latent_dim, hidden_dim, rng),
            ReLU(),
            Dense(hidden_dim, input_dim, rng),
        )
        self.model = Sequential(*self.encoder.layers, *self.decoder.layers)
        self._shuffle_rng = np.random.default_rng(seed + 1)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Project inputs to the latent space."""
        return self.encoder.forward(np.asarray(x, dtype=np.float64))

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        return self.model.forward(np.asarray(x, dtype=np.float64))

    # -- the trainable protocol of repro.ml.training ------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.model.forward(x)

    def backward(self, grad: np.ndarray) -> None:
        """Accumulate parameter gradients for the last forward pass. The
        first layer's input gradient feeds nothing, so it is not computed
        (about a sixth of a training step's FLOPs)."""
        layers = self.model.layers
        for layer in reversed(layers[1:]):
            grad = layer.backward(grad)
        layers[0].accumulate(grad)

    def params(self) -> list:
        return self.model.params()

    def reset(self) -> None:
        self.model.reset()

    def fit(
        self,
        x: np.ndarray,
        epochs: int = 30,
        batch_size: int = 64,
        lr: float = 1e-3,
    ) -> TrainHistory:
        """Train to reconstruct benign windows (shuffled by the model's own
        stream, so successive fits continue one permutation sequence)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected [n, {self.input_dim}] inputs, got {x.shape}")
        config = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr)
        return train_minibatch(self, x, x, config, rng=self._shuffle_rng)

    def reconstruction_errors(self, x: np.ndarray) -> np.ndarray:
        """Per-window anomaly scores (row-wise MSE)."""
        x = np.asarray(x, dtype=np.float64)
        if len(x) == 0:
            return np.zeros(0)
        return per_sample_mse(self.reconstruct(x), x)
