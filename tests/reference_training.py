"""The seed training loops, kept as a test oracle: the bodies verbatim,
``self`` made the ``model`` argument.

``Autoencoder.fit``, ``LstmPredictor.fit`` and
``repro.ml.training.train_minibatch`` now all train through the one loop,
which skips the autoencoder's first-layer input gradient (nothing reads
it), with an ``Adam`` that writes its update into scratch buffers. These
are the bodies that computed that gradient, with the seed ``Adam`` that
allocated its temporaries. ``tests/test_trainfast.py`` holds the one loop
to them bit for bit — per-epoch losses and every parameter — on the same
machine, so the comparison is immune to BLAS kernels differing across
CPUs. Not imported by ``src``.
"""

from typing import Optional

import numpy as np

from repro.ml.losses import mse_loss
from repro.ml.training import TrainConfig, TrainHistory


class Adam:
    """The seed ``repro.ml.optim.Adam``: a temporary per operation."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, m, v in zip(self.params, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * param.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * param.grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def autoencoder_fit(
    model, x: np.ndarray, epochs: int = 30, batch_size: int = 64, lr: float = 1e-3
) -> list:
    """The seed ``Autoencoder.fit``; returns the per-epoch losses."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"expected [n, {model.input_dim}] inputs, got {x.shape}")
    if len(x) == 0:
        raise ValueError("cannot train on an empty dataset")
    optimizer = Adam(model.model.params(), lr=lr)
    epoch_losses = []
    n = len(x)
    for _ in range(epochs):
        order = model._shuffle_rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            batch = x[order[start : start + batch_size]]
            optimizer.zero_grad()
            pred = model.model.forward(batch)
            loss, grad = mse_loss(pred, batch)
            model.model.backward(grad)
            optimizer.step()
            epoch_loss += loss
            batches += 1
        epoch_losses.append(epoch_loss / max(batches, 1))
    return epoch_losses


def lstm_fit(
    model,
    sequences: np.ndarray,
    targets: np.ndarray,
    epochs: int = 30,
    batch_size: int = 64,
    lr: float = 3e-3,
) -> list:
    """The seed ``LstmPredictor.fit``; returns the per-epoch losses."""
    sequences = np.asarray(sequences, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(sequences) != len(targets):
        raise ValueError("sequences and targets must align")
    if len(sequences) == 0:
        raise ValueError("cannot train on an empty dataset")
    optimizer = Adam(model.params(), lr=lr)
    epoch_losses = []
    n = len(sequences)
    for _ in range(epochs):
        order = model._shuffle_rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            optimizer.zero_grad()
            pred = model.forward(sequences[idx])
            loss, grad = mse_loss(pred, targets[idx])
            model.backward(grad)
            optimizer.step()
            epoch_loss += loss
            batches += 1
        epoch_losses.append(epoch_loss / max(batches, 1))
    return epoch_losses


def train_minibatch(
    trainable,
    inputs: np.ndarray,
    targets: np.ndarray,
    config: Optional[TrainConfig] = None,
) -> TrainHistory:
    """The seed ``train_minibatch`` (its metrics hooks left out)."""
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
    train_x, train_y = inputs[: len(inputs) - n_val], targets[: len(targets) - n_val]
    val_x, val_y = inputs[len(inputs) - n_val :], targets[len(targets) - n_val :]

    optimizer = Adam(trainable.params(), lr=config.lr)
    shuffle = np.random.default_rng(config.seed)
    history = TrainHistory()
    best_val = float("inf")
    stale_epochs = 0
    n = len(train_x)
    for epoch in range(config.epochs):
        order = shuffle.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            optimizer.zero_grad()
            prediction = trainable.forward(train_x[idx])
            loss, grad = mse_loss(prediction, train_y[idx])
            trainable.backward(grad)
            optimizer.step()
            epoch_loss += loss
            batches += 1
        history.epoch_losses.append(epoch_loss / max(batches, 1))

        if n_val:
            val_loss, _ = mse_loss(trainable.forward(val_x), val_y)
            # Inference pass must not leave stale backward state behind.
            reset = getattr(trainable, "reset", None)
            if reset is not None:
                reset()
            history.validation_losses.append(val_loss)
            if val_loss < best_val * (1.0 - config.min_improvement):
                best_val = val_loss
                history.best_epoch = epoch
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= config.patience:
                    history.stopped_early = True
                    break
    if history.best_epoch < 0 and history.epoch_losses:
        history.best_epoch = int(np.argmin(history.epoch_losses))
    return history


class AutoencoderAdapter:
    """The seed adapter ``train_autoencoder`` trained through: the model's
    ``Sequential``, whose ``backward`` returns the first layer's input
    gradient too."""

    def __init__(self, autoencoder) -> None:
        self._model = autoencoder.model

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._model.forward(x)

    def backward(self, grad: np.ndarray) -> None:
        self._model.backward(grad)

    def params(self) -> list:
        return self._model.params()

    def reset(self) -> None:
        self._model.reset()
