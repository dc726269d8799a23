"""Neural network layers with manual forward/backward passes."""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np


class Parameter:
    """A trainable tensor with its gradient accumulator."""

    def __init__(self, value: np.ndarray) -> None:
        self.value = value.astype(np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class Layer(abc.ABC):
    """A differentiable module. ``backward`` consumes dL/d(output) and
    returns dL/d(input), accumulating parameter gradients on the way."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def backward(self, grad_out: np.ndarray) -> np.ndarray: ...

    def params(self) -> list[Parameter]:
        return []

    def reset(self) -> None:
        """Drop cached forward state kept for backward (inference cleanup)."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def glorot_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Dense(Layer):
    """Fully connected layer ``y = xW + b``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.W = Parameter(glorot_init(rng, in_dim, out_dim))
        self.b = Parameter(np.zeros(out_dim))
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.accumulate(grad_out)
        return grad_out @ self.W.value.T

    def accumulate(self, grad_out: np.ndarray) -> None:
        """:meth:`backward` without dL/d(input): for a first layer, whose
        input gradient nothing consumes."""
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.W.grad += self._x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)

    def params(self) -> list[Parameter]:
        return [self.W, self.b]

    def reset(self) -> None:
        self._x = None


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask

    def reset(self) -> None:
        self._mask = None


class Sigmoid(Layer):
    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._y * (1.0 - self._y)

    def reset(self) -> None:
        self._y = None


class Tanh(Layer):
    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._y**2)

    def reset(self) -> None:
        self._y = None


class Sequential(Layer):
    """Layer composition."""

    def __init__(self, *layers: Layer) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def params(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def reset(self) -> None:
        for layer in self.layers:
            layer.reset()
