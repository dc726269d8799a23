"""Optimizers: SGD with momentum, and Adam."""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Parameter


class Optimizer:
    def __init__(self, params: list[Parameter]) -> None:
        self.params = list(params)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Sgd(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params: list[Parameter], lr: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if self.momentum:
                velocity *= self.momentum
                velocity -= self.lr * param.grad
                param.value += velocity
            else:
                param.value -= self.lr * param.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction.

    ``step`` runs the textbook update's operations in their order, written
    into two scratch buffers per parameter instead of a temporary per
    operation: it allocates nothing, and the weights come out bit for bit
    the same.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._scratch = [
            (np.empty_like(p.value), np.empty_like(p.value)) for p in self.params
        ]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, m, v, (s1, s2) in zip(self.params, self._m, self._v, self._scratch):
            grad = param.grad
            # m = beta1 * m + (1 - beta1) * grad
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=s1)
            # v = beta2 * v + (1 - beta2) * grad**2
            v *= self.beta2
            np.multiply(grad, grad, out=s1)
            v += np.multiply(s1, 1.0 - self.beta2, out=s1)
            # value -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(v, bias2, out=s1)
            np.sqrt(s1, out=s1)
            s1 += self.eps
            np.divide(m, bias1, out=s2)
            np.multiply(s2, self.lr, out=s2)
            param.value -= np.divide(s2, s1, out=s2)
