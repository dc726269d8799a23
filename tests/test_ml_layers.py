"""Tests for the numpy NN stack: layers, optimizers, gradient checks."""

import numpy as np
import pytest

from repro.ml.layers import Dense, Parameter, ReLU, Sequential, Sigmoid, Tanh
from repro.ml.losses import mse_loss
from repro.ml.optim import Adam, Sgd
from tests.reference_scoring import per_sample_mse


def numeric_gradient(f, x, eps=1e-6):
    """Central finite differences of scalar f w.r.t. array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        plus = f()
        x[idx] = original - eps
        minus = f()
        x[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestDense:
    def test_forward_shape(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng)
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_gradient_check_weights(self):
        rng = np.random.default_rng(1)
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 3))

        def loss_fn():
            return mse_loss(layer.forward(x), target)[0]

        loss, grad = mse_loss(layer.forward(x), target)
        layer.W.zero_grad()
        layer.b.zero_grad()
        layer.backward(grad)
        numeric_w = numeric_gradient(loss_fn, layer.W.value)
        numeric_b = numeric_gradient(loss_fn, layer.b.value)
        assert np.allclose(layer.W.grad, numeric_w, atol=1e-5)
        assert np.allclose(layer.b.grad, numeric_b, atol=1e-5)

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))


@pytest.mark.parametrize("activation_cls", [ReLU, Sigmoid, Tanh])
class TestActivations:
    def test_gradient_check(self, activation_cls):
        rng = np.random.default_rng(2)
        layer = activation_cls()
        x = rng.normal(size=(4, 5)) + 0.1  # avoid ReLU kink at exactly 0
        target = rng.normal(size=(4, 5))

        def loss_fn():
            return mse_loss(layer.forward(x), target)[0]

        loss, grad = mse_loss(layer.forward(x), target)
        grad_in = layer.backward(grad)
        numeric = numeric_gradient(loss_fn, x)
        assert np.allclose(grad_in, numeric, atol=1e-5)


class TestSequential:
    def test_end_to_end_gradient_check(self):
        rng = np.random.default_rng(3)
        model = Sequential(Dense(5, 8, rng), Tanh(), Dense(8, 5, rng))
        x = rng.normal(size=(7, 5))
        target = rng.normal(size=(7, 5))

        def loss_fn():
            return mse_loss(model.forward(x), target)[0]

        for param in model.params():
            param.zero_grad()
        loss, grad = mse_loss(model.forward(x), target)
        model.backward(grad)
        for param in model.params():
            numeric = numeric_gradient(loss_fn, param.value)
            assert np.allclose(param.grad, numeric, atol=1e-5)

    def test_params_collects_all(self):
        rng = np.random.default_rng(0)
        model = Sequential(Dense(2, 3, rng), ReLU(), Dense(3, 2, rng))
        assert len(model.params()) == 4


class TestLosses:
    def test_mse_zero_for_equal(self):
        x = np.ones((3, 4))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones((2, 2)), np.ones((2, 3)))

    def test_per_sample_mse(self):
        pred = np.array([[1.0, 1.0], [0.0, 0.0]])
        target = np.zeros((2, 2))
        assert list(per_sample_mse(pred, target)) == [1.0, 0.0]

    def test_per_sample_mse_3d(self):
        pred = np.ones((2, 3, 4))
        out = per_sample_mse(pred, np.zeros((2, 3, 4)))
        assert out.shape == (2,)
        assert np.allclose(out, 1.0)


class TestOptimizers:
    def _quadratic_param(self):
        return Parameter(np.array([5.0, -3.0]))

    def test_sgd_converges_on_quadratic(self):
        param = self._quadratic_param()
        optimizer = Sgd([param], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            param.grad += 2 * param.value  # d/dx of x^2
            optimizer.step()
        assert np.allclose(param.value, 0.0, atol=1e-6)

    def test_sgd_momentum_converges(self):
        param = self._quadratic_param()
        optimizer = Sgd([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            optimizer.zero_grad()
            param.grad += 2 * param.value
            optimizer.step()
        assert np.allclose(param.value, 0.0, atol=1e-4)

    def test_adam_converges_on_quadratic(self):
        param = self._quadratic_param()
        optimizer = Adam([param], lr=0.1)
        for _ in range(500):
            optimizer.zero_grad()
            param.grad += 2 * param.value
            optimizer.step()
        assert np.allclose(param.value, 0.0, atol=1e-4)

    def test_zero_grad(self):
        param = Parameter(np.ones(3))
        param.grad += 5.0
        Adam([param]).zero_grad()
        assert np.all(param.grad == 0.0)
