"""Finite-difference gradient verification for every layer kind and full stacks."""

import numpy as np
import pytest

from conftest import numeric_grad, numeric_grad_sampled, rel_err
from eegconn.nn import (
    AvgPool1d,
    AvgPool2d,
    Conv1d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    MaxPool2d,
    Network,
    ReLU,
    Softmax,
    cross_entropy,
)
from eegconn.nn.network import onehot
from eegconn.pipeline import ModelSpec, build_domain_network
from oracles import FrozenDraws

TOL = 1e-4


def check_layer(layer, x, rng, train=False):
    """Backprop of sum(out * R) versus central differences, params and input."""
    out = layer.forward(x, train=train)
    upstream = rng.standard_normal(out.shape)

    def loss():
        return float((layer.forward(x, train=train) * upstream).sum())

    layer.forward(x, train=train)
    dx = layer.backward(upstream)
    for name, param in layer.params.items():
        approx = numeric_grad(loss, param)
        exact = layer.grads[name]
        assert rel_err(exact, approx) < TOL, f"param {name}"
    approx_dx = numeric_grad(loss, x)
    assert rel_err(dx, approx_dx) < TOL, "input gradient"


class TestLayerGradients:
    def test_conv2d(self, rng):
        layer = Conv2d(2, 3, 3)
        layer.init(rng)
        check_layer(layer, rng.standard_normal((2, 5, 5, 2)), rng)

    def test_conv2d_unpadded(self, rng):
        layer = Conv2d(2, 2, 3, same_padding=False)
        layer.init(rng)
        check_layer(layer, rng.standard_normal((2, 5, 5, 2)), rng)

    def test_conv1d(self, rng):
        layer = Conv1d(3, 4, 3)
        layer.init(rng)
        check_layer(layer, rng.standard_normal((2, 8, 3)), rng)

    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("make, shape", [
        (lambda: Conv2d(1, 12, 3), (2, 5, 5, 1)),
        (lambda: Conv1d(2, 8, 3), (2, 8, 2)),
    ], ids=["conv2d", "conv1d"])
    def test_thin_conv(self, make, shape, need_dx, rng):
        """taps x in_channels <= filters: forward and dw run as one im2col matmul."""
        layer = make()
        layer.init(rng)
        x = rng.standard_normal(shape)
        upstream = rng.standard_normal(layer.forward(x).shape)

        def loss():
            return float((layer.forward(x) * upstream).sum())

        layer.forward(x)
        dx = layer.backward(upstream, need_dx=need_dx)
        for name, param in layer.params.items():
            assert rel_err(layer.grads[name], numeric_grad(loss, param)) < TOL, f"param {name}"
        if need_dx:
            assert rel_err(dx, numeric_grad(loss, x)) < TOL, "input gradient"
        else:
            assert dx is None

    def test_dense(self, rng):
        layer = Dense(6, 4)
        layer.init(rng)
        check_layer(layer, rng.standard_normal((3, 6)), rng)

    def test_relu_away_from_kink(self, rng):
        x = rng.standard_normal((3, 7))
        x[np.abs(x) < 1e-2] += 0.05  # keep clear of the non-differentiable point
        check_layer(ReLU(), x, rng)

    def test_flatten(self, rng):
        check_layer(Flatten(), rng.standard_normal((2, 3, 4)), rng)

    def test_softmax(self, rng):
        check_layer(Softmax(), rng.standard_normal((3, 5)), rng)

    def test_avgpool1d(self, rng):
        check_layer(AvgPool1d(2, 2), rng.standard_normal((2, 8, 3)), rng)

    def test_avgpool1d_overlapping(self, rng):
        check_layer(AvgPool1d(3, 1), rng.standard_normal((2, 7, 2)), rng)

    def test_avgpool2d(self, rng):
        check_layer(AvgPool2d(2, 2), rng.standard_normal((2, 6, 6, 2)), rng)

    def test_maxpool2d(self, rng):
        check_layer(MaxPool2d(2, 2), rng.standard_normal((2, 6, 6, 2)), rng)

    def test_dropout_with_frozen_mask(self, rng):
        layer = Dropout(0.5)
        layer.rng = FrozenDraws(rng.random((3, 6)))
        check_layer(layer, rng.standard_normal((3, 6)), rng, train=True)


class TestSoftmaxCrossEntropyComposite:
    def test_composite_equals_probs_minus_onehot(self, rng):
        logits = rng.standard_normal((5, 2)) * 2.0
        bits = rng.integers(0, 2, size=5)
        sm = Softmax()
        probs = sm.forward(logits)
        # backward through the separate cross-entropy then softmax layers
        b = bits.astype(float)
        p1 = probs[:, 1]
        dprobs = np.zeros_like(probs)
        dprobs[:, 1] = -(b / p1 - (1 - b) / (1 - p1)) / 5.0
        dlogits = sm.backward(dprobs)
        fused = (probs - onehot(bits)) / 5.0
        assert np.abs(dlogits - fused).max() < 1e-12

    def test_zero_loss_point_has_zero_gradient(self):
        logits = np.array([[-800.0, 800.0], [800.0, -800.0]])
        bits = np.array([1, 0])
        net = Network([Dense(2, 2), Softmax()], input_shape=(2,), seed=0)
        net.layers[0].params["w"] = np.eye(2)
        loss, probs = net.loss_and_grads(logits, bits, train=False)
        assert loss < 2e-12  # the probability clamp keeps the logarithm finite
        np.testing.assert_array_equal(probs, onehot(bits))
        for g in net.grad_dict().values():
            assert np.all(g == 0.0)

    def test_linear_model_matches_logistic_closed_form(self, rng):
        x = rng.standard_normal((8, 3))
        bits = rng.integers(0, 2, size=8)
        net = Network([Dense(3, 2), Softmax()], input_shape=(3,), seed=1).initialize()
        _, probs = net.loss_and_grads(x, bits, train=False)
        # multinomial logistic regression: dW = X'(P - Y) / B
        expected_dw = x.T @ (probs - onehot(bits)) / 8.0
        expected_db = (probs - onehot(bits)).mean(axis=0)
        assert np.abs(net.grad_dict()["0.w"] - expected_dw).max() < 1e-12
        assert np.abs(net.grad_dict()["0.b"] - expected_db).max() < 1e-12


def check_full_network(net, inputs, bits, rng, n_coords=3):
    """Sampled-coordinate finite differences through the whole stack."""
    def loss():
        return cross_entropy(net.forward(inputs, train=False), bits)

    net.loss_and_grads(inputs, bits, train=False)
    grads = {k: v.copy() for k, v in net.grad_dict().items()}
    params = net.param_dict()
    for key, param in params.items():
        coords, approx = numeric_grad_sampled(loss, param, rng, n_coords=n_coords)
        exact = grads[key].reshape(-1)[coords]
        assert rel_err(exact, approx) < TOL, f"{net.name} {key}"


class TestFullArchitectures:
    def test_small_stacked_2d_network(self, rng):
        spec = ModelSpec(kind="cnn2d_var", channels=5, lags=2, n_bands=2,
                         conv2d_filters=(4, 3), dense2d=6, dropout=0.0)
        net = build_domain_network("var", spec, seed=3)
        x = rng.standard_normal((3, 5, 5, 2))
        bits = rng.integers(0, 2, size=3)
        check_full_network(net, x, bits, rng, n_coords=4)

    def test_small_stacked_1d_network(self, rng):
        spec = ModelSpec(kind="cnn1d_cn", channels=5, n_bands=3,
                         conv1d_filters=3, dense1d=5, dropout=0.0)
        net = build_domain_network("cn", spec, seed=4)
        x = rng.standard_normal((3, 12, 3))
        bits = rng.integers(0, 2, size=3)
        check_full_network(net, x, bits, rng, n_coords=4)

    def test_dropout_network_gradient_with_frozen_masks(self, rng):
        net = Network(
            [Dense(6, 4), ReLU(), Dropout(0.5), Dense(4, 2), Softmax()],
            input_shape=(6,), seed=5,
        ).initialize()
        x = rng.standard_normal((4, 6))
        bits = rng.integers(0, 2, size=4)
        drop = net.layers[2]
        drop.rng = FrozenDraws(rng.random((4, 4)))

        def loss():
            return cross_entropy(net.forward(x, train=True), bits)

        net.loss_and_grads(x, bits, train=True)
        grads = {k: v.copy() for k, v in net.grad_dict().items()}
        for key, param in net.param_dict().items():
            coords, approx = numeric_grad_sampled(loss, param, rng, n_coords=5)
            assert rel_err(grads[key].reshape(-1)[coords], approx) < TOL, key

    def test_nonfinite_gradient_detected(self, rng):
        net = Network([Dense(2, 2), Softmax()], input_shape=(2,), seed=6).initialize()
        net.layers[0].params["w"][0, 0] = 1e308
        x = np.full((2, 2), 1e308)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="layer"):
            net.loss_and_grads(x, np.array([0, 1]), train=False)
