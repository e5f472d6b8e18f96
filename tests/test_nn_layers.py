import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eegconn.errors import ShapeError, ValidationError
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
    layers,
    softmax,
)
from eegconn.pipeline import ModelSpec, build_domain_network, build_feature_fusion, build_stage2
from eegconn.seeding import derive_rng


def conv2d_loop_oracle(x, w, b, pad):
    """Six-nested-loop direct evaluation of padded cross-correlation."""
    bs, h, wd, c = x.shape
    kh, kw, _, r = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    ho = h + 2 * pad - kh + 1
    wo = wd + 2 * pad - kw + 1
    out = np.zeros((bs, ho, wo, r))
    for n in range(bs):
        for i in range(ho):
            for j in range(wo):
                for q in range(r):
                    acc = b[q]
                    for u in range(kh):
                        for v in range(kw):
                            for cc in range(c):
                                acc += xp[n, i + u, j + v, cc] * w[u, v, cc, q]
                    out[n, i, j, q] = acc
    return out


def conv1d_loop_oracle(x, w, b, pad):
    bs, ln, c = x.shape
    k, _, r = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    out = np.zeros((bs, ln, r))
    for n in range(bs):
        for i in range(ln):
            for q in range(r):
                acc = b[q]
                for u in range(k):
                    for cc in range(c):
                        acc += xp[n, i + u, cc] * w[u, cc, q]
                out[n, i, q] = acc
    return out


class TestConv2d:
    def test_centered_delta_kernel_is_identity(self, rng):
        layer = Conv2d(1, 1, 3)
        layer.params["w"] = np.zeros((3, 3, 1, 1))
        layer.params["w"][1, 1, 0, 0] = 1.0
        x = rng.standard_normal((2, 3, 3, 1))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-15)

    def test_zero_input_gives_bias(self, rng):
        layer = Conv2d(2, 3, 3)
        layer.init(rng)
        out = layer.forward(np.zeros((1, 4, 4, 2)))
        np.testing.assert_allclose(out, np.broadcast_to(layer.params["b"], out.shape))

    def test_matches_loop_oracle(self, rng):
        layer = Conv2d(2, 3, 3)
        layer.init(rng)
        x = rng.standard_normal((2, 5, 5, 2))
        expected = conv2d_loop_oracle(x, layer.params["w"], layer.params["b"], 1)
        assert np.abs(layer.forward(x) - expected).max() < 1e-12

    @pytest.mark.parametrize("conv", [Conv2d, Conv1d])
    def test_stride_two_rejected(self, conv):
        with pytest.raises(ValidationError, match="stride"):
            conv(2, 2, 3, stride=2)

    def test_padding_preserves_shape(self, rng):
        layer = Conv2d(5, 7, 3)
        layer.init(rng)
        assert layer.forward(rng.standard_normal((3, 16, 16, 5))).shape == (3, 16, 16, 7)

    def test_channel_mismatch_raises(self, rng):
        layer = Conv2d(3, 2, 3)
        with pytest.raises(ShapeError):
            layer.forward(rng.standard_normal((1, 4, 4, 2)))

    def test_even_kernel_with_same_padding_rejected(self):
        with pytest.raises(ValidationError):
            Conv2d(1, 1, 4)


class TestConv1d:
    def test_paper_shape(self, rng):
        layer = Conv1d(5, 8, 3)
        layer.init(rng)
        assert layer.forward(rng.standard_normal((2, 34, 5))).shape == (2, 34, 8)

    def test_delta_kernel_identity(self, rng):
        layer = Conv1d(1, 1, 3)
        layer.params["w"] = np.zeros((3, 1, 1))
        layer.params["w"][1, 0, 0] = 1.0
        x = rng.standard_normal((2, 6, 1))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-15)

    def test_matches_loop_oracle(self, rng):
        layer = Conv1d(3, 4, 3)
        layer.init(rng)
        x = rng.standard_normal((2, 9, 3))
        expected = conv1d_loop_oracle(x, layer.params["w"], layer.params["b"], 1)
        assert np.abs(layer.forward(x) - expected).max() < 1e-12


class TestPooling:
    def test_avg1d_example(self):
        x = np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 4, 1)
        out = AvgPool1d(2, 2).forward(x)
        np.testing.assert_array_equal(out.ravel(), [2.0, 6.0])

    def test_avg1d_constant(self):
        x = np.full((2, 8, 3), 4.2)
        np.testing.assert_allclose(AvgPool1d(2, 2).forward(x), 4.2)

    def test_length_34_pools_to_17(self, rng):
        out = AvgPool1d(2, 2).forward(rng.standard_normal((3, 34, 8)))
        assert out.shape == (3, 17, 8)

    def test_avg1d_backward_distributes(self):
        layer = AvgPool1d(2, 2)
        x = np.arange(4.0).reshape(1, 4, 1)
        layer.forward(x)
        dx = layer.backward(np.array([[[1.0], [3.0]]]))
        np.testing.assert_allclose(dx.ravel(), [0.5, 0.5, 1.5, 1.5])

    def test_avg2d_matches_manual(self, rng):
        x = rng.standard_normal((1, 4, 4, 2))
        out = AvgPool2d(2, 2).forward(x)
        manual = x.reshape(1, 2, 2, 2, 2, 2).mean(axis=(2, 4))
        assert out.shape == (1, 2, 2, 2)
        np.testing.assert_allclose(out, manual, atol=1e-15)

    def test_max2d_matches_manual(self, rng):
        x = rng.standard_normal((2, 4, 4, 3))
        out = MaxPool2d(2, 2).forward(x)
        manual = x.reshape(2, 2, 2, 2, 2, 3).max(axis=(2, 4))
        np.testing.assert_array_equal(out, manual)

    def test_window_larger_than_input_rejected(self):
        with pytest.raises(ShapeError):
            AvgPool1d(4, 4).output_shape((3, 2))


class TestDense:
    def test_identity_weights(self):
        layer = Dense(3, 3)
        layer.params["w"] = np.eye(3)
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_zero_weights_gives_bias(self, rng):
        layer = Dense(4, 2)
        layer.params["b"] = np.array([0.5, -0.5])
        out = layer.forward(rng.standard_normal((3, 4)))
        np.testing.assert_allclose(out, np.tile([0.5, -0.5], (3, 1)))

    def test_matches_loop_oracle(self, rng):
        layer = Dense(4, 3)
        layer.init(rng)
        x = rng.standard_normal((2, 4))
        expected = np.zeros((2, 3))
        for n in range(2):
            for j in range(3):
                expected[n, j] = layer.params["b"][j] + sum(
                    x[n, i] * layer.params["w"][i, j] for i in range(4)
                )
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-12)


class TestThinConvolution:
    """A convolution whose im2col matrix is no wider than its output
    (taps x in_channels <= filters) runs its forward pass and weight gradient
    as one matmul each over that matrix; the per-offset body is the reference."""

    @staticmethod
    def run(layer, x, dout):
        out = layer.forward(x)
        layer.backward(dout, need_dx=False)
        return out, layer.grads["w"]

    @staticmethod
    def count_columns(monkeypatch):
        calls = []
        columns = layers._columns
        monkeypatch.setattr(layers, "_columns", lambda *a: calls.append(a) or columns(*a))
        return calls

    @pytest.mark.parametrize("make, shape", [
        (lambda: Conv2d(5, 128, 3), (3, 16, 16, 5)),
        (lambda: Conv2d(1, 12, 3), (2, 5, 5, 1)),
        (lambda: Conv2d(2, 18, 3, same_padding=False), (2, 6, 5, 2)),
        (lambda: Conv1d(2, 8, 3), (2, 9, 2)),
    ], ids=["conv2d-5-128", "conv2d-1-12", "conv2d-unpadded", "conv1d-2-8"])
    def test_matches_the_per_offset_body(self, make, shape, rng, monkeypatch):
        layer = make()
        layer.init(rng)
        x = rng.standard_normal(shape)
        dout = rng.standard_normal((shape[0], *layer.output_shape(shape[1:])))
        calls = self.count_columns(monkeypatch)
        out, dw = self.run(layer, x, dout)
        assert len(calls) == 2
        monkeypatch.setattr(layers, "_thin", lambda w: False)
        ref_out, ref_dw = self.run(layer, x, dout)
        assert len(calls) == 2
        for got, ref in ((out, ref_out), (dw, ref_dw)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("make, shape", [
        (lambda: Conv2d(128, 64, 3), (1, 4, 4, 128)),
        (lambda: Conv1d(5, 8, 3), (2, 34, 5)),
    ], ids=["conv2d-128-64", "conv1d-5-8"])
    def test_wider_layers_run_per_offset(self, make, shape, rng, monkeypatch):
        layer = make()
        layer.init(rng)
        x = rng.standard_normal(shape)
        calls = self.count_columns(monkeypatch)
        self.run(layer, x, rng.standard_normal(layer.forward(x).shape))
        assert calls == []


class TestActivations:
    def test_relu_definition(self):
        np.testing.assert_array_equal(ReLU().forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_matches_where_on_nonfinite_and_signed_zero(self):
        x = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, 2.0])
        out = ReLU().forward(x)
        assert out.tobytes() == np.where(x > 0, x, 0.0).tobytes()
        assert not np.signbit(out).any()

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_softmax_overflow_safe(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    @given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-1e4, 1e4)))
    def test_softmax_rows_sum_to_one(self, logits):
        out = softmax(logits)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert (out >= 0).all()


class TestDropout:
    def test_eval_mode_is_exact_identity(self, rng):
        layer = Dropout(0.5)
        layer.rng = derive_rng(5, "drop")
        x = rng.standard_normal((4, 6))
        assert layer.forward(x, train=False) is x

    def test_zero_ratio_identity_in_train(self, rng):
        layer = Dropout(0.0)
        x = rng.standard_normal((4, 6))
        assert layer.forward(x, train=True) is x

    def test_montecarlo_mean_preserved(self):
        layer = Dropout(0.5)
        layer.rng = derive_rng(6, "mc")
        total = 0.0
        n = 100_000
        x = np.ones((1, 1))
        for _ in range(200):
            out = layer.forward(np.ones((1, n // 200)), train=True)
            total += out.sum()
        assert abs(total / n - 1.0) < 0.02
        del x

    def test_train_without_rng_raises(self):
        layer = Dropout(0.5)
        with pytest.raises(ValidationError):
            layer.forward(np.ones((2, 2)), train=True)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValidationError):
            Dropout(1.0)


class TestCrossEntropy:
    def test_uniform_pair(self):
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(np.log(2.0))

    def test_confident_correct_goes_to_zero(self):
        assert cross_entropy(np.array([1e-9, 1.0 - 1e-9]), 1) < 1e-6

    def test_known_value(self):
        # -ln(0.9) evaluated directly
        assert cross_entropy(np.array([0.1, 0.9]), 1) == pytest.approx(0.105360515657826, abs=1e-12)

    def test_batch_mean(self):
        probs = np.array([[0.5, 0.5], [0.1, 0.9]])
        expected = 0.5 * (np.log(2.0) - np.log(0.9))
        assert cross_entropy(probs, np.array([1, 1])) == pytest.approx(expected, abs=1e-12)

    def test_clamped_at_zero_probability(self):
        val = cross_entropy(np.array([1.0, 0.0]), 1)
        assert np.isfinite(val) and val == pytest.approx(-np.log(1e-12))


class TestNetworkShapes:
    def test_construction_error_names_layer(self):
        with pytest.raises(ShapeError, match="layer 1"):
            Network([Flatten(), Dense(10, 2), Softmax()], input_shape=(3, 3))

    def test_forward_input_shape_checked(self, rng):
        net = Network([Dense(4, 2), Softmax()], input_shape=(4,), seed=0).initialize()
        with pytest.raises(ShapeError):
            net.forward(rng.standard_normal((2, 5)))

    def test_zero_padding_preserves_dims_both_convs(self):
        shape2 = Conv2d(5, 9, 3).output_shape((16, 16, 5))
        assert shape2 == (16, 16, 9)
        shape1 = Conv1d(5, 9, 3).output_shape((34, 5))
        assert shape1 == (34, 9)


class TestUnsetParameters:
    LAYERS = [lambda: Conv2d(2, 3, 3), lambda: Conv1d(2, 3, 3), lambda: Dense(4, 3)]

    @pytest.mark.parametrize("make", LAYERS, ids=["conv2d", "conv1d", "dense"])
    def test_placeholders_are_zero_and_read_only(self, make):
        layer = make()
        for arr in layer.params.values():
            assert not arr.flags.writeable and not arr.any()
        with pytest.raises(ValueError):
            layer.params["w"][...] = 1.0

    @pytest.mark.parametrize("make", LAYERS, ids=["conv2d", "conv1d", "dense"])
    def test_init_gives_writable_arrays_of_the_same_shapes(self, make, rng):
        layer = make()
        shapes = {k: v.shape for k, v in layer.params.items()}
        layer.init(rng)
        for key, arr in layer.params.items():
            assert arr.shape == shapes[key] and arr.flags.writeable and arr.flags.owndata

    def test_set_state_into_an_uninitialized_net_raises(self):
        fresh = Network([Dense(4, 2), Softmax()], input_shape=(4,), seed=0)
        state = Network([Dense(4, 2), Softmax()], input_shape=(4,), seed=0).initialize().get_state()
        with pytest.raises(ValueError):
            fresh.set_state(state)


class TestInputGradientRequests:
    @staticmethod
    def spy(net):
        """Record need_dx per layer object for every backward call of ``net``."""
        seen = {}
        for _, layer, _, _ in net._layers():
            def backward(dout, need_dx=True, _layer=layer, _orig=layer.backward):
                seen[id(_layer)] = need_dx
                return _orig(dout, need_dx=need_dx)
            layer.backward = backward
        return seen

    @staticmethod
    def first_layers(net):
        stacks = net.branches or [net.layers]
        return {id(stack[0]) for stack in stacks}

    @pytest.mark.parametrize("build", [
        lambda spec: build_domain_network("var", spec, seed=1),
        lambda spec: build_domain_network("cn", spec, seed=1),
        lambda spec: build_feature_fusion(spec, seed=1),
        lambda spec: build_stage2(seed=1),
    ], ids=["cnn2d", "cnn1d", "fusion_feature", "stage2"])
    def test_only_input_layers_skip_the_input_gradient(self, build, rng):
        spec = ModelSpec(kind="fusion_feature")
        net = build(spec)
        seen = self.spy(net)
        if net.branches:
            x = [rng.standard_normal((2, *shape)) for shape in net.input_shapes]
        else:
            x = rng.standard_normal((2, *net.input_shape))
        net.loss_and_grads(x, np.array([0, 1]))
        first = self.first_layers(net)
        backpropped = [layer for _, layer, _, _ in net._layers() if layer is not net.layers[-1]]
        assert set(seen) == {id(layer) for layer in backpropped}
        for layer in backpropped:
            assert seen[id(layer)] is (id(layer) not in first), layer.kind

    @pytest.mark.parametrize("make,shape", [
        (lambda: Conv2d(2, 3, 3), (2, 4, 4, 2)),
        (lambda: Conv1d(2, 3, 3), (2, 5, 2)),
        (lambda: Dense(4, 3), (2, 4)),
    ], ids=["conv2d", "conv1d", "dense"])
    def test_direct_backward_returns_dx_and_same_grads(self, make, shape, rng):
        layer = make()
        layer.init(rng)
        x = rng.standard_normal(shape)
        dout = rng.standard_normal(layer.forward(x).shape)
        dx = layer.backward(dout)
        assert dx.shape == x.shape
        grads = {k: v.copy() for k, v in layer.grads.items()}
        assert layer.backward(dout, need_dx=False) is None
        for key, g in layer.grads.items():
            np.testing.assert_array_equal(g, grads[key])
