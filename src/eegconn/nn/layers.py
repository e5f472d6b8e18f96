"""Layer implementations with exact reverse-mode gradients.

Conventions: batched float64 arrays, channels last.  2-D feature maps are
(batch, height, width, channels); 1-D ones are (batch, length, channels).
Convolution is cross-correlation (no kernel flip), the usual deep-learning
convention.  All forward passes cache what their backward pass needs; a
backward call is only valid right after the matching forward.

A layer's parameters are read-only zero placeholders of the right shapes
until ``init`` draws them or a model file binds them, so an in-place update
of a layer that was never initialized raises instead of training from zeros.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError, ValidationError


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _unset(*shape: int) -> np.ndarray:
    """A read-only zero placeholder of a parameter's shape; allocates nothing."""
    return np.broadcast_to(0.0, shape)


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base layer: parameter store plus forward/backward."""

    kind = "layer"

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def init(self, rng: np.random.Generator) -> None:
        """Draw initial parameters (no-op for parameter-free layers)."""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Gradient w.r.t. the input; fills ``grads`` for layers with parameters.

        With ``need_dx=False`` (the layer reads a network input) a layer with
        parameters may skip the input gradient and return None.
        """
        raise NotImplementedError

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def config(self) -> dict:
        return {}


# -- convolution core ------------------------------------------------------
#
# Shared by Conv2d and Conv1d (the latter runs with a width-1 second axis).
# Every convolution has stride 1 and runs as one matmul per kernel offset on
# shifted views of the padded input, which avoids an im2col gather.


def _conv_forward(x, w, bias, pad):
    kh, kw = w.shape[:2]
    ph, pw = pad
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    b = x.shape[0]
    ho = xp.shape[1] - kh + 1
    wo = xp.shape[2] - kw + 1
    out = np.empty((b, ho, wo, w.shape[-1]))
    out[...] = bias
    tmp = np.empty_like(out)  # one product buffer per call, not one per kernel offset
    for u in range(kh):
        for v in range(kw):
            np.matmul(xp[:, u : u + ho, v : v + wo, :], w[u, v], out=tmp)
            out += tmp
    return out, xp


def _conv_backward(dout, xp, w, pad, need_dx=True):
    """(dx or None, dw, db); ``need_dx=False`` skips the input gradient."""
    kh, kw, c, r = w.shape
    ph, pw = pad
    dflat = dout.reshape(-1, r)
    db = dflat.sum(axis=0)
    b, ho, wo, _ = dout.shape
    h, wd = xp.shape[1] - 2 * ph, xp.shape[2] - 2 * pw
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp) if need_dx else None
    for u in range(kh):
        for v in range(kw):
            xs = np.ascontiguousarray(xp[:, u : u + ho, v : v + wo, :]).reshape(-1, c)
            dw[u, v] = xs.T @ dflat
            if need_dx:
                dxp[:, u : u + ho, v : v + wo, :] += (dflat @ w[u, v].T).reshape(b, ho, wo, c)
    dx = dxp[:, ph : ph + h, pw : pw + wd] if need_dx else None
    return dx, dw, db


class _Conv(Layer):
    """Constructor, weight draw and descriptor shared by the stride-1 convolutions."""

    spatial = 2  # kernel axes

    def __init__(self, in_channels: int, filters: int, kernel: int = 3, stride: int = 1,
                 same_padding: bool = True):
        super().__init__()
        if filters < 1:
            raise ValidationError(f"need at least one filter, got {filters}")
        if same_padding and kernel % 2 == 0:
            raise ValidationError("shape-preserving padding needs an odd kernel size")
        if stride != 1:
            raise ValidationError(f"convolutions support stride 1 only, got {stride}")
        self.in_channels = in_channels
        self.filters = filters
        self.kernel = kernel
        self.stride = stride
        self.same_padding = same_padding
        self.pad = (kernel - 1) // 2 if same_padding else 0
        self.params = {
            "w": _unset(*(kernel,) * self.spatial, in_channels, filters),
            "b": _unset(filters),
        }

    def init(self, rng):
        taps = self.kernel ** self.spatial
        self.params["w"] = _glorot(rng, self.params["w"].shape, taps * self.in_channels,
                                   taps * self.filters)
        self.params["b"] = np.zeros(self.filters)

    def config(self):
        return {
            "in_channels": self.in_channels,
            "filters": self.filters,
            "kernel": self.kernel,
            "stride": self.stride,
            "same_padding": self.same_padding,
        }


class Conv2d(_Conv):
    """2-D convolution over (B, H, W, C) maps, optional shape-preserving zero padding."""

    kind = "conv2d"

    def output_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[2] != self.in_channels:
            raise ShapeError(
                f"conv2d expects (H, W, {self.in_channels}), got {in_shape}"
            )
        h = in_shape[0] + 2 * self.pad - self.kernel + 1
        w = in_shape[1] + 2 * self.pad - self.kernel + 1
        if h < 1 or w < 1:
            raise ShapeError(f"conv2d output collapses on input {in_shape}")
        return (h, w, self.filters)

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(
                f"conv2d expects (B, H, W, {self.in_channels}), got {x.shape}"
            )
        out, self._cache = _conv_forward(x, self.params["w"], self.params["b"], (self.pad,) * 2)
        return out

    def backward(self, dout, need_dx=True):
        dx, dw, db = _conv_backward(dout, self._cache, self.params["w"], (self.pad,) * 2,
                                    need_dx)
        self.grads = {"w": dw, "b": db}
        return dx


class Conv1d(_Conv):
    """1-D convolution over (B, L, C) sequences; runs on the 2-D core."""

    kind = "conv1d"
    spatial = 1

    def output_shape(self, in_shape):
        if len(in_shape) != 2 or in_shape[1] != self.in_channels:
            raise ShapeError(f"conv1d expects (L, {self.in_channels}), got {in_shape}")
        length = in_shape[0] + 2 * self.pad - self.kernel + 1
        if length < 1:
            raise ShapeError(f"conv1d output collapses on input {in_shape}")
        return (length, self.filters)

    def forward(self, x, train=False):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeError(f"conv1d expects (B, L, {self.in_channels}), got {x.shape}")
        x4 = x[:, :, None, :]
        w4 = self.params["w"][:, None, :, :]
        out, self._cache = _conv_forward(x4, w4, self.params["b"], (self.pad, 0))
        return out[:, :, 0, :]

    def backward(self, dout, need_dx=True):
        w4 = self.params["w"][:, None, :, :]
        dx4, dw4, db = _conv_backward(dout[:, :, None, :], self._cache, w4, (self.pad, 0),
                                      need_dx)
        self.grads = {"w": dw4[:, 0], "b": db}
        return dx4[:, :, 0, :] if need_dx else None


class AvgPool1d(Layer):
    kind = "avgpool1d"

    def __init__(self, size: int = 2, stride: int | None = None):
        super().__init__()
        self.size = size
        self.stride = stride if stride is not None else size

    def output_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError(f"1-D pooling expects (L, C), got {in_shape}")
        if in_shape[0] < self.size:
            raise ShapeError(f"pool window {self.size} exceeds length {in_shape[0]}")
        return ((in_shape[0] - self.size) // self.stride + 1, in_shape[1])

    def forward(self, x, train=False):
        v = sliding_window_view(x, self.size, axis=1)[:, :: self.stride]  # (B, Lo, C, size)
        self._cache = (x.shape, v.shape[1])
        return v.mean(axis=-1)

    def backward(self, dout, need_dx=True):
        x_shape, lout = self._cache
        dx = np.zeros(x_shape)
        share = dout / self.size
        for o in range(self.size):
            idx = o + self.stride * np.arange(lout)
            dx[:, idx, :] += share
        return dx

    def config(self):
        return {"size": self.size, "stride": self.stride}


class _Pool2d(Layer):
    def __init__(self, size: int = 2, stride: int | None = None):
        super().__init__()
        self.size = size
        self.stride = stride if stride is not None else size

    def output_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"2-D pooling expects (H, W, C), got {in_shape}")
        if min(in_shape[0], in_shape[1]) < self.size:
            raise ShapeError(f"pool window {self.size} exceeds input {in_shape}")
        h = (in_shape[0] - self.size) // self.stride + 1
        w = (in_shape[1] - self.size) // self.stride + 1
        return (h, w, in_shape[2])

    def _windows(self, x):
        v = sliding_window_view(x, (self.size, self.size), axis=(1, 2))
        return v[:, :: self.stride, :: self.stride]  # (B, Ho, Wo, C, s, s)

    def config(self):
        return {"size": self.size, "stride": self.stride}


class AvgPool2d(_Pool2d):
    kind = "avgpool2d"

    def forward(self, x, train=False):
        v = self._windows(x)
        self._cache = (x.shape, v.shape[1], v.shape[2])
        return v.mean(axis=(-2, -1))

    def backward(self, dout, need_dx=True):
        x_shape, ho, wo = self._cache
        dx = np.zeros(x_shape)
        share = dout / (self.size * self.size)
        for oy in range(self.size):
            iy = oy + self.stride * np.arange(ho)
            for ox in range(self.size):
                ix = ox + self.stride * np.arange(wo)
                dx[:, iy[:, None], ix[None, :], :] += share
        return dx


class MaxPool2d(_Pool2d):
    kind = "maxpool2d"

    def forward(self, x, train=False):
        v = self._windows(x)
        b, ho, wo, c = v.shape[:4]
        flat = v.reshape(b, ho, wo, c, -1)
        self._amax = flat.argmax(axis=-1)
        self._cache = (x.shape, ho, wo)
        return flat.max(axis=-1)

    def backward(self, dout, need_dx=True):
        x_shape, ho, wo = self._cache
        b, _, _, c = x_shape
        dx = np.zeros(x_shape)
        oy, ox = np.divmod(self._amax, self.size)
        ry = self.stride * np.arange(ho)[None, :, None, None] + oy
        rx = self.stride * np.arange(wo)[None, None, :, None] + ox
        bi = np.arange(b)[:, None, None, None]
        ci = np.arange(c)[None, None, None, :]
        np.add.at(dx, (bi, ry, rx, ci), dout)
        return dx


class Flatten(Layer):
    kind = "flatten"

    def output_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, train=False):
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout, need_dx=True):
        return dout.reshape(self._cache)


class Dense(Layer):
    """Affine map on (B, n) inputs."""

    kind = "dense"

    def __init__(self, in_features: int, out_features: int):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.params = {"w": _unset(in_features, out_features), "b": _unset(out_features)}

    def init(self, rng):
        self.params["w"] = _glorot(
            rng, (self.in_features, self.out_features), self.in_features, self.out_features
        )
        self.params["b"] = np.zeros(self.out_features)

    def output_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise ShapeError(f"dense expects ({self.in_features},), got {in_shape}")
        return (self.out_features,)

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"dense expects (B, {self.in_features}), got {x.shape}")
        self._cache = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dout, need_dx=True):
        x = self._cache
        self.grads = {"w": x.T @ dout, "b": dout.sum(axis=0)}
        return dout @ self.params["w"].T if need_dx else None

    def config(self):
        return {"in_features": self.in_features, "out_features": self.out_features}


class ReLU(Layer):
    kind = "relu"

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout, need_dx=True):
        return np.where(self._mask, dout, 0.0)


class Dropout(Layer):
    """Inverted dropout: survivors scaled by 1/(1-ratio), eval is identity."""

    kind = "dropout"

    def __init__(self, ratio: float = 0.5):
        super().__init__()
        if not (0 <= ratio < 1):
            raise ValidationError(f"dropout ratio must be in [0, 1), got {ratio}")
        self.ratio = ratio
        self.rng: np.random.Generator | None = None

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False):
        if not train or self.ratio == 0.0:
            self._mask = None
            return x
        if self.rng is None:
            raise ValidationError("dropout used in train mode without an RNG")
        mask = self.rng.random(x.shape) >= self.ratio
        self._mask = mask
        return x * mask / (1.0 - self.ratio)

    def backward(self, dout, need_dx=True):
        if self._mask is None:
            return dout
        return dout * self._mask / (1.0 - self.ratio)

    def config(self):
        return {"ratio": self.ratio}


class Softmax(Layer):
    kind = "softmax"

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False):
        out = softmax(x)
        self._out = out
        return out

    def backward(self, dout, need_dx=True):
        s = self._out
        return s * (dout - (dout * s).sum(axis=-1, keepdims=True))


LAYER_KINDS: dict[str, type[Layer]] = {
    cls.kind: cls
    for cls in (
        Conv2d, Conv1d, AvgPool1d, AvgPool2d, MaxPool2d,
        Flatten, Dense, ReLU, Dropout, Softmax,
    )
}
