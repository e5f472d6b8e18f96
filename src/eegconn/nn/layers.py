"""Layer implementations with exact reverse-mode gradients.

Conventions: batched float64 arrays, channels last.  2-D feature maps are
(batch, height, width, channels); 1-D ones are (batch, length, channels).
Convolution is cross-correlation (no kernel flip), the usual deep-learning
convention.  The 1-D layers run on the 2-D convolution and pooling code with
a width-1 second axis, so each operation has one body.  A forward pass
with ``need_backward=True`` (the default) keeps what its backward pass needs,
and a backward call is only valid right after such a forward.  With
``need_backward=False``, as every prediction runs, a layer keeps nothing and
drops what an earlier forward kept, so a loaded net holds no activations.

A layer's parameters are read-only zero placeholders of the right shapes
until ``init`` draws them or a model file binds them, so an in-place update
of a layer that was never initialized raises instead of training from zeros.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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

    def forward(self, x: np.ndarray, train: bool = False,
                need_backward: bool = True) -> np.ndarray:
        """The layer's output; with ``need_backward=False`` no backward may
        follow, and the layer keeps no state for one."""
        raise NotImplementedError

    def backward(self, dout: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Gradient w.r.t. the input; fills ``grads`` for layers with parameters.

        With ``need_dx=False`` (the layer reads a network input) a layer with
        parameters may skip the input gradient and return None.
        """
        raise NotImplementedError

    def _kept(self, name: str = "_cache"):
        """The state that the last forward kept under ``name`` for backward."""
        state = getattr(self, name, None)
        if state is None:
            raise ValidationError(f"{self.kind}: backward needs a forward that kept its inputs")
        return state

    def output_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def config(self) -> dict:
        return {}


# -- convolution and pooling -------------------------------------------------
#
# The 1-D kinds run on the 2-D code: ``_wide`` inserts the width-1 second
# axis into inputs and weights and ``_narrow`` drops it from results.  Every
# convolution has stride 1.  A layer whose im2col matrix is no wider than its
# output (taps x in_channels <= filters, such as a first layer on a few input
# channels) runs its forward pass and its weight gradient as one matmul each
# over that matrix.  Every other layer runs one matmul per kernel offset on
# shifted views of the padded input, where a single im2col matmul measured
# slower; the input gradient always runs per offset.


def _thin(w) -> bool:
    """Whether kernel ``w``'s im2col matrix is no wider than its output."""
    kh, kw, c, r = w.shape
    return kh * kw * c <= r


def _columns(xp, kh, kw):
    """The (B*Ho*Wo, kh*kw*C) im2col matrix of a padded input, rows ordered
    as ``w.reshape(-1, filters)``."""
    b, hp, wp, c = xp.shape
    s0, s1, s2, s3 = xp.strides
    windows = as_strided(xp, (b, hp - kh + 1, wp - kw + 1, kh, kw, c),
                         (s0, s1, s2, s1, s2, s3), writeable=False)
    return windows.reshape(-1, kh * kw * c)


def _conv_forward(x, w, bias, pad):
    kh, kw, c, r = w.shape
    ph, pw = pad
    b, h, wd, _ = x.shape
    xp = np.zeros((b, h + 2 * ph, wd + 2 * pw, c))
    xp[:, ph : ph + h, pw : pw + wd] = x
    ho = h + 2 * ph - kh + 1
    wo = wd + 2 * pw - kw + 1
    if _thin(w):
        out = _columns(xp, kh, kw) @ w.reshape(-1, r)
        out += bias
        return out.reshape(b, ho, wo, r), xp
    out = np.empty((b, ho, wo, r))
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
    if _thin(w):
        dw = (_columns(xp, kh, kw).T @ dflat).reshape(w.shape)
    else:
        dw = np.empty_like(w)
        for u in range(kh):
            for v in range(kw):
                xs = np.ascontiguousarray(xp[:, u : u + ho, v : v + wo, :]).reshape(-1, c)
                dw[u, v] = xs.T @ dflat
    if not need_dx:
        return None, dw, db
    dxp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            dxp[:, u : u + ho, v : v + wo, :] += (dflat @ w[u, v].T).reshape(b, ho, wo, c)
    return dxp[:, ph : ph + h, pw : pw + wd], dw, db


class _Spatial(Layer):
    """A layer over maps with ``spatial`` axes, named ``axes`` in messages."""

    spatial = 2
    axes = "H, W"

    def _pair(self, n: int, width: int) -> tuple[int, int]:
        """``n`` for both axes of the 2-D code; ``width`` for the width-1 axis of a 1-D layer."""
        return (n, n if self.spatial == 2 else width)

    # Plain indexing: np.expand_dims costs several times as much per call,
    # which shows in forward passes at batch size 1.
    def _wide(self, a: np.ndarray, axis: int) -> np.ndarray:
        """``a`` with a width-1 axis at ``axis`` if the layer is 1-D."""
        return a if self.spatial == 2 else a[(slice(None),) * axis + (None,)]

    def _narrow(self, a: np.ndarray, axis: int) -> np.ndarray:
        """``a`` without the width-1 axis at ``axis`` if the layer is 1-D."""
        return a if self.spatial == 2 else a[(slice(None),) * axis + (0,)]

    def _check(self, shape, channels: int | None = None) -> None:
        """Raise ShapeError unless ``shape`` is one map, with ``channels`` channels if given."""
        if len(shape) != self.spatial + 1 or channels not in (None, shape[-1]):
            raise ShapeError(f"{self.kind} expects ({self.axes}, "
                             f"{'C' if channels is None else channels}) per sample, got {shape}")


class _Conv(_Spatial):
    """Stride-1 convolution over (B, H, W, C) maps or (B, L, C) sequences,
    optional shape-preserving zero padding."""

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

    def output_shape(self, in_shape):
        self._check(in_shape, self.in_channels)
        out = tuple(n + 2 * self.pad - self.kernel + 1 for n in in_shape[:-1])
        if min(out) < 1:
            raise ShapeError(f"{self.kind} output collapses on input {in_shape}")
        return (*out, self.filters)

    def forward(self, x, train=False, need_backward=True):
        self._check(x.shape[1:], self.in_channels)
        out, xp = _conv_forward(self._wide(x, 2), self._wide(self.params["w"], 1),
                                self.params["b"], self._pair(self.pad, 0))
        self._cache = xp if need_backward else None
        return self._narrow(out, 2)

    def backward(self, dout, need_dx=True):
        dx, dw, db = _conv_backward(self._wide(dout, 2), self._kept(),
                                    self._wide(self.params["w"], 1), self._pair(self.pad, 0),
                                    need_dx)
        self.grads = {"w": self._narrow(dw, 1), "b": db}
        return self._narrow(dx, 2) if need_dx else None


class Conv2d(_Conv):
    kind = "conv2d"


class Conv1d(_Conv):
    kind = "conv1d"
    spatial = 1
    axes = "L"


class AvgPool1d(_Spatial):
    """Average pooling over ``size``-wide windows every ``stride`` steps along
    the sequence, on the 2-D window code with a width-1 second axis."""

    kind = "avgpool1d"
    spatial = 1
    axes = "L"

    def __init__(self, size: int = 2, stride: int | None = None):
        super().__init__()
        self.size = size
        self.stride = stride if stride is not None else size

    def config(self):
        return {"size": self.size, "stride": self.stride}

    def output_shape(self, in_shape):
        self._check(in_shape)
        if min(in_shape[:-1]) < self.size:
            raise ShapeError(f"pool window {self.size} exceeds input {in_shape}")
        return (*((n - self.size) // self.stride + 1 for n in in_shape[:-1]), in_shape[-1])

    def _windows(self, x):
        """(B, Lo, 1, C, size, 1) windows of the input on the 2-D code."""
        v = sliding_window_view(self._wide(x, 2), self._pair(self.size, 1), axis=(1, 2))
        sy, sx = self._pair(self.stride, 1)
        return v[:, ::sy, ::sx]

    def forward(self, x, train=False, need_backward=True):
        v = self._windows(x)
        self._cache = (x.shape, v.shape[1], v.shape[2]) if need_backward else None
        return self._narrow(v.mean(axis=(-2, -1)), 2)

    def backward(self, dout, need_dx=True):
        x_shape, ho, wo = self._kept()
        dx = np.zeros(x_shape)
        dx2, share = self._wide(dx, 2), self._wide(dout, 2) / self.size ** self.spatial
        (ky, kx), (sy, sx) = self._pair(self.size, 1), self._pair(self.stride, 1)
        for oy in range(ky):
            iy = oy + sy * np.arange(ho)
            for ox in range(kx):
                ix = ox + sx * np.arange(wo)
                dx2[:, iy[:, None], ix[None, :], :] += share
        return dx


class Flatten(Layer):
    kind = "flatten"

    def output_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, train=False, need_backward=True):
        self._cache = x.shape if need_backward else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout, need_dx=True):
        return dout.reshape(self._kept())


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

    def forward(self, x, train=False, need_backward=True):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"dense expects (B, {self.in_features}), got {x.shape}")
        self._cache = x if need_backward else None
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dout, need_dx=True):
        x = self._kept()
        self.grads = {"w": x.T @ dout, "b": dout.sum(axis=0)}
        return dout @ self.params["w"].T if need_dx else None

    def config(self):
        return {"in_features": self.in_features, "out_features": self.out_features}


class ReLU(Layer):
    kind = "relu"

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False, need_backward=True):
        # fmax, unlike maximum, maps NaN to +0.0 as np.where(x > 0, x, 0.0) does
        self._mask = x > 0 if need_backward else None
        return np.fmax(x, 0.0)

    def backward(self, dout, need_dx=True):
        return dout * self._kept("_mask")


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

    def forward(self, x, train=False, need_backward=True):
        mask, out = None, x
        if train and self.ratio > 0.0:
            if self.rng is None:
                raise ValidationError("dropout used in train mode without an RNG")
            mask = self.rng.random(x.shape) >= self.ratio
            out = x * mask / (1.0 - self.ratio)
        self._cache = (mask,) if need_backward else None  # a None mask: identity
        return out

    def backward(self, dout, need_dx=True):
        (mask,) = self._kept()
        return dout if mask is None else dout * mask / (1.0 - self.ratio)

    def config(self):
        return {"ratio": self.ratio}


class Softmax(Layer):
    kind = "softmax"

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False, need_backward=True):
        out = softmax(x)
        self._cache = out if need_backward else None
        return out

    def backward(self, dout, need_dx=True):
        s = self._kept()
        return s * (dout - (dout * s).sum(axis=-1, keepdims=True))


LAYER_KINDS: dict[str, type[Layer]] = {
    cls.kind: cls
    for cls in (
        Conv2d, Conv1d, AvgPool1d, Flatten, Dense, ReLU, Dropout, Softmax,
    )
}
