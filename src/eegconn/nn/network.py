"""Layer stacks with shape validation, loss, and end-to-end backprop."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, ValidationError
from ..seeding import derive_rng
from .layers import Dropout, Layer, Softmax

PROB_CLAMP = 1e-12


def cross_entropy(probs: np.ndarray, bits: np.ndarray | int) -> float:
    """Binary cross-entropy -(b log p + (1-b) log(1-p)) on probability pairs.

    ``probs`` is (..., 2) with p = probability of class 1; ``bits`` holds
    0/1 class indicators.  Probabilities are clamped to
    [1e-12, 1 - 1e-12] before the logarithm; batches are averaged.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape[-1] != 2:
        raise ShapeError(f"expected probability pairs, got trailing dim {probs.shape[-1]}")
    b = np.asarray(bits, dtype=float)
    p = np.clip(probs[..., 1], PROB_CLAMP, 1.0 - PROB_CLAMP)
    losses = -(b * np.log(p) + (1.0 - b) * np.log(1.0 - p))
    return float(np.mean(losses))


def onehot(bits: np.ndarray, classes: int = 2) -> np.ndarray:
    b = np.asarray(bits, dtype=int)
    out = np.zeros((b.size, classes))
    out[np.arange(b.size), b] = 1.0
    return out


class _LayerStack:
    """Parameter plumbing shared by both network shapes.

    A subclass names its layers through ``_all_layers`` (key prefix, layer)
    and its seeded random streams through ``_streams`` (layer, weight-draw
    labels, dropout labels).
    """

    def initialize(self, rng_seed: int | None = None):
        """Draw fresh parameters and wire per-layer dropout streams."""
        if rng_seed is not None:
            self.seed = int(rng_seed)
        for layer, init_labels, _ in self._streams():
            layer.init(derive_rng(self.seed, self.name, *init_labels))
        return self.wire_dropout()

    def predict(self, x):
        """Class bits and probability rows in one forward pass."""
        probs = self.predict_proba(x)
        return probs.argmax(axis=1), probs

    def wire_dropout(self):
        """Give every dropout layer its seeded mask stream; parameters stay as they are."""
        for layer, _, dropout_labels in self._streams():
            if isinstance(layer, Dropout):
                layer.rng = derive_rng(self.seed, self.name, *dropout_labels)
        return self

    def _check_grads_finite(self):
        for prefix, layer in self._all_layers():
            for name, g in layer.grads.items():
                if not np.isfinite(g).all():
                    raise FloatingPointError(
                        f"{self.name}: non-finite gradient in layer {prefix} ({layer.kind}).{name}"
                    )

    # -- parameter access ---------------------------------------------------

    def param_dict(self) -> dict[str, np.ndarray]:
        return {
            f"{prefix}.{name}": arr
            for prefix, layer in self._all_layers()
            for name, arr in layer.params.items()
        }

    def grad_dict(self) -> dict[str, np.ndarray]:
        return {
            f"{prefix}.{name}": arr
            for prefix, layer in self._all_layers()
            for name, arr in layer.grads.items()
        }

    def get_state(self) -> dict[str, np.ndarray]:
        return {key: arr.copy() for key, arr in self.param_dict().items()}

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the parameter arrays; keys and shapes must match."""
        self._bind_state(state, copy=True)

    def _bind_state(self, state: dict[str, np.ndarray], copy: bool) -> None:
        """Check every key and shape of ``state`` first, then copy the arrays in,
        or with ``copy=False`` make them the layers' parameter arrays."""
        slots = [
            (f"{prefix}.{name}", layer, name)
            for prefix, layer in self._all_layers()
            for name in layer.params
        ]
        if {key for key, _, _ in slots} != set(state):
            raise ValidationError(f"{self.name}: parameter state does not match the architecture")
        for key, layer, name in slots:
            want, got = layer.params[name].shape, np.shape(state[key])
            if got != want:
                raise ShapeError(f"{self.name}: state shape mismatch for {key}: {got} != {want}")
        for key, layer, name in slots:
            if copy:
                layer.params[name][...] = state[key]
            else:
                layer.params[name] = state[key]


class Network(_LayerStack):
    """A sequential stack ending in a softmax over two classes."""

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...],
                 seed: int = 0, name: str = "net"):
        self.layers = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.seed = int(seed)
        self.name = name
        self.output_shape = self._validate_shapes()

    def _validate_shapes(self) -> tuple[int, ...]:
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.output_shape(shape)
            except ShapeError as exc:
                raise ShapeError(f"{self.name}: layer {i} ({layer.kind}): {exc}") from None
        return shape

    def _all_layers(self):
        for i, layer in enumerate(self.layers):
            yield str(i), layer

    def _streams(self):
        for i, layer in enumerate(self.layers):
            yield layer, ("init", i), ("dropout", i)

    def forward(self, x: np.ndarray, train: bool = False,
                record: list | None = None) -> np.ndarray:
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"{self.name}: input shape {x.shape[1:]} != expected {self.input_shape}"
            )
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x, train=train)
            except (ShapeError, FloatingPointError) as exc:
                raise ShapeError(f"{self.name}: layer {i} ({layer.kind}): {exc}") from None
            if record is not None:
                record.append(x)
        return x

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, train=False)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Full reverse sweep from d(loss)/d(probabilities)."""
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def loss_and_grads(self, x: np.ndarray, bits: np.ndarray,
                       train: bool = True) -> tuple[float, np.ndarray]:
        """Forward, cross-entropy, and backprop of every parameter gradient.

        The softmax/cross-entropy pair is differentiated jointly as
        (p - onehot)/B, which stays finite even for saturated outputs.
        """
        if not isinstance(self.layers[-1], Softmax):
            raise ValidationError("loss_and_grads requires a softmax output layer")
        probs = self.forward(x, train=train)
        loss = cross_entropy(probs, bits)
        dlogits = (probs - onehot(bits)) / probs.shape[0]
        d = dlogits
        for layer in reversed(self.layers[:-1]):
            d = layer.backward(d)
        self._check_grads_finite()
        return loss, probs

    def descriptor(self) -> dict:
        return {
            "type": "network",
            "name": self.name,
            "seed": self.seed,
            "input_shape": list(self.input_shape),
            "layers": [{"kind": ly.kind, **ly.config()} for ly in self.layers],
        }


class MultiBranchNetwork(_LayerStack):
    """Parallel per-domain stacks concatenated into a shared trunk.

    Each branch consumes its own input and must end flat (rank-1 output);
    the trunk runs on the concatenation.  Used for feature-level fusion.
    """

    def __init__(self, branches: list[list[Layer]], trunk: list[Layer],
                 input_shapes: list[tuple[int, ...]], seed: int = 0,
                 name: str = "fusion"):
        if len(branches) != len(input_shapes):
            raise ShapeError(
                f"{len(branches)} branches but {len(input_shapes)} input shapes"
            )
        self.branches = [list(b) for b in branches]
        self.trunk = list(trunk)
        self.input_shapes = [tuple(int(s) for s in sh) for sh in input_shapes]
        self.seed = int(seed)
        self.name = name
        self._branch_widths: list[int] = []
        self.output_shape = self._validate_shapes()

    def _validate_shapes(self):
        widths = []
        for bi, (layers, shape) in enumerate(zip(self.branches, self.input_shapes)):
            for i, layer in enumerate(layers):
                try:
                    shape = layer.output_shape(shape)
                except ShapeError as exc:
                    raise ShapeError(
                        f"{self.name}: branch {bi} layer {i} ({layer.kind}): {exc}"
                    ) from None
            if len(shape) != 1:
                raise ShapeError(
                    f"{self.name}: branch {bi} must end flat, got shape {shape}"
                )
            widths.append(shape[0])
        self._branch_widths = widths
        shape = (sum(widths),)
        for i, layer in enumerate(self.trunk):
            try:
                shape = layer.output_shape(shape)
            except ShapeError as exc:
                raise ShapeError(f"{self.name}: trunk layer {i} ({layer.kind}): {exc}") from None
        return shape

    @property
    def concat_width(self) -> int:
        return int(sum(self._branch_widths))

    def forward(self, xs: list[np.ndarray], train: bool = False) -> np.ndarray:
        if len(xs) != len(self.branches):
            raise ShapeError(f"expected {len(self.branches)} inputs, got {len(xs)}")
        outs = []
        for bi, (layers, x) in enumerate(zip(self.branches, xs)):
            if tuple(x.shape[1:]) != self.input_shapes[bi]:
                raise ShapeError(
                    f"{self.name}: branch {bi} input {x.shape[1:]} != {self.input_shapes[bi]}"
                )
            for layer in layers:
                x = layer.forward(x, train=train)
            outs.append(x)
        z = np.concatenate(outs, axis=1)
        for layer in self.trunk:
            z = layer.forward(z, train=train)
        return z

    def predict_proba(self, xs: list[np.ndarray]) -> np.ndarray:
        return self.forward(xs, train=False)

    def loss_and_grads(self, xs: list[np.ndarray], bits: np.ndarray,
                       train: bool = True) -> tuple[float, np.ndarray]:
        if not isinstance(self.trunk[-1], Softmax):
            raise ValidationError("loss_and_grads requires a softmax output layer")
        probs = self.forward(xs, train=train)
        loss = cross_entropy(probs, bits)
        d = (probs - onehot(bits)) / probs.shape[0]
        for layer in reversed(self.trunk[:-1]):
            d = layer.backward(d)
        offsets = np.cumsum([0] + self._branch_widths)
        for bi, layers in enumerate(self.branches):
            db = d[:, offsets[bi] : offsets[bi + 1]]
            for layer in reversed(layers):
                db = layer.backward(db)
        self._check_grads_finite()
        return loss, probs

    def _all_layers(self):
        for bi, layers in enumerate(self.branches):
            for i, layer in enumerate(layers):
                yield f"b{bi}.{i}", layer
        for i, layer in enumerate(self.trunk):
            yield f"t.{i}", layer

    def _streams(self):
        for bi, layers in enumerate(self.branches):
            for i, layer in enumerate(layers):
                yield layer, ("branch", bi, i), ("branch-dropout", bi, i)
        for i, layer in enumerate(self.trunk):
            yield layer, ("trunk", i), ("trunk-dropout", i)

    def descriptor(self) -> dict:
        return {
            "type": "multibranch",
            "name": self.name,
            "seed": self.seed,
            "input_shapes": [list(sh) for sh in self.input_shapes],
            "branches": [
                [{"kind": ly.kind, **ly.config()} for ly in layers]
                for layers in self.branches
            ],
            "trunk": [{"kind": ly.kind, **ly.config()} for ly in self.trunk],
        }
