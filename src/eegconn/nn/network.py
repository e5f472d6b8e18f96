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


def _table(layers: list[Layer]) -> list[dict]:
    return [{"kind": ly.kind, **ly.config()} for ly in layers]


def _backprop(layers: list[Layer], d: np.ndarray, reads_input: bool):
    """Backpropagate ``d`` through ``layers``; the input gradient, or None when
    the stack reads a network input and its first layer may skip it."""
    for i in range(len(layers) - 1, -1, -1):
        d = layers[i].backward(d, need_dx=i > 0 or not reads_input)
    return d


class Network:
    """A layer stack ending in a softmax over two classes, optionally fed by branches.

    Without branches the layers read the single input array.  With branches
    (feature-level fusion) each branch reads its own input array and must end
    flat, and the layers read the concatenation of the branch outputs.
    ``input_shape`` is always the shape the layers read: pass it for a net
    without branches; with branches it is the concatenated width.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...] | None = None,
                 seed: int = 0, name: str = "net", branches: list[list[Layer]] = (),
                 input_shapes: list[tuple[int, ...]] = ()):
        if len(branches) != len(input_shapes):
            raise ShapeError(f"{len(branches)} branches but {len(input_shapes)} input shapes")
        if bool(branches) == (input_shape is not None):
            raise ValidationError(f"{name}: give an input shape or branches, not both or neither")
        self.layers = list(layers)
        self.branches = [list(b) for b in branches]
        self.input_shapes = [tuple(int(s) for s in sh) for sh in input_shapes]
        self.seed = int(seed)
        self.name = name
        self._widths = []
        for bi, (stack, shape) in enumerate(zip(self.branches, self.input_shapes)):
            shape = self._shape_after(stack, shape, f"branch {bi} ")
            if len(shape) != 1:
                raise ShapeError(f"{name}: branch {bi} must end flat, got shape {shape}")
            self._widths.append(shape[0])
        if self.branches:
            input_shape = (sum(self._widths),)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.output_shape = self._shape_after(self.layers, self.input_shape, "")

    def _shape_after(self, layers, shape, where: str) -> tuple[int, ...]:
        for i, layer in enumerate(layers):
            try:
                shape = layer.output_shape(shape)
            except ShapeError as exc:
                raise ShapeError(f"{self.name}: {where}layer {i} ({layer.kind}): {exc}") from None
        return shape

    def _layers(self):
        """Every layer with its parameter-key prefix, weight-draw labels and
        dropout labels.  Prefixes and labels are part of the model-file format
        and of every seed, so they must not change."""
        if not self.branches:
            for i, layer in enumerate(self.layers):
                yield str(i), layer, ("init", i), ("dropout", i)
            return
        for bi, stack in enumerate(self.branches):
            for i, layer in enumerate(stack):
                yield f"b{bi}.{i}", layer, ("branch", bi, i), ("branch-dropout", bi, i)
        for i, layer in enumerate(self.layers):
            yield f"t.{i}", layer, ("trunk", i), ("trunk-dropout", i)

    def initialize(self):
        """Draw fresh parameters and wire per-layer dropout streams."""
        for _, layer, init_labels, _ in self._layers():
            layer.init(derive_rng(self.seed, self.name, *init_labels))
        return self.wire_dropout()

    def wire_dropout(self):
        """Give every dropout layer its seeded mask stream; parameters stay as they are."""
        for _, layer, _, dropout_labels in self._layers():
            if isinstance(layer, Dropout):
                layer.rng = derive_rng(self.seed, self.name, *dropout_labels)
        return self

    # -- forward and backward -----------------------------------------------

    def _run(self, layers, x, shape, where: str, train: bool, record: list | None):
        if tuple(x.shape[1:]) != shape:
            raise ShapeError(f"{self.name}: {where}input shape {x.shape[1:]} != expected {shape}")
        for i, layer in enumerate(layers):
            try:
                x = layer.forward(x, train=train)
            except (ShapeError, FloatingPointError) as exc:
                raise ShapeError(f"{self.name}: {where}layer {i} ({layer.kind}): {exc}") from None
            if record is not None:
                record.append(x)
        return x

    def forward(self, x, train: bool = False, record: list | None = None) -> np.ndarray:
        """Class probabilities for a batch: one array, or a list with one per branch.

        ``record`` collects every layer's output in order, branches first.
        """
        if self.branches:
            if len(x) != len(self.branches):
                raise ShapeError(f"{self.name}: expected {len(self.branches)} inputs, got {len(x)}")
            x = np.concatenate([
                self._run(stack, xb, shape, f"branch {bi} ", train, record)
                for bi, (stack, shape, xb) in enumerate(zip(self.branches, self.input_shapes, x))
            ], axis=1)
        return self._run(self.layers, x, self.input_shape, "", train, record)

    def predict_proba(self, x) -> np.ndarray:
        return self.forward(x, train=False)

    def predict(self, x):
        """Class bits and probability rows in one forward pass."""
        probs = self.predict_proba(x)
        return probs.argmax(axis=1), probs

    def loss_and_grads(self, x, bits: np.ndarray, train: bool = True) -> tuple[float, np.ndarray]:
        """Forward, cross-entropy, and backprop of every parameter gradient.

        The softmax/cross-entropy pair is differentiated jointly as
        (p - onehot)/B, which stays finite even for saturated outputs.  The
        first layer of a stack that reads a network input (the layers without
        branches, or each branch) computes no input gradient.
        """
        if not isinstance(self.layers[-1], Softmax):
            raise ValidationError("loss_and_grads requires a softmax output layer")
        probs = self.forward(x, train=train)
        loss = cross_entropy(probs, bits)
        d = (probs - onehot(bits)) / probs.shape[0]
        d = _backprop(self.layers[:-1], d, reads_input=not self.branches)
        offsets = np.cumsum([0] + self._widths)
        for bi, stack in enumerate(self.branches):
            _backprop(stack, d[:, offsets[bi] : offsets[bi + 1]], reads_input=True)
        for prefix, layer, _, _ in self._layers():
            for name, g in layer.grads.items():
                if not np.isfinite(g).all():
                    raise FloatingPointError(
                        f"{self.name}: non-finite gradient in layer {prefix} ({layer.kind}).{name}"
                    )
        return loss, probs

    # -- parameter access ---------------------------------------------------

    def _keyed(self, attr: str) -> dict[str, np.ndarray]:
        return {
            f"{prefix}.{name}": arr
            for prefix, layer, _, _ in self._layers()
            for name, arr in getattr(layer, attr).items()
        }

    def param_dict(self) -> dict[str, np.ndarray]:
        return self._keyed("params")

    def grad_dict(self) -> dict[str, np.ndarray]:
        return self._keyed("grads")

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
            for prefix, layer, _, _ in self._layers()
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

    def descriptor(self) -> dict:
        """The architecture as a model-file entry: type "network" without
        branches, "multibranch" with them."""
        if not self.branches:
            return {
                "type": "network",
                "name": self.name,
                "seed": self.seed,
                "input_shape": list(self.input_shape),
                "layers": _table(self.layers),
            }
        return {
            "type": "multibranch",
            "name": self.name,
            "seed": self.seed,
            "input_shapes": [list(sh) for sh in self.input_shapes],
            "branches": [_table(stack) for stack in self.branches],
            "trunk": _table(self.layers),
        }


class MultiBranchNetwork(Network):
    """A Network with branches, built from (branches, trunk, input_shapes);
    the trunk becomes ``layers``.  Used for feature-level fusion."""

    def __init__(self, branches: list[list[Layer]], trunk: list[Layer],
                 input_shapes: list[tuple[int, ...]], seed: int = 0, name: str = "fusion"):
        super().__init__(trunk, seed=seed, name=name, branches=branches,
                         input_shapes=input_shapes)
