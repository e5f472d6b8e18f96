"""Minimal deterministic neural-network engine (float64, numpy only)."""

from .layers import (  # noqa: F401
    AvgPool1d,
    AvgPool2d,
    Conv1d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2d,
    ReLU,
    Softmax,
    softmax,
)
from .network import MultiBranchNetwork, Network, cross_entropy  # noqa: F401
from .optim import AdamState, adam_step  # noqa: F401
from .serialize import load_bundle, save_bundle  # noqa: F401
