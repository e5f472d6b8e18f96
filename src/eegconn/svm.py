"""Linear SVM trained by deterministic subgradient descent.

Baseline classifier: hinge loss with L2 regularization, full-batch
subgradient steps with a 1/sqrt(t) step size, features standardized by
training-set statistics.  Labels are encoded -1/+1 with +1 for class
index 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class LinearSvm:
    weights: np.ndarray
    bias: float
    feat_mean: np.ndarray
    feat_scale: np.ndarray

    def decision(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = (x - self.feat_mean) / self.feat_scale
        return z @ self.weights + self.bias

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class bits and (1 - p, p) rows, p the logistic of the decision score;
        a zero score maps to class 0."""
        scores = self.decision(x)
        pos = 1.0 / (1.0 + np.exp(-scores))
        return (scores > 0).astype(int), np.stack([1 - pos, pos], axis=1)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {
            "weights": self.weights,
            "bias": np.array([self.bias]),
            "feat_mean": self.feat_mean,
            "feat_scale": self.feat_scale,
        }

    @classmethod
    def from_param_arrays(cls, arrays: dict[str, np.ndarray]) -> "LinearSvm":
        return cls(
            weights=np.asarray(arrays["weights"], dtype=float),
            bias=float(np.asarray(arrays["bias"]).ravel()[0]),
            feat_mean=np.asarray(arrays["feat_mean"], dtype=float),
            feat_scale=np.asarray(arrays["feat_scale"], dtype=float),
        )


def train_svm(
    features: np.ndarray,
    bits: np.ndarray,
    l2: float = 1e-3,
    learning_rate: float = 0.1,
    steps: int = 2000,
) -> LinearSvm:
    """Fit the hinge-loss linear classifier.

    minimize  mean_i max(0, 1 - y_i (w.z_i + b)) + (l2 / 2) ||w||^2

    over standardized features z.  Deterministic: full-batch subgradients,
    step size learning_rate / sqrt(t).
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got shape {x.shape}")
    b = np.asarray(bits, dtype=int)
    if set(np.unique(b)) - {0, 1}:
        raise ValidationError("class bits must be 0/1")
    if np.unique(b).size < 2:
        raise ValidationError("training set must contain both classes")
    y = 2.0 * b - 1.0

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale == 0, 1.0, scale)
    z = (x - mean) / scale

    w = np.zeros(z.shape[1])
    bias = 0.0
    n = z.shape[0]
    for t in range(1, steps + 1):
        scores = z @ w + bias
        violating = (y * scores) < 1.0
        gw = l2 * w - (y[violating] @ z[violating]) / n
        gb = -float(y[violating].sum()) / n
        lr = learning_rate / np.sqrt(t)
        w -= lr * gw
        bias -= lr * gb
    return LinearSvm(weights=w, bias=bias, feat_mean=mean, feat_scale=scale)
