"""Shared fixtures and numeric-check helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def rel_err(a, b, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def numeric_grad(f, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() with respect to arr in place."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + h
        fp = f()
        arr[idx] = old - h
        fm = f()
        arr[idx] = old
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def numeric_grad_sampled(f, arr: np.ndarray, rng: np.random.Generator,
                         n_coords: int = 4, h: float = 1e-5):
    """Central differences at a few random coordinates; returns (coords, grads)."""
    flat = arr.reshape(-1)
    coords = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
    grads = []
    for c in coords:
        old = flat[c]
        flat[c] = old + h
        fp = f()
        flat[c] = old - h
        fm = f()
        flat[c] = old
        grads.append((fp - fm) / (2.0 * h))
    return coords, np.array(grads)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
