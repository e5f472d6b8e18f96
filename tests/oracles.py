"""Test oracles and model generators that the program itself does not need."""

from __future__ import annotations

import numpy as np

from eegconn.spectral import _transfer
from eegconn.var_model import VarModel, companion_spectral_radius


def random_stable_var(
    n: int,
    order: int,
    rng: np.random.Generator,
    target_radius: float = 0.9,
    rate: float = 128.0,
) -> VarModel:
    """Draw random coefficients and shrink them until the model is stable."""
    coeffs = rng.normal(scale=0.5, size=(order, n, n))
    radius = companion_spectral_radius(coeffs)
    while radius >= target_radius:
        coeffs *= 0.8 * target_radius / radius
        radius = companion_spectral_radius(coeffs)
    return VarModel(coeffs=coeffs, noise_cov=np.eye(n), rate=rate)


def stacked(model: VarModel) -> np.ndarray:
    """Coefficients as the (N*L, N) regression matrix beta.

    Row block l (size N) holds A(l) transposed, matching the design built by
    ``var_model.build_design``.
    """
    lags, n, _ = model.coeffs.shape
    return model.coeffs.transpose(0, 2, 1).reshape(lags * n, n)


def transfer_at(model: VarModel, freq: float) -> np.ndarray:
    """The complex N x N transfer matrix I - sum_l A(l) exp(-i 2 pi l f / fs)
    at one frequency, by the same finite sum the PDC uses."""
    return _transfer(model, np.array([float(freq)]))[0]


class FrozenDraws:
    """Stands in for a dropout layer's Generator: every draw returns the same
    array, so the mask stays fixed across the many passes of a gradient check."""

    def __init__(self, draws: np.ndarray):
        self.draws = draws

    def random(self, shape) -> np.ndarray:
        assert tuple(shape) == self.draws.shape
        return self.draws
