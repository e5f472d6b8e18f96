"""Vector autoregression by least squares, with BIC order selection.

A VAR(L) model writes each channel at time t as a linear combination of
all channels' previous L samples plus white noise:

    y_t = sum_{l=1..L} A(l) y_{t-l} + e_t,      e_t ~ N(0, Sigma)

Entry ``A(l)[i, j]`` is the lag-l influence of channel j on channel i and
is the time-domain connectivity feature used downstream.  Estimation is
plain multivariate least squares on the stacked lag design; the noise
covariance uses divisor T - L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eeg_io import EegRecording
from .errors import ShapeError, SingularDesignError, ValidationError

# cond(X'X) above this is treated as rank deficient
MAX_DESIGN_CONDITION = 1e12

SYM_TOL = 1e-10
PSD_TOL = -1e-8


@dataclass(frozen=True)
class VarModel:
    """Fitted VAR(L): lag coefficient matrices plus noise covariance.

    ``coeffs`` has shape (L, N, N); ``coeffs[l - 1][i, j]`` multiplies
    ``y[j, t - l]`` in the prediction of ``y[i, t]``.  ``rate`` is carried
    from the recording so spectral quantities know the Nyquist range.
    """

    coeffs: np.ndarray
    noise_cov: np.ndarray
    rate: float

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        cov = np.asarray(self.noise_cov, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise ShapeError(f"coeffs must be (L, N, N), got {coeffs.shape}")
        n = coeffs.shape[1]
        if cov.shape != (n, n):
            raise ShapeError(f"noise_cov must be ({n}, {n}), got {cov.shape}")
        if not np.isfinite(coeffs).all():
            raise ValidationError("non-finite VAR coefficient")
        if not np.isfinite(cov).all():
            raise ValidationError("non-finite noise covariance entry")
        if np.abs(cov - cov.T).max() > SYM_TOL:
            raise ValidationError("noise covariance is not symmetric")
        if n and np.linalg.eigvalsh(cov).min() < PSD_TOL:
            raise ValidationError("noise covariance is not positive semidefinite")
        if not (self.rate > 0):
            raise ValidationError(f"sampling rate must be positive, got {self.rate}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "noise_cov", cov)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0]

    @property
    def channels(self) -> int:
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class RegressionDesign:
    """Lagged design for the multivariate regression Y = X beta + E.

    Row t of ``x`` is [y'_{t-1}, y'_{t-2}, ..., y'_{t-L}] (lag 1 first);
    the matching response row is y'_t.
    """

    x: np.ndarray
    y: np.ndarray


def build_design(rec: EegRecording, order: int) -> RegressionDesign:
    """Stack lagged samples into the (T-L) x (N*L) design matrix."""
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    t, n = rec.data.shape
    if t < order + 1:
        raise ValidationError(
            f"need at least T = {order + 1} samples to build a lag-{order} design, got T = {t}"
        )
    rows = t - order
    x = np.empty((rows, n * order))
    for lag in range(1, order + 1):
        x[:, (lag - 1) * n : lag * n] = rec.data[order - lag : t - lag]
    y = rec.data[order:]
    return RegressionDesign(x=x, y=y)


def fit_var(rec: EegRecording, order: int) -> VarModel:
    """Least-squares fit of a VAR(``order``) model.

    Solved through an SVD-backed solver rather than forming (X'X)^-1
    explicitly; a design with cond(X'X) > 1e12 raises
    :class:`SingularDesignError`.
    """
    t, n = rec.data.shape
    min_t = n * order + 2
    if t < min_t:
        raise ValidationError(
            f"insufficient samples: fitting VAR({order}) on {n} channels needs T >= {min_t}, got {t}"
        )
    design = build_design(rec, order)
    beta, _, rank, svals = np.linalg.lstsq(design.x, design.y, rcond=None)
    if rank < design.x.shape[1] or (svals[0] / svals[-1]) ** 2 > MAX_DESIGN_CONDITION:
        raise SingularDesignError(
            f"rank-deficient design for VAR({order}): rank {rank} of {design.x.shape[1]}, "
            f"cond(X'X) ~ {(svals[0] / max(svals[-1], 1e-300)) ** 2:.3g}"
        )
    resid = design.y - design.x @ beta
    cov = resid.T @ resid / (t - order)
    cov = 0.5 * (cov + cov.T)
    coeffs = beta.reshape(order, n, n).transpose(0, 2, 1)
    return VarModel(coeffs=coeffs, noise_cov=cov, rate=rec.rate)


def bic_order_select(rec: EegRecording, max_order: int) -> tuple[int, list[float]]:
    """Pick the VAR order minimizing the Gaussian BIC.

    BIC(L) = ln det(Sigma_L) + L * N^2 * ln(T - L) / (T - L); candidates
    with a non-positive-definite residual covariance score +inf.  Ties go
    to the smaller order.
    """
    if max_order < 1:
        raise ValidationError(f"max_order must be >= 1, got {max_order}")
    t, n = rec.data.shape
    if t < n * max_order + 2:
        raise ValidationError(
            f"insufficient samples: BIC scan to order {max_order} on {n} channels "
            f"needs T >= {n * max_order + 2}, got {t}"
        )
    scores: list[float] = []
    for lag in range(1, max_order + 1):
        model = fit_var(rec, lag)
        sign, logdet = np.linalg.slogdet(model.noise_cov)
        if sign <= 0:
            scores.append(float("inf"))
            continue
        eff = t - lag
        scores.append(float(logdet + lag * n * n * np.log(eff) / eff))
    best = int(np.argmin(scores)) + 1  # argmin returns the first (smallest L) minimum
    return best, scores


def var_feature_tensor(model: VarModel) -> np.ndarray:
    """Raw coefficients as an N x N x L tensor (lag on the channel axis)."""
    return np.ascontiguousarray(model.coeffs.transpose(1, 2, 0))


def companion_spectral_radius(coeffs: np.ndarray) -> float:
    """Largest eigenvalue modulus of the companion matrix (< 1 means stable)."""
    coeffs = np.asarray(coeffs, dtype=float)
    lags, n, _ = coeffs.shape
    comp = np.zeros((n * lags, n * lags))
    comp[:n] = coeffs.transpose(1, 0, 2).reshape(n, n * lags)
    if lags > 1:
        comp[n:, : n * (lags - 1)] = np.eye(n * (lags - 1))
    return float(np.abs(np.linalg.eigvals(comp)).max())


def simulate_var(
    coeffs: np.ndarray,
    noise_cov: np.ndarray,
    samples: int,
    rng: np.random.Generator,
    rate: float = 128.0,
    burn_in: int = 200,
    subject_id: str = "",
    label: str | None = None,
) -> EegRecording:
    """Generate a recording from known VAR dynamics (for tests and cohorts).

    The process is warmed up for ``burn_in`` steps from a zero state so the
    returned samples are close to stationary.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    lags, n, _ = coeffs.shape
    radius = companion_spectral_radius(coeffs)
    if radius >= 1.0:
        raise ValidationError(f"unstable VAR dynamics: spectral radius {radius:.4f} >= 1")
    chol = np.linalg.cholesky(np.asarray(noise_cov, dtype=float))
    total = samples + burn_in
    out = np.zeros((total + lags, n))
    noise = rng.standard_normal((total, n)) @ chol.T
    for t in range(lags, total + lags):
        acc = noise[t - lags]
        for lag in range(1, lags + 1):
            acc = acc + coeffs[lag - 1] @ out[t - lag]
        out[t] = acc
    return EegRecording(
        data=out[lags + burn_in :], rate=rate, subject_id=subject_id, label=label
    )

