"""Frequency-domain connectivity from a fitted VAR model.

The transfer matrix at frequency f is the exact finite sum

    A(f) = I - sum_{l=1..L} A(l) exp(-i 2 pi l f / fs)

and partial directed coherence (PDC) normalizes its magnitudes per
column:

    pdc[i, j] = |A(f)[i, j]| / sqrt(sum_k |A(f)[k, j]|^2)

so each column satisfies sum_i pdc[i, j]^2 = 1.  Band-averaged PDC is the
arithmetic mean of pdc over a uniform frequency grid inside each band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateColumnError, ShapeError, ValidationError
from .var_model import VarModel

#: canonical EEG bands, half-open [lo, hi) so that they partition 1-64 Hz
DEFAULT_BANDS: tuple[tuple[str, float, float], ...] = (
    ("delta", 1.0, 4.0),
    ("theta", 4.0, 8.0),
    ("alpha", 8.0, 14.0),
    ("beta", 14.0, 30.0),
    ("gamma", 30.0, 64.0),
)

DEFAULT_GRID_STEP = 0.25


@dataclass(frozen=True)
class BandSpec:
    """Ordered, labeled, non-overlapping frequency intervals in Hz."""

    bands: tuple[tuple[str, float, float], ...] = DEFAULT_BANDS

    def __post_init__(self):
        prev_hi = None
        for name, lo, hi in self.bands:
            if not (0 <= lo < hi):
                raise ValidationError(f"band {name!r}: bad interval [{lo}, {hi})")
            if prev_hi is not None and lo < prev_hi:
                raise ValidationError(f"band {name!r} overlaps the previous band")
            prev_hi = hi

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(b[0] for b in self.bands)

    def __len__(self) -> int:
        return len(self.bands)


@dataclass(frozen=True)
class PdcTensor:
    """N x N x B band-averaged PDC, entries in [0, 1].

    With ``self_excluded`` the diagonal is zeroed (shape is preserved so
    convolution kernels see a full matrix).
    """

    values: np.ndarray
    bands: BandSpec = field(default_factory=BandSpec)
    self_excluded: bool = True

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 3 or values.shape[0] != values.shape[1]:
            raise ShapeError(f"PDC tensor must be N x N x B, got {values.shape}")
        if values.shape[2] != len(self.bands):
            raise ShapeError(
                f"tensor has {values.shape[2]} bands, band spec lists {len(self.bands)}"
            )
        if values.min() < -1e-12 or values.max() > 1 + 1e-12:
            raise ValidationError("PDC entries must lie in [0, 1]")
        if self.self_excluded:
            diag = np.abs(np.diagonal(values, axis1=0, axis2=1))
            if diag.max() != 0.0:
                raise ValidationError("self-connections are flagged excluded but nonzero")
        object.__setattr__(self, "values", values)

    @property
    def channels(self) -> int:
        return self.values.shape[0]


def _transfer(model: VarModel, freqs: np.ndarray) -> np.ndarray:
    """Transfer matrices at each of ``freqs`` (exact sum, no FFT), shape (F, N, N).

    Frequencies up to the sampling rate are accepted; values above the
    Nyquist frequency mirror the lower half by complex conjugation.
    """
    bad = freqs[(freqs < 0) | (freqs > model.rate)]
    if bad.size:
        raise ValidationError(f"frequency {bad[0]} outside [0, {model.rate}] Hz")
    order, n = model.order, model.channels
    lags = np.arange(1, order + 1)
    phases = np.exp(-2j * np.pi * lags * freqs[:, None] / model.rate)  # (F, L)
    # one (1, L) @ (L, N*N) product per frequency: a single (F, L) GEMM or an
    # einsum sums in another order and moves the last bit of some entries
    lag_sum = phases[:, None, :] @ model.coeffs.reshape(order, n * n)
    return np.eye(n, dtype=complex) - lag_sum.reshape(-1, n, n)


def _pdc(model: VarModel, freqs: np.ndarray) -> np.ndarray:
    """PDC matrices at each of ``freqs``, shape (F, N, N)."""
    mag = np.abs(_transfer(model, freqs))
    norms = np.sqrt((mag**2).sum(axis=1))  # (F, N) column norms
    dead = np.argwhere(norms == 0.0)
    if dead.size:
        fi, col = dead[0]
        raise DegenerateColumnError(
            f"transfer-matrix column {col} has zero norm at f = {freqs[fi]} Hz"
        )
    return mag / norms[:, None, :]


def pdc_at(model: VarModel, freq: float) -> np.ndarray:
    """Partial directed coherence matrix at one frequency."""
    return _pdc(model, np.array([float(freq)]))[0]


def band_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Uniform grid {lo, lo+step, ...} strictly below ``hi``."""
    if step <= 0:
        raise ValidationError(f"grid step must be positive, got {step}")
    count = int(np.ceil((hi - lo) / step - 1e-9))
    freqs = lo + step * np.arange(count)
    return freqs[freqs < hi]


def band_pdc(
    model: VarModel,
    bands: BandSpec | None = None,
    grid_step: float = DEFAULT_GRID_STEP,
    exclude_self: bool = True,
) -> PdcTensor:
    """Average PDC over a uniform grid inside each band.

    The diagonal is zeroed after averaging when ``exclude_self`` is set.
    Band upper edges must not exceed the Nyquist frequency.
    """
    bands = bands or BandSpec()
    nyquist = model.rate / 2
    for name, _, hi in bands.bands:
        if hi > nyquist + 1e-9:
            raise ValidationError(
                f"band {name!r} upper edge {hi} Hz exceeds Nyquist {nyquist} Hz"
            )
    n = model.channels
    out = np.empty((n, n, len(bands)))
    for b, (name, lo, hi) in enumerate(bands.bands):
        freqs = band_grid(lo, hi, grid_step)
        if freqs.size == 0:
            raise ValidationError(f"band {name!r}: empty frequency grid at step {grid_step}")
        out[:, :, b] = _pdc(model, freqs).sum(axis=0) / freqs.size
    if exclude_self:
        idx = np.arange(n)
        out[idx, idx, :] = 0.0
    return PdcTensor(values=out, bands=bands, self_excluded=exclude_self)
