"""Weighted complex-network measures of a connectivity matrix.

Four undirected measures summarize network integration and segregation:

* node degree (strength)       k_i = sum_j w_ij
* global efficiency            E = mean_i [ sum_{j != i} 1/d_ij ] / (N-1)
* weighted clustering          C_i = 2 t_i / (k_i (k_i - 1)),
  with triangle intensity      t_i = 0.5 sum_{j,h} (w_ij w_ih w_jh)^(1/3)
* transitivity                 T = sum_i 2 t_i / sum_i k_i (k_i - 1)

d_ij is the shortest path length under edge length 1/w (infinite for
absent edges), found by min-plus relaxation: starting from zero on the
diagonal and inf elsewhere, every round sets d_sv = min_u (d_su + L_uv)
until nothing changes, at most N - 1 rounds.  That is the fixed point
Dijkstra's algorithm reaches from each source, with the same sums, so the
distances are the bits a Dijkstra search returns.  The k_i in the
clustering and transitivity denominators is the binary degree (count of
nonzero neighbors).  Directed matrices are symmetrized as (P + P') / 2
before any measure is taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .spectral import PdcTensor

SYM_TOL = 1e-12


@dataclass(frozen=True)
class WeightedNetwork:
    """Symmetric nonnegative weight matrix with a zero diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ShapeError(f"weights must be square, got {w.shape}")
        if not np.isfinite(w).all():
            raise ValidationError("non-finite network weight")
        if w.size and w.min() < 0:
            raise ValidationError("negative network weight")
        if w.size and np.abs(np.diagonal(w)).max() > 0:
            raise ValidationError("network diagonal must be zero")
        if w.size and np.abs(w - w.T).max() > SYM_TOL:
            raise ValidationError("weights must be symmetric (symmetrize first)")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.shape[0]


def symmetrize(matrix: np.ndarray) -> WeightedNetwork:
    """Average a (possibly directed) nonnegative matrix with its transpose.

    The diagonal is forced to zero.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"connectivity matrix must be square, got {m.shape}")
    if m.size and m.min() < 0:
        raise ValidationError("negative connectivity entry")
    w = 0.5 * (m + m.T)
    np.fill_diagonal(w, 0.0)
    return WeightedNetwork(weights=w)


def degrees(net: WeightedNetwork) -> np.ndarray:
    """Total connection strength per node."""
    return net.weights.sum(axis=1)


def shortest_paths(net: WeightedNetwork) -> np.ndarray:
    """All-pairs shortest path lengths under edge length 1/w.

    Zero weights mean no edge; disconnected pairs come back as inf and
    the diagonal is zero.  An edge whose weights differ in the last bits
    takes the shorter of its two lengths.
    """
    w = net.weights
    with np.errstate(divide="ignore"):
        lengths = np.where(w > 0, 1.0 / np.where(w > 0, w, 1.0), np.inf)
    lengths = np.minimum(lengths, lengths.T)
    d = np.full(w.shape, np.inf)
    np.fill_diagonal(d, 0.0)
    while True:
        relaxed = np.minimum(d, (d[:, :, None] + lengths[None]).min(axis=1, initial=np.inf))
        if np.array_equal(relaxed, d):
            return d
        d = relaxed


def global_efficiency(net: WeightedNetwork) -> float:
    """Mean inverse shortest path length; infinite distances contribute 0."""
    n = net.size
    if n < 2:
        raise ValidationError("global efficiency needs at least 2 nodes")
    d = shortest_paths(net)
    with np.errstate(divide="ignore"):
        inv = np.where(np.isfinite(d) & (d > 0), 1.0 / np.where(d > 0, d, 1.0), 0.0)
    np.fill_diagonal(inv, 0.0)
    return float(inv.sum(axis=1).mean() / (n - 1))


def _triangle_intensity(net: WeightedNetwork) -> np.ndarray:
    """t_i = 0.5 sum_{j,h} (w_ij w_ih w_jh)^(1/3), via the cube-root product."""
    croot = np.cbrt(net.weights)
    return 0.5 * np.einsum("ij,jh,hi->i", croot, croot, croot)


def clustering(net: WeightedNetwork) -> tuple[np.ndarray, float]:
    """Per-node weighted clustering coefficients and their mean.

    Nodes with fewer than 2 neighbors have no possible triangle and get 0.
    """
    t = _triangle_intensity(net)
    k = (net.weights > 0).sum(axis=1)
    denom = k * (k - 1)
    c = np.where(denom > 0, 2.0 * t / np.where(denom > 0, denom, 1), 0.0)
    mean = float(c.mean()) if c.size else 0.0
    return c, mean


def transitivity(net: WeightedNetwork) -> float:
    """Ratio of total triangle intensity to total connected triples."""
    t = _triangle_intensity(net)
    k = (net.weights > 0).sum(axis=1)
    denom = float((k * (k - 1)).sum())
    if denom <= 0:
        return 0.0
    return float(2.0 * t.sum() / denom)


#: per-band feature layout: N degrees, efficiency, N clusterings, transitivity
def feature_length(channels: int) -> int:
    return 2 * channels + 2


@dataclass(frozen=True)
class CnFeatureVector:
    """Stacked topology measures, one column of 2N+2 values per band."""

    values: np.ndarray
    band_names: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ShapeError(f"feature matrix must be 2-D, got {v.shape}")
        if v.shape[1] != len(self.band_names):
            raise ShapeError(
                f"{v.shape[1]} feature columns for {len(self.band_names)} bands"
            )
        if v.shape[0] % 2 != 0:
            raise ShapeError(f"feature column length {v.shape[0]} is not 2N+2")
        object.__setattr__(self, "values", v)


def band_features(net: WeightedNetwork) -> np.ndarray:
    """One feature column: [k_1..k_N, E, C_1..C_N, T]."""
    c, _ = clustering(net)
    return np.concatenate(
        [degrees(net), [global_efficiency(net)], c, [transitivity(net)]]
    )


def cn_features(pdc: PdcTensor) -> CnFeatureVector:
    """Topology features of every band slice of a PDC tensor."""
    n = pdc.channels
    cols = []
    for b in range(len(pdc.bands)):
        net = symmetrize(pdc.values[:, :, b])
        cols.append(band_features(net))
    values = np.stack(cols, axis=1)
    if values.shape[0] != feature_length(n):
        raise ShapeError(
            f"expected {feature_length(n)} features per band, produced {values.shape[0]}"
        )
    return CnFeatureVector(values=values, band_names=pdc.bands.names)
