"""Seeded two-group cohorts with graded ring-coupling contrast.

Each subject is a VAR(2) process on ``channels`` channels: per-channel
dynamics shared by both groups plus a directed lag-1 ring whose strength
carries the group difference.  ``eegconn.synthetic`` fixes the contrast at
0.30 vs 0.05 and the length at one value, which puts every classifier at
100%; here the ring strengths sit near 0.10 vs 0.05 and are spread evenly
over an overlapping range, so accuracy lands between chance and the
ceiling and varies little from one seed to the next.  Recording lengths
may be mixed, because CSV load and VAR fit grow with T while PDC and
topology do not.

Only ``simulate_var``, ``save_recording_csv`` and ``save_manifest`` are
used from the program; the random draws come from numpy alone, so the
inputs do not change when the program's own seeding changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eegconn.eeg_io import CohortManifest, ManifestEntry, save_manifest, save_recording_csv
from eegconn.var_model import companion_spectral_radius, simulate_var

CLASS_NAMES = ("SZ", "HC")


@dataclass(frozen=True)
class CohortSpec:
    """Shape of a generated cohort; the seed is passed separately."""

    per_group: int
    lengths: tuple[int, ...] = (1536,)  # dealt round-robin within each group
    ring_means: tuple[float, float] = (0.10, 0.05)  # SZ, HC
    ring_halfwidth: float = 0.03  # subject ring strengths span mean +/- this
    channels: int = 16
    rate: float = 128.0


def _rng(seed: int, *labels: int) -> np.random.Generator:
    return np.random.default_rng([seed, *labels])


def subject_coeffs(rng: np.random.Generator, channels: int, ring: float) -> np.ndarray:
    """VAR(2) coefficients: jittered diagonal dynamics plus a lag-1 ring."""
    coeffs = np.zeros((2, channels, channels))
    coeffs[0] += np.diag(0.35 + 0.03 * rng.standard_normal(channels))
    coeffs[1] += np.diag(0.15 + 0.03 * rng.standard_normal(channels))
    links = np.clip(ring + 0.01 * rng.standard_normal(channels), 0.0, None)
    for i in range(channels):
        coeffs[0, i, (i + 1) % channels] += links[i]
    radius = companion_spectral_radius(coeffs)
    if radius >= 0.95:
        coeffs *= 0.95 / radius
    return coeffs


def make_cohort(out_dir: str | Path, seed: int, spec: CohortSpec) -> Path:
    """Write one CSV per subject plus ``manifest.csv``; return the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    offsets = np.linspace(-spec.ring_halfwidth, spec.ring_halfwidth, spec.per_group)
    entries = []
    for g, label in enumerate(CLASS_NAMES):
        for i in range(spec.per_group):
            sid = f"{label.lower()}{i:03d}"
            samples = spec.lengths[i % len(spec.lengths)]
            coeffs = subject_coeffs(_rng(seed, g, i, 0), spec.channels,
                                    spec.ring_means[g] + offsets[i])
            rec = simulate_var(coeffs, np.eye(spec.channels), samples, _rng(seed, g, i, 1),
                               rate=spec.rate, subject_id=sid, label=label)
            save_recording_csv(rec, out_dir / f"{sid}.csv")
            entries.append(ManifestEntry(path=f"{sid}.csv", subject_id=sid, label=label))
    manifest_path = out_dir / "manifest.csv"
    save_manifest(CohortManifest(entries=tuple(entries), class_names=CLASS_NAMES), manifest_path)
    return manifest_path
