"""Ingestion of raw EEG recordings and cohort manifests.

Two on-disk encodings are supported and must be named explicitly (no
sniffing, a wrong guess silently permutes channels):

* ``csv_matrix``    - a T x N table, comma or whitespace delimited;
* ``column_concat`` - a single column of T*N values, channel-major
  (the first T values are channel 1).

The only preprocessing applied downstream is optional per-channel
z-scoring; artifact rejection, filtering and re-referencing are out of
scope.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError, ValidationError

VALID_FORMATS = ("csv_matrix", "column_concat")


@dataclass(frozen=True)
class EegRecording:
    """An N-channel, T-sample signal with sampling rate.

    ``data`` is a T x N float matrix (rows are time points).  The class
    label is optional so that unlabeled recordings can be loaded for
    prediction.
    """

    data: np.ndarray
    rate: float
    subject_id: str = ""
    label: str | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ShapeError(f"recording data must be 2-D (T x N), got ndim={data.ndim}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ShapeError(f"recording data must be non-empty, got shape {data.shape}")
        if not np.isfinite(data).all():
            t, ch = np.argwhere(~np.isfinite(data))[0]
            raise ValidationError(
                f"non-finite sample at t={t}, channel={ch} in subject {self.subject_id!r}"
            )
        if not (self.rate > 0):
            raise ValidationError(f"sampling rate must be positive, got {self.rate}")
        object.__setattr__(self, "data", data)

    @property
    def samples(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    subject_id: str
    label: str


@dataclass(frozen=True)
class CohortManifest:
    """List of (file, subject, label) rows plus the ordered class pair."""

    entries: tuple[ManifestEntry, ...]
    class_names: tuple[str, str]

    def __post_init__(self):
        seen: set[str] = set()
        for e in self.entries:
            if e.subject_id in seen:
                raise ValidationError(f"duplicate subject_id {e.subject_id!r} in manifest")
            seen.add(e.subject_id)
            if e.label not in self.class_names:
                raise ValidationError(
                    f"label {e.label!r} of subject {e.subject_id!r} is not one of {self.class_names}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def subject_ids(self) -> list[str]:
        return [e.subject_id for e in self.entries]

    def labels(self) -> dict[str, str]:
        return {e.subject_id: e.label for e in self.entries}


def _parse_numeric_lines(path: Path) -> list[list[float]]:
    """Parse a whitespace/comma delimited numeric file row by row.

    Slow path used only to attribute a parse failure to a line number.
    """
    rows: list[list[float]] = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.replace(",", " ").split()
            row = []
            for tok in tokens:
                try:
                    row.append(float(tok))
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: bad numeric token {tok!r}") from None
            rows.append(row)
    return rows


def _load_numeric_matrix(path: Path) -> np.ndarray:
    try:
        with open(path, "r") as fh:
            first = ""
            for line in fh:
                if line.strip() and not line.lstrip().startswith("#"):
                    first = line
                    break
        delim = "," if "," in first else None
        return np.loadtxt(path, delimiter=delim, ndmin=2, comments="#")
    except ValueError:
        rows = _parse_numeric_lines(path)  # raises ParseError with a line number
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ShapeError(f"{path}: ragged rows, widths {sorted(widths)}") from None
        return np.asarray(rows, dtype=float)


def load_recording(
    path: str | Path,
    fmt: str = "csv_matrix",
    channels: int | None = None,
    rate: float = 128.0,
    subject_id: str = "",
    label: str | None = None,
) -> EegRecording:
    """Load one EEG file into a T x N recording.

    Parameters
    ----------
    path:
        Numeric text file in one of the two supported encodings.
    fmt:
        ``csv_matrix`` or ``column_concat``; never guessed from content.
    channels:
        Required for ``column_concat`` (the file is a flat stream);
        optional cross-check for ``csv_matrix``.
    rate:
        Sampling frequency in Hz.
    """
    path = Path(path)
    if fmt not in VALID_FORMATS:
        raise ValidationError(f"unknown format {fmt!r}, expected one of {VALID_FORMATS}")
    if not path.exists():
        raise FileNotFoundError(f"EEG file not found: {path}")

    mat = _load_numeric_matrix(path)
    if fmt == "csv_matrix":
        if channels is not None and mat.shape[1] != channels:
            raise ShapeError(f"{path}: expected {channels} columns, found {mat.shape[1]}")
        data = mat
    else:
        if channels is None or channels < 1:
            raise ValidationError("column_concat requires an explicit channel count")
        if mat.shape[1] != 1:
            raise ShapeError(
                f"{path}: column_concat expects a single column, found {mat.shape[1]}"
            )
        flat = mat[:, 0]
        if flat.size % channels != 0:
            raise ShapeError(
                f"{path}: {flat.size} values are not divisible by {channels} channels"
            )
        t = flat.size // channels
        data = flat.reshape(channels, t).T  # channel-major stream -> T x N

    if data.shape[1] < 2:
        raise ValidationError(
            f"{path}: a recording needs at least 2 channels, found {data.shape[1]}"
        )
    return EegRecording(data=data, rate=rate, subject_id=subject_id, label=label)


def save_recording_csv(rec: EegRecording, path: str | Path) -> None:
    """Write the data matrix as comma-separated text (17 significant digits)."""
    np.savetxt(path, rec.data, fmt="%.17g", delimiter=",")


def standardize(rec: EegRecording) -> EegRecording:
    """Z-score each channel (population convention, divisor T).

    Constant channels map to all zeros instead of erroring, so one dead
    electrode does not abort a cohort run; a warning is emitted.
    """
    if rec.samples < 2:
        raise ValidationError("standardize needs at least 2 samples per channel")
    mean = rec.data.mean(axis=0)
    sd = rec.data.std(axis=0)
    # spread at the rounding-noise level of the channel mean is no signal
    flat = sd <= 1e-12 * np.maximum(1.0, np.abs(mean))
    if flat.any():
        warnings.warn(
            f"subject {rec.subject_id!r}: constant channel(s) {np.flatnonzero(flat).tolist()} "
            "mapped to zeros",
            stacklevel=2,
        )
    safe_sd = np.where(flat, 1.0, sd)
    data = (rec.data - mean) / safe_sd
    data[:, flat] = 0.0
    # A large offset over a small spread: the rounded channel mean is off by
    # up to half an ulp of the offset, which is large next to the sd, so the
    # z-scores keep a mean, and an sd taken about the wrong centre.  Centre
    # and scale those channels once more, so that standardizing twice changes
    # nothing; below 1e-12 the mean is rounding noise and the channel keeps
    # its bits.
    resid = data.mean(axis=0)
    off = np.abs(resid) > 1e-12
    if off.any():
        centred = data[:, off] - resid[off]
        data[:, off] = centred / centred.std(axis=0)
    return replace(rec, data=data)


def load_manifest(path: str | Path, class_names: tuple[str, str] | None = None) -> CohortManifest:
    """Parse a cohort manifest CSV with header ``path,subject_id,label``.

    When ``class_names`` is omitted the two classes are inferred in order
    of first appearance; a third distinct label is an error.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ValidationError(f"{path}: empty manifest")
    header = [c.strip().lstrip("﻿") for c in rows[0]]
    if header != ["path", "subject_id", "label"]:
        raise ParseError(f"{path}: expected header 'path,subject_id,label', got {header}")
    if len(rows) == 1:
        raise ValidationError(f"{path}: empty manifest")

    inferred: list[str] = list(class_names) if class_names else []
    entries: list[ManifestEntry] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
        p, sid, label = (c.strip() for c in row)
        if not p or not sid or not label:
            raise ParseError(f"{path}: line {lineno}: empty field")
        if label not in inferred:
            if class_names is not None or len(inferred) >= 2:
                raise ValidationError(
                    f"{path}: line {lineno}: unknown label {label!r} "
                    f"(classes: {tuple(inferred)})"
                )
            inferred.append(label)
        entries.append(ManifestEntry(path=p, subject_id=sid, label=label))

    if len(inferred) < 2:
        raise ValidationError(f"{path}: manifest contains a single class {inferred[0]!r}")
    return CohortManifest(entries=tuple(entries), class_names=(inferred[0], inferred[1]))


def save_manifest(manifest: CohortManifest, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "subject_id", "label"])
        for e in manifest.entries:
            writer.writerow([e.path, e.subject_id, e.label])
