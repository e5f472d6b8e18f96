"""The checksummed framing of feature containers and model bundles, and the
feature containers written by extraction.

Layout: 8 magic bytes, u32 major version, u32 header length, sorted-key JSON
header, payload of 64-bit little-endian reals in row-major order, sha256
trailer.  Readers accept any minor revision of the current major version.  A
container's header holds the feature kind, shape, bands, subject and label.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ChecksumError, ValidationError
from .spectral import BandSpec

MAGIC = b"ECNNFEAT"
FORMAT_MAJOR = 1
FORMAT_MINOR = 0

FEATURE_KINDS = ("VAR", "PDC", "CN")
BANDED_KINDS = ("PDC", "CN")  # last axis: one entry per band
PARTIAL = ".partial"


@contextlib.contextmanager
def whole_file(path):
    """``<path>.partial``, opened for binary writing in ``path``'s directory
    (made if missing); it replaces ``path`` when the body returns and goes
    when the body raises, so ``path`` is written whole or not at all."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + PARTIAL)
    try:
        with open(partial, "wb") as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def write_framed(path, magic: bytes, major: int, header: dict, arrays: list[np.ndarray]) -> str:
    """Write ``header`` and the C-contiguous ``<f8`` ``arrays`` in the shared
    layout, streaming each array's own buffer into the file and the sha256;
    the hex sha256 of the file's bytes before the trailer."""
    header_bytes = json.dumps(header, sort_keys=True).encode()
    sha = hashlib.sha256()
    with whole_file(path) as fh:
        for chunk in (magic, struct.pack("<II", major, len(header_bytes)), header_bytes,
                      *arrays):
            sha.update(chunk)
            fh.write(chunk)
        fh.write(sha.digest())
    return sha.hexdigest()


def header_field(path, header, key: str, kind):
    """``header[key]`` when it is a ``kind`` (a type or a tuple of types);
    a ValidationError naming the file and the key otherwise."""
    if not isinstance(header, dict) or not isinstance(header.get(key, ...), kind):
        raise ValidationError(f"{path}: header key {key!r} is missing or of the wrong type")
    return header[key]


def read_framed(path, magic: bytes, major: int, noun: str,
                shapes_of) -> tuple[dict, list, str]:
    """Read a file in the shared layout once, the payload into one buffer.

    The sha256 is checked before anything is parsed, then the magic, the
    major version and the header.  ``shapes_of(header)`` lists the
    ``(name, shape)`` of each payload array in order; together they must
    account for every payload byte.  Returns the header, one zero-copy view
    of the payload per array, and the checked hex sha256.
    """
    lead = len(magic) + 8
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(lead)
        if len(prefix) < lead:
            raise ChecksumError(f"{path}: truncated {noun}")
        file_major, header_len = struct.unpack_from("<II", prefix, len(magic))
        payload_len = size - lead - header_len - 32
        if payload_len < 0:
            raise ChecksumError(f"{path}: truncated {noun}")
        header_bytes = fh.read(header_len)
        sha = hashlib.sha256(prefix)
        sha.update(header_bytes)
        payload = np.empty(-(-payload_len // 8), dtype="<f8")
        view = memoryview(payload).cast("B")[:payload_len]
        if fh.readinto(view) < payload_len:
            raise ChecksumError(f"{path}: truncated {noun}")
        sha.update(view)
        digest = fh.read(32)
    if sha.digest() != digest:
        raise ChecksumError(f"{path}: checksum mismatch")
    if prefix[: len(magic)] != magic:
        raise ValidationError(f"{path}: not a {noun} (bad magic)")
    if file_major != major:
        raise ValidationError(
            f"{path}: format major version {file_major} unsupported (expected {major})"
        )
    try:
        header = json.loads(header_bytes.decode())
    except ValueError as exc:
        raise ValidationError(f"{path}: unreadable header ({exc})") from None
    named = shapes_of(header)
    for name, shape in named:
        if not isinstance(shape, list) or any(not isinstance(d, int) or d < 0 for d in shape):
            raise ValidationError(f"{path}: bad shape {shape!r} for {name}")
    sizes = [math.prod(shape) for _, shape in named]
    need = 8 * sum(sizes)
    if need > payload_len:
        raise ChecksumError(f"{path}: header needs {need} payload bytes, file holds {payload_len}")
    if need < payload_len:
        raise ChecksumError(f"{path}: {payload_len - need} trailing payload bytes")
    offsets = np.cumsum([0, *sizes])
    return header, [payload[a:b].reshape(shape)
                    for a, b, (_, shape) in zip(offsets, offsets[1:], named)], digest.hex()


def _check_bands(path, kind: str, shape: list, bands) -> None:
    if kind in BANDED_KINDS and (bands is None or not shape or len(bands) != shape[-1]):
        raise ValidationError(
            f"{path}: a {kind} container needs one band per entry of its last axis, "
            f"got {'no' if bands is None else len(bands)} bands for shape {shape}"
        )


def write_container(
    path: str | Path,
    kind: str,
    values: np.ndarray,
    subject_id: str,
    label: str | None = None,
    bands: BandSpec | None = None,
) -> None:
    if kind not in FEATURE_KINDS:
        raise ValidationError(f"feature kind must be one of {FEATURE_KINDS}, got {kind!r}")
    arr = np.ascontiguousarray(values, dtype="<f8")
    shape = list(arr.shape)
    band_list = [list(b) for b in bands.bands] if bands is not None else None
    _check_bands(path, kind, shape, band_list)
    write_framed(path, MAGIC, FORMAT_MAJOR, {
        "format_major": FORMAT_MAJOR,
        "format_minor": FORMAT_MINOR,
        "kind": kind,
        "shape": shape,
        "subject_id": subject_id,
        "label": label,
        "bands": band_list,
    }, [arr])


def read_container(path: str | Path) -> tuple[np.ndarray, dict]:
    header, (values,), _ = read_framed(
        path, MAGIC, FORMAT_MAJOR, "feature container",
        lambda h: [("values", header_field(path, h, "shape", list))])
    if header_field(path, header, "kind", str) not in FEATURE_KINDS:
        raise ValidationError(f"{path}: unknown feature kind {header['kind']!r}")
    header_field(path, header, "subject_id", str)
    header_field(path, header, "label", (str, type(None)))
    bands = header_field(path, header, "bands", (list, type(None)))
    if any(not isinstance(b, list) or not b or not isinstance(b[0], str) for b in bands or ()):
        raise ValidationError(f"{path}: header key 'bands' holds a band without a name")
    _check_bands(path, header["kind"], header["shape"], bands)
    return values, header
