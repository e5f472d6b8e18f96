"""Versioned binary model files.

Layout: 8 magic bytes, u32 major format version, u32 header length, a
deterministic JSON header (entry roles, layer descriptor tables, parameter
manifest), the parameter payload as 64-bit little-endian reals in manifest
order, and a sha256 trailer over everything before it.  Readers accept any
minor revision within the same major version.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import ChecksumError, ValidationError
from .layers import LAYER_KINDS
from .network import MultiBranchNetwork, Network

MAGIC = b"ECNNBNDL"
FORMAT_MAJOR = 1
FORMAT_MINOR = 0


def _build_layers(descs: list[dict]):
    layers = []
    for d in descs:
        cfg = dict(d)
        kind = cfg.pop("kind")
        if kind not in LAYER_KINDS:
            raise ValidationError(f"unknown layer kind {kind!r} in model file")
        layers.append(LAYER_KINDS[kind](**cfg))
    return layers


def _entry_descriptor(obj) -> dict:
    if isinstance(obj, Network):
        return obj.descriptor()
    if isinstance(obj, dict):
        return {"type": "arrays"}
    raise ValidationError(f"cannot serialize entry of type {type(obj).__name__}")


def _entry_params(role: str, obj) -> dict[str, np.ndarray]:
    if isinstance(obj, Network):
        return obj.param_dict()
    try:
        return {k: np.asarray(v, dtype=float) for k, v in obj.items()}
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"entry {role!r} holds a non-numeric array ({exc})") from None


def _rebuild(desc: dict):
    """The network an entry descriptor names, dropout wired and no weights
    drawn, or None for a plain array group."""
    if desc["type"] == "arrays":
        return None
    if desc["type"] not in ("network", "multibranch"):
        raise ValidationError(f"unknown entry type {desc['type']!r} in model file")
    # A "multibranch" entry loads as a MultiBranchNetwork, whose constructor
    # only renames Network's arguments, so both types share this one call.
    branched = desc["type"] == "multibranch"
    net = object.__new__(MultiBranchNetwork if branched else Network)
    Network.__init__(
        net,
        _build_layers(desc["trunk" if branched else "layers"]),
        input_shape=desc.get("input_shape"),
        seed=desc["seed"],
        name=desc["name"],
        branches=[_build_layers(b) for b in desc.get("branches", ())],
        input_shapes=desc.get("input_shapes", ()),
    )
    return net.wire_dropout()


def save_bundle(path: str | Path, entries: dict[str, object], meta: dict | None = None) -> None:
    """Write named networks / parameter groups into one model file.

    The header is built, and every entry checked, before the file is opened;
    the parameter arrays are then streamed into the file and the sha256 from
    their own buffers, without a copy of the payload.
    """
    roles = sorted(entries)
    descriptors = [{"role": r, "descriptor": _entry_descriptor(entries[r])} for r in roles]
    manifest = []
    arrays = []
    for role in roles:
        params = _entry_params(role, entries[role])
        for key in sorted(params):
            arr = np.ascontiguousarray(params[key], dtype="<f8")
            manifest.append({"entry": role, "key": key, "shape": list(arr.shape)})
            arrays.append(arr)
    header = {
        "format_major": FORMAT_MAJOR,
        "format_minor": FORMAT_MINOR,
        "meta": meta or {},
        "entries": descriptors,
        "params": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    sha = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in (MAGIC, struct.pack("<II", FORMAT_MAJOR, len(header_bytes)), header_bytes,
                      *arrays):
            sha.update(chunk)
            fh.write(chunk)
        fh.write(sha.digest())


def _param_views(path, records: list[dict], payload: np.ndarray,
                 payload_len: int) -> list[np.ndarray]:
    """One zero-copy view of ``payload`` per manifest record, once the
    manifest is known to account for every payload byte."""
    shapes = []
    for rec in records:
        shape = tuple(rec["shape"])
        if any(not isinstance(d, int) or d < 0 for d in shape):
            raise ValidationError(f"{path}: bad shape {rec['shape']!r} for {rec['key']}")
        shapes.append(shape)
    sizes = [math.prod(shape) for shape in shapes]
    need = 8 * sum(sizes)
    if need > payload_len:
        raise ChecksumError(
            f"{path}: params manifest needs {need} payload bytes, file holds {payload_len}"
        )
    if need < payload_len:
        raise ChecksumError(f"{path}: {payload_len - need} trailing payload bytes")
    offsets = np.cumsum([0, *sizes])
    return [payload[a:b].reshape(shape) for a, b, shape in zip(offsets, offsets[1:], shapes)]


def load_bundle(path: str | Path) -> tuple[dict[str, object], dict]:
    """Read a model file back into {role: Network | dict}.

    The file is read once: the payload goes straight into one float64 buffer
    whose slices become the parameter arrays, and the sha256 is checked
    before any network is built.  Loading draws no random weights.
    """
    lead = len(MAGIC) + 8
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(lead)
        if len(prefix) < lead:
            raise ChecksumError(f"{path}: truncated model file")
        major, header_len = struct.unpack_from("<II", prefix, len(MAGIC))
        payload_len = size - lead - header_len - 32
        if payload_len < 0:
            raise ChecksumError(f"{path}: truncated model file")
        header_bytes = fh.read(header_len)
        sha = hashlib.sha256(prefix)
        sha.update(header_bytes)
        payload = np.empty(-(-payload_len // 8), dtype="<f8")
        view = memoryview(payload).cast("B")[:payload_len]
        if fh.readinto(view) < payload_len:
            raise ChecksumError(f"{path}: truncated model file")
        sha.update(view)
        digest = fh.read(32)
    if sha.digest() != digest:
        raise ChecksumError(f"{path}: checksum mismatch")
    if prefix[: len(MAGIC)] != MAGIC:
        raise ValidationError(f"{path}: not a model file (bad magic)")
    if major != FORMAT_MAJOR:
        raise ValidationError(
            f"{path}: format major version {major} unsupported (expected {FORMAT_MAJOR})"
        )
    try:
        header = json.loads(header_bytes.decode())
    except ValueError as exc:
        raise ValidationError(f"{path}: unreadable header ({exc})") from None

    records = header["params"]
    states: dict[str, dict[str, np.ndarray]] = {item["role"]: {} for item in header["entries"]}
    for rec, view in zip(records, _param_views(path, records, payload, payload_len)):
        if rec["entry"] not in states:
            raise ValidationError(f"{path}: parameters for unknown entry {rec['entry']!r}")
        states[rec["entry"]][rec["key"]] = view

    entries: dict[str, object] = {}
    for item in header["entries"]:
        role = item["role"]
        net = _rebuild(item["descriptor"])
        if net is None:
            entries[role] = states[role]
        else:
            net._bind_state(states[role], copy=False)
            entries[role] = net
    return entries, header["meta"]
