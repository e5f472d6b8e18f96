"""Versioned binary model files.

The framing is the feature containers' (see ``container``): magic bytes,
major version, a deterministic JSON header (entry roles, layer descriptor
tables, parameter manifest, metadata), the parameters as 64-bit
little-endian reals in manifest order, and a sha256 trailer.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..container import header_field, read_framed, write_framed
from ..errors import EegConnError, ValidationError
from .layers import LAYER_KINDS
from .network import MultiBranchNetwork, Network

MAGIC = b"ECNNBNDL"
FORMAT_MAJOR = 1
FORMAT_MINOR = 0


def _build_layers(where, descs) -> list:
    if not isinstance(descs, list):
        raise ValidationError(f"{where}: a layer table is not a list")
    layers = []
    for i, d in enumerate(descs):
        kind = header_field(where, d, "kind", str)
        if kind not in LAYER_KINDS:
            raise ValidationError(f"{where}: unknown layer kind {kind!r}")
        cfg = {k: v for k, v in d.items() if k != "kind"}
        try:
            layers.append(LAYER_KINDS[kind](**cfg))
        except (TypeError, ValueError) as exc:  # an unknown, missing or bad argument
            raise ValidationError(f"{where}: layer {i} ({kind}): {exc}") from None
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


def rebuild(where, desc: dict, state: dict[str, np.ndarray]):
    """The entry a descriptor names: a network whose parameter arrays are
    ``state``, dropout wired and no weights drawn, or ``state`` itself for a
    plain array group.  A descriptor that lacks a key or whose layer table
    does not fit the layer constructors gives a ValidationError, and shapes
    that do not fit the layers or ``state`` a ShapeError; both name
    ``where``, the model file, and the key or the layer."""
    kind = header_field(where, desc, "type", str)
    if kind == "arrays":
        return state
    if kind not in ("network", "multibranch"):
        raise ValidationError(f"{where}: unknown entry type {kind!r}")
    # A "multibranch" entry loads as a MultiBranchNetwork, whose __init__
    # only renames Network's arguments, so both types share this one call.
    branched = kind == "multibranch"
    layers = _build_layers(where, header_field(where, desc, "trunk" if branched else "layers",
                                               list))
    branches = [_build_layers(where, b)
                for b in (header_field(where, desc, "branches", list) if branched else ())]
    shapes = header_field(where, desc, "input_shapes" if branched else "input_shape", list)
    seed = header_field(where, desc, "seed", int)
    name = header_field(where, desc, "name", str)
    net = object.__new__(MultiBranchNetwork if branched else Network)
    try:
        Network.__init__(net, layers, input_shape=None if branched else shapes, seed=seed,
                         name=name, branches=branches, input_shapes=shapes if branched else ())
        net.wire_dropout()._bind_state(state, copy=False)
    except (TypeError, ValueError) as exc:  # shapes that are not shapes, or do not fit
        kind_of_error = type(exc) if isinstance(exc, EegConnError) else ValidationError
        raise kind_of_error(f"{where}: {exc}") from None
    return net


def save_bundle(path: str | Path, entries: dict[str, object], meta: dict | None = None) -> None:
    """Write named networks / parameter groups into one model file.

    Every entry is checked, and the header built, before the file is opened.
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
    write_framed(path, MAGIC, FORMAT_MAJOR, {
        "format_major": FORMAT_MAJOR,
        "format_minor": FORMAT_MINOR,
        "meta": meta or {},
        "entries": descriptors,
        "params": manifest,
    }, arrays)


def load_bundle(path: str | Path) -> tuple[dict[str, object], dict]:
    """Read a model file back into {role: Network | dict}.

    The sha256 is checked before any network is built, every parameter
    array is a view of the one buffer the payload is read into, and loading
    draws no random weights.
    """
    header, views = read_framed(path, MAGIC, FORMAT_MAJOR, "model file", lambda h: [
        (header_field(path, rec, "key", str), header_field(path, rec, "shape", list))
        for rec in header_field(path, h, "params", list)])
    meta = header_field(path, header, "meta", dict)
    items = header_field(path, header, "entries", list)
    states: dict[str, dict[str, np.ndarray]] = {
        header_field(path, item, "role", str): {} for item in items}
    for rec, view in zip(header["params"], views):
        if header_field(path, rec, "entry", str) not in states:
            raise ValidationError(f"{path}: parameters for unknown entry {rec['entry']!r}")
        states[rec["entry"]][rec["key"]] = view
    return {item["role"]: rebuild(path, header_field(path, item, "descriptor", dict),
                                  states[item["role"]]) for item in items}, meta
