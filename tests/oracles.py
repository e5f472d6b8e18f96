"""Test oracles and model generators that the program itself does not need."""

from __future__ import annotations

import hashlib
import json
import struct

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


def resign(path, magic: bytes, mutate=None, *, major=None, extra_payload=b"",
           as_magic=None, header_len=None) -> None:
    """Rewrite a feature container or model bundle with a valid sha256 trailer.

    ``mutate`` edits the parsed header in place, or returns the bytes to
    write as the header instead.  ``major``, ``as_magic`` and ``header_len``
    replace those prefix fields; ``extra_payload`` is appended to the payload.
    """
    body = path.read_bytes()[:-32]
    file_major, hlen = struct.unpack_from("<II", body, len(magic))
    off = len(magic) + 8
    header = json.loads(body[off : off + hlen].decode())
    raw = mutate(header) if mutate is not None else None
    hb = raw if isinstance(raw, bytes) else json.dumps(header, sort_keys=True).encode()
    new = ((as_magic or magic)
           + struct.pack("<II", file_major if major is None else major,
                         len(hb) if header_len is None else header_len)
           + hb + body[off + hlen :] + extra_payload)
    path.write_bytes(new + hashlib.sha256(new).digest())


def flip_bit(path) -> None:
    """Flip one bit in the middle of a file."""
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def retarget(path, entry: str, **fields) -> None:
    """Re-sign a model bundle with fields of the descriptor of its ``entry``
    replaced, such as a reference's ``file``, ``sha256`` or ``role``."""
    from eegconn.nn.serialize import MAGIC

    def edit(header):
        for item in header["entries"]:
            if item["role"] == entry:
                item["descriptor"].update(fields)
    resign(path, MAGIC, edit)
