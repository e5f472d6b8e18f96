import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from oracles import resign

from eegconn.container import MAGIC, read_container, write_container
from eegconn.errors import ChecksumError, ValidationError
from eegconn.nn import Dense, Network, ReLU, Softmax, load_bundle, save_bundle
from eegconn.nn import serialize
from eegconn.nn.layers import Flatten
from eegconn.spectral import BandSpec

TWO_BANDS = BandSpec((("low", 4.0, 8.0), ("high", 8.0, 14.0)))


class TestFeatureContainer:
    def test_roundtrip_values_and_header(self, tmp_path, rng):
        values = rng.standard_normal((4, 4, 5))
        path = tmp_path / "s1_var.feat"
        write_container(path, "VAR", values, "s1", "SZ", bands=BandSpec())
        back, header = read_container(path)
        np.testing.assert_array_equal(back, values)
        assert header["kind"] == "VAR"
        assert header["subject_id"] == "s1"
        assert header["label"] == "SZ"
        assert header["shape"] == [4, 4, 5]
        assert header["bands"][0] == ["delta", 1.0, 4.0]

    def test_write_is_deterministic(self, tmp_path, rng):
        values = rng.standard_normal((3, 2))
        p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
        write_container(p1, "CN", values, "s", None, bands=TWO_BANDS)
        write_container(p2, "CN", values, "s", None, bands=TWO_BANDS)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_container(tmp_path / "x.feat", "RAW", np.zeros((2, 2)), "s")

    def test_label_optional(self, tmp_path):
        path = tmp_path / "u.feat"
        write_container(path, "CN", np.zeros((4, 2)), "anon", bands=TWO_BANDS)
        _, header = read_container(path)
        assert header["label"] is None

    @pytest.mark.parametrize("kind, shape, bands", [
        ("PDC", (4, 4, 2), BandSpec()), ("CN", (6, 5), TWO_BANDS), ("PDC", (4, 4, 5), None),
    ], ids=["pdc-5-bands-over-2", "cn-2-bands-over-5", "pdc-no-bands"])
    def test_bands_must_match_last_axis_before_the_file_opens(self, tmp_path, kind, shape, bands):
        path = tmp_path / "b.feat"
        with pytest.raises(ValidationError, match="one band per entry of its last axis"):
            write_container(path, kind, np.zeros(shape), "s", "SZ", bands=bands)
        assert not path.exists()

    def test_read_rejects_bands_that_do_not_match_last_axis(self, tmp_path):
        path = tmp_path / "b.feat"
        write_container(path, "PDC", np.zeros((4, 4, 2)), "s", "SZ", bands=TWO_BANDS)
        resign(path, MAGIC, lambda h: h.update(bands=[list(b) for b in BandSpec().bands]))
        with pytest.raises(ValidationError, match="5 bands for shape"):
            read_container(path)

    @pytest.mark.parametrize("key, value", [
        ("kind", "RAW"), ("kind", None), ("subject_id", 7), ("label", 1.5),
        ("bands", "delta"), ("bands", [3, 4, 5, 6, 7]),
    ])
    def test_wrongly_typed_header_value_names_the_key(self, tmp_path, key, value):
        path = tmp_path / "h.feat"
        write_container(path, "PDC", np.zeros((4, 4, 5)), "s", "SZ", bands=BandSpec())
        resign(path, MAGIC, lambda h: h.update({key: value}))
        with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: .*{key}"):
            read_container(path)


# -- one fault table for both checksummed formats ------------------------------


class Framed(NamedTuple):
    path: object
    read: Callable
    magic: bytes
    key: str                          # a header key the reader needs
    shape_of: Callable[[dict], list]  # the header's shape of the last payload array
    arrays: Callable                  # the payload arrays in what ``read`` returns


def _container(path) -> Framed:
    write_container(path, "PDC", np.arange(80.0).reshape(4, 4, 5), "s1", "SZ", bands=BandSpec())
    return Framed(path, read_container, MAGIC, "shape", lambda h: h["shape"],
                  lambda got: [got[0]])


def _bundle(path) -> Framed:
    net = Network([Flatten(), Dense(6, 4), ReLU(), Dense(4, 2), Softmax()],
                  input_shape=(3, 2), seed=5).initialize()
    save_bundle(path, {"main": net}, meta={"k": 1})
    return Framed(path, load_bundle, serialize.MAGIC, "params",
                  lambda h: h["params"][-1]["shape"],
                  lambda got: list(got[0]["main"].param_dict().values()))


def _cut(keep: int):
    return lambda f: f.path.write_bytes(f.path.read_bytes()[:keep])


def _flip(f: Framed) -> None:
    raw = bytearray(f.path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    f.path.write_bytes(bytes(raw))


def _last_dim(change):
    """Re-sign the file with the last dim of its last payload array changed."""
    def edit(f: Framed) -> None:
        def mutate(header):
            shape = f.shape_of(header)
            shape[-1] = change(shape[-1])
        resign(f.path, f.magic, mutate)
    return edit


FAULTS = [
    # id, edit, error (None: still readable), message pattern ({key}: Framed.key)
    ("truncated-prefix", _cut(10), ChecksumError, "truncated"),
    ("truncated-header", _cut(60), ChecksumError, "truncated"),
    ("truncated-payload", _cut(-100), ChecksumError, "checksum mismatch"),
    ("empty", _cut(0), ChecksumError, "truncated"),
    ("flipped-bit", _flip, ChecksumError, "checksum mismatch"),
    ("bad-magic", lambda f: resign(f.path, f.magic, as_magic=b"NOTMAGIC"),
     ValidationError, "bad magic"),
    ("major-bump", lambda f: resign(f.path, f.magic, lambda h: h.update(format_major=2), major=2),
     ValidationError, "major version 2"),
    ("minor-bump", lambda f: resign(f.path, f.magic, lambda h: h.update(format_minor=7)),
     None, None),
    ("header-length-past-end", lambda f: resign(f.path, f.magic, header_len=1 << 20),
     ChecksumError, "truncated"),
    ("header-not-json", lambda f: resign(f.path, f.magic, lambda h: b"{not json"),
     ValidationError, "unreadable header"),
    ("header-not-object", lambda f: resign(f.path, f.magic, lambda h: b"[1, 2]"),
     ValidationError, "header key '{key}'"),
    ("missing-key", lambda f: resign(f.path, f.magic, lambda h: h.pop(f.key)),
     ValidationError, "header key '{key}'"),
    ("fractional-dim", _last_dim(lambda d: d + 0.5), ValidationError, "bad shape"),
    ("manifest-beyond-payload", _last_dim(lambda d: d + 1), ChecksumError, "payload bytes"),
    ("trailing-3", lambda f: resign(f.path, f.magic, extra_payload=bytes(3)),
     ChecksumError, "3 trailing payload bytes"),
    ("trailing-8", lambda f: resign(f.path, f.magic, extra_payload=bytes(8)),
     ChecksumError, "8 trailing payload bytes"),
]


@pytest.fixture(params=[_container, _bundle], ids=["container", "bundle"])
def framed(request, tmp_path) -> Framed:
    return request.param(tmp_path / "file.bin")


@pytest.mark.parametrize("edit, error, match", [row[1:] for row in FAULTS],
                         ids=[row[0] for row in FAULTS])
def test_fault(framed, edit, error, match):
    intact = framed.read(framed.path)
    edit(framed)
    if error is None:
        for a, b in zip(framed.arrays(framed.read(framed.path)), framed.arrays(intact),
                        strict=True):
            np.testing.assert_array_equal(a, b)
        return
    with pytest.raises(error, match=match.format(key=framed.key)) as info:
        framed.read(framed.path)
    assert str(framed.path) in str(info.value)
