import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from oracles import flip_bit, resign, retarget

from eegconn.container import MAGIC, read_container, whole_file, write_container
from eegconn.errors import ChecksumError, ShapeError, ValidationError
from eegconn.nn import (
    Dense,
    MultiBranchNetwork,
    Network,
    ReLU,
    Softmax,
    load_bundle,
    save_bundle,
)
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
    flip_bit(f.path)


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


# -- bundle entry descriptors ----------------------------------------------------


def _fusion_bundle(path) -> None:
    net = MultiBranchNetwork([[Flatten()], [Flatten()]], [Dense(10, 2), Softmax()],
                             input_shapes=[(3, 2), (4,)], seed=3).initialize()
    save_bundle(path, {"main": net}, meta={})


def _descriptor(edit):
    """A header mutation applying ``edit`` to the first entry's descriptor."""
    return lambda header: edit(header["entries"][0]["descriptor"])


DESCRIPTOR_FAULTS = [
    # id, bundle maker, descriptor edit, what the error must name: the key or the layer
    ("no-seed", _bundle, lambda d: d.pop("seed"), "'seed'"),
    ("no-name", _bundle, lambda d: d.pop("name"), "'name'"),
    ("no-layers", _bundle, lambda d: d.pop("layers"), "'layers'"),
    ("no-type", _bundle, lambda d: d.pop("type"), "'type'"),
    ("no-trunk", _fusion_bundle, lambda d: d.pop("trunk"), "'trunk'"),
    ("no-branches", _fusion_bundle, lambda d: d.pop("branches"), "'branches'"),
    ("layer-without-kind", _bundle, lambda d: d["layers"][1].pop("kind"), "'kind'"),
    ("unknown-layer-argument", _bundle, lambda d: d["layers"][1].update(width=3), "'width'"),
    ("missing-layer-argument", _bundle, lambda d: d["layers"][1].pop("out_features"),
     "'out_features'"),
    ("branch-argument", _fusion_bundle, lambda d: d["branches"][0][0].update(axis=1), "'axis'"),
    ("no-input-shape", _bundle, lambda d: d.pop("input_shape"), "'input_shape'"),
    ("no-input-shapes", _fusion_bundle, lambda d: d.pop("input_shapes"), "'input_shapes'"),
    ("input-shape-not-numbers", _bundle, lambda d: d.update(input_shape=["a", 2]), "'a'"),
    ("input-shape-misfits-layers", _bundle, lambda d: d.update(input_shape=[3, 3]), "(dense)"),
    ("layer-misfits-parameters", _bundle,
     lambda d: d["layers"][1].update(in_features=7) or d.update(input_shape=[7]), "1.w"),
]


@pytest.mark.parametrize("make, edit, names", [row[1:] for row in DESCRIPTOR_FAULTS],
                         ids=[row[0] for row in DESCRIPTOR_FAULTS])
def test_descriptor_fault_names_the_file_and_what_is_wrong(tmp_path, make, edit, names):
    path = tmp_path / "net.model"
    make(path)
    load_bundle(path)
    resign(path, serialize.MAGIC, _descriptor(edit))
    with pytest.raises((ValidationError, ShapeError),
                       match=f"^{re.escape(str(path))}: .*{re.escape(names)}"):
        load_bundle(path)


# -- references between bundles --------------------------------------------------


def _member_net(seed: int) -> Network:
    return Network([Flatten(), Dense(6, 2), Softmax()], input_shape=(3, 2), seed=seed).initialize()


def _ref_pair(tmp_path, member_name: str = "member.model"):
    """A member bundle and an ensemble that refers to its net; their paths."""
    member = tmp_path / member_name
    digest = save_bundle(member, {"main": _member_net(4)}, meta={"k": "member"})
    ens = tmp_path / "ens.model"
    save_bundle(ens, {"member_a": serialize.BundleRef(member.name, digest, "main"),
                      "stage2": _member_net(9)}, meta={"k": "ens"})
    return member, ens


def _header(path) -> dict:
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 12)
    return json.loads(raw[16:16 + length])


def test_save_bundle_returns_the_trailer_digest(tmp_path):
    member, _ = _ref_pair(tmp_path)
    raw = member.read_bytes()
    digest = save_bundle(tmp_path / "again.model", {"main": _member_net(4)}, meta={"k": "member"})
    assert digest == raw[-32:].hex() == hashlib.sha256(raw[:-32]).hexdigest()


def test_reference_resolves_to_the_member_net_and_stores_no_parameters(tmp_path):
    member, ens = _ref_pair(tmp_path)
    entries, meta = load_bundle(ens)
    assert meta == {"k": "ens"} and set(entries) == {"member_a", "stage2"}
    want = load_bundle(member)[0]["main"].param_dict()
    got = entries["member_a"].param_dict()
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])
    header = _header(ens)
    ref = next(e["descriptor"] for e in header["entries"] if e["role"] == "member_a")
    assert ref == {"type": "bundle_ref", "file": member.name,
                   "sha256": hashlib.sha256(member.read_bytes()[:-32]).hexdigest(),
                   "role": "main"}
    assert {rec["entry"] for rec in header["params"]} == {"stage2"}


def test_shared_cache_reads_each_file_once(tmp_path, monkeypatch):
    member, ens = _ref_pair(tmp_path)
    read = serialize.read_framed
    seen = []
    monkeypatch.setattr(serialize, "read_framed",
                        lambda path, *args: seen.append(path) or read(path, *args))
    cache = {}
    net = load_bundle(member, cache)[0]["main"]
    assert load_bundle(ens, cache)[0]["member_a"] is net
    assert load_bundle(ens, cache)[0]["member_a"] is net
    assert seen == [member, ens]


REF_FAULTS = [
    # id, edit of (member, ensemble), error, message pattern ({member}: the member's path)
    ("missing-member", lambda m, e: m.unlink(), ValidationError,
     "member bundle {member} cannot be read"),
    ("tampered-member", lambda m, e: flip_bit(m), ChecksumError,
     "member bundle {member}: checksum mismatch"),
    ("stale-member", lambda m, e: save_bundle(m, {"main": _member_net(5)}, meta={"k": "member"}),
     ChecksumError, "member bundle {member} has sha256 [0-9a-f]{{64}}, not the recorded"),
    ("parent-directory", lambda m, e: retarget(e, "member_a", file=f"../{m.name}"),
     ValidationError, "member file '../member.model' is not a file name"),
    ("absolute-path", lambda m, e: retarget(e, "member_a", file=str(m)), ValidationError,
     "member file '{member}' is not a file name"),
    ("empty-name", lambda m, e: retarget(e, "member_a", file=""), ValidationError,
     "member file '' is not a file name"),
    ("unknown-role", lambda m, e: retarget(e, "member_a", role="trunk"), ValidationError,
     "member bundle {member} has no entry 'trunk'"),
    ("sha-not-text", lambda m, e: retarget(e, "member_a", sha256=7), ValidationError,
     "header key 'sha256'"),
]


@pytest.mark.parametrize("edit, error, match", [row[1:] for row in REF_FAULTS],
                         ids=[row[0] for row in REF_FAULTS])
def test_reference_fault_names_both_files(tmp_path, edit, error, match):
    member, ens = _ref_pair(tmp_path)
    edit(member, ens)
    with pytest.raises(error, match=f"^{re.escape(str(ens))}: "
                       + match.format(member=re.escape(str(member)))):
        load_bundle(ens)


def test_member_that_holds_references_is_refused(tmp_path):
    member, ens = _ref_pair(tmp_path)
    outer = tmp_path / "outer.model"
    digest = hashlib.sha256(ens.read_bytes()[:-32]).hexdigest()
    save_bundle(outer, {"member_a": serialize.BundleRef(ens.name, digest, "stage2")}, meta={})
    with pytest.raises(ValidationError, match=f"^{re.escape(str(outer))}: member bundle "
                       f"{re.escape(str(ens))} holds references itself"):
        load_bundle(outer)


@pytest.mark.parametrize("name", ["../member.model", "/abs/member.model", "", ".", "sub/m.model"])
def test_writer_refuses_a_reference_outside_the_directory(tmp_path, name):
    path = tmp_path / "ens.model"
    with pytest.raises(ValidationError, match="is not a file name"):
        save_bundle(path, {"member_a": serialize.BundleRef(name, "0" * 64, "main")}, meta={})
    assert not path.exists()


# Writes a VAR container over argv 1 with the writer's process killed after
# the first two chunks of the file, as a crash would.
KILL_MID_WRITE = r"""
import os
import sys
import types

import numpy as np

from eegconn import container


class DieOnThirdChunk:  # stands in for the sha256 that sees each chunk before the file
    def __init__(self):
        self.chunks = 0

    def update(self, chunk):
        self.chunks += 1
        if self.chunks == 3:
            os._exit(9)


container.hashlib = types.SimpleNamespace(sha256=DieOnThirdChunk)
container.write_container(sys.argv[1], "VAR", np.ones((2, 2, 1)), "s1")
"""


class TestWholeFile:
    def test_body_that_raises_leaves_the_earlier_file(self, tmp_path):
        path = tmp_path / "features" / "s1_var.feat"  # the writer makes the directory
        write_container(path, "VAR", np.zeros((2, 2, 1)), "s1")
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="cut short"):
            with whole_file(path) as fh:
                fh.write(before[:10])
                raise RuntimeError("cut short")
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["s1_var.feat"]

    def test_killed_writer_leaves_the_earlier_container(self, tmp_path):
        path = tmp_path / "s1_var.feat"
        write_container(path, "VAR", np.zeros((2, 2, 1)), "s1")
        before = path.read_bytes()
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", KILL_MID_WRITE, str(path)],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 9, proc.stderr
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s1_var.feat",
                                                              "s1_var.feat.partial"]
