import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from oracles import resign

from eegconn.errors import ChecksumError, ShapeError, TrainingDivergedError, ValidationError
from eegconn.nn import (
    Dense,
    MultiBranchNetwork,
    Network,
    ReLU,
    Softmax,
    load_bundle,
    save_bundle,
)
from eegconn.nn.layers import Conv1d, Conv2d, Dropout, Flatten
from eegconn.nn.optim import CHUNK, AdamState, adam_step
from eegconn.nn.serialize import FORMAT_MAJOR, FORMAT_MINOR, MAGIC
from eegconn.pipeline import ModelSpec, build_domain_network, build_feature_fusion, train_model
from eegconn.seeding import derive_rng


class TestAdam:
    def test_zero_gradient_is_noop(self, rng):
        w = rng.standard_normal((3, 2))
        before = w.copy()
        state = AdamState()
        adam_step({"w": w}, {"w": np.zeros_like(w)}, state)
        np.testing.assert_array_equal(w, before)
        assert state.step == 1

    def test_quadratic_descent(self):
        w = np.array([1.0])
        state = AdamState(lr=1e-3, decay=0.0)
        for _ in range(4000):
            adam_step({"w": w}, {"w": 2.0 * w}, state)
        assert abs(w[0]) < 0.5

    def test_first_step_magnitude_independent_of_gradient_scale(self):
        lr, decay, eps = 1e-4, 1e-6, 1e-8
        for scale in (1e-6, 1.0, 1e6):
            w = np.array([0.3])
            adam_step({"w": w}, {"w": np.array([scale])},
                      AdamState(lr=lr, decay=decay, eps=eps))
            moved = 0.3 - w[0]
            lr1 = lr / (1.0 + decay)
            # bias-corrected first step: lr1 * g / (|g| + eps), i.e. lr1 * (1 - tiny)
            assert moved == pytest.approx(lr1 * scale / (scale + eps), rel=1e-12)
            assert lr1 * 0.98 < moved <= lr1

    def test_decay_shrinks_steps(self):
        state = AdamState(lr=1.0, decay=0.5)
        w = np.array([0.0])
        adam_step({"w": w}, {"w": np.array([1.0])}, state)
        first = abs(w[0])
        w2 = np.array([0.0])
        state2 = AdamState(lr=1.0, decay=0.5, step=9)
        adam_step({"w": w2}, {"w": np.array([1.0])}, state2)
        assert abs(w2[0]) < first

    # one bias, smaller than a block, exactly one block, several blocks plus a tail
    ORACLE_SIZES = {"bias": (1,), "small": (3, 7), "block": (CHUNK,), "many": (3 * CHUNK + 123,)}

    @staticmethod
    def textbook_step(params, grads, state):
        """The per-array update, written as the formula reads."""
        state.step += 1
        t = state.step
        lr_t = state.lr / (1.0 + state.decay * t)
        c1 = 1.0 - state.beta1**t
        c2 = 1.0 - state.beta2**t
        for key, p in params.items():
            g = grads[key]
            m = state.m.setdefault(key, np.zeros_like(p))
            v = state.v.setdefault(key, np.zeros_like(p))
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * g * g
            p -= lr_t * (m / c1) / (np.sqrt(v / c2) + state.eps)

    def test_blocked_update_is_bit_identical_to_textbook(self, rng):
        params = {k: rng.standard_normal(shape) for k, shape in self.ORACLE_SIZES.items()}
        expect = {k: p.copy() for k, p in params.items()}
        state = AdamState(lr=0.05, decay=0.3)
        ref = AdamState(lr=0.05, decay=0.3)
        for _ in range(5):
            grads = {k: rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6)
                     for k, shape in self.ORACLE_SIZES.items()}
            adam_step(params, grads, state)
            self.textbook_step(expect, grads, ref)
        for key in self.ORACLE_SIZES:
            np.testing.assert_array_equal(params[key], expect[key], err_msg=key)
            np.testing.assert_array_equal(state.m[key], ref.m[key], err_msg=key)
            np.testing.assert_array_equal(state.v[key], ref.v[key], err_msg=key)

    def test_steps_after_the_first_allocate_no_parameter_array(self, rng):
        params = {k: rng.standard_normal(shape) for k, shape in self.ORACLE_SIZES.items()}
        grads = {k: rng.standard_normal(shape) for k, shape in self.ORACLE_SIZES.items()}
        state = AdamState(decay=0.3)
        adam_step(params, grads, state)
        one_array = params["block"].nbytes
        tracemalloc.start()
        try:
            for _ in range(4):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                adam_step(params, grads, state)
                assert tracemalloc.get_traced_memory()[1] - base < one_array
        finally:
            tracemalloc.stop()

    def test_unwritable_parameter_raises(self):
        w = np.broadcast_to(0.0, (4,))
        with pytest.raises(ValueError):
            adam_step({"w": w}, {"w": np.ones(4)}, AdamState())


def tiny_net(seed=0):
    return Network([Dense(3, 8), ReLU(), Dense(8, 2), Softmax()],
                   input_shape=(3,), seed=seed).initialize()


def separable_data(rng, n=40):
    x = np.vstack([
        rng.standard_normal((n // 2, 3)) + 2.5,
        rng.standard_normal((n // 2, 3)) - 2.5,
    ])
    bits = np.array([1] * (n // 2) + [0] * (n // 2))
    return x, bits


class TestTrainModel:
    def spec(self, **kw):
        base = dict(kind="cnn2d_var", epochs=60, learning_rate=0.01, lr_decay=0.0)
        base.update(kw)
        return ModelSpec(**base)

    def test_learns_separable_data(self, rng):
        x, bits = separable_data(rng)
        xv, bv = separable_data(derive_rng(1, "val"), n=10)
        net = tiny_net()
        res = train_model(net, x, bits, xv, bv, self.spec(epochs=50), seed=7)
        assert res.curve[-1][0] < np.log(2.0)
        preds = net.predict_proba(x).argmax(axis=1)
        assert (preds == bits).mean() == 1.0

    def test_zero_epochs_returns_initialized_model(self, rng):
        x, bits = separable_data(rng)
        net = tiny_net(seed=9)
        before = net.get_state()
        res = train_model(net, x, bits, x, bits, self.spec(epochs=0), seed=7)
        assert res.curve == [] and res.best_epoch == -1
        for key, arr in net.param_dict().items():
            np.testing.assert_array_equal(arr, before[key])

    def test_identical_seeds_identical_curves(self, rng):
        x, bits = separable_data(rng)
        xv, bv = separable_data(derive_rng(2, "val"), n=10)
        curves = []
        finals = []
        for _ in range(2):
            net = tiny_net(seed=42)
            res = train_model(net, x, bits, xv, bv, self.spec(epochs=20), seed=11)
            curves.append(res.curve)
            finals.append(net.get_state())
        assert curves[0] == curves[1]
        for key in finals[0]:
            np.testing.assert_array_equal(finals[0][key], finals[1][key])

    def test_minibatch_path_deterministic(self, rng):
        x, bits = separable_data(rng)
        xv, bv = separable_data(derive_rng(3, "val"), n=10)
        spec = self.spec(epochs=10, batch_size=8)
        r1 = train_model(tiny_net(seed=1), x, bits, xv, bv, spec, seed=5)
        r2 = train_model(tiny_net(seed=1), x, bits, xv, bv, spec, seed=5)
        assert r1.curve == r2.curve

    def test_returns_min_val_snapshot(self, rng):
        x, bits = separable_data(rng)
        xv, bv = separable_data(derive_rng(4, "val"), n=10)
        net = tiny_net(seed=3)
        res = train_model(net, x, bits, xv, bv, self.spec(epochs=30), seed=13)
        from eegconn.nn import cross_entropy

        val_now = cross_entropy(net.predict_proba(xv), bv)
        best = min(v for _, v in res.curve)
        assert val_now == pytest.approx(best, abs=1e-12)
        assert res.curve[res.best_epoch][1] == best

    def test_divergence_raises_with_epoch(self, rng):
        x, bits = separable_data(rng)
        net = tiny_net(seed=4)
        spec = self.spec(epochs=50, learning_rate=1e154)
        with np.errstate(all="ignore"), pytest.raises((TrainingDivergedError, FloatingPointError)):
            train_model(net, x, bits, x, bits, spec, seed=17)


@pytest.mark.parametrize("build", [
    lambda spec: build_domain_network("var", spec, seed=6),
    lambda spec: build_feature_fusion(spec, seed=6),
], ids=["cnn2d_var", "fusion_feature"])
def test_inference_between_training_steps_changes_no_byte(build, rng):
    # train_model scores the validation split between epochs; that forward
    # must leave the next training step exactly as it would have been
    spec = ModelSpec(kind="cnn2d_var", channels=4, lags=2, n_bands=3, conv2d_filters=(5, 4),
                     conv1d_filters=3, dense2d=8, dense1d=6, fusion_dense=8, dropout=0.25)
    nets = [build(spec), build(spec)]
    states = [AdamState(lr=1e-2), AdamState(lr=1e-2)]

    def batch(n):
        net = nets[0]
        if net.branches:
            return [rng.standard_normal((n, *shape)) for shape in net.input_shapes]
        return rng.standard_normal((n, *net.input_shape))

    val = batch(3)
    for _ in range(4):
        x, bits = batch(6), rng.integers(0, 2, size=6)
        for i, (net, state) in enumerate(zip(nets, states)):
            net.loss_and_grads(x, bits, train=True)
            adam_step(net.param_dict(), net.grad_dict(), state)
            if i == 0:
                net.predict_proba(val)
    ours, theirs = (net.param_dict() for net in nets)
    for key in ours:
        np.testing.assert_array_equal(ours[key].view(np.int64), theirs[key].view(np.int64))


class TestDeterministicInit:
    def test_same_seed_same_weights(self):
        a = tiny_net(seed=77)
        b = tiny_net(seed=77)
        for key in a.param_dict():
            np.testing.assert_array_equal(a.param_dict()[key], b.param_dict()[key])

    def test_different_seed_different_weights(self):
        a = tiny_net(seed=77)
        b = tiny_net(seed=78)
        assert np.abs(a.param_dict()["0.w"] - b.param_dict()["0.w"]).max() > 0


class TestSerialization:
    def conv_net(self, seed=5):
        return Network(
            [Conv2d(2, 3, 3), ReLU(), Flatten(), Dense(27, 4), ReLU(), Dropout(0.5),
             Dense(4, 2), Softmax()],
            input_shape=(3, 3, 2), seed=seed,
        ).initialize()

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        net = self.conv_net()
        path = tmp_path / "m.model"
        save_bundle(path, {"main": net}, meta={"model_kind": "cnn2d_var"})
        entries, meta = load_bundle(path)
        loaded = entries["main"]
        assert meta["model_kind"] == "cnn2d_var"
        for key, arr in net.param_dict().items():
            np.testing.assert_array_equal(loaded.param_dict()[key], arr)
        x = rng.standard_normal((2, 3, 3, 2))
        np.testing.assert_array_equal(net.predict_proba(x), loaded.predict_proba(x))

    def test_save_load_save_files_identical(self, tmp_path):
        net = self.conv_net()
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_bundle(p1, {"main": net}, meta={"k": 1})
        entries, meta = load_bundle(p1)
        save_bundle(p2, entries, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checksum_detects_corruption(self, tmp_path):
        net = self.conv_net()
        path = tmp_path / "m.model"
        save_bundle(path, {"main": net}, meta={})
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_bundle(path)

    def test_array_entries_roundtrip(self, tmp_path, rng):
        arrays = {"weights": rng.standard_normal(7), "bias": np.array([0.25])}
        path = tmp_path / "svm.model"
        save_bundle(path, {"svm": arrays}, meta={"model_kind": "svm_linear"})
        entries, _ = load_bundle(path)
        np.testing.assert_array_equal(entries["svm"]["weights"], arrays["weights"])
        np.testing.assert_array_equal(entries["svm"]["bias"], arrays["bias"])

    def test_multibranch_roundtrip(self, tmp_path, rng):
        net = MultiBranchNetwork(
            branches=[[Conv1d(2, 3, 3), ReLU(), Flatten()], [Flatten()]],
            trunk=[Dense(4 * 3 + 6, 4), ReLU(), Dense(4, 2), Softmax()],
            input_shapes=[(4, 2), (2, 3)],
            seed=6,
        ).initialize()
        path = tmp_path / "mb.model"
        save_bundle(path, {"main": net}, meta={})
        entries, _ = load_bundle(path)
        xs = [rng.standard_normal((2, 4, 2)), rng.standard_normal((2, 2, 3))]
        np.testing.assert_array_equal(net.predict_proba(xs), entries["main"].predict_proba(xs))

    def test_bytes_equal_the_concatenated_layout(self, tmp_path, rng):
        net = self.conv_net()
        arrays = {"ints": np.arange(24).reshape(4, 6)[:, ::2], "bias": np.array([0.25])}
        assert not arrays["ints"].flags.c_contiguous
        meta = {"model_kind": "fusion_score", "k": [1, 2]}
        path = tmp_path / "m.model"
        save_bundle(path, {"main": net, "stats": arrays}, meta=meta)

        groups = {"main": net.param_dict(),
                  "stats": {k: np.asarray(v, dtype=float) for k, v in arrays.items()}}
        manifest, blobs = [], []
        for role in sorted(groups):
            for key in sorted(groups[role]):
                arr = np.ascontiguousarray(groups[role][key], dtype="<f8")
                manifest.append({"entry": role, "key": key, "shape": list(arr.shape)})
                blobs.append(arr.tobytes())
        header = json.dumps({
            "format_major": FORMAT_MAJOR,
            "format_minor": FORMAT_MINOR,
            "meta": meta,
            "entries": [{"role": "main", "descriptor": net.descriptor()},
                        {"role": "stats", "descriptor": {"type": "arrays"}}],
            "params": manifest,
        }, sort_keys=True).encode()
        body = MAGIC + struct.pack("<II", FORMAT_MAJOR, len(header)) + header + b"".join(blobs)
        assert path.read_bytes() == body + hashlib.sha256(body).digest()

    @pytest.mark.parametrize("bad", [[1.0, 2.0], {"w": "not a number"}],
                             ids=["list-entry", "non-numeric-array"])
    def test_unserializable_entry_writes_no_file(self, tmp_path, bad):
        path = tmp_path / "m.model"
        with pytest.raises(ValidationError):
            save_bundle(path, {"main": self.conv_net(), "zbad": bad}, meta={})
        assert not path.exists()


class TestStateBinding:
    def multibranch(self):
        return MultiBranchNetwork(
            branches=[[Flatten()], [Flatten()]],
            trunk=[Dense(4, 2), Softmax()],
            input_shapes=[(2,), (2,)],
            seed=2,
        ).initialize()

    def test_multibranch_set_state_rejects_broadcast(self):
        net = self.multibranch()
        state = net.get_state()
        state["t.0.b"] = np.array([0.5])  # (1,) would broadcast over (2,)
        before = net.get_state()
        with pytest.raises(ShapeError):
            net.set_state(state)
        for key, arr in net.param_dict().items():
            np.testing.assert_array_equal(arr, before[key])

    def test_network_set_state_rejects_broadcast(self):
        net = tiny_net()
        state = net.get_state()
        state["2.b"] = np.array([0.5])
        with pytest.raises(ShapeError):
            net.set_state(state)

    def test_set_state_rejects_wrong_keys(self):
        net = self.multibranch()
        state = net.get_state()
        state["t.9.w"] = state.pop("t.0.w")
        with pytest.raises(ValidationError):
            net.set_state(state)

    def test_set_state_copies(self):
        net = self.multibranch()
        state = {k: np.full_like(v, 0.25) for k, v in net.get_state().items()}
        net.set_state(state)
        state["t.0.w"][...] = 9.0
        assert (net.param_dict()["t.0.w"] == 0.25).all()


class TestBundleFaults:
    @pytest.fixture
    def bundle(self, tmp_path):
        path = tmp_path / "m.model"
        save_bundle(path, {"main": TestSerialization().conv_net()}, meta={"k": 1})
        return path

    @pytest.mark.parametrize("keep", [-100, 60, 10, 0],
                             ids=["payload", "header", "shorter-than-prefix", "empty"])
    def test_truncated_file(self, bundle, keep):
        bundle.write_bytes(bundle.read_bytes()[:keep])
        with pytest.raises(ChecksumError):
            load_bundle(bundle)

    def test_bad_magic(self, bundle):
        resign(bundle, MAGIC, as_magic=b"NOTAMODL")
        with pytest.raises(ValidationError, match="bad magic"):
            load_bundle(bundle)

    def test_major_version_bump_rejected(self, bundle):
        resign(bundle, MAGIC, major=2)
        with pytest.raises(ValidationError, match="major version 2"):
            load_bundle(bundle)

    def test_minor_version_bump_still_readable(self, bundle):
        resign(bundle, MAGIC, lambda h: h.update(format_minor=7))
        entries, meta = load_bundle(bundle)
        assert meta == {"k": 1}
        assert isinstance(entries["main"], Network)

    def test_manifest_beyond_payload(self, bundle):
        def grow(header):
            header["params"][-1]["shape"] = [4, 3]  # the last array, 6.w, is (4, 2)
        resign(bundle, MAGIC, grow)
        with pytest.raises((ChecksumError, ValidationError), match="payload bytes"):
            load_bundle(bundle)

    @pytest.mark.parametrize("extra", [8, 3])  # one whole value, part of one
    def test_trailing_payload_bytes(self, bundle, extra):
        resign(bundle, MAGIC, extra_payload=bytes(extra))
        with pytest.raises(ChecksumError, match=f"{extra} trailing payload bytes"):
            load_bundle(bundle)

    @pytest.mark.parametrize("key, edit", [
        ("entries", lambda h: h.pop("entries")),
        ("meta", lambda h: h.pop("meta")),
        ("meta", lambda h: h.update(meta=[1])),
        ("params", lambda h: h.update(params={})),
        ("shape", lambda h: h["params"][0].pop("shape")),
        ("entry", lambda h: h["params"][0].update(entry=3)),
        ("role", lambda h: h["entries"][0].pop("role")),
        ("descriptor", lambda h: h["entries"][0].update(descriptor="main")),
    ], ids=["no-entries", "no-meta", "list-meta", "dict-params", "record-without-shape",
            "numeric-entry", "entry-without-role", "string-descriptor"])
    def test_header_key_missing_or_mistyped(self, bundle, key, edit):
        resign(bundle, MAGIC, edit)
        with pytest.raises(ValidationError, match=f"{re.escape(str(bundle))}: header key '{key}'"):
            load_bundle(bundle)

    def test_unknown_layer_kind(self, bundle):
        def rename(header):
            header["entries"][0]["descriptor"]["layers"][1]["kind"] = "gelu"
        resign(bundle, MAGIC, rename)
        with pytest.raises(ValidationError, match="gelu"):
            load_bundle(bundle)

    def test_shape_mismatch_with_architecture(self, bundle):
        def swap(header):
            params = header["params"]
            w = next(p for p in params if p["key"] == "6.w")  # Dense(4, 2)
            w["shape"] = [2, 4]
        resign(bundle, MAGIC, swap)
        with pytest.raises(ShapeError):
            load_bundle(bundle)

    def test_missing_parameter_key(self, bundle):
        def drop(header):
            rec = next(p for p in header["params"] if p["key"] == "6.b")
            rec["key"] = "7.b"
        resign(bundle, MAGIC, drop)
        with pytest.raises(ValidationError):
            load_bundle(bundle)


class TestLoadedNetworks:
    def test_params_writable_contiguous_float64(self, tmp_path, rng):
        net = TestSerialization().conv_net()
        arrays = {"weights": rng.standard_normal(7)}
        path = tmp_path / "m.model"
        save_bundle(path, {"main": net, "svm": arrays}, meta={})
        entries, _ = load_bundle(path)
        loaded = list(entries["main"].param_dict().values()) + list(entries["svm"].values())
        for arr in loaded:
            assert arr.flags.writeable and arr.flags.c_contiguous
            assert arr.dtype == np.float64
        w = entries["main"].param_dict()["0.w"]
        w += 1.0
        np.testing.assert_array_equal(w, net.param_dict()["0.w"] + 1.0)

    def test_dropout_streams_match_initialize(self, tmp_path):
        net = TestSerialization().conv_net(seed=8)
        path = tmp_path / "m.model"
        save_bundle(path, {"main": net}, meta={})
        loaded = load_bundle(path)[0]["main"]
        fresh = TestSerialization().conv_net(seed=8)
        x = np.ones((3, 3, 3, 2))
        np.testing.assert_array_equal(loaded.forward(x, train=True), fresh.forward(x, train=True))

    def test_multibranch_dropout_streams_match_initialize(self, tmp_path):
        def build():
            return MultiBranchNetwork(
                branches=[[Flatten(), Dropout(0.5)], [Flatten()]],
                trunk=[Dense(6, 4), Dropout(0.5), Dense(4, 2), Softmax()],
                input_shapes=[(2, 2), (2,)],
                seed=12,
            ).initialize()

        path = tmp_path / "mb.model"
        save_bundle(path, {"main": build()}, meta={})
        loaded = load_bundle(path)[0]["main"]
        fresh = build()
        xs = [np.ones((5, 2, 2)), np.ones((5, 2))]
        np.testing.assert_array_equal(loaded.forward(xs, train=True),
                                      fresh.forward(xs, train=True))

    def test_loading_draws_no_weights(self, tmp_path, monkeypatch):
        from eegconn.nn import layers

        path = tmp_path / "m.model"
        save_bundle(path, {"main": TestSerialization().conv_net()}, meta={})

        def refuse(*args, **kwargs):
            raise AssertionError("weights drawn while loading")

        monkeypatch.setattr(layers, "_glorot", refuse)
        for cls in layers.LAYER_KINDS.values():
            monkeypatch.setattr(cls, "init", refuse)
        assert isinstance(load_bundle(path)[0]["main"], Network)
