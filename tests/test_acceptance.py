"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The end-to-end criteria
build an 84-subject synthetic cohort and run the CLI pipeline twice (the
second pass feeds the determinism check), which takes a few minutes.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import numeric_grad_sampled, rel_err
from eegconn.cli import core_from_bundle, load_features
from eegconn.cli import main as cli_main
from eegconn.config import parse_config
from eegconn.eeg_io import load_manifest
from eegconn.netmetrics import (
    clustering,
    cn_features,
    global_efficiency,
    shortest_paths,
    symmetrize,
    transitivity,
)
from eegconn.nn import cross_entropy, load_bundle
from eegconn.nn.layers import Dropout, Flatten
from eegconn.pipeline import KINDS as KIND_TABLE
from eegconn.pipeline import (
    ModelSpec,
    band_indices,
    build_domain_network,
    build_feature_fusion,
    predict_with_core,
    time_classification,
)
from eegconn.seeding import derive_rng
from eegconn.spectral import band_pdc, pdc_at
from eegconn.synthetic import make_synthetic_cohort
from eegconn.var_model import (
    build_design,
    fit_var,
    simulate_var,
    var_feature_tensor,
)
from oracles import FrozenDraws, random_stable_var, stacked
from test_netmetrics import efficiency_oracle, floyd_warshall_oracle, triangle_oracle
from test_nn_gradcheck import check_layer

ACCEPT_SEED = 1729
EPOCHS = 25


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({desc}): {state} {detail}".rstrip())
    assert ok, f"criterion {num} ({desc}) failed: {detail}"


# -- criterion 1: VAR recovery -------------------------------------------------


def test_criterion_1_var_recovery():
    start = time.perf_counter()
    rng = derive_rng(ACCEPT_SEED, "c1")
    coeffs = np.zeros((2, 4, 4))
    coeffs[0] = 0.35 * np.eye(4)
    coeffs[0, 0, 1] = 0.25
    coeffs[0, 2, 3] = -0.2
    coeffs[1] = 0.2 * np.eye(4)
    coeffs[1, 3, 0] = 0.15
    rec = simulate_var(coeffs, np.eye(4), 8000, rng)
    model = fit_var(rec, 2)
    err = float(np.abs(model.coeffs - coeffs).max())

    design = build_design(rec, 2)
    resid = design.y - design.x @ stacked(model)
    gram = design.x.T @ resid
    scale = np.linalg.norm(design.x, axis=0)[:, None] * np.linalg.norm(resid, axis=0)[None, :]
    orth = float(np.abs(gram / np.maximum(scale, 1e-300)).max())
    elapsed = time.perf_counter() - start
    report(1, "VAR recovery", err < 0.05 and orth < 1e-6 and elapsed < 5.0,
           f"max|err|={err:.4f} orth={orth:.2e} {elapsed:.2f}s")


# -- criterion 2: PDC normalization --------------------------------------------


def test_criterion_2_pdc_normalization():
    start = time.perf_counter()
    worst = 0.0
    for m in range(100):
        model = random_stable_var(5, 3, derive_rng(ACCEPT_SEED, "c2", m))
        freqs = derive_rng(ACCEPT_SEED, "c2f", m).uniform(0.0, model.rate / 2, size=50)
        for f in freqs:
            p = pdc_at(model, float(f))
            worst = max(worst, float(np.abs((p**2).sum(axis=0) - 1.0).max()))
    elapsed = time.perf_counter() - start
    report(2, "PDC column normalization", worst < 1e-10 and elapsed < 10.0,
           f"max deviation={worst:.2e} {elapsed:.2f}s")


# -- criterion 3: network metrics vs oracles -------------------------------------


def test_criterion_3_network_metric_oracles():
    start = time.perf_counter()
    worst = 0.0
    for m in range(50):
        rng = derive_rng(ACCEPT_SEED, "c3", m)
        w = rng.random((8, 8))
        w[rng.random((8, 8)) > 0.6] = 0.0
        net = symmetrize(w)
        d = shortest_paths(net)
        d_oracle = floyd_warshall_oracle(net.weights)
        finite = np.isfinite(d_oracle)
        worst = max(worst, float(np.abs(d[finite] - d_oracle[finite]).max()))
        assert np.array_equal(np.isfinite(d), finite)
        worst = max(worst, abs(global_efficiency(net) - efficiency_oracle(net.weights)))
        _, c_oracle, t_oracle = triangle_oracle(net.weights)
        ci, _ = clustering(net)
        worst = max(worst, float(np.abs(ci - c_oracle).max()))
        worst = max(worst, abs(transitivity(net) - t_oracle))

    complete = symmetrize(np.ones((6, 6)) - np.eye(6))
    star = np.zeros((5, 5))
    star[0, 1:] = star[1:, 0] = 1.0
    star_net = symmetrize(star)
    closed = (
        abs(global_efficiency(complete) - 1.0) < 1e-12
        and abs(clustering(complete)[1] - 1.0) < 1e-12
        and abs(transitivity(complete) - 1.0) < 1e-12
        and clustering(star_net)[1] == 0.0
        and transitivity(star_net) == 0.0
    )
    elapsed = time.perf_counter() - start
    report(3, "network metrics vs brute-force oracles",
           worst < 1e-10 and closed and elapsed < 5.0,
           f"max diff={worst:.2e} closed-form={closed} {elapsed:.2f}s")


# -- criterion 4: gradient checks ------------------------------------------------


def test_criterion_4_gradient_checks(rng):
    from eegconn.nn.layers import (
        AvgPool1d,
        AvgPool2d,
        Conv1d,
        Conv2d,
        Dense,
        MaxPool2d,
        ReLU,
        Softmax,
    )

    start = time.perf_counter()
    # every layer kind on small shapes, exhaustive coordinates
    cases = [
        (Conv2d(2, 3, 3), rng.standard_normal((2, 5, 5, 2))),
        (Conv1d(3, 4, 3), rng.standard_normal((2, 8, 3))),
        (Dense(6, 4), rng.standard_normal((3, 6))),
        (AvgPool1d(2, 2), rng.standard_normal((2, 8, 3))),
        (AvgPool2d(2, 2), rng.standard_normal((2, 6, 6, 2))),
        (MaxPool2d(2, 2), rng.standard_normal((2, 6, 6, 2))),
        (Flatten(), rng.standard_normal((2, 3, 4))),
        (Softmax(), rng.standard_normal((3, 5))),
    ]
    for layer, x in cases:
        layer.init(rng)
        check_layer(layer, x, rng)
    relu_in = rng.standard_normal((3, 7))
    relu_in[np.abs(relu_in) < 1e-2] += 0.05
    check_layer(ReLU(), relu_in, rng)
    drop = Dropout(0.5)
    drop.rng = FrozenDraws(rng.random((3, 6)))
    check_layer(drop, rng.standard_normal((3, 6)), rng, train=True)

    # full architectures at published sizes, sampled coordinates
    worst = 0.0
    spec = ModelSpec(kind="cnn2d_var", dropout=0.0)
    for domain, x in (
        ("var", rng.standard_normal((2, 16, 16, 5))),
        ("pdc", rng.standard_normal((2, 16, 16, 5))),
        ("cn", rng.standard_normal((2, 34, 5))),
    ):
        net = build_domain_network(domain, spec, seed=derive_seed_for(domain))
        bits = rng.integers(0, 2, size=2)

        def loss():
            return cross_entropy(net.forward(x, train=False), bits)

        net.loss_and_grads(x, bits, train=False)
        grads = {k: v.copy() for k, v in net.grad_dict().items()}
        for key, param in net.param_dict().items():
            coords, approx = smooth_numeric_grads(loss, net, param, rng, n_coords=2)
            worst = max(worst, rel_err(grads[key].reshape(-1)[coords], approx))
    elapsed = time.perf_counter() - start
    report(4, "gradient checks (layers + full architectures)",
           worst < 1e-4 and elapsed < 60.0,
           f"worst full-stack rel err={worst:.2e} {elapsed:.1f}s")


def smooth_numeric_grads(loss, net, param, rng, n_coords):
    """Central differences at ``n_coords`` random coordinates of ``param`` where
    no ReLU of ``net`` switches between the two evaluations.  Where one does,
    the difference straddles a kink and is no oracle for the gradient: a
    published-size first layer feeds 2*16*16 pre-activations, so a step of
    1e-5 crosses zero for some weights."""
    coords, approx = [], []
    for _ in range(20 * n_coords):
        masks = []

        def probe():
            value = loss()
            masks.append([ly._mask for ly in net.layers if ly.kind == "relu"])
            return value

        (c,), (g,) = numeric_grad_sampled(probe, param, rng, n_coords=1)
        if all(np.array_equal(a, b) for a, b in zip(*masks)) and c not in coords:
            coords.append(c)
            approx.append(g)
            if len(coords) == n_coords:
                break
    assert len(coords) == n_coords, "no smooth coordinates found"
    return np.array(coords), np.array(approx)


def derive_seed_for(domain: str) -> int:
    from eegconn.seeding import derive_seed

    return derive_seed(ACCEPT_SEED, "c4", domain)


# -- criterion 5: shape conformance ----------------------------------------------


def test_criterion_5_shape_conformance():
    spec = ModelSpec(kind="cnn2d_var")
    net2d = build_domain_network("var", spec, seed=1)
    flat2d = next(
        net2d.layers[i].output_shape(shape_before(net2d, i))
        for i, ly in enumerate(net2d.layers)
        if isinstance(ly, Flatten)
    )
    net1d = build_domain_network("cn", spec, seed=2)
    flat1d = next(
        net1d.layers[i].output_shape(shape_before(net1d, i))
        for i, ly in enumerate(net1d.layers)
        if isinstance(ly, Flatten)
    )
    fusion = build_feature_fusion(spec, seed=3)

    rec = simulate_var(
        random_stable_var(16, 5, derive_rng(ACCEPT_SEED, "c5")).coeffs,
        np.eye(16), 1200, derive_rng(ACCEPT_SEED, "c5n"),
    )
    model = fit_var(rec, 5)
    var_t = var_feature_tensor(model)
    pdc = band_pdc(model)
    cn = cn_features(pdc)

    ok = (
        flat2d == (16384,)
        and flat1d == (136,)
        and fusion.input_shape[0] == 32904
        and var_t.shape == (16, 16, 5)
        and pdc.values.shape == (16, 16, 5)
        and cn.values.shape == (34, 5)
    )
    report(5, "shape conformance", ok,
           f"flat2d={flat2d[0]} flat1d={flat1d[0]} concat={fusion.input_shape[0]} "
           f"var={var_t.shape} pdc={pdc.values.shape} cn={cn.values.shape}")


def shape_before(net, idx):
    shape = net.input_shape
    for layer in net.layers[:idx]:
        shape = layer.output_shape(shape)
    return shape


# -- criteria 6, 8, 9: synthetic end-to-end runs ----------------------------------

KINDS = "cnn2d_var,cnn2d_pdc,cnn1d_cn,fusion_decision"

CONFIG = """\
manifest = {manifest}
output_dir = {out}
channels = 16
rate = 128.0
var_order = 5
model_kinds = {kinds}
epochs = {epochs}
learning_rate = 0.001
lr_decay = 0.0
batch_size = 16
folds = 5
seed = {seed}
latency_repetitions = 200
"""


@pytest.fixture(scope="session")
def synthetic_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_e2e")
    manifest = make_synthetic_cohort(
        root / "data", seed=ACCEPT_SEED, n_group_a=45, n_group_b=39,
        channels=16, samples=1536,
    )
    runs = {}
    for name in ("a", "b"):
        out = root / f"out_{name}"
        cfg = root / f"run_{name}.cfg"
        cfg.write_text(CONFIG.format(manifest=manifest, out=out, kinds=KINDS,
                                     epochs=EPOCHS, seed=ACCEPT_SEED))
        start = time.perf_counter()
        for command in ("extract", "train", "eval"):
            rc = cli_main([command, "--config", str(cfg)])
            assert rc == 0, f"{command} failed on run {name}"
        runs[name] = {"out": out, "cfg": cfg, "wall": time.perf_counter() - start}
    return runs


def test_criterion_6_synthetic_end_to_end(synthetic_runs):
    run = synthetic_runs["a"]
    n_feature_files = len(list((run["out"] / "features").glob("*.feat")))
    payload = json.loads((run["out"] / "metrics.json").read_text())
    modified = {row["model"]: row["mean"]["modified_accuracy"] for row in payload["rows"]}
    singles = [modified["cnn2d_var"], modified["cnn2d_pdc"], modified["cnn1d_cn"]]
    ok = (
        n_feature_files == 84 * 3
        and all(v >= 95.0 for v in singles)
        and modified["fusion_decision"] >= min(singles)
        and run["wall"] < 900.0
    )
    detail = (f"var={singles[0]:.1f} pdc={singles[1]:.1f} cn={singles[2]:.1f} "
              f"decision={modified['fusion_decision']:.1f} "
              f"features={n_feature_files} wall={run['wall']:.0f}s")
    report(6, "synthetic cohort classification", ok, detail)


def test_criterion_7_real_dataset_informational():
    manifest = os.environ.get("EEGCONN_DATASET_MANIFEST", "")
    if not manifest or not Path(manifest).exists():
        print("[acceptance] criterion 7 (real dataset): SKIP "
              "(set EEGCONN_DATASET_MANIFEST to a 16-channel 128 Hz cohort manifest)")
        pytest.skip("real dataset not supplied; informational criterion")
    out = Path(manifest).parent / "eegconn_out"
    cfg = out.parent / "eegconn_real.cfg"
    fmt = os.environ.get("EEGCONN_DATASET_FORMAT", "csv_matrix")
    epochs = int(os.environ.get("EEGCONN_DATASET_EPOCHS", "80"))
    cfg.write_text(CONFIG.format(manifest=manifest, out=out, kinds=KINDS,
                                 epochs=epochs, seed=ACCEPT_SEED)
                   + f"data_format = {fmt}\n")
    for command in ("extract", "train", "eval"):
        assert cli_main([command, "--config", str(cfg)]) == 0
    payload = json.loads((out / "metrics.json").read_text())
    modified = {row["model"]: row["mean"]["modified_accuracy"] for row in payload["rows"]}
    print("[acceptance] criterion 7 (real dataset, informational): "
          f"decision-fusion modified accuracy = {modified['fusion_decision']:.2f}% "
          "(reference result on this cohort: 93.06%; no pass/fail tolerance)")


def test_criterion_8_determinism(synthetic_runs):
    a = (synthetic_runs["a"]["out"] / "metrics.json").read_bytes()
    b = (synthetic_runs["b"]["out"] / "metrics.json").read_bytes()
    report(8, "byte-identical metrics for identical seeds", a == b,
           f"{len(a)} bytes compared")


def test_criterion_9_latency(synthetic_runs):
    run = synthetic_runs["a"]
    rc = cli_main(["report", "--config", str(run["cfg"])])
    latency_csv = run["out"] / "report" / "latency.csv"
    ok = rc == 0 and latency_csv.exists()
    worst = 0.0
    if ok:
        rows = latency_csv.read_text().splitlines()[1:]
        means = {ln.split(",")[0]: float(ln.split(",")[2]) for ln in rows}
        worst = max(means.values())
        ok = len(means) == 4 and worst < 50.0
    report(9, "single-subject latency under 50 ms", ok,
           f"worst mean={worst:.2f} ms, table={latency_csv.name}")


def test_decision_fusion_latency_is_compositional(synthetic_runs):
    # the vote ensemble runs the three domain forwards, so its latency should
    # sit within 20 percent of the sum of the single-domain latencies.  A slow
    # phase of a shared host (seconds long) can land on one model of a
    # sequential pass, so the four models alternate over many short rounds
    # (the order reversed every other round) and the median of the per-round
    # ratios is compared.
    cfg = parse_config(synthetic_runs["a"]["cfg"])
    manifest = load_manifest(cfg.manifest)
    features, band_names = load_features(cfg, manifest)
    sid = manifest.subject_ids()[0]
    members = ("cnn2d_var", "cnn2d_pdc", "cnn1d_cn")
    models = {}
    for kind in (*members, "fusion_decision"):
        entries, meta = load_bundle(synthetic_runs["a"]["out"] / "models" / f"{kind}_fold0.model")
        models[kind] = (core_from_bundle(entries, meta),
                        band_indices(meta.get("band_filter") or None, band_names),
                        KIND_TABLE[kind].results[0].feature_set)
    ratios = []
    for r in range(41):
        order = list(models) if r % 2 == 0 else list(reversed(models))
        ms = {kind: time_classification(models[kind][0], kind, features, sid, repetitions=5,
                                        band_idx=models[kind][1], feature_set=models[kind][2])
              for kind in order}
        ratios.append(ms["fusion_decision"] / sum(ms[m] for m in members))
    assert abs(float(np.median(ratios)) - 1.0) <= 0.2, ratios


def test_decision_fusion_runs_each_member_forward_once(synthetic_runs, monkeypatch):
    # the operation-count form of the latency test above, which no host noise
    # moves: one fusion_decision request runs each member net's forward once
    cfg = parse_config(synthetic_runs["a"]["cfg"])
    manifest = load_manifest(cfg.manifest)
    features, band_names = load_features(cfg, manifest)
    entries, meta = load_bundle(synthetic_runs["a"]["out"] / "models" / "fusion_decision_fold0.model")
    fused = core_from_bundle(entries, meta)
    calls = {}
    for domain, net in fused.core.members.items():
        def forward(x, *args, _domain=domain, _forward=net.forward, **kwargs):
            calls[_domain] = calls.get(_domain, 0) + 1
            return _forward(x, *args, **kwargs)
        monkeypatch.setattr(net, "forward", forward)
    predict_with_core(fused, "fusion_decision", features, [manifest.subject_ids()[0]],
                      band_indices(meta.get("band_filter") or None, band_names),
                      KIND_TABLE["fusion_decision"].results[0].feature_set)
    assert calls == {"var": 1, "pdc": 1, "cn": 1}
