import ast
import hashlib
import os
import pickle
import re
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegconn.models import RowFiles, core_from_bundle
from eegconn.eeg_io import CohortManifest, ManifestEntry
from eegconn import pipeline
from eegconn.errors import ValidationError
from eegconn.nn import load_bundle, serialize
from eegconn.pipeline import (
    DOMAINS,
    KINDS,
    EnsembleModel,
    ExperimentRunner,
    MetricsReport,
    ModelSpec,
    build_domain_network,
    build_feature_fusion,
    build_stage2,
    evaluate,
    fit_groups,
    fork_map,
    member_probs,
    stratified_kfold,
    stratified_split,
    time_classification,
)
from eegconn.seeding import derive_rng


def cohort(n_sz=45, n_hc=39):
    entries = [ManifestEntry(path=f"sz{i}.csv", subject_id=f"sz{i:03d}", label="SZ")
               for i in range(n_sz)]
    entries += [ManifestEntry(path=f"hc{i}.csv", subject_id=f"hc{i:03d}", label="HC")
                for i in range(n_hc)]
    return CohortManifest(entries=tuple(entries), class_names=("SZ", "HC"))


class TestStratifiedKfold:
    def test_cohort_fold_sizes(self):
        manifest = cohort()
        plan = stratified_kfold(manifest, k=5, seed=3)
        ordered = manifest.subject_ids()
        sizes = [len(plan.test_ids(f, ordered)) for f in range(5)]
        assert sorted(sizes) == [16, 17, 17, 17, 17]
        labels = manifest.labels()
        for f in range(5):
            sz = sum(1 for s in plan.test_ids(f, ordered) if labels[s] == "SZ")
            assert sz == 9  # 45 patients deal evenly into 5 folds

    def test_partition_property(self):
        manifest = cohort(11, 9)
        plan = stratified_kfold(manifest, k=4, seed=1)
        ordered = manifest.subject_ids()
        all_ids = [s for f in range(4) for s in plan.test_ids(f, ordered)]
        assert sorted(all_ids) == sorted(ordered)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValidationError):
            stratified_kfold(cohort(5, 5), k=1, seed=0)

    def test_small_class_rejected(self):
        with pytest.raises(ValidationError):
            stratified_kfold(cohort(3, 9), k=5, seed=0)

    def test_same_seed_same_plan(self):
        manifest = cohort(10, 10)
        a = stratified_kfold(manifest, k=5, seed=9)
        b = stratified_kfold(manifest, k=5, seed=9)
        assert a.assignments == b.assignments

    def test_different_seed_usually_differs(self):
        manifest = cohort(10, 10)
        a = stratified_kfold(manifest, k=5, seed=1)
        b = stratified_kfold(manifest, k=5, seed=2)
        assert a.assignments != b.assignments


class TestStratifiedSplit:
    def test_disjoint_and_stratified(self):
        manifest = cohort(20, 20)
        labels = manifest.labels()
        train, val = stratified_split(manifest.subject_ids(), labels, ("SZ", "HC"), 0.15, 5)
        assert not set(train) & set(val)
        assert sorted(train + val) == sorted(manifest.subject_ids())
        assert sum(1 for s in val if labels[s] == "SZ") == 3  # round(20 * 0.15)

    def test_minimum_one_validation_subject(self):
        manifest = cohort(5, 5)
        train, val = stratified_split(manifest.subject_ids(), manifest.labels(),
                                      ("SZ", "HC"), 0.05, 5)
        assert sum(1 for s in val if s.startswith("sz")) == 1


class TestEvaluate:
    def test_perfect(self):
        m = evaluate(["SZ", "HC"], ["SZ", "HC"])
        assert (m["accuracy"], m["sensitivity"], m["specificity"],
                m["modified_accuracy"]) == (100.0, 100.0, 100.0, 100.0)

    def test_all_positive_on_imbalanced_cohort(self):
        labels = ["SZ"] * 45 + ["HC"] * 39
        m = evaluate(["SZ"] * 84, labels)
        assert m["sensitivity"] == 100.0
        assert m["specificity"] == 0.0
        assert m["modified_accuracy"] == 50.0
        assert m["accuracy"] == pytest.approx(100.0 * 45 / 84)

    def test_swapping_positive_class_swaps_rates(self, rng):
        labels = ["SZ" if v else "HC" for v in rng.integers(0, 2, 30)]
        preds = ["SZ" if v else "HC" for v in rng.integers(0, 2, 30)]
        a = evaluate(preds, labels, positive_class="SZ")
        b = evaluate(preds, labels, positive_class="HC")
        assert a["sensitivity"] == b["specificity"]
        assert a["specificity"] == b["sensitivity"]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        labels = ["SZ" if v else "HC" for v in rng.integers(0, 2, 20)]
        preds = ["SZ" if v else "HC" for v in rng.integers(0, 2, 20)]
        perm = rng.permutation(20)
        a = evaluate(preds, labels)
        b = evaluate([preds[i] for i in perm], [labels[i] for i in perm])
        assert a == b

    def test_modified_accuracy_identity(self, rng):
        labels = ["SZ" if v else "HC" for v in rng.integers(0, 2, 40)]
        preds = ["SZ" if v else "HC" for v in rng.integers(0, 2, 40)]
        m = evaluate(preds, labels)
        assert m["modified_accuracy"] == (m["sensitivity"] + m["specificity"]) / 2.0

    def test_report_aggregation(self):
        folds = [evaluate(["SZ", "HC"], ["SZ", "HC"]),
                 evaluate(["SZ", "SZ"], ["SZ", "HC"])]
        report = MetricsReport.from_folds(folds)
        assert report.mean["accuracy"] == pytest.approx(75.0)
        assert report.confusion["tp"] == 2 and report.confusion["fp"] == 1
        d = report.to_dict()
        assert len(d["per_fold"]) == 2


class TestScoreFusionForward:
    def test_output_sums_to_one(self, rng):
        stage2 = build_stage2(seed=2)
        probs = rng.dirichlet([1, 1], size=3)
        out = stage2.predict_proba(probs.reshape(1, 6))[0]
        assert out.shape == (2,)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_averaging_weights_give_softmax_of_mean(self, rng):
        # an affine head followed by softmax cannot emit the raw mean of the
        # member rows; with averaging weights it emits softmax(mean) and
        # preserves the argmax of the mean
        stage2 = build_stage2(seed=3)
        w = np.zeros((6, 2))
        w[[0, 2, 4], 0] = 1.0 / 3.0
        w[[1, 3, 5], 1] = 1.0 / 3.0
        stage2.layers[0].params["w"] = w
        stage2.layers[0].params["b"] = np.zeros(2)
        probs = rng.dirichlet([2, 1], size=3)
        out = stage2.predict_proba(probs.reshape(1, 6))[0]
        mean = probs.mean(axis=0)
        expected = np.exp(mean) / np.exp(mean).sum()
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert out.argmax() == mean.argmax()


TINY = dict(channels=4, lags=2, n_bands=3, conv2d_filters=(5, 4), conv1d_filters=3,
            dense2d=8, dense1d=6, fusion_dense=8, epochs=25, learning_rate=0.02,
            lr_decay=0.0, dropout=0.25)


def tiny_features(rng, n_per_class=8):
    """Separable synthetic feature dicts in all three domains."""
    features = {}
    labels = {}
    entries = []
    for cls, offset in (("SZ", 0.6), ("HC", 0.0)):
        for i in range(n_per_class):
            sid = f"{cls.lower()}{i:02d}"
            features[sid] = {
                "var": rng.standard_normal((4, 4, 2)) * 0.05 + offset,
                "pdc": np.clip(rng.random((4, 4, 3)) * 0.2 + offset, 0, 1),
                "cn": rng.standard_normal((10, 3)) * 0.05 + offset * 4.0,
            }
            labels[sid] = cls
            entries.append(ManifestEntry(path=f"{sid}.csv", subject_id=sid, label=cls))
    manifest = CohortManifest(entries=tuple(entries), class_names=("SZ", "HC"))
    return features, manifest


class TestBuildModel:
    def test_tiny_shapes_consistent(self):
        spec = ModelSpec(kind="cnn2d_var", **TINY)
        net = build_domain_network("var", spec, seed=1)
        assert net.output_shape == (2,)
        fusion = build_feature_fusion(spec, seed=2)
        # concat width: 4*4*4 (2d stack on var) + 4*4*4 (pdc) + 5*3 (pooled cn)
        assert fusion.input_shape[0] == 64 + 64 + 15

    def test_every_layer_kind_is_built_by_an_architecture(self):
        from eegconn.nn.layers import LAYER_KINDS

        spec = ModelSpec(kind="cnn2d_var", **TINY)
        nets = [build_stage2(seed=0), build_feature_fusion(spec, seed=2),
                *(build_domain_network(d, spec, seed=1) for d in DOMAINS)]
        built = {ly.kind for net in nets for stack in [*net.branches, net.layers] for ly in stack}
        assert built == set(LAYER_KINDS)


def test_kind_table_invariants():
    rows = [row for entry in KINDS.values() for row in entry.results]
    for kind, entry in KINDS.items():
        assert all(row.kind == kind for row in entry.results), kind
    ids = [row.result_id for row in rows]
    assert len(ids) == len(set(ids))
    for label, row in pipeline.FITS.items():
        assert row in KINDS[row.kind].results and row.fits == (label,), label
    assert {label for row in rows for label in row.fits} <= set(pipeline.FITS)


def _group_ids(*result_ids):
    rows = {row.result_id: row for entry in KINDS.values() for row in entry.results}
    return [[row.result_id for row in group]
            for group in fit_groups([rows[rid] for rid in result_ids])]


class TestFitGroups:
    def test_all_kinds(self):
        ids = [row.result_id for entry in KINDS.values() for row in entry.results]
        assert _group_ids(*ids) == [
            ["fusion_feature"],
            ["cnn2d_var", "cnn2d_pdc", "cnn1d_cn", "fusion_score", "fusion_decision"],
            ["svm_var"], ["svm_pdc"], ["svm_cn"], ["svm_all"]]

    def test_one_ensemble_alone(self):
        assert _group_ids("fusion_score") == [["fusion_score"]]

    def test_a_member_joins_its_ensemble(self):
        assert _group_ids("cnn2d_var", "fusion_decision") == [["cnn2d_var", "fusion_decision"]]

    def test_svm_rows_apart(self):
        assert _group_ids("svm_all", "svm_var") == [["svm_var"], ["svm_all"]]


def test_only_models_and_nn_name_the_bundle_functions():
    # one module owns the model files: no other module reads or writes them
    src = Path(pipeline.__file__).parent
    names = re.compile(r"\b(save_bundle|load_bundle|resolve|BundleRef)\b")
    naming = {path.relative_to(src).as_posix() for path in src.rglob("*.py")
              if names.search(path.read_text())}
    assert naming == {"models.py", "nn/serialize.py", "nn/__init__.py"}
    for name in ("cli.py", "pipeline.py"):
        tree = ast.parse((src / name).read_text())
        imported = [part for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for part in [node.module or "", *(alias.name for alias in node.names)]]
        assert not [part for part in imported if "serialize" in part], name


def save_into(out, manifest):
    """The arguments after the rows that ``train`` passes to fit_rows: the
    files under ``out / "models"`` and ``out / "curves"``."""
    for folder in ("models", "curves"):
        (out / folder).mkdir(parents=True, exist_ok=True)
    return (RowFiles(out, manifest.class_names),)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    rng = derive_rng(99, "tinyexp")
    features, manifest = tiny_features(rng)
    spec = ModelSpec(kind="cnn2d_var", **TINY)
    runner = ExperimentRunner(features, manifest, spec, master_seed=5, k=2,
                              val_fraction=0.2, svm_steps=600)
    kinds = ["cnn2d_var", "cnn2d_pdc", "cnn1d_cn", "fusion_feature",
             "fusion_score", "fusion_decision", "svm_linear"]
    out = tmp_path_factory.mktemp("tinyexp")
    files = save_into(out, manifest)
    rows = [row for kind in kinds for row in KINDS[kind].results]
    # the jobs may run in forked workers, so the spies log to files
    train_model, read_framed = pipeline.train_model, serialize.read_framed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "train_model", lambda model, *args, **kwargs: log_line(
            out / "trained.log", model.name) or train_model(model, *args, **kwargs))
        patch.setattr(serialize, "read_framed", lambda path, *args: log_line(
            out / "read.log", path.name) or read_framed(path, *args))
        reports = dict(zip((row.result_id for row in rows), runner.fit_rows(rows, *files)))
    return runner, reports, manifest, out / "models"


def log_line(path, line: str) -> None:
    """Append one line to ``path``, opened for this call with O_APPEND, so
    that forked workers and their parent add to the same file."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{line}\n".encode())
    finally:
        os.close(fd)


class TestExperimentRunner:

    def test_result_rows(self, run):
        _, reports, _, _ = run
        assert list(reports) == ["cnn2d_var", "cnn2d_pdc", "cnn1d_cn", "fusion_feature",
                       "fusion_score", "fusion_decision",
                       "svm_var", "svm_pdc", "svm_cn", "svm_all"]

    def test_no_leakage_by_construction(self, run):
        runner, _, manifest, _ = run
        all_ids = set(manifest.subject_ids())
        tested = []
        for fold in range(runner.k):
            train, val, test = map(set, runner.fold_split(fold))
            assert not test & train and not test & val and not train & val
            assert test | train | val == all_ids
            tested += test
        assert sorted(tested) == sorted(all_ids)

    def test_separable_cohort_learned(self, run):
        _, reports, _, _ = run
        for rid in ("cnn2d_var", "cnn2d_pdc", "cnn1d_cn", "svm_all"):
            assert reports[rid].mean["modified_accuracy"] >= 95.0, rid

    def test_decision_fusion_at_least_worst_member(self, run):
        _, reports, _, _ = run
        singles = [reports[k].mean["modified_accuracy"]
                   for k in ("cnn2d_var", "cnn2d_pdc", "cnn1d_cn")]
        assert reports["fusion_decision"].mean["modified_accuracy"] >= min(singles)

    def test_each_net_trains_once_and_each_ensemble_reads_its_members_once(self, run):
        _, _, _, models = run
        # the 3 member CNNs and the feature-fusion net train once per fold
        # although 6 rows read them, and score fusion's stage 2 once per fold
        trained = (models.parent / "trained.log").read_text().splitlines()
        assert Counter(trained) == {name: 2 for name in ("cnn_var", "cnn_pdc", "cnn_cn",
                                                         "fusion_feature", "stage2")}
        # the two ensemble jobs of a fold read each member file once each,
        # and nothing else is read back
        read = (models.parent / "read.log").read_text().splitlines()
        assert Counter(read) == {f"{rid}_fold{fold}.model": 2 for fold in range(2)
                                 for rid in ("cnn2d_var", "cnn2d_pdc", "cnn1d_cn")}

    def test_predictions_cover_all_subjects(self, run):
        _, reports, manifest, _ = run
        for rid, report in reports.items():
            counted = sum(m[c] for m in report.per_fold for c in ("tp", "fn", "tn", "fp"))
            assert counted == len(manifest.subject_ids()), rid

    def test_latency_helper(self, run):
        runner, _, manifest, models = run
        sid = manifest.subject_ids()[0]
        core = core_from_bundle(*load_bundle(models / "cnn2d_var_fold0.model"))
        ms = time_classification(core, "cnn2d_var", runner.features, sid, repetitions=3)
        assert ms > 0.0
        with pytest.raises(ValidationError):
            time_classification(core, "cnn2d_var", runner.features, sid, repetitions=0)


def test_no_parameter_array_crosses_the_pool(tmp_path, monkeypatch):
    # a fit's job writes the fit's file and returns its name and sha256 and
    # the fold's metrics: not a net's weights, and no SVM
    features, manifest = tiny_features(derive_rng(99, "tinyexp"))
    spec = ModelSpec(kind="cnn2d_var", **{**TINY, "conv2d_filters": (32, 16), "dense2d": 32,
                                          "epochs": 3})
    runner = ExperimentRunner(features, manifest, spec, master_seed=5, k=2, val_fraction=0.2)
    returned = []

    def spy(fn, jobs, describe):
        results = fork_map(fn, jobs, describe)
        returned.extend(zip(jobs, results))
        return results

    monkeypatch.setattr(pipeline, "fork_map", spy)
    runner.fit_rows([row for kind in ("cnn2d_var", "fusion_feature", "svm_linear")
                     for row in KINDS[kind].results], *save_into(tmp_path, manifest))
    svms = ("svm_var", "svm_pdc", "svm_cn", "svm_all")
    assert [job for job, _ in returned] == [
        (pipeline.FITS[label], fold) for label in ("fusion_feature", "var", *svms)
        for fold in range(2)]
    for (row, fold), got in returned:
        label = row.fits[0]
        name = f"{row.result_id}_fold{fold}.model"
        raw = (tmp_path / "models" / name).read_bytes()
        assert got[0] == {name: hashlib.sha256(raw[:-32]).hexdigest()}, (label, fold)
        if label in svms:
            assert b"LinearSvm" not in pickle.dumps(got), (label, fold)
            continue
        entries, _ = load_bundle(tmp_path / "models" / name)
        param_bytes = sum(a.nbytes for a in entries["main"].param_dict().values())
        assert len(pickle.dumps(got)) < param_bytes / 10, (label, fold)


class TestEnsembleVote:
    def test_vote_follows_members(self, rng):
        spec = ModelSpec(kind="cnn2d_var", **TINY)
        members = {d: build_domain_network(d, spec, seed=i) for i, d in enumerate(DOMAINS)}
        ens = EnsembleModel(mode="decision", members=members)
        inputs = {
            "var": rng.standard_normal((4, 4, 4, 2)),
            "pdc": rng.random((4, 4, 4, 3)),
            "cn": rng.standard_normal((4, 10, 3)),
        }
        votes = member_probs(members, inputs).argmax(axis=2)
        expected = [1 if row.tolist().count(1) >= 2 else 0 for row in votes]
        bits, _ = ens.predict(inputs)
        np.testing.assert_array_equal(bits, expected)

    def test_score_mode_requires_stage2(self):
        spec = ModelSpec(kind="cnn2d_var", **TINY)
        members = {d: build_domain_network(d, spec, seed=1) for d in DOMAINS}
        with pytest.raises(ValidationError):
            EnsembleModel(mode="score", members=members)


PARENT_PID = os.getpid()


def _square_or_fail(x: int) -> int:
    if x == 3:
        raise ValueError("three")
    if x == 4 and os.getpid() != PARENT_PID:  # a worker crash
        os._exit(9)
    return x * x


def _die_at_five(x: int) -> int:
    if os.getpid() != PARENT_PID:
        if x == 5:
            os._exit(9)
        time.sleep(0.05)  # the other worker is mid-job when 5 dies
    return x * x


class TestForkMap:
    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool-of-2"])
    def test_results_in_job_order_with_exceptions_in_place(self, monkeypatch, cpus):
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        got = fork_map(_square_or_fail, [0, 1, 2, 3, 5, 6], str)
        assert [repr(g) if isinstance(g, Exception) else g for g in got] == [
            0, 1, 4, "ValueError('three')", 25, 36]

    def test_where_blas_keeps_its_threads_forks_no_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("fork_map forked while BLAS kept its threads")

        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
        monkeypatch.setattr(pipeline, "one_blas_thread", lambda: False)
        monkeypatch.setattr(os, "fork", no_fork)
        assert fork_map(_square_or_fail, [0, 1, 2], str) == [0, 1, 4]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_dead_worker_fails_only_its_job(self):
        got = fork_map(_square_or_fail, list(range(8)), lambda x: f"squaring {x}")
        assert [repr(g) if isinstance(g, Exception) else g for g in got] == [
            0, 1, 4, "ValueError('three')", "RuntimeError('the worker squaring 4 died')",
            25, 36, 49]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_after_a_death_only_the_first_unfinished_jobs_run_alone(self, monkeypatch):
        run_forked = pipeline._run_forked
        alone = []

        def spy(fn, jobs, workers):
            if len(jobs) == 1:
                alone.append(jobs[0])
            return run_forked(fn, jobs, workers)

        monkeypatch.setattr(pipeline, "_run_forked", spy)
        got = fork_map(_die_at_five, list(range(12)), lambda x: f"squaring {x}")
        assert [repr(g) if isinstance(g, Exception) else g for g in got] == [
            *(x * x for x in range(5)), "RuntimeError('the worker squaring 5 died')",
            *(x * x for x in range(6, 12))]
        # the death leaves 5, the job running beside it and every later job
        # unfinished: 8 jobs, which each ran alone before
        assert 5 in alone and len(alone) < 7
