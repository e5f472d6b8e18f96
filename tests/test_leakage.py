"""Leakage oracle: no fold's fit reads its test subjects.

Every figure a run reports is a cross-validated accuracy, so a model of
fold f must be the same bytes whatever fold f's test subjects hold.  On the
golden config (12 subjects, 3 folds, all seven kinds, ten model files per
fold) the run is trained once, the feature containers of some subjects are
overwritten with other values of the same shape, and it is trained again.
Perturbing fold 0's test subjects must leave every fold-0 model file as it
was and change every file of folds 1 and 2, where those subjects train; the
second half shows that the perturbation reaches a fit, so the first half is
not vacuous.

Perturbing fold 0's validation subjects instead changes what the fold's
validation subjects reach and nothing else: the SVMs fit on training plus
validation subjects, so every fold-0 SVM file changes; a net trains on its
training subjects alone, so its curve keeps every training loss, changes
every validation loss, and its file changes exactly when the epoch it keeps
(the first of least validation loss) moves.  On this config that epoch
moves for cnn2d_var and fusion_feature and stays at the last epoch for
cnn2d_pdc and cnn1d_cn, whose files keep their bytes.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from eegconn.cli import main
from eegconn.container import read_container, write_container
from eegconn.eeg_io import load_manifest
from eegconn.models import read_curve_csv
from eegconn.pipeline import ExperimentRunner
from eegconn.spectral import BandSpec
from eegconn.synthetic import make_synthetic_cohort

SEED = 1729
FOLDS = 3
VAL_FRACTION = 0.25
ROWS = ("cnn2d_var", "cnn2d_pdc", "cnn1d_cn", "fusion_feature", "fusion_score",
        "fusion_decision", "svm_var", "svm_pdc", "svm_cn", "svm_all")
SVMS = ("svm_var", "svm_pdc", "svm_cn", "svm_all")
#: single-net rows and the stem of their learning curve
NET_CURVES = {"cnn2d_var": "domain_var", "cnn2d_pdc": "domain_pdc",
              "cnn1d_cn": "domain_cn", "fusion_feature": "fusion_feature"}


def _train(cfg: Path) -> tuple[dict[str, str], dict[str, list[tuple[float, float]]]]:
    """Train; the sha256 of every model file, and each single net's fold-0 curve."""
    assert main(["train", "--config", str(cfg)]) == 0
    out = cfg.parent / "out"
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted((out / "models").glob("*.model"))}
    curves = {row: read_curve_csv(out / "curves" / f"{stem}_fold0.csv")
              for row, stem in NET_CURVES.items()}
    return hashes, curves


def _perturb(out: Path, sids: list[str]) -> None:
    """Overwrite every feature container of ``sids`` with same-shape values."""
    rng = np.random.default_rng(0)
    for sid in sids:
        for path in sorted((out / "features").glob(f"{sid}_*.feat")):
            values, header = read_container(path)
            write_container(path, header["kind"], values + rng.standard_normal(values.shape),
                            sid, header["label"],
                            bands=None if header["bands"] is None else BandSpec())


def _files_of_fold(hashes: dict[str, str], fold: int) -> dict[str, str]:
    return {name: h for name, h in hashes.items() if name.endswith(f"_fold{fold}.model")}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The golden config extracted and trained once, with its fold-0 split."""
    root = tmp_path_factory.mktemp("leakage")
    manifest = make_synthetic_cohort(root / "data", seed=7, n_group_a=6, n_group_b=6,
                                     channels=4, samples=420)
    cfg = root / "golden.cfg"
    cfg.write_text(
        f"manifest = {manifest}\n"
        f"output_dir = {root / 'out'}\n"
        "channels = 4\n"
        "var_order = 2\n"
        "band_grid_step = 1.0\n"
        "model_kinds = cnn2d_var,cnn2d_pdc,cnn1d_cn,fusion_feature,fusion_score,"
        "fusion_decision,svm_linear\n"
        "epochs = 3\n"
        "batch_size = 16\n"
        "learning_rate = 0.01\n"
        "lr_decay = 0.0\n"
        "dropout = 0.25\n"
        f"folds = {FOLDS}\n"
        f"val_fraction = {VAL_FRACTION}\n"
        "svm_steps = 200\n"
        f"seed = {SEED}\n"
    )
    assert main(["extract", "--config", str(cfg)]) == 0
    before, curves = _train(cfg)
    assert sorted(before) == sorted(f"{row}_fold{f}.model"
                                    for row in ROWS for f in range(FOLDS))
    # the split reads only the manifest, the seed, the fold count and the fraction
    runner = ExperimentRunner({}, load_manifest(manifest), None, master_seed=SEED,
                              k=FOLDS, val_fraction=VAL_FRACTION)
    _, val, test = runner.fold_split(0)
    plan = (root / "out" / "folds.csv").read_text().splitlines()[1:]
    assert sorted(test) == sorted(line.split(",")[0] for line in plan if line.endswith(",0"))
    return cfg, before, curves, val, test


def _retrain_with(golden_run, sids):
    """Train on perturbed containers of ``sids``, then put the originals back."""
    cfg = golden_run[0]
    out = cfg.parent / "out"
    saved = {p: p.read_bytes() for sid in sids for p in (out / "features").glob(f"{sid}_*.feat")}
    _perturb(out, sids)
    try:
        return _train(cfg)
    finally:
        for path, data in saved.items():
            path.write_bytes(data)


def test_test_subjects_reach_no_fit_of_their_fold(golden_run):
    _, before, _, _, test = golden_run
    after, _ = _retrain_with(golden_run, test)
    assert len(_files_of_fold(before, 0)) == len(ROWS)
    assert _files_of_fold(after, 0) == _files_of_fold(before, 0)
    for fold in (1, 2):
        old, new = _files_of_fold(before, fold), _files_of_fold(after, fold)
        assert [name for name in old if old[name] == new[name]] == []


def _kept_epoch(curve: list[tuple[float, float]]) -> int:
    return int(np.argmin([val_loss for _, val_loss in curve]))


def test_validation_subjects_reach_only_epoch_choice_and_svm_fits(golden_run):
    _, before, old_curves, val, _ = golden_run
    after, new_curves = _retrain_with(golden_run, val)
    old, new = _files_of_fold(before, 0), _files_of_fold(after, 0)
    assert [row for row in SVMS if old[f"{row}_fold0.model"] == new[f"{row}_fold0.model"]] == []
    moved = []
    for row, old_curve in old_curves.items():
        new_curve = new_curves[row]
        assert [t for t, _ in new_curve] == [t for t, _ in old_curve], row
        assert all(nv != ov for (_, nv), (_, ov) in zip(new_curve, old_curve)), row
        if _kept_epoch(new_curve) != _kept_epoch(old_curve):
            moved.append(row)
        file = f"{row}_fold0.model"
        assert (new[file] != old[file]) == (row in moved), row
    assert moved, "no kept epoch moved, so the bytes-follow-epoch check is vacuous"
