"""Golden run: extract -> train -> eval on a tiny fixed cohort, pinned by sha256.

The run covers all seven model kinds (ten result rows) over 3 folds, and
pins the sha256 of metrics.json and of every model bundle.  A refactor must
leave every hash as it is; a deliberate numeric change re-pins them in the
same change and says why in CHANGES.md.

The hashes were taken with numpy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas,
DYNAMIC_ARCH, Haswell kernels) under Python 3.11.  The run pins one BLAS
thread because fusion_feature bundles differ between one and two threads at
the published sizes.  A second test runs the same config with one and with
two BLAS threads and checks that every pinned file is byte-identical.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = r"""
import sys
from pathlib import Path

from eegconn.cli import main
from eegconn.synthetic import make_synthetic_cohort

root = Path(sys.argv[1])
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
    "folds = 3\n"
    "val_fraction = 0.25\n"
    "svm_steps = 200\n"
    "seed = 1729\n"
)
for stage in ("extract", "train", "eval"):
    rc = main([stage, "--config", str(cfg)])
    if rc != 0:
        sys.exit(f"{stage} exited with {rc}")
"""

GOLDEN = {
    "metrics.json":
        "aea8a5f9e70b7bafda109371e3726d1b53b83d14ad892065e7d5dd271d70537a",
    "models/cnn1d_cn_fold0.model":
        "4086cdadb089ac25d64ac9bafb848afa9539b2fc352842c99e41e853a02c24af",
    "models/cnn1d_cn_fold1.model":
        "2e72fd7fe0fc3c14b1d3f4330a32e79cb997f9088d8d8f5069d7ddfecc1fbf99",
    "models/cnn1d_cn_fold2.model":
        "eb8d0862a5ff5ab68dbf9bb6d7c8260bb58e192e02a1d5c9b85c12f604b070ba",
    "models/cnn2d_pdc_fold0.model":
        "ee3fe4708436cbc1e0703e4fea67c95684affb46f42f334b4538223c6ac8ac7b",
    "models/cnn2d_pdc_fold1.model":
        "d0c445bfaada320c77cf53d23a8156c8952af9d55d51a4677eb4c732043a22e0",
    "models/cnn2d_pdc_fold2.model":
        "770c033f5ac5a564c4fc1d09c083e02226b29629c64146f3815355940e770d1a",
    "models/cnn2d_var_fold0.model":
        "ac7bfd7d455d9b7f2208b21d3065f299c018f22fea49dc30ca57eca673bda416",
    "models/cnn2d_var_fold1.model":
        "b299170c322ecd52b1000a2f9acef0fd550c3f5bb646b5db75f0633579e654b9",
    "models/cnn2d_var_fold2.model":
        "aaae188da3653721c68ae517cc97594fef00083898c4e0cdb498880f37740224",
    "models/fusion_decision_fold0.model":
        "b83de1347898024ff37accaf72a8f74c807336f31f7ed6581ba173f1ee208f3b",
    "models/fusion_decision_fold1.model":
        "81d88ddf8c238da9f36e75bfc07b132573c757b57af9360aee4ad399139cc019",
    "models/fusion_decision_fold2.model":
        "0e8d580049967d8631dc3e87c0a68a9937f1a2d2a81000942a9001792dd4057e",
    "models/fusion_feature_fold0.model":
        "bd90c241753a280483ad1042e55a02e533f5eae703fd6c72435175430455c505",
    "models/fusion_feature_fold1.model":
        "a7d1a835f5fea2299e28621ae1bae66f0d74e409918e6a65dfef0c6954416f1b",
    "models/fusion_feature_fold2.model":
        "525c5b9483070701d4f33ff82a6ae03d2f055f6c99887da53ede753ab81c5686",
    "models/fusion_score_fold0.model":
        "2a7a59f97438b1a3e5e8402409c75009711ada87128722d57e5ba363b24b9d1a",
    "models/fusion_score_fold1.model":
        "2460d2cfa513736b1ef4a2801b034715a9024997e0483a37a9318e8b07a8a318",
    "models/fusion_score_fold2.model":
        "6b94f8e56adf473efe5336d5638b1d5b3252ce9c89628c6b790ebf1b5af4d567",
    "models/svm_all_fold0.model":
        "0aaadcb6cd31d3c70ab3f5cb5263533fdac685a1e3d7af1f65ca7be5896c6689",
    "models/svm_all_fold1.model":
        "fd9f6ac274ba7e3d63f9940ac2bce943f956d09515ea1d5913eab8324643c3e8",
    "models/svm_all_fold2.model":
        "de847570b7eaf0972e1ce08a0200868cd590aaecdc303b7a92def5c4cb5717bf",
    "models/svm_cn_fold0.model":
        "df30f7f74148dfcff3480d3d725b1f1c30d5ef63fe44a2aad15d59c90ce0518d",
    "models/svm_cn_fold1.model":
        "af1dd1bd24d8dfb0a67299614e68fc2cc962d1541c652ec6e243f2dedc5b6c3d",
    "models/svm_cn_fold2.model":
        "644e18878cd855e2d48e455f894bc81faabba2f31861ec75e0de2afd78b3fab1",
    "models/svm_pdc_fold0.model":
        "d6d34d13f8e3fc0d10a539917f31c7d6c101948144020de6a617c0ea5522d35f",
    "models/svm_pdc_fold1.model":
        "1fa63b215b39e8024530e8e82d14b889ee71ab4abeaf3cc879595145aad18307",
    "models/svm_pdc_fold2.model":
        "13084c9bc0356c18fc263c4fb2fb966ba235e0c02250504278ba9a0e48a41141",
    "models/svm_var_fold0.model":
        "ce685e6424431bb5bc6f05aeff819836b05c9b430304523e5941138362bc8ffb",
    "models/svm_var_fold1.model":
        "b2c2c1a9b2b9541da1dfbeff531b80109f34c18a3ac4f4b4368225d9d305bbaf",
    "models/svm_var_fold2.model":
        "72355d0c430bc56d9aa351f4a5e96c6bb47dae4a5a0601c09e1101ee77f3916d",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _golden_run(root: Path, blas_threads: int) -> dict[str, str]:
    """Run the golden config in a subprocess; the sha256 of every pinned file."""
    threads = str(blas_threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", RUN, str(root)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = root / "out"
    got = {"metrics.json": _sha256(out / "metrics.json")}
    got.update({f"models/{p.name}": _sha256(p) for p in sorted((out / "models").glob("*.model"))})
    return got


def test_golden_run_hashes(tmp_path):
    assert _golden_run(tmp_path, 1) == GOLDEN


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_blas_thread_count_changes_no_output(tmp_path):
    # The two runs go one after the other, so no more threads run than there
    # are cores.  README notes that fusion_feature bundles can differ between
    # one and two BLAS threads at the published sizes; at this size they do
    # not, so they are held to the same bytes, in their own assertion.
    one = _golden_run(tmp_path / "one", 1)
    two = _golden_run(tmp_path / "two", 2)
    assert one.keys() == two.keys()
    fused = {name for name in one if name.startswith("models/fusion_feature")}
    assert fused
    assert {k: v for k, v in one.items() if k not in fused} == \
        {k: v for k, v in two.items() if k not in fused}
    assert {k: one[k] for k in fused} == {k: two[k] for k in fused}
