"""Golden run: extract -> train -> eval on a tiny fixed cohort, pinned by sha256.

The run covers all seven model kinds (ten result rows) over 3 folds, and
pins the sha256 of metrics.json, of every model bundle, of every learning
curve file and of every feature container, and the stdout of extract, train
and eval with the run root written as ``<root>``.  A refactor must leave
every pin as it is; a deliberate numeric or format change re-pins them in
the same change and says why in CHANGES.md.
The fusion_score and fusion_decision bundles hold references to the
cnn2d_var, cnn2d_pdc and cnn1d_cn bundles of their fold, so their hashes
also pin those files' hashes.

The hashes were taken with numpy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas,
DYNAMIC_ARCH, Haswell kernels) under Python 3.11.  The run pins one BLAS
thread because fusion_feature bundles differ between one and two threads at
the published sizes.  At one BLAS thread ``train`` trains its nets in a pool
of one process per usable CPU, so the run is pinned once to one CPU, where
the nets train in the process itself, and once to two, where they train in
a pool of two forked workers; both must give the pinned bytes.  A further test runs the
same config with one and with two BLAS threads and checks that every pinned
file and the stdout are identical.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = r"""
import os
import sys
from pathlib import Path

from eegconn.cli import main
from eegconn.synthetic import make_synthetic_cohort

root = Path(sys.argv[1])
if len(sys.argv) > 2:  # run on this many of the usable CPUs: the training pool's size
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: int(sys.argv[2])])
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
    "curves/domain_cn_fold0.csv":
        "83191f47fa2dabf9f5a6d57af2e8b8408d87d12d905614287ffe793ca6b5b1f5",
    "curves/domain_cn_fold1.csv":
        "2e6afe1d3fc7eb3e04f2dcad9d754e8c293637ceaa98e4e24b23d834b2bdf4a4",
    "curves/domain_cn_fold2.csv":
        "55a58457eb41fa0fab578a8cd187430599dd15826f923c644684ca4776ad8358",
    "curves/domain_pdc_fold0.csv":
        "474066679136a0f7813f629091f5e20c38f8b5325df6be8022c1ec53dbbec8ef",
    "curves/domain_pdc_fold1.csv":
        "65f3a7605fda8ee4e7a31b0871e741b9f5d51454ba55fe67f392bfd2f4890ab9",
    "curves/domain_pdc_fold2.csv":
        "ead7e518cdd16a2e5c2464e220adfd5800d4047e953bcf825c2111cf8d7250bf",
    "curves/domain_var_fold0.csv":
        "0888bfcb1092330f791d1c46caf8d4307926f33a3a613afbbb508754bb1f03b5",
    "curves/domain_var_fold1.csv":
        "df2ea71034a7564b3d3aca16ad57d054ee01b2276025e91a36dce4009454b1fe",
    "curves/domain_var_fold2.csv":
        "0975bedc3868313fe93b1b0a54a1f71e6c5e8a93d563918224525e648f119056",
    "curves/fusion_feature_fold0.csv":
        "bd54e6316ef0354d591ff0efc1f1c04c367f35b5050b8d789b17ba9da0817ef3",
    "curves/fusion_feature_fold1.csv":
        "da3e924e4b26654966f2ec01053ae096aec70376cfc95b2aca38cb57a25d879b",
    "curves/fusion_feature_fold2.csv":
        "37f2b6b6f2df97bde4a0f997669888f4d3f010647069bd663d2a9d63cc6e32a4",
    "curves/fusion_score_stage2_fold0.csv":
        "863b49f02eca8f5576dcbb1df90a6ebf3849a08aa421bb249fc7769da0e2dc7c",
    "curves/fusion_score_stage2_fold1.csv":
        "a2549e7cb6ab3b5c5d0202eb818d0d89eb299d8751e1041e6922ae693e01ced3",
    "curves/fusion_score_stage2_fold2.csv":
        "211ddf3c494c9e0029581dbffe843cf7c82a862493556bfd1f4fc80f8b758389",
    "models/cnn1d_cn_fold0.model":
        "4086cdadb089ac25d64ac9bafb848afa9539b2fc352842c99e41e853a02c24af",
    "models/cnn1d_cn_fold1.model":
        "2e72fd7fe0fc3c14b1d3f4330a32e79cb997f9088d8d8f5069d7ddfecc1fbf99",
    "models/cnn1d_cn_fold2.model":
        "eb8d0862a5ff5ab68dbf9bb6d7c8260bb58e192e02a1d5c9b85c12f604b070ba",
    "models/cnn2d_pdc_fold0.model":
        "1db9564881e1146838c301e34a371419a5d577a8d68cad263b40993c7a15930d",
    "models/cnn2d_pdc_fold1.model":
        "640f3110c09b059657aca70ce778d937e0b18db0af9c7343c09e1f888eac0199",
    "models/cnn2d_pdc_fold2.model":
        "6fe67e186f6f7d6923eead6329e99e368fd5137be2500cf5356fa05113c75e96",
    "models/cnn2d_var_fold0.model":
        "8e2013a3204a4ce7daa52da8d604cfd4f2342ebeef5ff3243e2724170542a5ba",
    "models/cnn2d_var_fold1.model":
        "013dad5a359d160b9aa5bb497e201e2cd4fd19fd6b9c4aba3c4340bd2a01f920",
    "models/cnn2d_var_fold2.model":
        "7e1162727add00e922a9f21fbdee528ae157c45c856041e6dd89b6440c2a4826",
    "models/fusion_decision_fold0.model":
        "37b6213605af31f1fe92350596bd350a63c1c76d24d5586d457591e15d8ef259",
    "models/fusion_decision_fold1.model":
        "b532e2f12ca704a8fd6e0a6f0418485b06208ed59c56fcf950cbbf479cc2b79c",
    "models/fusion_decision_fold2.model":
        "a13e885817d688bf5e07be52c9374452dc90e3849e5e914fe906adbec7fc64d0",
    "models/fusion_feature_fold0.model":
        "87201b2bda1ae9dc4b59d4ed3ffb40e3fa7c429b225eab919f65dbbfa8d6e9a9",
    "models/fusion_feature_fold1.model":
        "420fc87d47983150d5812de33034413347dcfa64ecabe40a8cad9c27d52d6b97",
    "models/fusion_feature_fold2.model":
        "70c57191b9667c9888728994f29275449e79b7058ac04f0aace59595116b27ae",
    "models/fusion_score_fold0.model":
        "51646bfd2eea5d55bb387af54276fc92b94487f59fff6ff5112660797a60b609",
    "models/fusion_score_fold1.model":
        "930b74108cf027b2ef8228ff71ce0405e0044357d4a538cbcb87ecfd65af960e",
    "models/fusion_score_fold2.model":
        "0fe5f93507b4785d6f312700d84caa946525f8d546966eb61ef1be0ebfea010c",
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
    "features/hc000_cn.feat":
        "2b9cf5f36b329e9a6fc4f11cf1102269af3969b075462827937597b3a16110e6",
    "features/hc000_pdc.feat":
        "5e1e38513a99fd4cba043732a097d433365beadbd010eb508e7a11c49ae5a25c",
    "features/hc000_var.feat":
        "9bd65c45f31292c29d9947688f78d0b6c0921ac8980f5f0b309d4ad44d07abd9",
    "features/hc001_cn.feat":
        "21ae3bdcb8f864474aff688b1a02d900950e35b8a15c694b88490b5914206373",
    "features/hc001_pdc.feat":
        "597ea57184767d34fafb4ced6ea952d057ec868f9535ff6128b19b57b9371844",
    "features/hc001_var.feat":
        "647ed9908fa9df239576d10ccda77a152633a332283a8d7a7968cf7bdd6b6792",
    "features/hc002_cn.feat":
        "6b50680153cf779ef60c815622c9147845aecc3c74ca32b4f3152dde82ca0715",
    "features/hc002_pdc.feat":
        "39b43aa2e10aeb2f92f485fbfc407fbfaeb8821336a6d0591c1e3b10c85bab08",
    "features/hc002_var.feat":
        "9d41786d4f40591f106ad8e8f66333dd01ff2797866665ea630b12d92812fb6c",
    "features/hc003_cn.feat":
        "eabc6bb7398fe178b7654f29b4f0681867d327c8054d7a4bd16872bc1183b82f",
    "features/hc003_pdc.feat":
        "cdb505f0dde0727850fea96b33348aa6078dd85b086d2ff3c36d97ab32e91175",
    "features/hc003_var.feat":
        "8430d69cec42288c281fb24dfa00552c0ea06c00111fbb304148be0befef565c",
    "features/hc004_cn.feat":
        "045aacf30e871c67226a4e3ce1b862ec51b5242a7049e5fc3de4d5cbd3d382cf",
    "features/hc004_pdc.feat":
        "6827b3b7ea8053c8b5947502f5eb9d95aaadf3d9567a67c6a70a1f6688baee58",
    "features/hc004_var.feat":
        "c78e53d6ee595ca6b9aad50293dabc34a26508372b726dc18abaf0a199e7a573",
    "features/hc005_cn.feat":
        "dafcd07c58afd79682a0111287da21ee0c22bf4a151b23cd2240c0cd085a579c",
    "features/hc005_pdc.feat":
        "0e06dcead6850a2d97f478341690340b05b65d468f990b54d81807cf6f61f7a0",
    "features/hc005_var.feat":
        "91342c8072868217543834f6bf4a47c7dd7f405ce4f468d243dec4e54c33cbc4",
    "features/sz000_cn.feat":
        "a5634a59bc0a8e518e3b4475d5be81f2f6e009c354aa41c3c16c4b237f03d1d6",
    "features/sz000_pdc.feat":
        "acc796da720827f7e64cfe08104f3ef4d45554473600f086251af88052683f3e",
    "features/sz000_var.feat":
        "0a6640ca0c00b12ed999fc4ec1801427a042f910aa4e0e0284b3fcce96be9e4f",
    "features/sz001_cn.feat":
        "42823b64172a8b2a5482f202229aacf42106ef18b7664503621d8cd1eb513d85",
    "features/sz001_pdc.feat":
        "f04020e1abd312c625b5c435d98b364da55d443dd39984cf8a30f14e7a55c8f0",
    "features/sz001_var.feat":
        "db7afe3fe9225a0e2bc535a748ed7576dd23e10a5b50ad5abb4b6606b7d0d2fd",
    "features/sz002_cn.feat":
        "e6c18f57bfe89a4665393973c8a919d7a5eb4f4b3ff3ce579c5dd134b1a6abf6",
    "features/sz002_pdc.feat":
        "cc3828e14cb8808132d786b1e5bd60f1eae9be9d53b0b872b1e79b1a0818085c",
    "features/sz002_var.feat":
        "aabd569a0a159be545304986f1738f45dd7b5bf6e25483b2dec826401cb8a8c6",
    "features/sz003_cn.feat":
        "d32002e6acb65cfcfce74edd03e4774601cd667b7f931b38f3533f87f96cea9b",
    "features/sz003_pdc.feat":
        "4302a3644ca38b8162ffbca8268b81f5e5e0f77d2e80e24e3d5817c0803d15a5",
    "features/sz003_var.feat":
        "aef4381b10e6a806851abd0e1b411190e523ebde8bf7244231b4b56c60469104",
    "features/sz004_cn.feat":
        "6b130ce0718203b44e8e6eb5068f277c1873a496dc011c16298c4b4d460b508b",
    "features/sz004_pdc.feat":
        "0e70d1e8f9c8d7fa910ea0f991dcebe930536d59b398226825906593a9039795",
    "features/sz004_var.feat":
        "9efe6913f64df110ad398b9f6515b5c9886d086f17022d0a800bef1ea057954e",
    "features/sz005_cn.feat":
        "b7b04ecbf7d3f037a4c2fd1838499bcb576c24d075cb4e56ad14460be9cfd5c1",
    "features/sz005_pdc.feat":
        "39be50e0d395285d340c0c117e6cb09c3743de6e48275f504da33c7d7e1030b8",
    "features/sz005_var.feat":
        "dab7b2c3ae26cfee35109d9c6d870d2526b62c909c0fa67718d206a936715762",
}


GOLDEN_STDOUT = """\
sz000: var=4x4x2 pdc=4x4x5 cn=10x5 ok
sz001: var=4x4x2 pdc=4x4x5 cn=10x5 ok
sz002: var=4x4x2 pdc=4x4x5 cn=10x5 ok
sz003: var=4x4x2 pdc=4x4x5 cn=10x5 ok
sz004: var=4x4x2 pdc=4x4x5 cn=10x5 ok
sz005: var=4x4x2 pdc=4x4x5 cn=10x5 ok
hc000: var=4x4x2 pdc=4x4x5 cn=10x5 ok
hc001: var=4x4x2 pdc=4x4x5 cn=10x5 ok
hc002: var=4x4x2 pdc=4x4x5 cn=10x5 ok
hc003: var=4x4x2 pdc=4x4x5 cn=10x5 ok
hc004: var=4x4x2 pdc=4x4x5 cn=10x5 ok
hc005: var=4x4x2 pdc=4x4x5 cn=10x5 ok
extracted 12/12 subjects
cnn2d_var: trained 3 folds, modified accuracy 83.33% (+/-23.57)
cnn2d_pdc: trained 3 folds, modified accuracy 100.00% (+/-0.00)
cnn1d_cn: trained 3 folds, modified accuracy 100.00% (+/-0.00)
fusion_feature: trained 3 folds, modified accuracy 83.33% (+/-23.57)
fusion_score: trained 3 folds, modified accuracy 66.67% (+/-23.57)
fusion_decision: trained 3 folds, modified accuracy 100.00% (+/-0.00)
svm_var: trained 3 folds, modified accuracy 83.33% (+/-11.79)
svm_pdc: trained 3 folds, modified accuracy 100.00% (+/-0.00)
svm_cn: trained 3 folds, modified accuracy 100.00% (+/-0.00)
svm_all: trained 3 folds, modified accuracy 100.00% (+/-0.00)
cnn2d_var: acc 83.33% sens 66.67% spec 100.00% modified 83.33%
cnn2d_pdc: acc 100.00% sens 100.00% spec 100.00% modified 100.00%
cnn1d_cn: acc 100.00% sens 100.00% spec 100.00% modified 100.00%
fusion_feature: acc 83.33% sens 100.00% spec 66.67% modified 83.33%
fusion_score: acc 66.67% sens 100.00% spec 33.33% modified 66.67%
fusion_decision: acc 100.00% sens 100.00% spec 100.00% modified 100.00%
svm_var: acc 83.33% sens 100.00% spec 66.67% modified 83.33%
svm_pdc: acc 100.00% sens 100.00% spec 100.00% modified 100.00%
svm_cn: acc 100.00% sens 100.00% spec 100.00% modified 100.00%
svm_all: acc 100.00% sens 100.00% spec 100.00% modified 100.00%
wrote <root>/out/metrics.json
"""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _golden_run(root: Path, env_threads: int, cpus: int | None = None
                ) -> tuple[dict[str, str], str]:
    """Run the golden config in a subprocess started with ``env_threads`` as
    its BLAS thread environment, on ``cpus`` CPUs if given; the sha256 of
    every pinned file, and the stdout with the root as ``<root>``."""
    threads = str(env_threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    pin = [] if cpus is None else [str(cpus)]
    proc = subprocess.run([sys.executable, "-c", RUN, str(root), *pin], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = root / "out"
    got = {"metrics.json": _sha256(out / "metrics.json")}
    for folder, suffix in (("models", "model"), ("curves", "csv"), ("features", "feat")):
        got.update({f"{folder}/{p.name}": _sha256(p)
                    for p in sorted((out / folder).glob(f"*.{suffix}"))})
    return got, proc.stdout.replace(str(root), "<root>")


def test_golden_run_hashes(tmp_path):
    assert _golden_run(tmp_path, 1, cpus=1) == (GOLDEN, GOLDEN_STDOUT)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_golden_run_hashes_in_a_pool_of_two(tmp_path):
    assert _golden_run(tmp_path, 1, cpus=2) == (GOLDEN, GOLDEN_STDOUT)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
def test_blas_thread_count_changes_no_output(tmp_path):
    # The second run starts with two BLAS threads in its environment, which
    # the command sets back to one at run time.  fusion_feature bundles are
    # the outputs most likely to show a second thread (at the published
    # sizes they differed), so they are held to the same bytes in their own
    # assertion.
    one, one_stdout = _golden_run(tmp_path / "one", 1)
    two, two_stdout = _golden_run(tmp_path / "two", 2)
    assert one_stdout == two_stdout
    assert one.keys() == two.keys()
    fused = {name for name in one if name.startswith("models/fusion_feature")}
    assert fused
    assert {k: v for k, v in one.items() if k not in fused} == \
        {k: v for k, v in two.items() if k not in fused}
    assert {k: one[k] for k in fused} == {k: two[k] for k in fused}
