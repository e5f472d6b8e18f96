"""End-to-end command tests on a small synthetic cohort."""

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from oracles import flip_bit, resign, retarget

from eegconn import cli, container, pipeline
from eegconn.cli import main
from eegconn.config import parse_config
from eegconn.container import PARTIAL, read_container, write_container
from eegconn.errors import ConfigError, TrainingDivergedError
from eegconn.nn import Network, save_bundle, serialize
from eegconn.pipeline import ModelSpec, build_domain_network
from eegconn.spectral import BandSpec
from eegconn.synthetic import make_synthetic_cohort

KINDS = "cnn2d_var,cnn2d_pdc,cnn1d_cn,fusion_feature,fusion_score,fusion_decision,svm_linear"

SRC = Path(__file__).resolve().parents[1] / "src"

# Trains with the pdc member's training killing its process, as a crash would.
KILL_PDC_WORKER = r"""
import os
import sys

from eegconn import pipeline
from eegconn.cli import main

train_model = pipeline.train_model


def die_on_pdc(model, *args, **kwargs):
    if model.name == "cnn_pdc":
        os._exit(9)
    return train_model(model, *args, **kwargs)


pipeline.train_model = die_on_pdc
sys.exit(main(["train", "--config", sys.argv[1]]))
"""

# Trains with score fusion's stage-2 training killing its process, as a crash would.
KILL_STAGE2_WORKER = r"""
import os
import sys

from eegconn import pipeline
from eegconn.cli import main

train_model = pipeline.train_model


def die_on_stage2(model, *args, **kwargs):
    if model.name == "stage2":
        os._exit(9)
    return train_model(model, *args, **kwargs)


pipeline.train_model = die_on_stage2
sys.exit(main(["train", "--config", sys.argv[1]]))
"""

# Trains with the save of one model file (argv 2) writing half of the file,
# then killing its process, as a crash would.
KILL_WHILE_SAVING = r"""
import os
import sys
from pathlib import Path

from eegconn import cli

save_bundle = cli.save_bundle


def die_mid_write(path, *args, **kwargs):
    digest = save_bundle(path, *args, **kwargs)
    if Path(path).name == sys.argv[2]:
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])
        os._exit(9)
    return digest


cli.save_bundle = die_mid_write
sys.exit(cli.main(["train", "--config", sys.argv[1]]))
"""

# Extracts with one subject's recording load killing its process, as a crash would.
KILL_EXTRACT_WORKER = r"""
import os
import sys

from eegconn import cli

load_recording = cli.load_recording


def die_on_subject(path, *args, **kwargs):
    if kwargs["subject_id"] == sys.argv[2]:
        os._exit(9)
    return load_recording(path, *args, **kwargs)


cli.load_recording = die_on_subject
sys.exit(cli.main(["extract", "--config", sys.argv[1]]))
"""

# Evaluates with every fold-1 prediction killing its process, as a crash would.
KILL_EVAL_WORKER = r"""
import os
import sys
from pathlib import Path

from eegconn import cli

predict_with_core = cli.predict_with_core
lines = Path(sys.argv[2]).read_text().splitlines()[1:]
fold1 = {sid for sid, _, fold in (line.partition(",") for line in lines) if fold == "1"}


def die_on_fold1(core, kind, features, sids, *args):
    if set(sids) <= fold1:
        os._exit(9)
    return predict_with_core(core, kind, features, sids, *args)


cli.predict_with_core = die_on_fold1
sys.exit(cli.main(["eval", "--config", sys.argv[1]]))
"""

# Runs a command (argv 3) on the first N usable CPUs (argv 2); on one, every
# job of the command runs in this process.
ON_CPUS = r"""
import os
import sys

from eegconn.cli import main

os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: int(sys.argv[2])])
sys.exit(main([sys.argv[3], "--config", sys.argv[1]]))
"""

# ON_CPUS with every subject's recording load raising one warning from one
# line.
WARN_ON_EVERY_LOAD = r"""
import warnings

from eegconn import cli

load_recording = cli.load_recording


def warn_then_load(*args, **kwargs):
    warnings.warn("every subject warns from this line")
    return load_recording(*args, **kwargs)


cli.load_recording = warn_then_load
""" + ON_CPUS

# Prints this process's pid, then the pid that ran each of two jobs through
# fork_map, on the first two usable CPUs.
FORK_MAP_PIDS = r"""
import os
import time

from eegconn.pipeline import fork_map

os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])


def pid(job):
    time.sleep(0.5)  # long enough for each worker to take one job
    return os.getpid()


print(os.getpid(), *fork_map(pid, [0, 1], str))
"""

# Prints the sha256 of a (16x6000)@(6000x256) product, which OpenBLAS splits
# over its threads, after main ran the arguments given, if any.
BLAS_PRODUCT = r"""
import hashlib
import sys

import numpy as np

from eegconn.cli import main

if sys.argv[1:]:
    main(sys.argv[1:])
rng = np.random.default_rng(0)
product = rng.standard_normal((16, 6000)) @ rng.standard_normal((6000, 256))
print(hashlib.sha256(product.tobytes()).hexdigest())
"""

RESULT_IDS = [
    "cnn2d_var", "cnn2d_pdc", "cnn1d_cn", "fusion_feature", "fusion_score",
    "fusion_decision", "svm_var", "svm_pdc", "svm_cn", "svm_all",
]


def write_config(path: Path, manifest: Path, out_dir: Path, **overrides) -> Path:
    values = {
        "manifest": str(manifest),
        "output_dir": str(out_dir),
        "data_format": "csv_matrix",
        "channels": 4,
        "rate": 128.0,
        "var_order": 2,
        "band_grid_step": 1.0,
        "model_kinds": KINDS,
        "epochs": 6,
        "learning_rate": 0.01,
        "lr_decay": 0.0,
        "dropout": 0.25,
        "folds": 2,
        "val_fraction": 0.25,
        "seed": 11,
        "svm_steps": 400,
        "latency_repetitions": 2,
    }
    values.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def run_script(script: str, *args, **env) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter, with ``env`` added to this
    process's environment."""
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


def append_line(path: Path, line: str) -> None:
    """Append one line to ``path``, opened for this call with O_APPEND, so
    that forked workers and their parent add to the same file."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{line}\n".encode())
    finally:
        os.close(fd)


def logged(path: Path) -> list[str]:
    """The lines that :func:`append_line` wrote to ``path``."""
    return path.read_text().splitlines() if path.exists() else []


def small_cohort(tmp_path: Path) -> Path:
    """Six subjects, sz000-sz002 then hc000-hc002; the manifest's path."""
    return make_synthetic_cohort(tmp_path / "data", seed=3, n_group_a=3, n_group_b=3,
                                 channels=4, samples=300)


def readme_layout() -> dict[str, re.Pattern]:
    """The file patterns of README's "Output artifacts" block by pattern, each
    as a regex: ``<name>`` stands for one path segment, ``{a,b}`` for a or b."""
    text = (SRC.parent / "README.md").read_text()
    block = text.split("### Output artifacts", 1)[1].split("```")[1]
    layout = {}
    for line in block.splitlines():
        if line.startswith("  ") and not line.startswith("   "):  # not a note's next line
            glob = line.split()[0]
            regex = re.sub(r"<[^>]+>", "[^/]+", re.escape(glob))
            regex = re.sub(r"\\\{([^}]+)\\\}", lambda m: f"(?:{m[1].replace(',', '|')})", regex)
            layout[glob] = re.compile(regex)
    return layout


def copy_for_eval(workspace, tmp_path: Path) -> Path:
    """``tmp_path / "out"``: a copy of the workspace's features, models and
    fold plan, which eval reads."""
    _, _, out, _ = workspace
    copy = tmp_path / "out"
    shutil.copytree(out / "features", copy / "features")
    shutil.copytree(out / "models", copy / "models")
    shutil.copy(out / "folds.csv", copy / "folds.csv")
    return copy


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    manifest = make_synthetic_cohort(data, seed=21, n_group_a=7, n_group_b=6,
                                     channels=4, samples=420)
    out = root / "out"
    cfg = write_config(root / "run.cfg", manifest, out)
    assert main(["extract", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg)]) == 0
    return root, cfg, out, manifest


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("manifest = x.csv\nmystery_knob = 3\n")
        with pytest.raises(ConfigError, match="mystery_knob"):
            parse_config(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("epochs = many\n")
        with pytest.raises(ConfigError, match="epochs"):
            parse_config(p)

    @pytest.mark.parametrize("line", [
        "epochs = -1",
        "folds = 1",
        "learning_rate = 0",
        "learning_rate = -0.001",
        "dropout = 1.0",
        "dropout = -0.1",
        "batch_size = -1",
        "latency_repetitions = 0",
        "model_kinds =",
        "band_filter = alpha,alpha",
    ])
    def test_out_of_range_value_rejected(self, tmp_path, line, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(f"manifest = m.csv\n{line}\n")
        key = line.partition(" ")[0]
        with pytest.raises(ConfigError, match=key):
            parse_config(p)
        assert main(["train", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")

    @pytest.mark.parametrize("key", ["config", "manifest"])
    def test_directory_as_file_is_one_error_line(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "r.cfg", tmp_path / "m", tmp_path / "o")
        (tmp_path / "m").mkdir()
        assert main(["extract", "--config", str(cfg if key == "manifest" else tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_bad_model_kind_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("model_kinds = cnn3d_maximal\n")
        with pytest.raises(ConfigError, match="cnn3d_maximal"):
            parse_config(p)

    def test_comments_and_defaults(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("# a comment\n\nmanifest = m.csv\n")
        cfg = parse_config(p)
        assert cfg.manifest == "m.csv"
        assert cfg.var_order == 5 and cfg.band_grid_step == 0.25


class TestExtract:
    def test_feature_files_per_subject(self, workspace):
        _, _, out, manifest = workspace
        files = sorted((out / "features").glob("*.feat"))
        assert len(files) == 13 * 3

    def test_rerun_byte_identical(self, workspace):
        root, cfg, out, _ = workspace
        target = out / "features" / "sz000_var.feat"
        before = target.read_bytes()
        assert main(["extract", "--config", str(cfg)]) == 0
        assert target.read_bytes() == before

    def test_missing_file_fails_subject_and_exit(self, tmp_path):
        data = tmp_path / "data"
        manifest = make_synthetic_cohort(data, seed=3, n_group_a=3, n_group_b=3,
                                         channels=4, samples=300)
        lines = manifest.read_text().splitlines()
        lines.append("missing.csv,ghost,SZ")
        manifest.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "r.cfg", manifest, tmp_path / "o")
        assert main(["extract", "--config", str(cfg)]) == 1
        assert len(list((tmp_path / "o" / "features").glob("*.feat"))) == 6 * 3

    def test_empty_manifest_fails(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("path,subject_id,label\n")
        cfg = write_config(tmp_path / "r.cfg", m, tmp_path / "o")
        assert main(["extract", "--config", str(cfg)]) == 2

    def test_subjects_sharing_container_names_rejected(self, tmp_path, capsys):
        manifest = small_cohort(tmp_path)
        manifest.write_text(manifest.read_text() + "sz000.csv,sz 000,SZ\nsz001.csv,sz_000,SZ\n")
        cfg = write_config(tmp_path / "r.cfg", manifest, tmp_path / "o")
        assert main(["extract", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: subjects 'sz 000'/'sz_000' would share feature container names; "
            "rename them in the manifest\n")
        assert not (tmp_path / "o" / "features").exists()

    def test_failed_subject_keeps_no_containers(self, tmp_path, capsys):
        manifest = small_cohort(tmp_path)
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "r.cfg", manifest, out)
        assert main(["extract", "--config", str(cfg)]) == 0
        with open(manifest.parent / "sz001.csv", "a") as fh:
            fh.write("1,2,x\n")
        capsys.readouterr()
        assert main(["extract", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sz001: FAILED (")
        assert err[0].endswith("line 301: bad numeric token 'x')")
        assert not list((out / "features").glob("sz001_*"))
        assert len(list((out / "features").glob("*.feat"))) == 5 * 3
        for command in ("train", "eval", "report"):
            assert main([command, "--config", str(cfg)]) == 2
            assert capsys.readouterr().err == (
                "error: missing feature containers for 1 manifest subject(s): sz001; "
                "run extract first\n")

    def test_one_cpu_forks_no_process(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("extract forked on one CPU")

        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        cfg = write_config(tmp_path / "r.cfg", small_cohort(tmp_path), tmp_path / "o")
        assert main(["extract", "--config", str(cfg)]) == 0
        assert len(list((tmp_path / "o" / "features").glob("*.feat"))) == 6 * 3

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_dead_worker_fails_only_its_subject(self, tmp_path):
        manifest = small_cohort(tmp_path)
        clean, out = tmp_path / "clean", tmp_path / "o"
        assert main(["extract", "--config",
                     str(write_config(tmp_path / "c.cfg", manifest, clean))]) == 0
        # containers of an earlier run, which the failed subject must not keep
        shutil.copytree(clean / "features", out / "features")
        proc = run_script(KILL_EXTRACT_WORKER, write_config(tmp_path / "r.cfg", manifest, out),
                          "sz001")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["sz001: FAILED (the worker extracting sz001 died)"]
        assert proc.stdout.splitlines()[-1] == "extracted 5/6 subjects"
        assert {p.name: p.read_bytes() for p in (out / "features").glob("*.feat")} == {
            p.name: p.read_bytes() for p in (clean / "features").glob("*.feat")
            if not p.name.startswith("sz001_")}

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_failures_and_warnings_same_on_one_and_two_cpus(self, tmp_path):
        manifest = small_cohort(tmp_path)
        with open(manifest.parent / "sz001.csv", "a") as fh:
            fh.write("1,2,x\n")
        rows = np.loadtxt(manifest.parent / "hc001.csv", delimiter=",")
        rows[:, 2] = 5.0
        np.savetxt(manifest.parent / "hc001.csv", rows, fmt="%.17g", delimiter=",")
        runs = {}
        for cpus in (1, 2):
            out = tmp_path / f"o{cpus}"
            proc = run_script(ON_CPUS, write_config(tmp_path / f"r{cpus}.cfg", manifest, out),
                              cpus, "extract")
            runs[cpus] = (proc.returncode, proc.stdout, proc.stderr,
                          {p.name: p.read_bytes() for p in (out / "features").glob("*.feat")})
        assert runs[1] == runs[2]
        code, stdout, stderr, files = runs[1]
        assert code == 1
        assert stdout.splitlines()[-1] == "extracted 4/6 subjects"
        # the warning comes once, from the parent, in subject order
        assert stderr.count("constant channel(s) [2] mapped to zeros") == 1
        assert (stderr.index("sz001: FAILED")
                < stderr.index("subject 'hc001': constant channel(s)")
                < stderr.index("hc001: FAILED"))
        assert len(files) == 4 * 3

    def test_singular_design_reports_infinite_condition_without_warning(self, tmp_path):
        manifest = small_cohort(tmp_path)
        rows = np.loadtxt(manifest.parent / "hc001.csv", delimiter=",")
        rows[:, 2] = 5.0
        np.savetxt(manifest.parent / "hc001.csv", rows, fmt="%.17g", delimiter=",")
        proc = run_script(ON_CPUS, write_config(tmp_path / "r.cfg", manifest, tmp_path / "o"),
                          1, "extract")
        assert proc.returncode == 1
        assert "RuntimeWarning" not in proc.stderr
        assert ("hc001: FAILED (rank-deficient design for VAR(2): rank 6 of 8, "
                "cond(X'X) ~ inf)") in proc.stderr.splitlines()

    @pytest.mark.parametrize("cpus", [
        1, pytest.param(2, marks=pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                                     reason="needs 2 usable CPUs"))])
    def test_warning_repeated_from_one_line_prints_once(self, tmp_path, cpus):
        manifest = small_cohort(tmp_path)
        proc = run_script(WARN_ON_EVERY_LOAD,
                          write_config(tmp_path / "r.cfg", manifest, tmp_path / "o"), cpus,
                          "extract")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("every subject warns from this line") == 1
        assert proc.stdout.splitlines()[-1] == "extracted 6/6 subjects"


class TestTrain:
    def test_artifacts_exist(self, workspace):
        _, _, out, _ = workspace
        assert (out / "folds.csv").exists()
        for rid in RESULT_IDS:
            for fold in range(2):
                assert (out / "models" / f"{rid}_fold{fold}.model").exists(), rid
        curves = list((out / "curves").glob("*.csv"))
        assert {c.name for c in curves} >= {
            "domain_var_fold0.csv", "domain_pdc_fold1.csv",
            "fusion_feature_fold0.csv", "fusion_score_stage2_fold1.csv",
        }

    def test_fold_plan_is_partition(self, workspace):
        _, _, out, manifest = workspace
        lines = (out / "folds.csv").read_text().splitlines()[1:]
        sids = [ln.split(",")[0] for ln in lines]
        folds = {int(ln.split(",")[1]) for ln in lines}
        assert len(sids) == 13 and folds == {0, 1}

    def test_failed_kind_is_isolated(self, workspace, tmp_path, monkeypatch, capsys):
        _, _, out, manifest = workspace
        out6 = tmp_path / "out6"
        shutil.copytree(out / "features", out6 / "features")
        cfg6 = write_config(tmp_path / "r6.cfg", manifest, out6, epochs=2,
                            model_kinds="cnn1d_cn,fusion_feature,svm_linear")
        train_model = pipeline.train_model

        def diverge_fusion_feature(model, *args, **kwargs):
            if model.name == "fusion_feature":
                raise TrainingDivergedError("validation loss became non-finite at epoch 0")
            return train_model(model, *args, **kwargs)

        monkeypatch.setattr(pipeline, "train_model", diverge_fusion_feature)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg6)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["fusion_feature: FAILED (validation loss became non-finite at epoch 0)"]
        models = {p.name for p in (out6 / "models").glob("*.model")}
        assert models == {f"{rid}_fold{fold}.model" for fold in range(2)
                          for rid in ("cnn1d_cn", "svm_var", "svm_pdc", "svm_cn", "svm_all")}
        curves = {p.name for p in (out6 / "curves").glob("*.csv")}
        assert curves == {"domain_cn_fold0.csv", "domain_cn_fold1.csv"}

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool-of-2"])
    def test_failed_member_fails_every_row_that_reads_it(self, workspace, tmp_path,
                                                          monkeypatch, capsys, cpus):
        # The nets train first: on one CPU in this process, on two in a pool
        # of two forked workers, which the patch reaches and which inherit
        # this process's one BLAS thread.
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
        _, _, out, manifest = workspace
        out12 = tmp_path / f"out12-{cpus}"
        shutil.copytree(out / "features", out12 / "features")
        cfg12 = write_config(tmp_path / f"r12-{cpus}.cfg", manifest, out12, epochs=2)
        train_model = pipeline.train_model

        def diverge_var(model, *args, **kwargs):
            if model.name == "cnn_var":
                raise TrainingDivergedError("validation loss became non-finite at epoch 0")
            return train_model(model, *args, **kwargs)

        monkeypatch.setattr(pipeline, "train_model", diverge_var)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg12)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"{rid}: FAILED (validation loss became non-finite at epoch 0)"
                       for rid in ("cnn2d_var", "fusion_score", "fusion_decision")]
        models = {p.name for p in (out12 / "models").glob("*.model")}
        kept = ("cnn2d_pdc", "cnn1d_cn", "fusion_feature", "svm_var", "svm_pdc", "svm_cn",
                "svm_all")
        assert models == {f"{rid}_fold{fold}.model" for fold in range(2) for rid in kept}
        curves = {p.name for p in (out12 / "curves").glob("*.csv")}
        assert curves == {f"{stem}_fold{fold}.csv" for fold in range(2)
                          for stem in ("domain_pdc", "domain_cn", "fusion_feature")}

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_dead_worker_fails_its_rows_without_a_traceback(self, workspace, tmp_path):
        _, _, out, manifest = workspace
        out13 = tmp_path / "out13"
        shutil.copytree(out / "features", out13 / "features")
        cfg13 = write_config(tmp_path / "r13.cfg", manifest, out13, epochs=2)
        proc = run_script(KILL_PDC_WORKER, cfg13)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        # The pdc net of fold 0 is the first to kill its worker; the other
        # jobs it left unfinished train again and are not failed.
        failed = ("cnn2d_pdc", "fusion_score", "fusion_decision")
        assert proc.stderr.strip().splitlines() == [
            f"{rid}: FAILED (the worker training the pdc net of fold 0 died)" for rid in failed]
        assert all(f"{rid}: trained 2 folds" in proc.stdout
                   for rid in set(RESULT_IDS) - set(failed))

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_dead_ensemble_worker_fails_only_its_row(self, workspace, tmp_path):
        _, _, out, manifest = workspace
        copy = tmp_path / "out"
        shutil.copytree(out / "features", copy / "features")
        proc = run_script(KILL_STAGE2_WORKER,
                          write_config(tmp_path / "r.cfg", manifest, copy, epochs=2))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines() == [
            "fusion_score: FAILED (the worker fusing the fusion_score members of fold 0 died)"]
        assert all(f"{rid}: trained 2 folds" in proc.stdout
                   for rid in RESULT_IDS if rid != "fusion_score")
        assert not list((copy / "models").glob("fusion_score_*"))
        assert not list((copy / "curves").glob("fusion_score_*"))

    def test_unstandardized_inputs_score_as_eval_does(self, workspace, tmp_path, capsys):
        _, _, out, manifest = workspace
        copy = tmp_path / "out"
        shutil.copytree(out / "features", copy / "features")
        cfg = write_config(tmp_path / "r.cfg", manifest, copy, standardize_features="false")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 0
        printed = dict(re.fullmatch(r"(\w+): trained 2 folds, modified accuracy "
                                    r"([\d.]+)% \(\+/-[\d.]+\)", line).groups()
                       for line in capsys.readouterr().out.splitlines())
        for path in (copy / "models").glob("*.model"):
            entries, meta = serialize.load_bundle(path)
            assert meta["standardized_inputs"] is False, path.name
            assert not [role for role in entries if role.startswith("stats_")], path.name
        assert main(["eval", "--config", str(cfg)]) == 0
        assert printed == {rid: f"{row['mean']['modified_accuracy']:.2f}"
                           for rid, row in _rows_by_model(copy).items()}
        args = ["predict", "--config", str(cfg),
                "--model", str(copy / "models" / "fusion_score_fold0.model")]
        for dom in ("var", "pdc", "cn"):
            args += ["--input", str(copy / "features" / f"sz000_{dom}.feat")]
        assert main(args) == 0

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_worker_dying_while_saving_leaves_no_partial_file(self, workspace, tmp_path):
        _, _, out, manifest = workspace
        copy = tmp_path / "out"
        shutil.copytree(out / "features", copy / "features")
        proc = run_script(KILL_WHILE_SAVING, write_config(tmp_path / "r.cfg", manifest, copy),
                          "cnn2d_pdc_fold1.model")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        failed = ("cnn2d_pdc", "fusion_score", "fusion_decision")
        assert proc.stderr.strip().splitlines() == [
            f"{rid}: FAILED (the worker training the pdc net of fold 1 died)" for rid in failed]
        models = {p.name for p in (copy / "models").iterdir()}
        assert models == {f"{rid}_fold{fold}.model" for fold in range(2)
                          for rid in RESULT_IDS if rid not in failed}
        for folder in ("models", "curves"):
            for path in (copy / folder).iterdir():
                assert path.read_bytes() == (out / folder / path.name).read_bytes(), path.name

    def test_failed_retrain_keeps_no_model_file(self, tmp_path, capsys):
        manifest = make_synthetic_cohort(tmp_path / "data", seed=3, n_group_a=9, n_group_b=9,
                                         channels=4, samples=300)
        out = tmp_path / "o"
        kinds = "cnn2d_var,svm_linear"
        cfg = write_config(tmp_path / "r.cfg", manifest, out, model_kinds=kinds, seed=1)
        assert main(["extract", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        # a retrain with other folds whose net diverges must not leave the
        # earlier run's models, trained on this run's test subjects, to eval
        cfg = write_config(tmp_path / "r.cfg", manifest, out, model_kinds=kinds, seed=2,
                           learning_rate=1e300)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cnn2d_var: FAILED (cnn_var: non-finite")
        assert not list((out / "models").glob("cnn2d_var_*"))
        assert main(["eval", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cnn2d_var: FAILED (")

    def test_failed_retrain_keeps_no_learning_curve(self, tmp_path, capsys):
        manifest = make_synthetic_cohort(tmp_path / "data", seed=3, n_group_a=9, n_group_b=9,
                                         channels=4, samples=300)
        out = tmp_path / "o"
        kinds = "cnn2d_var,svm_linear"
        cfg = write_config(tmp_path / "r.cfg", manifest, out, model_kinds=kinds, seed=1)
        assert main(["extract", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        assert {p.name for p in (out / "curves").iterdir()} == {
            "domain_var_fold0.csv", "domain_var_fold1.csv"}
        cfg = write_config(tmp_path / "r.cfg", manifest, out, model_kinds=kinds, seed=2,
                           learning_rate=1e300)
        assert main(["train", "--config", str(cfg)]) == 1
        assert not list((out / "curves").iterdir())
        assert main(["report", "--config", str(cfg)]) == 0
        assert "learning-curve SVGs: 0" in capsys.readouterr().out
        assert not list((out / "report").glob("*.svg"))

    def test_narrower_retrain_keeps_only_its_own_files(self, workspace, tmp_path, capsys):
        _, _, out, manifest = workspace
        copy = tmp_path / "out"
        shutil.copytree(out, copy)  # all seven kinds trained, evaluated and reported, seed 11
        cfg = write_config(tmp_path / "r.cfg", manifest, copy, model_kinds="cnn2d_var",
                           seed=12, epochs=2)
        assert main(["train", "--config", str(cfg)]) == 0
        assert {p.name for p in (copy / "models").iterdir()} == {
            "cnn2d_var_fold0.model", "cnn2d_var_fold1.model"}
        assert {p.name for p in (copy / "curves").iterdir()} == {
            "domain_var_fold0.csv", "domain_var_fold1.csv"}
        assert not (copy / "metrics.json").exists()
        assert not (copy / "report").exists()
        # the earlier run's other models were trained on some of this run's
        # test subjects, so eval must not score them
        cfg = write_config(tmp_path / "r.cfg", manifest, copy, seed=12, epochs=2,
                           model_kinds="cnn2d_var,cnn2d_pdc,svm_linear")
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.partition(": FAILED (")[0] for line in err] == [
            "cnn2d_pdc", "svm_var", "svm_pdc", "svm_cn", "svm_all"]
        assert [row["model"] for row in json.loads((copy / "metrics.json").read_text())["rows"]
                ] == ["cnn2d_var"]

    def test_net_failing_in_one_fold_keeps_none_of_its_files(self, workspace, tmp_path,
                                                             monkeypatch, capsys):
        _, _, out, manifest = workspace
        copy = tmp_path / "out"
        shutil.copytree(out / "features", copy / "features")
        cfg = write_config(tmp_path / "r.cfg", manifest, copy, model_kinds="cnn2d_var,svm_linear")
        train_net = pipeline.ExperimentRunner.train_net

        def diverge_var_fold1(runner, label, fold, *args):
            if (label, fold) == ("var", 1):
                raise TrainingDivergedError("validation loss became non-finite at epoch 0")
            return train_net(runner, label, fold, *args)

        monkeypatch.setattr(pipeline.ExperimentRunner, "train_net", diverge_var_fold1)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "cnn2d_var: FAILED (validation loss became non-finite at epoch 0)"]
        # the fold-0 job wrote both files; the failed row keeps neither
        assert not (copy / "models" / "cnn2d_var_fold0.model").exists()
        assert not (copy / "curves" / "domain_var_fold0.csv").exists()
        assert {p.name for p in (copy / "models").iterdir()} == {
            f"{rid}_fold{fold}.model" for fold in range(2)
            for rid in ("svm_var", "svm_pdc", "svm_cn", "svm_all")}

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_diverging_nets_print_only_failed_lines_on_one_and_two_cpus(self, workspace,
                                                                         tmp_path):
        _, _, out, manifest = workspace
        runs = {}
        for cpus in (1, 2):
            copy = tmp_path / f"o{cpus}"
            shutil.copytree(out / "features", copy / "features")
            cfg = write_config(tmp_path / f"r{cpus}.cfg", manifest, copy, folds=3,
                               model_kinds="cnn2d_var,cnn2d_pdc,svm_linear",
                               learning_rate=1e300)
            proc = run_script(ON_CPUS, cfg, cpus, "train")
            runs[cpus] = (proc.returncode, proc.stdout, proc.stderr)
        assert runs[1] == runs[2]
        code, _, stderr = runs[1]
        assert code == 1
        assert stderr.splitlines() == [
            f"cnn2d_{d}: FAILED (cnn_{d}: non-finite gradient in layer 5 (dense).w)"
            for d in ("var", "pdc")]

    def test_curve_length_matches_epochs(self, workspace):
        _, _, out, _ = workspace
        lines = (out / "curves" / "domain_var_fold0.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) - 1 == 6


class TestEval:
    def test_metrics_json_layout(self, workspace):
        _, _, out, _ = workspace
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["folds"] == 2
        assert payload["positive_class"] == "SZ"
        models = [row["model"] for row in payload["rows"]]
        assert models == RESULT_IDS
        for row in payload["rows"]:
            assert set(row["mean"]) == {"accuracy", "sensitivity", "specificity",
                                        "modified_accuracy"}
            assert len(row["per_fold"]) == 2
            assert row["mean"]["modified_accuracy"] == pytest.approx(
                (row["mean"]["sensitivity"] + row["mean"]["specificity"]) / 2.0
            )
            conf = row["confusion"]
            assert conf["tp"] + conf["fn"] + conf["tn"] + conf["fp"] == 13

    def test_main_runs_the_command_found_on_the_module(self, workspace, monkeypatch):
        _, cfg, _, _ = workspace
        calls = []
        monkeypatch.setattr(cli, "cmd_eval", lambda run_cfg: calls.append(run_cfg) or 0)
        assert main(["eval", "--config", str(cfg)]) == 0
        assert [c.output_dir for c in calls] == [parse_config(cfg).output_dir]

    def test_one_cpu_forks_no_process(self, workspace, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("eval forked on one CPU")

        _, _, out, manifest = workspace
        copy = copy_for_eval(workspace, tmp_path)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        assert main(["eval", "--config", str(write_config(tmp_path / "r.cfg", manifest,
                                                          copy))]) == 0
        assert (copy / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_failures_same_on_one_and_two_cpus(self, workspace, tmp_path):
        _, _, _, manifest = workspace
        copy = copy_for_eval(workspace, tmp_path)
        flip_bit(copy / "models" / "cnn2d_var_fold0.model")  # fails three rows in fold 0
        (copy / "models" / "svm_cn_fold1.model").unlink()
        cfg = write_config(tmp_path / "r.cfg", manifest, copy)
        runs = {}
        for cpus in (1, 2):
            proc = run_script(ON_CPUS, cfg, cpus, "eval")
            runs[cpus] = (proc.returncode, proc.stdout, proc.stderr,
                          (copy / "metrics.json").read_bytes())
            (copy / "metrics.json").unlink()
        assert runs[1] == runs[2]
        code, _, stderr, metrics = runs[1]
        assert code == 1
        failed = [line.partition(":")[0] for line in stderr.splitlines()]
        assert failed == ["cnn2d_var", "fusion_score", "fusion_decision", "svm_cn"]
        assert [row["model"] for row in json.loads(metrics)["rows"]] == [
            rid for rid in RESULT_IDS if rid not in failed]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_dead_worker_fails_its_fold_without_a_traceback(self, workspace, tmp_path):
        _, _, _, manifest = workspace
        copy = copy_for_eval(workspace, tmp_path)
        (copy / "models" / "svm_cn_fold0.model").unlink()  # fails in fold 0 first
        proc = run_script(KILL_EVAL_WORKER, write_config(tmp_path / "r.cfg", manifest, copy),
                          copy / "folds.csv")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        want = [f"{rid}: FAILED (the worker evaluating fold 1 died)" for rid in RESULT_IDS]
        want[RESULT_IDS.index("svm_cn")] = ("svm_cn: FAILED ([Errno 2] No such file or "
                                            f"directory: '{copy}/models/svm_cn_fold0.model')")
        assert proc.stderr.splitlines() == want
        assert json.loads((copy / "metrics.json").read_text())["rows"] == []

    def test_deterministic_across_runs(self, workspace, tmp_path):
        root, _, out, manifest = workspace
        out2 = tmp_path / "out2"
        cfg2 = write_config(tmp_path / "r2.cfg", manifest, out2)
        assert main(["extract", "--config", str(cfg2)]) == 0
        assert main(["train", "--config", str(cfg2)]) == 0
        assert main(["eval", "--config", str(cfg2)]) == 0
        assert (out2 / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()
        model = "models/fusion_decision_fold0.model"
        assert (out2 / model).read_bytes() == (out / model).read_bytes()

    def test_band_filter_restricts_inputs(self, workspace, tmp_path):
        root, _, _, manifest = workspace
        out4 = tmp_path / "out4"
        cfg4 = write_config(tmp_path / "r4.cfg", manifest, out4,
                            model_kinds="cnn2d_pdc,cnn1d_cn", epochs=3,
                            band_filter="alpha")
        assert main(["extract", "--config", str(cfg4)]) == 0
        assert main(["train", "--config", str(cfg4)]) == 0
        assert main(["eval", "--config", str(cfg4)]) == 0
        payload = json.loads((out4 / "metrics.json").read_text())
        assert [row["model"] for row in payload["rows"]] == ["cnn2d_pdc", "cnn1d_cn"]

    def test_fold_plan_missing_subjects_fail_up_front(self, workspace, tmp_path, capsys):
        root, _, out, manifest = workspace
        out5 = tmp_path / "out5"
        shutil.copytree(out / "features", out5 / "features")
        shutil.copytree(out / "models", out5 / "models")
        lines = (out / "folds.csv").read_text().splitlines()
        kept = [ln for ln in lines if not ln.startswith(("sz000,", "hc002,"))]
        assert len(kept) == len(lines) - 2
        (out5 / "folds.csv").write_text("\n".join(kept) + "\n")
        cfg5 = write_config(tmp_path / "r5.cfg", manifest, out5)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg5)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "sz000" in err[0] and "hc002" in err[0]
        assert not (out5 / "metrics.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:1], "assigns no subject to a fold"),
        (lambda lines: [lines[0], "sz000,first"], "line 2: fold 'first' is not an integer"),
        (lambda lines: [lines[0], lines[1].rpartition(",")[0] + ",-1", *lines[2:]],
         "line 2: fold -1 is negative"),
        (lambda lines: [*lines, lines[1]], "line 15: subject 'sz000' already has a fold on line 2"),
        (lambda lines: [ln[:-2] + ",3" if ln.endswith(",1") else ln for ln in lines],
         "fold 3, but no subject has fold 1, 2"),
    ], ids=["header-only", "non-integer-fold", "negative-fold", "duplicate-subject",
            "fold-without-subjects"])
    def test_bad_fold_plan_is_one_error_line(self, workspace, tmp_path, capsys, edit, message):
        _, _, out, manifest = workspace
        out7 = tmp_path / "out7"
        shutil.copytree(out / "features", out7 / "features")
        shutil.copytree(out / "models", out7 / "models")
        lines = (out / "folds.csv").read_text().splitlines()
        assert len(lines) == 14  # the complete plan: header and 13 subjects
        (out7 / "folds.csv").write_text("\n".join(edit(lines)) + "\n")
        cfg7 = write_config(tmp_path / "r7.cfg", manifest, out7, model_kinds="svm_linear")
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg7)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "folds.csv" in err[0]
        assert message in err[0]
        assert not (out7 / "metrics.json").exists()

    def test_unknown_positive_class_is_one_error_line(self, workspace, tmp_path, capsys):
        _, _, out, manifest = workspace
        copy = tmp_path / "out"
        shutil.copytree(out / "features", copy / "features")
        shutil.copytree(out / "models", copy / "models")
        shutil.copy(out / "folds.csv", copy / "folds.csv")
        cfg = write_config(tmp_path / "r.cfg", manifest, copy, positive_class="XX")
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: positive class 'XX'")
        assert not (copy / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_missing_features_name_every_subject(self, workspace, tmp_path, capsys, command):
        _, _, out, manifest = workspace
        out8 = tmp_path / "out8"
        shutil.copytree(out / "features", out8 / "features")
        shutil.copy(out / "folds.csv", out8 / "folds.csv")
        (out8 / "features" / "sz001_pdc.feat").unlink()
        (out8 / "features" / "hc003_var.feat").unlink()
        cfg8 = write_config(tmp_path / "r8.cfg", manifest, out8)
        capsys.readouterr()
        assert main([command, "--config", str(cfg8)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "sz001" in err[0] and "hc003" in err[0]
        assert not (out8 / "models").exists() and not (out8 / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mixed_containers_name_every_subject(self, workspace, tmp_path, capsys, command):
        _, _, out, manifest = workspace
        out9 = tmp_path / "out9"
        feat = out9 / "features"
        shutil.copytree(out / "features", feat)
        shutil.copy(out / "folds.csv", out9 / "folds.csv")
        var, _ = read_container(feat / "sz001_var.feat")  # 4 x 4 x 2 lags
        write_container(feat / "sz001_var.feat", "VAR", np.concatenate([var, var[..., :1]], 2),
                        "sz001", "SZ")
        cn, _ = read_container(feat / "hc003_cn.feat")
        renamed = BandSpec(tuple((f"b{i}", i + 1.0, i + 2.0) for i in range(cn.shape[1])))
        write_container(feat / "hc003_cn.feat", "CN", cn, "hc003", "HC", bands=renamed)
        cfg9 = write_config(tmp_path / "r9.cfg", manifest, out9)
        capsys.readouterr()
        assert main([command, "--config", str(cfg9)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "sz001 (var 4x4x3)" in err[0] and "hc003 (cn bands b0,b1,b2,b3,b4)" in err[0]
        assert not (out9 / "models").exists() and not (out9 / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("source, target, holds", [
        ("cnn2d_var_fold1", "cnn2d_var_fold0", "fold 1, not 0"),
        ("cnn2d_pdc_fold0", "cnn2d_var_fold0", "model_kind 'cnn2d_pdc', not 'cnn2d_var'"),
        ("svm_var_fold0", "svm_pdc_fold0", "feature 'var', not 'pdc'"),
    ], ids=["other-fold", "other-kind", "other-feature"])
    def test_file_of_another_row_or_fold_fails_its_row(self, workspace, tmp_path, capsys,
                                                       source, target, holds, command):
        _, _, out, manifest = workspace
        copy = copy_for_eval(workspace, tmp_path)
        models = copy / "models"
        shutil.copy(models / f"{source}.model", models / f"{target}.model")
        cfg = write_config(tmp_path / "r.cfg", manifest, copy, model_kinds="cnn2d_var,svm_linear")
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        failed = target.rsplit("_fold", 1)[0]
        assert capsys.readouterr().err.splitlines() == [
            f"{failed}: FAILED ({models}/{target}.model: holds {holds})"]
        kept = [rid for rid in ("cnn2d_var", "svm_var", "svm_pdc", "svm_cn", "svm_all")
                if rid != failed]
        if command == "eval":
            want = _rows_by_model(out)
            assert list(_rows_by_model(copy).values()) == [want[rid] for rid in kept]
        else:
            table = (copy / "report" / "latency.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in table[1:]] == kept

    def test_seed_override_changes_results(self, workspace, tmp_path):
        root, _, out, manifest = workspace
        out3 = tmp_path / "out3"
        cfg3 = write_config(tmp_path / "r3.cfg", manifest, out3,
                            model_kinds="cnn1d_cn", epochs=3)
        assert main(["extract", "--config", str(cfg3)]) == 0
        assert main(["train", "--config", str(cfg3), "--seed", "99"]) == 0
        assert main(["eval", "--config", str(cfg3), "--seed", "99"]) == 0
        payload = json.loads((out3 / "metrics.json").read_text())
        assert payload["seed"] == 99


class TestPredict:
    def test_single_domain_prediction(self, workspace, capsys):
        _, cfg, out, _ = workspace
        rc = main([
            "predict", "--config", str(cfg),
            "--model", str(out / "models" / "cnn2d_var_fold0.model"),
            "--input", str(out / "features" / "sz000_var.feat"),
        ])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["subject_id"] == "sz000"
        assert result["label"] in ("SZ", "HC")
        assert sum(result["probabilities"].values()) == pytest.approx(1.0, abs=1e-9)

    def test_repeated_feature_kind_rejected(self, workspace, capsys):
        _, cfg, out, _ = workspace
        feat = str(out / "features" / "sz000_pdc.feat")
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg),
                     "--model", str(out / "models" / "cnn2d_pdc_fold0.model"),
                     "--input", feat, "--input", feat]) == 2
        assert capsys.readouterr().err == "error: two --input containers of feature kind PDC\n"

    def test_fusion_prediction_needs_three_inputs(self, workspace, capsys):
        _, cfg, out, _ = workspace
        args = [
            "predict", "--config", str(cfg),
            "--model", str(out / "models" / "fusion_decision_fold0.model"),
        ]
        for dom in ("var", "pdc", "cn"):
            args += ["--input", str(out / "features" / f"hc002_{dom}.feat")]
        assert main(args) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["subject_id"] == "hc002"

    def test_bands_come_from_the_input_header(self, workspace, tmp_path, capsys):
        _, cfg, out, _ = workspace
        bands = BandSpec((("low", 4.0, 8.0), ("high", 8.0, 14.0)))
        pdc, _ = read_container(out / "features" / "sz000_pdc.feat")
        pdc = pdc[..., 1:3]  # two bands, neither in the default order nor names
        feat = tmp_path / "sz000_pdc.feat"
        write_container(feat, "PDC", pdc, "sz000", "SZ", bands=bands)
        spec = ModelSpec(kind="cnn2d_pdc", channels=4, n_bands=1)
        net = build_domain_network("pdc", spec, seed=5)
        model = tmp_path / "pdc_high.model"
        save_bundle(model, {"main": net}, meta={
            "model_kind": "cnn2d_pdc", "feature": "PDC", "feature_set": "all",
            "class_names": ["HC", "SZ"], "band_filter": ["high"],
            "standardized_inputs": False,
        })
        rc = main(["predict", "--config", str(cfg), "--model", str(model),
                   "--input", str(feat)])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        expected = net.predict_proba(pdc[None][..., [1]])[0]
        assert result["probabilities"]["HC"] == pytest.approx(expected[0], rel=1e-12)
        assert result["probabilities"]["SZ"] == pytest.approx(expected[1], rel=1e-12)

    def test_inputs_with_different_bands_rejected(self, workspace, tmp_path):
        _, cfg, out, _ = workspace
        pdc, _ = read_container(out / "features" / "sz000_pdc.feat")
        feat = tmp_path / "sz000_pdc.feat"
        write_container(feat, "PDC", pdc[..., :2], "sz000", "SZ",
                        bands=BandSpec((("low", 4.0, 8.0), ("high", 8.0, 14.0))))
        rc = main([
            "predict", "--config", str(cfg),
            "--model", str(out / "models" / "fusion_decision_fold0.model"),
            "--input", str(out / "features" / "sz000_var.feat"),
            "--input", str(feat),
            "--input", str(out / "features" / "sz000_cn.feat"),
        ])
        assert rc == 2

    def test_mixed_subjects_rejected(self, workspace, capsys):
        _, cfg, out, _ = workspace
        rc = main([
            "predict", "--config", str(cfg),
            "--model", str(out / "models" / "fusion_decision_fold0.model"),
            "--input", str(out / "features" / "sz000_var.feat"),
            "--input", str(out / "features" / "hc002_pdc.feat"),
            "--input", str(out / "features" / "hc002_cn.feat"),
        ])
        assert rc == 2


# id, edit of a bundle's metadata, what the error says after the file's name
META_FAULTS = [
    ("unknown-kind", lambda meta: meta.update(model_kind="bogus"), "unknown model kind 'bogus'"),
    ("no-kind", lambda meta: meta.pop("model_kind"),
     "header key 'model_kind' is missing or of the wrong type"),
    ("no-class-names", lambda meta: meta.pop("class_names"),
     "header key 'class_names' is missing or of the wrong type"),
    ("one-class-name", lambda meta: meta.update(class_names=["HC"]),
     "class_names ['HC'] are not two names"),
]

# id, edit of a cnn2d_var bundle's stats_var entry ({"mean": ..., "sd": ...}),
# what the error says after the file's name
STATS_FAULTS = [
    ("no-sd", lambda rec: rec.pop("sd"), "bundle entry 'stats_var' is not a mean and an sd"),
    ("broadcastable-shape",
     lambda rec: rec.update(mean=rec["mean"][..., :1], sd=rec["sd"][..., :1]),
     "input statistics of shapes (4, 4, 1) and (4, 4, 1) for inputs of shape (4, 4, 2)"),
    ("flat-shape", lambda rec: rec.update(mean=rec["mean"].ravel()),
     "input statistics of shapes (32,) and (4, 4, 2) for inputs of shape (4, 4, 2)"),
]


def _edit_stats(src: Path, dst: Path, edit) -> None:
    """Save ``src`` at ``dst`` with ``edit`` applied to its stats_var entry."""
    entries, meta = serialize.load_bundle(src)
    entries["stats_var"] = rec = dict(entries["stats_var"])
    edit(rec)
    save_bundle(dst, entries, meta=meta)


class TestMalformedFiles:
    """A malformed container or bundle gives one error line and exit 2; in
    eval, where result rows are isolated, one FAILED line and exit 1."""

    def test_container_in_train(self, workspace, tmp_path, capsys):
        _, _, out, manifest = workspace
        out10 = tmp_path / "out10"
        shutil.copytree(out / "features", out10 / "features")
        resign(out10 / "features" / "hc003_cn.feat", container.MAGIC, lambda h: h.pop("shape"))
        cfg10 = write_config(tmp_path / "r10.cfg", manifest, out10)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg10)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "hc003_cn.feat: header key 'shape'" in err[0]
        assert not (out10 / "models").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.update(bands=[list(b) for b in BandSpec().bands]), "5 bands for shape"),
        (lambda h: h.pop("shape"), "header key 'shape'"),
        (lambda h: b"{not json", "unreadable header"),
    ], ids=["5-bands-over-2", "no-shape", "header-not-json"])
    def test_container_in_predict(self, workspace, tmp_path, capsys, edit, message):
        _, cfg, out, _ = workspace
        pdc, _ = read_container(out / "features" / "sz000_pdc.feat")
        feat = tmp_path / "sz000_pdc.feat"
        write_container(feat, "PDC", pdc[..., 3:], "sz000", "SZ",
                        bands=BandSpec(BandSpec().bands[3:]))
        resign(feat, container.MAGIC, edit)
        model = tmp_path / "pdc_gamma.model"
        save_bundle(model, {"main": build_domain_network(
            "pdc", ModelSpec(kind="cnn2d_pdc", channels=4, n_bands=1), seed=5)}, meta={
            "model_kind": "cnn2d_pdc", "feature": "PDC", "feature_set": "all",
            "class_names": ["HC", "SZ"], "band_filter": ["gamma"],
            "standardized_inputs": False,
        })
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg), "--model", str(model),
                     "--input", str(feat)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {feat}: ") and message in err[0]

    @pytest.mark.parametrize("key", ["params", "meta"])
    def test_bundle_in_predict(self, workspace, tmp_path, capsys, key):
        _, cfg, out, _ = workspace
        model = tmp_path / "cnn2d_var_fold0.model"
        shutil.copy(out / "models" / model.name, model)
        resign(model, serialize.MAGIC, lambda h: h.pop(key))
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg), "--model", str(model),
                     "--input", str(out / "features" / "sz000_var.feat")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {model}: header key {key!r} is missing or of the wrong type"]

    @pytest.mark.parametrize("name, role", [
        ("cnn2d_var_fold0.model", "main"),
        ("fusion_decision_fold0.model", "member_cn"),
        ("svm_all_fold0.model", "svm"),
    ], ids=["net", "ensemble", "svm"])
    def test_bundle_without_its_entry_in_predict(self, workspace, tmp_path, capsys, name, role):
        _, cfg, out, _ = workspace
        entries, meta = serialize.load_bundle(out / "models" / name)
        entries["other"] = entries.pop(role)
        model = tmp_path / name
        save_bundle(model, entries, meta=meta)
        args = ["predict", "--config", str(cfg), "--model", str(model)]
        for dom in ("var", "pdc", "cn"):
            args += ["--input", str(out / "features" / f"sz000_{dom}.feat")]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {model}: bundle has no entry {role!r}"]

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d.pop("seed"), "seed"),
        (lambda d: d["layers"][0].pop("kind"), "kind"),
        (lambda d: d["layers"][-2].update(width=3), "width"),
    ], ids=["no-seed", "layer-without-kind", "unknown-layer-argument"])
    def test_bundle_descriptor_in_predict(self, workspace, tmp_path, capsys, edit, key):
        _, cfg, out, _ = workspace
        model = tmp_path / "cnn2d_var_fold0.model"
        shutil.copy(out / "models" / model.name, model)
        resign(model, serialize.MAGIC, lambda h: edit(h["entries"][0]["descriptor"]))
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg), "--model", str(model),
                     "--input", str(out / "features" / "sz000_var.feat")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {model}: ") and f"'{key}'" in err[0]

    @pytest.mark.parametrize("edit, message", [row[1:] for row in META_FAULTS],
                             ids=[row[0] for row in META_FAULTS])
    def test_bundle_meta_in_predict(self, workspace, tmp_path, capsys, edit, message):
        _, cfg, out, _ = workspace
        model = tmp_path / "cnn2d_var_fold0.model"
        shutil.copy(out / "models" / model.name, model)
        resign(model, serialize.MAGIC, lambda h: edit(h["meta"]))
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg), "--model", str(model),
                     "--input", str(out / "features" / "sz000_var.feat")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {model}: {message}"]

    @pytest.mark.parametrize("edit, message", [row[1:] for row in META_FAULTS],
                             ids=[row[0] for row in META_FAULTS])
    def test_bundle_meta_in_eval_fails_its_row(self, workspace, tmp_path, capsys, edit,
                                               message):
        _, _, out, manifest = workspace
        copy = copy_for_eval(workspace, tmp_path)
        model = copy / "models" / "cnn2d_var_fold1.model"
        resign(model, serialize.MAGIC, lambda h: edit(h["meta"]))
        cfg = write_config(tmp_path / "r.cfg", manifest, copy, model_kinds="cnn2d_var,cnn1d_cn")
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"cnn2d_var: FAILED ({model}: {message})"]
        assert list(_rows_by_model(copy).values()) == [_rows_by_model(out)["cnn1d_cn"]]

    @pytest.mark.parametrize("edit, message", [row[1:] for row in STATS_FAULTS],
                             ids=[row[0] for row in STATS_FAULTS])
    def test_stats_in_predict(self, workspace, tmp_path, capsys, edit, message):
        _, cfg, out, _ = workspace
        model = tmp_path / "cnn2d_var_fold0.model"
        _edit_stats(out / "models" / model.name, model, edit)
        capsys.readouterr()
        assert main(["predict", "--config", str(cfg), "--model", str(model),
                     "--input", str(out / "features" / "sz000_var.feat")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {model}: {message}"]

    @pytest.mark.parametrize("edit, message", [row[1:] for row in STATS_FAULTS],
                             ids=[row[0] for row in STATS_FAULTS])
    def test_stats_in_eval_fail_their_row(self, workspace, tmp_path, capsys, edit, message):
        _, _, out, manifest = workspace
        copy = copy_for_eval(workspace, tmp_path)
        name = "cnn2d_var_fold1.model"
        _edit_stats(out / "models" / name, copy / "models" / name, edit)
        cfg = write_config(tmp_path / "r.cfg", manifest, copy, model_kinds="cnn2d_var,cnn1d_cn")
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cnn2d_var: FAILED (") and message in err[0]
        assert list(_rows_by_model(copy).values()) == [_rows_by_model(out)["cnn1d_cn"]]

    def test_bundle_in_eval_fails_its_row(self, workspace, tmp_path, capsys):
        _, _, out, manifest = workspace
        out11 = tmp_path / "out11"
        shutil.copytree(out / "features", out11 / "features")
        shutil.copytree(out / "models", out11 / "models")
        shutil.copy(out / "folds.csv", out11 / "folds.csv")
        model = out11 / "models" / "cnn2d_var_fold1.model"
        resign(model, serialize.MAGIC, lambda h: h.pop("params"))
        cfg11 = write_config(tmp_path / "r11.cfg", manifest, out11,
                             model_kinds="cnn2d_var,cnn1d_cn")
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg11)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"cnn2d_var: FAILED ({model}: header key 'params' is missing or of the "
                       "wrong type)"]
        rows = json.loads((out11 / "metrics.json").read_text())["rows"]
        assert [row["model"] for row in rows] == ["cnn1d_cn"]


@pytest.fixture(scope="module")
def stale_var_member(workspace, tmp_path_factory) -> Path:
    """A valid fold-0 cnn2d_var bundle trained with other epochs than the
    ensembles' var member."""
    _, _, out, manifest = workspace
    root = tmp_path_factory.mktemp("stale")
    shutil.copytree(out / "features", root / "out" / "features")
    cfg = write_config(root / "r.cfg", manifest, root / "out", model_kinds="cnn2d_var", epochs=2)
    assert main(["train", "--config", str(cfg)]) == 0
    return root / "out" / "models" / "cnn2d_var_fold0.model"


def _rows_by_model(out: Path) -> dict[str, dict]:
    """The rows of ``out``'s metrics.json by model, in file order."""
    return {row["model"]: row for row in json.loads((out / "metrics.json").read_text())["rows"]}


def _retarget_ensembles(models: Path, **fields) -> None:
    """Re-sign both fold-0 ensemble bundles with their var reference's fields replaced."""
    for rid in ("fusion_score", "fusion_decision"):
        retarget(models / f"{rid}_fold0.model", "member_var", **fields)


# id, edit of the models directory (fold 0), what the error says after the
# ensemble file's name ({models}: the directory)
REFERENCE_FAULTS = [
    ("missing-member", lambda models, stale: (models / "cnn2d_var_fold0.model").unlink(),
     "member bundle {models}/cnn2d_var_fold0.model cannot be read"),
    ("tampered-member", lambda models, stale: flip_bit(models / "cnn2d_var_fold0.model"),
     "member bundle {models}/cnn2d_var_fold0.model: checksum mismatch"),
    ("stale-member", lambda models, stale: shutil.copy(stale, models / "cnn2d_var_fold0.model"),
     "member bundle {models}/cnn2d_var_fold0.model has sha256"),
    ("parent-directory", lambda models, stale: _retarget_ensembles(
        models, file="../models/cnn2d_var_fold0.model"),
     "member file '../models/cnn2d_var_fold0.model' is not a file name"),
    ("absolute-path", lambda models, stale: _retarget_ensembles(
        models, file=str(models / "cnn2d_var_fold0.model")),
     "member file '{models}/cnn2d_var_fold0.model' is not a file name"),
    ("member-holds-references", lambda models, stale: _retarget_ensembles(
        models, file="fusion_decision_fold1.model", role="member_var",
        sha256=(models / "fusion_decision_fold1.model").read_bytes()[-32:].hex()),
     "member bundle {models}/fusion_decision_fold1.model holds references itself"),
]


class TestBundleReferences:
    """An ensemble bundle refers to its members' own bundles; a member that is
    missing, tampered, stale or out of reach gives one error line naming both
    files in predict, and fails only the ensemble rows in eval."""

    @staticmethod
    def _faulted(workspace, tmp_path, edit, stale) -> Path:
        copy = copy_for_eval(workspace, tmp_path)
        edit(copy / "models", stale)
        return copy

    @pytest.mark.parametrize("edit, message", [row[1:] for row in REFERENCE_FAULTS],
                             ids=[row[0] for row in REFERENCE_FAULTS])
    def test_predict_names_both_files(self, workspace, tmp_path, capsys, stale_var_member,
                                      edit, message):
        _, cfg, _, _ = workspace
        copy = self._faulted(workspace, tmp_path, edit, stale_var_member)
        models = copy / "models"
        args = ["predict", "--config", str(cfg),
                "--model", str(models / "fusion_decision_fold0.model")]
        for dom in ("var", "pdc", "cn"):
            args += ["--input", str(copy / "features" / f"sz000_{dom}.feat")]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {models}/fusion_decision_fold0.model: "
                                 + message.format(models=models)), err[0]

    @pytest.mark.parametrize("edit, message", [row[1:] for row in REFERENCE_FAULTS],
                             ids=[row[0] for row in REFERENCE_FAULTS])
    def test_eval_fails_only_the_ensemble_rows(self, workspace, tmp_path, capsys,
                                               stale_var_member, edit, message):
        _, _, out, manifest = workspace
        copy = self._faulted(workspace, tmp_path, edit, stale_var_member)
        models = copy / "models"
        cfg = write_config(tmp_path / "r.cfg", manifest, copy,
                           model_kinds="cnn2d_pdc,cnn1d_cn,fusion_score,fusion_decision")
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2
        for line, rid in zip(err, ("fusion_score", "fusion_decision")):
            assert line.startswith(f"{rid}: FAILED ({models}/{rid}_fold0.model: "
                                   + message.format(models=models)), line
        want = _rows_by_model(out)
        assert list(_rows_by_model(copy).values()) == [want["cnn2d_pdc"], want["cnn1d_cn"]]


class TestWorkDoneOnce:
    def test_eval_reads_each_file_and_runs_each_net_once_per_fold(self, workspace, tmp_path,
                                                                   monkeypatch):
        _, _, out, manifest = workspace
        copy = copy_for_eval(workspace, tmp_path)
        cfg = write_config(tmp_path / "r.cfg", manifest, copy)
        # the folds may run in forked workers, so the spies log to files
        reads, runs = tmp_path / "reads.log", tmp_path / "runs.log"
        read_framed = serialize.read_framed
        monkeypatch.setattr(serialize, "read_framed", lambda path, *args: append_line(
            reads, path.name) or read_framed(path, *args))
        predict_proba = Network.predict_proba
        monkeypatch.setattr(Network, "predict_proba",
                            lambda net, x: append_line(runs, net.name) or predict_proba(net, x))
        assert main(["eval", "--config", str(cfg)]) == 0
        assert Counter(logged(reads)) == {f"{rid}_fold{fold}.model": 1
                                          for rid in RESULT_IDS for fold in range(2)}
        assert Counter(logged(runs)) == {name: 2 for name in ("cnn_var", "cnn_pdc", "cnn_cn",
                                                              "fusion_feature", "stage2")}
        assert (copy / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()

    def test_fusion_only_config_writes_its_members(self, workspace, tmp_path, capsys):
        _, _, out, manifest = workspace
        copy = tmp_path / "out"
        shutil.copytree(out / "features", copy / "features")
        cfg = write_config(tmp_path / "r.cfg", manifest, copy, model_kinds="fusion_decision")
        assert main(["train", "--config", str(cfg)]) == 0
        names = {p.name for p in (copy / "models").glob("*.model")}
        assert names == {f"{rid}_fold{fold}.model" for fold in range(2)
                         for rid in ("cnn2d_var", "cnn2d_pdc", "cnn1d_cn", "fusion_decision")}
        for name in names:  # the bytes that a run with every kind writes
            assert (copy / "models" / name).read_bytes() == (out / "models" / name).read_bytes()
        assert main(["eval", "--config", str(cfg)]) == 0
        assert list(_rows_by_model(copy).values()) == [_rows_by_model(out)["fusion_decision"]]
        args = ["predict", "--config", str(cfg),
                "--model", str(copy / "models" / "fusion_decision_fold1.model")]
        for dom in ("var", "pdc", "cn"):
            args += ["--input", str(copy / "features" / f"hc002_{dom}.feat")]
        capsys.readouterr()
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["subject_id"] == "hc002"


    def test_report_reads_each_model_file_once(self, workspace, tmp_path, monkeypatch):
        _, _, out, manifest = workspace
        copy = tmp_path / "out"
        for folder in ("features", "models", "curves"):
            shutil.copytree(out / folder, copy / folder)
        cfg = write_config(tmp_path / "r.cfg", manifest, copy)
        read_framed = serialize.read_framed
        reads = []
        monkeypatch.setattr(serialize, "read_framed", lambda path, *args: reads.append(path.name)
                            or read_framed(path, *args))
        assert main(["report", "--config", str(cfg)]) == 0
        assert Counter(reads) == {f"{rid}_fold0.model": 1 for rid in RESULT_IDS}

        def latency_rows(root):  # all but the timing
            return [(model, feature, reps) for model, feature, _, reps in
                    (line.split(",") for line in
                     (root / "report" / "latency.csv").read_text().splitlines())]

        assert latency_rows(copy) == latency_rows(out)

    def test_train_writes_each_curve_file_once(self, workspace, tmp_path, monkeypatch):
        _, _, out, manifest = workspace
        copy = tmp_path / "out"
        shutil.copytree(out / "features", copy / "features")
        cfg = write_config(tmp_path / "r.cfg", manifest, copy)
        # the fits' jobs may run in forked workers, so the spy logs to a file
        writes = tmp_path / "writes.log"
        write_curve_csv = cli._write_curve_csv
        monkeypatch.setattr(cli, "_write_curve_csv", lambda path, curve: append_line(
            writes, path.name) or write_curve_csv(path, curve))
        assert main(["train", "--config", str(cfg)]) == 0
        names = sorted(p.name for p in (out / "curves").glob("*.csv"))
        assert Counter(logged(writes)) == {name: 1 for name in names}
        for name in names:
            assert (copy / "curves" / name).read_bytes() == (out / "curves" / name).read_bytes()


class TestReport:
    def test_learning_curve_svgs(self, workspace):
        _, _, out, _ = workspace
        svgs = list((out / "report").glob("*.svg"))
        assert len(svgs) >= 6
        text = (out / "report" / "domain_var_fold0.svg").read_text()
        assert text.startswith("<svg") and "polyline" in text
        assert "n=6" in text  # curve length equals epochs run

    def test_feature_map_heatmaps(self, workspace):
        _, _, out, _ = workspace
        layer1 = sorted((out / "report" / "featmaps" / "layer1").glob("*.pgm"))
        layer2 = sorted((out / "report" / "featmaps" / "layer2").glob("*.pgm"))
        assert len(layer1) == 128  # first conv layer width
        assert len(layer2) == 64
        head = layer1[0].read_text().splitlines()
        assert head[0] == "P2"
        assert head[2] == "4 4"  # the 4-channel test cohort gives 4x4 maps

    def test_latency_table(self, workspace):
        _, _, out, _ = workspace
        table = (out / "report" / "latency.csv").read_text().splitlines()
        assert table[0] == "model,feature,mean_ms,repetitions"
        assert len(table) - 1 == len(RESULT_IDS)
        for line in table[1:]:
            assert float(line.split(",")[2]) > 0.0

    def test_unreadable_model_fails_only_its_row(self, workspace, tmp_path, capsys):
        _, _, _, manifest = workspace
        copy = copy_for_eval(workspace, tmp_path)
        bundle = copy / "models" / "svm_cn_fold0.model"
        data = bundle.read_bytes()
        bundle.write_bytes(data[: len(data) // 2])
        cfg = write_config(tmp_path / "r.cfg", manifest, copy)
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"svm_cn: FAILED ({bundle}: checksum mismatch)"]
        table = (copy / "report" / "latency.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in table[1:]] == [
            rid for rid in RESULT_IDS if rid != "svm_cn"]


    def test_unreadable_feature_map_model_fails_only_the_maps(self, workspace, tmp_path,
                                                              capsys):
        _, _, _, manifest = workspace
        copy = copy_for_eval(workspace, tmp_path)
        bundle = copy / "models" / "cnn2d_pdc_fold0.model"
        data = bundle.read_bytes()
        bundle.write_bytes(data[: len(data) // 2])
        cfg = write_config(tmp_path / "r.cfg", manifest, copy, model_kinds="cnn2d_var,svm_linear")
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"feature maps: FAILED ({bundle}: checksum mismatch)"]
        assert not (copy / "report" / "featmaps").exists()
        table = (copy / "report" / "latency.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in table[1:]] == [
            "cnn2d_var", "svm_var", "svm_pdc", "svm_cn", "svm_all"]


class TestLayout:
    def test_every_file_is_in_the_documented_layout(self, workspace):
        _, _, out, _ = workspace
        layout = readme_layout()
        files = [p.relative_to(out).as_posix() for p in sorted(out.rglob("*")) if p.is_file()]
        assert not [name for name in files if name.endswith(PARTIAL)]
        assert [name for name in files
                if not any(regex.fullmatch(name) for regex in layout.values())] == []
        # and every pattern names files of this run, but the text heatmaps,
        # which need report_ascii
        assert [glob for glob, regex in layout.items()
                if not any(regex.fullmatch(name) for name in files)] == [
            "report/featmaps/layer<n>/map_<r>.txt"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
class TestOneBlasThread:
    """Processes started with two BLAS threads in their environment."""

    def test_fork_map_runs_a_pool_of_two_on_two_cpus(self):
        proc = run_script(FORK_MAP_PIDS, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr
        parent, *workers = proc.stdout.split()
        assert len(set(workers)) == 2 and parent not in workers

    def test_main_leaves_one_thread_bytes(self, tmp_path):
        one = run_script(BLAS_PRODUCT, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        two = run_script(BLAS_PRODUCT, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        if one.stdout == two.stdout:
            pytest.skip("this product has the same bytes at one and two BLAS threads here")
        after_main = run_script(BLAS_PRODUCT, "extract", "--config", tmp_path / "none.cfg",
                                OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        assert "error: config file not found" in after_main.stderr
        assert after_main.stdout == one.stdout
