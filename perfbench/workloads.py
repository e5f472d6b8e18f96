"""The three workloads, each driven through the program's public entry points.

A workload prepares its inputs in ``setup`` (timed as ``setup_s``), warms
up, then repeats ``run_round`` until the run's seconds are used.  A round
is a fixed unit of work, so per-round figures compare across runs of any
length.  Only the regions inside ``clock`` are timed and traced; output
checks run outside them.

Every workload reports the same end-to-end metrics (``END_TO_END_UNITS``):
work items per second of the stage that does the work, and the median and
tail of one timed call a user waits for.  What an item and a call are
differs by workload and is stated with each.

- ``extract_cohort``: the ``extract`` stage over a mixed-length cohort.
  Touches eeg_io, var_model, spectral, netmetrics and container writes,
  and no part of the nn engine.  Item: a subject; call: one ``extract``.
- ``train_cv``: ``train`` once then ``eval`` eight times, with all seven
  model kinds, 5 folds, batch 16, on a graded-contrast cohort extracted
  during set-up.  Item: a CNN training sample in ``train``; call: one
  ``eval``.
- ``predict_single``: single-subject ``predict_with_core`` requests from one
  caller in a closed loop, round-robin over the kinds and the fold-0 test
  subjects, on fold-0 models trained and loaded during set-up.  Item and
  call: a request.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from eegconn import cli, pipeline
from eegconn.config import parse_config
from eegconn.container import read_container
from eegconn.eeg_io import load_manifest
from eegconn.nn.serialize import load_bundle

from cohort import CohortSpec, make_cohort
from stats import blocked_percentile, median, tail_percentile

ALL_KINDS = ("cnn2d_var", "cnn2d_pdc", "cnn1d_cn", "fusion_feature", "fusion_score",
             "fusion_decision", "svm_linear")
RESULT_IDS = (*ALL_KINDS[:-1], "svm_var", "svm_pdc", "svm_cn", "svm_all")
FEATURE_KINDS = {"var": "VAR", "pdc": "PDC", "cn": "CN"}
TAIL_BLOCK = 1000  # calls per block of the p99 estimate
END_TO_END_UNITS = {"items_per_s": "1/s", "call_p50_ms": "ms", "call_tail_ms": "ms"}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(root: Path, pattern: str = "*") -> dict[str, str]:
    """sha256 of every file matching ``pattern`` below ``root``, by relative path."""
    return {str(p.relative_to(root)): sha256_file(p)
            for p in sorted(root.rglob(pattern)) if p.is_file()}


def write_config(path: Path, **values) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def run_stage(command: str, cfg: Path) -> int:
    """One CLI stage in this process; its progress lines are not part of our output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([command, "--config", str(cfg)])


@dataclass
class Round:
    attempted: int
    failed: int
    timed_s: float  # wall time inside ``clock`` regions
    samples: dict[str, list[float]]
    digests: dict[str, str] = field(default_factory=dict)
    failed_subjects: int = 0


class Clock:
    """Times the measured regions; the tracer, if any, records only inside them."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self, laps: list[float]):
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            laps.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.active = False


def end_to_end(items: float, busy_s: float, calls_s: list[float]) -> dict[str, float]:
    """The metrics of ``END_TO_END_UNITS`` from an item count, the wall time
    that processed the items, and the duration of every timed call.

    Items per second is a sum over a sum, not a median of per-round rates:
    it moves smoothly with the share of the run the host spends in its fast
    and slow phases instead of jumping between them.  The tail is the
    highest percentile with ten calls beyond it (p99 from 1000 calls on),
    taken as the median of per-1000-call blocks so that one burst of
    interference moves one block only.
    """
    ms = np.asarray(calls_s) * 1000.0
    return {"items_per_s": items / busy_s,
            "call_p50_ms": float(np.percentile(ms, 50)),
            "call_tail_ms": blocked_percentile(ms, tail_detail(len(ms))["tail_percentile"],
                                               TAIL_BLOCK)}


def tail_detail(calls: int) -> dict:
    """Call count and the percentile ``call_tail_ms`` reports at that count."""
    return {"calls": calls, "tail_percentile": min(99.0, tail_percentile(calls)),
            "tail_blocks": max(1, calls // TAIL_BLOCK)}


def check_features(cfg_path: Path) -> tuple[int, int, dict[str, str]]:
    """Subjects attempted, subjects lacking three readable containers, digests."""
    cfg = parse_config(cfg_path)
    manifest = load_manifest(cfg.manifest)
    feat_dir = Path(cfg.output_dir) / "features"
    failed = 0
    for entry in manifest.entries:
        try:
            for domain, kind in FEATURE_KINDS.items():
                _, header = read_container(feat_dir / f"{entry.subject_id}_{domain}.feat")
                if header["kind"] != kind or header["subject_id"] != entry.subject_id:
                    raise ValueError(f"{entry.subject_id} {domain}: wrong header {header}")
        except Exception:  # noqa: BLE001 - any unreadable container fails this subject
            failed += 1
    digests = {f"features/{k}": v for k, v in tree_digests(feat_dir, "*.feat").items()}
    return len(manifest), failed, digests


# -- extract_cohort ------------------------------------------------------------


class ExtractCohort:
    name = "extract_cohort"
    # Half the subjects at 1536 samples (12 s at 128 Hz), half at 6144: CSV
    # load and VAR fit grow with T, the PDC grid and topology do not.
    cohort = CohortSpec(per_group=6, lengths=(1536, 6144))

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> dict[str, str]:
        manifest = make_cohort(work / "data", self.seed, self.cohort)
        self.out = work / "out"
        self.cfg = write_config(work / "run.cfg", manifest=manifest, output_dir=self.out,
                                seed=self.seed)
        return {f"data/{k}": v for k, v in tree_digests(work / "data").items()}

    def warmup(self) -> None:
        run_stage("extract", self.cfg)

    def run_round(self, clock: Clock) -> Round:
        shutil.rmtree(self.out, ignore_errors=True)
        laps: list[float] = []
        with clock(laps):
            run_stage("extract", self.cfg)
        attempted, failed, digests = check_features(self.cfg)
        return Round(attempted, failed, laps[0], {"subjects": [attempted]},
                     digests, failed_subjects=failed)

    def metrics(self, rounds: list[Round]) -> dict[str, float]:
        """Subjects per second of extract wall time; one call is one extract."""
        subjects = sum(s for r in rounds for s in r.samples["subjects"])
        laps = [r.timed_s for r in rounds]
        return end_to_end(subjects, sum(laps), laps)

    def detail(self, rounds: list[Round]) -> dict:
        return tail_detail(len(rounds))


# -- train_cv ------------------------------------------------------------------


class TrainCv:
    name = "train_cv"
    # Ring coupling 0.15 vs 0.05 (+/-0.03): with 3 epochs the paper's nets
    # put fusion_decision near 90%, off the ceiling and clear of chance.
    cohort = CohortSpec(per_group=15, ring_means=(0.15, 0.05))
    folds = 5
    epochs = 3
    # eval is short and idempotent: the median of 8 spans ~10 s of the run,
    # which evens out the host's fast and slow phases
    eval_repeats = 8

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> dict[str, str]:
        manifest = make_cohort(work / "data", self.seed, self.cohort)
        self.out = work / "out"
        self.cfg = write_config(
            work / "run.cfg", manifest=manifest, output_dir=self.out,
            model_kinds=",".join(ALL_KINDS), epochs=self.epochs, learning_rate=0.003,
            lr_decay=0.0, batch_size=16, folds=self.folds, svm_steps=300, seed=self.seed,
        )
        if run_stage("extract", self.cfg) != 0:
            raise RuntimeError("extract failed during set-up")
        _, failed, digests = check_features(self.cfg)
        if failed:
            raise RuntimeError(f"{failed} subjects without features after set-up")
        digests.update({f"data/{k}": v for k, v in tree_digests(work / "data").items()})
        self.train_sizes = self._train_sizes()
        return digests

    def _train_sizes(self) -> dict[int, int]:
        """Training-split size per fold, from the program's own fold logic."""
        cfg = parse_config(self.cfg)
        manifest = load_manifest(cfg.manifest)
        runner = pipeline.ExperimentRunner(
            {}, manifest, pipeline.ModelSpec(kind="cnn2d_var"), master_seed=cfg.seed,
            k=cfg.folds, val_fraction=cfg.val_fraction, positive_class=cfg.positive_class,
        )
        return {f: len(runner.fold_split(f)[0]) for f in range(cfg.folds)}

    def warmup(self) -> None:
        warm_nn(batch=16)

    def trained_samples(self) -> int:
        """Epochs x training-split size, summed over every CNN and stage-2 training.

        Each training writes one learning-curve file (members are shared
        between kinds and written under one name), one row per epoch.
        """
        total = 0
        for path in (self.out / "curves").glob("*.csv"):
            fold = int(path.stem.rpartition("_fold")[2])
            epochs = len(path.read_text().splitlines()) - 1
            total += epochs * self.train_sizes[fold]
        return total

    def run_round(self, clock: Clock) -> Round:
        for stale in ("models", "curves"):
            shutil.rmtree(self.out / stale, ignore_errors=True)
        (self.out / "metrics.json").unlink(missing_ok=True)
        train_laps: list[float] = []
        eval_laps: list[float] = []
        with clock(train_laps):
            rc_train = run_stage("train", self.cfg)
        rc_eval = 0
        for _ in range(self.eval_repeats):
            with clock(eval_laps):
                rc_eval = max(rc_eval, run_stage("eval", self.cfg))
        metrics_path = self.out / "metrics.json"
        rows = {}
        if metrics_path.exists():
            rows = {r["model"]: r for r in json.loads(metrics_path.read_text())["rows"]}
        failed = 0
        digests = {"metrics.json": sha256_file(metrics_path)} if metrics_path.exists() else {}
        for rid in RESULT_IDS:
            for fold in range(self.folds):
                path = self.out / "models" / f"{rid}_fold{fold}.model"
                try:
                    load_bundle(path)
                    digests[f"models/{path.name}"] = sha256_file(path)
                    ok = rc_train == 0 and rc_eval == 0 and rid in rows
                except Exception:  # noqa: BLE001 - a bundle that does not load is a failed op
                    ok = False
                failed += not ok
        acc = rows.get("fusion_decision", {}).get("mean", {}).get("modified_accuracy", 0.0)
        return Round(
            len(RESULT_IDS) * self.folds, failed, train_laps[0] + median(eval_laps),
            {"samples": [self.trained_samples()], "train_s": train_laps,
             "eval_s": eval_laps, "mod_acc_pct": [acc]},
            digests,
        )

    @staticmethod
    def pooled(rounds: list[Round], key: str) -> list[float]:
        return [s for r in rounds for s in r.samples[key]]

    def metrics(self, rounds: list[Round]) -> dict[str, float]:
        """Training samples per second of train wall time; one call is one eval."""
        return end_to_end(sum(self.pooled(rounds, "samples")),
                          sum(self.pooled(rounds, "train_s")), self.pooled(rounds, "eval_s"))

    def detail(self, rounds: list[Round]) -> dict:
        """Modified accuracy of fusion_decision: a number, not a time, and one
        that no other workload has, so it is recorded here and not bounded."""
        return {**tail_detail(len(self.pooled(rounds, "eval_s"))),
                "mod_acc_pct": median(self.pooled(rounds, "mod_acc_pct"))}


def warm_nn(batch: int) -> None:
    """Run the 2-D and 1-D nets forward and backward once on throwaway data.

    The first 2-D forward calls in a process run about twice as slow as
    later ones; this keeps that start-up cost out of the timed rounds.
    """
    rng = np.random.default_rng(0)
    spec = pipeline.ModelSpec(kind="cnn2d_var")
    for domain in ("var", "cn"):
        net = pipeline.build_domain_network(domain, spec, seed=0)
        x = rng.standard_normal((batch, *spec.input_shape(domain)))
        for _ in range(2):
            net.loss_and_grads(x, np.arange(batch) % 2)
            net.predict_proba(x[:1])


# -- predict_single --------------------------------------------------------------


@dataclass
class LoadedModel:
    kind: str
    fitted: pipeline.FittedModel
    band_idx: list[int] | None
    feature_set: str
    reference: dict[str, tuple[int, np.ndarray]]  # sid -> batched (bit, probs)


class PredictSingle:
    name = "predict_single"
    cohort = CohortSpec(per_group=8, ring_means=(0.15, 0.05))
    sweeps_warmup = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> dict[str, str]:
        manifest = make_cohort(work / "data", self.seed, self.cohort)
        out = work / "out"
        cfg_path = write_config(
            work / "run.cfg", manifest=manifest, output_dir=out,
            model_kinds=",".join(ALL_KINDS), epochs=1, learning_rate=0.003, lr_decay=0.0,
            batch_size=16, folds=2, svm_steps=100, seed=self.seed,
        )
        for stage in ("extract", "train"):
            if run_stage(stage, cfg_path) != 0:
                raise RuntimeError(f"{stage} failed during set-up")
        _, _, digests = check_features(cfg_path)
        cfg = parse_config(cfg_path)
        manifest = load_manifest(cfg.manifest)
        self.features, band_names = cli.load_features(cfg, manifest)
        plan = cli.read_fold_plan(out / "folds.csv")
        self.subjects = plan.test_ids(0, manifest.subject_ids())
        self.models = []
        for kind in ALL_KINDS:
            feature_set = "all"
            rid = "svm_all" if kind == "svm_linear" else kind
            entries, meta = load_bundle(out / "models" / f"{rid}_fold0.model")
            fitted = cli.core_from_bundle(entries, meta)
            band_idx = pipeline.band_indices(meta.get("band_filter") or None, band_names)
            bits, probs = pipeline.predict_with_core(fitted, kind, self.features, self.subjects,
                                                     band_idx, feature_set)
            reference = {s: (int(b), p) for s, b, p in zip(self.subjects, bits, probs)}
            self.models.append(LoadedModel(kind, fitted, band_idx, feature_set, reference))
        digests.update({f"models/{k}": v for k, v in tree_digests(out / "models").items()})
        digests.update({f"data/{k}": v for k, v in tree_digests(work / "data").items()})
        return digests

    def warmup(self) -> None:
        warm_nn(batch=1)
        for _ in range(self.sweeps_warmup):
            self.sweep(Clock(), {})

    def sweep(self, clock: Clock, latencies: dict[str, list[float]]) -> tuple[int, int]:
        """One request per (kind, subject), kinds cycling fastest; returns (sent, failed)."""
        sent = failed = 0
        for sid in self.subjects:
            for m in self.models:
                laps = latencies.setdefault(m.kind, [])
                sent += 1
                try:
                    with clock(laps):
                        bits, probs = pipeline.predict_with_core(
                            m.fitted, m.kind, self.features, [sid], m.band_idx, m.feature_set)
                    ref_bit, ref_probs = m.reference[sid]
                    # B=1 and batched GEMMs may sum in another order: allow float64 rounding.
                    ok = int(bits[0]) == ref_bit and np.allclose(probs[0], ref_probs,
                                                                 rtol=1e-12, atol=1e-15)
                except Exception:  # noqa: BLE001 - a request that raises is a failed op
                    ok = False
                failed += not ok
        return sent, failed

    def run_round(self, clock: Clock) -> Round:
        latencies: dict[str, list[float]] = {}
        sent, failed = self.sweep(clock, latencies)
        flat = [x for laps in latencies.values() for x in laps]
        return Round(sent, failed, sum(flat), {"latency_s": flat,
                                              **{f"latency_s.{k}": v for k, v in latencies.items()}})

    def metrics(self, rounds: list[Round]) -> dict[str, float]:
        """Requests per second of request time; a call is a request."""
        laps = [s for r in rounds for s in r.samples["latency_s"]]
        return end_to_end(len(laps), sum(laps), laps)

    def detail(self, rounds: list[Round]) -> dict:
        """Call count, the tail percentile and blocks used, and p50 per kind."""
        n = sum(len(r.samples["latency_s"]) for r in rounds)
        per_kind = {
            k: 1000.0 * float(np.median([s for r in rounds for s in r.samples[f"latency_s.{k}"]]))
            for k in ALL_KINDS
        }
        return {**tail_detail(n), "p50_ms_by_kind": per_kind}


WORKLOADS = {w.name: w for w in (ExtractCohort, TrainCv, PredictSingle)}
