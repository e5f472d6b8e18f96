"""Model assembly, cross-validated training, fusion, and metrics.

Seven classifier configurations are supported: three single-domain CNNs
(2-D over lagged-coefficient tensors, 2-D over band PDC tensors, 1-D over
topology feature matrices), three fusions of those domains (feature-level
concatenation, score-level second-stage softmax, decision-level majority
vote), and a linear SVM baseline.  Each kind is one row of the ``KINDS``
table, which says what the kind reads, how one fold is fitted, how its core is
saved, and which result rows it reports; a result row names its kind, and is
the unit that training, evaluation and reporting walk.  A row whose fit other
rows read, a net or an SVM, is one entry of the ``FITS`` table; its fit is
made once per fold, before the ensembles that read it from its model file,
whose layout ``models`` alone knows.  Evaluation is stratified k-fold with a
held-out validation split inside each fold driving epoch selection; train and
eval score through :func:`score`.
"""

from __future__ import annotations

import ctypes
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .eeg_io import CohortManifest
from .errors import ShapeError, TrainingDivergedError, ValidationError
from .netmetrics import feature_length
from .nn.layers import (
    AvgPool1d,
    Conv1d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    ReLU,
    Softmax,
)
from .nn.network import MultiBranchNetwork, Network, cross_entropy
from .nn.optim import AdamState, adam_step
from .seeding import derive_rng, derive_seed
from .svm import LinearSvm, train_svm

DOMAINS = ("var", "pdc", "cn")

METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "modified_accuracy")

CONV2D_KERNEL = 3
CONV1D_KERNEL = 3
POOL1D_SIZE = 2
POOL1D_STRIDE = 2


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and training hyperparameters for one classifier kind."""

    kind: str
    channels: int = 16
    lags: int = 5
    n_bands: int = 5
    conv2d_filters: tuple[int, int] = (128, 64)
    conv1d_filters: int = 8
    dense2d: int = 64
    dense1d: int = 32
    fusion_dense: int = 64
    dropout: float = 0.5
    epochs: int = 500
    learning_rate: float = 1e-4
    lr_decay: float = 1e-6
    batch_size: int = 0  # 0 = full batch

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValidationError(f"unknown model kind {self.kind!r}")

    def input_shape(self, domain: str) -> tuple[int, ...]:
        if domain == "var":
            return (self.channels, self.channels, self.lags)
        if domain == "pdc":
            return (self.channels, self.channels, self.n_bands)
        if domain == "cn":
            return (feature_length(self.channels), self.n_bands)
        raise ValidationError(f"unknown feature domain {domain!r}")


def _shape_after(layers, shape):
    for layer in layers:
        shape = layer.output_shape(shape)
    return shape


def _conv_stack_2d(spec: ModelSpec, in_channels: int):
    layers = []
    for c_in, c_out in zip((in_channels, *spec.conv2d_filters), spec.conv2d_filters):
        layers += [Conv2d(c_in, c_out, CONV2D_KERNEL), ReLU()]
    return layers + [Flatten()]


def _conv_stack_1d(spec: ModelSpec, in_channels: int):
    return [
        Conv1d(in_channels, spec.conv1d_filters, CONV1D_KERNEL),
        ReLU(),
        AvgPool1d(POOL1D_SIZE, POOL1D_STRIDE),
        Flatten(),
    ]


def _head(width_in: int, width_hidden: int, dropout: float):
    return [
        Dense(width_in, width_hidden),
        ReLU(),
        Dropout(dropout),
        Dense(width_hidden, 2),
        Softmax(),
    ]


def build_domain_network(domain: str, spec: ModelSpec, seed: int, name: str | None = None) -> Network:
    """The single-domain CNN for one feature set (uninitialized weights drawn here)."""
    shape = spec.input_shape(domain)
    if domain in ("var", "pdc"):
        stack = _conv_stack_2d(spec, shape[2])
        hidden = spec.dense2d
    else:
        stack = _conv_stack_1d(spec, shape[1])
        hidden = spec.dense1d
    flat = _shape_after(stack, shape)[0]
    net = Network(stack + _head(flat, hidden, spec.dropout), input_shape=shape,
                  seed=seed, name=name or f"cnn_{domain}")
    return net.initialize()


def build_feature_fusion(spec: ModelSpec, seed: int) -> MultiBranchNetwork:
    branches = []
    shapes = []
    for domain in DOMAINS:
        shape = spec.input_shape(domain)
        stack = _conv_stack_2d(spec, shape[2]) if domain != "cn" else _conv_stack_1d(spec, shape[1])
        branches.append(stack)
        shapes.append(shape)
    concat = sum(_shape_after(b, s)[0] for b, s in zip(branches, shapes))
    trunk = _head(concat, spec.fusion_dense, spec.dropout)
    net = MultiBranchNetwork(branches, trunk, input_shapes=shapes, seed=seed,
                             name="fusion_feature")
    return net.initialize()


def build_stage2(seed: int) -> Network:
    """Score-fusion head: the six member probabilities through one softmax layer."""
    net = Network([Dense(6, 2), Softmax()], input_shape=(6,), seed=seed, name="stage2")
    return net.initialize()


@dataclass
class EnsembleModel:
    """Three domain CNNs combined by score- or decision-level fusion."""

    mode: str  # "score" | "decision"
    members: dict[str, Network | Outputs]
    stage2: Network | None = None

    def __post_init__(self):
        if self.mode not in ("score", "decision"):
            raise ValidationError(f"unknown fusion mode {self.mode!r}")
        if set(self.members) != set(DOMAINS):
            raise ValidationError(f"ensemble needs members {DOMAINS}, got {set(self.members)}")
        if self.mode == "score" and self.stage2 is None:
            raise ValidationError("score fusion requires a stage-2 network")

    def predict(self, inputs: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Class bits and probability rows in one member evaluation."""
        member = member_probs(self.members, inputs)
        if self.mode == "score":
            out = self.stage2.predict_proba(member.reshape(len(member), -1))
            return out.argmax(axis=1), out
        votes = member.argmax(axis=2)
        bits = (votes.sum(axis=1) >= 2).astype(int)  # majority of three binary votes
        return bits, member.mean(axis=1)  # decision mode reports the mean score


def member_probs(members: dict[str, Network | Outputs],
                 inputs: dict[str, np.ndarray]) -> np.ndarray:
    """Stacked member probabilities, shape (B, 3, 2), domain order var/pdc/cn."""
    return np.stack([members[d].predict_proba(inputs[d]) for d in DOMAINS], axis=1)


class Outputs:
    """A core's class bits and probabilities, ``core.predict(x)``, by the
    dtype, shape and bytes of each array of the input batch, so that each
    batch runs once however many result rows of one process read it.  The
    bits are kept as the core gave them."""

    def __init__(self, core):
        self.core = core
        self.pairs: dict[tuple, tuple] = {}

    def predict(self, x) -> tuple[np.ndarray, np.ndarray]:
        key = tuple((a.dtype.str, a.shape, a.tobytes()) for a in
                    (x if isinstance(x, list) else [x]))
        if key not in self.pairs:
            self.pairs[key] = self.core.predict(x)
        return self.pairs[key]

    def predict_proba(self, x) -> np.ndarray:
        return self.predict(x)[1]


# -- fold plans --------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: dict[str, int]

    def test_ids(self, fold: int, ordered_ids: list[str]) -> list[str]:
        return [s for s in ordered_ids if self.assignments[s] == fold]

    def rest_ids(self, fold: int, ordered_ids: list[str]) -> list[str]:
        return [s for s in ordered_ids if self.assignments[s] != fold]


def stratified_kfold(manifest: CohortManifest, k: int = 5, seed: int = 0) -> FoldPlan:
    """Seeded stratified partition: shuffle within class, deal round-robin."""
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    labels = manifest.labels()
    assignments: dict[str, int] = {}
    for cls in manifest.class_names:
        ids = [s for s in manifest.subject_ids() if labels[s] == cls]
        if len(ids) < k:
            raise ValidationError(f"class {cls!r} has {len(ids)} subjects, fewer than k={k}")
        rng = derive_rng(seed, "folds", cls)
        order = rng.permutation(len(ids))
        for pos, idx in enumerate(order):
            assignments[ids[idx]] = pos % k
    return FoldPlan(k=k, assignments=assignments)


def stratified_split(ids: list[str], labels: dict[str, str], class_names: tuple[str, str],
                     val_fraction: float, seed: int) -> tuple[list[str], list[str]]:
    """Split ids into train/validation, stratified and seeded."""
    if not (0 < val_fraction < 1):
        raise ValidationError(f"val_fraction must be in (0, 1), got {val_fraction}")
    train: list[str] = []
    val: list[str] = []
    for cls in class_names:
        members = [s for s in ids if labels[s] == cls]
        if len(members) < 2:
            raise ValidationError(f"class {cls!r} needs >= 2 subjects to split, has {len(members)}")
        rng = derive_rng(seed, "valsplit", cls)
        order = rng.permutation(len(members))
        n_val = min(len(members) - 1, max(1, round(len(members) * val_fraction)))
        for pos, idx in enumerate(order):
            (val if pos < n_val else train).append(members[idx])
    return train, val


# -- metrics -----------------------------------------------------------------


def check_positive_class(positive_class: str, class_names) -> None:
    if positive_class not in class_names:
        raise ValidationError(f"positive class {positive_class!r} not among {class_names}")


def evaluate(predictions: list, labels: list, positive_class: str = "SZ") -> dict:
    """Accuracy, sensitivity, specificity, modified accuracy (percent) plus counts."""
    if len(predictions) != len(labels):
        raise ValidationError("predictions and labels differ in length")
    if not labels:
        raise ValidationError("cannot evaluate an empty set")
    tp = sum(1 for p, t in zip(predictions, labels) if t == positive_class and p == positive_class)
    fn = sum(1 for p, t in zip(predictions, labels) if t == positive_class and p != positive_class)
    tn = sum(1 for p, t in zip(predictions, labels) if t != positive_class and p != positive_class)
    fp = sum(1 for p, t in zip(predictions, labels) if t != positive_class and p == positive_class)
    sens = 100.0 * tp / (tp + fn) if (tp + fn) else 0.0
    spec = 100.0 * tn / (tn + fp) if (tn + fp) else 0.0
    return {
        "accuracy": 100.0 * (tp + tn) / len(labels),
        "sensitivity": sens,
        "specificity": spec,
        "modified_accuracy": (sens + spec) / 2.0,
        "tp": tp, "fn": fn, "tn": tn, "fp": fp,
    }


@dataclass
class MetricsReport:
    """Per-fold metric values with mean, standard deviation, pooled confusion."""

    per_fold: list[dict]
    mean: dict[str, float]
    sd: dict[str, float]
    confusion: dict[str, int]

    @classmethod
    def from_folds(cls, fold_metrics: list[dict]) -> "MetricsReport":
        if not fold_metrics:
            raise ValidationError("no fold metrics to aggregate")
        mean = {}
        sd = {}
        for name in METRIC_NAMES:
            vals = np.array([m[name] for m in fold_metrics])
            mean[name] = float(vals.mean())
            sd[name] = float(vals.std())
        confusion = {
            key: int(sum(m[key] for m in fold_metrics)) for key in ("tp", "fn", "tn", "fp")
        }
        return cls(per_fold=fold_metrics, mean=mean, sd=sd, confusion=confusion)

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "sd": self.sd,
            "confusion": self.confusion,
            "per_fold": [
                {k: m[k] for k in (*METRIC_NAMES, "tp", "fn", "tn", "fp")}
                for m in self.per_fold
            ],
        }


# -- input assembly ----------------------------------------------------------


def band_indices(band_filter: list[str] | None, band_names: tuple[str, ...]) -> list[int] | None:
    if not band_filter:
        return None
    idx = []
    for name in band_filter:
        if name not in band_names:
            raise ValidationError(f"unknown band {name!r} in band filter, have {band_names}")
        idx.append(band_names.index(name))
    return idx


def domain_matrix(features: dict[str, dict[str, np.ndarray]], sids: list[str],
                  domain: str, band_idx: list[int] | None = None) -> np.ndarray:
    """Stack one domain's per-subject features into a batch array."""
    rows = []
    for sid in sids:
        if sid not in features or domain not in features[sid]:
            raise ValidationError(f"missing {domain} features for subject {sid!r}")
        rows.append(features[sid][domain])
    x = np.stack(rows).astype(float)
    if band_idx is not None and domain in ("pdc", "cn"):
        x = x[..., band_idx]
    return x


# -- per-fold input standardization -------------------------------------------
#
# CNN inputs are z-scored per feature entry with statistics from the training
# subjects of the current fold only; the statistics travel with the trained
# model so held-out and future subjects see the identical affine map.


def compute_input_stats(features, train_ids: list[str],
                        band_idx=None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    stats = {}
    for domain in DOMAINS:
        x = domain_matrix(features, train_ids, domain, band_idx)
        mean = x.mean(axis=0)
        sd = x.std(axis=0)
        sd = np.where(sd == 0.0, 1.0, sd)
        stats[domain] = (mean, sd)
    return stats


def apply_input_stats(x: np.ndarray, stat: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    if stat is None:
        return x
    mean, sd = stat
    if mean.shape != x.shape[1:] or sd.shape != x.shape[1:]:
        raise ShapeError(f"input statistics of shapes {mean.shape} and {sd.shape} for inputs "
                         f"of shape {x.shape[1:]}")
    return (x - mean) / sd


def standardized_inputs(kind: str, features, sids: list[str], band_idx=None,
                        stats: dict | None = None):
    """Model inputs for a batch of subjects with the per-domain affine maps applied."""
    return KINDS[kind].inputs(features, sids, band_idx, stats)


@dataclass
class FittedModel:
    """A trained core plus the input statistics it was trained with."""

    core: object
    stats: dict[str, tuple[np.ndarray, np.ndarray]] | None = None


def _subset(inputs, idx):
    if isinstance(inputs, list):
        return [a[idx] for a in inputs]
    return inputs[idx]


def _batch_count(inputs) -> int:
    return len(inputs[0]) if isinstance(inputs, list) else len(inputs)


# -- training ----------------------------------------------------------------


@dataclass
class TrainResult:
    curve: list[tuple[float, float]] = field(default_factory=list)  # (train, val) loss
    best_epoch: int = -1


def train_model(model, train_inputs, train_bits, val_inputs, val_bits,
                spec: ModelSpec, seed: int = 0) -> TrainResult:
    """Train up to ``spec.epochs`` epochs, keep the min-validation-loss snapshot.

    Full-batch Adam by default; ``spec.batch_size > 0`` switches to seeded
    shuffled mini-batches.  A non-finite validation loss aborts with
    :class:`TrainingDivergedError`, without a numpy warning.
    """
    train_bits = np.asarray(train_bits, dtype=int)
    val_bits = np.asarray(val_bits, dtype=int)
    n = _batch_count(train_inputs)
    if n != train_bits.size:
        raise ShapeError("training inputs and labels differ in length")
    adam = AdamState(lr=spec.learning_rate, decay=spec.lr_decay)
    result = TrainResult()
    best_loss = np.inf
    best_state = None
    shuffle_rng = derive_rng(seed, "batches") if spec.batch_size > 0 else None

    # an overflow is a divergence, which the gradient and loss checks report
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(spec.epochs):
            if spec.batch_size > 0:
                order = shuffle_rng.permutation(n)
                chunks = [order[i : i + spec.batch_size] for i in range(0, n, spec.batch_size)]
            else:
                chunks = [np.arange(n)]
            total = 0.0
            for idx in chunks:
                loss, _ = model.loss_and_grads(_subset(train_inputs, idx), train_bits[idx],
                                               train=True)
                adam_step(model.param_dict(), model.grad_dict(), adam)
                total += loss * len(idx)
            train_loss = total / n
            val_loss = cross_entropy(model.predict_proba(val_inputs), val_bits)
            if not np.isfinite(val_loss):
                raise TrainingDivergedError(f"validation loss became non-finite at epoch {epoch}")
            result.curve.append((train_loss, val_loss))
            if val_loss < best_loss:
                best_loss = val_loss
                result.best_epoch = epoch
                best_state = model.get_state()

    if best_state is not None:
        model.set_state(best_state)
    return result


# -- cross-validated experiment ----------------------------------------------


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def one_blas_thread() -> bool:
    """Set numpy's OpenBLAS to one thread in this process and those it forks,
    whatever the environment said when the library loaded, so that results
    have the one-thread bytes and the pool alone owns the parallelism.  The
    run-time setter is found through numpy's linear-algebra extension, which
    links OpenBLAS; False where there is none, and the threads stay."""
    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads"):
        if hasattr(lib, name):
            ctypes.CFUNCTYPE(None, ctypes.c_int)((name, lib))(1)
            return True
    return False


_FORKED_FN: Callable | None = None  # set in forked pool workers only
_BROKEN = object()  # a job left unfinished because a worker died


def _adopt_fn(fn: Callable) -> None:
    """Pool initializer: a forked worker inherits ``fn`` without pickling."""
    global _FORKED_FN
    _FORKED_FN = fn


def _call_forked(job):
    return _FORKED_FN(job)


def _call(fn: Callable, job):
    """``fn(job)``, or the exception it raised."""
    try:
        return fn(job)
    except Exception as exc:  # noqa: BLE001 - the caller fails only this job
        return exc


def fork_map(fn: Callable, jobs: list, describe: Callable[[object], str]) -> list:
    """``fn(job)`` for every job, in job order, with the exception a job
    raised in place of its result.  ``extract`` maps it over the subjects,
    ``train`` over its (result row, fold) pairs and ``eval`` over its (group of
    rows, fold) pairs.

    The jobs run in a pool of processes started with ``fork``: ``fn`` reaches
    the workers through the fork, so only jobs and results are pickled.
    This process first sets one BLAS thread (:func:`one_blas_thread`), which
    the workers inherit, so the pool has one worker per usable CPU, capped
    by the job count.  With fewer than two workers, without ``fork``, or
    where BLAS keeps the threads it started with (two workers with two
    busy-waiting OpenBLAS threads each on two CPUs ran eight times slower
    than one), the jobs run one after another in this process.  A worker
    that dies breaks the pool and fails every unfinished job.  A pool starts
    jobs in order and runs at most ``workers`` at once, so the job whose
    worker died is among the first ``workers`` unfinished ones: those run
    again each alone, and the rest in one fresh pool, under the same rule
    if it breaks too.  Only a job whose own worker dies when it runs alone
    fails, with a ``RuntimeError`` naming ``describe(job)``.
    """
    # imported here, where a pool may start: other commands do without them
    import multiprocessing

    workers = min(usable_cpus(), len(jobs)) if one_blas_thread() else 1
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [_call(fn, job) for job in jobs]
    results = _run_forked(fn, jobs, workers)
    unfinished = [i for i, result in enumerate(results) if result is _BROKEN]
    while unfinished:
        alone, rest = unfinished[:workers], unfinished[workers:]
        for i in alone:
            results[i] = _run_forked(fn, [jobs[i]], 1)[0]
            if results[i] is _BROKEN:
                results[i] = RuntimeError(f"the worker {describe(jobs[i])} died")
        workers = min(workers, len(rest))
        if rest:
            for i, result in zip(rest, _run_forked(fn, [jobs[i] for i in rest], workers)):
                results[i] = result
        unfinished = [i for i in rest if results[i] is _BROKEN]
    return results


def _run_forked(fn: Callable, jobs: list, workers: int) -> list:
    """Each job's result or exception from a forked pool of ``workers``, or
    ``_BROKEN`` for a job that a dead worker left unfinished."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results = []
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt_fn, initargs=(fn,)) as pool:
        for future in [pool.submit(_call_forked, job) for job in jobs]:
            try:
                results.append(future.result())
            except BrokenProcessPool:
                results.append(_BROKEN)
            except Exception as exc:  # noqa: BLE001 - fails only this job
                results.append(exc)
    return results


class ExperimentRunner:
    """Trains every requested classifier kind over a shared fold plan.

    Every net, member or not, trains through :meth:`train_net`.
    :meth:`fit_rows` fits, saves and scores each result row on each fold in
    one :func:`fork_map` job; the jobs of the ``FITS`` rows run first and
    write their model files through the files object it is given, from which
    the ensembles read their members as eval does (:meth:`trained_member`;
    a loaded net holds the trained parameters, so this is exact).
    """

    def __init__(self, features, manifest: CohortManifest, spec: ModelSpec,
                 master_seed: int, k: int = 5, val_fraction: float = 0.15,
                 positive_class: str = "SZ", band_idx: list[int] | None = None,
                 svm_steps: int = 2000):
        self.features = features
        self.manifest = manifest
        self.spec = spec
        self.master_seed = master_seed
        self.k = k
        self.val_fraction = val_fraction
        self.band_idx = band_idx
        self.svm_steps = svm_steps
        self._stats_cache: dict[int, dict] = {}
        self.class_names = manifest.class_names
        check_positive_class(positive_class, manifest.class_names)
        self.positive_class = positive_class
        self.labels = manifest.labels()
        self.plan = stratified_kfold(manifest, k=k, seed=derive_seed(master_seed, "folds"))
        self._splits: dict[int, tuple[list[str], list[str], list[str]]] = {}

    # ids and labels ---------------------------------------------------------

    def fold_split(self, fold: int) -> tuple[list[str], list[str], list[str]]:
        if fold not in self._splits:
            ordered = self.manifest.subject_ids()
            test = self.plan.test_ids(fold, ordered)
            rest = self.plan.rest_ids(fold, ordered)
            train, val = stratified_split(
                rest, self.labels, self.class_names, self.val_fraction,
                derive_seed(self.master_seed, "valsplit", fold),
            )
            self._splits[fold] = (train, val, test)
        return self._splits[fold]

    def bits_of(self, sids: list[str]) -> np.ndarray:
        return np.array([self.class_names.index(self.labels[s]) for s in sids], dtype=int)

    def fold_stats(self, fold: int, row: "ResultRow") -> dict | None:
        """The statistics of the fold's training subjects that standardize
        the row's inputs, or None where its kind does not standardize them."""
        if not KINDS[row.kind].standardized:
            return None
        if fold not in self._stats_cache:
            train_ids, _, _ = self.fold_split(fold)
            self._stats_cache[fold] = compute_input_stats(
                self.features, train_ids, self.band_idx
            )
        return self._stats_cache[fold]

    def fold_inputs(self, row: "ResultRow", sids: list[str], fold: int):
        """The row's input for a batch of subjects, standardized as the fold's fits are."""
        return KINDS[row.kind].inputs(self.features, sids, self.band_idx,
                                      self.fold_stats(fold, row), row.feature_set)

    # net training -----------------------------------------------------------

    def train_net(self, label: str, fold: int, build: Callable[[int], Network],
                  inputs: Callable[[list[str]], object]) -> tuple[Network, TrainResult]:
        """Build a net from the (label, fold) init seed and train it on the fold's
        training split, keeping the epoch with the least validation loss.

        ``inputs`` maps a list of subject ids to the net's input batch.
        """
        train_ids, val_ids, _ = self.fold_split(fold)
        net = build(derive_seed(self.master_seed, "init", label, fold))
        res = train_model(net, inputs(train_ids), self.bits_of(train_ids),
                          inputs(val_ids), self.bits_of(val_ids), self.spec,
                          seed=derive_seed(self.master_seed, "train", label, fold))
        return net, res

    def trained_member(self, row: "ResultRow", label: str, fold: int) -> Network:
        """The fold's net of a ``FITS`` label, which the ensemble ``row`` reads
        from the file that the label's fit wrote (see :meth:`fit_rows`)."""
        return self.files.read_member(row, label, fold)

    def fit_rows(self, rows: list["ResultRow"], files) -> list[MetricsReport | Exception]:
        """Fit, save and score every result row on every fold, one
        :func:`fork_map` job per (row, fold); per row, in ``rows`` order, its
        :class:`MetricsReport`, or the exception of its first failed fold.

        ``files``, a ``models.RowFiles``, alone knows the files' layout: a
        job saves its row's files by ``files.save``, and an ensemble's job
        reads its members by ``files.read_member``.  The jobs run in two
        waves, first the ``FITS`` rows that the rows read, then the
        ensembles, once ``files.written`` holds the sha256 of every member
        file.  The jobs are independent and each draws its seeds from
        its own (label, fold), so the pool size changes no byte.  A fit whose
        job raises, or whose worker dies, fails every row that reads it, and
        no job runs for those rows.
        """
        self.files = files
        reading = {label for row in rows for label in row.fits}
        fits = [row for label, row in FITS.items() if label in reading]
        per_fold: dict[tuple, dict | Exception] = {}
        for wave in (fits, [row for row in rows if row not in fits]):
            jobs = [(row, fold) for row in wave for fold in range(self.k)]
            for row, fold in jobs:  # a row that reads failed fits fails with the first's exception
                for label in row.fits:
                    if isinstance(per_fold.get((FITS[label], fold)), Exception):
                        per_fold.setdefault((row, fold), per_fold[FITS[label], fold])
            jobs = [job for job in jobs if job not in per_fold]
            results = fork_map(self._fit_job, jobs, lambda job: (
                f"{KINDS[job[0].kind].doing.format(row=job[0])} of fold {job[1]}"))
            for (row, fold), got in zip(jobs, results):
                if not isinstance(got, Exception):
                    wrote, got = got
                    files.written.update(wrote)
                per_fold[row, fold] = got
        reports = []
        for row in rows:
            folds = [per_fold[row, fold] for fold in range(self.k)]
            failed = next((got for got in folds if isinstance(got, Exception)), None)
            reports.append(MetricsReport.from_folds(folds) if failed is None else failed)
        return reports

    def _fit_job(self, job: tuple):
        """One (row, fold) of :meth:`fit_rows`, in a form that crosses a
        process boundary: the files it wrote, the fold's metrics."""
        row, fold = job
        core, curves = KINDS[row.kind].fit(self, row, fold)
        fitted = FittedModel(core, self.fold_stats(fold, row))
        wrote = self.files.save(row, fitted, curves, fold)
        _, _, test_ids = self.fold_split(fold)
        return wrote, score(self.files.model_path(row, fold), fitted, row, self.features,
                            test_ids, self.band_idx, self.class_names, self.labels,
                            self.positive_class)


# -- the model-kind table -----------------------------------------------------
#
# One row per kind.  ``fit`` fits a result row's core on one fold (an
# ensemble reads the member fits that the row lists) and returns it with the
# learning curves that the row's own curve files hold; ``bundle`` and
# ``unbundle`` map a core to the named entries of a model file and back (a
# member's ``ResultRow`` entry, saved as a reference to that row's file, comes
# back as the member's net); ``results`` lists the rows the kind reports (the
# SVM reports one per feature set); ``doing`` says what a row's job does.
# ``FITS``, after it, lists the rows whose fits other rows read.


class ResultRow(NamedTuple):
    result_id: str
    kind: str         # the key of its ``KINDS`` row
    feature: str      # the feature label written to bundles and metrics.json
    feature_set: str  # the domains the core reads: "all" of the kind's, or one
    fits: tuple[str, ...]  # the labels of the fits (``FITS``) it reads
    curves: tuple[str, ...] = ()  # the stems of its own learning-curve files


def _one_array(arrays: dict) -> np.ndarray:
    (x,) = arrays.values()
    return x


def _array_list(arrays: dict) -> list[np.ndarray]:
    return list(arrays.values())


def _by_domain(arrays: dict) -> dict[str, np.ndarray]:
    return arrays


def _flat_concat(arrays: dict) -> np.ndarray:
    return np.concatenate([x.reshape(len(x), -1) for x in arrays.values()], axis=1)


def _fit_ensemble(mode: str, runner: ExperimentRunner, row: ResultRow, fold: int):
    """The fold's members fused by ``mode``; score fusion trains its stage 2
    here on the members' outputs, and returns that net's curve."""
    members = {d: runner.trained_member(row, d, fold) for d in row.fits}
    if mode == "decision":
        return EnsembleModel(mode, members), ()

    def stage2_inputs(sids):
        return member_probs(members, runner.fold_inputs(row, sids, fold)).reshape(len(sids), 6)

    stage2, res = runner.train_net("stage2", fold, build_stage2, stage2_inputs)
    return EnsembleModel(mode, members, stage2), (res.curve,)


def _train_fit(build: Callable, runner: ExperimentRunner, row: ResultRow, fold: int):
    """The row's net, built by ``build(spec, seed)`` and trained, and its curve."""
    (label,) = row.fits
    net, res = runner.train_net(label, fold, partial(build, runner.spec),
                                lambda sids: runner.fold_inputs(row, sids, fold))
    return net, (res.curve,)


def _fit_svm(runner: ExperimentRunner, row: ResultRow, fold: int):
    """The row's SVM, fitted on every non-test subject of the fold (an SVM
    has no epoch to select), and no curve."""
    train_ids, val_ids, _ = runner.fold_split(fold)
    fit_ids = train_ids + val_ids
    x = runner.fold_inputs(row, fit_ids, fold)
    return train_svm(x, runner.bits_of(fit_ids), steps=runner.svm_steps), ()


NET_ROLE = "main"  # the entry that holds a single-net kind's net


def _bundle_net(net) -> tuple[dict, dict]:
    return {NET_ROLE: net}, {}


def bundle_entry(entries: dict, role: str):
    """A bundle's ``role`` entry; a ValidationError naming it where the bundle has none."""
    if role not in entries:
        raise ValidationError(f"bundle has no entry {role!r}")
    return entries[role]


def _unbundle_net(entries: dict, meta: dict):
    return bundle_entry(entries, NET_ROLE)


def _bundle_ensemble(ens: EnsembleModel) -> tuple[dict, dict]:
    entries = {f"member_{d}": FITS[d] for d in ens.members}
    if ens.stage2 is not None:
        entries["stage2"] = ens.stage2
    return entries, {"fusion_mode": ens.mode}


def _unbundle_ensemble(mode: str, entries: dict, meta: dict) -> EnsembleModel:
    members = {d: bundle_entry(entries, f"member_{d}") for d in DOMAINS}
    return EnsembleModel(mode=mode, members=members, stage2=entries.get("stage2"))


def _bundle_svm(svm: LinearSvm) -> tuple[dict, dict]:
    return {"svm": svm.param_arrays()}, {}


def _unbundle_svm(entries: dict, meta: dict) -> LinearSvm:
    return LinearSvm.from_param_arrays(bundle_entry(entries, "svm"))


@dataclass(frozen=True)
class ModelKind:
    """What one classifier kind reads, how it is fitted and saved, what it reports."""

    domains: tuple[str, ...]
    pack: Callable[[dict], object]  # {domain: batch array} -> the input form of the core
    fit: Callable                   # (runner, result_row, fold) -> (core, curves)
    bundle: Callable[[object], tuple[dict, dict]]  # core -> (bundle entries, extra meta)
    unbundle: Callable[[dict, dict], object]       # (bundle entries, meta) -> core
    results: tuple[ResultRow, ...]
    doing: str  # what a row's job does, ``.format(row=row)``, for a worker that dies
    standardized: bool = True  # by the fold's input statistics; the SVM scales its own

    def inputs(self, features, sids: list[str], band_idx=None, stats: dict | None = None,
               feature_set: str = "all"):
        """The core's input for a batch of subjects, each domain standardized by its stats."""
        if feature_set == "all":
            domains = self.domains
        elif feature_set in self.domains:
            domains = (feature_set,)
        else:
            raise ValidationError(f"unknown feature set {feature_set!r} for domains {self.domains}")
        stats = stats or {}
        return self.pack({d: apply_input_stats(domain_matrix(features, sids, d, band_idx),
                                               stats.get(d)) for d in domains})


_FUSED = "var+pdc+cn"
_DOMAIN_CNNS = {"cnn2d_var": "var", "cnn2d_pdc": "pdc", "cnn1d_cn": "cn"}  # kind: its domain
_SVM_ROWS = tuple(ResultRow(f"svm_{f}", "svm_linear", f, f, (f"svm_{f}",))
                  for f in (*DOMAINS, "all"))

_TRAINING = "training the {row.fits[0]} net"
_FUSING = "fusing the {row.result_id} members"

KINDS: dict[str, ModelKind] = {
    **{kind: ModelKind((d,), _one_array, partial(_train_fit, partial(build_domain_network, d)),
                       _bundle_net, _unbundle_net,
                       (ResultRow(kind, kind, d, "all", (d,), (f"domain_{d}",)),), _TRAINING)
       for kind, d in _DOMAIN_CNNS.items()},
    "fusion_feature": ModelKind(DOMAINS, _array_list, partial(_train_fit, build_feature_fusion),
                                _bundle_net, _unbundle_net,
                                (ResultRow("fusion_feature", "fusion_feature", _FUSED, "all",
                                           ("fusion_feature",), ("fusion_feature",)),),
                                _TRAINING),
    "fusion_score": ModelKind(DOMAINS, _by_domain, partial(_fit_ensemble, "score"),
                              _bundle_ensemble, partial(_unbundle_ensemble, "score"),
                              (ResultRow("fusion_score", "fusion_score", _FUSED, "all", DOMAINS,
                                         ("fusion_score_stage2",)),), _FUSING),
    "fusion_decision": ModelKind(DOMAINS, _by_domain, partial(_fit_ensemble, "decision"),
                                 _bundle_ensemble, partial(_unbundle_ensemble, "decision"),
                                 (ResultRow("fusion_decision", "fusion_decision", _FUSED, "all",
                                            DOMAINS),), _FUSING),
    "svm_linear": ModelKind(DOMAINS, _flat_concat, _fit_svm, _bundle_svm, _unbundle_svm,
                            _SVM_ROWS, "fitting the {row.result_id} SVM", standardized=False),
}

MODEL_KINDS = tuple(KINDS)

# The rows whose fits other rows read, by the one label of their ``fits``, in
# job order: the largest nets first, then the SVMs.
FITS: dict[str, ResultRow] = {
    row.fits[0]: row
    for kind in ("fusion_feature", *_DOMAIN_CNNS, "svm_linear") for row in KINDS[kind].results
}


def fit_groups(rows: list[ResultRow]) -> list[list[ResultRow]]:
    """``rows`` in groups that read no fit in common: rows whose ``fits``
    overlap, directly or through other rows, share a group.  Each group keeps
    ``rows`` order, and the groups come in ``FITS`` order of their first fit."""
    groups: list[list[ResultRow]] = []
    for row in rows:
        joined = [g for g in groups if any(set(r.fits) & set(row.fits) for r in g)]
        groups = [g for g in groups if g not in joined]
        groups.append([r for r in rows if r == row or any(r in g for g in joined)])
    order = list(FITS)
    return sorted(groups, key=lambda g: min(order.index(label) for r in g for label in r.fits))


# -- prediction and timing ----------------------------------------------------


def predict_with_core(core: FittedModel, kind: str, features, sids: list[str],
                      band_idx=None, feature_set: str = "all"):
    """Class bits and probability rows of a fitted model for a batch of subjects."""
    inputs = KINDS[kind].inputs(features, sids, band_idx, core.stats, feature_set)
    return core.core.predict(inputs)


def predict_model(path, core: FittedModel, kind: str, features, sids: list[str],
                  band_idx=None, feature_set: str = "all"):
    """:func:`predict_with_core` of the model file at ``path``, whose
    ShapeError, where the model does not fit the inputs, names the file."""
    try:
        return predict_with_core(core, kind, features, sids, band_idx, feature_set)
    except ShapeError as exc:
        raise ShapeError(f"{path}: {exc}") from None


def score(path, core: FittedModel, row: ResultRow, features, sids: list[str], band_idx,
          class_names, labels: dict[str, str], positive_class: str) -> dict:
    """:func:`evaluate` of a result row's model, from the file at ``path``,
    on the subjects ``sids``, whose classes ``labels`` holds."""
    bits, _ = predict_model(path, core, row.kind, features, sids, band_idx, row.feature_set)
    return evaluate([class_names[int(b)] for b in bits], [labels[s] for s in sids],
                    positive_class)


def time_classification(core: FittedModel, kind: str, features, sid: str,
                        repetitions: int = 1000, band_idx=None,
                        feature_set: str = "all") -> float:
    """Mean wall-clock milliseconds to classify one subject."""
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    start = time.perf_counter()
    for _ in range(repetitions):
        predict_with_core(core, kind, features, [sid], band_idx, feature_set)
    elapsed = time.perf_counter() - start
    return 1000.0 * elapsed / repetitions
