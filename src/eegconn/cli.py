"""Command-line pipeline: extract -> train -> eval -> predict/report.

Every stage reads a key=value config file and persists its artifacts under
the configured output directory, so later stages (and later sessions) can
resume from disk.  All randomness flows from the single master seed in the
config (overridable with --seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

from .config import RunConfig, band_filter_list, model_kind_list, parse_config
from .container import read_container, write_container
from .eeg_io import CohortManifest, ManifestEntry, load_manifest, load_recording, standardize
from .errors import EegConnError, ValidationError
from .netmetrics import cn_features
from .nn.network import Network
from .nn.serialize import BundleRef, load_bundle, save_bundle
from .pipeline import (
    DOMAINS,
    FITS,
    KINDS,
    NET_ROLE,
    ExperimentRunner,
    FittedModel,
    FoldPlan,
    Member,
    MetricsReport,
    ModelSpec,
    Outputs,
    ResultRow,
    band_indices,
    check_positive_class,
    evaluate,
    fork_map,
    one_blas_thread,
    predict_with_core,
    standardized_inputs,
    time_classification,
)
from .reporting import (
    ascii_heatmap,
    format_latency_table,
    latency_table_csv,
    learning_curve_svg,
    write_pgm,
)
from .spectral import BandSpec, band_pdc
from .var_model import fit_var, var_feature_tensor

DOMAIN_BY_FEATURE_KIND = {"VAR": "var", "PDC": "pdc", "CN": "cn"}
FEATURE_KIND_BY_DOMAIN = {v: k for k, v in DOMAIN_BY_FEATURE_KIND.items()}


def _safe_name(sid: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_") else "_" for c in sid)


def _out_dir(cfg: RunConfig, name: str) -> Path:
    """One of the output subdirectories: features, models, curves or report."""
    return Path(cfg.output_dir) / name


def _load_manifest(cfg: RunConfig) -> CohortManifest:
    """The manifest, whose subjects must map to distinct container names."""
    if not cfg.manifest:
        raise ValidationError("config is missing the 'manifest' key")
    manifest = load_manifest(cfg.manifest)
    by_name: dict[str, list[str]] = {}
    for sid in manifest.subject_ids():
        by_name.setdefault(_safe_name(sid), []).append(sid)
    shared = ["/".join(map(repr, sids)) for sids in by_name.values() if len(sids) > 1]
    if shared:
        raise ValidationError(f"subjects {', '.join(shared)} would share feature container "
                              "names; rename them in the manifest")
    return manifest


def _expand_result_ids(kinds: list[str]) -> list[tuple[str, str, str]]:
    """(result_id, kind, feature_set) triples; the SVM expands to four rows."""
    return [(row.result_id, kind, row.feature_set) for kind in kinds for row in KINDS[kind].results]


# -- extract -----------------------------------------------------------------


def cmd_extract(cfg: RunConfig) -> int:
    """Extract every manifest subject through :func:`fork_map`, then report
    them in manifest order; a failed subject keeps no feature containers."""
    manifest = _load_manifest(cfg)
    feat_dir = _out_dir(cfg, "features")
    feat_dir.mkdir(parents=True, exist_ok=True)
    extract = functools.partial(_extract_subject, cfg, Path(cfg.manifest).parent, feat_dir)
    results = fork_map(extract, manifest.entries,
                       lambda entry: f"extracting {entry.subject_id}")
    failures = 0
    # one registry per source file, as one process keeps one per module: a
    # warning repeated from the same line by several subjects prints once
    registries: dict[str, dict] = {}
    for entry, got in zip(manifest.entries, results):
        caught, outcome = ((), got) if isinstance(got, Exception) else got
        for message, filename, lineno in caught:
            warnings.warn_explicit(message, type(message), filename, lineno, module=__name__,
                                   registry=registries.setdefault(filename, {}))
        if isinstance(outcome, Exception):
            failures += 1
            # also where a dead worker could not clean up after itself
            for path in _feature_paths(feat_dir, entry.subject_id).values():
                path.unlink(missing_ok=True)
            print(f"{entry.subject_id}: FAILED ({outcome})", file=sys.stderr)
        else:
            print(outcome)
    print(f"extracted {len(manifest) - failures}/{len(manifest)} subjects")
    return 1 if failures else 0


def _extract_subject(cfg: RunConfig, base: Path, feat_dir: Path,
                     entry: ManifestEntry) -> tuple[list, object]:
    """Extract one subject and write its three containers: the warnings it
    raised, as (message, file, line), and its summary line or exception."""
    sid = entry.subject_id
    with warnings.catch_warnings(record=True) as caught:
        try:
            rec = load_recording(
                base / entry.path, cfg.data_format, channels=cfg.channels,
                rate=cfg.rate, subject_id=sid, label=entry.label,
            )
            if cfg.standardize:
                rec = standardize(rec)
            model = fit_var(rec, cfg.var_order)
            var_t = var_feature_tensor(model)
            bands = BandSpec()
            pdc = band_pdc(model, bands, cfg.band_grid_step, cfg.exclude_self)
            cn = cn_features(pdc)
            paths = _feature_paths(feat_dir, sid)
            write_container(paths["var"], "VAR", var_t, sid, entry.label)
            write_container(paths["pdc"], "PDC", pdc.values, sid, entry.label, bands=bands)
            write_container(paths["cn"], "CN", cn.values, sid, entry.label, bands=bands)
            outcome = (f"{sid}: var={'x'.join(map(str, var_t.shape))} "
                       f"pdc={'x'.join(map(str, pdc.values.shape))} "
                       f"cn={'x'.join(map(str, cn.values.shape))} ok")
        except Exception as exc:  # noqa: BLE001 - per-subject isolation is the contract
            outcome = exc
    return [(w.message, w.filename, w.lineno) for w in caught], outcome


def _feature_paths(feat_dir: Path, sid: str) -> dict[str, Path]:
    """A subject's feature container per domain."""
    return {d: feat_dir / f"{_safe_name(sid)}_{d}.feat" for d in DOMAINS}


def load_features(cfg: RunConfig, manifest: CohortManifest) -> tuple[dict, tuple[str, ...]]:
    """Read per-subject containers back into {sid: {domain: array}}.

    Fails before reading any container if a manifest subject lacks one, and
    after reading them all if any subject's arrays or bands differ from the
    first subject's, naming every such subject.
    """
    feat_dir = _out_dir(cfg, "features")
    paths = {entry.subject_id: _feature_paths(feat_dir, entry.subject_id)
             for entry in manifest.entries}
    missing = [sid for sid, per in paths.items() if not all(p.exists() for p in per.values())]
    if missing:
        raise ValidationError(
            f"missing feature containers for {len(missing)} manifest subject(s): "
            f"{', '.join(missing)}; run extract first"
        )
    features: dict[str, dict[str, np.ndarray]] = {}
    bands: dict[str, dict[str, tuple[str, ...]]] = {}
    for sid, domain_paths in paths.items():
        per = {}
        for domain, path in domain_paths.items():
            values, header = read_container(path)
            if header["kind"] != FEATURE_KIND_BY_DOMAIN[domain]:
                raise ValidationError(f"{path}: holds {header['kind']}, expected "
                                      f"{FEATURE_KIND_BY_DOMAIN[domain]}")
            per[domain] = values
            if domain != "var":
                bands.setdefault(sid, {})[domain] = _header_band_names(header)
        features[sid] = per
    first = next(iter(features))
    _check_containers_agree(features, bands, first)
    return features, bands[first]["pdc"]


def _check_containers_agree(features: dict, bands: dict, first: str) -> None:
    """Fail with every subject whose arrays differ in shape from the first
    subject's, or whose PDC or CN containers list other bands than its PDC."""
    differ = []
    for sid, per in features.items():
        odd = [f"{d} {'x'.join(map(str, per[d].shape))}" for d in DOMAINS
               if per[d].shape != features[first][d].shape]
        odd += [f"{d} bands {','.join(names) or '-'}" for d, names in bands[sid].items()
                if names != bands[first]["pdc"]]
        if odd:
            differ.append(f"{sid} ({', '.join(odd)})")
    if differ:
        ref = ", ".join(f"{d} {'x'.join(map(str, features[first][d].shape))}" for d in DOMAINS)
        raise ValidationError(
            f"feature containers of {len(differ)} subject(s) differ from those of {first} "
            f"({ref}, bands {','.join(bands[first]['pdc']) or '-'}): {'; '.join(differ)}; "
            "run extract again"
        )


def _header_band_names(header: dict) -> tuple[str, ...]:
    """Band names a feature container header records (none for VAR containers)."""
    return tuple(b[0] for b in header.get("bands") or ())


def _spec_from_features(cfg: RunConfig, features: dict, band_idx) -> ModelSpec:
    first = next(iter(features.values()))
    n, _, lags = first["var"].shape
    n_bands = first["pdc"].shape[2] if band_idx is None else len(band_idx)
    return ModelSpec(
        kind="cnn2d_var", channels=n, lags=lags, n_bands=n_bands,
        dropout=cfg.dropout, pool2d=cfg.pool2d, epochs=cfg.epochs,
        learning_rate=cfg.learning_rate, lr_decay=cfg.lr_decay,
        batch_size=cfg.batch_size,
    )


# -- train -------------------------------------------------------------------


def core_from_bundle(entries: dict, meta: dict) -> FittedModel:
    """The fitted model a bundle's entries and metadata describe."""
    stats = None
    if meta.get("standardized_inputs"):
        stats = {}
        for domain in DOMAINS:
            rec = entries.get(f"stats_{domain}")
            if rec is not None:
                stats[domain] = (rec["mean"], rec["sd"])
    return FittedModel(core=KINDS[meta["model_kind"]].unbundle(entries, meta), stats=stats)


def _write_curve_csv(path: Path, curve) -> None:
    lines = ["epoch,train_loss,val_loss"]
    for i, (tr, vl) in enumerate(curve):
        lines.append(f"{i},{tr!r},{vl!r}")
    path.write_text("\n".join(lines) + "\n")


def write_fold_plan(path: Path, plan: FoldPlan, ordered_ids: list[str]) -> None:
    lines = ["subject_id,fold"]
    for sid in ordered_ids:
        lines.append(f"{sid},{plan.assignments[sid]}")
    path.write_text("\n".join(lines) + "\n")


def read_fold_plan(path: Path) -> FoldPlan:
    """The fold of every subject; folds number 0..k-1 and none is empty."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "subject_id,fold":
        raise ValidationError(f"{path}: not a fold plan file")
    assignments: dict[str, int] = {}
    line_of: dict[str, int] = {}
    for n, line in enumerate(lines[1:], start=2):
        sid, _, text = line.partition(",")
        try:
            fold = int(text)
        except ValueError:
            raise ValidationError(f"{path}: line {n}: fold {text!r} is not an integer") from None
        if sid in line_of:
            raise ValidationError(f"{path}: line {n}: subject {sid!r} already has a fold "
                                  f"on line {line_of[sid]}")
        if fold < 0:
            raise ValidationError(f"{path}: line {n}: fold {fold} is negative")
        assignments[sid] = fold
        line_of[sid] = n
    if not assignments:
        raise ValidationError(f"{path}: assigns no subject to a fold")
    last = max(assignments, key=assignments.get)
    k = assignments[last] + 1
    empty = sorted(set(range(k)) - set(assignments.values()))
    if empty:
        raise ValidationError(f"{path}: line {line_of[last]}: fold {k - 1}, but no subject "
                              f"has fold {', '.join(map(str, empty))}")
    return FoldPlan(k=k, assignments=assignments)


def _check_fold_plan(plan: FoldPlan, subject_ids: list[str], path: Path) -> None:
    """Fail with every manifest subject that the fold plan does not assign."""
    missing = [sid for sid in subject_ids if sid not in plan.assignments]
    if missing:
        raise ValidationError(
            f"{path}: no fold for {len(missing)} manifest subject(s): {', '.join(missing)}; "
            "run train again"
        )


def cmd_train(cfg: RunConfig) -> int:
    manifest = _load_manifest(cfg)
    features, band_names = load_features(cfg, manifest)
    band_idx = band_indices(band_filter_list(cfg) or None, band_names)
    spec = _spec_from_features(cfg, features, band_idx)
    runner = ExperimentRunner(
        features, manifest, spec, master_seed=cfg.seed, k=cfg.folds,
        val_fraction=cfg.val_fraction, positive_class=cfg.positive_class,
        band_idx=band_idx, svm_l2=cfg.svm_l2,
        svm_learning_rate=cfg.svm_learning_rate, svm_steps=cfg.svm_steps,
        standardize_inputs=cfg.standardize_features,
    )
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_fold_plan(out / "folds.csv", runner.plan, manifest.subject_ids())
    _out_dir(cfg, "models").mkdir(parents=True, exist_ok=True)
    _out_dir(cfg, "curves").mkdir(parents=True, exist_ok=True)

    kinds = model_kind_list(cfg)
    save = functools.partial(_save_fold, cfg, manifest)
    written = runner.prefetch(kinds, save)
    failures = 0
    involved: set[Path] = set()  # the files of every row, and of the fits it reads
    kept: set[Path] = set()  # those of the rows trained
    for kind in kinds:
        for row in KINDS[kind].results:
            files = _row_files(cfg, row, runner.k)
            involved |= files
            try:
                result = runner.run_result(kind, row, save, written)
            except Exception as exc:  # noqa: BLE001 - per-model isolation, nonzero exit below
                failures += 1
                print(f"{row.result_id}: FAILED ({exc})", file=sys.stderr)
                continue
            kept |= files
            print(f"{result.result_id}: trained {len(result.folds)} folds, "
                  f"modified accuracy {result.report.mean['modified_accuracy']:.2f}% "
                  f"(+/-{result.report.sd['modified_accuracy']:.2f})")
    # a failed row keeps no model or curve file, not even one of an earlier
    # run, and a fit's file that no trained row reads goes too: also where a
    # worker died while writing it
    for path in involved - kept:
        path.unlink(missing_ok=True)
    return 1 if failures else 0


def _model_name(result_id: str, fold: int) -> str:
    return f"{result_id}_fold{fold}.model"


def _fold_files(cfg: RunConfig, row: ResultRow, fold: int) -> list[Path]:
    """A result row's model file of one fold, then its learning-curve files."""
    return [_out_dir(cfg, "models") / _model_name(row.result_id, fold),
            *(_out_dir(cfg, "curves") / f"{stem}_fold{fold}.csv" for stem in row.curves)]


def _row_files(cfg: RunConfig, row: ResultRow, k: int) -> set[Path]:
    """The files of a result row and of the rows whose files hold the fits
    it reads, over ``k`` folds."""
    rows = {row, *(FITS[label].row for label in row.fits)}
    return {path for r in rows for fold in range(k) for path in _fold_files(cfg, r, fold)}


def _save_fold(cfg: RunConfig, manifest: CohortManifest, kind: str, row: ResultRow,
               fitted: FittedModel, curves: tuple, fold: int, written: dict[str, str]) -> None:
    """Write a result row's model bundle of one fold and its learning
    curves, in ``row.curves`` order, and record the bundle's name and sha256
    in ``written``, unless ``written`` holds the bundle already because the
    job of the row's fit wrote them.  A ``Member`` entry becomes a reference
    to the file of its row, which ``written`` holds."""
    path, *curve_paths = _fold_files(cfg, row, fold)
    if path.name in written:
        return
    entries, extra_meta = KINDS[kind].bundle(fitted.core)
    for role, entry in entries.items():
        if isinstance(entry, Member):
            member = _model_name(entry.result_id, fold)
            entries[role] = BundleRef(member, written[member], NET_ROLE)
    for domain, (mean, sd) in (fitted.stats or {}).items():
        entries[f"stats_{domain}"] = {"mean": mean, "sd": sd}
    meta = {
        "model_kind": kind,
        "feature": row.feature,
        "feature_set": row.feature_set,
        "class_names": list(manifest.class_names),
        "positive_class": cfg.positive_class,
        "band_filter": band_filter_list(cfg),
        "fold": fold,
        "standardized_inputs": bool(fitted.stats),
        **extra_meta,
    }
    written[path.name] = save_bundle(path, entries, meta)
    for curve_path, curve in zip(curve_paths, curves):
        _write_curve_csv(curve_path, curve)


# -- eval ----------------------------------------------------------------------


class FoldModels:
    """The model files of one fold as eval reads them: each file is read and
    checked once, and each net in them runs forward once per batch (in one
    fold of eval every row that holds a net feeds it the same batch)."""

    def __init__(self):
        self._files: dict = {}
        self._nets: dict[int, Outputs] = {}

    def load(self, path) -> tuple[dict, dict]:
        entries, meta = load_bundle(path, self._files)
        return {role: self._once(e) if isinstance(e, Network) else e
                for role, e in entries.items()}, meta

    def _once(self, net: Network) -> Outputs:
        if id(net) not in self._nets:  # the file cache keeps every net, and its id, alive
            self._nets[id(net)] = Outputs(net)
        return self._nets[id(net)]


def load_model(path, band_names: tuple[str, ...], load=load_bundle
               ) -> tuple[FittedModel, dict, list[int] | None]:
    """A saved model, its metadata, and the positions of its band filter in
    ``band_names``; ``load(path)`` reads the bundle."""
    entries, meta = load(path)
    return (core_from_bundle(entries, meta), meta,
            band_indices(meta.get("band_filter") or None, band_names))


def cmd_eval(cfg: RunConfig) -> int:
    """Evaluate every result row's saved models, one :func:`fork_map` job per
    fold, then report the rows in order and write metrics.json."""
    manifest = _load_manifest(cfg)
    check_positive_class(cfg.positive_class, manifest.class_names)
    features, band_names = load_features(cfg, manifest)
    plan_path = Path(cfg.output_dir) / "folds.csv"
    plan = read_fold_plan(plan_path)
    _check_fold_plan(plan, manifest.subject_ids(), plan_path)
    results = _expand_result_ids(model_kind_list(cfg))
    evaluate_fold = functools.partial(_eval_fold, cfg, manifest, features, band_names, plan,
                                      results)
    outcomes = fork_map(evaluate_fold, list(range(plan.k)),
                        lambda fold: f"evaluating fold {fold}")
    fold_metrics: dict[str, list[dict]] = {result_id: [] for result_id, _, _ in results}
    feature_label = {result_id: feature_set for result_id, _, feature_set in results}
    failed: dict[str, str] = {}  # the text of a row's failure in its first failed fold
    for got in outcomes:  # in fold order
        if isinstance(got, Exception):  # the job itself failed, or its worker died
            got = [str(got)] * len(results)
        for (result_id, _, _), outcome in zip(results, got):
            if isinstance(outcome, str):
                failed.setdefault(result_id, outcome)
            else:
                feature_label[result_id], metrics = outcome
                fold_metrics[result_id].append(metrics)
    rows = []
    for result_id, kind, _ in results:
        if result_id in failed:
            print(f"{result_id}: FAILED ({failed[result_id]})", file=sys.stderr)
            continue
        report = MetricsReport.from_folds(fold_metrics[result_id])
        rows.append({
            "model": result_id,
            "classifier": kind,
            "feature": feature_label[result_id],
            **report.to_dict(),
        })
        print(f"{result_id}: acc {report.mean['accuracy']:.2f}% "
              f"sens {report.mean['sensitivity']:.2f}% "
              f"spec {report.mean['specificity']:.2f}% "
              f"modified {report.mean['modified_accuracy']:.2f}%")
    payload = {
        "folds": plan.k,
        "positive_class": cfg.positive_class,
        "seed": cfg.seed,
        "rows": rows,
    }
    out = Path(cfg.output_dir) / "metrics.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


def _eval_fold(cfg: RunConfig, manifest: CohortManifest, features: dict,
               band_names: tuple[str, ...], plan: FoldPlan, results: list, fold: int) -> list:
    """Evaluate every result row on one fold's test subjects: per row, its
    feature label and metrics, or the text of its failure, which is all
    that eval prints of it and crosses a process boundary as it is.

    The rows of a fold share its member files and nets, which one
    :class:`FoldModels` reads and runs once.
    """
    models, models_dir = FoldModels(), _out_dir(cfg, "models")
    test_ids = plan.test_ids(fold, manifest.subject_ids())
    labels = manifest.labels()
    truth = [labels[sid] for sid in test_ids]
    outcomes: list = []
    for result_id, kind, feature_set in results:
        try:
            core, meta, band_idx = load_model(models_dir / _model_name(result_id, fold),
                                              band_names, models.load)
            bits, _ = predict_with_core(core, kind, features, test_ids, band_idx, feature_set)
            class_names = tuple(meta["class_names"])
            predicted = [class_names[int(b)] for b in bits]
            outcomes.append((meta.get("feature", feature_set),
                             evaluate(predicted, truth, cfg.positive_class)))
        except Exception as exc:  # noqa: BLE001 - per-model isolation, nonzero exit in cmd_eval
            outcomes.append(str(exc))
    return outcomes


# -- predict -------------------------------------------------------------------


def cmd_predict(cfg: RunConfig, model_path: str, input_paths: list[str]) -> int:
    per_domain: dict[str, np.ndarray] = {}
    sid = None
    band_names: tuple[str, ...] = ()
    for p in input_paths:
        values, header = read_container(p)
        domain = DOMAIN_BY_FEATURE_KIND[header["kind"]]
        if domain in per_domain:
            raise ValidationError(f"two --input containers of feature kind {header['kind']}")
        per_domain[domain] = values
        names = _header_band_names(header)
        if names and band_names and names != band_names:
            raise ValidationError(f"inputs disagree on bands: {band_names} and {names}")
        band_names = names or band_names
        if sid is None:
            sid = header["subject_id"]
        elif sid != header["subject_id"]:
            raise ValidationError(
                f"inputs mix subjects {sid!r} and {header['subject_id']!r}"
            )
    if sid is None:
        raise ValidationError("predict needs at least one --input feature container")
    core, meta, band_idx = load_model(model_path, band_names or BandSpec().names)
    bits, probs = predict_with_core(core, meta["model_kind"], {sid: per_domain}, [sid],
                                    band_idx, meta.get("feature_set", "all"))
    class_names = tuple(meta["class_names"])
    result = {
        "subject_id": sid,
        "label": class_names[int(bits[0])],
        "probabilities": {cls: float(p) for cls, p in zip(class_names, probs[0])},
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


# -- report --------------------------------------------------------------------


def _report_curves(cfg: RunConfig, report_dir: Path) -> int:
    curves_dir = _out_dir(cfg, "curves")
    count = 0
    for csv_path in sorted(curves_dir.glob("*.csv")):
        lines = csv_path.read_text().splitlines()[1:]
        curve = []
        for line in lines:
            _, tr, vl = line.split(",")
            curve.append((float(tr), float(vl)))
        if not curve:
            continue
        svg = learning_curve_svg(curve, csv_path.stem)
        (report_dir / f"{csv_path.stem}.svg").write_text(svg)
        count += 1
    return count


def _report_feature_maps(cfg: RunConfig, manifest, features, load, report_dir: Path) -> int:
    sid = cfg.report_subject or manifest.subject_ids()[0]
    if sid not in features:
        raise ValidationError(f"report subject {sid!r} has no extracted features")
    paths = {kind: _out_dir(cfg, "models") / _model_name(kind, 0)
             for kind in ("cnn2d_pdc", "cnn2d_var")}
    kind = next((kind for kind, path in paths.items() if path.exists()), None)
    if kind is None:
        return 0
    fitted, _, band_idx = load(paths[kind])
    net: Network = fitted.core
    x = standardized_inputs(kind, features, [sid], band_idx, fitted.stats)
    record: list[np.ndarray] = []
    net.forward(x, train=False, record=record)
    conv_post_relu = [
        i + 1
        for i, layer in enumerate(net.layers)
        if layer.kind.startswith("conv") and i + 1 < len(net.layers)
        and net.layers[i + 1].kind == "relu"
    ]
    written = 0
    for li, rec_idx in enumerate(conv_post_relu[:2], start=1):
        maps = record[rec_idx][0]  # (H, W, R)
        layer_dir = report_dir / "featmaps" / f"layer{li}"
        layer_dir.mkdir(parents=True, exist_ok=True)
        for r in range(maps.shape[-1]):
            img = maps[:, :, r]
            write_pgm(layer_dir / f"map_{r:03d}.pgm", img,
                      comment=f"{kind} {sid} layer{li} map{r}")
            if cfg.report_ascii:
                (layer_dir / f"map_{r:03d}.txt").write_text(ascii_heatmap(img) + "\n")
            written += 1
    print(f"feature maps for subject {sid} from {kind}: {written} heatmaps")
    return written


def _report_latency(cfg: RunConfig, features, load, manifest, report_dir: Path) -> list[dict]:
    sid = cfg.report_subject or manifest.subject_ids()[0]
    models_dir = _out_dir(cfg, "models")
    rows = []
    for result_id, kind, feature_set in _expand_result_ids(model_kind_list(cfg)):
        path = models_dir / _model_name(result_id, 0)
        if not path.exists():
            continue
        core, meta, band_idx = load(path)
        ms = time_classification(core, kind, features, sid,
                                 repetitions=cfg.latency_repetitions,
                                 band_idx=band_idx, feature_set=feature_set)
        rows.append({
            "model": result_id,
            "feature": meta.get("feature", feature_set),
            "mean_ms": ms,
            "repetitions": cfg.latency_repetitions,
        })
    if rows:
        (report_dir / "latency.csv").write_text(latency_table_csv(rows))
        print(format_latency_table(rows))
    return rows


def cmd_report(cfg: RunConfig) -> int:
    manifest = _load_manifest(cfg)
    features, band_names = load_features(cfg, manifest)
    report_dir = _out_dir(cfg, "report")
    report_dir.mkdir(parents=True, exist_ok=True)
    n_curves = _report_curves(cfg, report_dir)
    print(f"learning-curve SVGs: {n_curves}")
    # One plain load_bundle cache, so each model file is read once.  Not a
    # FoldModels: its forward memo would time cached outputs as latency.
    load = functools.partial(load_model, band_names=band_names,
                             load=functools.partial(load_bundle, cache={}))
    _report_feature_maps(cfg, manifest, features, load, report_dir)
    _report_latency(cfg, features, load, manifest, report_dir)
    return 0


# -- entry point ---------------------------------------------------------------

# Every command with its help.  main runs ``cmd_<name>`` as it finds it on
# this module when it runs, so a function patched onto the module is the one
# called.
COMMANDS = {
    "extract": "compute VAR/PDC/CN feature containers per subject",
    "train": "train the configured classifiers with k-fold cross-validation",
    "eval": "evaluate saved models and write metrics.json",
    "predict": "classify one subject from feature containers",
    "report": "emit learning-curve SVGs, feature-map heatmaps, latency table",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegconn",
        description="EEG connectivity feature extraction and two-group CNN classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in COMMANDS.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="key=value run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "predict":
            p.add_argument("--model", required=True, help="trained model file")
            p.add_argument("--input", required=True, action="append",
                           help="feature container (repeat for fusion models)")
    return parser


def main(argv: list[str] | None = None) -> int:
    one_blas_thread()  # before any work, and so before any pool forks
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        command = globals()[f"cmd_{args.command}"]
        if args.command == "predict":
            return command(cfg, args.model, args.input)
        return command(cfg)
    except (EegConnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - last-resort diagnostics for the CLI
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
