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
import shutil
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

from .config import RunConfig, band_filter_list, model_kind_list, parse_config
from .container import PARTIAL, read_container, whole_file, write_container
from .eeg_io import CohortManifest, ManifestEntry, load_manifest, load_recording, standardize
from .errors import EegConnError, ValidationError
from .models import FoldModels, RowFiles, load_model, read_curve_csv
from .models import core_from_bundle  # noqa: F401 - perfbench reads cli.core_from_bundle
from .netmetrics import cn_features
from .pipeline import (
    DOMAINS,
    KINDS,
    ExperimentRunner,
    FoldPlan,
    MetricsReport,
    ModelSpec,
    ResultRow,
    band_indices,
    check_positive_class,
    fit_groups,
    fork_map,
    one_blas_thread,
    predict_model,
    score,
    standardized_inputs,
    time_classification,
)
from .reporting import (
    format_latency_table,
    latency_table_csv,
    learning_curve_svg,
    pgm_heatmap,
)
from .spectral import BandSpec, band_pdc
from .var_model import fit_var, var_feature_tensor

DOMAIN_BY_FEATURE_KIND = {"VAR": "var", "PDC": "pdc", "CN": "cn"}
FEATURE_KIND_BY_DOMAIN = {v: k for k, v in DOMAIN_BY_FEATURE_KIND.items()}


def _safe_name(sid: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_") else "_" for c in sid)


def _out(cfg: RunConfig, *parts: str) -> Path:
    """The path of a file or folder under the output directory."""
    return Path(cfg.output_dir).joinpath(*parts)


def _write_text(path: Path, text: str) -> None:
    with whole_file(path) as fh:
        fh.write(text.encode())


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


def _result_rows(cfg: RunConfig) -> list[ResultRow]:
    """The result rows of the configured kinds; the SVM has four."""
    return [row for kind in model_kind_list(cfg) for row in KINDS[kind].results]


# -- extract -----------------------------------------------------------------


def cmd_extract(cfg: RunConfig) -> int:
    """Extract every manifest subject through :func:`fork_map`, then report
    them in manifest order; a failed subject keeps no feature containers."""
    manifest = _load_manifest(cfg)
    extract = functools.partial(_extract_subject, cfg, Path(cfg.manifest).parent)
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
            for path in _feature_paths(cfg, entry.subject_id).values():
                path.unlink(missing_ok=True)
                path.with_name(path.name + PARTIAL).unlink(missing_ok=True)
            print(f"{entry.subject_id}: FAILED ({outcome})", file=sys.stderr)
        else:
            print(outcome)
    print(f"extracted {len(manifest) - failures}/{len(manifest)} subjects")
    return 1 if failures else 0


def _extract_subject(cfg: RunConfig, base: Path, entry: ManifestEntry) -> tuple[list, object]:
    """Extract one subject and write its three containers: the warnings it
    raised, as (message, file, line), and its summary line or exception."""
    sid = entry.subject_id
    with warnings.catch_warnings(record=True) as caught:
        try:
            rec = load_recording(
                base / entry.path, cfg.data_format, channels=cfg.channels,
                rate=cfg.rate, subject_id=sid, label=entry.label,
            )
            model = fit_var(standardize(rec), cfg.var_order)
            var_t = var_feature_tensor(model)
            bands = BandSpec()
            pdc = band_pdc(model, bands, cfg.band_grid_step)
            cn = cn_features(pdc)
            arrays = dict(zip(DOMAINS, (var_t, pdc.values, cn.values)))
            for domain, path in _feature_paths(cfg, sid).items():
                write_container(path, FEATURE_KIND_BY_DOMAIN[domain], arrays[domain], sid,
                                entry.label, bands=None if domain == "var" else bands)
            outcome = " ".join([f"{sid}:", *(f"{d}={'x'.join(map(str, a.shape))}"
                                              for d, a in arrays.items()), "ok"])
        except Exception as exc:  # noqa: BLE001 - per-subject isolation is the contract
            outcome = exc
    return [(w.message, w.filename, w.lineno) for w in caught], outcome


def _feature_paths(cfg: RunConfig, sid: str) -> dict[str, Path]:
    """A subject's feature container per domain."""
    return {d: _out(cfg, "features", f"{_safe_name(sid)}_{d}.feat") for d in DOMAINS}


def load_features(cfg: RunConfig, manifest: CohortManifest) -> tuple[dict, tuple[str, ...]]:
    """Read per-subject containers back into {sid: {domain: array}}.

    Fails before reading any container if a manifest subject lacks one, and
    after reading them all if any subject's arrays or bands differ from the
    first subject's, naming every such subject.
    """
    paths = {entry.subject_id: _feature_paths(cfg, entry.subject_id) for entry in manifest.entries}
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
        dropout=cfg.dropout, epochs=cfg.epochs,
        learning_rate=cfg.learning_rate, lr_decay=cfg.lr_decay,
        batch_size=cfg.batch_size,
    )


# -- train -------------------------------------------------------------------


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
        band_idx=band_idx, svm_steps=cfg.svm_steps,
    )
    # this run's folds replace those that the earlier scores and report describe
    _out(cfg, "metrics.json").unlink(missing_ok=True)
    if _out(cfg, "report").is_dir():
        shutil.rmtree(_out(cfg, "report"))
    _write_text(_out(cfg, "folds.csv"), "".join(
        ["subject_id,fold\n",
         *(f"{sid},{runner.plan.assignments[sid]}\n" for sid in manifest.subject_ids())]))

    rows = _result_rows(cfg)
    files = RowFiles(cfg.output_dir, manifest.class_names, cfg.positive_class,
                     band_filter_list(cfg))
    reports = runner.fit_rows(rows, files)
    failures = 0
    trained = []
    for row, report in zip(rows, reports):
        if isinstance(report, Exception):  # per-model isolation, nonzero exit below
            failures += 1
            print(f"{row.result_id}: FAILED ({report})", file=sys.stderr)
            continue
        trained.append(row)
        print(f"{row.result_id}: trained {len(report.per_fold)} folds, "
              f"modified accuracy {report.mean['modified_accuracy']:.2f}% "
              f"(+/-{report.sd['modified_accuracy']:.2f})")
    # nothing else stays: no file of a failed row, none of an earlier run's
    # rows, trained on other folds, and nothing that a dead worker left
    files.keep_only(trained, runner.k)
    return 1 if failures else 0


def cmd_eval(cfg: RunConfig) -> int:
    """Evaluate every result row's saved models, one :func:`fork_map` job per
    (group of rows that read no fit in common, fold), then report the rows in
    order and write metrics.json."""
    manifest = _load_manifest(cfg)
    check_positive_class(cfg.positive_class, manifest.class_names)
    features, band_names = load_features(cfg, manifest)
    plan_path = _out(cfg, "folds.csv")
    plan = read_fold_plan(plan_path)
    _check_fold_plan(plan, manifest.subject_ids(), plan_path)
    rows = _result_rows(cfg)
    jobs = [(group, fold) for group in fit_groups(rows) for fold in range(plan.k)]
    evaluate_fold = functools.partial(_eval_fold, cfg, manifest, features, band_names, plan)
    outcomes = fork_map(evaluate_fold, jobs, lambda job: f"evaluating fold {job[1]}")
    # per (row, fold), its outcome; a job that failed itself, or whose worker
    # died, fails every row of its group with its text
    per_fold = {}
    for (group, fold), got in zip(jobs, outcomes):
        if isinstance(got, Exception):
            got = [str(got)] * len(group)
        per_fold.update(((row, fold), outcome) for row, outcome in zip(group, got))
    scored = []
    failures = 0
    for row in rows:
        folds = [per_fold[row, fold] for fold in range(plan.k)]
        failure = next((got for got in folds if isinstance(got, str)), None)
        if failure is not None:  # the text of its first failed fold
            failures += 1
            print(f"{row.result_id}: FAILED ({failure})", file=sys.stderr)
            continue
        report = MetricsReport.from_folds(list(folds))
        scored.append({
            "model": row.result_id,
            "classifier": row.kind,
            "feature": row.feature,
            **report.to_dict(),
        })
        print(f"{row.result_id}: acc {report.mean['accuracy']:.2f}% "
              f"sens {report.mean['sensitivity']:.2f}% "
              f"spec {report.mean['specificity']:.2f}% "
              f"modified {report.mean['modified_accuracy']:.2f}%")
    payload = {
        "folds": plan.k,
        "positive_class": cfg.positive_class,
        "seed": cfg.seed,
        "rows": scored,
    }
    out = _out(cfg, "metrics.json")
    _write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 1 if failures else 0


def _eval_fold(cfg: RunConfig, manifest: CohortManifest, features: dict,
               band_names: tuple[str, ...], plan: FoldPlan,
               job: tuple[list[ResultRow], int]) -> list:
    """Evaluate one group of result rows on one fold's test subjects: per
    row, its metrics, or the text of its failure, which is all that eval
    prints of it and crosses a process boundary as it is.

    The rows of a group share the fold's member files and nets, which one
    :class:`FoldModels` reads and runs once; no other group reads them.
    """
    rows, fold = job
    models = FoldModels(cfg.output_dir, band_names, share_outputs=True)
    test_ids = plan.test_ids(fold, manifest.subject_ids())
    labels = manifest.labels()
    outcomes: list = []
    for row in rows:
        try:
            path, core, meta, band_idx = models.load(row, fold)
            outcomes.append(score(path, core, row, features, test_ids, band_idx,
                                  meta["class_names"], labels, cfg.positive_class))
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
    bits, probs = predict_model(model_path, core, meta["model_kind"], {sid: per_domain}, [sid],
                                band_idx, meta["feature_set"])
    class_names = meta["class_names"]
    result = {
        "subject_id": sid,
        "label": class_names[int(bits[0])],
        "probabilities": {cls: float(p) for cls, p in zip(class_names, probs[0])},
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


# -- report --------------------------------------------------------------------


def _report_curves(cfg: RunConfig) -> int:
    """Draw each curve file into an SVG; the number of files that failed."""
    count = failures = 0
    for csv_path in sorted(_out(cfg, "curves").glob("*.csv")):
        try:
            curve = read_curve_csv(csv_path)
        except (ValidationError, OSError) as exc:  # isolated as a latency row is
            failures += 1
            print(f"{csv_path.stem}: FAILED ({exc})", file=sys.stderr)
            continue
        if curve:
            _write_text(_out(cfg, "report", f"{csv_path.stem}.svg"),
                        learning_curve_svg(curve, csv_path.stem))
            count += 1
    print(f"learning-curve SVGs: {count}")
    return failures


def _report_feature_maps(cfg: RunConfig, sid: str, features, models: FoldModels) -> None:
    row = next((row for row in (KINDS["cnn2d_pdc"].results[0], KINDS["cnn2d_var"].results[0])
                if models.files.model_path(row, 0).exists()), None)
    if row is None:
        return
    _, fitted, _, band_idx = models.load(row, 0)
    net = fitted.core
    x = standardized_inputs(row.kind, features, [sid], band_idx, fitted.stats)
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
        layer = ("report", "featmaps", f"layer{li}")
        for r in range(maps.shape[-1]):
            _write_text(_out(cfg, *layer, f"map_{r:03d}.pgm"),
                        pgm_heatmap(maps[:, :, r], comment=f"{row.kind} {sid} layer{li} map{r}"))
            written += 1
    print(f"feature maps for subject {sid} from {row.kind}: {written} heatmaps")


def _report_latency(cfg: RunConfig, sid: str, features, models: FoldModels) -> int:
    """Time each row's fold-0 model into latency.csv; the number of rows that failed."""
    rows = []
    failures = 0
    for row in _result_rows(cfg):
        if not models.files.model_path(row, 0).exists():
            continue
        try:
            path, core, _, band_idx = models.load(row, 0)
            # once untimed, so that a model that does not fit fails naming its file
            predict_model(path, core, row.kind, features, [sid], band_idx, row.feature_set)
            ms = time_classification(core, row.kind, features, sid,
                                     repetitions=cfg.latency_repetitions,
                                     band_idx=band_idx, feature_set=row.feature_set)
        except Exception as exc:  # noqa: BLE001 - per-model isolation, nonzero exit in cmd_report
            failures += 1
            print(f"{row.result_id}: FAILED ({exc})", file=sys.stderr)
            continue
        rows.append({"model": row.result_id, "feature": row.feature,
                     "mean_ms": ms, "repetitions": cfg.latency_repetitions})
    if rows:
        _write_text(_out(cfg, "report", "latency.csv"), latency_table_csv(rows))
        print(format_latency_table(rows))
    return failures


def cmd_report(cfg: RunConfig) -> int:
    manifest = _load_manifest(cfg)
    features, band_names = load_features(cfg, manifest)
    failures = _report_curves(cfg)
    models = FoldModels(cfg.output_dir, band_names, share_outputs=False)
    sid = manifest.subject_ids()[0]
    try:
        _report_feature_maps(cfg, sid, features, models)
    except Exception as exc:  # noqa: BLE001 - isolated as a latency row is, nonzero exit below
        failures += 1
        print(f"feature maps: FAILED ({exc})", file=sys.stderr)
    failures += _report_latency(cfg, sid, features, models)
    return 1 if failures else 0


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
