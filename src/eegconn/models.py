"""The files of a run's result rows, ``models/<result_id>_fold<k>.model`` and
``curves/<stem>_fold<k>.csv``, which this module alone writes, reads and checks:
a model file's metadata, its ``stats_<domain>`` entries, and an ensemble file's
references to its members' files (``nn.serialize`` holds the bundle format)."""

from __future__ import annotations

from pathlib import Path

from .container import header_field, whole_file
from .errors import ValidationError
from .nn.network import Network
from .nn.serialize import BundleRef, load_bundle, resolve, save_bundle
from .pipeline import (FITS, KINDS, NET_ROLE, FittedModel, Outputs, ResultRow, band_indices,
                       bundle_entry)


class RowFiles:
    """The files of result rows under one output directory, the run's metadata
    that each model file records, and ``written``, the sha256 of each model
    file saved so far, by which an ensemble's file refers to its members'."""

    def __init__(self, output_dir, class_names=(), positive_class: str = "SZ", band_filter=()):
        self.dir = Path(output_dir)
        self.meta = {"class_names": list(class_names), "positive_class": positive_class,
                     "band_filter": list(band_filter)}
        self.written: dict[str, str] = {}

    def model_path(self, row: ResultRow, fold: int) -> Path:
        return self.dir / "models" / f"{row.result_id}_fold{fold}.model"

    def fold_files(self, row: ResultRow, fold: int) -> list[Path]:
        """A result row's model file of one fold, then its learning-curve files."""
        return [self.model_path(row, fold),
                *(self.dir / "curves" / f"{stem}_fold{fold}.csv" for stem in row.curves)]

    def keep_only(self, rows: list[ResultRow], k: int) -> None:
        """Remove every model and curve file but those of ``rows``, and of the
        rows whose fits they read, over ``k`` folds."""
        rows = {*rows, *(FITS[label] for row in rows for label in row.fits)}
        kept = {path for r in rows for fold in range(k) for path in self.fold_files(r, fold)}
        for path in [*(self.dir / "models").glob("*"), *(self.dir / "curves").glob("*")]:
            if path not in kept:
                path.unlink()

    def _member_ref(self, member: ResultRow, fold: int) -> BundleRef:
        name = self.model_path(member, fold).name
        return BundleRef(name, self.written[name], NET_ROLE)

    def save(self, row: ResultRow, fitted: FittedModel, curves: tuple,
             fold: int) -> dict[str, str]:
        """Write a row's model file of one fold, with the row's, the fold's and
        the run's metadata, and its curves; the model file's name and sha256."""
        path, *curve_paths = self.fold_files(row, fold)
        entries, extra_meta = KINDS[row.kind].bundle(fitted.core)
        for role, entry in entries.items():
            if isinstance(entry, ResultRow):
                entries[role] = self._member_ref(entry, fold)
        for domain, (mean, sd) in (fitted.stats or {}).items():
            entries[f"stats_{domain}"] = {"mean": mean, "sd": sd}
        meta = {"model_kind": row.kind, "feature": row.feature, "feature_set": row.feature_set,
                "fold": fold, "standardized_inputs": bool(fitted.stats), **self.meta,
                **extra_meta}
        digest = save_bundle(path, entries, meta)
        for curve_path, curve in zip(curve_paths, curves):
            _write_curve_csv(curve_path, curve)
        return {path.name: digest}

    def read_member(self, row: ResultRow, label: str, fold: int) -> Network:
        """The fold's net of the ``FITS`` row ``label``, as eval reads it through
        ``row``'s file (which need not exist yet), at its sha256 in ``written``."""
        return resolve(self.model_path(row, fold), self._member_ref(FITS[label], fold), {})


_CURVE_HEADER = "epoch,train_loss,val_loss\n"
_CURVE_LINE = "{},{!r},{!r}\n"  # epoch, train loss, validation loss


def _write_curve_csv(path: Path, curve) -> None:
    with whole_file(path) as fh:
        fh.write("".join([_CURVE_HEADER, *(_CURVE_LINE.format(i, tr, vl)
                                           for i, (tr, vl) in enumerate(curve))]).encode())


def read_curve_csv(path: Path) -> list[tuple[float, float]]:
    """The curve that :func:`_write_curve_csv` wrote at ``path``; a ValidationError
    naming the file and line of anything it cannot have written: another header, a
    line other than ``<epoch>,<float>,<float>`` from epoch 0, or a cut last line."""
    header, *lines = path.read_bytes().decode(errors="replace").splitlines(keepends=True) or [""]
    if header != _CURVE_HEADER:
        raise ValidationError(f"{path}: line 1: {header!r} is not {_CURVE_HEADER!r}")
    curve = []
    for epoch, line in enumerate(lines):
        try:
            _, train_loss, val_loss = line.split(",")
            curve.append((float(train_loss), float(val_loss)))
            if _CURVE_LINE.format(epoch, *curve[-1]) != line:
                raise ValueError(line)
        except ValueError:
            raise ValidationError(f"{path}: line {epoch + 2}: {line!r} is not "
                                  f"'{epoch},<train loss>,<val loss>\\n'") from None
    return curve


def core_from_bundle(entries: dict, meta: dict) -> FittedModel:
    """The fitted model a bundle's entries and metadata describe; a bundle of
    standardized inputs lacking the statistics of a domain its kind reads is a
    ValidationError."""
    kind = KINDS[meta["model_kind"]]
    stats = None
    if meta.get("standardized_inputs"):
        stats = {}
        for domain in kind.domains:
            rec = bundle_entry(entries, f"stats_{domain}")
            if not (isinstance(rec, dict) and {"mean", "sd"} <= rec.keys()):
                raise ValidationError(f"bundle entry 'stats_{domain}' is not a mean and an sd")
            stats[domain] = (rec["mean"], rec["sd"])
    return FittedModel(core=kind.unbundle(entries, meta), stats=stats)


class FoldModels:
    """The model files of result rows under one output directory, each read
    and checked once.  With ``share_outputs`` (eval, whose rows feed a net
    the same batch) each net runs forward once per batch; report times them."""

    def __init__(self, output_dir, band_names: tuple[str, ...], share_outputs: bool):
        self.files = RowFiles(output_dir)
        self.band_names = band_names
        self._files: dict = {}
        self._nets: dict[int, Outputs] | None = {} if share_outputs else None

    def load(self, row: ResultRow, fold: int) -> tuple[Path, FittedModel, dict, list[int] | None]:
        """A row's model file of one fold: its path and :func:`load_model`'s values;
        refused where its metadata names another kind, feature, feature set or fold."""
        path = self.files.model_path(row, fold)
        fitted, meta, band_idx = load_model(path, self.band_names, self._read)
        for key, want in (("model_kind", row.kind), ("feature", row.feature),
                          ("feature_set", row.feature_set), ("fold", fold)):
            if meta.get(key) != want:
                raise ValidationError(f"{path}: holds {key} {meta.get(key)!r}, not {want!r}")
        return path, fitted, meta, band_idx

    def _read(self, path) -> tuple[dict, dict]:
        entries, meta = load_bundle(path, self._files)
        if self._nets is None:
            return entries, meta
        # the file cache keeps every net, and its id, alive
        return {role: self._nets.setdefault(id(e), Outputs(e)) if isinstance(e, Network) else e
                for role, e in entries.items()}, meta


def load_model(path, band_names: tuple[str, ...], load=load_bundle
               ) -> tuple[FittedModel, dict, list[int] | None]:
    """A saved model, its metadata, and the positions of its band filter in
    ``band_names``; ``load(path)`` reads the bundle.  Metadata that lacks a
    key that readers use, holds one at another type, or names no kind of
    ``KINDS`` or not two classes, and a bundle that lacks an entry its kind
    reads, is a ValidationError naming the file."""
    entries, meta = load(path)
    kind = header_field(path, meta, "model_kind", str)
    if kind not in KINDS:
        raise ValidationError(f"{path}: unknown model kind {kind!r}")
    class_names = header_field(path, meta, "class_names", list)
    if len(class_names) != 2 or not all(isinstance(name, str) for name in class_names):
        raise ValidationError(f"{path}: class_names {class_names!r} are not two names")
    header_field(path, meta, "feature_set", str)
    band_filter = header_field(path, meta, "band_filter", list)
    try:
        fitted = core_from_bundle(entries, meta)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return fitted, meta, band_indices(band_filter or None, band_names)
