"""Line-based key=value run configuration.

Every key has a documented default; unknown keys are rejected so a typo
cannot silently fall back to a default.  Blank lines and '#' comments are
allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .eeg_io import VALID_FORMATS
from .errors import ConfigError
from .pipeline import MODEL_KINDS, POOL2D_MODES

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


@dataclass
class RunConfig:
    manifest: str = ""                 # cohort manifest CSV (paths relative to it)
    data_format: str = "csv_matrix"    # csv_matrix | column_concat
    channels: int = 16                 # required for column_concat; checked for csv
    rate: float = 128.0                # sampling frequency in Hz
    var_order: int = 5                 # fixed lag order for feature extraction
    band_grid_step: float = 0.25       # PDC averaging grid step in Hz
    band_filter: str = ""              # comma list of band names; empty = all
    standardize_features: bool = True  # z-score CNN inputs with train-fold stats
    model_kinds: str = "cnn2d_var,cnn2d_pdc,cnn1d_cn,fusion_decision"
    epochs: int = 500
    learning_rate: float = 1e-4
    lr_decay: float = 1e-6
    dropout: float = 0.5
    batch_size: int = 0                # 0 = full batch
    pool2d: str = "none"               # none | avg | max (pooling ablation)
    folds: int = 5
    val_fraction: float = 0.15
    positive_class: str = "SZ"
    seed: int = 0
    output_dir: str = "out"
    svm_steps: int = 2000
    latency_repetitions: int = 1000


def _convert(name: str, kind: type, raw: str):
    try:
        if kind is bool:
            key = raw.strip().lower()
            if key not in _BOOL:
                raise ValueError
            return _BOOL[key]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for key {name!r} (expected {kind.__name__})") from None


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    known = {f.name: f.type for f in fields(RunConfig)}
    types = {"str": str, "int": int, "float": float, "bool": bool}
    cfg = RunConfig()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        kind = types.get(known[key], str) if isinstance(known[key], str) else known[key]
        setattr(cfg, key, _convert(key, kind, raw.strip()))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.data_format not in VALID_FORMATS:
        raise ConfigError(f"data_format must be {' or '.join(VALID_FORMATS)}, "
                          f"got {cfg.data_format!r}")
    if cfg.folds < 2:
        raise ConfigError(f"folds must be >= 2, got {cfg.folds}")
    if not (0 < cfg.val_fraction < 1):
        raise ConfigError(f"val_fraction must be in (0, 1), got {cfg.val_fraction}")
    if cfg.var_order < 1:
        raise ConfigError(f"var_order must be >= 1, got {cfg.var_order}")
    if cfg.band_grid_step <= 0:
        raise ConfigError(f"band_grid_step must be positive, got {cfg.band_grid_step}")
    if cfg.pool2d not in POOL2D_MODES:
        raise ConfigError(f"pool2d must be {'/'.join(POOL2D_MODES)}, got {cfg.pool2d!r}")
    if cfg.epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {cfg.epochs}")
    if not cfg.learning_rate > 0:
        raise ConfigError(f"learning_rate must be positive, got {cfg.learning_rate}")
    if not (0 <= cfg.dropout < 1):
        raise ConfigError(f"dropout must be in [0, 1), got {cfg.dropout}")
    if cfg.batch_size < 0:
        raise ConfigError(f"batch_size must be >= 0 (0 = full batch), got {cfg.batch_size}")
    if cfg.latency_repetitions < 1:
        raise ConfigError(f"latency_repetitions must be >= 1, got {cfg.latency_repetitions}")
    kinds, bands = model_kind_list(cfg), band_filter_list(cfg)
    if not kinds:
        raise ConfigError(f"model_kinds must be a comma list of kinds from {MODEL_KINDS}")
    for kind in kinds:
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {kind!r} (choices: {MODEL_KINDS})")
    if len(set(kinds)) < len(kinds):
        raise ConfigError(f"model_kinds must be a list of distinct kinds, got {cfg.model_kinds!r}")
    if len(set(bands)) < len(bands):
        raise ConfigError(f"band_filter must be a list of distinct bands, got {cfg.band_filter!r}")


def model_kind_list(cfg: RunConfig) -> list[str]:
    return [k.strip() for k in cfg.model_kinds.split(",") if k.strip()]


def band_filter_list(cfg: RunConfig) -> list[str]:
    return [b.strip() for b in cfg.band_filter.split(",") if b.strip()]
