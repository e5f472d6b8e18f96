"""Which program functions a traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/eegconn``.  ``reporting`` is left out on
purpose (SVG, PGM and latency-table output are not on any measured path);
``synthetic`` and ``config`` only run during set-up.  Per-layer values are
totals per round, a round being the workload's fixed unit of work, so they
compare across runs whose length in rounds differs.
"""

from __future__ import annotations

from pathlib import Path

from spans import Span, Tracer, descendants, self_times

NN_LAYERS = ("Conv2d", "Conv1d", "Dense", "ReLU", "Dropout", "AvgPool1d", "Flatten", "Softmax")
NN_NETWORKS = ("Network", "MultiBranchNetwork")
NN_NETWORK_METHODS = ("loss_and_grads", "predict_proba", "get_state")

# (module, function, span name, work count kept on the span)
_FILE_BYTES = "file_bytes"
_PARAMS = "params"
_EPOCHS = "epochs"
FUNCTIONS = (
    ("cli", "cmd_extract", "cli.extract", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "load_features", "cli.load_features", None),
    ("eeg_io", "load_recording", "eeg_io.load_recording", _FILE_BYTES),
    ("eeg_io", "standardize", "eeg_io.standardize", None),
    ("var_model", "fit_var", "var_model.fit_var", None),
    ("spectral", "band_pdc", "spectral.band_pdc", None),
    ("netmetrics", "cn_features", "netmetrics.cn_features", None),
    ("container", "write_container", "container.write_container", _FILE_BYTES),
    ("container", "read_container", "container.read_container", _FILE_BYTES),
    ("nn.serialize", "save_bundle", "nn.serialize.save_bundle", _FILE_BYTES),
    ("nn.serialize", "load_bundle", "nn.serialize.load_bundle", _FILE_BYTES),
    ("nn.optim", "adam_step", "nn.optim.adam_step", _PARAMS),
    ("pipeline", "train_model", "pipeline.train_model", _EPOCHS),
    ("pipeline", "compute_input_stats", "pipeline.compute_input_stats", None),
    ("pipeline", "standardized_inputs", "pipeline.standardized_inputs", None),
    ("pipeline", "predict_with_core", "pipeline.predict_with_core", None),
    ("svm", "train_svm", "svm.train_svm", None),
)
COUNTED = (("spectral", "pdc_at", "spectral.pdc_at"),)
# (module, class, method, span name)
METHODS = (
    ("pipeline", "ExperimentRunner", "trained_member", "pipeline.ExperimentRunner.trained_member"),
    ("pipeline", "EnsembleModel", "predict", "pipeline.EnsembleModel.predict"),
    ("svm", "LinearSvm", "decision", "svm.LinearSvm.decision"),
    *(("nn.network", cls, m, f"nn.network.{cls}.{m}")
      for cls in NN_NETWORKS for m in NN_NETWORK_METHODS),
    *(("nn.layers", cls, m, f"nn.layers.{cls}.{m}")
      for cls in NN_LAYERS for m in ("forward", "backward")),
)


def _measure(kind: str | None):
    if kind == _FILE_BYTES:
        return lambda args, result: Path(args[0]).stat().st_size
    if kind == _PARAMS:
        return lambda args, result: sum(p.size for p in args[0].values())
    if kind == _EPOCHS:
        return lambda args, result: (len(result.curve), result.best_epoch + 1)
    return None


def install(tracer: Tracer) -> None:
    import importlib

    def mod(name):
        return importlib.import_module(f"eegconn.{name}")

    for module, attr, name, kind in FUNCTIONS:
        tracer.patch_function(mod(module), attr, name, _measure(kind))
    for module, attr, name in COUNTED:
        tracer.patch_function(mod(module), attr, name, count_only=True)
    for module, cls, attr, name in METHODS:
        tracer.patch_method(getattr(mod(module), cls), attr, name)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for stage in ("extract", "train", "eval", "load_features"):
        units[f"cli.{stage}.self_ms"] = "ms"
    units["cli.extract.failed_subjects"] = "count"
    units.update({
        "eeg_io.load_recording.self_ms": "ms",
        "eeg_io.load_recording.calls": "count",
        "eeg_io.load_recording.bytes": "B",
        "eeg_io.standardize.self_ms": "ms",
        "var_model.fit_var.self_ms": "ms",
        "var_model.fit_var.calls": "count",
        "spectral.band_pdc.self_ms": "ms",
        "spectral.pdc_at.calls": "count",
        "netmetrics.cn_features.self_ms": "ms",
        "container.write_container.self_ms": "ms",
        "container.write_container.bytes": "B",
        "container.read_container.self_ms": "ms",
        "container.read_container.bytes": "B",
    })
    for cls in NN_LAYERS:
        for m in ("forward", "backward"):
            units[f"nn.layers.{cls}.{m}.self_ms"] = "ms"
            units[f"nn.layers.{cls}.{m}.calls"] = "count"
    for cls in NN_NETWORKS:
        for m in NN_NETWORK_METHODS:
            units[f"nn.network.{cls}.{m}.self_ms"] = "ms"
            units[f"nn.network.{cls}.{m}.calls"] = "count"
    units.update({
        "nn.optim.adam_step.self_ms": "ms",
        "nn.optim.adam_step.calls": "count",
        "nn.optim.adam_step.params": "count",
        "nn.serialize.save_bundle.self_ms": "ms",
        "nn.serialize.save_bundle.bytes": "B",
        "nn.serialize.load_bundle.self_ms": "ms",
        "nn.serialize.load_bundle.bytes": "B",
        "pipeline.train_model.self_ms": "ms",
        "pipeline.train_model.calls": "count",
        "pipeline.train_model.epochs": "count",
        "pipeline.train_model.useful_epoch_ratio": "1",
        "pipeline.train_model.diverged": "count",
        "pipeline.ExperimentRunner.trained_member.hit_ratio": "1",
        "pipeline.compute_input_stats.self_ms": "ms",
        "pipeline.standardized_inputs.self_ms": "ms",
        "pipeline.predict_with_core.self_ms": "ms",
        "pipeline.EnsembleModel.predict.self_ms": "ms",
        "svm.train_svm.self_ms": "ms",
        "svm.train_svm.calls": "count",
        "svm.LinearSvm.decision.self_ms": "ms",
        "trace.round_ms": "ms",
        "trace.spans": "count",
    })
    return units


def layer_metrics(tracer: Tracer, rounds: int, round_ms: float,
                  failed_subjects: int) -> dict[str, float]:
    """Per-round totals (ratios as they are) for every name in ``metric_units``."""
    spans: list[Span] = tracer.spans
    selfs = self_times(spans)
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    values: dict[str, list] = {}
    errors: dict[str, list[str]] = {}
    for s, own in zip(spans, selfs):
        self_ns[s.name] = self_ns.get(s.name, 0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.value is not None:
            values.setdefault(s.name, []).append(s.value)
        if s.error is not None:
            errors.setdefault(s.name, []).append(s.error)

    member_calls = [s.id for s in spans if s.name == "pipeline.ExperimentRunner.trained_member"]
    trained_inside = {s.parent for s in spans if s.name == "pipeline.train_model"}
    hits = sum(1 for i in member_calls if i not in trained_inside)
    epochs = values.get("pipeline.train_model", [])
    run_epochs = sum(e for e, _ in epochs)

    out: dict[str, float] = {}
    for name in metric_units():
        base, _, field = name.rpartition(".")
        if field == "self_ms":
            v = self_ns.get(base, 0) / 1e6 / rounds
        elif field == "calls":
            v = (calls.get(base, 0) or tracer.counts.get(base, 0)) / rounds
        elif field in ("bytes", "params"):
            v = sum(values.get(base, [])) / rounds
        elif name == "pipeline.train_model.epochs":
            v = run_epochs / rounds
        elif name == "pipeline.train_model.useful_epoch_ratio":
            v = sum(u for _, u in epochs) / run_epochs if run_epochs else 0.0
        elif name == "pipeline.train_model.diverged":
            v = errors.get(base, []).count("TrainingDivergedError") / rounds
        elif name == "pipeline.ExperimentRunner.trained_member.hit_ratio":
            v = hits / len(member_calls) if member_calls else 0.0
        elif name == "cli.extract.failed_subjects":
            v = failed_subjects / rounds
        elif name == "trace.round_ms":
            v = round_ms
        elif name == "trace.spans":
            v = len(spans) / rounds
        else:
            raise KeyError(name)
        out[name] = v
    return out


def _layer_of(span_name: str) -> str:
    """Layer-class spans group by class; every other span is its own entry."""
    if span_name.startswith("nn.layers."):
        return span_name.rsplit(".", 1)[0]
    return span_name


def stage_checks(tracer: Tracer) -> dict:
    """Per CLI stage: traced wall time, the sum of self times inside it, and
    the largest self-time shares; plus the number of nn spans recorded."""
    spans = tracer.spans
    selfs = self_times(spans)
    stages = {}
    for stage in ("cli.extract", "cli.train", "cli.eval"):
        wall = summed = 0
        shares: dict[str, int] = {}
        for root in (s for s in spans if s.name == stage):
            wall += root.end - root.start
            for i in descendants(spans, root.id):
                summed += selfs[i]
                layer = _layer_of(spans[i].name)
                shares[layer] = shares.get(layer, 0) + selfs[i]
        if wall:
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
            stages[stage] = {"traced_wall_ms": wall / 1e6, "self_sum_ms": summed / 1e6,
                             "top_self_shares": {k: round(v / wall, 4) for k, v in top}}
    return {"stages": stages, "nn_spans": sum(s.name.startswith("nn.") for s in spans)}
