"""Tests of the benchmark's own logic (not of the program it measures).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import pytest

import probes
from cohort import CohortSpec, make_cohort
from spans import Span, Tracer, descendants, self_times
from stats import blocked_percentile, tail_percentile
from workloads import (ALL_KINDS, END_TO_END_UNITS, WORKLOADS, Clock, ExtractCohort,
                       Round, tree_digests)

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("n, pct", [
    (10, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct
    assert n * (1000 - round(pct * 10)) >= 10 * 1000 or pct == 50.0


def test_blocked_percentile_ignores_a_burst_in_one_block():
    calm = [1.0] * 990 + [2.0] * 10
    burst = [1.0] * 900 + [50.0] * 100
    assert blocked_percentile(calm + calm + burst, 99.0, 1000) == pytest.approx(1.01)
    assert blocked_percentile(calm[:500], 50.0, 1000) == 1.0  # one short block


def test_self_times_subtract_children():
    spans = [
        Span(0, None, "a", 0, 100),
        Span(1, 0, "b", 10, 30),
        Span(2, 1, "d", 12, 15),
        Span(3, 0, "c", 40, 70),
    ]
    assert self_times(spans) == [50, 17, 3, 30]
    assert sum(self_times(spans)) == 100
    assert descendants(spans, 1) == [1, 2]


def test_self_times_merge_overlapping_and_clip_children():
    spans = [
        Span(0, None, "a", 0, 100),
        Span(1, 0, "b", 10, 50),
        Span(2, 0, "c", 30, 60),  # overlaps b: covered part is 10..60
        Span(3, 0, "e", 90, 120),  # runs past its parent: clipped at 100
    ]
    assert self_times(spans)[0] == 100 - 50 - 10


def test_tracer_nests_wrapped_calls_and_sums_to_wall_time():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    inner = tracer.wrap(leaf, "leaf")

    def middle(x):
        return inner(inner(x))

    outer = tracer.wrap(middle, "middle")
    assert outer(1) == 3  # inactive: calls pass through unrecorded
    assert tracer.spans == []
    tracer.active = True
    assert outer(1) == 3
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("middle", None), ("leaf", 0), ("leaf", 0)]
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == root.end - root.start


def test_install_patches_every_lookup_site_and_uninstall_restores():
    from eegconn import cli, var_model
    from eegconn.nn import layers

    original_fit, original_forward = var_model.fit_var, layers.Conv2d.forward
    tracer = Tracer()
    probes.install(tracer)
    try:
        assert cli.fit_var is var_model.fit_var is not original_fit
        assert layers.Conv2d.forward is not original_forward
    finally:
        tracer.uninstall()
    assert cli.fit_var is var_model.fit_var is original_fit
    assert layers.Conv2d.forward is original_forward


def test_cohort_is_a_function_of_the_seed(tmp_path):
    spec = CohortSpec(per_group=2, lengths=(300, 600), channels=4)
    make_cohort(tmp_path / "a", 5, spec)
    make_cohort(tmp_path / "b", 5, spec)
    make_cohort(tmp_path / "c", 6, spec)
    a, b, c = (tree_digests(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c
    rows = (tmp_path / "a" / "sz001.csv").read_text().splitlines()
    assert len(rows) == 600 and len(rows[0].split(",")) == 4


class SmallExtract(ExtractCohort):
    cohort = CohortSpec(per_group=2, lengths=(1536,))


def test_corrupt_recording_is_a_failed_op_not_a_crash(tmp_path):
    wl = SmallExtract(seed=3)
    wl.setup(tmp_path)
    good = wl.run_round(Clock())
    assert (good.attempted, good.failed) == (4, 0)
    (tmp_path / "data" / "hc001.csv").write_text("1.0,not-a-number\n")
    bad = wl.run_round(Clock())
    assert (bad.attempted, bad.failed, bad.failed_subjects) == (4, 1, 1)
    assert not any("hc001" in k for k in bad.digests)
    assert bad.digests == {k: v for k, v in good.digests.items() if "hc001" not in k}


def test_benchmark_json_lists_what_the_runs_report():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == probes.metric_units()
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert end_to_end == {"setup_s": "s", **END_TO_END_UNITS, "peak_rss_mb": "MB"}


def test_every_workload_reports_every_end_to_end_metric():
    rounds = [Round(2, 0, 0.5, {"subjects": [4], "samples": [100], "train_s": [2.0],
                                "eval_s": [0.3, 0.4], "mod_acc_pct": [90.0],
                                "latency_s": [0.002, 0.004],
                                **{f"latency_s.{k}": [0.003] for k in ALL_KINDS}})]
    for cls in WORKLOADS.values():
        metrics = cls(seed=0).metrics(rounds)
        assert metrics.keys() == END_TO_END_UNITS.keys()
        assert all(v > 0 for v in metrics.values())
