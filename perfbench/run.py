#!/usr/bin/env python3
"""Run one benchmark workload with one seed and print its metrics.

    python3 perfbench/run.py --workload train_cv --seed 1 --seconds 10 --trace 0

Run it from the root of a copy of the repository; the program is imported
from ``src/`` in that copy.  Workloads: extract_cohort, train_cv,
predict_single (see workloads.py).  The inputs are generated from
``--seed``; set-up runs three times and ``setup_s`` is the median.  Rounds
of the workload then repeat until ``--seconds`` have passed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end figures every workload reports (setup_s,
items_per_s, call_p50_ms, call_tail_ms, peak_rss_mb); with ``--trace 1`` they
are the per-layer figures of a traced run (see probes.py).  The line before
it holds the environment, artifact digests and sample counts.  Every run
also writes that detail, and a traced run its spans, under
``.perfbench/results``; scratch files go to ``.perfbench/work`` and are
removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3


# One BLAS thread: with two on a two-core machine that other work shares,
# a descheduled helper thread stalls every GEMM and timings scatter.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(threads: int) -> dict:
    from importlib import metadata

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
    }


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def cross_run_check(results: Path, name: str, seed: int, env: dict,
                    digests: dict[str, str]) -> str:
    """Compare artifact digests with an earlier run of the same source, seed
    and BLAS thread count (fusion_feature weights differ between 1 and 2).

    Returns "first", "match" or "mismatch".  Traced and untraced runs share
    the record, so the check also shows that tracing changes no output.
    """
    record = results / (f"digests-{name}-seed{seed}-{env['src_sha256'][:16]}"
                        f"-blas{env['blas_threads']}.json")
    if not record.exists():
        record.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        return "first"
    return "match" if json.loads(record.read_text()) == digests else "mismatch"


def measure(workload, work: Path, seconds: float, tracer) -> dict:
    """Set up, warm up and run rounds; returns the raw material of the report."""
    from workloads import Clock

    setup_s, setup_digests = [], []
    for i in range(SETUP_REPEATS):
        if i:
            shutil.rmtree(work / f"setup{i - 1}", ignore_errors=True)
        start = time.perf_counter()
        digests = workload.setup(work / f"setup{i}")
        setup_s.append(time.perf_counter() - start)
        setup_digests.append(digests)
    workload.warmup()

    clock = Clock(tracer)
    rounds = []
    if tracer is not None:
        import probes

        probes.install(tracer)
    try:
        start = time.perf_counter()
        while True:  # at least one round; no round that would end past ``seconds``
            began = time.perf_counter()
            rounds.append(workload.run_round(clock))
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"setup_s": setup_s, "setup_digests": setup_digests, "rounds": rounds}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eegconn").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = BLAS_THREADS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)  # before numpy loads OpenBLAS
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    from stats import median
    from workloads import END_TO_END_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    try:
        raw = measure(workload, work, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = raw["rounds"]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    setup_same = all(d == raw["setup_digests"][0] for d in raw["setup_digests"])
    rounds_same = all(r.digests == rounds[0].digests for r in rounds)
    digests = {**raw["setup_digests"][0], **rounds[0].digests}
    env = environment(threads)
    cross = cross_run_check(results, workload.name, args.seed, env, digests)
    correct = failed == 0 and setup_same and rounds_same and cross != "mismatch"

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if tracer is None:
        metrics = {"setup_s": (median(raw["setup_s"]), "s"),
                   **{k: (v, END_TO_END_UNITS[k])
                      for k, v in workload.metrics(rounds).items()},
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    else:
        import probes

        units = probes.metric_units()
        values = probes.layer_metrics(
            tracer, len(rounds), 1000.0 * median([r.timed_s for r in rounds]),
            sum(r.failed_subjects for r in rounds))
        metrics = {k: (values[k], units[k]) for k in units}
        tracer.dump(results / f"spans-{tag}.jsonl")

    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds),
        "round_timed_s": [r.timed_s for r in rounds], "setup_s_each": raw["setup_s"],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "digest": combined_digest(digests), "artifacts": len(digests),
        "digests_stable_in_run": setup_same and rounds_same, "digests_across_runs": cross,
        **workload.detail(rounds),
        **(probes.stage_checks(tracer) if tracer is not None else {}),
        "env": env,
    }
    (results / f"run-{tag}.json").write_text(json.dumps(
        {**detail, "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
