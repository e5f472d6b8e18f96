#!/usr/bin/env python3
"""Medians and quartiles per workload and metric from saved run records.

    python3 perfbench/summarize.py                # print the summary
    python3 perfbench/summarize.py --update perfbench/baseline.json

Reads the ``run-*.json`` records that run.py leaves in ``.perfbench/results``
for the current ``src/`` tree.  Untraced runs give each end-to-end metric's
median, quartiles and spread (quartile distance over median); traced runs
of the same workload give the tracing overhead, as traced minus untraced
wall time of the measured region per round, and each CLI stage's largest
self-time shares.  ``--update`` writes both into
the ``baseline`` and ``tracing_overhead`` keys of the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from run import ROOT, src_digest


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "runs": len(values)}


def summarize(results: Path) -> dict:
    src = src_digest()
    records = [json.loads(p.read_text()) for p in sorted(results.glob("run-*.json"))]
    records = [r for r in records if r["env"]["src_sha256"] == src]
    baseline: dict[str, dict] = {}
    overhead: dict[str, dict] = {}
    for name in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == name and not r["trace"]]
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        if plain:
            metrics = {m: _quartiles([r["metrics"][m] for r in plain]) for m in plain[0]["metrics"]}
            baseline[name] = {"seeds": sorted(r["seed"] for r in plain), "metrics": metrics,
                              "env": plain[0]["env"]}
        if plain and traced:
            def round_ms(runs):
                return statistics.median(1000 * statistics.median(r["round_timed_s"])
                                         for r in runs)

            base, with_trace = round_ms(plain), round_ms(traced)
            overhead[name] = {"untraced_round_ms": base, "traced_round_ms": with_trace,
                              "overhead_ms": with_trace - base,
                              "overhead_pct": 100 * (with_trace - base) / base,
                              "traced_runs": len(traced), "untraced_runs": len(plain),
                              "stages": [r["stages"] for r in traced]}
    return {"baseline": baseline, "tracing_overhead": overhead}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", type=Path, help="JSON file whose summary keys to replace")
    args = parser.parse_args()
    summary = summarize(ROOT / ".perfbench" / "results")
    if args.update:
        doc = json.loads(args.update.read_text())
        doc.update(summary)
        args.update.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
