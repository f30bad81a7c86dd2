"""Baseline of every workload: end-to-end medians over seeds, layer shares.

Usage: ``python3 bench/report.py [--out FILE]``

Runs each workload of ``workloads.py`` untraced once per seed of
:data:`SEEDS` and traced once, each for ``run_seconds`` of
``BENCHMARK.json``, and prints every run's metrics with their units.
Records per workload, per end-to-end metric, the median over the seeds,
the spread (distance between the quartiles over the median) and the values
themselves; the summed sample, failure and statistical-rejection counts;
and the traced run's per-layer metrics with each layer's self time as a
share of the traced wall time.  With ``--out`` the record is written as
JSON.  Takes about half a minute per workload and seed, 20-25 min in all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

SEEDS = range(1, 11)


def record(name: str, seconds: float) -> dict:
    plain = []
    for seed in SEEDS:
        out = run.measure(name, seed, seconds, False)
        print(f"seed {seed}")
        print("\n".join(out["lines"]))
        plain.append(out)
    traced = run.measure(name, SEEDS[0], seconds, True)
    print("\n".join(traced["lines"]))
    end_to_end = {}
    for metric, unit in plain[0]["units"].items():
        values = [out["metrics"][metric] for out in plain]
        q1, _, q3 = statistics.quantiles(values, n=4)
        end_to_end[metric] = {
            "median": statistics.median(values),
            "spread": (q3 - q1) / statistics.median(values),
            "unit": unit,
            "values": values,
        }
    runs = [out["run"] for out in plain]
    return {
        "throughput_unit": f"{WORKLOADS[name]().work_unit}/s",
        "end_to_end": end_to_end,
        "invocations": [len(r["invocations"]) for r in runs],
        "setup_samples": [len(r["setup_s"]) for r in runs],
        "failed": sum(len(r["errors"]) for r in runs + [traced["run"]]),
        "stat_checks": sum(r["stat_checks"] for r in runs),
        "stat_rejects": sum(r["stat_rejects"] for r in runs),
        "per_layer": traced["result"]["metrics"],
        "layer_shares": run.layer_shares(traced["run"], traced["metrics"]),
        "env": plain[0]["env"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    seconds = run.load_spec()["run_seconds"]
    result = {"seeds": list(SEEDS), "run_seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        result["workloads"][name] = record(name, seconds)
    if args.out:
        args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 1 if any(w["failed"] for w in result["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
