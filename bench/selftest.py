"""Self-test of the benchmark harness on tiny inputs.

Usage: ``python3 bench/selftest.py``

Runs the same code path as ``run.py`` on every workload at tiny sizes
(scan to N=10, GHZ-3, a 2x2-setting two-outcome scenario with 10^3 draws
per block, dim-model at d=2), untraced and traced, and checks that:

* every report passes its correctness check;
* every metric of ``BENCHMARK.json`` appears with its unit and a finite
  value, and every end-to-end value is positive;
* the spans of each traced invocation nest: one root (``cli.main``), each
  child inside its parent, siblings disjoint, and the root span (the
  top-level spans plus ``cli.main``'s self time) accounts for the
  invocation's wall time;
* every traced layer is reached by at least one workload;
* in a directory holding only ``BENCHMARK.json`` and ``bench/``, the
  benchmark exits non-zero without printing a result.

Exits 0 when all of them hold, 1 otherwise.  Takes about half a minute.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys

import run
from workloads import TINY

#: Per-layer metrics that may stay 0 on every tiny workload.
MAY_BE_ZERO = {"verify.statistical_match.rejects", "stat_reject_ratio", "trace.overhead_s"}


def span_errors(spans: list[dict], wall_s: float) -> list[str]:
    """Ways in which one invocation's spans fail to nest."""
    errors = []
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    if [s["name"] for s in roots] != ["cli.main"]:
        return [f"roots {[s['name'] for s in roots]}, expected one cli.main"]
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["end"] < s["start"]:
            errors.append(f"{s['name']} ends before it starts")
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            errors.append(f"{s['name']} outside its parent {parent['name']}")
        children.setdefault(s["parent"], []).append(s)
    for sibs in children.values():
        sibs.sort(key=lambda s: s["start"])
        for a, b in zip(sibs, sibs[1:]):
            if b["start"] < a["end"]:
                errors.append(f"siblings {a['name']} and {b['name']} overlap")
    # top-level spans + cli.main's self time = the root span, timed inside
    # the wrapper; wall_s is timed around it
    share = (roots[0]["end"] - roots[0]["start"]) / wall_s
    if abs(share - 1.0) > 0.01:
        errors.append(f"cli.main's span covers {share:.4f} of wall_s")
    return errors


def check_metrics(result: dict, group: list[dict], positive: bool) -> list[str]:
    errors = []
    got = result["metrics"]
    if list(got) != [m["name"] for m in group]:
        errors.append(f"metric names {sorted(got)} differ from BENCHMARK.json")
    for m in group:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry["unit"] != m["unit"]:
            errors.append(f"{m['name']}: unit {entry['unit']!r}, expected {m['unit']!r}")
        value = entry["value"]
        if not math.isfinite(value) or (positive and value <= 0):
            errors.append(f"{m['name']}: value {value}")
    return errors


def bare_directory_errors() -> list[str]:
    """The benchmark must refuse to run without the program's sources."""
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.CHILD.parent.glob("*.py"):
            shutil.copy(path, bare / "bench")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        run.remove_workdir(bare)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"without src/ the benchmark exited {proc.returncode} with {lines[-1:]}"]
    return []


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = run.load_spec()
    errors: list[str] = []
    reached: set[str] = set()
    for name, make in TINY.items():
        for trace in (False, True):
            out = run.measure(name, 1, 0.5, trace, make())
            result = out["result"]
            label = f"{name} trace={int(trace)}"
            print(f"{label}: {result['attempted']} invocations, {result['failed']} failed")
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: {out['run']['errors']}")
            group = spec["per_layer" if trace else "end_to_end"]
            errors += [f"{label}: {e}" for e in check_metrics(result, group, not trace)]
            if trace:
                reached |= {m for m, v in result["metrics"].items() if v["value"] != 0}
                for inv in out["run"]["invocations"]:
                    if inv["traced"]:
                        errors += [f"{label}: {e}" for e in span_errors(inv["spans"], inv["wall_s"])]
    unreached = {m["name"] for m in spec["per_layer"]} - reached - MAY_BE_ZERO
    errors += [f"no workload reached {m}" for m in sorted(unreached)]
    errors += bare_directory_errors()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
