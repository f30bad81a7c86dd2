"""Benchmark of the ``lhv`` command line, end to end and layer by layer.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` as a closed loop with one client: one
``lhvmodels.cli.main`` invocation at a time, each in a fresh child
interpreter (``child.py``) with ``--out`` pointing at a temporary file, so
that the peak RSS belongs to that workload alone.  Invocations start while
the expected end stays within ``--seconds``; every report is checked.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` untraced and traced invocations
alternate and the result holds its per-layer metrics, taken from the
traced ones.  The last line of standard output is the JSON result; the
lines before it record the environment and every metric with its unit.
Inputs come from ``--seed`` alone.  Temporary files live in
``.bench_work/`` at the root of the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")
WORK = ROOT / ".bench_work"
#: Set-up samples per end-to-end run; set-up-only children add to those
#: the invocations give.
SETUP_SAMPLES = 11
#: No single invocation may take longer than this.
CHILD_TIMEOUT_S = 150
#: BLAS and OpenMP threads per child: one client on a shared 2-core host.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Child environment besides the BLAS cap.  numpy asks the kernel for huge
#: pages on large arrays, and whether it gets them depends on the host's
#: free memory at the time, which would move peak RSS from call to call.
CHILD_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}


def remove_workdir(path: Path) -> None:
    """Remove one run's directory, and ``WORK`` once no run uses it."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run is still using it
        pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment(workload: str, seed: int) -> dict:
    """What decides the numbers besides the code: versions, arithmetic
    backend, cores, thread cap, code identity and inputs."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lhvmodels").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "child_env": CHILD_ENV,
    }


class Runner:
    """Starts child interpreters and collects their results."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0
        self.env = dict(os.environ)
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
        self.env.update(CHILD_ENV)
        self.env.pop("PYTHONPATH", None)

    def child(self, scenario, argv, trace: bool, r_check=None) -> dict:
        """One child: set-up only when ``argv`` is None, else one
        invocation whose report goes to ``result["out"]``, followed by the
        ``r_check`` digest when given.  A child that dies or times out
        gives ``rc`` None and its ``error``."""
        self.count += 1
        stem = self.workdir / f"child-{self.count}"
        out = Path(f"{stem}.out")
        spec = {
            "src": str(SRC),
            "scenario": scenario,
            "argv": None if argv is None else [*argv, "--out", str(out)],
            "trace": trace,
            "r_check": r_check,
        }
        spec_path, result_path = Path(f"{stem}.spec.json"), Path(f"{stem}.result.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        failed = {"rc": None, "out": out, "traced": trace}
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec_path), str(result_path)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {**failed, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        if proc.returncode != 0:
            return {**failed, "error": proc.stderr[-2000:] or f"exit {proc.returncode}"}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        return {**result, "out": out, "traced": trace}

    def setup(self, scenario) -> float:
        result = self.child(scenario, None, False)
        if "setup_s" not in result:
            raise RuntimeError(f"set-up failed: {result['error']}")
        return result["setup_s"]


def _check(workload, res: dict) -> tuple[str, object]:
    """The error of one invocation ("" if none) and the report's check."""
    if res.get("error"):
        return res["error"], None
    try:
        check = workload.check(res)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable report: {exc!r}", None
    res["report_bytes"] = res["out"].stat().st_size if res["out"].exists() else 0
    return check.error, check


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run ``workload`` for ``seconds``: invocations, set-up samples,
    failures and statistical rejections."""
    runner = Runner(workdir)
    workload.prepare(seed, workdir)
    runner.setup(workload.scenario)  # compiles bytecode; untimed
    invocations, setups, errors, durations = [], [], [], []
    stat_checks = stat_rejects = 0
    start = perf_counter()
    while True:
        # set-up samples spread over the window, so no single slow phase
        # of a shared host holds all of them
        due = min(1.0, (perf_counter() - start) / seconds) * SETUP_SAMPLES
        while not trace and len(setups) < due:
            setups.append(runner.setup(workload.scenario))
        i = len(invocations)
        t = perf_counter()
        res = runner.child(
            workload.scenario, workload.argv(i), trace and i % 2 == 1, workload.r_check
        )
        error, check = _check(workload, res)
        res["out"].unlink(missing_ok=True)
        if error:
            errors.append(f"invocation {i}: {error}")
        if check is not None:
            stat_checks += check.stat_checks
            stat_rejects += check.stat_rejects
        if "setup_s" in res:
            setups.append(res["setup_s"])
        invocations.append(res)
        durations.append(perf_counter() - t)
        elapsed = perf_counter() - start
        if len(invocations) >= (2 if trace else 1) and (
            elapsed + statistics.median(durations) > seconds
        ):
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup(workload.scenario))
    return {
        "invocations": invocations,
        "setup_s": setups,
        "errors": errors,
        "stat_checks": stat_checks,
        "stat_rejects": stat_rejects,
        "elapsed_s": perf_counter() - start,
    }


def tail_percentile(values: list[float]):
    """The highest whole percentile with at least ten samples above it
    (nearest rank), as ``(p, value)``, or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)  # ceil(p n / 100), 1-based
    return p, sorted(values)[rank - 1]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its children cover (children of
    one span never overlap: the program is single-threaded)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_values(spans: list[dict]) -> dict[str, float]:
    """Per span name: ``busy_s``/``self_s`` (self time), ``calls`` and the
    summed counts (``max_bits`` is a maximum)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + own[s["id"]]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in s["counts"].items():
            metric = f"{name}.{key}"
            if key == "max_bits":
                out[metric] = max(out.get(metric, 0), value)
            else:
                out[metric] = out.get(metric, 0) + value
    out["cli.main.self_s"] = out.get("cli.main.busy_s", 0.0)
    return out


def coverage(spans: list[dict], wall_s: float) -> float:
    """The share of the invocation's wall time that the wrapped layers
    cover: the top-level spans under ``cli.main``, without its self time."""
    root = next(s for s in spans if s["parent"] is None)
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    return top / wall_s


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(run: dict, workload) -> dict[str, float]:
    walls = [r["wall_s"] for r in run["invocations"] if "wall_s" in r and not r["traced"]]
    if not walls:
        raise RuntimeError("no invocation ran to completion")
    wall = median(walls)
    return {
        "wall_s": wall,
        "throughput": workload.work / wall,
        "setup_s": median(run["setup_s"]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in run["invocations"] if "peak_rss_mb" in r]),
    }


def per_layer(run: dict, names: list[str]) -> dict[str, float]:
    traced = [r for r in run["invocations"] if r["traced"] and "spans" in r]
    untraced = [r for r in run["invocations"] if not r["traced"] and "wall_s" in r]
    rows = []
    for r in traced:
        row = layer_values(r["spans"])
        row["cli.report_bytes"] = r.get("report_bytes", 0)
        row["trace.coverage"] = coverage(r["spans"], r["wall_s"])
        rows.append(row)
    out = {name: median([row.get(name, 0) for row in rows]) for name in names}
    out["trace.overhead_s"] = traced_wall(run) - median(
        [r["wall_s"] for r in untraced]
    )
    checks = run["stat_checks"]
    out["stat_reject_ratio"] = run["stat_rejects"] / checks if checks else 0.0
    return out


def traced_wall(run: dict) -> float:
    return median([r["wall_s"] for r in run["invocations"] if r["traced"] and "wall_s" in r])


def layer_shares(run: dict, metrics: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced wall time."""
    wall = traced_wall(run)
    return {
        name: value / wall
        for name, value in metrics.items()
        if name.endswith((".busy_s", ".self_s")) and value > 0
    }


def describe(run: dict, workload, metrics: dict, units: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric with its unit, and context."""
    n = len(run["invocations"])
    lines = [
        f"{workload.name}: {n} invocations in {run['elapsed_s']:.1f} s, closed loop, "
        f"1 client; isolates {workload.layer}"
    ]
    for name, value in metrics.items():
        lines.append(f"  {name:48s} {value:.6g} {units[name]}")
    if trace:
        lines.append(f"  traced wall_s {traced_wall(run):.6g} s; share of it per layer (self time):")
        for name, share in layer_shares(run, metrics).items():
            lines.append(f"    {name:46s} {share:7.1%}")
    else:
        walls = [r["wall_s"] for r in run["invocations"] if "wall_s" in r]
        tail = tail_percentile(walls)
        tail_text = f"p{tail[0]} {tail[1]:.6g} s" if tail else "no tail percentile below 11 samples"
        lines.append(f"  wall_s median of {len(walls)} samples; {tail_text}")
        lines.append(f"  throughput unit: {workload.work_unit}/s, {workload.work} per invocation")
        lines.append(f"  setup_s median of {len(run['setup_s'])} samples")
    failed = len(run["errors"])
    lines.append(f"  fail_ratio {failed}/{n} = {failed / n:.6g}")
    checks, rejects = run["stat_checks"], run["stat_rejects"]
    ratio = f"{rejects}/{checks} = {rejects / checks:.6g}" if checks else "n/a (no statistical checks)"
    lines.append(f"  stat_reject_ratio {ratio}")
    lines.extend(f"  FAILED {e}" for e in run["errors"])
    return lines


def measure(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """Run one workload and return its environment, raw run and metrics."""
    spec = load_spec()
    group = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    workload = workload or WORKLOADS[name]()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(name, seed)
        run = run_workload(workload, seed, seconds, trace, workdir)
    finally:
        remove_workdir(workdir)
    if trace:
        values = per_layer(run, list(units))
    else:
        values = end_to_end(run, workload)
    metrics = {m: values[m] for m in units}
    return {
        "env": env,
        "run": run,
        "metrics": metrics,
        "units": units,
        "lines": describe(run, workload, metrics, units, trace),
        "result": {
            "correct": not run["errors"],
            "attempted": len(run["invocations"]),
            "failed": len(run["errors"]),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and waited for, and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "lhvmodels" / "__init__.py").is_file():
        print(f"bench: no lhvmodels package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(out["env"]))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
