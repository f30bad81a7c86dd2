"""One ``lhv`` invocation in a fresh interpreter, optionally traced.

Usage: ``python3 child.py SPEC.json RESULT.json``

SPEC holds ``src`` (the directory holding the ``lhvmodels`` package),
``scenario`` (a scenario file to load during set-up, or null), ``argv``
(the ``lhv`` arguments, or null for a set-up-only run), ``trace`` and
``r_check`` (the N whose exact ``recursion_r`` values are digested after
the call, or null).
RESULT receives the set-up time (importing ``lhvmodels.cli`` and loading
the scenario, in an interpreter holding only the few standard modules this
script needs), the wall time and exit status of ``lhvmodels.cli.main``,
the peak RSS of this process, the ``r_check`` digest and, when traced, the
spans recorded in memory during the call.

Tracing wraps the public callables named in :data:`TARGETS` from outside:
the attribute is replaced on its defining module and on every
``lhvmodels`` module that imported the name, so nothing under ``src/``
changes.  Each wrapped call records a span (name, start, end, parent id)
with the counts its entry names.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._open.pop()


def _max_bits(result, args, kwargs):
    return {"max_bits": max(abs(v.numerator).bit_length() for v in result)}


def _cells_of_result(result, args, kwargs):
    return {"cells": len(result.table)}


def _cells_of_first_arg(result, args, kwargs):
    return {"cells": len(args[0].table)}


def _rejects(result, args, kwargs):
    return {"rejects": int(not result.passed)}


def _draws_of_result(result, args, kwargs):
    return {"draws": len(result)}


def _dimension_counts(result, args, kwargs):
    return {"draws": result.n_samples, "fired": result.n_fired}


#: (module, qualified name, span name, counts taken from the call).
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("multiparty", "positivity_scan", "multiparty.positivity_scan", None),
    ("multiparty", "recursion_r", "multiparty.recursion_r", _max_bits),
    ("multiparty", "solve_weights", "multiparty.solve_weights", None),
    ("quantum", "quantum_distribution", "quantum.quantum_distribution", _cells_of_result),
    ("quantum", "extend_with_inefficiency", "quantum.extend_with_inefficiency", None),
    ("quantum", "subset_joint_table", "quantum.subset_joint_table", None),
    ("quantum", "joint_outcome_table", "quantum.joint_outcome_table", None),
    ("quantum", "OutcomeDistribution.block", "quantum.OutcomeDistribution.block", None),
    ("quantum", "OutcomeDistribution.__init__", "quantum.OutcomeDistribution.init", None),
    ("quantum", "load_scenario", "quantum.load_scenario", None),
    ("multiparty", "MultipartyModel.__init__", "multiparty.MultipartyModel.init", None),
    (
        "multiparty",
        "MultipartyModel.exact_distribution",
        "multiparty.MultipartyModel.exact_distribution",
        None,
    ),
    ("two_party", "TwoPartyModel.__init__", "two_party.TwoPartyModel.init", None),
    (
        "two_party",
        "TwoPartyModel.exact_distribution",
        "two_party.TwoPartyModel.exact_distribution",
        None,
    ),
    ("two_party", "TwoPartyModel.sample_many", "two_party.TwoPartyModel.sample_many", _draws_of_result),
    ("two_party", "TwoPartyModel.tabulate", "two_party.TwoPartyModel.tabulate", None),
    ("verify", "compare_float", "verify.compare_float", _cells_of_first_arg),
    ("verify", "statistical_match", "verify.statistical_match", _rejects),
    ("dimension", "run_dimension_model", "dimension.run_dimension_model", _dimension_counts),
    ("quantum", "haar_random_state", "quantum.haar_random_state", None),
    ("quantum", "refine_to_rank_one", "quantum.refine_to_rank_one", None),
]


def _wrap(fn, name: str, counts, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if counts is not None:
            span["counts"] = counts(result, args, kwargs)
        return result

    return traced


def _wrap_generator(fn, name: str, tracer: Tracer):
    """Time the work inside each ``next()``: a generator does none of its
    work when called."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)

        def steps():
            while True:
                span = tracer.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                span["counts"] = {"rows": 1}
                yield item

        return steps()

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target on its defining module and on its importers."""
    # imported only now, after set-up is timed, so that they preload
    # nothing the package would otherwise import itself
    import importlib
    import inspect

    modules = [m for n, m in sys.modules.items() if n == "lhvmodels" or n.startswith("lhvmodels.")]
    for module_name, qualname, name, counts in TARGETS:
        module = importlib.import_module(f"lhvmodels.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        if inspect.isgeneratorfunction(original):
            wrapped = _wrap_generator(original, name, tracer)
        else:
            wrapped = _wrap(original, name, counts, tracer)
        setattr(owner, attr, wrapped)
        if owner_name:
            continue  # a method: the class object is shared by every importer
        for other in modules:
            if getattr(other, attr, None) is original:
                setattr(other, attr, wrapped)


def r_check(recursion_r, ns) -> dict:
    """sha256 over the exact r_0..r_N of each N in ``ns``, and each N's
    minimum as ``[numerator/denominator, argmin]``.  Run after the timed
    call, so that the values are checked whatever path the scan took."""
    digest = hashlib.sha256()
    minima = {}
    for n in ns:
        r = recursion_r(n)
        text = [f"{v.numerator}/{v.denominator}" for v in r]
        digest.update(f"{n}:{','.join(text)}\n".encode())
        k = min(range(len(r)), key=r.__getitem__)
        minima[str(n)] = [text[k], k]
    return {"digest": digest.hexdigest(), "minima": minima}


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MiB.  Not
    ``ru_maxrss``: exec carries the parent's peak into it, so a child of a
    large parent would report the parent's memory."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def _run(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import lhvmodels.cli as cli
    from lhvmodels.quantum import load_scenario

    if spec["scenario"]:
        load_scenario(spec["scenario"])
    setup_s = perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lhvmodels imported from {cli.__file__}, not from {src}")
    result: dict = {"setup_s": setup_s}
    if spec["argv"] is None:
        return result
    recursion_r = sys.modules["lhvmodels.multiparty"].recursion_r  # unwrapped
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        install(tracer)
    error = ""
    t1 = perf_counter()
    try:
        rc = cli.main(spec["argv"])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception:  # any other raise is a failed operation
        rc = None
        error = traceback.format_exc()
    result["wall_s"] = perf_counter() - t1
    result["rc"] = rc
    result["error"] = error
    result["peak_rss_mb"] = peak_rss_mb()
    if spec["r_check"]:
        result["r_check"] = r_check(recursion_r, spec["r_check"])
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = _run(spec)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
