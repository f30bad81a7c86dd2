"""Command-line front door: bound tables, model verification, positivity
scans, and Monte Carlo runs, with JSON/CSV reports and explicit seeds.

Subcommands
-----------
``lhv bounds``
    Threshold-efficiency tables over ranges of (M_A, M_B), (N, M) or
    (d, epsilon).
``lhv two-party verify``
    Build the two-party model for a scenario file and compare it against
    the eta-extended quantum distribution; optionally also check the
    sampler statistically, drawing and counting each settings block in
    chunks of at most ``quantum.CHUNK`` draws, so memory does not grow
    with ``--samples``.
``lhv multiparty solve | scan | verify``
    Exact mixture weights for one (N, M); the streaming positivity scan;
    the exact N-party model against the eta-extended quantum distribution.
``lhv dim-model verify``
    Monte Carlo run of the dimension-dependent model, also counted in
    chunks.

Conventions
-----------
One writer, ``_write_report``, writes every report and is the only code
that opens the output; the library work of a command is done before it
opens.  Reports embed the fully resolved run configuration and an ISO
timestamp; apart from the timestamp, identical configuration and seed
reproduce the report byte for byte.  JSON reports have ``json.dump``'s
``indent=2`` layout; CSV reports start with ``# key=value`` lines.
Rationals are rendered as ``num/den`` strings, floats with 15 significant
digits, and the silent outcome as ``∅``.  Scans stream one row per N,
flushed immediately: CSV rows, or newline-delimited JSON after a config
line.  Exit status: 0 on pass or completion, 1 on verification failure, 2
on usage errors (including malformed scenario files, a ``--tol`` or
``--d`` out of range, a ``--samples`` below ``verify.MIN_SAMPLES``, and
a report file that cannot be opened).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime as _dt
import itertools
import math
import secrets
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring
from types import GeneratorType
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import bounds as _bounds
from .dimension import run_dimension_model
from .errors import DomainError, LhvError, ScenarioFormatError, SizeGuardExceeded
from .multiparty import (
    MultipartyModel,
    check_scan_args,
    positivity_scan,
    solve_weights,
)
from .quantum import (
    chunk_sizes,
    extend_with_inefficiency,
    format_outcome,
    load_scenario,
    quantum_distribution,
)
from .two_party import TwoPartyModel
from .verify import MIN_SAMPLES, compare_float, statistical_match


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

#: json.dump's spelling of the non-finite floats
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _renderer(fmt: str) -> Callable[[Any], str]:
    """One report's scalar renderer: JSON text when ``fmt`` is ``"json"``,
    else a CSV cell.

    Rationals become ``num/den``, floats keep 15 significant digits (JSON
    prints the rounded float's repr, so ``100`` in CSV is ``100.0`` in
    JSON), bools are lowercase, and numpy scalars count as their Python
    values.  Each distinct float is formatted once per report, except zeros:
    0.0 and -0.0 compare and hash alike but print differently.
    """
    as_json = fmt == "json"
    memo: dict[float, str] = {}

    def render(x: Any) -> str:
        if isinstance(x, str):
            return encode_basestring(x) if as_json else x
        if isinstance(x, np.generic):
            x = x.item()
        if isinstance(x, float):
            text = memo.get(x)
            if text is None:
                text = f"{x:.15g}"
                if as_json:
                    text = repr(float(text))
                    text = _NONFINITE.get(text, text)
                if x:
                    memo[x] = text
            return text
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, Fraction):
            text = f"{x.numerator}/{x.denominator}"
        elif as_json and (x is None or isinstance(x, int)):
            return "null" if x is None else int.__repr__(x)
        else:
            text = str(x)
        return encode_basestring(text) if as_json else text

    return render


def _emit_json(
    write: Callable[[str], Any], value: Any, render: Callable[[Any], str],
    pad: str | None = "",
) -> None:
    """Write ``value`` as ``json.dump(..., ensure_ascii=False)`` lays it out:
    with ``indent=2`` when ``pad`` is the current indentation, on one line
    when ``pad`` is None.  Lists and tuples become arrays; dicts and
    generators of (key, value) pairs become objects, a generator written as
    it is consumed; every other value goes through ``render``."""
    if isinstance(value, (list, tuple)):
        items, brackets = enumerate(value), "[]"
    elif isinstance(value, (dict, GeneratorType)):
        items = value.items() if isinstance(value, dict) else value
        brackets = "{}"
    else:
        write(render(value))
        return
    inner = None if pad is None else pad + "  "
    first = sep = brackets[0] if pad is None else f"{brackets[0]}\n{inner}"
    for key, item in items:
        write(sep if brackets == "[]" else f"{sep}{encode_basestring(str(key))}: ")
        _emit_json(write, item, render, inner)
        sep = ", " if pad is None else f",\n{inner}"
    if sep is first:
        write(brackets)
    else:
        write(brackets[1] if pad is None else f"\n{pad}{brackets[1]}")


def _settings_key(settings: Sequence[int]) -> str:
    return ",".join(str(s) for s in settings)


@dataclass(frozen=True)
class RunConfig:
    """The fully resolved parameters of one CLI invocation, echoed at the
    top of every report."""

    command: str
    params: dict
    seed: int | None
    out: str | None
    fmt: str

    def to_dict(self) -> dict:
        d: dict[str, Any] = {"command": self.command}
        d.update(self.params)
        if self.seed is not None:
            d["seed"] = self.seed
        d["format"] = self.fmt
        d["out"] = self.out
        return d


def _timestamp() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def _write_report(
    config: RunConfig,
    body: dict | None,
    columns: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> None:
    """Write one report, UTF-8, to ``config.out`` or stdout: the only code
    that opens the report output.  A file that cannot be opened is a usage
    error.

    JSON is ``{"config", "timestamp", **body}``; CSV is ``# key=value``
    configuration lines, the timestamp, then ``columns`` and ``rows``.
    ``body=None`` marks a streamed report: its JSON form is newline-delimited
    (a config line, then one object per row keyed by ``columns``), and each
    row is flushed as soon as it is written.
    """
    as_csv = config.fmt == "csv"
    render = _renderer(config.fmt)
    head = {"config": config.to_dict(), "timestamp": _timestamp()}
    try:
        out = (
            contextlib.nullcontext(sys.stdout) if config.out is None
            else open(config.out, "w", encoding="utf-8", newline="")
        )
    except OSError as exc:
        raise DomainError(f"cannot write report: {exc}") from exc
    with out as fh:
        if as_csv:
            for key, value in head["config"].items():
                fh.write(f"# {key}={value}\n")
            fh.write(f"# timestamp={head['timestamp']}\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
        elif body is None:
            _emit_json(fh.write, head, render, None)
            fh.write("\n")
        else:
            _emit_json(fh.write, {**head, **body}, render)
            fh.write("\n")
            rows = ()  # a JSON report's rows are in its body
        fh.flush()
        for row in rows:
            if as_csv:
                writer.writerow([render(v) for v in row])
            else:
                _emit_json(fh.write, dict(zip(columns, row)), render, None)
                fh.write("\n")
            if body is None:
                fh.flush()
        fh.flush()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_int_range(text: str) -> list[int]:
    """"5" -> [5]; "2:6" -> [2, 3, 4, 5, 6]."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhv",
        description=(
            "Detection-efficiency thresholds and local models that "
            "reproduce quantum correlations below them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="report file (default: stdout)")
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("json", "csv"),
        default="json",
        help="report format (default json)",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed",
        type=int,
        help="64-bit RNG seed (default: fresh entropy, echoed in the report)",
    )

    p_bounds = sub.add_parser(
        "bounds", parents=[common], help="threshold-efficiency tables"
    )
    family = p_bounds.add_mutually_exclusive_group(required=True)
    family.add_argument("--two-party", action="store_true")
    family.add_argument("--multiparty", action="store_true")
    family.add_argument("--all-click", action="store_true")
    family.add_argument("--dimension", action="store_true")
    p_bounds.add_argument("--ma", type=_parse_int_range, help="M_A value or lo:hi")
    p_bounds.add_argument("--mb", type=_parse_int_range, help="M_B value or lo:hi")
    p_bounds.add_argument("--n", type=_parse_int_range, help="party count or lo:hi")
    p_bounds.add_argument("--m", type=_parse_int_range, help="settings count or lo:hi")
    p_bounds.add_argument("--d", type=_parse_int_range, help="dimension or lo:hi")
    p_bounds.add_argument(
        "--epsilon", type=_parse_float_list, help="error tolerance(s), comma separated"
    )
    p_bounds.add_argument(
        "--bound-mode",
        choices=("lower_bound", "exact_from_delta"),
        default="lower_bound",
    )

    p_two = sub.add_parser("two-party", help="two-party model commands")
    two_sub = p_two.add_subparsers(dest="subcommand", required=True)
    p_two_verify = two_sub.add_parser(
        "verify",
        parents=[common, seeded],
        help="compare the model against the eta-extended quantum table",
    )
    p_two_verify.add_argument("--scenario", required=True, help="scenario JSON file")
    p_two_verify.add_argument(
        "--samples",
        type=int,
        help=f"also draw this many samples (at least {MIN_SAMPLES}) per "
        "settings pair and test 3-sigma",
    )
    p_two_verify.add_argument(
        "--tol", type=float, default=1e-10, help="entrywise tolerance (default 1e-10)"
    )

    p_multi = sub.add_parser("multiparty", help="N-party protocol-family commands")
    multi_sub = p_multi.add_subparsers(dest="subcommand", required=True)
    p_solve = multi_sub.add_parser(
        "solve", parents=[common], help="exact mixture weights for one (N, M)"
    )
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--m", type=int, required=True)
    p_scan = multi_sub.add_parser(
        "scan", parents=[common], help="streaming positivity scan up to --n-max"
    )
    p_scan.add_argument("--n-max", type=int, required=True)
    p_scan.add_argument("--n-min", type=int, default=2)
    p_scan.add_argument(
        "--mode",
        choices=("r", "fixed"),
        default="r",
        help="r: all M at once via the recursion; fixed: weights at --m",
    )
    p_scan.add_argument("--m", type=int, help="settings count for --mode fixed")
    p_multi_verify = multi_sub.add_parser(
        "verify",
        parents=[common],
        help="compare the exact N-party model against the eta-extended table",
    )
    p_multi_verify.add_argument("--scenario", required=True)
    p_multi_verify.add_argument("--tol", type=float, default=1e-10)

    p_dim = sub.add_parser("dim-model", help="dimension-dependent model commands")
    dim_sub = p_dim.add_subparsers(dest="subcommand", required=True)
    p_dim_verify = dim_sub.add_parser(
        "verify", parents=[common, seeded], help="Monte Carlo verification run"
    )
    p_dim_verify.add_argument("--d", type=int, required=True)
    angle = p_dim_verify.add_mutually_exclusive_group(required=True)
    angle.add_argument("--delta", type=float, help="threshold angle in radians")
    angle.add_argument(
        "--epsilon", type=float, help="error tolerance; the angle is solved from it"
    )
    p_dim_verify.add_argument(
        "--samples",
        type=int,
        default=100_000,
        help=f"hidden states to draw (at least {MIN_SAMPLES}; default 100000)",
    )
    p_dim_verify.add_argument(
        "--scenario",
        help="scenario JSON supplying the two POVMs (first setting of each "
        "party); default: computational-basis projectors",
    )
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_bounds(args) -> int:
    rows: list[tuple] = []
    if args.two_party:
        if not args.ma or not args.mb:
            raise DomainError("bounds --two-party needs --ma and --mb")
        columns = ("ma", "mb", "eta")
        for ma in args.ma:
            for mb in args.mb:
                rows.append((ma, mb, _bounds.eta_two_party(ma, mb)))
        params = {"family": "two-party", "ma": args.ma, "mb": args.mb}
    elif args.multiparty:
        if not args.n or not args.m:
            raise DomainError("bounds --multiparty needs --n and --m")
        columns = ("n", "m", "eta")
        for n in args.n:
            for m in args.m:
                rows.append((n, m, _bounds.eta_multiparty(n, m)))
        params = {"family": "multiparty", "n": args.n, "m": args.m}
    elif args.all_click:
        if not args.n or not args.m:
            raise DomainError("bounds --all-click needs --n and --m")
        columns = ("n", "m", "eta")
        for n in args.n:
            for m in args.m:
                rows.append((n, m, _bounds.eta_all_click(n, m)))
        params = {"family": "all-click", "n": args.n, "m": args.m}
    else:
        if not args.d or not args.epsilon:
            raise DomainError("bounds --dimension needs --d and --epsilon")
        columns = ("d", "epsilon", "mode", "eta")
        for d in args.d:
            for eps in args.epsilon:
                rows.append(
                    (d, eps, args.bound_mode,
                     _bounds.eta_dimension(d, eps, args.bound_mode))
                )
        params = {
            "family": "dimension",
            "d": args.d,
            "epsilon": args.epsilon,
            "bound_mode": args.bound_mode,
        }
    config = RunConfig("bounds", params, None, args.out, args.fmt)
    _write_report(config, {"columns": columns, "rows": rows}, columns, rows)
    return 0


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise DomainError(f"--tol must be finite and >= 0, got {tol}")


def _check_samples(samples: int | None) -> None:
    if samples is not None and samples < MIN_SAMPLES:
        raise DomainError(
            f"--samples must be >= {MIN_SAMPLES} (the statistical check's "
            f"normal approximation), got {samples}"
        )


def _comparison_tables(model_dist, target_dist):
    """Per settings choice, in C order: the settings key, the largest
    |model - target|, and (outcomes key, model, target, |model - target|)
    for every cell, in sorted key order."""
    keys = [
        ",".join(map(format_outcome, o))
        for o in itertools.product(*model_dist.alphabets)
    ]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for choice in model_dist.settings_choices():
        model = model_dist.probs[choice].reshape(-1)
        target = target_dist.probs[choice].reshape(-1)
        errors = np.abs(model - target)
        m, t, e = model.tolist(), target.tolist(), errors.tolist()
        yield _settings_key(choice), float(errors.max()), [
            (keys[i], m[i], t[i], e[i]) for i in order
        ]


#: CSV columns of the verify reports: one row per cell of the comparison
_VERIFY_COLUMNS = ("settings", "outcomes", "model", "target", "abs_error")


def _verify_model(model, scenario, tol):
    """Compare a model's exact table with the eta-extended quantum table,
    and its all-clicks conditional with the quantum table itself.

    Returns the report entries ``comparison``, ``conditional_on_clicks``
    and ``per_setting``, the same per-setting table as rows under
    :data:`_VERIFY_COLUMNS` (both lazy), the model's table, and whether
    both checks pass.
    """
    quantum = quantum_distribution(scenario)
    target = extend_with_inefficiency(quantum, float(model.eta))
    model_dist = model.exact_distribution()
    report = compare_float(model_dist, target, tol=tol)
    cond = model_dist.all_click_conditional()
    cond_error = float(np.max(np.abs(cond - quantum.probs)))
    entries = {
        "comparison": report.to_dict(),
        "conditional_on_clicks": {
            "max_abs_error": cond_error, "pass": cond_error <= tol
        },
        "per_setting": (
            (skey, {
                "max_abs_error": worst,
                "table": (
                    (okey, {"model": m, "target": t, "abs_error": e})
                    for okey, m, t, e in cells
                ),
            })
            for skey, worst, cells in _comparison_tables(model_dist, target)
        ),
    }
    rows = (
        (skey, *cell)
        for skey, _, cells in _comparison_tables(model_dist, target)
        for cell in cells
    )
    return entries, rows, model_dist, report.passed and cond_error <= tol


def _cmd_two_party_verify(args) -> int:
    _check_tol(args.tol)
    _check_samples(args.samples)
    scenario = load_scenario(args.scenario)
    seed = args.seed
    if args.samples and seed is None:
        seed = secrets.randbits(63)
    params = {
        "scenario": args.scenario,
        "tol": args.tol,
        "samples": args.samples,
    }
    config = RunConfig("two-party verify", params, seed, args.out, args.fmt)
    model = TwoPartyModel(scenario)
    entries, rows, model_dist, passed = _verify_model(model, scenario, args.tol)
    body: dict[str, Any] = {"eta": model.eta, **entries}
    if args.samples:
        rng = np.random.default_rng(seed)
        checks = {}
        for choice in model_dist.settings_choices():
            counts: Counter = Counter()
            for c in chunk_sizes(args.samples):
                counts.update(model.tabulate(model.sample_many(choice, c, rng)))
            stat = statistical_match(counts, model_dist.block(choice))
            checks[_settings_key(choice)] = stat.to_dict()
            passed = passed and stat.passed
        body["sampling"] = {
            "samples_per_setting": args.samples,
            "checks": checks,
        }
    body["pass"] = passed
    _write_report(config, body, _VERIFY_COLUMNS, rows)
    return 0 if passed else 1


def _cmd_multiparty_solve(args) -> int:
    mixture = solve_weights(args.n, args.m)
    config = RunConfig(
        "multiparty solve", {"n": args.n, "m": args.m}, None, args.out, args.fmt
    )
    weights = {str(i): mixture.weights[i] for i in sorted(mixture.weights)}
    body = {
        "eta": mixture.eta,
        "weights": weights,
        "r_sequence": list(mixture.r_sequence),
    }
    rows = [("eta", "", mixture.eta)]
    rows += [("weight", i, w) for i, w in weights.items()]
    rows += [("r", k, v) for k, v in enumerate(mixture.r_sequence)]
    _write_report(config, body, ("kind", "index", "value"), rows)
    return 0


def _cmd_multiparty_scan(args, parser) -> int:
    mode = "all_M_via_r" if args.mode == "r" else "fixed_M"
    if mode == "fixed_M" and args.m is None:
        parser.error("multiparty scan --mode fixed needs --m")
    params = {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "mode": args.mode,
    }
    if mode == "fixed_M":
        params["m"] = args.m
    config = RunConfig("multiparty scan", params, None, args.out, args.fmt)
    # checked before the report is opened, so bad input writes nothing
    check_scan_args(args.n_max, mode=mode, m=args.m, n_min=args.n_min)
    failed = []

    def rows():
        for row in positivity_scan(args.n_max, mode=mode, m=args.m, n_min=args.n_min):
            if not row.passed:
                failed.append(row.n)
            yield row.n, row.mode, row.min_value, row.argmin_k, row.passed

    _write_report(
        config, None, ("n", "mode", "min_value", "argmin_k", "pass"), rows()
    )
    return 1 if failed else 0


def _cmd_multiparty_verify(args) -> int:
    _check_tol(args.tol)
    scenario = load_scenario(args.scenario)
    config = RunConfig(
        "multiparty verify",
        {"scenario": args.scenario, "tol": args.tol},
        None,
        args.out,
        args.fmt,
    )
    model = MultipartyModel(scenario)
    entries, rows, _, passed = _verify_model(model, scenario, args.tol)
    body = {
        "eta": model.eta,
        "n": model.n,
        "m": model.m,
        "weights": {
            str(i): model.mixture.weights[i] for i in sorted(model.mixture.weights)
        },
        **entries,
        "pass": passed,
    }
    _write_report(config, body, _VERIFY_COLUMNS, rows)
    return 0 if passed else 1


def _cmd_dim_model_verify(args) -> int:
    if args.d < 2:
        raise DomainError(f"need dimension >= 2, got {args.d}")
    _check_samples(args.samples)
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    if args.delta is not None:
        delta = args.delta
    else:
        delta = _bounds.solve_threshold_angle(args.d, args.epsilon)
    if args.scenario:
        scenario = load_scenario(args.scenario)
        if scenario.n_parties != 2:
            raise ScenarioFormatError(
                "dim-model needs a two-party scenario for its POVMs"
            )
        if scenario.state.dims != (args.d, args.d):
            raise ScenarioFormatError(
                f"scenario dimensions {scenario.state.dims} do not match "
                f"--d {args.d}"
            )
        x_povm = scenario.settings[0][0]
        y_povm = scenario.settings[1][0]
    else:
        from .presets import computational_povm

        x_povm = y_povm = computational_povm(args.d)
    params = {
        "d": args.d,
        "delta": delta,
        "samples": args.samples,
        "scenario": args.scenario,
    }
    config = RunConfig("dim-model verify", params, seed, args.out, args.fmt)
    report = run_dimension_model(
        args.d, delta, x_povm, y_povm, args.samples, np.random.default_rng(seed)
    )
    rows = (
        (str(c.outcome_a), str(c.outcome_b), c.empirical, c.target, c.bound,
         c.sigma, c.passed)
        for c in report.cells
    )
    _write_report(
        config,
        report.to_dict(),
        ("a", "b", "empirical", "target", "bound", "sigma", "pass"),
        rows,
    )
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "two-party":
            return _cmd_two_party_verify(args)
        if args.command == "multiparty":
            if args.subcommand == "solve":
                return _cmd_multiparty_solve(args)
            if args.subcommand == "scan":
                return _cmd_multiparty_scan(args, parser)
            return _cmd_multiparty_verify(args)
        if args.command == "dim-model":
            return _cmd_dim_model_verify(args)
    except ScenarioFormatError as exc:
        print(f"lhv: malformed scenario: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SizeGuardExceeded) as exc:
        print(f"lhv: {exc}", file=sys.stderr)
        return 2
    except LhvError as exc:
        print(f"lhv: verification could not complete: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
