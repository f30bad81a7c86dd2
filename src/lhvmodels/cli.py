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
    sampler statistically.
``lhv multiparty solve | scan | verify``
    Exact mixture weights for one (N, M); the streaming positivity scan;
    the exact N-party model against the eta-extended quantum distribution.
``lhv dim-model verify``
    Monte Carlo run of the dimension-dependent model.

Conventions
-----------
Reports embed the fully resolved run configuration and an ISO timestamp;
apart from the timestamp, identical configuration and seed reproduce the
report byte for byte.  Rationals are rendered as ``num/den`` strings,
floats with 15 significant digits, and the silent outcome as ``∅``.  Long
scans stream one row per N, flushed immediately.  Exit status: 0 on pass
or completion, 1 on verification failure, 2 on usage errors (including
malformed scenario files).
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import itertools
import json
import secrets
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

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
    extend_with_inefficiency,
    format_outcome,
    load_scenario,
    quantum_distribution,
)
from .two_party import TwoPartyModel
from .verify import compare_float, statistical_match


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return f"{float(x):.15g}"


def _fmt_frac(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _jsonable(obj: Any) -> Any:
    """Round floats to 15 significant digits, stringify rationals and
    outcome labels, recursively; numpy scalars count as their Python
    values."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return _fmt_frac(obj)
    if isinstance(obj, float):
        return float(_fmt_float(obj))
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _settings_key(settings: Sequence[int]) -> str:
    return ",".join(str(s) for s in settings)


def _outcomes_key(outcomes: Sequence[Any]) -> str:
    return ",".join(format_outcome(o) for o in outcomes)


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


class _Output:
    """Writable report destination (file path or stdout), UTF-8."""

    def __init__(self, path: str | None):
        self.path = path

    def __enter__(self):
        if self.path is None:
            self._fh = sys.stdout
            self._close = False
        else:
            self._fh = open(self.path, "w", encoding="utf-8", newline="")
            self._close = True
        return self._fh

    def __exit__(self, *exc):
        if self._close:
            self._fh.close()
        else:
            self._fh.flush()


def _write_json_report(config: RunConfig, body: dict) -> None:
    report = {"config": config.to_dict(), "timestamp": _timestamp()}
    report.update(body)
    with _Output(config.out) as fh:
        json.dump(_jsonable(report), fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def _write_csv_report(
    config: RunConfig, header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    with _Output(config.out) as fh:
        for key, value in config.to_dict().items():
            fh.write(f"# {key}={value}\n")
        fh.write(f"# timestamp={_timestamp()}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


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
        help="also draw this many samples per settings pair and test 3-sigma",
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
    p_dim_verify.add_argument("--samples", type=int, default=100_000)
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
        header = ("ma", "mb", "eta")
        for ma in args.ma:
            for mb in args.mb:
                rows.append((ma, mb, _bounds.eta_two_party(ma, mb)))
        params = {"family": "two-party", "ma": args.ma, "mb": args.mb}
    elif args.multiparty:
        if not args.n or not args.m:
            raise DomainError("bounds --multiparty needs --n and --m")
        header = ("n", "m", "eta")
        for n in args.n:
            for m in args.m:
                rows.append((n, m, _bounds.eta_multiparty(n, m)))
        params = {"family": "multiparty", "n": args.n, "m": args.m}
    elif args.all_click:
        if not args.n or not args.m:
            raise DomainError("bounds --all-click needs --n and --m")
        header = ("n", "m", "eta")
        for n in args.n:
            for m in args.m:
                rows.append((n, m, _bounds.eta_all_click(n, m)))
        params = {"family": "all-click", "n": args.n, "m": args.m}
    else:
        if not args.d or not args.epsilon:
            raise DomainError("bounds --dimension needs --d and --epsilon")
        header = ("d", "epsilon", "mode", "eta")
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
    if args.fmt == "json":
        body = {"columns": list(header), "rows": [list(r) for r in rows]}
        _write_json_report(config, body)
    else:
        _write_csv_report(
            config,
            header,
            (tuple(_cell(v) for v in row) for row in rows),
        )
    return 0


def _cell(v: Any) -> str:
    if isinstance(v, Fraction):
        return _fmt_frac(v)
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _comparison_tables(model_dist, target_dist, tol):
    """Entrywise comparison plus a per-settings breakdown table."""
    report = compare_float(model_dist, target_dist, tol=tol)
    keys = [_outcomes_key(o) for o in itertools.product(*model_dist.alphabets)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    per_setting: dict[str, Any] = {}
    for choice in model_dist.settings_choices():
        model = model_dist.probs[choice].reshape(-1)
        target = target_dist.probs[choice].reshape(-1)
        errors = np.abs(model - target)
        m, t, e = model.tolist(), target.tolist(), errors.tolist()
        per_setting[_settings_key(choice)] = {
            "max_abs_error": float(errors.max()),
            "table": {
                keys[i]: {"model": m[i], "target": t[i], "abs_error": e[i]}
                for i in order
            },
        }
    return report, per_setting


def _conditional_check(model_dist, quantum_dist, tol):
    """Conditional-on-all-clicks distribution against the quantum joint."""
    cond = model_dist.all_click_conditional()
    worst = float(np.max(np.abs(cond - quantum_dist.probs)))
    return {"max_abs_error": worst, "pass": worst <= tol}


def _verify_rows(per_setting) -> Iterable[tuple]:
    for skey, data in per_setting.items():
        for okey, entry in data["table"].items():
            yield (
                skey,
                okey,
                _fmt_float(entry["model"]),
                _fmt_float(entry["target"]),
                _fmt_float(entry["abs_error"]),
            )


def _cmd_two_party_verify(args) -> int:
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
    quantum = quantum_distribution(scenario)
    target = extend_with_inefficiency(quantum, float(model.eta))
    model_dist = model.exact_distribution()
    report, per_setting = _comparison_tables(model_dist, target, args.tol)
    conditional = _conditional_check(model_dist, quantum, args.tol)
    passed = report.passed and conditional["pass"]
    body: dict[str, Any] = {
        "eta": model.eta,
        "comparison": report.to_dict(),
        "conditional_on_clicks": conditional,
        "per_setting": per_setting,
    }
    if args.samples:
        rng = np.random.default_rng(seed)
        checks = {}
        for choice in model_dist.settings_choices():
            counts = model.tabulate(
                model.sample_many(choice, args.samples, rng)
            )
            stat = statistical_match(counts, model_dist.block(choice))
            checks[_settings_key(choice)] = stat.to_dict()
            passed = passed and stat.passed
        body["sampling"] = {
            "samples_per_setting": args.samples,
            "checks": checks,
        }
    body["pass"] = passed
    if args.fmt == "json":
        _write_json_report(config, body)
    else:
        _write_csv_report(
            config,
            ("settings", "outcomes", "model", "target", "abs_error"),
            _verify_rows(per_setting),
        )
    return 0 if passed else 1


def _cmd_multiparty_solve(args) -> int:
    mixture = solve_weights(args.n, args.m)
    config = RunConfig(
        "multiparty solve", {"n": args.n, "m": args.m}, None, args.out, args.fmt
    )
    if args.fmt == "json":
        _write_json_report(
            config,
            {
                "eta": mixture.eta,
                "weights": {str(i): mixture.weights[i] for i in sorted(mixture.weights)},
                "r_sequence": list(mixture.r_sequence),
            },
        )
    else:
        rows = [("eta", "", _fmt_frac(mixture.eta))]
        rows += [
            ("weight", str(i), _fmt_frac(mixture.weights[i]))
            for i in sorted(mixture.weights)
        ]
        rows += [
            ("r", str(k), _fmt_frac(v))
            for k, v in enumerate(mixture.r_sequence)
        ]
        _write_csv_report(config, ("kind", "index", "value"), rows)
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
    all_pass = True
    rows = positivity_scan(args.n_max, mode=mode, m=args.m, n_min=args.n_min)
    with _Output(args.out) as fh:
        if args.fmt == "csv":
            for key, value in config.to_dict().items():
                fh.write(f"# {key}={value}\n")
            fh.write(f"# timestamp={_timestamp()}\n")
            writer = csv.writer(fh)
            writer.writerow(("n", "mode", "min_value", "argmin_k", "pass"))
            fh.flush()
            for row in rows:
                all_pass = all_pass and row.passed
                writer.writerow(
                    (
                        row.n,
                        row.mode,
                        _fmt_frac(row.min_value),
                        row.argmin_k,
                        str(row.passed).lower(),
                    )
                )
                fh.flush()
        else:
            # newline-delimited JSON: config first, then one row per N
            fh.write(
                json.dumps(
                    _jsonable(
                        {"config": config.to_dict(), "timestamp": _timestamp()}
                    ),
                    ensure_ascii=False,
                )
                + "\n"
            )
            fh.flush()
            for row in rows:
                all_pass = all_pass and row.passed
                fh.write(
                    json.dumps(
                        _jsonable(
                            {
                                "n": row.n,
                                "mode": row.mode,
                                "min_value": row.min_value,
                                "argmin_k": row.argmin_k,
                                "pass": row.passed,
                            }
                        ),
                        ensure_ascii=False,
                    )
                    + "\n"
                )
                fh.flush()
    return 0 if all_pass else 1


def _cmd_multiparty_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    config = RunConfig(
        "multiparty verify",
        {"scenario": args.scenario, "tol": args.tol},
        None,
        args.out,
        args.fmt,
    )
    model = MultipartyModel(scenario)
    quantum = quantum_distribution(scenario)
    target = extend_with_inefficiency(quantum, float(model.eta))
    model_dist = model.exact_distribution()
    report, per_setting = _comparison_tables(model_dist, target, args.tol)
    conditional = _conditional_check(model_dist, quantum, args.tol)
    passed = report.passed and conditional["pass"]
    if args.fmt == "json":
        _write_json_report(
            config,
            {
                "eta": model.eta,
                "n": model.n,
                "m": model.m,
                "weights": {
                    str(i): model.mixture.weights[i]
                    for i in sorted(model.mixture.weights)
                },
                "comparison": report.to_dict(),
                "conditional_on_clicks": conditional,
                "per_setting": per_setting,
                "pass": passed,
            },
        )
    else:
        _write_csv_report(
            config,
            ("settings", "outcomes", "model", "target", "abs_error"),
            _verify_rows(per_setting),
        )
    return 0 if passed else 1


def _cmd_dim_model_verify(args) -> int:
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
    if args.fmt == "json":
        _write_json_report(config, report.to_dict())
    else:
        rows = [
            (
                c.to_dict()["a"],
                c.to_dict()["b"],
                _fmt_float(c.empirical),
                _fmt_float(c.target),
                _fmt_float(c.bound),
                _fmt_float(c.sigma),
                str(c.passed).lower(),
            )
            for c in report.cells
        ]
        _write_csv_report(
            config,
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
