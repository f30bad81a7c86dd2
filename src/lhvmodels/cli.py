"""Command-line front door: bound tables, model verification, positivity
scans, and Monte Carlo runs, with JSON/CSV reports and explicit seeds.

Subcommands
-----------
``lhv bounds``
    Threshold-efficiency tables over ranges of (M_A, M_B), (N, M) or
    (d, epsilon), of at most ``BOUNDS_MAX_ROWS`` rows, counted before any
    row is built.
``lhv two-party verify``
    Build the two-party model for a scenario file and compare it against
    the eta-extended quantum distribution; optionally also check the
    sampler statistically, drawing and counting each settings block in
    chunks of at most ``quantum.CHUNK`` draws, so memory does not grow
    with ``--samples``.
``lhv multiparty solve | scan | verify``
    Exact mixture weights for one (N, M), from the O(N) recursion; the
    streaming positivity scan of the recursion's r_k, on its integers,
    which certifies every M at once; the exact N-party model against the
    eta-extended quantum distribution.  A ``solve`` report is refused
    (exit 2) where a number would have more digits than Python renders.
``lhv dim-model verify``
    Monte Carlo run of the dimension-dependent model, counted in chunks of
    at most ``dimension.CHUNK_BYTES`` of normals and products, so memory
    grows neither with ``--samples`` nor with ``--d``; the default
    computational-basis POVM (16 d^3 bytes of projectors) is refused past
    ``DIM_POVM_MAX_BYTES``.

Conventions
-----------
One writer, ``_write_report``, writes every report and is the only code
that opens the output; the library work of a command is done before it
opens.  Reports embed the fully resolved run configuration and an ISO
timestamp; apart from the timestamp, identical configuration and seed
reproduce the report byte for byte.  JSON reports are ``json.dumps`` with
``indent=2`` of the report as :func:`_plain` converts it; CSV reports start
with ``# key=value`` lines, and every CSV line ends in ``\\n``.  A verify
report's ``per_setting`` table is written one settings block at a time from
one per-report template (:class:`_PerSetting`), never built whole in memory.
Rationals are rendered as ``num/den`` strings, floats with 15 significant
digits, and the silent outcome as ``∅``.  Scans stream one row per N,
flushed immediately: CSV rows, or newline-delimited JSON after a config
line.  Exit status: 0 on pass or completion, 1 on verification failure, 2
on usage errors (including malformed scenario files, a ``--tol`` or
``--d`` out of range, a ``--samples`` below ``verify.MIN_SAMPLES``, a
negative ``--seed``, a size guard, and a report file that cannot be
opened).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime as _dt
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import bounds as _bounds
from .dimension import run_dimension_model
from .errors import DomainError, LhvError, ScenarioFormatError, SizeGuardExceeded
from .multiparty import (
    MultipartyModel,
    check_report_digits,
    check_scan_args,
    mixture_from_recursion,
    positivity_scan,
)
from .quantum import (
    chunk_sizes,
    extend_with_inefficiency,
    load_scenario,
    outcome_labels,
    quantum_distribution,
)
from .two_party import TwoPartyModel
from .verify import MIN_SAMPLES, compare_float, statistical_match


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

#: json.dump's spelling of the non-finite floats
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Renderer(dict):
    """One report's float renderer, indexed with a float: the text of a JSON
    number when ``fmt`` is ``"json"``, else a CSV cell.  Called with any
    scalar, it gives the CSV cell.

    Rationals become ``num/den``, floats keep 15 significant digits (JSON
    prints the rounded float's repr, so ``100`` in CSV is ``100.0`` in
    JSON), bools are lowercase, and numpy scalars count as their Python
    values.  Each distinct float is formatted once per report and kept as a
    key of this dict, except zeros: 0.0 and -0.0 compare and hash alike but
    print differently.
    """

    def __init__(self, fmt: str):
        super().__init__()
        self.as_json = fmt == "json"

    def __missing__(self, x: float) -> str:
        text = f"{x:.15g}"
        if self.as_json:
            text = repr(float(text))
            text = _NONFINITE.get(text, text)
        if x:
            self[x] = text
        return text

    def __call__(self, x: Any) -> str:
        if isinstance(x, np.generic):
            x = x.item()
        if isinstance(x, float):
            return self[x]
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, Fraction):
            return f"{x.numerator}/{x.denominator}"
        return str(x)


#: Stands in for a :class:`_PerSetting` table in the encoded report; it
#: starts with NUL, which no other report string holds (argv cannot)
_TABLE = "\0per_setting"


def _plain(value: Any) -> Any:
    """``value`` with the report's scalars in their JSON form: rationals as
    ``num/den`` strings, floats rounded to 15 significant digits, numpy
    scalars as Python values, tuples as lists and a :class:`_PerSetting`
    table as the :data:`_TABLE` placeholder."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, _PerSetting):
        return _TABLE
    return value


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text, ""])
    return buf.getvalue()[:-1]


@dataclass(frozen=True)
class _PerSetting:
    """The ``per_setting`` part of a verify report: the model and target
    tables as float arrays of shape (settings choices, outcome cells), both
    in C order, with the settings keys, and the outcome keys in sorted order
    with the columns that hold them.

    It is written one settings block at a time from one per-report
    template: each key's JSON prefix (or quoted CSV cell) is rendered once,
    each block's model, target and ``abs_error`` values go through the
    renderer's float path, and each block is one ``"".join``.
    """

    settings: list[str]
    outcomes: list[str]
    order: np.ndarray
    model: np.ndarray
    target: np.ndarray

    @classmethod
    def compare(cls, model_dist, target_dist) -> _PerSetting:
        """``model_dist`` against ``target_dist``, settings choice by
        settings choice."""
        shape = model_dist.probs.shape[model_dist.n_parties :]
        labels = (outcome_labels(k, model_dist.silent) for k in shape)
        keys = [",".join(o) for o in itertools.product(*labels)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        settings = [_settings_key(c) for c in model_dist.settings_choices()]
        return cls(
            settings,
            [keys[i] for i in order],
            np.array(order, dtype=np.intp),
            model_dist.probs.reshape(len(settings), len(keys)),
            target_dist.probs.reshape(len(settings), len(keys)),
        )

    def _blocks(self, render: _Renderer):
        """Per settings choice: its key, the text of the largest
        |model - target|, and the model, target and |model - target| texts
        of its cells in outcome-key order."""
        text = render.__getitem__
        for key, model, target in zip(self.settings, self.model, self.target):
            model, target = model[self.order], target[self.order]
            errors = np.abs(model - target)
            yield (
                key, text(float(errors.max())), map(text, model.tolist()),
                map(text, target.tolist()), map(text, errors.tolist()),
            )

    def write_json(self, write: Callable[[str], Any], render: _Renderer,
                   pad: str) -> None:
        """Write the blocks as an indented JSON object at indentation
        ``pad``: ``{settings: {max_abs_error, table: {outcomes: {model,
        target, abs_error}}}}``."""
        p2, p4, p6, p8 = (pad + "  " * i for i in (1, 2, 3, 4))
        # one block: head, then per cell a prefix and the three values
        # between constant separators, then the closing brackets
        template: list[str] = [""]
        target_label, error_label = f',\n{p8}"target": ', f',\n{p8}"abs_error": '
        for i, key in enumerate(self.outcomes):
            close = f"\n{p6}}}," if i else ""
            template += (
                f'{close}\n{p6}{encode_basestring(key)}: {{\n{p8}"model": ', "",
                target_label, "", error_label, "",
            )
        template.append(f"\n{p6}}}\n{p4}}}\n{p2}}}")
        write("{")
        for i, (key, worst, model, target, errors) in enumerate(self._blocks(render)):
            template[0] = (
                f'{"," if i else ""}\n{p2}{encode_basestring(key)}: {{\n'
                f'{p4}"max_abs_error": {worst},\n{p4}"table": {{'
            )
            template[2::6] = model
            template[4::6] = target
            template[6::6] = errors
            write("".join(template))
        write(f"\n{pad}}}")

    def write_csv(self, write: Callable[[str], Any], render: _Renderer) -> None:
        """Write one CSV row per cell: settings, outcomes, model, target,
        abs_error."""
        template: list[str] = []
        for key in self.outcomes:
            template += ("", f",{_csv_cell(key)},", "", ",", "", ",", "", "\n")
        n = len(self.outcomes)
        for key, _, model, target, errors in self._blocks(render):
            template[0::8] = [_csv_cell(key)] * n
            template[2::8] = model
            template[4::8] = target
            template[6::8] = errors
            write("".join(template))


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
    rows: Iterable[Sequence[Any]] | _PerSetting,
) -> None:
    """Write one report, UTF-8, to ``config.out`` or stdout: the only code
    that opens the report output.  A file that cannot be opened is a usage
    error.

    JSON is ``{"config", "timestamp", **body}``; CSV is ``# key=value``
    configuration lines, the timestamp, then ``columns`` and ``rows``.  A
    :class:`_PerSetting` table, in ``body`` and as ``rows``, writes itself.
    Every line ends in ``\\n``.
    ``body=None`` marks a streamed report: its JSON form is newline-delimited
    (a config line, then one object per row keyed by ``columns``), and each
    row is flushed as soon as it is written.
    """
    as_csv = config.fmt == "csv"
    render = _Renderer(config.fmt)
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
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            if isinstance(rows, _PerSetting):
                rows.write_csv(fh.write, render)
                rows = ()
        elif body is None:
            fh.write(json.dumps(_plain(head), ensure_ascii=False) + "\n")
        else:
            text = json.dumps(_plain({**head, **body}), indent=2, ensure_ascii=False)
            before, table, after = text.partition(json.dumps(_TABLE))
            fh.write(before)
            if table:
                rows.write_json(fh.write, render, "  ")
            fh.write(after + "\n")
            rows = ()  # a JSON report's rows are in its body
        fh.flush()
        for row in rows:
            if as_csv:
                writer.writerow([render(v) for v in row])
            else:
                line = json.dumps(_plain(dict(zip(columns, row))), ensure_ascii=False)
                fh.write(line + "\n")
            if body is None:
                fh.flush()
        fh.flush()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_int_range(text: str) -> range:
    """"5" -> range(5, 6); "2:6" -> range(2, 7), holding 2, 3, 4, 5, 6.

    A range, not a list: ``bounds`` counts its rows before building any.
    """
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return range(lo, hi + 1)
    return range(int(text), int(text) + 1)


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


#: Most rows one ``lhv bounds`` table may hold, counted before any is built.
BOUNDS_MAX_ROWS = 100_000
#: Most bytes of projectors the default POVM of ``dim-model verify`` may
#: store: d dense d x d complex matrices, 16 d^3 bytes, so d <= 161.
DIM_POVM_MAX_BYTES = 1 << 26


def _cmd_bounds(args) -> int:
    if args.two_party:
        family, names, eta = "two-party", ("ma", "mb"), _bounds.eta_two_party
    elif args.multiparty:
        family, names, eta = "multiparty", ("n", "m"), _bounds.eta_multiparty
    elif args.all_click:
        family, names, eta = "all-click", ("n", "m"), _bounds.eta_all_click
    else:
        family, names = "dimension", ("d", "epsilon")
    first, second = (getattr(args, name) for name in names)
    if not first or not second:
        raise DomainError(
            f"bounds --{family} needs --{names[0]} and --{names[1]}"
        )
    # stop - start, as a range may be longer than len() can return
    n_rows = math.prod(
        a.stop - a.start if isinstance(a, range) else len(a)
        for a in (first, second)
    )
    if n_rows > BOUNDS_MAX_ROWS:
        raise SizeGuardExceeded(
            f"bounds table would hold {n_rows} rows (limit "
            f"{BOUNDS_MAX_ROWS}); narrow --{names[0]} or --{names[1]}"
        )
    params = {"family": family, names[0]: list(first), names[1]: list(second)}
    pairs = itertools.product(first, second)
    if args.dimension:
        columns = ("d", "epsilon", "mode", "eta")
        mode = params["bound_mode"] = args.bound_mode
        rows = [(d, eps, mode, _bounds.eta_dimension(d, eps, mode))
                for d, eps in pairs]
    else:
        columns = (*names, "eta")
        rows = [(a, b, eta(a, b)) for a, b in pairs]
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


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise DomainError(f"--seed must be >= 0, got {seed}")


def _fresh_seed() -> int:
    """63 bits from ``os.urandom``: ``secrets`` would import hashlib and
    OpenSSL, a few milliseconds of every start-up."""
    return int.from_bytes(os.urandom(8), "big") >> 1


#: CSV columns of the verify reports: one row per cell of the comparison
_VERIFY_COLUMNS = ("settings", "outcomes", "model", "target", "abs_error")


def _verify_model(model, scenario, tol):
    """Compare a model's exact table with the eta-extended quantum table,
    and its all-clicks conditional with the quantum table itself.

    Returns the report entries ``comparison``, ``conditional_on_clicks``
    and ``per_setting`` (a :class:`_PerSetting`, also the CSV rows under
    :data:`_VERIFY_COLUMNS`), the model's table, and whether both checks
    pass.
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
        "per_setting": _PerSetting.compare(model_dist, target),
    }
    return entries, model_dist, report.passed and cond_error <= tol


def _cmd_two_party_verify(args) -> int:
    _check_tol(args.tol)
    _check_samples(args.samples)
    _check_seed(args.seed)
    scenario = load_scenario(args.scenario)
    seed = args.seed
    if args.samples and seed is None:
        seed = _fresh_seed()
    params = {
        "scenario": args.scenario,
        "tol": args.tol,
        "samples": args.samples,
    }
    config = RunConfig("two-party verify", params, seed, args.out, args.fmt)
    model = TwoPartyModel(scenario)
    entries, model_dist, passed = _verify_model(model, scenario, args.tol)
    body: dict[str, Any] = {"eta": model.eta, **entries}
    if args.samples:
        rng = np.random.default_rng(seed)
        checks = {}
        for choice in model_dist.settings_choices():
            target = model_dist.block(choice)
            counts = np.zeros(target.shape, dtype=np.int64)
            for c in chunk_sizes(args.samples):
                counts += model.tabulate(model.sample_many(choice, c, rng))
            stat = statistical_match(counts, target, model_dist.silent)
            checks[_settings_key(choice)] = stat.to_dict()
            passed = passed and stat.passed
        body["sampling"] = {
            "samples_per_setting": args.samples,
            "checks": checks,
        }
    body["pass"] = passed
    _write_report(config, body, _VERIFY_COLUMNS, entries["per_setting"])
    return 0 if passed else 1


def _cmd_multiparty_solve(args) -> int:
    check_report_digits(args.n, args.m)
    mixture = mixture_from_recursion(args.n, args.m)
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


def _cmd_multiparty_scan(args) -> int:
    # the report names its one scan: the r_k, certifying all M at once
    params = {"n_min": args.n_min, "n_max": args.n_max, "mode": "r"}
    config = RunConfig("multiparty scan", params, None, args.out, args.fmt)
    # checked before the report is opened, so bad input writes nothing
    check_scan_args(args.n_max, n_min=args.n_min)
    failed = []

    def rows():
        for row in positivity_scan(args.n_max, n_min=args.n_min):
            if not row.passed:
                failed.append(row.n)
            yield row.n, "all_M_via_r", row.min_value, row.argmin_k, row.passed

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
    entries, _, passed = _verify_model(model, scenario, args.tol)
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
    _write_report(config, body, _VERIFY_COLUMNS, entries["per_setting"])
    return 0 if passed else 1


def _cmd_dim_model_verify(args) -> int:
    if args.d < 2:
        raise DomainError(f"need dimension >= 2, got {args.d}")
    _check_samples(args.samples)
    _check_seed(args.seed)
    seed = args.seed if args.seed is not None else _fresh_seed()
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

        povm_bytes = 16 * args.d**3
        if povm_bytes > DIM_POVM_MAX_BYTES:
            raise SizeGuardExceeded(
                f"--d {args.d}: the computational-basis POVM would store "
                f"{povm_bytes} bytes of projectors (limit {DIM_POVM_MAX_BYTES})"
            )
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
    body = report.to_dict()
    cells = body["cells"]
    _write_report(config, body, tuple(cells[0]), (tuple(c.values()) for c in cells))
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
                return _cmd_multiparty_scan(args)
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
