"""End-to-end CLI checks: report formats, exit codes, reproducibility."""

import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lhvmodels import cli
from lhvmodels.cli import main
from lhvmodels.multiparty import ScanRow
from lhvmodels.presets import dimension_scenario, random_two_party_scenario
from lhvmodels.quantum import CHUNK, scenario_to_json


@pytest.fixture
def chsh_file(tmp_path, chsh):
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(scenario_to_json(chsh)), encoding="utf-8")
    return str(path)


@pytest.fixture
def ghz_file(tmp_path, ghz3):
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps(scenario_to_json(ghz3)), encoding="utf-8")
    return str(path)


def _strip_timestamps(text: str) -> list[str]:
    return [line for line in text.splitlines() if "timestamp" not in line]


def test_bounds_two_party_example_row(capsys):
    code = main(["bounds", "--two-party", "--ma", "2", "--mb", "2",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ma,mb,eta" in out
    assert "2,2,2/3" in out


def test_bounds_ranges_and_json(capsys):
    code = main(["bounds", "--two-party", "--ma", "2:3", "--mb", "2:3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["config"]["command"] == "bounds"
    assert report["columns"] == ["ma", "mb", "eta"]
    rows = {(r[0], r[1]): r[2] for r in report["rows"]}
    assert rows[(2, 2)] == "2/3"
    assert rows[(3, 3)] == "1/2"


def test_bounds_multiparty_and_all_click(capsys):
    assert main(["bounds", "--multiparty", "--n", "2:4", "--m", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert ["3", "2", "3/5"] == [str(x) for x in report["rows"][1]]

    assert main(["bounds", "--all-click", "--n", "2", "--m", "2",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "0.707106781186548" in out


def test_bounds_dimension_table(capsys):
    assert main(["bounds", "--dimension", "--d", "2", "--epsilon", "1.0",
                 "--format", "csv"]) == 0
    assert "2,1,lower_bound,0.015625" in capsys.readouterr().out


def test_bounds_requires_family_arguments(capsys):
    code = main(["bounds", "--two-party", "--ma", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "lhv:" in captured.err


def test_multiparty_solve_report(capsys):
    assert main(["multiparty", "solve", "--n", "3", "--m", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["eta"] == "3/5"
    assert report["weights"] == {"0": "108/125", "2": "9/125", "3": "8/125"}
    assert report["r_sequence"] == ["1/1", "0/1", "1/3", "8/27"]


def test_multiparty_solve_rejects_degenerate(capsys):
    assert main(["multiparty", "solve", "--n", "1", "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert "lhv:" in err and "malformed scenario" not in err


def test_multiparty_scan_csv_stream(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["multiparty", "scan", "--n-max", "6", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "n,mode,min_value,argmin_k,pass"
    data = lines[header_at + 1:]
    assert len(data) == 5  # one row per N in 2..6
    assert data[0].startswith("2,all_M_via_r,0/1,1,true")


def test_multiparty_scan_ndjson(capsys):
    assert main(["multiparty", "scan", "--n-max", "4", "--mode", "fixed",
                 "--m", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    head = json.loads(lines[0])
    assert head["config"]["mode"] == "fixed"
    rows = [json.loads(l) for l in lines[1:]]
    assert [r["n"] for r in rows] == [2, 3, 4]
    assert rows[0]["min_value"] == "1/9"
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "bad",
    [
        ["--n-max", "1"],
        ["--n-max", "5", "--n-min", "1"],
        ["--n-max", "3", "--n-min", "4"],
        ["--n-max", "5", "--mode", "fixed", "--m", "1"],
    ],
)
def test_multiparty_scan_bad_arguments_write_nothing(tmp_path, capsys, bad, fmt):
    out = tmp_path / "bad.csv"
    argv = ["multiparty", "scan", *bad, "--format", fmt]
    assert main(argv) == 2
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lhv:" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["two-party", "verify", "--tol", "nan"], "--tol"),
        (["two-party", "verify", "--tol", "inf"], "--tol"),
        (["two-party", "verify", "--tol", "-1"], "--tol"),
        (["two-party", "verify", "--samples", "0"], "--samples"),
        (["two-party", "verify", "--samples", "-5"], "--samples"),
        (["multiparty", "verify", "--tol", "nan"], "--tol"),
        (["multiparty", "verify", "--tol", "-0.001"], "--tol"),
        # below verify.MIN_SAMPLES: refused before any model is built
        (["two-party", "verify", "--samples", "50"], "--samples"),
        (["dim-model", "verify", "--d", "2", "--delta", "0.5", "--samples", "50"],
         "--samples"),
    ],
)
def test_verify_bad_arguments_write_nothing(tmp_path, capsys, argv, message):
    # the scenario does not exist: the arguments are checked before loading it
    out = tmp_path / "bad.json"
    argv = argv + ["--scenario", str(tmp_path / "missing.json")]
    assert main(argv) == 2
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lhv:" in captured.err and message in captured.err
    assert "malformed scenario" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("d", ["0", "-1"])
def test_dim_model_rejects_small_dimension(capsys, d):
    assert main(["dim-model", "verify", "--d", d, "--delta", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lhv: need dimension >= 2" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--two-party", "--ma", "2", "--mb", "2"],
        ["multiparty", "scan", "--n-max", "4"],
        ["multiparty", "scan", "--n-max", "4", "--format", "csv"],
    ],
)
def test_unwritable_report_file_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lhv: cannot write report:" in captured.err
    assert not out.parent.exists()


def test_two_party_verify_passes(chsh_file, capsys):
    code = main(["two-party", "verify", "--scenario", chsh_file])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert report["eta"] == "2/3"
    assert report["comparison"]["max_abs_error"] < 1e-10
    assert report["conditional_on_clicks"]["pass"] is True
    assert "0,∅" in report["per_setting"]["0,0"]["table"]


def test_two_party_verify_with_sampling(chsh_file, capsys):
    code = main(["two-party", "verify", "--scenario", chsh_file,
                 "--samples", "20000", "--seed", "21"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["config"]["seed"] == 21
    assert report["sampling"]["checks"]["1,1"]["pass"] is True


def test_two_party_sampling_memory_does_not_grow(chsh_file, tmp_path):
    # several chunks per settings block: every draw is counted, and the
    # traced peak is the same at 4x the draws
    out = tmp_path / "r.json"

    def traced_peak(samples):
        tracemalloc.start()
        try:
            main(["two-party", "verify", "--scenario", chsh_file, "--samples",
                  str(samples), "--seed", "3", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        checks = json.loads(out.read_text(encoding="utf-8"))["sampling"]["checks"]
        assert [c["n_samples"] for c in checks.values()] == [samples] * 4
        return peak

    small, large = traced_peak(4 * CHUNK), traced_peak(16 * CHUNK)
    assert large == pytest.approx(small, rel=0.1), (small, large)


def test_two_party_verify_unreachable_tolerance(chsh_file, capsys):
    code = main(["two-party", "verify", "--scenario", chsh_file,
                 "--tol", "1e-30"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["pass"] is False  # report still written on failure


def test_verify_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code = main(["two-party", "verify", "--scenario", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed scenario" in err


def test_verify_rejects_missing_file(capsys):
    assert main(["two-party", "verify", "--scenario", "/no/such.json"]) == 2
    assert "malformed scenario" in capsys.readouterr().err


def test_multiparty_verify_passes(ghz_file, capsys):
    code = main(["multiparty", "verify", "--scenario", ghz_file])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert report["eta"] == "3/5"
    assert report["n"] == 3


def test_dim_model_verify_report(capsys):
    code = main(["dim-model", "verify", "--d", "2", "--delta", "0.5236",
                 "--samples", "4000", "--seed", "31"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["config"]["seed"] == 31
    assert report["pass"] is True
    assert abs(report["q_theory"] - 0.25) < 1e-4


def test_dim_model_verify_accepts_scenario_povms(tmp_path, capsys):
    path = tmp_path / "dim3.json"
    path.write_text(
        json.dumps(scenario_to_json(dimension_scenario(3))), encoding="utf-8"
    )
    code = main(["dim-model", "verify", "--d", "3", "--epsilon", "2.0",
                 "--samples", "20000", "--seed", "5",
                 "--scenario", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True


def test_dim_model_rejects_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "dim2.json"
    path.write_text(
        json.dumps(scenario_to_json(dimension_scenario(2))), encoding="utf-8"
    )
    code = main(["dim-model", "verify", "--d", "3", "--delta", "0.5",
                 "--scenario", str(path)])
    assert code == 2
    assert "malformed scenario" in capsys.readouterr().err


def test_reports_are_reproducible_modulo_timestamp(tmp_path):
    out = tmp_path / "report.json"
    argv = ["dim-model", "verify", "--d", "2", "--delta", "0.6",
            "--samples", "3000", "--seed", "12", "--out", str(out)]
    assert main(argv) == 0
    first = _strip_timestamps(out.read_text(encoding="utf-8"))
    assert main(argv) == 0
    second = _strip_timestamps(out.read_text(encoding="utf-8"))
    assert first == second


def test_sampled_reports_are_reproducible_across_processes(tmp_path):
    # each process places the NO_CLICK sentinel, and so its hash, anew
    scenario = random_two_party_scenario(
        np.random.default_rng(1), 2, 2, 4, (3, 3)
    )
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(scenario_to_json(scenario)), encoding="utf-8")
    argv = [sys.executable, "-m", "lhvmodels.cli", "two-party", "verify",
            "--scenario", str(path), "--samples", "2000", "--seed", "11"]
    outputs = [
        subprocess.run(argv, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert '"tv_distance"' in outputs[0]
    assert _strip_timestamps(outputs[0]) == _strip_timestamps(outputs[1])


def test_dim_model_json_pass_fields_are_booleans(capsys):
    assert main(["dim-model", "verify", "--d", "2", "--delta", "0.5236",
                 "--samples", "4000", "--seed", "31"]) == 0
    report = json.loads(capsys.readouterr().out)
    found = []

    def collect(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "pass":
                    found.append(value)
                collect(value)
        elif isinstance(node, list):
            for value in node:
                collect(value)

    collect(report)
    assert report["alice_marginal"] and report["bob_marginal"]
    assert found and all(isinstance(v, bool) for v in found)


def test_fresh_seed_is_generated_and_echoed(capsys):
    code = main(["dim-model", "verify", "--d", "2", "--delta", "0.6",
                 "--samples", "2000"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert isinstance(report["config"]["seed"], int)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--no-such-flag"])
    assert exc.value.code == 2


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lhvmodels.cli", "bounds", "--two-party",
         "--ma", "2", "--mb", "2", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "2,2,2/3" in proc.stdout


def _float_leaves(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from _float_leaves(value)
    elif isinstance(node, float):
        yield node


def _layout_cases(chsh_file, ghz_file):
    return [
        ["bounds", "--two-party", "--ma", "2:3", "--mb", "2:3"],
        ["bounds", "--multiparty", "--n", "2:4", "--m", "2:3"],
        ["bounds", "--all-click", "--n", "2:3", "--m", "2"],
        ["bounds", "--dimension", "--d", "2:3", "--epsilon", "0.5,1.0"],
        ["bounds", "--dimension", "--d", "2", "--epsilon", "0.5",
         "--bound-mode", "exact_from_delta"],
        ["multiparty", "solve", "--n", "4", "--m", "3"],
        ["multiparty", "scan", "--n-max", "6"],
        ["multiparty", "scan", "--n-max", "5", "--mode", "fixed", "--m", "3"],
        ["two-party", "verify", "--scenario", chsh_file],
        ["two-party", "verify", "--scenario", chsh_file, "--samples", "2000",
         "--seed", "3"],
        ["multiparty", "verify", "--scenario", ghz_file],
        ["dim-model", "verify", "--d", "2", "--delta", "0.5236",
         "--samples", "4000", "--seed", "31"],
        ["dim-model", "verify", "--d", "3", "--epsilon", "2.0",
         "--samples", "4000", "--seed", "5"],
    ]


def test_report_layout_matches_the_standard_encoders(chsh_file, ghz_file, capsys):
    # independent oracles: the stdlib json encoder, and the csv reader
    for argv in _layout_cases(chsh_file, ghz_file):
        assert main(argv) in (0, 1), argv
        text = capsys.readouterr().out
        if argv[1] == "scan":
            lines = text.splitlines()
            for line in lines:
                assert line == json.dumps(json.loads(line), ensure_ascii=False)
            reports = [json.loads(line) for line in lines]
        else:
            report = json.loads(text)
            assert text == json.dumps(report, indent=2, ensure_ascii=False) + "\n"
            reports = [report]
            for block in report.get("per_setting", {}).values():
                assert list(block["table"]) == sorted(block["table"])
        for x in _float_leaves(reports):
            assert float(f"{x:.15g}") == x, (argv, x)

        assert main(argv + ["--format", "csv"]) in (0, 1), argv
        lines = capsys.readouterr().out.splitlines()
        comments = [line for line in lines if line.startswith("# ")]
        assert comments[-1].startswith("# timestamp=")
        assert lines[: len(comments)] == comments
        header, *rows = csv.reader(io.StringIO("\n".join(lines[len(comments):])))
        assert rows and all(len(row) == len(header) for row in rows), argv
        for cell in (c for row in rows for c in row):
            try:
                x = float(cell)
            except ValueError:
                continue
            assert f"{x:.15g}" == cell, (argv, cell)


def _emitted(value, pad=""):
    parts = []
    cli._emit_json(parts.append, value, cli._renderer("json"), pad)
    return "".join(parts)


def test_json_emitter_matches_json_dumps():
    tree = {
        "empty_dict": {},
        "empty_list": [],
        "nested": {"a": [1, [2, {}], {"b": [[]]}], "c": {"d": {"e": "f"}}},
        "text": 'say "∅" \\ done\n\t\u0001',
        "zeros": [0.0, -0.0, 0.0, -0.0],
        "floats": [0.1, 0.1, 1e-17, 100.0, 1.5e300, -2.5],
        "nonfinite": [math.inf, -math.inf],
        "ints": [0, -7, 2**80, -(2**70)],
        "flags": [True, False, None],
        "∅": "unicode key",
    }
    expected = json.dumps(tree, indent=2, ensure_ascii=False)
    assert _emitted(tree) == expected
    assert _emitted((k, v) for k, v in tree.items()) == expected
    assert _emitted(tree, None) == json.dumps(tree, ensure_ascii=False)
    assert _emitted(x for x in ()) == "{}"
    assert _emitted({"nan": math.nan}) == json.dumps({"nan": math.nan}, indent=2)
    numpy_scalars = [np.float64(0.1), np.float64(-0.0), np.int64(3), np.bool_(True)]
    assert _emitted(numpy_scalars) == json.dumps([0.1, -0.0, 3, True], indent=2)
    # 15 significant digits, then the JSON repr of the rounded float
    assert _emitted([0.1 + 0.2, Fraction(2, 3)]) == json.dumps(
        [0.3, "2/3"], indent=2
    )
    csv_cell = cli._renderer("csv")
    assert [csv_cell(v) for v in (100.0, -0.0, 0.1 + 0.2, Fraction(2, 3), True)] == [
        "100", "-0", "0.3", "2/3", "true"
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_multiparty_scan_flushes_each_row(tmp_path, monkeypatch, fmt):
    out = tmp_path / "scan.out"
    seen = []

    def scan(n_max, **kwargs):
        yield ScanRow(2, "all_M_via_r", Fraction(0), 1, True)
        seen.append(out.read_text(encoding="utf-8"))
        raise RuntimeError("scan interrupted")

    monkeypatch.setattr(cli, "positivity_scan", scan)
    with pytest.raises(RuntimeError):
        main(["multiparty", "scan", "--n-max", "5", "--format", fmt,
              "--out", str(out)])
    last = seen[0].splitlines()[-1]
    if fmt == "csv":
        assert last == "2,all_M_via_r,0/1,1,true"
    else:
        assert json.loads(last) == {
            "n": 2, "mode": "all_M_via_r", "min_value": "0/1", "argmin_k": 1,
            "pass": True,
        }
