"""End-to-end CLI checks: report formats, exit codes, reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

from lhvmodels.cli import main
from lhvmodels.presets import dimension_scenario, random_two_party_scenario
from lhvmodels.quantum import scenario_to_json


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
