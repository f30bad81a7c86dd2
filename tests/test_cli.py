"""End-to-end CLI checks: report formats, exit codes, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lhvmodels import cli, quantum
from lhvmodels.cli import main
from lhvmodels.multiparty import MultipartyModel, ScanRow
from lhvmodels.presets import (
    dimension_scenario,
    ghz_scenario,
    random_two_party_scenario,
)
from lhvmodels.quantum import (
    CHUNK,
    extend_with_inefficiency,
    load_scenario,
    quantum_distribution,
    scenario_to_json,
)
from lhvmodels.two_party import TwoPartyModel


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


@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """Scenario files whose report keys sort as strings, not numbers: 11
    settings and 11 outcomes ("1,0" < "10,0" < "2,0", "∅" last), and GHZ-5
    (7,776 cells)."""
    wide = random_two_party_scenario(np.random.default_rng(2), 11, 3, 11, (2, 3))
    paths = []
    for name, scenario in (("wide", wide), ("ghz5", ghz_scenario(5))):
        path = tmp_path_factory.mktemp("scenarios") / f"{name}.json"
        path.write_text(json.dumps(scenario_to_json(scenario)), encoding="utf-8")
        paths.append(str(path))
    return paths


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


def test_multiparty_exact_reports_refuse_unrenderable_weights(
    tmp_path, capsys, digit_limit, monkeypatch
):
    """Just over Python's digit limit, ``solve`` exits 2 before any
    arithmetic and writes nothing; just under it, it renders."""
    digit_limit(640)
    n = next(n for n in range(2, 1000) if (2 * n - 1) ** n >= 10**640)
    assert main(["multiparty", "solve", "--n", str(n - 1), "--m", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["weights"]["0"]
    out = tmp_path / "refused.json"
    monkeypatch.setattr(cli, "mixture_from_recursion", None)  # never reached
    assert main(["multiparty", "solve", "--n", str(n), "--m", "2",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("lhv: ") and "640" in captured.err
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "lhvmodels.cli",
         "multiparty", "solve", "--n", str(n), "--m", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("lhv: ") and "Traceback" not in proc.stderr


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
    assert main(["multiparty", "scan", "--n-max", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    head = json.loads(lines[0])
    assert head["config"]["mode"] == "r"
    rows = [json.loads(l) for l in lines[1:]]
    assert [r["n"] for r in rows] == [2, 3, 4]
    assert all(r["mode"] == "all_M_via_r" for r in rows)
    assert rows[0]["min_value"] == "0/1"
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "bad",
    [
        ["--n-max", "1"],
        ["--n-max", "5", "--n-min", "1"],
        ["--n-max", "3", "--n-min", "4"],
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


def test_multiparty_scan_has_no_fixed_mode(tmp_path, capsys):
    """The scan of the r_k certifies every M at once; there is no per-M
    mode, and asking for one is a usage error that writes nothing."""
    out = tmp_path / "scan.json"
    with pytest.raises(SystemExit) as exc:
        main(["multiparty", "scan", "--n-max", "5", "--mode", "fixed",
              "--m", "3", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "unrecognized arguments: --mode fixed --m 3" in captured.err


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
        # numpy refuses negative seeds; refused here before any draw
        (["dim-model", "verify", "--d", "2", "--delta", "0.5", "--seed", "-1"],
         "--seed"),
        (["two-party", "verify", "--samples", "1000", "--seed", "-3"], "--seed"),
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


# just over the limit through one range, through the product of two, and
# through a range too long for len(); no range is built
_SIDE = math.isqrt(cli.BOUNDS_MAX_ROWS) + 1


@pytest.mark.parametrize("family, first, second", [
    ("--two-party", ("--ma", f"2:{2 + cli.BOUNDS_MAX_ROWS}"), ("--mb", "2")),
    ("--multiparty", ("--n", f"2:{1 + _SIDE}"), ("--m", f"2:{1 + _SIDE}")),
    ("--all-click", ("--n", "2"), ("--m", f"2:{10**30}")),
    ("--dimension", ("--d", f"2:{2 + cli.BOUNDS_MAX_ROWS // 2}"),
     ("--epsilon", "0.1,0.2")),
])
def test_bounds_size_guard(tmp_path, capsys, family, first, second):
    assert _SIDE**2 > cli.BOUNDS_MAX_ROWS >= (_SIDE - 1) ** 2
    out = tmp_path / "r.json"
    argv = ["bounds", family, *first, *second, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lhv: bounds table would hold" in captured.err
    assert f"(limit {cli.BOUNDS_MAX_ROWS})" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("d", [162, 256])
def test_dim_model_size_guard(tmp_path, capsys, monkeypatch, d):
    # d = 64 (4 MiB of projectors) runs; d = 162 is the first d over the
    # limit.  The guard refuses before any projector is built.
    assert 16 * 64**3 <= 16 * 161**3 <= cli.DIM_POVM_MAX_BYTES < 16 * 162**3

    def refuse(_):
        raise AssertionError("projectors built past the size guard")

    monkeypatch.setattr("lhvmodels.presets.computational_povm", refuse)
    out = tmp_path / "r.json"
    argv = ["dim-model", "verify", "--d", str(d), "--delta", "1.4",
            "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"lhv: --d {d}: the computational-basis POVM" in captured.err
    assert f"{16 * d**3} bytes" in captured.err
    assert not out.exists()


def test_two_party_verify_size_guard(tmp_path, capsys, monkeypatch, chsh_file):
    # CHSH's table holds 36 entries; the guard refuses before any report
    monkeypatch.setattr(quantum, "MAX_TABLE_ENTRIES", 35)
    out = tmp_path / "r.json"
    argv = ["two-party", "verify", "--scenario", chsh_file, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lhv: exact table would hold 36 entries (limit 35)" in captured.err
    assert not out.exists()


def test_two_party_verify_contraction_guard(tmp_path, capsys, monkeypatch):
    """A 135 KB file of a pure state at d = 40 a side, with a table of 18
    entries: its contraction would hold 64 * 40^4 bytes at its first step,
    so the guard refuses it before any table is built."""
    half = np.diag([1.0] * 20 + [0.0] * 20)
    povm = quantum.Povm((half, np.eye(40) - half))
    scenario = quantum.Scenario(quantum.maximally_entangled(40), ([povm], [povm, povm]))
    path = tmp_path / "d40.json"
    path.write_text(json.dumps(scenario_to_json(scenario)), encoding="utf-8")

    def refuse(*_):
        raise AssertionError("contraction built past the size guard")

    monkeypatch.setattr(quantum, "_stacked_tables", refuse)
    out = tmp_path / "r.json"
    argv = ["two-party", "verify", "--scenario", str(path), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lhv: the quantum table's contraction")
    assert f"{64 * 40**4} bytes" in captured.err
    assert not out.exists()


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


@pytest.mark.parametrize("command, scenario_file", [
    ("two-party", "chsh_file"),
    ("multiparty", "ghz_file"),
])
def test_verify_contracts_the_state_once(
    command, scenario_file, request, monkeypatch, capsys
):
    # a scenario freshly loaded from its file, so no cached contraction
    calls = []
    contract = quantum._stacked_tables

    def counted(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(quantum, "_stacked_tables", counted)
    path = request.getfixturevalue(scenario_file)
    assert main([command, "verify", "--scenario", path]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert len(calls) == 1


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
    # two string-hash seeds, and each process places its objects anew, so
    # an order that follows string hashes or object ids differs between runs
    scenario = random_two_party_scenario(
        np.random.default_rng(1), 2, 2, 4, (3, 3)
    )
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(scenario_to_json(scenario)), encoding="utf-8")
    argv = [sys.executable, "-m", "lhvmodels.cli", "two-party", "verify",
            "--scenario", str(path), "--samples", "2000", "--seed", "11"]
    outputs = [
        subprocess.run(
            argv, capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
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
    # the verdict on a random seed may fail (exit 1) on a correct model,
    # so the test checks the echo and the rerun, not the verdict
    argv = ["dim-model", "verify", "--d", "2", "--delta", "0.6",
            "--samples", "2000"]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    seed = report["config"]["seed"]
    assert isinstance(seed, int) and 0 <= seed < 2**63
    assert main(argv + ["--seed", str(seed)]) == code
    rerun = json.loads(capsys.readouterr().out)
    assert rerun.pop("timestamp") and report.pop("timestamp")
    assert rerun == report


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


def test_package_exports_resolve_once():
    import lhvmodels

    names = lhvmodels.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(lhvmodels, name), name


def _float_leaves(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from _float_leaves(value)
    elif isinstance(node, float):
        yield node


def _layout_cases(chsh_file, ghz_file, wide_files):
    wide_file, ghz5_file = wide_files
    return [
        ["bounds", "--two-party", "--ma", "2:3", "--mb", "2:3"],
        ["bounds", "--multiparty", "--n", "2:4", "--m", "2:3"],
        ["bounds", "--all-click", "--n", "2:3", "--m", "2"],
        ["bounds", "--dimension", "--d", "2:3", "--epsilon", "0.5,1.0"],
        ["bounds", "--dimension", "--d", "2", "--epsilon", "0.5",
         "--bound-mode", "exact_from_delta"],
        ["multiparty", "solve", "--n", "4", "--m", "3"],
        ["multiparty", "scan", "--n-max", "6"],
        ["two-party", "verify", "--scenario", chsh_file],
        ["two-party", "verify", "--scenario", chsh_file, "--samples", "2000",
         "--seed", "3"],
        ["multiparty", "verify", "--scenario", ghz_file],
        ["two-party", "verify", "--scenario", wide_file],
        ["multiparty", "verify", "--scenario", ghz5_file],
        ["dim-model", "verify", "--d", "2", "--delta", "0.5236",
         "--samples", "4000", "--seed", "31"],
        ["dim-model", "verify", "--d", "3", "--epsilon", "2.0",
         "--samples", "4000", "--seed", "5"],
    ]


def test_report_layout_matches_the_standard_encoders(
    chsh_file, ghz_file, wide_files, capsys
):
    # independent oracles: the stdlib json encoder, and the csv reader
    for argv in _layout_cases(chsh_file, ghz_file, wide_files):
        assert main(argv) in (0, 1), argv
        text = capsys.readouterr().out
        if argv[1] == "scan":
            lines = text.splitlines()
            for line in lines:
                assert line == json.dumps(json.loads(line), ensure_ascii=False)
            reports = [json.loads(line) for line in lines]
            cells = []
        else:
            report = json.loads(text)
            assert text == json.dumps(report, indent=2, ensure_ascii=False) + "\n"
            reports = [report]
            blocks = report.get("per_setting", {})
            for block in blocks.values():
                assert list(block["table"]) == sorted(block["table"])
            cells = [
                [skey, okey, *cell.values()]
                for skey, block in blocks.items()
                for okey, cell in block["table"].items()
            ]
        for x in _float_leaves(reports):
            assert float(f"{x:.15g}") == x, (argv, x)

        assert main(argv + ["--format", "csv"]) in (0, 1), argv
        text = capsys.readouterr().out
        assert "\r" not in text, argv  # one line ending: "\n"
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("# ")]
        assert comments[-1].startswith("# timestamp=")
        assert lines[: len(comments)] == comments
        header, *rows = csv.reader(io.StringIO("\n".join(lines[len(comments):])))
        assert rows and all(len(row) == len(header) for row in rows), argv
        if cells:  # a verify report: its CSV rows are the JSON cells
            assert header == ["settings", "outcomes", "model", "target", "abs_error"]
            assert len(rows) == len(cells), argv
            assert [[*row[:2], *map(float, row[2:])] for row in rows] == cells
        for cell in (c for row in rows for c in row):
            try:
                x = float(cell)
            except ValueError:
                continue
            assert f"{x:.15g}" == cell, (argv, cell)


def _report_cells(text: str, fmt: str) -> dict:
    """{(settings key, outcomes key): (model, target, abs_error)} of a
    verify report."""
    if fmt == "json":
        return {
            (skey, okey): (cell["model"], cell["target"], cell["abs_error"])
            for skey, block in json.loads(text)["per_setting"].items()
            for okey, cell in block["table"].items()
        }
    lines = [line for line in text.splitlines() if not line.startswith("# ")]
    _, *rows = csv.reader(io.StringIO("\n".join(lines)))
    return {(s, o): tuple(map(float, values)) for s, o, *values in rows}


def _keyed(dist) -> dict:
    """An outcome table's cells under their report keys: positions as
    text, with the last position of each axis "∅" in a silent table."""
    sizes = dist.probs.shape[dist.n_parties :]

    def label(axis, i):
        return "∅" if dist.silent and i == sizes[axis] - 1 else str(i)

    return {
        (",".join(map(str, s)), ",".join(map(label, range(len(o)), o))): p
        for (s, o), p in dist.table.items()
    }


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", ["chsh", "ghz3", "wide"])
def test_report_cells_hold_the_exact_tables_by_key(
    chsh_file, ghz_file, wide_files, tmp_path, fmt, case
):
    # each report cell, looked up by its (settings, outcomes) key, carries
    # the model's exact value and the eta-extended quantum value there; the
    # wide scenario's outcome keys sort as strings, not in C order
    path, command, model_cls = {
        "chsh": (chsh_file, "two-party", TwoPartyModel),
        "ghz3": (ghz_file, "multiparty", MultipartyModel),
        "wide": (wide_files[0], "two-party", TwoPartyModel),
    }[case]
    out = tmp_path / f"report.{fmt}"
    argv = [command, "verify", "--scenario", path, "--format", fmt,
            "--out", str(out)]
    assert main(argv) == 0
    cells = _report_cells(out.read_text(encoding="utf-8"), fmt)

    scenario = load_scenario(path)
    model = model_cls(scenario)
    exact = _keyed(model.exact_distribution())
    target = _keyed(
        extend_with_inefficiency(quantum_distribution(scenario), float(model.eta))
    )
    assert cells.keys() == exact.keys() == target.keys()

    def rounded(x):
        return float(f"{x:.15g}")

    for key, (m, t, err) in cells.items():
        assert m == rounded(exact[key]), key
        assert t == rounded(target[key]), key
        assert err == rounded(abs(exact[key] - target[key])), key


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

    def emitted(value, **kwargs):
        return json.dumps(cli._plain(value), ensure_ascii=False, **kwargs)

    expected = json.dumps(tree, indent=2, ensure_ascii=False)
    assert emitted(tree, indent=2) == expected
    assert emitted(tree) == json.dumps(tree, ensure_ascii=False)
    assert emitted({"nan": math.nan}, indent=2) == json.dumps(
        {"nan": math.nan}, indent=2
    )
    numpy_scalars = (np.float64(0.1), np.float64(-0.0), np.int64(3), np.bool_(True))
    assert emitted(numpy_scalars, indent=2) == json.dumps(
        [0.1, -0.0, 3, True], indent=2
    )
    # 15 significant digits, then the JSON repr of the rounded float
    assert emitted([0.1 + 0.2, Fraction(2, 3), {1: 2}], indent=2) == json.dumps(
        [0.3, "2/3", {"1": 2}], indent=2
    )
    csv_cell = cli._Renderer("csv")
    assert [csv_cell(v) for v in (100.0, -0.0, 0.1 + 0.2, Fraction(2, 3), True,
                                  np.int64(3), "∅")] == [
        "100", "-0", "0.3", "2/3", "true", "3", "∅"
    ]


def test_per_setting_template_matches_the_standard_encoders(
    tmp_path, monkeypatch
):
    # signed zeros, repeated values and keys that need escaping or quoting,
    # written through the report writer and by the stdlib encoders
    model = np.array([[0.25, -0.0, 0.75, 0.0], [0.5, 0.1 + 0.2, 0.0, -0.0]])
    target = np.array([[0.25, 0.0, 0.7, 0.05], [0.5, 0.3, 0.2, 0.0]])
    order = np.array([2, 0, 3, 1])
    outcomes = ["0", "1,∅", 'q"uote', "∅"]
    table = cli._PerSetting(["0", "1"], outcomes, order, model, target)

    def rounded(x):
        return float(f"{x:.15g}")

    expected = {}
    for b, skey in enumerate(["0", "1"]):
        m, t = model[b, order], target[b, order]
        expected[skey] = {
            "max_abs_error": rounded(np.abs(m - t).max()),
            "table": {
                key: {"model": rounded(mi), "target": rounded(ti),
                      "abs_error": rounded(abs(mi - ti))}
                for key, mi, ti in zip(outcomes, m.tolist(), t.tolist())
            },
        }
    monkeypatch.setattr(cli, "_timestamp", lambda: "T")
    reports = {}
    for fmt in ("json", "csv"):
        out = str(tmp_path / f"report.{fmt}")
        cli._write_report(
            cli.RunConfig("test", {}, None, out, fmt),
            {"per_setting": table, "pass": True}, cli._VERIFY_COLUMNS, table,
        )
        reports[fmt] = (tmp_path / f"report.{fmt}").read_text(encoding="utf-8")
    config = {"command": "test", "format": "json", "out": str(tmp_path / "report.json")}
    assert reports["json"] == json.dumps(
        {"config": config, "timestamp": "T", "per_setting": expected, "pass": True},
        indent=2, ensure_ascii=False,
    ) + "\n"
    assert "-0.0" in reports["json"]

    render = cli._Renderer("csv")
    lines = [ln for ln in reports["csv"].splitlines(True) if not ln.startswith("#")]
    assert list(csv.reader(io.StringIO("".join(lines)))) == [
        list(cli._VERIFY_COLUMNS)
    ] + [
        [skey, key, *(render(cell[k]) for k in ("model", "target", "abs_error"))]
        for skey, block in expected.items()
        for key, cell in block["table"].items()
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_multiparty_scan_flushes_each_row(tmp_path, monkeypatch, fmt):
    out = tmp_path / "scan.out"
    seen = []

    def scan(n_max, **kwargs):
        yield ScanRow(2, Fraction(0), 1, True)
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
