"""Print one digest per ``lhv`` report for a fixed list of invocations.

Each line is ``sha256[:12] format argv`` of one report, with the timestamp
value blanked.  Scenario files are written to a temporary directory and
named relative to it, so two processes print the same lines exactly when
the reports are the same byte for byte.  The invocations are the layout
cases of ``tests/test_cli.py`` and the benchmark's dimension and sampling
runs, each in JSON and CSV.

Run from the repository root: ``PYTHONPATH=src python scripts/report_digests.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_cli import _layout_cases  # noqa: E402

from lhvmodels.cli import main  # noqa: E402
from lhvmodels.presets import chsh_scenario, ghz_scenario, random_two_party_scenario  # noqa: E402
from lhvmodels.quantum import scenario_to_json  # noqa: E402

SCENARIOS = {
    "chsh.json": chsh_scenario(),
    "ghz3.json": ghz_scenario(3),
    "wide.json": random_two_party_scenario(np.random.default_rng(2), 11, 3, 11, (2, 3)),
    "ghz5.json": ghz_scenario(5),
    "bell.json": random_two_party_scenario(np.random.default_rng(0), 8, 8, 4, (3, 3)),
}
TIMESTAMP = re.compile(r'("timestamp": "|# timestamp=)[^"\n]*')


def invocations() -> list[list[str]]:
    return _layout_cases("chsh.json", "ghz3.json", ("wide.json", "ghz5.json")) + [
        ["dim-model", "verify", "--d", "4", "--delta", "0.5236",
         "--samples", "1000000", "--seed", "5"],
        ["two-party", "verify", "--scenario", "bell.json",
         "--samples", "25000", "--seed", "11"],
    ]


def digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    text = TIMESTAMP.sub(r"\1", out.getvalue())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, scenario in SCENARIOS.items():
            Path(name).write_text(json.dumps(scenario_to_json(scenario)), encoding="utf-8")
        for argv in invocations():
            for fmt in ("json", "csv"):
                print(digest(argv + ["--format", fmt]), fmt, " ".join(argv), flush=True)
