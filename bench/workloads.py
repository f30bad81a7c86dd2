"""The benchmark's workloads: the inputs each builds from the workload seed,
the ``lhv`` arguments it runs, the work one invocation does, and the checks
its report must pass.

Each workload stresses one layer of ``lhvmodels`` and leaves the others
idle, so that a change to one layer has a workload where it shows and one
where the prediction is no change:

* ``scan``: the exact layer (``recursion_r`` in pure ``Fraction``);
* ``ghz-verify``: the dict-keyed outcome tables, the comparison and the
  per-setting report, with the exact layer idle;
* ``bell-sample``: the two-party sampler and ``tabulate``, on many small
  blocks;
* ``dim-mc``: the dimension-d Monte Carlo model, its only caller.

The package's own presets build the scenarios; the CLI receives only the
resulting scenario files and arguments.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

#: sha256 of the exact r_0..r_N of ``recursion_r`` at each N of
#: ``Scan.r_check`` (see ``child.r_check``), per ``--n-max``, recorded from
#: the Fraction recursion.  A speed-up of the exact layer may not change any
#: of these values.  The scan rows alone cannot show a wrong value: every
#: row's minimum is r_1 = 0 at k = 1 while all r_k are non-negative.
R_DIGESTS = {
    10: "7d7d2156c84a58cddcd2106b602cebb4bf7e65007bfaa4ed59506ce35af1a288",
    150: "314167f49a1822738ea5d4c87030f253eea2624a1f29da71ec85da72f98e581b",
}


@dataclass(frozen=True)
class Check:
    """What one report showed.

    ``error`` is empty when the report is correct.  ``stat_checks`` and
    ``stat_rejects`` count the statistical checks run on a model that is
    exact by construction, and those that rejected it; a rejection is a
    property of the check, not a failed operation.
    """

    error: str = ""
    stat_checks: int = 0
    stat_rejects: int = 0


def _sub_seed(seed: int, i: int) -> int:
    """The CLI ``--seed`` of invocation ``i``, derived from the workload
    seed (63 bits, like the CLI's own default)."""
    import numpy as np

    state = np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)
    return int(state[0]) >> 1


def _write_scenario(scenario, path: Path) -> str:
    from lhvmodels.quantum import scenario_to_json

    path.write_text(json.dumps(scenario_to_json(scenario)), encoding="utf-8")
    return str(path)


class Scan:
    """``lhv multiparty scan --n-max N --format csv``."""

    name = "scan"
    work_unit = "N values"
    layer = "exact (multiparty.positivity_scan, recursion_r)"

    def __init__(self, n_max: int = 150):
        self.n_max = n_max
        self.work = n_max - 1
        self.scenario = None
        self.r_check = (2, n_max // 2, n_max)

    def prepare(self, seed: int, workdir: Path) -> None:
        """The scan has no random input; the seed changes nothing."""

    def argv(self, i: int) -> list[str]:
        return ["multiparty", "scan", "--n-max", str(self.n_max), "--format", "csv"]

    def check(self, res: dict) -> Check:
        if res["rc"] != 0:
            return Check(f"exit status {res['rc']}")
        with open(res["out"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        header, rows = rows[0], rows[1:]
        if header != ["n", "mode", "min_value", "argmin_k", "pass"]:
            return Check(f"unexpected header {header}")
        if [int(r[0]) for r in rows] != list(range(2, self.n_max + 1)):
            return Check("rows do not cover N=2..n_max")
        if any(r[4] != "true" for r in rows):
            return Check("a row did not pass")
        digest = res["r_check"]["digest"]
        if digest != R_DIGESTS.get(self.n_max):
            return Check(f"recursion_r digest {digest} differs")
        for n, (value, k) in res["r_check"]["minima"].items():
            row = rows[int(n) - 2]
            if Fraction(row[2]) != Fraction(value) or int(row[3]) != k:
                return Check(f"row N={n} reports {row[2]} at k={row[3]}, r has {value} at {k}")
        return Check()


class GhzVerify:
    """``lhv multiparty verify`` on the N-qubit GHZ preset.

    GHZ-5 (7,776 cells, about 0.5 s a call) rather than GHZ-6 (46,656
    cells, about 5 s): on a shared 2-core host one call's time varies by
    +-15%, and the median of the ~5 GHZ-6 calls a run fits spread by
    0.19-0.26 between runs, against 0.10-0.12 for the ~35 GHZ-5 calls.
    """

    name = "ghz-verify"
    work_unit = "cells"
    layer = "outcome tables, comparison and the per-setting report"

    def __init__(self, n: int = 5, tol: float = 1e-10):
        self.n = n
        self.tol = tol
        self.work = 2**n * 3**n
        self.scenario = None
        self.r_check = None

    def prepare(self, seed: int, workdir: Path) -> None:
        """The GHZ preset has no random input; the seed changes nothing."""
        from lhvmodels.presets import ghz_scenario

        self.scenario = _write_scenario(ghz_scenario(self.n), workdir / "ghz.json")

    def argv(self, i: int) -> list[str]:
        return ["multiparty", "verify", "--scenario", self.scenario, "--tol", str(self.tol)]

    def check(self, res: dict) -> Check:
        rc, out = res["rc"], res["out"]
        if rc != 0:
            return Check(f"exit status {rc}")
        report = json.loads(out.read_text(encoding="utf-8"))
        if report.get("pass") is not True:
            return Check("report does not pass")
        cells = sum(len(s["table"]) for s in report["per_setting"].values())
        if cells != self.work:
            return Check(f"{cells} cells in the report, expected {self.work}")
        if not report["comparison"]["max_abs_error"] <= self.tol:
            return Check("max_abs_error above tol")
        return Check()


class BellSample:
    """``lhv two-party verify --samples S`` on a seeded random scenario.

    The same comparison layer as ``ghz-verify`` on many small blocks
    (64 x 25 cells): a change there that helps one and costs the other
    shows on one of the two.  25,000 draws per block (about 2.3 s a call)
    rather than 100,000 (about 9 s), so that a run's median rests on ~10
    calls, not 2 or 3.
    """

    name = "bell-sample"
    work_unit = "draws"
    layer = "two_party sampler and tabulate"

    def __init__(self, m: int = 8, outcomes: int = 4, dims=(3, 3), samples: int = 25_000):
        self.m = m
        self.outcomes = outcomes
        self.dims = tuple(dims)
        self.samples = samples
        self.work = m * m * samples
        self.scenario = None
        self.r_check = None
        self.seed = 0

    def prepare(self, seed: int, workdir: Path) -> None:
        import numpy as np
        from lhvmodels.presets import random_two_party_scenario

        rng = np.random.default_rng(seed)
        scenario = random_two_party_scenario(rng, self.m, self.m, self.outcomes, self.dims)
        self.scenario = _write_scenario(scenario, workdir / "bell.json")
        self.seed = seed

    def argv(self, i: int) -> list[str]:
        return [
            "two-party", "verify", "--scenario", self.scenario,
            "--samples", str(self.samples), "--seed", str(_sub_seed(self.seed, i)),
        ]

    def check(self, res: dict) -> Check:
        rc, out = res["rc"], res["out"]
        # exit 1 is what a statistical rejection gives; it is checked below
        if rc not in (0, 1):
            return Check(f"exit status {rc}")
        report = json.loads(out.read_text(encoding="utf-8"))
        if not report["comparison"]["pass"]:
            return Check("exact comparison failed")
        if not report["conditional_on_clicks"]["pass"]:
            return Check("conditional-on-clicks check failed")
        checks = report["sampling"]["checks"]
        if len(checks) != self.m * self.m:
            return Check(f"{len(checks)} sampled blocks, expected {self.m * self.m}")
        if any(c["n_samples"] != self.samples for c in checks.values()):
            return Check("a block's counts do not sum to --samples")
        rejects = sum(not c["pass"] for c in checks.values())
        if (rc == 0) != (rejects == 0):
            return Check(f"exit status {rc} with {rejects} rejected blocks")
        return Check("", len(checks), rejects)


class DimMc:
    """``lhv dim-model verify --d D --delta X --samples S``.

    delta = pi/6 fires about 15.7k of 10^6 hidden states at d=4; the
    ``--epsilon 1.0`` angle fires about 2, too few for a verdict.
    """

    name = "dim-mc"
    work_unit = "draws"
    layer = "dimension.run_dimension_model"

    def __init__(self, d: int = 4, delta: float = 0.5236, samples: int = 1_000_000):
        self.d = d
        self.delta = delta
        self.samples = samples
        self.work = samples
        self.scenario = None
        self.r_check = None
        self.seed = 0

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def argv(self, i: int) -> list[str]:
        return [
            "dim-model", "verify", "--d", str(self.d), "--delta", str(self.delta),
            "--samples", str(self.samples), "--seed", str(_sub_seed(self.seed, i)),
        ]

    def check(self, res: dict) -> Check:
        rc, out = res["rc"], res["out"]
        # exit 1 is what a statistical rejection gives; it is checked below
        if rc not in (0, 1):
            return Check(f"exit status {rc}")
        report = json.loads(out.read_text(encoding="utf-8"))
        if report["eta_above_bound"] is not True:
            return Check("eta below the efficiency bound")
        if not report["n_fired"] > 0:
            return Check("no hidden state fired")
        if report["n_samples"] != self.samples:
            return Check("n_samples differs from --samples")
        # the marginal checks' flags are numpy booleans, which the report
        # renders as the strings "True"/"False"
        passes = [report["q_pass"]] + [
            c["pass"]
            for part in ("cells", "alice_marginal", "bob_marginal")
            for c in report[part]
        ]
        rejects = sum(p not in (True, "True") for p in passes)
        if (rc == 0) != (rejects == 0):
            return Check(f"exit status {rc} with {rejects} rejected checks")
        return Check("", len(passes), rejects)


#: The measured workloads, at the sizes the benchmark fixes.
WORKLOADS = {
    "scan": Scan,
    "ghz-verify": GhzVerify,
    "bell-sample": BellSample,
    "dim-mc": DimMc,
}

#: The same code paths on tiny inputs, for the harness self-test.
TINY = {
    "scan": lambda: Scan(n_max=10),
    "ghz-verify": lambda: GhzVerify(n=3),
    "bell-sample": lambda: BellSample(m=2, outcomes=2, dims=(2, 2), samples=1000),
    "dim-mc": lambda: DimMc(d=2, samples=10_000),
}
