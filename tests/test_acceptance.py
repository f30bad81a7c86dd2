"""The package-level acceptance gate.

Each test checks one headline guarantee end to end and records a single
``[ACCEPT] criterion N (...): PASS/FAIL`` line, echoed in the terminal
summary.  Criterion 5's positivity sweep, which also checks the rows of
``positivity_scan`` against it, runs to N=200 by default; set
``LHV_FULL_SCAN=1`` to run the full N=500 release check (about 5 s on a
2-core Xeon under Python 3.11).
"""

import math
import os
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np

from lhvmodels.bounds import (
    eta_all_click,
    eta_multiparty,
    eta_two_party,
    solve_symmetrization,
)
from lhvmodels.dimension import run_dimension_model
from lhvmodels.multiparty import (
    MultipartyModel,
    mixture_from_recursion,
    positivity_scan,
    recursion_r,
    solve_weights,
)
from lhvmodels.presets import computational_povm
from lhvmodels.quantum import extend_with_inefficiency, quantum_distribution
from lhvmodels.two_party import TwoPartyModel
from lhvmodels.verify import compare_float, statistical_match

TOL = 1e-10
SCAN_LIMIT = 500 if os.environ.get("LHV_FULL_SCAN") == "1" else 200


@contextmanager
def criterion(log, number, description):
    try:
        yield
    except BaseException:
        log.append(f"[ACCEPT] criterion {number} ({description}): FAIL")
        print(log[-1])
        raise
    log.append(f"[ACCEPT] criterion {number} ({description}): PASS")
    print(log[-1])


def test_criterion_1_two_party_threshold(acceptance_log):
    with criterion(acceptance_log, 1, "two-party threshold, exact symmetrization"):
        assert eta_two_party(2, 2) == Fraction(2, 3)
        sol = solve_symmetrization(2, 2)
        assert (sol.eta, sol.proceed_prob, sol.role_prob) == (
            Fraction(2, 3),
            Fraction(8, 9),
            Fraction(1, 2),
        )
        assert sol.residuals() == (0, 0, 0, 0)


def test_criterion_2_two_party_model_reproduction(acceptance_log, chsh, random23):
    with criterion(acceptance_log, 2, "two-party model = eta-extended quantum"):
        for scenario in (chsh, random23):
            eta = float(eta_two_party(*scenario.n_settings))
            target = extend_with_inefficiency(
                quantum_distribution(scenario), eta
            )
            report = compare_float(
                TwoPartyModel(scenario).exact_distribution(), target, tol=TOL
            )
            assert report.passed, report.worst_cell


def test_criterion_3_sampler_statistics(acceptance_log, chsh):
    with criterion(acceptance_log, 3, "sampler: 1e6 draws match exactly"):
        model = TwoPartyModel(chsh)
        rng = np.random.default_rng(20_260_823)
        counts = model.tabulate(model.sample_many((0, 0), 1_000_000, rng))
        exact = model.exact_distribution()
        report = statistical_match(counts, exact.block((0, 0)), exact.silent)
        assert report.passed, report.worst_cell


def test_criterion_4_exact_mixture_weights(acceptance_log):
    with criterion(acceptance_log, 4, "exact mixture weights and k=1 row"):
        three = solve_weights(3, 2)
        assert three.eta == Fraction(3, 5)
        assert three.weights == {
            0: Fraction(108, 125),
            2: Fraction(9, 125),
            3: Fraction(8, 125),
        }
        two = solve_weights(2, 2)
        assert two.eta == Fraction(2, 3)
        assert two.weights == {0: Fraction(8, 9), 2: Fraction(1, 9)}
        # the k=1 consistency row is asserted inside solve_weights; a
        # violation raises instead of returning
        for n, m in product(range(2, 21), (2, 3, 5)):
            assert sum(solve_weights(n, m).weights.values()) == 1


def test_criterion_5_positivity_scan(acceptance_log):
    with criterion(
        acceptance_log, 5, f"positivity of r_k up to N={SCAN_LIMIT}"
    ):
        # the scan rows (the path of ``lhv multiparty scan``) are each N's
        # first minimum of the recursion_r list
        for row in positivity_scan(SCAN_LIMIT):
            r = recursion_r(row.n)
            k = min(range(row.n + 1), key=r.__getitem__)
            assert r[k] >= 0, f"negative r_k at N={row.n}"
            assert (row.min_value, row.argmin_k, row.passed) == (r[k], k, True)
        for n, m in product(range(2, 11), (2, 3)):
            assert (
                mixture_from_recursion(n, m).weights
                == solve_weights(n, m).weights
            )


def test_criterion_6_constant_click_ratios(acceptance_log):
    with criterion(acceptance_log, 6, "click ratios constant at eta/(1-eta)"):
        for n, m in product(range(2, 11), (2, 3)):
            mixture = solve_weights(n, m)
            expected = mixture.eta / (1 - mixture.eta)
            ratios = mixture.click_probabilities().ratios()
            assert all(r == expected for r in ratios)


def test_criterion_7_multiparty_model_reproduction(acceptance_log, ghz3):
    with criterion(acceptance_log, 7, "3-party GHZ model = eta-extended quantum"):
        model_dist = MultipartyModel(ghz3).exact_distribution()
        quantum = quantum_distribution(ghz3)
        target = extend_with_inefficiency(quantum, 3 / 5)
        report = compare_float(model_dist, target, tol=TOL)
        assert report.passed, report.worst_cell
        conditional = model_dist.all_click_conditional()
        assert conditional.shape == quantum.probs.shape
        assert np.max(np.abs(conditional - quantum.probs)) <= TOL


def test_criterion_8_dimension_model_statistics(acceptance_log):
    with criterion(acceptance_log, 8, "dimension model Monte Carlo, d=2,3,4"):
        for d in (2, 3, 4):
            povm = computational_povm(d)
            report = run_dimension_model(
                d,
                math.pi / 6,
                povm,
                povm,
                100_000,
                np.random.default_rng(840_000 + d),
            )
            assert report.q[2], f"d={d}: firing rate off"
            assert report.bob[2].all(), f"d={d}"
            assert report.joint[2].all(), f"d={d}"
            assert report.eta_above_bound, f"d={d}"
            assert report.passed, f"d={d}"


def test_criterion_9_bound_tables(acceptance_log):
    with criterion(acceptance_log, 9, "threshold table identities"):
        for n in range(2, 101):
            assert eta_multiparty(n, 2) == Fraction(n, 2 * n - 1)
        assert abs(eta_all_click(2, 2) - 0.707107) <= 1e-6
        for m in range(2, 101):
            ratio = eta_multiparty(2, m) * m
            assert ratio == Fraction(2 * m, m + 1)
            assert ratio <= 2
