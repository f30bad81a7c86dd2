"""Comparison reports: tolerance-based and statistical."""

import numpy as np
import pytest

from lhvmodels.errors import DomainError, StructuralError
from lhvmodels.quantum import OutcomeDistribution
from lhvmodels import verify
from lhvmodels.verify import compare_float, statistical_match

def _dist(p):
    """Two-outcome single-setting distribution with P(0,0) = p."""
    probs = np.array([[[[p, 1.0 - p], [0.0, 0.0]]]])
    return OutcomeDistribution(probs, silent=False)


def test_compare_float_reports_first_tied_cell():
    a = _dist(0.25)
    report = compare_float(a, _dist(0.25))
    assert report.passed and report.max_abs_error == 0.0
    assert report.failing_cells == 0 and report.tv_distance == 0.0

    # P(0,0) and P(0,1) both move by exactly 0.25: the first in C order wins
    report = compare_float(a, _dist(0.5))
    assert not report.passed and report.mode == "float"
    assert report.failing_cells == 2  # the changed cell and its complement
    assert report.max_abs_error == 0.25 and report.tv_distance == 0.25
    assert report.worst_cell == "settings=(0,0) outcomes=(0,0)"


def test_compare_float_tolerance_boundary():
    a = _dist(0.5)
    assert compare_float(a, _dist(0.5 + 1e-12), tol=1e-10).passed
    report = compare_float(a, _dist(0.5 + 1e-8), tol=1e-10)
    assert not report.passed
    assert report.max_abs_error == pytest.approx(1e-8, rel=1e-3)


def test_compare_rejects_mismatched_tables():
    # settings (0, 0) and (0, 1) against the single settings choice (0, 0)
    other = OutcomeDistribution(
        np.array([[[[0.5, 0.5], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]),
        silent=False,
    )
    with pytest.raises(StructuralError):
        compare_float(_dist(0.5), other)


def test_compare_rejects_tables_that_differ_only_in_silence():
    # the same array read with and without a silent last position
    probs = _dist(0.5).probs
    silent = OutcomeDistribution(probs, silent=True)
    with pytest.raises(StructuralError, match="silent"):
        compare_float(_dist(0.5), silent)
    with pytest.raises(StructuralError, match="silent"):
        compare_float(silent, _dist(0.5))
    assert compare_float(silent, OutcomeDistribution(probs, silent=True)).passed


def test_statistical_tv_distance_extremes():
    one = np.array([1.0, 0.0])
    assert statistical_match(np.array([1000, 0]), one, False).tv_distance == 0.0
    assert statistical_match(np.array([0, 1000]), one, False).tv_distance == 1.0
    half = np.array([0.75, 0.25])
    assert statistical_match(np.array([250, 750]), half, False).tv_distance == 0.5


def test_statistical_tv_distance_is_correctly_rounded():
    # the errors are 0.7, 0.2 and 0.9, which a left-to-right sum adds to
    # 1.7999999999999998
    report = statistical_match(np.array([0, 0, 1000]), [0.7, 0.2, 0.1], False)
    assert 0.5 * (0.7 + 0.2 + 0.9) != 0.9
    assert report.tv_distance == 0.9
    assert report.max_abs_error == 0.9 and report.worst_cell == "(2,)"


def test_statistical_match_fair_coin(rng):
    n = 200_000
    draws = rng.integers(0, 2, size=n)
    counts = np.bincount(draws, minlength=2)
    report = statistical_match(counts, np.array([0.5, 0.5]), False)
    assert report.passed
    assert report.mode == "statistical"
    assert report.n_samples == n


def test_statistical_match_detects_bias():
    report = statistical_match(np.array([60_000, 40_000]), np.array([0.5, 0.5]), False)
    assert not report.passed
    assert report.failing_cells == 2


def test_statistical_match_needs_enough_samples():
    with pytest.raises(DomainError):
        statistical_match(np.array([10, 12]), np.array([0.5, 0.5]), False)
    with pytest.raises(DomainError, match="negative"):
        statistical_match(np.array([-1, 200]), np.array([0.5, 0.5]), False)


def test_statistical_match_sigma_factor(monkeypatch):
    # ~2.4 sigma away: fails at 2, passes at 3
    n, k = 10_000, 5_120
    counts = np.array([k, n - k])
    target = np.array([0.5, 0.5])
    assert statistical_match(counts, target, False).passed
    monkeypatch.setattr(verify, "SIGMA_FACTOR", 2.0)
    report = statistical_match(counts, target, False)
    assert not report.passed and report.sigma_bound == 2.0


def test_statistical_match_names_first_tied_cell_in_c_order():
    # 11 outcomes and the silent one: "(10,)" sorts before "(2,)" as a
    # string, but cell 2 comes first in C order; both are off by 5/1024
    target = np.array([86] * 4 + [85] * 8) / 1024
    counts = np.array([86] * 4 + [85] * 8)
    counts[[2, 10]] += 5
    counts[[3, 4, 5]] -= [3, 3, 4]
    report = statistical_match(counts, target, True)
    assert counts.sum() == 1024 and report.max_abs_error == 5 / 1024
    assert report.worst_cell == "(2,)"
    # the silent outcome last, labelled as in the reports
    counts = np.array([[25, 25], [25, 25]])
    target = np.array([[0.25, 0.5], [0.25, 0.0]])
    assert statistical_match(counts, target, True).worst_cell == "(0, ∅)"
    assert statistical_match(counts, target, False).worst_cell == "(0, 1)"


def test_statistical_match_rejects_mismatched_shapes():
    with pytest.raises(StructuralError):
        statistical_match(np.array([50, 50, 0]), np.array([0.5, 0.5]), False)
    with pytest.raises(StructuralError):
        statistical_match(np.array([[50, 50]]), np.array([0.5, 0.5]), False)


@pytest.mark.parametrize("slack", [0.0, 2.0**-7])
def test_sigma_band_edge(slack):
    # p = 1/2 at n = 2^16 makes sigma = 2^-9 exact, so an error of exactly
    # slack + 3 sigma is a float on either side of p: it passes, and the
    # next float outward fails (counts scaled by the power of two n are
    # exact, so the frequencies are the ones written here)
    n, p = 2**16, 0.5
    edge = slack + verify.SIGMA_FACTOR * 2.0**-9
    freq = np.array([p + edge, p - edge])
    freq = np.concatenate([freq, np.nextafter(freq, [1.0, 0.0])])
    got, sigma, passed = verify.sigma_band(freq * n, n, p, slack)
    np.testing.assert_array_equal(got, freq)
    assert (sigma == 2.0**-9).all()
    assert passed.tolist() == [True, True, False, False]
