"""Comparison reports: tolerance-based and statistical."""

import numpy as np
import pytest

from lhvmodels.errors import DomainError, StructuralError
from lhvmodels.quantum import OutcomeDistribution
from lhvmodels import verify
from lhvmodels.verify import compare_float, statistical_match, tv_distance


def _dist(p):
    """Two-outcome single-setting distribution with P(0,0) = p."""
    probs = np.array([[[[p, 1.0 - p], [0.0, 0.0]]]])
    return OutcomeDistribution(((0, 1), (0, 1)), probs)


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
        ((0, 1), (0, 1)),
        np.array([[[[0.5, 0.5], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]),
    )
    with pytest.raises(StructuralError):
        compare_float(_dist(0.5), other)


def test_tv_distance_extremes():
    assert tv_distance({0: 1.0, 1: 0.0}, {0: 1.0, 1: 0.0}) == 0.0
    assert tv_distance({0: 1.0, 1: 0.0}, {0: 0.0, 1: 1.0}) == pytest.approx(1.0)
    assert tv_distance({0: 0.75, 1: 0.25}, {0: 0.25, 1: 0.75}) == pytest.approx(0.5)


def test_tv_distance_is_correctly_rounded():
    # a left-to-right sum gives 0.5 * 0.6000000000000001 = 0.30000000000000004
    assert tv_distance({0: 0.1, 1: 0.2, 2: 0.3}, {}) == 0.3


def test_statistical_match_fair_coin(rng):
    n = 200_000
    draws = rng.integers(0, 2, size=n)
    counts = {(0,): int(np.sum(draws == 0)), (1,): int(np.sum(draws == 1))}
    report = statistical_match(counts, {(0,): 0.5, (1,): 0.5})
    assert report.passed
    assert report.mode == "statistical"
    assert report.n_samples == n


def test_statistical_match_detects_bias():
    counts = {(0,): 60_000, (1,): 40_000}
    report = statistical_match(counts, {(0,): 0.5, (1,): 0.5})
    assert not report.passed
    assert report.failing_cells == 2


def test_statistical_match_needs_enough_samples():
    with pytest.raises(DomainError):
        statistical_match({(0,): 10, (1,): 12}, {(0,): 0.5, (1,): 0.5})


def test_statistical_match_sigma_factor(monkeypatch):
    # ~2.4 sigma away: fails at 2, passes at 3
    n, k = 10_000, 5_120
    counts = {(0,): k, (1,): n - k}
    target = {(0,): 0.5, (1,): 0.5}
    assert statistical_match(counts, target).passed
    monkeypatch.setattr(verify, "SIGMA_FACTOR", 2.0)
    report = statistical_match(counts, target)
    assert not report.passed and report.sigma_bound == 2.0


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
