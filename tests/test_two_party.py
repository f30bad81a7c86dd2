"""Two-party inefficient model: exact tables, locality, and the sampler."""

from collections import Counter

import numpy as np
import pytest

from lhvmodels.errors import DomainError
from lhvmodels.quantum import (
    NO_CLICK,
    extend_with_inefficiency,
    quantum_distribution,
)
from lhvmodels.two_party import TwoPartyModel, build_exact_distribution
from lhvmodels.verify import compare_float, statistical_match

TOL = 1e-10


def test_model_rejects_wrong_party_count(ghz3):
    with pytest.raises(DomainError):
        TwoPartyModel(ghz3)


def test_exact_distribution_matches_extended_quantum(chsh):
    model = TwoPartyModel(chsh)
    target = extend_with_inefficiency(
        quantum_distribution(chsh), float(model.eta)
    )
    report = compare_float(model.exact_distribution(), target, tol=TOL)
    assert report.passed, report.worst_cell
    assert report.max_abs_error < 1e-14


def test_exact_distribution_matches_on_random_scenario(random23):
    model = TwoPartyModel(random23)
    assert model.eta == pytest.approx(3 / 5)
    target = extend_with_inefficiency(
        quantum_distribution(random23), float(model.eta)
    )
    report = compare_float(build_exact_distribution(random23), target, tol=TOL)
    assert report.passed, report.worst_cell


def test_conditional_on_clicks_recovers_quantum(random23):
    dist = TwoPartyModel(random23).exact_distribution()
    quantum = quantum_distribution(random23)
    for choice in quantum.settings_choices():
        conditional = dist.condition_on_all_clicks(choice)
        block = quantum.block(choice)
        for outcomes, p in conditional.items():
            assert abs(p - block[outcomes]) < TOL


def test_hidden_variable_enumeration_agrees(chsh, random23):
    """The fused table equals an explicit sum over hidden variables whose
    response functions depend only on (lambda, own setting)."""
    for scenario in (chsh, random23):
        model = TwoPartyModel(scenario)
        report = compare_float(
            model.distribution_by_hidden_enumeration(),
            model.exact_distribution(),
            tol=1e-12,
        )
        assert report.passed, report.worst_cell


def test_hidden_variable_weights_normalize(chsh):
    model = TwoPartyModel(chsh)
    total = sum(w for w, _ in model.enumerate_hidden_variables())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_response_functions_are_distributions(chsh):
    model = TwoPartyModel(chsh)
    for weight, lam in model.enumerate_hidden_variables():
        assert weight > 0
        for x in range(2):
            resp = model.respond_alice(lam, x)
            assert resp.min() >= -1e-15
            assert resp.sum() == pytest.approx(1.0, abs=1e-12)
        for y in range(2):
            resp = model.respond_bob(lam, y)
            assert resp.min() >= -1e-15
            assert resp.sum() == pytest.approx(1.0, abs=1e-12)


def test_no_click_rate_matches_efficiency(chsh):
    dist = TwoPartyModel(chsh).exact_distribution()
    block = dist.block((0, 0))
    alice_silent = sum(p for (a, _b), p in block.items() if a is NO_CLICK)
    assert alice_silent == pytest.approx(1 / 3, abs=1e-12)
    both_silent = block[(NO_CLICK, NO_CLICK)]
    assert both_silent == pytest.approx(1 / 9, abs=1e-12)


def test_sampler_is_reproducible(chsh):
    model = TwoPartyModel(chsh)
    a = model.sample_many((0, 1), 500, np.random.default_rng(11))
    b = model.sample_many((0, 1), 500, np.random.default_rng(11))
    assert np.array_equal(a, b)
    c = model.sample_many((0, 1), 500, np.random.default_rng(12))
    assert not np.array_equal(a, c)


def test_sample_returns_outcome_labels(chsh, rng):
    outcome = TwoPartyModel(chsh).sample((1, 0), rng)
    assert len(outcome) == 2
    for o in outcome:
        assert o is NO_CLICK or o in (0, 1)


def test_sampler_matches_exact_distribution(chsh, rng):
    model = TwoPartyModel(chsh)
    exact = model.exact_distribution()
    for choice in ((0, 0), (1, 1)):
        counts = model.tabulate(model.sample_many(choice, 60_000, rng))
        report = statistical_match(counts, exact.block(choice))
        assert report.passed, (choice, report.worst_cell)


def test_tabulate_matches_counter_reference(random23, rng):
    model = TwoPartyModel(random23)
    # outcome 1 of each party never occurs; -1 is the silent code
    samples = rng.choice([-1, 0, 2], size=(5_000, 2))
    samples[:3] = [[-1, -1], [2, -1], [-1, 0]]
    labels_a = model.scenario.alphabet(0)
    labels_b = model.scenario.alphabet(1)
    expected = {
        (
            NO_CLICK if a < 0 else labels_a[a],
            NO_CLICK if b < 0 else labels_b[b],
        ): n
        for (a, b), n in sorted(Counter(map(tuple, samples.tolist())).items())
    }
    counts = model.tabulate(samples)
    assert list(counts.items()) == list(expected.items())
    assert all(type(n) is int for n in counts.values())
    assert model.tabulate(np.empty((0, 2), dtype=np.int64)) == {}
    with pytest.raises(DomainError):
        model.tabulate(np.array([[0, 3]]))


def test_sampler_matches_on_random_scenario(random23, rng):
    model = TwoPartyModel(random23)
    exact = model.exact_distribution()
    counts = model.tabulate(model.sample_many((1, 2), 60_000, rng))
    report = statistical_match(counts, exact.block((1, 2)))
    assert report.passed, report.worst_cell
