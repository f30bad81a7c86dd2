"""Two-party inefficient model: exact tables, locality, and the sampler."""

from collections import Counter

import numpy as np
import pytest

from lhvmodels.errors import DomainError
from lhvmodels.presets import random_two_party_scenario
from lhvmodels.quantum import (
    NO_CLICK,
    extend_with_inefficiency,
    joint_outcome_table,
    quantum_distribution,
    subset_joint_table,
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


# ---------------------------------------------------------------------------
# bit-for-bit oracle: the per-settings-pair loops the arrays replaced
# ---------------------------------------------------------------------------


def _loop_tables(scenario):
    m_a, m_b = scenario.n_settings
    joint = {
        (x, y): joint_outcome_table(scenario, (x, y))
        for x in range(m_a)
        for y in range(m_b)
    }
    marg_a = [subset_joint_table(scenario, [0], [x]) for x in range(m_a)]
    marg_b = [subset_joint_table(scenario, [1], [y]) for y in range(m_b)]
    return joint, marg_a, marg_b


def _loop_exact_probs(model):
    """The fused table built pair by pair, each "other settings" sum a
    Python ``sum`` from ``np.zeros``."""
    joint, _, _ = _loop_tables(model.scenario)
    m_a, m_b, n_a, n_b = model.m_a, model.m_b, model.n_a, model.n_b
    g = float(model.symmetrization.proceed_prob)
    r = float(model.symmetrization.role_prob)
    w_both = g * (r / m_a + (1.0 - r) / m_b)
    w_alice_silent = g * r / m_a
    w_bob_silent = g * (1.0 - r) / m_b
    probs = np.empty((m_a, m_b, n_a + 1, n_b + 1))
    for x in range(m_a):
        for y in range(m_b):
            b_given_any_a = sum(
                (joint[(xp, y)].sum(axis=0) for xp in range(m_a) if xp != x),
                np.zeros(n_b),
            )
            a_given_any_b = sum(
                (joint[(x, yp)].sum(axis=1) for yp in range(m_b) if yp != y),
                np.zeros(n_a),
            )
            block = probs[x, y]
            block[:-1, :-1] = w_both * joint[(x, y)]
            block[:-1, -1] = w_bob_silent * a_given_any_b
            block[-1, :-1] = w_alice_silent * b_given_any_a
            block[-1, -1] = 1.0 - g
    return probs


def _loop_sampler_tables(model):
    """Cumulative sampler tables built pair by pair: marginals, then
    cond_b[y, x'] and cond_a[x, y']."""

    def cum_rows(m):
        m = np.clip(m, 0.0, None)
        sums = m.sum(axis=-1, keepdims=True)
        safe = np.where(sums > 1e-15, sums, 1.0)
        m = np.where(sums > 1e-15, m / safe, 1.0 / m.shape[-1])
        return np.cumsum(m, axis=-1)

    joint, marg_a, marg_b = _loop_tables(model.scenario)
    m_a, m_b, n_a, n_b = model.m_a, model.m_b, model.n_a, model.n_b
    cond_b = np.empty((m_b, m_a, n_a, n_b))
    for y in range(m_b):
        for xp in range(m_a):
            cond_b[y, xp] = cum_rows(joint[(xp, y)])
    cond_a = np.empty((m_a, m_b, n_b, n_a))
    for x in range(m_a):
        for yp in range(m_b):
            cond_a[x, yp] = cum_rows(joint[(x, yp)].T)
    return cum_rows(np.stack(marg_a)), cum_rows(np.stack(marg_b)), cond_b, cond_a


def _bits(a):
    return [float(v).hex() for v in np.ravel(a)]


@pytest.mark.parametrize(
    "settings", [None, (2, 3), (1, 3), (4, 5)], ids=["chsh", "2x3", "1x3", "4x5"]
)
def test_array_tables_match_pair_loops_bit_for_bit(settings, chsh, random23):
    """The whole-array exact table and sampler tables equal, bit for bit,
    the per-(x, y) loops they replaced.  With four or more settings a side
    the "other settings" sums have three or more terms, so any change in
    the order of a sum shows; with one setting the sum is empty."""
    if settings is None:
        scenario = chsh
    elif settings == (2, 3):
        scenario = random23
    else:
        scenario = random_two_party_scenario(
            np.random.default_rng(sum(settings)), *settings, 3, (2, 2)
        )
    model = TwoPartyModel(scenario)
    assert _bits(model.exact_distribution().probs) == _bits(
        _loop_exact_probs(model)
    )
    marg_a, marg_b, cond_b, cond_a = _loop_sampler_tables(model)
    new = model._sampler_tables
    assert _bits(new[0]) == _bits(marg_a)
    assert _bits(new[1]) == _bits(marg_b)
    assert _bits(new[2]) == _bits(cond_b.transpose(1, 0, 2, 3))
    assert _bits(new[3]) == _bits(cond_a)
