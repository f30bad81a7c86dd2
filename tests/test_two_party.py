"""Two-party inefficient model: exact tables, locality, and the sampler."""

from collections import Counter

import numpy as np
import pytest

from lhvmodels import quantum as quantum_module
from lhvmodels.errors import DomainError, SizeGuardExceeded
from lhvmodels.presets import random_two_party_scenario
from lhvmodels.quantum import (
    CHUNK,
    extend_with_inefficiency,
    joint_outcome_table,
    quantum_distribution,
    subset_joint_table,
)
from lhvmodels.two_party import TwoPartyModel
from lhvmodels.verify import compare_float, statistical_match

TOL = 1e-10


def test_model_rejects_wrong_party_count(ghz3):
    with pytest.raises(DomainError):
        TwoPartyModel(ghz3)


def test_model_size_guard(chsh, monkeypatch):
    # CHSH: M_A M_B (A+1)(B+1) = 2 * 2 * 3 * 3 = 36 entries
    monkeypatch.setattr(quantum_module, "MAX_TABLE_ENTRIES", 36)
    TwoPartyModel(chsh)

    def refuse(*_):
        raise AssertionError("quantum table built past the size guard")

    monkeypatch.setattr("lhvmodels.two_party.joint_outcome_table", refuse)
    monkeypatch.setattr("lhvmodels.two_party.subset_joint_table", refuse)
    monkeypatch.setattr(quantum_module, "MAX_TABLE_ENTRIES", 35)
    with pytest.raises(SizeGuardExceeded):
        TwoPartyModel(chsh)


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
    report = compare_float(model.exact_distribution(), target, tol=TOL)
    assert report.passed, report.worst_cell


def test_conditional_on_clicks_recovers_quantum(random23):
    dist = TwoPartyModel(random23).exact_distribution()
    quantum = quantum_distribution(random23)
    conditional = dist.all_click_conditional()
    assert conditional.shape == quantum.probs.shape
    assert np.max(np.abs(conditional - quantum.probs)) < TOL


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


def test_hidden_variable_enumeration_size_guard(chsh, monkeypatch):
    # CHSH: 2 * 2 * 3 * 3 = 36 cells times 1 + 2 * 2 + 2 * 2 = 9 hidden values
    model = TwoPartyModel(chsh)
    monkeypatch.setattr("lhvmodels.two_party.MAX_ENUMERATION_TERMS", 324)
    model.distribution_by_hidden_enumeration()

    def refuse():
        raise AssertionError("hidden values enumerated past the size guard")

    monkeypatch.setattr(model, "enumerate_hidden_variables", refuse)
    monkeypatch.setattr("lhvmodels.two_party.MAX_ENUMERATION_TERMS", 323)
    with pytest.raises(SizeGuardExceeded, match="324 cell terms"):
        model.distribution_by_hidden_enumeration()


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
    alice_silent = block[-1].sum()  # the silent outcome is last
    assert alice_silent == pytest.approx(1 / 3, abs=1e-12)
    both_silent = block[-1, -1]
    assert both_silent == pytest.approx(1 / 9, abs=1e-12)


def test_sampler_is_reproducible(chsh):
    model = TwoPartyModel(chsh)
    a = model.sample_many((0, 1), 500, np.random.default_rng(11))
    b = model.sample_many((0, 1), 500, np.random.default_rng(11))
    assert np.array_equal(a, b)
    c = model.sample_many((0, 1), 500, np.random.default_rng(12))
    assert not np.array_equal(a, c)


def test_sampler_matches_exact_distribution(chsh, rng):
    model = TwoPartyModel(chsh)
    exact = model.exact_distribution()
    for choice in ((0, 0), (1, 1)):
        counts = model.tabulate(model.sample_many(choice, 60_000, rng))
        report = statistical_match(counts, exact.block(choice), exact.silent)
        assert report.passed, (choice, report.worst_cell)


def test_tabulate_matches_counter_reference(random23, rng):
    model = TwoPartyModel(random23)
    # outcome 1 of each party never occurs; -1 is the silent code
    samples = rng.choice([-1, 0, 2], size=(5_000, 2))
    samples[:3] = [[-1, -1], [2, -1], [-1, 0]]
    # the Counter's pairs laid out as a block: -1 indexes the last position
    expected = np.zeros((model.n_a + 1, model.n_b + 1), dtype=np.int64)
    for (a, b), n in Counter(map(tuple, samples.tolist())).items():
        expected[a, b] = n
    counts = model.tabulate(samples)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, expected)
    assert counts[-1, -1] and not counts[1].any() and not counts[:, 1].any()
    empty = model.tabulate(np.empty((0, 2), dtype=np.int64))
    assert empty.shape == expected.shape and not empty.any()
    for bad in ([[0, 3]], [[3, 0]], [[-2, 0]]):
        with pytest.raises(DomainError):
            model.tabulate(np.array(bad))


def test_sampler_rejects_bad_arguments_before_drawing(chsh):
    model = TwoPartyModel(chsh)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="n=-1"):
        model.sample_many((0, 0), -1, rng)
    # too few settings, too many, one out of range, a negative one
    for bad in ((0,), (0, 0, 7), (2, 0), (0, -1)):
        with pytest.raises(DomainError, match="out of range"):
            model.sample_many(bad, 5, rng)
    assert rng.bit_generator.state == state
    empty = model.sample_many((0, 0), 0, rng)
    assert empty.shape == (0, 2) and empty.dtype == np.int64


def test_sampler_matches_on_random_scenario(random23, rng):
    model = TwoPartyModel(random23)
    exact = model.exact_distribution()
    counts = model.tabulate(model.sample_many((1, 2), 60_000, rng))
    report = statistical_match(counts, exact.block((1, 2)), exact.silent)
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


# ---------------------------------------------------------------------------
# transcript oracle: the sampler that looked up every role for every draw
# ---------------------------------------------------------------------------


def _all_draws_sample_many(model, settings, n, rng):
    """The sampler as it was before draws were split by role: all four
    inverse-CDF lookups for every draw, then the masks pick the outputs."""
    x, y = int(settings[0]), int(settings[1])
    marg_a, marg_b, cond_b, cond_a = model._sampler_tables
    g = float(model.symmetrization.proceed_prob)
    r = float(model.symmetrization.role_prob)
    u = rng.random((5, n))
    proceed = u[0] < g
    alice_guessed = u[1] < r
    set_a = np.minimum((u[2] * model.m_a).astype(np.int64), model.m_a - 1)
    set_b = np.minimum((u[2] * model.m_b).astype(np.int64), model.m_b - 1)
    guess_a = np.sum(u[3][:, None] > marg_a[set_a], axis=1)
    guess_a = np.minimum(guess_a, model.n_a - 1)
    guess_b = np.sum(u[3][:, None] > marg_b[set_b], axis=1)
    guess_b = np.minimum(guess_b, model.n_b - 1)
    resp_b = np.sum(u[4][:, None] > cond_b[set_a, y, guess_a], axis=1)
    resp_b = np.minimum(resp_b, model.n_b - 1)
    resp_a = np.sum(u[4][:, None] > cond_a[x, set_b, guess_b], axis=1)
    resp_a = np.minimum(resp_a, model.n_a - 1)
    out = np.full((n, 2), -1, dtype=np.int64)
    mask = proceed & alice_guessed
    out[mask, 0] = np.where(set_a[mask] == x, guess_a[mask], -1)
    out[mask, 1] = resp_b[mask]
    mask = proceed & ~alice_guessed
    out[mask, 1] = np.where(set_b[mask] == y, guess_b[mask], -1)
    out[mask, 0] = resp_a[mask]
    return out


@pytest.mark.parametrize("name", ["chsh", "random23", "1x3", "3x1", "8x8"])
def test_sampler_transcript_equals_all_draws_oracle(name, chsh, random23):
    """Looking up only what each draw uses changes no output and leaves
    the generator where the all-draws sampler left it, at every settings
    pair, below, at and above one chunk of draws."""
    scenario = {
        "chsh": chsh,
        "random23": random23,
        "1x3": random_two_party_scenario(
            np.random.default_rng(4), 1, 3, 3, (2, 2)
        ),
        "3x1": random_two_party_scenario(
            np.random.default_rng(4), 3, 1, 3, (2, 2)
        ),
        "8x8": random_two_party_scenario(
            np.random.default_rng(1), 8, 8, 4, (3, 3)
        ),
    }[name]
    model = TwoPartyModel(scenario)
    for n in (0, 1, 17, CHUNK + 3):
        for seed in (0, 1):
            for choice in scenario.settings_choices():
                old_rng = np.random.default_rng(seed)
                new_rng = np.random.default_rng(seed)
                expected = _all_draws_sample_many(model, choice, n, old_rng)
                got = model.sample_many(choice, n, new_rng)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (n, seed, choice)
                state = new_rng.bit_generator.state
                assert state == old_rng.bit_generator.state
