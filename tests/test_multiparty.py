"""N-party protocol family: click probabilities, the exact rational weight
solve, the positivity recursion, and the full model against quantum."""

import random
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from lhvmodels import multiparty as multiparty_module
from lhvmodels import quantum as quantum_module
from lhvmodels.bounds import eta_multiparty
from lhvmodels.errors import ConsistencyError, DomainError, SizeGuardExceeded
from lhvmodels.multiparty import (
    MultipartyModel,
    _first_min,
    check_report_digits,
    mixture_from_recursion,
    positivity_scan,
    protocol_click_probabilities,
    q_i_k,
    q_prime,
    recursion_r,
    solve_weights,
)
from lhvmodels.presets import ghz_scenario
from lhvmodels.quantum import (
    extend_with_inefficiency,
    quantum_distribution,
)
from lhvmodels.two_party import TwoPartyModel
from lhvmodels.verify import compare_float, statistical_match

TOL = 1e-10


# ---------------------------------------------------------------------------
# single-protocol click-pattern probabilities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, m, i, k, expected",
    [
        (3, 2, 0, 0, Fraction(1, 4)),
        (3, 2, 0, 1, Fraction(1, 6)),
        (3, 2, 2, 2, Fraction(1, 3)),
        (3, 2, 2, 3, Fraction(0)),  # forced-silent party count can't grow
        (3, 2, 2, 1, Fraction(0)),  # ...nor shrink below i
        (3, 2, 3, 3, Fraction(1)),
        (5, 2, 3, 4, Fraction(1, 10)),
    ],
)
def test_click_probability_spot_values(n, m, i, k, expected):
    assert q_i_k(n, m, i, k) == expected


def test_click_probability_rejects_single_forced_party():
    with pytest.raises(DomainError):
        q_i_k(3, 2, 1, 1)


def test_click_patterns_cover_all_outcomes():
    """Summing q(k) over all C(n,k) silent subsets gives a distribution."""
    for n in range(2, 9):
        for m in (2, 3):
            for i in [0] + list(range(2, n + 1)):
                assert protocol_click_probabilities(n, m, i).total() == 1


def test_q_prime_strips_setting_dependence():
    for n in range(2, 8):
        for i in [0] + list(range(2, n)):
            for k in range(i, n + 1):
                scaled = q_prime(n, i, k) * Fraction(
                    (2 - 1) ** (k - i), 2 ** (n - i - 1)
                )
                assert q_i_k(n, 2, i, k) == scaled
    assert q_prime(5, 5, 5) == 1  # all-silent protocol, setting-free by fiat


def test_single_protocol_ratios_are_not_constant():
    """No lone protocol mimics independent detectors for n >= 3; the
    leading ratio q(0)/q(1) overshoots n/((n-1)(m-1))... which is exactly
    why the mixture is needed."""
    for n, m in ((3, 2), (4, 2), (3, 3)):
        probs = protocol_click_probabilities(n, m, 0)
        assert probs.values[0] / probs.values[1] == Fraction(
            n, (n - 1) * (m - 1)
        )
        ratios = [r for r in probs.ratios() if r is not None]
        assert len(set(ratios)) > 1


# ---------------------------------------------------------------------------
# the positivity recursion
# ---------------------------------------------------------------------------


def test_recursion_boundary_values():
    r = recursion_r(6)
    assert r[0] == 1
    assert r[1] == 0
    assert len(r) == 7


def test_recursion_two_silent_closed_form():
    for n in range(2, 51):
        assert recursion_r(n)[2] == Fraction(n * (n - 1) // 2, n * n)


def test_recursion_all_silent_closed_form():
    for n in range(2, 201):
        assert recursion_r(n)[-1] == Fraction(n - 1, n) ** n


def _reference_recursion_r(n):
    """The recursion's defining sum in plain Fraction arithmetic, one gcd
    per term: an oracle for the first-order recurrence of ``recursion_r``
    that shares none of its algebra."""
    r = [Fraction(1), Fraction(0)]
    u = [Fraction(1, n), Fraction(0)]  # u_i = r_i / (C(N,i) * (N-i))
    for k in range(2, n + 1):
        c_km1 = 1  # C(k-1, i)
        c_k = 1  # C(k, i)
        lead = (n - 1) * (n - k + 1)
        tail = n * (n - k)
        acc = Fraction(0)
        for i in range(k):
            acc += u[i] * (lead * c_km1 - tail * c_k)
            c_km1 = c_km1 * (k - 1 - i) // (i + 1)
            c_k = c_k * (k - i) // (i + 1)
        r_k = acc * comb(n, k) / n
        r.append(r_k)
        u.append(r_k / (comb(n, k) * (n - k)) if k < n else Fraction(0))
    return r


def test_recursion_matches_fraction_reference():
    for n in range(2, 61):
        r = recursion_r(n)
        assert r == _reference_recursion_r(n)
        assert all(type(v) is Fraction for v in r)


def _integer_loop_recursion_r(n):
    """The defining sum run fraction-free, O(N) integer terms per r_k:
    the row terms u_i = r_i / (C(N,i) * (N-i)) are kept as integers W_i
    over one common denominator S, rescaled by N(N-k) after each step."""
    r = [Fraction(1), Fraction(0)]
    w = [1, 0]  # u_i = w[i] / s
    s = n
    for k in range(2, n + 1):
        c_km1 = 1  # C(k-1, i), updated incrementally over i
        c_k = 1  # C(k, i)
        lead = (n - 1) * (n - k + 1)
        tail = n * (n - k)
        acc = 0
        for i in range(k):
            acc += w[i] * (lead * c_km1 - tail * c_k)
            c_km1 = c_km1 * (k - 1 - i) // (i + 1)
            c_k = c_k * (k - i) // (i + 1)
        r.append(Fraction(acc * comb(n, k), n * s))
        if k < n:
            w = [v * tail for v in w]
            w.append(acc)
            s *= tail
    return r


def test_recursion_matches_integer_loop():
    for n in range(2, 151):
        assert recursion_r(n) == _integer_loop_recursion_r(n)


def test_recursion_even_terms_positive():
    """For even k < N the integrand t^(N-1-k) ((N-1) - N t)^k of S_k is
    non-negative and not identically zero, so r_k > 0 (and r_N > 0)."""
    for n in range(2, 201):
        r = recursion_r(n)
        assert all(r[k] > 0 for k in range(0, n + 1, 2))


def test_recursion_two_step_identity_and_signs():
    """The last link of the positivity proof in ``recursion_r``, on the
    values it returns: S_1 = 0, S_k = ((k-1)(N+1) + k(k-1) N^2 S_(k-2)) /
    ((N-k+1)(N-k)) for every odd 3 <= k < N, and S_k >= 0 throughout."""
    for n in range(2, 301):
        r = recursion_r(n)
        s = [r[k] * n**k / (comb(n, k) * (n - k)) for k in range(n)]
        assert s[0] == Fraction(1, n) and s[1] == 0
        for k in range(3, n, 2):
            assert s[k] == Fraction(
                (k - 1) * (n + 1) + k * (k - 1) * n * n * s[k - 2],
                (n - k + 1) * (n - k),
            ), (n, k)
        assert min(s) >= 0
        assert [k for k, v in enumerate(r) if v == 0] == [1]


#: (N, k) pairs of the proof-link tests: every 1 <= k < N for small N, and
#: sampled k up to N - 1 at large N, where the cancellation is largest.
_LINK_SMALL = [(n, k) for n in range(2, 31) for k in range(1, n)]
_LINK_LARGE = [(499, k) for k in (2, 3, 17, 249, 497, 498)] + [
    (n, k) for n in (1999, 2000) for k in (2, 17, n // 2, n - 2, n - 1)
]


def _binomials(k):
    """C(k, 0), ..., C(k, k)."""
    row = [1]
    for i in range(k):
        row.append(row[-1] * (k - i) // (i + 1))
    return row


def _s_closed(n, k):
    """S_k = sum_j C(k,j) (N-1)^j (-N)^(k-j) / (N-j), the term-by-term
    integral of t^(N-1-k) ((N-1) - N t)^k over [0, 1].  The terms are
    integers over the common denominator D = prod_(j<=k) (N-j), each made
    from the last by small-integer factors (exact divisions)."""
    den = 1
    for j in range(k + 1):
        den *= n - j
    term = (-n) ** k * (den // n)  # j = 0
    total = term
    for j in range(k):
        term = term * (k - j) * (n - 1) * (n - j) // ((j + 1) * -n * (n - j - 1))
        total += term
    return Fraction(total, den)


def _v_closed(n, k):
    """V(k) = (N-1)^k / (N^k (N-k))."""
    return Fraction((n - 1) ** k, n**k * (n - k))


def _check_link_1(n, k):
    """Link 1 at one (N, k): whatever r_0..r_(k-1) are, the defining sum's
    r_k gives (N-k) V(k) = (N-1)/N (N-k+1) V(k-1), with u_i = r_i /
    (C(N,i) (N-i)) and V(k) = sum_(i<=k) C(k,i) u_i."""
    rng = random.Random(n * 100_003 + k)
    u = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
    c_n = _binomials(n)
    r = [u[i] * c_n[i] * (n - i) for i in range(k)]
    c = Fraction(n - 1, n)
    r_k = c_n[k] * sum(
        r[i] * (c * q_prime(n, i, k - 1) - q_prime(n, i, k)) for i in range(k)
    )
    u.append(r_k / (c_n[k] * (n - k)))
    v_prev = sum(b * x for b, x in zip(_binomials(k - 1), u))
    v_k = sum(b * x for b, x in zip(_binomials(k), u))
    assert (n - k) * v_k == c * (n - k + 1) * v_prev, (n, k)


def test_positivity_link_1_defining_sum_gives_the_v_recurrence():
    """Link 1, for arbitrary earlier r_i; the closed form V(k) =
    (N-1)^k / (N^k (N-k)) solves the recurrence from V(0) = V(1) = 1/N
    (the defining sum's r_1 = 0 from r_0 = 1)."""
    # at most one k near N = 2000: q_prime's exact binomials cost ~1 s there
    large = [(n, k) for n, k in _LINK_LARGE if k < 500 or k == n - 1 == 1999]
    for n, k in _LINK_SMALL + large:
        if k >= 2:
            _check_link_1(n, k)
        c = Fraction(n - 1, n)
        assert (n - k) * _v_closed(n, k) == c * (n - k + 1) * _v_closed(n, k - 1)
    for n in range(2, 31):
        # the defining sum's r_1 = N (c q'_0(0) - q'_0(1)) vanishes
        assert Fraction(n - 1, n) * q_prime(n, 0, 0) == q_prime(n, 0, 1)
        assert _v_closed(n, 0) == _v_closed(n, 1) == Fraction(1, n)


def test_positivity_link_2_binomial_inversion():
    """Link 2: u_k = S_k / N^k has the binomial transform V(k) of link 1,
    sum_(i<=k) C(k,i) u_i = V(k), so it is the transform's inverse: every
    k < N on the small grid, and k <= 12, 100 and 200 at large N."""
    for n in range(2, 31):
        u = [_s_closed(n, i) / n**i for i in range(n)]
        for k in range(n):
            assert sum(b * x for b, x in zip(_binomials(k), u)) == _v_closed(n, k)
    for n in (499, 1999, 2000):
        u = [_s_closed(n, i) / n**i for i in range(201)]
        for k in [*range(13), 100, 200]:
            assert sum(b * x for b, x in zip(_binomials(k), u)) == _v_closed(n, k)


def test_positivity_link_3_integration_by_parts():
    """Link 3: S_0 = 1/N and S_k = ((-1)^k + k N S_(k-1)) / (N-k)."""
    for n, k in _LINK_SMALL + _LINK_LARGE:
        assert _s_closed(n, 0) == Fraction(1, n)
        s_prev = _s_closed(n, k - 1)
        assert _s_closed(n, k) == ((-1) ** k + k * n * s_prev) / (n - k), (n, k)


def test_recursion_values_stay_nonnegative_small():
    for n in range(2, 60):
        assert min(recursion_r(n)) >= 0


# ---------------------------------------------------------------------------
# exact mixture weights
# ---------------------------------------------------------------------------


def test_solve_weights_three_parties():
    mixture = solve_weights(3, 2)
    assert mixture.eta == Fraction(3, 5)
    assert mixture.weights == {
        0: Fraction(108, 125),
        2: Fraction(9, 125),
        3: Fraction(8, 125),
    }


def test_solve_weights_two_parties():
    mixture = solve_weights(2, 2)
    assert mixture.eta == Fraction(2, 3)
    assert mixture.weights == {0: Fraction(8, 9), 2: Fraction(1, 9)}


@pytest.mark.parametrize("m", [2, 3, 5])
def test_solve_weights_normalize_exactly(m):
    for n in range(2, 21):
        mixture = solve_weights(n, m)
        assert sum(mixture.weights.values()) == 1
        assert mixture.eta == eta_multiparty(n, m)
        assert set(mixture.weights) == {0} | set(range(2, n + 1))


def test_weights_agree_with_recursion_route():
    """Two independent constructions of the same mixture: the triangular
    solve at fixed M, and rescaling the M-free recursion sequence.  Its
    weights are positive at each M, as the scan of the r_k certifies."""
    for n, m in product(range(2, 61), (2, 3, 7)):
        direct = solve_weights(n, m)
        via_r = mixture_from_recursion(n, m)
        assert direct.weights == via_r.weights
        assert all(p > 0 for p in direct.weights.values())
        assert direct.r_sequence == via_r.r_sequence
        assert direct.eta == via_r.eta


def _perturbed_recursion(monkeypatch, changes):
    """Replace ``recursion_r`` (as ``mixture_from_recursion`` looks it up)
    by the true sequence with ``changes[k]`` added to r_k."""
    true_r = recursion_r

    def perturbed(n):
        r = true_r(n)
        for k, delta in changes.items():
            r[k] += delta
        return r

    monkeypatch.setattr(multiparty_module, "recursion_r", perturbed)


@pytest.mark.parametrize("n, m", [(5, 3), (60, 2), (60, 7), (120, 3)])
def test_recursion_route_checks_row_zero(n, m, monkeypatch):
    """p_0 = eta^N M^(N-1) holds on the true sequence; a wrong r_k changes
    the normalization, so row 0 fails."""
    mixture = mixture_from_recursion(n, m)
    assert mixture.weights[0] == mixture.eta**n * m ** (n - 1)
    _perturbed_recursion(monkeypatch, {2: Fraction(1, 7)})
    with pytest.raises(ConsistencyError, match="p_0"):
        mixture_from_recursion(n, m)


def test_model_checks_recursion_against_triangular_solve(ghz3, monkeypatch):
    """The model raises when its two routes disagree: on a sequence that
    fails row 0, and on one that keeps the normalization (at N = 3, M = 2,
    t_2 = r_2/4 and t_3 = r_3/4) and so passes row 0."""
    with monkeypatch.context() as patch:
        _perturbed_recursion(patch, {2: Fraction(1, 7)})
        with pytest.raises(ConsistencyError):
            MultipartyModel(ghz3)
    _perturbed_recursion(monkeypatch, {2: Fraction(1, 30), 3: -Fraction(1, 30)})
    assert mixture_from_recursion(3, 2).weights != solve_weights(3, 2).weights
    with pytest.raises(ConsistencyError, match="disagree"):
        MultipartyModel(ghz3)


@pytest.mark.parametrize("m", [2, 3, 7, 12])
def test_report_numbers_are_bounded_by_q_to_the_n(m):
    """Every numerator and denominator that ``solve`` reports is at most
    Q^N, Q = (N-1)M + 1 (see ``check_report_digits``); at M = 2 the
    denominator of p_0 is Q^N itself, so the bound is attained."""
    for n in range(2, 61):
        mixture = mixture_from_recursion(n, m)
        bound = ((n - 1) * m + 1) ** n
        values = [mixture.eta, *mixture.weights.values(), *mixture.r_sequence]
        assert max(max(abs(v.numerator), v.denominator) for v in values) <= bound
        if m == 2:
            assert mixture.weights[0].denominator == bound


def test_report_digit_guard_just_over_the_limit(digit_limit):
    """At M = 2 the guard refuses exactly the first N whose p_0
    denominator (2N - 1)^N cannot be rendered."""
    digit_limit(640)  # the smallest limit Python accepts
    n = next(n for n in range(2, 1000) if (2 * n - 1) ** n >= 10**640)
    check_report_digits(n - 1, 2)
    str(mixture_from_recursion(n - 1, 2).weights[0].denominator)
    with pytest.raises(SizeGuardExceeded, match="640"):
        check_report_digits(n, 2)
    with pytest.raises(ValueError):
        str(mixture_from_recursion(n, 2).weights[0].denominator)
    # far past the limit, on logarithms alone
    with pytest.raises(SizeGuardExceeded):
        check_report_digits(10**12, 10**6)
    digit_limit(0)  # no limit: nothing is refused
    check_report_digits(10**12, 10**6)


def test_report_digit_guard_checks_the_domain():
    with pytest.raises(DomainError):
        check_report_digits(1, 2)
    with pytest.raises(DomainError):
        check_report_digits(5, 1)


def test_mixture_click_ratios_are_constant():
    """The defining property: every extra silent detector costs the same
    exact factor eta/(1-eta)."""
    for n, m in product(range(2, 11), (2, 3)):
        mixture = solve_weights(n, m)
        eta = mixture.eta
        expected = eta / (1 - eta)
        for ratio in mixture.click_probabilities().ratios():
            assert ratio == expected


def test_mixture_click_probabilities_match_independent_detectors():
    mixture = solve_weights(4, 3)
    eta = mixture.eta
    probs = mixture.click_probabilities()
    for k, value in enumerate(probs.values):
        assert value == eta ** (4 - k) * (1 - eta) ** k


def test_scan_streams_rows_in_order():
    rows = list(positivity_scan(6))
    assert [row.n for row in rows] == [2, 3, 4, 5, 6]
    assert all(row.passed for row in rows)
    # r_1 = 0 is always the minimum of the sequence
    assert all(row.min_value == 0 and row.argmin_k == 1 for row in rows)


def test_scan_rows_match_recursion_minimum():
    """The sign-first scan reports each N's first minimum of the
    ``recursion_r`` list, as ``min`` over the Fractions finds it."""
    rows = list(positivity_scan(60))
    assert [row.n for row in rows] == list(range(2, 61))
    for row in rows:
        r = recursion_r(row.n)
        k = min(range(row.n + 1), key=r.__getitem__)
        assert (row.min_value, row.argmin_k, row.passed) == (r[k], k, r[k] >= 0)
        assert type(row.min_value) is Fraction


@pytest.mark.parametrize(
    "pairs",
    [
        [(3, 4)],
        [(1, 1), (-1, 2), (-2, 3), (0, 1)],  # negatives: the smallest wins
        [(3, 4), (-2, 4), (-1, 2), (-3, 6), (-1, 3)],  # equal negatives
        [(5, 2), (1, 3), (2, 6), (7, 1), (1, 4)],  # no zero
        [(5, 2), (1, 3), (2, 6), (7, 1)],  # equal positives: the first
        [(1, 1), (0, 5), (2, 3), (0, 1), (0, 7)],  # several zeros
        [(0, 1), (0, 2), (-1, 100), (-1, 100)],  # a negative after zeros
        [(2, 1), (-5, 3), (0, 1), (-10, 6), (-7, 5)],
    ],
)
def test_first_min_matches_min_over_fractions(pairs):
    """The running minimum of the scan, on hand-made sequences: real
    recursions reach neither a negative nor a second zero."""
    values = [Fraction(p, den) for p, den in pairs]
    k = min(range(len(values)), key=values.__getitem__)
    assert _first_min(pairs) == (k, *pairs[k])
    assert _first_min(iter(pairs)) == (k, *pairs[k])


def test_scan_rejects_bad_arguments():
    with pytest.raises(DomainError):
        list(positivity_scan(5, n_min=1))
    with pytest.raises(DomainError):
        list(positivity_scan(3, n_min=4))


# ---------------------------------------------------------------------------
# the full N-party model
# ---------------------------------------------------------------------------


def test_ghz_model_matches_extended_quantum(ghz3):
    model = MultipartyModel(ghz3)
    assert model.eta == Fraction(3, 5)
    target = extend_with_inefficiency(quantum_distribution(ghz3), 0.6)
    report = compare_float(model.exact_distribution(), target, tol=TOL)
    assert report.passed, report.worst_cell
    assert report.max_abs_error < 1e-14


def test_ghz_model_conditional_recovers_quantum(ghz3):
    dist = MultipartyModel(ghz3).exact_distribution()
    quantum = quantum_distribution(ghz3)
    conditional = dist.all_click_conditional()
    assert conditional.shape == quantum.probs.shape
    assert abs(conditional - quantum.probs).max() < TOL


def test_ghz_model_all_silent_probability(ghz3):
    dist = MultipartyModel(ghz3).exact_distribution()
    corner = dist.block((0, 0, 0))[-1, -1, -1]
    assert corner == pytest.approx(0.4**3, abs=1e-14)


def test_hidden_enumeration_agrees_with_collapsed_form(ghz3):
    model = MultipartyModel(ghz3)
    report = compare_float(
        model.distribution_by_hidden_enumeration(),
        model.exact_distribution(),
        tol=1e-12,
    )
    assert report.passed, report.worst_cell


def test_two_party_case_reduces_to_dedicated_model(chsh):
    multi = MultipartyModel(chsh).exact_distribution()
    dedicated = TwoPartyModel(chsh).exact_distribution()
    report = compare_float(multi, dedicated, tol=1e-12)
    assert report.passed, report.worst_cell


def test_model_requires_uniform_settings(random23):
    # 2 settings for Alice, 3 for Bob: not a uniform-M scenario
    with pytest.raises(DomainError):
        MultipartyModel(random23)


def test_model_size_guard(monkeypatch):
    big = ghz_scenario(9)  # 2^9 3^9 = 10,077,696 entries
    with pytest.raises(SizeGuardExceeded):
        MultipartyModel(big)
    monkeypatch.setattr(quantum_module, "MAX_TABLE_ENTRIES", 20_000_000)
    # its contraction's last step holds 2^2 5^9 complex entries beside
    # the (2^9)^2 of the density tensor: 129,194,304 bytes
    with pytest.raises(SizeGuardExceeded, match="129194304 bytes"):
        MultipartyModel(big)
    # raised limits admit it
    monkeypatch.setattr(quantum_module, "MAX_CONTRACTION_BYTES", 129_194_304)
    MultipartyModel(big)


def test_multiparty_sampler_matches_exact(ghz3, rng):
    model = MultipartyModel(ghz3)
    counts = model.sample_many((0, 1, 1), 20_000, rng)
    exact = model.exact_distribution()
    report = statistical_match(counts, exact.block((0, 1, 1)), exact.silent)
    assert report.passed, report.worst_cell


def test_multiparty_sample_many_counts_the_seeded_draws(ghz3):
    model = MultipartyModel(ghz3)
    counts = model.sample_many((0, 1, 1), 300, np.random.default_rng(4))
    # the same draws one by one, each outcome counted at its position in
    # the block, the silent code -1 in the last position
    rng = np.random.default_rng(4)
    expected = np.zeros((3, 3, 3), dtype=np.int64)
    for _ in range(300):
        draw = model.sample((0, 1, 1), rng)
        assert all(-1 <= o < 2 for o in draw)
        expected[tuple(2 if o == -1 else o for o in draw)] += 1
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, expected)
    assert counts[-1, -1, -1] > 0
    empty = model.sample_many((0, 1, 1), 0, rng)
    assert empty.shape == (3, 3, 3) and not empty.any()


def test_multiparty_sample_many_rejects_negative_draws_before_drawing(ghz3):
    model = MultipartyModel(ghz3)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="n_draws=-1"):
        model.sample_many((0, 0, 0), -1, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n_draws", [0, 5])
def test_multiparty_sample_many_rejects_bad_settings_before_drawing(ghz3, n_draws):
    model = MultipartyModel(ghz3)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for bad in ((9, 9, 9), (0, 2, 0), (0, 0, -1), (0, 0), (0, 0, 0, 0)):
        with pytest.raises(DomainError, match="out of range"):
            model.sample_many(bad, n_draws, rng)
        with pytest.raises(DomainError, match="out of range"):
            model.sample(bad, rng)
    assert rng.bit_generator.state == state
