"""States, POVMs, joint outcome tables, inefficiency extension, JSON I/O."""

import itertools
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from lhvmodels.bounds import eta_multiparty, eta_two_party
from lhvmodels.errors import (
    DomainError,
    InvariantViolation,
    ScenarioFormatError,
    StructuralError,
)
from lhvmodels.presets import computational_povm, ghz_scenario, random_povm
from lhvmodels.quantum import (
    NO_CLICK,
    all_marginals,
    OutcomeDistribution,
    Povm,
    QuantumState,
    Scenario,
    conjugate_in_schmidt_basis,
    extend_with_inefficiency,
    format_outcome,
    ghz_state,
    haar_random_state,
    joint_outcome_table,
    load_scenario,
    maximally_entangled,
    projective_povm,
    quantum_distribution,
    refine_to_rank_one,
    scenario_from_json,
    scenario_to_json,
    subset_joint_table,
    validate_povm,
)

TOL = 1e-12


def _comp_scenario(d=2, n_settings=1):
    state = maximally_entangled(d)
    povm = computational_povm(d)
    return Scenario(state, ([povm] * n_settings, [povm] * n_settings))


# ---------------------------------------------------------------------------
# outcomes and states
# ---------------------------------------------------------------------------


def test_no_click_is_a_singleton():
    assert pickle.loads(pickle.dumps(NO_CLICK)) is NO_CLICK
    assert format_outcome(NO_CLICK) == "∅"
    assert format_outcome(0) == "0"
    assert repr(NO_CLICK) == "∅"


def test_maximally_entangled_amplitudes():
    psi = maximally_entangled(3)
    expected = np.eye(3) / math.sqrt(3)
    np.testing.assert_allclose(psi.data.reshape(3, 3), expected, atol=TOL)
    assert psi.dims == (3, 3)


def test_ghz_amplitudes():
    amps = ghz_state(3).data.reshape(2, 2, 2)
    assert abs(amps[0, 0, 0] - 1 / math.sqrt(2)) < TOL
    assert abs(amps[1, 1, 1] - 1 / math.sqrt(2)) < TOL
    assert abs(amps[0, 1, 0]) < TOL


def test_state_rejects_bad_norm():
    with pytest.raises(InvariantViolation):
        QuantumState("pure", (2, 2), np.ones(4))


def test_state_rejects_shape_mismatch():
    with pytest.raises(StructuralError):
        QuantumState("pure", (2, 2), np.zeros(3))


def test_density_of_pure_state():
    rho = maximally_entangled(2).density()
    assert abs(np.trace(rho) - 1.0) < TOL
    np.testing.assert_allclose(rho, rho.conj().T, atol=TOL)
    # projector onto the state
    np.testing.assert_allclose(rho @ rho, rho, atol=TOL)


def test_haar_states_are_normalized(rng):
    single = haar_random_state(3, rng)
    assert single.shape == (3,)
    assert abs(np.linalg.norm(single) - 1.0) < TOL
    batch = haar_random_state(4, rng, size=250)
    assert batch.shape == (250, 4)
    np.testing.assert_allclose(
        np.linalg.norm(batch, axis=1), np.ones(250), atol=TOL
    )


def test_haar_overlap_moments(rng):
    """|<e0|psi>|^2 is Beta(1, d-1): mean 1/d, known tail probability."""
    d, n = 4, 20000
    batch = haar_random_state(d, rng, size=n)
    overlap = np.abs(batch[:, 0]) ** 2
    mean_sigma = math.sqrt((d - 1) / (d * d * (d + 1)) / n)
    assert abs(overlap.mean() - 1 / d) < 5 * mean_sigma

    delta = math.pi / 4
    tail = float(np.mean(overlap >= math.cos(delta) ** 2))
    expected = math.sin(delta) ** (2 * (d - 1))
    assert abs(tail - expected) < 5 * math.sqrt(expected * (1 - expected) / n)


def test_conjugate_in_schmidt_basis(rng):
    v = np.array([1.0, 1.0j]) / math.sqrt(2)
    np.testing.assert_allclose(
        conjugate_in_schmidt_basis(v), np.array([1.0, -1.0j]) / math.sqrt(2)
    )
    # projecting |Phi> onto phi (x) phi* gives probability 1/d for any phi
    d = 5
    phi = haar_random_state(d, rng)
    psi = maximally_entangled(d).data.reshape(d, d)
    amp = np.einsum("i,j,ij->", phi.conj(), conjugate_in_schmidt_basis(phi).conj(), psi)
    assert abs(abs(amp) ** 2 - 1 / d) < TOL


# ---------------------------------------------------------------------------
# POVMs
# ---------------------------------------------------------------------------


def test_validate_povm_accepts_projective_and_coarse():
    assert validate_povm(computational_povm(3)).ok
    half = np.eye(2) / 2
    report = validate_povm(Povm((half, half)))
    assert report.ok and report.failed_invariant is None


def test_validate_povm_flags_completeness():
    report = validate_povm(Povm((np.eye(2), np.eye(2))))
    assert not report.ok
    assert report.failed_invariant == "completeness"
    assert report.worst_deviation > 0.5


def test_validate_povm_flags_positivity():
    a = np.diag([1.5, 0.0])
    b = np.diag([-0.5, 1.0])
    report = validate_povm(Povm((a, b)))
    assert not report.ok
    assert report.failed_invariant == "positivity"


def test_validate_povm_rejects_bad_shapes():
    with pytest.raises(StructuralError):
        validate_povm(Povm((np.zeros((2, 3)),)))
    with pytest.raises(StructuralError):
        validate_povm(Povm((np.eye(2), np.eye(3))))


def test_projective_povm_elements():
    povm = projective_povm([[1, 0], [0, 1]])
    np.testing.assert_allclose(povm.elements[0], np.diag([1.0, 0.0]), atol=TOL)
    assert povm.labels == (0, 1)


def test_refine_to_rank_one_reconstructs(rng):
    povm = random_povm(3, 4, rng)
    pieces = refine_to_rank_one(povm)
    total_weight = 0.0
    for label, element in zip(povm.labels, povm.elements):
        rebuilt = sum(
            p.weight * np.outer(p.direction, p.direction.conj())
            for p in pieces
            if p.parent_label == label
        )
        np.testing.assert_allclose(rebuilt, element, atol=1e-10)
    total_weight = sum(p.weight for p in pieces)
    assert abs(total_weight - 3.0) < 1e-10  # sum of traces = dim


def test_refine_drops_null_directions():
    povm = projective_povm([[1, 0], [0, 1]])
    pieces = refine_to_rank_one(povm)
    assert len(pieces) == 2
    assert all(abs(p.weight - 1.0) < TOL for p in pieces)


# ---------------------------------------------------------------------------
# scenarios and joint tables
# ---------------------------------------------------------------------------


def test_scenario_rejects_dimension_mismatch():
    state = maximally_entangled(2)
    qutrit = computational_povm(3)
    with pytest.raises(StructuralError):
        Scenario(state, ([qutrit], [qutrit]))


def test_scenario_needs_two_parties():
    with pytest.raises(StructuralError):
        Scenario(
            QuantumState("pure", (2,), np.array([1.0, 0.0])),
            ([computational_povm(2)],),
        )


def test_quantum_joint_perfect_correlations():
    sc = _comp_scenario(d=2)
    table = joint_outcome_table(sc, (0, 0))
    np.testing.assert_allclose(table, [[0.5, 0.0], [0.0, 0.5]], atol=TOL)


def test_quantum_joint_hadamard_correlations():
    s = 1 / math.sqrt(2)
    plus_minus = projective_povm([[s, s], [s, -s]])
    sc = Scenario(maximally_entangled(2), ([plus_minus], [plus_minus]))
    table = joint_outcome_table(sc, (0, 0))
    # |Phi> looks the same in the rotated basis up to conjugation
    np.testing.assert_allclose(table, [[0.5, 0.0], [0.0, 0.5]], atol=TOL)


def test_subset_table_is_maximally_mixed_marginal():
    sc = _comp_scenario(d=3)
    marginal = subset_joint_table(sc, [1], [0])
    np.testing.assert_allclose(marginal, np.full(3, 1 / 3), atol=TOL)


def test_no_signalling_in_random_scenario(random23):
    dist = quantum_distribution(random23)
    marg = {}
    for (x, y) in dist.settings_choices():
        block = dist.block((x, y))
        for (a, _b), p in block.items():
            marg.setdefault((x, y), {}).setdefault(a, 0.0)
            marg[(x, y)][a] += p
    for x in range(2):
        base = marg[(x, 0)]
        for y in (1, 2):
            for a, p in marg[(x, y)].items():
                assert abs(p - base[a]) < 1e-10


def test_distribution_blocks_sum_to_one(chsh):
    dist = quantum_distribution(chsh)
    for choice in dist.settings_choices():
        assert abs(sum(dist.block(choice).values()) - 1.0) < TOL


def _marginal_slices(scenario):
    """Every (parties, settings) pair with its slice of all_marginals and
    the table subset_joint_table gives for it."""
    table = all_marginals(scenario)
    n = scenario.n_parties
    sizes = [len(scenario.alphabet(p)) for p in range(n)]
    for k in range(1, n + 1):
        for parties in itertools.combinations(range(n), k):
            ranges = (range(scenario.n_settings[p]) for p in parties)
            for settings in itertools.product(*ranges):
                chosen = dict(zip(parties, settings))
                index = tuple(
                    slice(chosen[p] * sizes[p], (chosen[p] + 1) * sizes[p])
                    if p in chosen
                    else -1
                    for p in range(n)
                )
                yield (
                    parties,
                    settings,
                    table[index],
                    subset_joint_table(scenario, parties, settings),
                )


@pytest.mark.parametrize("case", ["ghz3", "ghz4", "ghz5", "random23"])
def test_all_marginals_match_per_call_tables(case, random23):
    scenario = random23 if case == "random23" else ghz_scenario(int(case[-1]))
    table = all_marginals(scenario)
    assert table.shape == tuple(
        m * len(scenario.alphabet(p)) + 1
        for p, m in enumerate(scenario.n_settings)
    )
    assert not table.flags.writeable
    assert abs(table[(-1,) * scenario.n_parties] - 1.0) < 1e-15
    zeros = 0
    for parties, settings, got, want in _marginal_slices(scenario):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15, (parties, settings)
        # cells that cancel exactly, such as the forbidden GHZ outcomes
        assert np.all(got[want == 0.0] == 0.0), (parties, settings)
        zeros += int(np.count_nonzero(want == 0.0))
        if len(parties) == scenario.n_parties:
            joint = joint_outcome_table(scenario, settings)
            assert np.max(np.abs(got - joint)) <= 1e-15, settings
    assert (zeros > 0) == case.startswith("ghz")


@pytest.mark.parametrize("case", ["chsh", "random23"])
def test_quantum_distribution_matches_per_choice_loop(case, chsh, random23):
    scenario = chsh if case == "chsh" else random23
    alphabets = tuple(scenario.alphabet(p) for p in range(scenario.n_parties))
    want = np.empty(scenario.n_settings + tuple(len(a) for a in alphabets))
    for choice in scenario.settings_choices():
        want[choice] = joint_outcome_table(scenario, choice)
    dist = quantum_distribution(scenario)
    assert dist.alphabets == alphabets
    assert dist.probs.shape == want.shape
    assert np.max(np.abs(dist.probs - want)) <= 1e-15


# ---------------------------------------------------------------------------
# inefficiency extension
# ---------------------------------------------------------------------------


def test_extend_at_unit_efficiency_changes_nothing(chsh):
    dist = quantum_distribution(chsh)
    extended = extend_with_inefficiency(dist, 1.0)
    assert extended.includes_no_click()
    for choice in dist.settings_choices():
        original = dist.block(choice)
        for outcomes, p in extended.block(choice).items():
            if NO_CLICK in outcomes:
                assert abs(p) < TOL
            else:
                assert abs(p - original[outcomes]) < TOL


def test_extend_no_click_corner():
    dist = quantum_distribution(_comp_scenario())
    extended = extend_with_inefficiency(dist, 0.5)
    assert abs(extended.block((0, 0))[(NO_CLICK, NO_CLICK)] - 0.25) < TOL


def test_extend_single_no_click_cell():
    dist = quantum_distribution(_comp_scenario())
    extended = extend_with_inefficiency(dist, 2 / 3)
    # eta (1 - eta) P(a=0) = (2/3)(1/3)(1/2)
    assert abs(extended.block((0, 0))[(0, NO_CLICK)] - 1 / 9) < TOL


def test_extend_rational_mode_is_exact():
    half = Fraction(1, 2)
    probs = np.array(
        [[[[half, Fraction(0)], [Fraction(0), half]]]], dtype=object
    )
    dist = OutcomeDistribution(((0, 1), (0, 1)), probs)
    extended = extend_with_inefficiency(dist, Fraction(2, 3))
    block = extended.block((0, 0))
    assert block[(NO_CLICK, NO_CLICK)] == Fraction(1, 9)
    assert block[(0, NO_CLICK)] == Fraction(1, 9)
    assert block[(0, 0)] == Fraction(2, 9)
    assert sum(block.values()) == 1


def test_conditioning_recovers_quantum_block(chsh):
    dist = quantum_distribution(chsh)
    extended = extend_with_inefficiency(dist, 2 / 3)
    for choice in dist.settings_choices():
        conditional = extended.condition_on_all_clicks(choice)
        for outcomes, p in conditional.items():
            assert abs(p - dist.block(choice)[outcomes]) < 1e-10


def test_distribution_rejects_bad_normalization():
    probs = np.array([[[[0.9]]]])
    with pytest.raises(InvariantViolation):
        OutcomeDistribution(((0,), (0,)), probs)


def test_distribution_checks_shape_range_and_settings():
    alphabets = ((0, 1), ("u", "v", "w"))
    with pytest.raises(StructuralError):  # outcome axes (2, 2), alphabets (2, 3)
        OutcomeDistribution(alphabets, np.full((1, 1, 2, 2), 0.25))
    with pytest.raises(StructuralError):  # settings axes missing
        OutcomeDistribution(alphabets, np.full((2, 3), 1 / 6))
    with pytest.raises(StructuralError):
        OutcomeDistribution(((NO_CLICK, 0), (0,)), np.full((1, 1, 2, 1), 0.5))
    outside = np.full((1, 1, 2, 3), 0.2)
    outside[0, 0, 0, 0], outside[0, 0, 1, 2] = 1.5, -0.5
    with pytest.raises(InvariantViolation):
        OutcomeDistribution(alphabets, outside)
    with pytest.raises(InvariantViolation):  # exact mode: sums exactly to 1
        OutcomeDistribution(
            alphabets, np.full((1, 1, 2, 3), Fraction(1, 7), dtype=object)
        )

    dist = OutcomeDistribution(alphabets, np.full((2, 4, 2, 3), 1 / 6))
    assert dist.n_parties == 2 and dist.numeric_mode == "float"
    assert len(dist.table) == 2 * 4 * 2 * 3
    assert dist.settings_choices() == list(itertools.product(range(2), range(4)))
    assert list(dist.block((1, 3))) == list(itertools.product(*alphabets))
    for bad in ((2, 0), (0, 4), (0, -1), (0,), (0, 0, 0)):
        with pytest.raises(DomainError):
            dist.block(bad)
    assert not dist.probs.flags.writeable

    never_fires = OutcomeDistribution(
        ((0, 1), (NO_CLICK,)), np.full((1, 1, 2, 1), 0.5)
    )
    with pytest.raises(DomainError):
        never_fires.condition_on_all_clicks((0, 0))


def _reference_extend(dist, eta):
    """The label-keyed dict loop that the dense eta-extension replaced,
    kept as an oracle for its values and its float rounding."""
    exact = dist.numeric_mode == "exact-rational"
    eta = Fraction(eta) if exact else float(eta)
    n = dist.n_parties
    one = Fraction(1) if exact else 1.0
    table = {}
    for settings in dist.settings_choices():
        block = dist.block(settings)
        for silent in itertools.product((False, True), repeat=n):
            k = sum(silent)
            factor = eta ** (n - k) * (one - eta) ** k
            marg = {}
            for outcomes, p in block.items():
                key = tuple(
                    NO_CLICK if silent[q] else outcomes[q] for q in range(n)
                )
                marg[key] = marg.get(key, 0) + p
            for key, p in marg.items():
                table[(settings, key)] = table.get((settings, key), 0) + factor * p
    return table


def test_extend_matches_dict_reference_in_rational_mode():
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 7, size=(2, 1, 3, 2, 3, 2))
    counts[..., 0, 0, 0] += 1  # no empty block
    probs = np.empty(counts.shape, dtype=object)
    for s in np.ndindex(counts.shape[:3]):
        total = int(counts[s].sum())
        for o in np.ndindex(counts.shape[3:]):
            probs[s + o] = Fraction(int(counts[s + o]), total)
    dist = OutcomeDistribution(((0, 1), ("a", "b", "c"), (0, 1)), probs)
    eta = Fraction(3, 7)
    extended = extend_with_inefficiency(dist, eta)
    assert extended.numeric_mode == "exact-rational"
    assert extended.probs.shape == (2, 1, 3, 3, 4, 3)
    table = extended.table
    assert all(type(p) is Fraction for p in table.values())
    assert table == _reference_extend(dist, eta)


@pytest.mark.parametrize("case", ["ghz4", "random23"])
def test_extend_matches_dict_reference_bit_for_bit(case, random23):
    if case == "ghz4":
        scenario, eta = ghz_scenario(4), float(eta_multiparty(4, 2))
    else:
        scenario, eta = random23, float(eta_two_party(2, 3))
    dist = quantum_distribution(scenario)
    got = extend_with_inefficiency(dist, eta).table
    want = _reference_extend(dist, eta)
    assert {k: v.hex() for k, v in got.items()} == {
        k: float(v).hex() for k, v in want.items()
    }


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def test_scenario_json_round_trip(chsh, random23):
    for scenario in (chsh, random23):
        rebuilt = scenario_from_json(scenario_to_json(scenario))
        before = quantum_distribution(scenario)
        after = quantum_distribution(rebuilt)
        for choice in before.settings_choices():
            for outcomes, p in before.block(choice).items():
                assert abs(p - after.block(choice)[outcomes]) < TOL


def test_scenario_json_rejects_junk():
    with pytest.raises(ScenarioFormatError):
        scenario_from_json([1, 2, 3])
    with pytest.raises(ScenarioFormatError):
        scenario_from_json({"settings": []})


def test_scenario_json_rejects_bad_entries(chsh):
    blob = scenario_to_json(chsh)
    broken = json.loads(json.dumps(blob))
    broken["state"]["data"][0] = "oops"
    with pytest.raises(ScenarioFormatError):
        scenario_from_json(broken)


def test_scenario_json_rejects_invalid_state(chsh):
    blob = json.loads(json.dumps(scenario_to_json(chsh)))
    blob["state"]["data"][0] = [5.0, 0.0]  # breaks normalization
    with pytest.raises(ScenarioFormatError):
        scenario_from_json(blob)


def test_load_scenario_from_disk(tmp_path, chsh):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(chsh)), encoding="utf-8")
    rebuilt = load_scenario(str(path))
    assert rebuilt.n_settings == (2, 2)

    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioFormatError):
        load_scenario(str(bad))
