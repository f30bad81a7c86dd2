"""States, POVMs, joint outcome tables, inefficiency extension, JSON I/O."""

import itertools
import json
import math
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
    all_marginals,
    OutcomeDistribution,
    Povm,
    QuantumState,
    Scenario,
    extend_with_inefficiency,
    ghz_state,
    haar_random_state,
    inverse_cdf,
    joint_outcome_table,
    load_scenario,
    maximally_entangled,
    outcome_labels,
    party_marginals,
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


def test_outcome_labels_mark_the_silent_position():
    assert outcome_labels(3, False) == ["0", "1", "2"]
    assert outcome_labels(3, True) == ["0", "1", "∅"]
    assert outcome_labels(1, True) == ["∅"]


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


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_haar_batch_is_the_normalized_normal_block(d):
    # one (n, d, 2) standard-normal draw, normalized in place: the stream,
    # the norm and the values of the plain complex formula
    n = 5000
    rng, ref_rng = np.random.default_rng(d), np.random.default_rng(d)
    batch = haar_random_state(d, rng, size=n)
    g = ref_rng.standard_normal((n, d, 2))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert batch.shape == (n, d) and batch.dtype == np.complex128
    assert np.max(np.abs(np.linalg.norm(batch, axis=1) - 1.0)) <= 1e-15
    plain = g[..., 0] + 1j * g[..., 1]
    plain /= np.linalg.norm(plain, axis=1, keepdims=True)
    np.testing.assert_array_max_ulp(
        batch.view(np.float64), plain.view(np.float64), maxulp=4
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
    # projecting |Phi> onto phi (x) phi* gives probability 1/d for any phi,
    # with phi* the entrywise conjugate in the computational basis
    d = 5
    phi = haar_random_state(d, rng)
    psi = maximally_entangled(d).data.reshape(d, d)
    phi_star = np.conj(phi)
    amp = np.einsum("i,j,ij->", phi.conj(), phi_star.conj(), psi)
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
    assert povm.n_outcomes == 2


def test_refine_to_rank_one_reconstructs(rng):
    povm = random_povm(3, 4, rng)
    weights, directions, parents = refine_to_rank_one(povm)
    assert directions.flags.c_contiguous and directions.shape == (len(weights), 3)
    assert parents.tolist() == sorted(parents.tolist())
    for label, element in enumerate(povm.elements):
        mine = parents == label
        rebuilt = np.einsum(
            "k,ki,kj->ij", weights[mine], directions[mine], directions[mine].conj()
        )
        np.testing.assert_allclose(rebuilt, element, atol=1e-10)
    assert abs(weights.sum() - 3.0) < 1e-10  # sum of traces = dim


def test_refine_decomposes_each_element_once(monkeypatch, rng):
    povm = random_povm(3, 4, rng)
    # one eigh per element, the pieces above the cutoff in its order
    want = [[], [], []]
    for label, e in enumerate(povm.elements):
        w, vecs = np.linalg.eigh((e + e.conj().T) / 2.0)
        keep = w > 1e-12
        for part, piece in zip(want, (w[keep], vecs[:, keep].T, [label] * keep.sum())):
            part.append(piece)
    want = [np.concatenate(part) for part in want]

    def refuse(*args, **kwargs):
        raise AssertionError("a second decomposition by eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    got = refine_to_rank_one(povm)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # the validation still runs, on refinement's own eigenvalues
    with pytest.raises(InvariantViolation, match="positivity"):
        refine_to_rank_one(Povm((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0]))))
    with pytest.raises(InvariantViolation, match="completeness"):
        refine_to_rank_one(Povm((np.eye(2), np.eye(2))))


def test_refine_drops_null_directions():
    povm = projective_povm([[1, 0], [0, 1]])
    weights, directions, parents = refine_to_rank_one(povm)
    assert parents.tolist() == [0, 1]
    np.testing.assert_allclose(weights, 1.0, atol=TOL)
    np.testing.assert_allclose(np.abs(directions), np.eye(2), atol=TOL)


# ---------------------------------------------------------------------------
# scenarios and joint tables
# ---------------------------------------------------------------------------


def test_scenario_rejects_dimension_mismatch():
    state = maximally_entangled(2)
    qutrit = computational_povm(3)
    with pytest.raises(StructuralError):
        Scenario(state, ([qutrit], [qutrit]))


def test_scenario_rejects_mixed_outcome_counts():
    # party 0: a 3-outcome and a 2-outcome measurement on the same qutrit
    two_outcome = Povm((np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])))
    three_outcome = computational_povm(3)
    with pytest.raises(StructuralError):
        Scenario(
            maximally_entangled(3),
            ([three_outcome, two_outcome], [three_outcome]),
        )


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
    # Alice's marginal at each settings pair, summed over Bob's outcomes
    marg = {c: dist.block(c).sum(axis=1) for c in dist.settings_choices()}
    for x in range(2):
        base = marg[(x, 0)]
        for y in (1, 2):
            assert np.all(np.abs(marg[(x, y)] - base) < 1e-10)


def test_distribution_blocks_sum_to_one(chsh):
    dist = quantum_distribution(chsh)
    for choice in dist.settings_choices():
        assert abs(dist.block(choice).sum() - 1.0) < TOL


def _kron_table(scenario, parties, settings):
    """Tr((E_1 (x) ... (x) E_N) rho) cell by cell with ``np.kron``, the
    identity standing in for every party not listed; axes follow
    ``parties``."""
    rho = scenario.state.density()
    chosen = dict(zip(parties, settings))
    ops = [
        scenario.settings[p][chosen[p]].elements if p in chosen else (np.eye(d),)
        for p, d in enumerate(scenario.state.dims)
    ]
    out = np.empty([len(o) for o in ops])
    for cell in np.ndindex(out.shape):
        op = ops[0][cell[0]]
        for p in range(1, len(ops)):
            op = np.kron(op, ops[p][cell[p]])
        out[cell] = np.trace(op @ rho).real
    return out.reshape([out.shape[p] for p in parties])


def _marginal_slices(scenario):
    """Every (parties, settings) pair with its slice of all_marginals, the
    view subset_joint_table gives for it, and the kron trace."""
    table = all_marginals(scenario)
    n = scenario.n_parties
    sizes = scenario.n_outcomes
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
                    _kron_table(scenario, parties, settings),
                )


@pytest.mark.parametrize("case", ["ghz3", "ghz4", "ghz5", "random23", "chsh"])
def test_all_marginals_match_per_call_tables(case, random23, chsh):
    fixtures = {"random23": random23, "chsh": chsh}
    scenario = fixtures[case] if case in fixtures else ghz_scenario(int(case[-1]))
    table = all_marginals(scenario)
    assert table.shape == tuple(
        m * a + 1 for m, a in zip(scenario.n_settings, scenario.n_outcomes)
    )
    assert not table.flags.writeable
    assert all_marginals(scenario) is table  # contracted once per scenario
    assert abs(table[(-1,) * scenario.n_parties] - 1.0) < 1e-15
    zeros = 0
    for parties, settings, got, view, want in _marginal_slices(scenario):
        assert got.shape == view.shape == want.shape
        assert np.shares_memory(view, table) and not view.flags.writeable
        assert np.array_equal(view, got), (parties, settings)
        assert np.max(np.abs(got - want)) <= 1e-15, (parties, settings)
        # cells that cancel exactly, such as the forbidden GHZ outcomes
        vanishing = np.abs(want) < 1e-12
        assert np.all(got[vanishing] == 0.0), (parties, settings)
        zeros += int(np.count_nonzero(vanishing))
        if len(parties) == scenario.n_parties:
            joint = joint_outcome_table(scenario, settings)
            assert np.array_equal(joint, got), settings
    assert (zeros > 0) == case.startswith("ghz")


@pytest.mark.parametrize("case", ["chsh", "random23"])
def test_quantum_distribution_matches_per_choice_loop(case, chsh, random23):
    scenario = chsh if case == "chsh" else random23
    want = np.empty(scenario.n_settings + scenario.n_outcomes)
    parties = range(scenario.n_parties)
    for choice in scenario.settings_choices():
        want[choice] = _kron_table(scenario, parties, choice)
    dist = quantum_distribution(scenario)
    assert not dist.silent
    assert dist.probs.shape == want.shape
    assert np.max(np.abs(dist.probs - want)) <= 1e-15


@pytest.mark.parametrize(
    "call",
    [
        lambda s: joint_outcome_table(s, (0,)),
        lambda s: joint_outcome_table(s, (0, 1, 1)),
        lambda s: joint_outcome_table(s, (0, 2)),
        lambda s: joint_outcome_table(s, (-1, 0)),
        lambda s: subset_joint_table(s, [0, 5], [0, 0]),
        lambda s: subset_joint_table(s, [-1, 0], [0, 0]),
        lambda s: subset_joint_table(s, [1, 0], [0, 0]),
        lambda s: subset_joint_table(s, [0, 0], [0, 0]),
        lambda s: subset_joint_table(s, [0], [0, 0]),
        lambda s: subset_joint_table(s, [1], [2]),
        lambda s: party_marginals(s, [2]),
    ],
    ids=[
        "joint-one-setting",
        "joint-three-settings",
        "joint-setting-too-large",
        "joint-negative-setting",
        "subset-party-too-large",
        "subset-negative-party",
        "subset-decreasing",
        "subset-repeated",
        "subset-settings-count",
        "subset-setting-too-large",
        "marginals-party-too-large",
    ],
)
def test_table_accessors_reject_malformed_input(call, chsh):
    with pytest.raises(DomainError):
        call(chsh)


# ---------------------------------------------------------------------------
# inefficiency extension
# ---------------------------------------------------------------------------


def test_extend_at_unit_efficiency_changes_nothing(chsh):
    dist = quantum_distribution(chsh)
    extended = extend_with_inefficiency(dist, 1.0)
    assert extended.silent
    for choice in dist.settings_choices():
        block = extended.block(choice)
        # the silent outcome is last on each axis
        assert np.all(np.abs(block[-1, :]) < TOL)
        assert np.all(np.abs(block[:, -1]) < TOL)
        assert np.all(np.abs(block[:-1, :-1] - dist.block(choice)) < TOL)


def test_extend_no_click_corner():
    dist = quantum_distribution(_comp_scenario())
    extended = extend_with_inefficiency(dist, 0.5)
    assert abs(extended.block((0, 0))[-1, -1] - 0.25) < TOL


def test_extend_single_no_click_cell():
    dist = quantum_distribution(_comp_scenario())
    extended = extend_with_inefficiency(dist, 2 / 3)
    # eta (1 - eta) P(a=0) = (2/3)(1/3)(1/2)
    assert abs(extended.block((0, 0))[0, -1] - 1 / 9) < TOL


def test_conditioning_recovers_quantum_block(chsh):
    dist = quantum_distribution(chsh)
    conditional = extend_with_inefficiency(dist, 2 / 3).all_click_conditional()
    assert conditional.shape == dist.probs.shape
    assert np.max(np.abs(conditional - dist.probs)) < 1e-10


def test_distribution_rejects_bad_normalization():
    probs = np.array([[[[0.9]]]])
    with pytest.raises(InvariantViolation):
        OutcomeDistribution(probs, silent=False)


def test_distribution_checks_shape_range_and_settings():
    # an odd number of axes: no split into settings and outcome axes
    for shape in ((2, 3, 6), (6,), (1, 1, 2, 3, 1)):
        with pytest.raises(StructuralError):
            OutcomeDistribution(np.full(shape, 1 / 6), silent=False)
    with pytest.raises(StructuralError):  # no axes at all
        OutcomeDistribution(np.array(1.0), silent=False)
    with pytest.raises(StructuralError):  # an empty outcome axis
        OutcomeDistribution(np.zeros((1, 1, 2, 0)), silent=True)
    outside = np.full((1, 1, 2, 3), 0.2)
    outside[0, 0, 0, 0], outside[0, 0, 1, 2] = 1.5, -0.5
    with pytest.raises(InvariantViolation):
        OutcomeDistribution(outside, silent=False)
    with pytest.raises(InvariantViolation):  # six sevenths
        OutcomeDistribution(
            np.full((1, 1, 2, 3), Fraction(1, 7), dtype=object), silent=False
        )

    dist = OutcomeDistribution(np.full((2, 4, 2, 3), 1 / 6), silent=False)
    assert dist.n_parties == 2 and dist.probs.dtype == np.float64
    assert len(dist.table) == 2 * 4 * 2 * 3
    assert dist.settings_choices() == list(itertools.product(range(2), range(4)))
    block = dist.block((1, 3))
    assert block.shape == (2, 3) and not block.flags.writeable
    assert np.shares_memory(block, dist.probs)
    np.testing.assert_array_equal(block, dist.probs[1, 3])
    for bad in ((2, 0), (0, 4), (0, -1), (0,), (0, 0, 0)):
        with pytest.raises(DomainError):
            dist.block(bad)
    assert not dist.probs.flags.writeable

    # the second party's only position is the silent one
    never_fires = OutcomeDistribution(np.full((1, 1, 2, 1), 0.5), silent=True)
    with pytest.raises(DomainError):
        never_fires.all_click_conditional()


def test_distribution_stores_fraction_array_as_float64():
    half, zero = Fraction(1, 2), Fraction(0)
    probs = np.array([[[[half, zero], [zero, half]]]], dtype=object)
    dist = OutcomeDistribution(probs, silent=False)
    assert dist.probs.dtype == np.float64
    assert dist.probs.tolist() == [[[[0.5, 0.0], [0.0, 0.5]]]]
    extended = extend_with_inefficiency(dist, Fraction(2, 3))
    assert extended.probs.dtype == np.float64
    assert extended.block((0, 0))[(0, 0)] == pytest.approx(2 / 9, abs=TOL)


def _reference_extend(dist, eta):
    """The cell-keyed dict loop that the dense eta-extension replaced,
    kept as an oracle for its values and its float rounding.  A silent
    party's key is the position after its last outcome."""
    eta = float(eta)
    n = dist.n_parties
    sizes = dist.probs.shape[n:]
    table = {}
    for settings in dist.settings_choices():
        cells = itertools.product(*(range(k) for k in sizes))
        block = dict(zip(cells, dist.block(settings).ravel().tolist()))
        for silent in itertools.product((False, True), repeat=n):
            k = sum(silent)
            factor = eta ** (n - k) * (1.0 - eta) ** k
            marg = {}
            for outcomes, p in block.items():
                key = tuple(
                    sizes[q] if silent[q] else outcomes[q] for q in range(n)
                )
                marg[key] = marg.get(key, 0) + p
            for key, p in marg.items():
                table[(settings, key)] = table.get((settings, key), 0) + factor * p
    return table


def _counts_distribution():
    """Three parties, a size-1 settings axis and three outcomes for the
    middle party: each block's counts divided by its total."""
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 7, size=(2, 1, 3, 2, 3, 2))
    counts[..., 0, 0, 0] += 1  # no empty block
    totals = counts.sum(axis=(3, 4, 5), keepdims=True)
    return OutcomeDistribution(counts / totals, silent=False)


@pytest.mark.parametrize("case", ["ghz4", "random23", "counts3"])
def test_extend_matches_dict_reference_bit_for_bit(case, random23):
    if case == "ghz4":
        dist, eta = quantum_distribution(ghz_scenario(4)), float(eta_multiparty(4, 2))
    elif case == "random23":
        dist, eta = quantum_distribution(random23), float(eta_two_party(2, 3))
    else:
        dist, eta = _counts_distribution(), 3 / 7
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
            assert np.all(np.abs(before.block(choice) - after.block(choice)) < TOL)


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


def test_inverse_cdf_equals_boolean_row_sum():
    """The column-by-column count equals the summed ``u > cum`` block on
    the cases a sampler meets: repeated entries (zero-probability
    outcomes), ``u`` equal to an entry, a row ending below ``u``, width 1
    and no rows."""
    rng = np.random.default_rng(7)

    def check(u, cum):
        got = inverse_cdf(u, cum)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.sum(u[:, None] > cum, axis=1))
        return got

    # nondecreasing rows with repeated values
    p = rng.random((500, 5)) * (rng.random((500, 5)) < 0.6)
    total = np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
    cum = np.cumsum(p / total, axis=1)
    check(rng.random(500), cum)
    # u exactly equal to an entry: the comparison is strict
    cum = np.array([[0.25, 0.25, 0.5, 1.0]] * 4)
    got = check(np.array([0.0, 0.25, 0.5, 1.0]), cum)
    assert got.tolist() == [0, 0, 2, 3]
    # a row ending below u gives the width; the caller clamps it
    got = check(np.array([0.95, 0.5]), np.array([[0.3, 0.9], [0.3, 0.9]]))
    assert got.tolist() == [2, 1]
    # width 1
    check(rng.random(9), np.ones((9, 1)))
    check(np.array([1.5]), np.ones((1, 1)))
    # empty input
    assert check(np.empty(0), np.empty((0, 3))).shape == (0,)
