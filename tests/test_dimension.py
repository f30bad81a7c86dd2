"""Dimension-dependent approximate model: parameters, the vectorized Monte
Carlo report against the model's closed-form table, and the chunked run."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lhvmodels.dimension import DimensionModelParams, run_dimension_model
from lhvmodels.errors import DomainError, ZeroFiringError
from lhvmodels.presets import computational_povm, random_povm
from lhvmodels.quantum import CHUNK, refine_to_rank_one


def test_params_derived_quantities():
    params = DimensionModelParams(2, math.pi / 6)
    assert params.fire_prob == pytest.approx(0.25)
    assert params.epsilon == pytest.approx(2.5)
    assert params.eta == pytest.approx(0.4)
    assert params.efficiency_lower_bound == pytest.approx((2.5 / 8) ** 2)


def test_params_bound_vanishes_outside_regime():
    # at delta = pi/2 the error scale reaches 3d >= 2d: no closed-form bound
    assert DimensionModelParams(3, math.pi / 2).efficiency_lower_bound is None


@pytest.mark.parametrize("d, delta", [(1, 0.5), (2, 0.0), (2, 2.0)])
def test_params_rejects_bad_arguments(d, delta):
    with pytest.raises(DomainError):
        DimensionModelParams(d, delta)


def test_params_eta_solves_matching_conditions():
    # eta^2 = s Q and eta (1 - eta) = s (1 - Q)/2, with s = 1 - (1-eta)^2
    # the probability that at least one detector fires
    for d, delta in ((2, math.pi / 6), (2, 0.1), (3, 0.9), (4, 0.5236),
                     (5, 1.3)):
        params = DimensionModelParams(d, delta)
        q, eta = params.fire_prob, params.eta
        assert 0.0 < q < 1.0
        proceed = 1 - (1 - eta) ** 2
        assert eta**2 == pytest.approx(proceed * q, abs=1e-12)
        assert eta * (1 - eta) == pytest.approx(
            proceed * (1 - q) / 2, abs=1e-12
        )
    assert DimensionModelParams(3, math.pi / 2).eta == 1.0


def _closed_form_table(d, delta, x_povm, y_povm):
    """The model's exact conditional table P(a, b | Alice fires), by parent
    outcome labels: the sum over rank-one elements i -> a, j -> b of
    (w_i w_j / d) (g_ij + (s/d)(1 - d g_ij)), with s = sin^2 delta and
    g_ij = |sum_k x_ik y_jk|^2 (no conjugation, as in the run's targets)."""
    xs, ys = refine_to_rank_one(x_povm), refine_to_rank_one(y_povm)
    s = math.sin(delta) ** 2
    table = {}
    for wx, x, a in zip(*xs):
        for wy, y, b in zip(*ys):
            g = abs(np.sum(x * y)) ** 2
            key = (int(a), int(b))
            table[key] = table.get(key, 0.0) + (
                wx * wy / d * (g + s / d * (1 - d * g))
            )
    return table


@pytest.mark.parametrize("d, delta, povms, samples, seed", [
    (2, 1.2, "computational", 300_000, 1),
    (3, 0.9, "random", 400_000, 2),
    (4, 0.5236, "computational", 1_000_000, 3),  # the benchmark's case
    # Alice always fires: the table is the product of the marginals
    (3, math.pi / 2, "random", 100_000, 4),
], ids=["d2", "d3-random", "d4", "d3-random-right-angle"])
def test_monte_carlo_matches_closed_form_table(d, delta, povms, samples, seed):
    if povms == "random":
        povm_rng = np.random.default_rng(seed)
        x_povm, y_povm = random_povm(d, 3, povm_rng), random_povm(d, 3, povm_rng)
    else:
        x_povm = y_povm = computational_povm(d)
    report = run_dimension_model(
        d, delta, x_povm, y_povm, samples, np.random.default_rng(seed)
    )
    if delta == math.pi / 2:
        assert report.n_fired == samples
    exact = _closed_form_table(d, delta, x_povm, y_povm)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    assert report.joint_counts.size == len(exact)
    n = report.n_fired
    for (i, a), (j, b) in itertools.product(
        enumerate(report.parents_x.tolist()), enumerate(report.parents_y.tolist())
    ):
        p, f = exact[(a, b)], report.joint_counts[i, j] / n
        z = (f - p) / math.sqrt(p * (1 - p) / n)
        assert abs(z) <= 4.5, (a, b, f, p, z)


def test_monte_carlo_report_passes_for_qubits(rng):
    povm = computational_povm(2)
    report = run_dimension_model(2, math.pi / 6, povm, povm, 30_000, rng)
    assert report.passed
    q_hat, q_sigma, q_passed = report.q
    assert q_passed and report.eta_above_bound
    assert abs(q_hat - 0.25) < 3 * q_sigma
    assert report.params.eta == pytest.approx(0.4)
    assert report.joint[2].shape == (2, 2) and report.joint[2].all()
    np.testing.assert_allclose(report.bob_target, 0.5)
    assert report.bob[2].all()
    # diagnostic-only conditional marginal: entries but no verdicts
    given_fire = report.to_dict()["bob_marginal_given_fire"]
    assert len(given_fire) == 2 and not any("pass" in e for e in given_fire)


def test_monte_carlo_with_refined_random_povms(rng):
    x_povm = random_povm(3, 4, rng)
    y_povm = random_povm(3, 4, rng)
    report = run_dimension_model(3, math.pi / 4, x_povm, y_povm, 40_000, rng)
    assert report.passed, [c for c in report.to_dict()["cells"] if not c["pass"]]
    assert report.joint_counts.shape == (4, 4)
    assert report.n_fired > 0


def test_monte_carlo_is_seed_reproducible():
    povm = computational_povm(2)
    a = run_dimension_model(
        2, 0.7, povm, povm, 5_000, np.random.default_rng(99)
    )
    b = run_dimension_model(
        2, 0.7, povm, povm, 5_000, np.random.default_rng(99)
    )
    assert a.n_fired == b.n_fired
    np.testing.assert_array_equal(a.joint_counts, b.joint_counts)
    np.testing.assert_array_equal(a.bob_counts, b.bob_counts)


def test_monte_carlo_rejects_dimension_mismatch(rng):
    with pytest.raises(DomainError):
        run_dimension_model(
            3, 0.5, computational_povm(2), computational_povm(2), 100, rng
        )
    with pytest.raises(DomainError):
        run_dimension_model(
            2, 0.5, computational_povm(2), computational_povm(2), 0, rng
        )


def test_monte_carlo_raises_when_nothing_fires(rng):
    povm = computational_povm(2)
    with pytest.raises(ZeroFiringError):
        run_dimension_model(2, 1e-9, povm, povm, 200, rng)


def _one_batch_counts(d, delta, x_povm, y_povm, samples, rng):
    """Reference: every draw of the run made at once, in one batch.

    Returns Alice's firing count, the coarse joint counts of the fired
    draws (rows: Alice's parent outcomes, columns: Bob's) and Bob's
    unconditional coarse counts."""
    def arrays(povm):
        weights, directions, labels = refine_to_rank_one(povm)
        parents = list(dict.fromkeys(labels.tolist()))
        return (
            weights,
            directions,
            np.array([parents.index(lab) for lab in labels.tolist()]),
            len(parents),
        )

    wx, dir_x, coarse_x, n_x = arrays(x_povm)
    wy, dir_y, coarse_y, n_y = arrays(y_povm)
    g = rng.standard_normal((samples, d, 2))
    phi = g[..., 0] + 1j * g[..., 1]
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    cum_x = np.cumsum(wx / d)
    cum_x[-1] = 1.0
    a_ref = np.minimum(
        np.searchsorted(cum_x, rng.random(samples), side="right"), len(wx) - 1
    )
    overlap = np.abs(np.sum(phi.conj() * dir_x[a_ref], axis=1)) ** 2
    fired = overlap >= math.cos(delta) ** 2
    w_bob = wy * np.abs(phi @ dir_y.T) ** 2
    cum_bob = np.cumsum(w_bob / w_bob.sum(axis=1, keepdims=True), axis=1)
    cum_bob[:, -1] = 1.0
    b_ref = np.sum(rng.random(samples)[:, None] > cum_bob, axis=1)
    b_par = coarse_y[np.minimum(b_ref, len(wy) - 1)]
    joint = np.zeros((n_x, n_y), dtype=np.int64)
    np.add.at(joint, (coarse_x[a_ref[fired]], b_par[fired]), 1)
    return int(fired.sum()), joint, np.bincount(b_par, minlength=n_y)


#: Outcome counts of the random POVMs (Alice's, Bob's) per case name.
_RANDOM_OUTCOMES = {"random": (4, 3), "random-6-5": (6, 5)}


@pytest.mark.parametrize("d, delta, povms", [
    (2, math.pi / 6, "computational"),
    (3, math.pi / 4, "random"),
    (4, 0.5236, "computational"),  # the benchmark's case
    # refined to more rank-one elements than d on both sides
    (4, 0.9, "random-6-5"),
])
def test_chunked_run_consumes_the_one_batch_stream(d, delta, povms):
    # chunks split the draws, not the random stream: the counts and the
    # caller's generator state match one batch of every draw
    samples = 2 * CHUNK + 17
    if povms in _RANDOM_OUTCOMES:
        n_a, n_b = _RANDOM_OUTCOMES[povms]
        povm_rng = np.random.default_rng(3)
        x_povm, y_povm = random_povm(d, n_a, povm_rng), random_povm(d, n_b, povm_rng)
        assert len(refine_to_rank_one(x_povm)[0]) > d
        assert len(refine_to_rank_one(y_povm)[0]) > d
    else:
        x_povm = y_povm = computational_povm(d)
    rng, ref_rng = np.random.default_rng(77), np.random.default_rng(77)
    report = run_dimension_model(d, delta, x_povm, y_povm, samples, rng)
    n_fired, joint, bob = _one_batch_counts(
        d, delta, x_povm, y_povm, samples, ref_rng
    )
    assert report.n_fired == n_fired
    np.testing.assert_array_equal(report.joint_counts, joint)
    np.testing.assert_array_equal(report.bob_counts, bob)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_does_not_grow_with_samples():
    povm = computational_povm(3)

    def run(samples):
        return lambda: run_dimension_model(
            3, math.pi / 4, povm, povm, samples, np.random.default_rng(5)
        )

    small, large = _traced_peak(run(4 * CHUNK)), _traced_peak(run(16 * CHUNK))
    assert large == pytest.approx(small, rel=0.1), (small, large)


def test_monte_carlo_memory_does_not_grow_with_dimension():
    # chunks are sized in bytes: fewer draws per chunk at larger d
    def run(d):
        povm = computational_povm(d)
        return lambda: run_dimension_model(
            d, 1.4, povm, povm, 1 << 17, np.random.default_rng(5)
        )

    small, large = _traced_peak(run(8)), _traced_peak(run(32))
    assert large == pytest.approx(small, rel=0.25), (small, large)
