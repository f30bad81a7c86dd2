"""Ready-made scenarios: standard demo setups and seeded random ones."""

from __future__ import annotations

import numpy as np

from .quantum import (
    Povm,
    QuantumState,
    Scenario,
    ghz_state,
    maximally_entangled,
    projective_povm,
)


def computational_povm(d: int) -> Povm:
    """Projectors onto the computational basis of C^d."""
    return projective_povm(np.eye(d))


def _qubit_basis(theta: float) -> list[np.ndarray]:
    """Orthonormal qubit basis in the x-z plane at angle theta."""
    c, s = np.cos(theta), np.sin(theta)
    return [np.array([c, s]), np.array([-s, c])]


def chsh_scenario() -> Scenario:
    """Maximally entangled qubit pair with the standard two-settings-a-side
    measurement angles (0, pi/4 for Alice; pi/8, -pi/8 for Bob)."""
    alice = [projective_povm(_qubit_basis(t)) for t in (0.0, np.pi / 4)]
    bob = [projective_povm(_qubit_basis(t)) for t in (np.pi / 8, -np.pi / 8)]
    return Scenario(maximally_entangled(2), (tuple(alice), tuple(bob)))


def ghz_scenario(n_parties: int = 3) -> Scenario:
    """N qubits in the GHZ state, each party choosing between the two
    complementary equatorial bases (x and y eigenbases)."""
    s2 = 1.0 / np.sqrt(2.0)
    x_basis = [np.array([s2, s2]), np.array([s2, -s2])]
    y_basis = [np.array([s2, 1j * s2]), np.array([s2, -1j * s2])]
    per_party = (projective_povm(x_basis), projective_povm(y_basis))
    return Scenario(
        ghz_state(n_parties, 2), tuple(per_party for _ in range(n_parties))
    )


def random_povm(d: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Random POVM with ``n_outcomes`` full-rank elements.

    Draws positive matrices A_i = G_i G_i^dagger and conjugates each by
    S^(-1/2), S = sum_i A_i, so the elements sum to the identity.
    """
    raw = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    return Povm(tuple(inv_sqrt @ a @ inv_sqrt for a in raw))


def random_two_party_scenario(
    rng: np.random.Generator,
    m_a: int = 2,
    m_b: int = 3,
    n_outcomes: int = 3,
    dims: tuple[int, int] = (2, 3),
) -> Scenario:
    """Random mixed state on C^dims[0] (x) C^dims[1] with random
    ``n_outcomes``-element POVMs: ``m_a`` settings for the first party,
    ``m_b`` for the second."""
    d_a, d_b = dims
    g = rng.standard_normal((d_a * d_b, d_a * d_b)) + 1j * rng.standard_normal(
        (d_a * d_b, d_a * d_b)
    )
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    state = QuantumState("mixed", (d_a, d_b), rho)
    alice = tuple(random_povm(d_a, n_outcomes, rng) for _ in range(m_a))
    bob = tuple(random_povm(d_b, n_outcomes, rng) for _ in range(m_b))
    return Scenario(state, (alice, bob))


def dimension_scenario(d: int) -> Scenario:
    """Maximally entangled pair in dimension d, computational-basis
    projectors on both sides (one setting each) — the default measurement
    pair for the dimension-dependent model."""
    povm = computational_povm(d)
    return Scenario(maximally_entangled(d), ((povm,), (povm,)))
