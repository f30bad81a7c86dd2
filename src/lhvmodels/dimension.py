"""The dimension-dependent approximate local model and its Monte Carlo
verification.

The hidden variable is a Haar-random pure state phi on C^d.  For the
maximally entangled state measured with rank-one POVMs:

* Alice first draws outcome ``a`` with probability |x_a|/d, then answers
  only if phi lies within angle delta of the drawn direction
  (|<phi|x_a>|^2 >= cos^2 delta) — otherwise her detector is silent.  Over
  Haar-random phi she fires with probability Q = (sin delta)^(2(d-1)),
  independently of which outcome was drawn.
* Bob always answers, with probability |y_b| |<phi*|y_b>|^2 for outcome
  ``b`` (a proper distribution by POVM completeness).

Conditional on Alice firing, the joint statistics approximate the quantum
ones within epsilon = d (sin^2 delta + 2 sin delta) relative to the product
of marginals, while both marginals are reproduced exactly.  Symmetrizing
the roles gives detector efficiency eta = 2Q/(1+Q) >= (epsilon/4d)^(2(d-1)).

:func:`run_dimension_model` estimates all of this by vectorized Monte
Carlo, counted chunk by chunk in bounded memory, on the arrays of
:func:`~lhvmodels.quantum.refine_to_rank_one`.  Its report holds the
coarse count and target arrays and the :func:`~lhvmodels.verify.sigma_band`
checks of the joint cells (with the epsilon bound as slack), both
marginals and the firing rate.  It is the one implementation of the two
parties' rules.  Its conditional table has a closed form, which the tests hold it
against: P(a, b | fire) = sum over rank-one elements i -> a, j -> b of
(w_i w_j / d) (g_ij + (s/d)(1 - d g_ij)), with s = sin^2 delta and
g_ij = |sum_k x_ik y_jk|^2.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    epsilon_of_angle,
    eta_lower_bound,
    eta_symmetrized,
    fire_probability,
)
from .errors import DomainError, ZeroFiringError
from .quantum import (
    Povm,
    chunk_sizes,
    haar_random_state,
    inverse_cdf,
    refine_to_rank_one,
)
from .verify import sigma_band

#: Bytes of normals and complex product one chunk of the Monte Carlo run
#: may hold: a working set near a core's 2 MiB L2 cache, whatever d and
#: the POVMs are.
CHUNK_BYTES = 4 << 20


@dataclass(frozen=True)
class DimensionModelParams:
    """Model parameters for local dimension d and threshold angle delta,
    with the derived quantities as properties."""

    d: int
    delta: float

    def __post_init__(self) -> None:
        if int(self.d) < 2:
            raise DomainError(f"need dimension >= 2, got {self.d}")
        if not 0.0 < float(self.delta) <= math.pi / 2.0:
            raise DomainError(
                f"threshold angle must lie in (0, pi/2], got {self.delta}"
            )
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def fire_prob(self) -> float:
        """Q = (sin delta)^(2(d-1)): Alice's firing probability."""
        return fire_probability(self.d, self.delta)

    @property
    def epsilon(self) -> float:
        """The error scale d (sin^2 delta + 2 sin delta)."""
        return epsilon_of_angle(self.d, self.delta)

    @property
    def eta(self) -> float:
        """Symmetrized detector efficiency 2Q/(1+Q)."""
        return eta_symmetrized(self.fire_prob)

    @property
    def efficiency_lower_bound(self) -> float | None:
        """(epsilon/4d)^(2(d-1)), or None when epsilon >= 2d (outside the
        regime where the closed-form bound applies)."""
        eps = self.epsilon
        if eps >= 2.0 * self.d:
            return None
        return eta_lower_bound(self.d, eps)


@dataclass(frozen=True, eq=False)
class DimensionModelReport:
    """Monte Carlo verification results, as arrays over parent outcomes.

    ``parents_x`` and ``parents_y`` are the outcome positions of Alice's
    and Bob's POVMs that some rank-one piece refines (rows and columns of
    the joint arrays).  ``joint_counts`` counts the draws where Alice
    fired by joint outcome, ``bob_counts`` every draw by Bob's outcome;
    ``target``, ``alice_target`` and ``bob_target`` are the quantum joint
    table and marginals P(a|X) = |x_a|/d, P(b|Y) = |y_b|/d, and ``bound``
    is the joint cells' slack epsilon P(a|X) P(b|Y).

    The four :func:`~lhvmodels.verify.sigma_band` results
    ``(freq, sigma, passed)`` are the checks: ``joint`` conditional on
    firing, with the slack ``bound``; ``alice``
    (conditional on firing) and ``bob`` (unconditional) marginals; and
    ``q``, the firing rate against Q.  Bob's marginal given firing is
    reported for diagnosis only and carries no pass criterion: only his
    unconditional marginal is required to match |y_b|/d, and no separate
    bound for the conditional one is established — it stays within the
    joint-cell epsilon bound implicitly.
    """

    params: DimensionModelParams
    n_samples: int
    n_fired: int
    parents_x: np.ndarray
    parents_y: np.ndarray
    joint_counts: np.ndarray
    bob_counts: np.ndarray
    target: np.ndarray
    alice_target: np.ndarray
    bob_target: np.ndarray
    bound: np.ndarray
    joint: tuple[np.ndarray, np.ndarray, np.ndarray]
    alice: tuple[np.ndarray, np.ndarray, np.ndarray]
    bob: tuple[np.ndarray, np.ndarray, np.ndarray]
    q: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def eta_above_bound(self) -> bool:
        lb = self.params.efficiency_lower_bound
        return lb is None or self.params.eta >= lb

    @property
    def passed(self) -> bool:
        return self.eta_above_bound and all(
            bool(check[2].all())
            for check in (self.q, self.joint, self.alice, self.bob)
        )

    def to_dict(self) -> dict:
        """The JSON report body; its ``cells`` are also the CSV rows, one
        per joint outcome in C order."""
        params = self.params

        def marginal(labels, check, target):
            return [
                {"outcome": str(o), "empirical": f, "target": t, "sigma": s,
                 "pass": ok}
                for o, t, f, s, ok in zip(labels.tolist(), target.tolist(),
                                          *(a.tolist() for a in check))
            ]

        a, b = np.meshgrid(self.parents_x, self.parents_y, indexing="ij")
        columns = (a.astype(str), b.astype(str), self.joint[0], self.target,
                   self.bound, *self.joint[1:])
        fired_b = self.joint_counts.sum(axis=0) / self.n_fired
        return {
            "d": params.d,
            "delta": params.delta,
            "epsilon": params.epsilon,
            "q_theory": params.fire_prob,
            "q_hat": float(self.q[0]),
            "q_sigma": float(self.q[1]),
            "q_pass": bool(self.q[2]),
            "eta": params.eta,
            "efficiency_lower_bound": params.efficiency_lower_bound,
            "eta_above_bound": self.eta_above_bound,
            "n_samples": self.n_samples,
            "n_fired": self.n_fired,
            "cells": [
                dict(zip(("a", "b", "empirical", "target", "bound", "sigma",
                          "pass"), row))
                for row in zip(*(c.ravel().tolist() for c in columns))
            ],
            "alice_marginal": marginal(self.parents_x, self.alice,
                                       self.alice_target),
            "bob_marginal": marginal(self.parents_y, self.bob, self.bob_target),
            "bob_marginal_given_fire": [
                {"outcome": str(o), "empirical": e, "target": t}
                for o, e, t in zip(self.parents_y.tolist(), fired_b.tolist(),
                                   self.bob_target.tolist())
            ],
            "pass": self.passed,
        }


def run_dimension_model(
    d: int,
    delta: float,
    x_povm: Povm,
    y_povm: Povm,
    samples: int,
    rng: np.random.Generator,
) -> DimensionModelReport:
    """Run the model on ``samples`` Haar-random hidden states, vectorized.

    Both POVMs are refined to rank one internally; statistics are
    accumulated per refined element and coarse-grained back to the parent
    outcome labels.  Draw order: all hidden states, then Alice's outcome
    uniforms, then Bob's outcome uniforms — so a fixed seed reproduces the
    run.  The draws are made and counted in chunks sized by bytes, not by
    draws: a draw holds 16 d bytes of normals and 16 (n_rx + n_ry) bytes
    of the complex product (one row per rank-one element of either POVM),
    and a chunk holds as many draws as fit in :data:`CHUNK_BYTES` (at
    least one).  So memory grows neither with ``samples`` nor with d or
    the POVMs' width.  The chunks consume exactly the stream one batch of
    ``samples`` would, and leave ``rng`` where that batch would, so the
    chunk size never changes a seeded count.

    Each chunk makes one complex product of the stacked directions (Alice's
    conjugated, Bob's plain) with the hidden states, and squares its moduli
    as re^2 + im^2 in the product's own memory: these quadratic forms are
    Alice's overlaps |<x_a|phi>|^2 and Bob's |<phi*|y_b>|^2.  Alice compares
    her drawn element's overlap with cos^2 delta; Bob draws against his
    unnormalized cumulative weights, with the uniform scaled by their total.
    The counts equal those of the textbook arithmetic (normalized weights,
    a cumulative table ending in 1), which the tests keep as the oracle;
    intermediate floats differ from it in their last bits, so a count could
    move only for a draw within a few ulps of a threshold.

    Raises :class:`ZeroFiringError` if no hidden state passes Alice's
    threshold (delta too small for the sample budget).
    """
    params = DimensionModelParams(d, delta)
    samples = int(samples)
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    wx, dir_x, labels_x = refine_to_rank_one(x_povm)
    wy, dir_y, labels_y = refine_to_rank_one(y_povm)
    if dir_x.shape[1] != d or dir_y.shape[1] != d:
        raise DomainError(
            f"POVMs act on dimensions {dir_x.shape[1]}/{dir_y.shape[1]}, "
            f"expected {d}"
        )
    # the labels increase, so np.unique keeps their order of appearance
    parents_x, coarse_x = np.unique(labels_x, return_inverse=True)
    parents_y, coarse_y = np.unique(labels_y, return_inverse=True)
    n_x, n_y = len(parents_x), len(parents_y)
    n_rx = len(wx)
    chunk = max(1, CHUNK_BYTES // (16 * (d + n_rx + len(wy))))

    # One batch would draw every hidden state's normals, then all of
    # Alice's uniforms, then all of Bob's.  The chunks consume that same
    # stream: a first pass skips the first two segments on ``rng`` (into one
    # reused buffer), keeping a copy of the generator at the start of each,
    # so ``rng`` is left where one batch would leave it.
    skip = np.empty(2 * d * min(samples, chunk))
    normal_rng = copy.deepcopy(rng)
    for c in chunk_sizes(samples, chunk):
        rng.standard_normal(out=skip[: 2 * d * c])
    alice_rng = copy.deepcopy(rng)
    for c in chunk_sizes(samples, chunk):
        rng.random(out=skip[:c])
    del skip  # the chunk loop below never reads it

    cum_x = np.cumsum(wx / d)
    cum_x[-1] = 1.0
    cos2_delta = math.cos(delta) ** 2
    # One product gives Alice's <x_a|phi> (conjugated rows) and Bob's
    # <phi*|y_b> = sum_i phi_i y_i, phi* relative to the basis in which the
    # shared state is (1/sqrt d) sum |ii>.  One row per rank-one element,
    # one column per draw, so each element's values are read in one sweep.
    dirs = np.concatenate([dir_x.conj(), dir_y])
    n_fired = 0
    joint_counts = np.zeros(n_x * n_y, dtype=np.int64)
    bob_counts = np.zeros(n_y, dtype=np.int64)
    for c in chunk_sizes(samples, chunk):
        amp = dirs @ haar_random_state(d, normal_rng, size=c).T
        # squared moduli re^2 + im^2, in the product's own memory; summed
        # row by row, since a whole-block sum of the interleaved halves
        # would copy one half first
        sq = amp.view(np.float64)
        np.square(sq, out=sq)
        p = sq[:, 0::2]
        for k in range(len(p)):
            p[k] += sq[k, 1::2]

        # Alice: outcome first (prob |x_a|/d), then the overlap threshold
        a_ref = np.searchsorted(cum_x, alice_rng.random(c), side="right")
        a_ref = np.minimum(a_ref, n_rx - 1)
        fired = p[a_ref, np.arange(c)] >= cos2_delta

        # Bob: probability |y_b| |<phi*|y_b>|^2, drawn against the
        # unnormalized cumulative weights scaled by their total
        cum_bob = p[n_rx:]
        cum_bob *= wy[:, None]
        for j in range(1, len(cum_bob)):
            cum_bob[j] += cum_bob[j - 1]
        u = rng.random(c)
        b_par = coarse_y[inverse_cdf(u * cum_bob[-1], cum_bob[:-1].T)]
        # free the product (and its views) before the next one is made
        del amp, sq, p, cum_bob

        n_fired += int(np.count_nonzero(fired))
        joint_counts += np.bincount(
            coarse_x[a_ref[fired]] * n_y + b_par[fired], minlength=n_x * n_y
        )
        bob_counts += np.bincount(b_par, minlength=n_y)

    if n_fired == 0:
        raise ZeroFiringError(
            f"no hidden state passed the threshold in {samples} samples "
            f"(d={d}, delta={delta:.4g}, expected rate {params.fire_prob:.3e})"
        )
    joint_counts = joint_counts.reshape(n_x, n_y)

    # targets from the rank-one closed form, coarse-grained
    gram = dir_x @ dir_y.T  # <x_a*|y_b> as a conjugation-free dot product
    target_ref = (wx[:, None] * wy[None, :]) * np.abs(gram) ** 2 / d
    target = np.zeros((n_x, n_y))
    np.add.at(target, (coarse_x[:, None], coarse_y[None, :]), target_ref)
    alice_target = np.zeros(n_x)
    np.add.at(alice_target, coarse_x, wx)
    bob_target = np.zeros(n_y)
    np.add.at(bob_target, coarse_y, wy)
    alice_target /= d
    bob_target /= d
    bound = params.epsilon * alice_target[:, None] * bob_target
    return DimensionModelReport(
        params=params,
        n_samples=samples,
        n_fired=n_fired,
        parents_x=parents_x,
        parents_y=parents_y,
        joint_counts=joint_counts,
        bob_counts=bob_counts,
        target=target,
        alice_target=alice_target,
        bob_target=bob_target,
        bound=bound,
        joint=sigma_band(joint_counts, n_fired, target, bound),
        alice=sigma_band(joint_counts.sum(axis=1), n_fired, alice_target),
        bob=sigma_band(bob_counts, samples, bob_target),
        q=sigma_band(n_fired, samples, params.fire_prob),
    )
