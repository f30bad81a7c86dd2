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
Carlo, counted chunk by chunk in bounded memory, and reports per-cell
empirical probabilities, targets, error bounds, and three-sigma
statistical margins.  It is the one implementation of the two parties'
rules.  Its conditional table has a closed form, which the tests hold it
against: P(a, b | fire) = sum over rank-one elements i -> a, j -> b of
(w_i w_j / d) (g_ij + (s/d)(1 - d g_ij)), with s = sin^2 delta and
g_ij = |sum_k x_ik y_jk|^2.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .bounds import (
    epsilon_of_angle,
    eta_lower_bound,
    eta_symmetrized,
    fire_probability,
)
from .errors import DomainError, InvariantViolation, ZeroFiringError
from .quantum import (
    Povm,
    RankOnePovmElement,
    chunk_sizes,
    haar_random_state,
    inverse_cdf,
    refine_to_rank_one,
)
from .verify import SIGMA_FACTOR

#: Allowed deviation of a rank-one decomposition's total weight from d.
WEIGHT_SUM_TOL = 1e-8
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


def _rank_one_arrays(
    elements: Sequence[RankOnePovmElement],
) -> tuple[np.ndarray, np.ndarray, list[Any]]:
    if not elements:
        raise DomainError("need at least one rank-one element")
    weights = np.array([e.weight for e in elements])
    directions = np.stack([e.direction for e in elements])
    labels = [e.parent_label for e in elements]
    d = directions.shape[1]
    if abs(weights.sum() - d) > WEIGHT_SUM_TOL:
        raise InvariantViolation(
            f"rank-one weights sum to {weights.sum()!r}, expected the "
            f"dimension {d} (within {WEIGHT_SUM_TOL})"
        )
    return weights, directions, labels


@dataclass(frozen=True)
class CellCheck:
    """One joint outcome cell of the Monte Carlo report."""

    outcome_a: Any
    outcome_b: Any
    empirical: float
    target: float
    bound: float
    sigma: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "a": str(self.outcome_a),
            "b": str(self.outcome_b),
            "empirical": self.empirical,
            "target": self.target,
            "bound": self.bound,
            "sigma": self.sigma,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class MarginalCheck:
    """One single-party marginal cell (three-sigma criterion)."""

    outcome: Any
    empirical: float
    target: float
    sigma: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "outcome": str(self.outcome),
            "empirical": self.empirical,
            "target": self.target,
            "sigma": self.sigma,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class DimensionModelReport:
    """Monte Carlo verification results.

    ``cells`` checks every joint outcome conditional on Alice firing
    against |empirical - target| <= bound + 3 sigma, with bound =
    epsilon * P(a|X) * P(b|Y).  ``alice_marginal`` (conditional on firing)
    and ``bob_marginal`` (unconditional) use plain three-sigma bands.
    ``bob_marginal_given_fire`` is reported for diagnosis only and carries
    no pass criterion: only Bob's unconditional marginal is required to
    match |y_b|/d, and no separate bound for the conditional one is
    established — it stays within the joint-cell epsilon bound implicitly.
    """

    params: DimensionModelParams
    n_samples: int
    n_fired: int
    q_hat: float
    q_sigma: float
    q_passed: bool
    eta: float
    efficiency_lower_bound: float | None
    eta_above_bound: bool
    cells: tuple[CellCheck, ...]
    alice_marginal: tuple[MarginalCheck, ...]
    bob_marginal: tuple[MarginalCheck, ...]
    bob_marginal_given_fire: tuple[tuple[Any, float, float], ...]
    passed: bool = field(default=False)

    def to_dict(self) -> dict:
        return {
            "d": self.params.d,
            "delta": self.params.delta,
            "epsilon": self.params.epsilon,
            "q_theory": self.params.fire_prob,
            "q_hat": self.q_hat,
            "q_sigma": self.q_sigma,
            "q_pass": self.q_passed,
            "eta": self.eta,
            "efficiency_lower_bound": self.efficiency_lower_bound,
            "eta_above_bound": self.eta_above_bound,
            "n_samples": self.n_samples,
            "n_fired": self.n_fired,
            "cells": [c.to_dict() for c in self.cells],
            "alice_marginal": [c.to_dict() for c in self.alice_marginal],
            "bob_marginal": [c.to_dict() for c in self.bob_marginal],
            "bob_marginal_given_fire": [
                {"outcome": str(o), "empirical": e, "target": t}
                for o, e, t in self.bob_marginal_given_fire
            ],
            "pass": self.passed,
        }


def _coarse_map(labels: list[Any]) -> tuple[list[Any], np.ndarray]:
    """Distinct parent labels (first-appearance order) and the index map."""
    parents: list[Any] = []
    idx = np.empty(len(labels), dtype=np.int64)
    for j, lab in enumerate(labels):
        if lab not in parents:
            parents.append(lab)
        idx[j] = parents.index(lab)
    return parents, idx


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
    wx, dir_x, labels_x = _rank_one_arrays(refine_to_rank_one(x_povm))
    wy, dir_y, labels_y = _rank_one_arrays(refine_to_rank_one(y_povm))
    if dir_x.shape[1] != d or dir_y.shape[1] != d:
        raise DomainError(
            f"POVMs act on dimensions {dir_x.shape[1]}/{dir_y.shape[1]}, "
            f"expected {d}"
        )
    parents_x, coarse_x = _coarse_map(labels_x)
    parents_y, coarse_y = _coarse_map(labels_y)
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
    wx_par = np.zeros(n_x)
    np.add.at(wx_par, coarse_x, wx)
    wy_par = np.zeros(n_y)
    np.add.at(wy_par, coarse_y, wy)
    marg_a_qm = wx_par / d
    marg_b_qm = wy_par / d

    eps = params.epsilon
    cells = []
    emp = joint_counts / n_fired
    for ia in range(n_x):
        for ib in range(n_y):
            t = float(target[ia, ib])
            bound = eps * float(marg_a_qm[ia]) * float(marg_b_qm[ib])
            sigma = math.sqrt(max(t * (1.0 - t), 0.0) / n_fired)
            err = abs(float(emp[ia, ib]) - t)
            cells.append(
                CellCheck(
                    parents_x[ia],
                    parents_y[ib],
                    float(emp[ia, ib]),
                    t,
                    bound,
                    sigma,
                    err <= bound + SIGMA_FACTOR * sigma,
                )
            )

    def _marginal_checks(counts, total, targets, labels):
        out = []
        for j, lab in enumerate(labels):
            p = float(targets[j])
            f = counts[j] / total
            sigma = math.sqrt(max(p * (1.0 - p), 0.0) / total)
            out.append(
                MarginalCheck(
                    lab, float(f), p, sigma, abs(f - p) <= SIGMA_FACTOR * sigma
                )
            )
        return tuple(out)

    alice_marg = _marginal_checks(
        joint_counts.sum(axis=1), n_fired, marg_a_qm, parents_x
    )
    bob_marg = _marginal_checks(
        bob_counts, samples, marg_b_qm, parents_y
    )
    b_fired_counts = joint_counts.sum(axis=0)
    bob_cond = tuple(
        (parents_y[j], float(b_fired_counts[j] / n_fired), float(marg_b_qm[j]))
        for j in range(n_y)
    )

    q_hat = n_fired / samples
    q_theory = params.fire_prob
    q_sigma = math.sqrt(q_theory * (1.0 - q_theory) / samples)
    q_passed = abs(q_hat - q_theory) <= SIGMA_FACTOR * q_sigma
    lb = params.efficiency_lower_bound
    eta_above = True if lb is None else params.eta >= lb
    passed = (
        q_passed
        and eta_above
        and all(c.passed for c in cells)
        and all(c.passed for c in alice_marg)
        and all(c.passed for c in bob_marg)
    )
    return DimensionModelReport(
        params=params,
        n_samples=samples,
        n_fired=n_fired,
        q_hat=q_hat,
        q_sigma=q_sigma,
        q_passed=q_passed,
        eta=params.eta,
        efficiency_lower_bound=lb,
        eta_above_bound=eta_above,
        cells=tuple(cells),
        alice_marginal=alice_marg,
        bob_marginal=bob_marg,
        bob_marginal_given_fire=bob_cond,
        passed=passed,
    )
