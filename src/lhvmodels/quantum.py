"""States, measurements, and outcome statistics of N-party Bell scenarios.

This module owns the quantum side of the package: pure/mixed states on a
tensor product of finite-dimensional systems, POVM measurements, and the
joint outcome probabilities

    P(a_1, ..., a_N | x_1, ..., x_N) = Tr((E^1_{a_1} (x) ... (x) E^N_{a_N}) rho),

together with the detector-inefficiency extension in which every party
gains a "no click" outcome and a pattern with k silent detectors occurs
with probability eta^(N-k) (1-eta)^k times the quantum marginal on the
firing set.

Every quantum table of a scenario is read from one contraction
(:func:`all_marginals`), made once per scenario and cached on it: joint
tables in its all-click corner, marginals in its identity rows.  The table
accessors return read-only views of it, and only this module knows its
index layout.  Each input is checked once, where it enters: a caller's
settings choice by :func:`settings_index`, a POVM's shapes when the
:class:`Povm` is built, and a scenario's table and contraction sizes by
:func:`check_table_size` before a model builds any table.

Outcome tables (:class:`OutcomeDistribution`) are dense float64 arrays,
settings axes first and then one outcome axis per party.  Outcomes are the
positions 0..A-1 of a party's POVM elements; in an eta-extended table
(``silent``) every outcome axis has one more position, the last, for no
click.  Labels appear only at I/O (:func:`outcome_labels`, where the silent
position is "∅").  Sums over cells run in C order, and a comparison's worst
cell is the first tied cell in C order.

Numerical policy: quantum quantities are computed in floating point and
compared with tolerance ``1e-10``; exact rational arithmetic is reserved for
the combinatorial layer built on top of these tables.  Construction-time
invariants (normalization, Hermiticity, POVM completeness) are enforced at
tolerances ``1e-12`` / ``1e-10`` as documented per type.

All values are immutable after construction (arrays are marked read-only)
and safe to share across threads; every random operation takes an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DomainError,
    InvariantViolation,
    ScenarioFormatError,
    SizeGuardExceeded,
    StructuralError,
)

#: Tolerance for state normalization / Hermiticity checks.
NORM_TOL = 1e-12
#: Tolerance for POVM positivity and completeness checks.
POVM_TOL = 1e-10
#: Eigenvalues below this are treated as null directions when refining.
RANK_ONE_CUTOFF = 1e-12
#: Allowed deviation of a rank-one decomposition's total weight from d.
WEIGHT_SUM_TOL = 1e-8
#: Per-settings-block normalization tolerance of outcome tables.
BLOCK_SUM_TOL = 1e-12
#: Largest eta-extended table, in entries, that a model may build.
MAX_TABLE_ENTRIES = 2_000_000
#: Most bytes the largest step of a scenario's contraction may hold,
#: counted by :func:`check_table_size` before a model builds any table.
MAX_CONTRACTION_BYTES = 1 << 26
#: The two-party sampler draws and counts at most this many draws at a
#: time, so its memory does not grow with the number of samples.
CHUNK = 1 << 16


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A pure state vector or density matrix on a tensor-product space.

    Parameters
    ----------
    kind : {"pure", "mixed"}
        Representation of ``data``: amplitude vector or density matrix.
    dims : tuple of int
        Local dimension of each party, in party order.
    data : ndarray
        Complex vector of length ``prod(dims)`` (pure) or square matrix of
        that size (mixed).

    Raises
    ------
    StructuralError
        If the shape of ``data`` does not match ``dims``.
    InvariantViolation
        Pure: squared norm differs from 1 by more than 1e-12.  Mixed:
        non-Hermitian beyond 1e-12, eigenvalue below -1e-10, or trace
        differing from 1 by more than 1e-12.
    """

    kind: str
    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("pure", "mixed"):
            raise StructuralError(f"unknown state kind {self.kind!r}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise StructuralError(f"invalid local dimensions {dims}")
        data = np.asarray(self.data, dtype=complex)
        total = int(np.prod(dims))
        if self.kind == "pure":
            if data.shape != (total,):
                raise StructuralError(
                    f"pure state needs shape ({total},), got {data.shape}"
                )
            norm2 = float(np.vdot(data, data).real)
            if abs(norm2 - 1.0) > NORM_TOL:
                raise InvariantViolation(
                    f"pure state squared norm {norm2!r} differs from 1 "
                    f"by more than {NORM_TOL}"
                )
        else:
            if data.shape != (total, total):
                raise StructuralError(
                    f"density matrix needs shape ({total},{total}), "
                    f"got {data.shape}"
                )
            herm_dev = float(np.max(np.abs(data - data.conj().T)))
            if herm_dev > NORM_TOL:
                raise InvariantViolation(
                    f"density matrix is non-Hermitian (deviation {herm_dev:.3e})"
                )
            eigs = np.linalg.eigvalsh((data + data.conj().T) / 2.0)
            if float(eigs.min()) < -POVM_TOL:
                raise InvariantViolation(
                    f"density matrix has eigenvalue {float(eigs.min()):.3e} < -{POVM_TOL}"
                )
            tr = float(np.trace(data).real)
            if abs(tr - 1.0) > NORM_TOL:
                raise InvariantViolation(f"density matrix trace {tr!r} != 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", _readonly(data))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def density(self) -> np.ndarray:
        """The state as a density matrix (outer product for pure states)."""
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)


def maximally_entangled(d: int) -> QuantumState:
    """The two-party state (1/sqrt(d)) sum_i |ii>, in the computational basis.

    The computational basis is, by convention, the Schmidt basis of this
    state: <Phi| (|u> (x) |v>) = (1/sqrt(d)) <u*|v>, with |u*> the entrywise
    complex conjugate of |u>.
    """
    return ghz_state(2, d)


def ghz_state(n_parties: int, d: int = 2) -> QuantumState:
    """The N-party state (1/sqrt(d)) sum_i |i i ... i>.

    For ``n_parties=2`` this is the maximally entangled state of two
    d-dimensional systems; for d=2, N=3 it is the usual GHZ state.
    """
    if n_parties < 2:
        raise DomainError(f"need at least 2 parties, got {n_parties}")
    if d < 2:
        raise DomainError(f"need local dimension >= 2, got {d}")
    amp = np.zeros((d,) * n_parties, dtype=complex)
    for i in range(d):
        amp[(i,) * n_parties] = 1.0 / np.sqrt(d)
    return QuantumState("pure", (d,) * n_parties, amp.reshape(-1))


def haar_random_state(
    d: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Unit vector(s) drawn from the unitarily invariant measure on C^d.

    Implementation contract: 2d independent standard Gaussians per vector
    (real parts then imaginary parts, interleaved per component) are combined
    into a complex vector which is then normalized.  The resulting
    distribution is invariant under every fixed unitary.

    The ``(n, d, 2)`` block of normals is normalized in place, each row
    divided by the square root of its sum of squares, and returned as a
    complex view of the same memory (no copy).  The result equals
    ``(g0 + 1j*g1) / norm`` up to rounding in the last bits of the norm.

    Parameters
    ----------
    d : int
        Hilbert-space dimension (>= 1).
    rng : numpy.random.Generator
        Source of randomness; pass independent streams to parallel callers.
    size : int, optional
        If given, return an array of shape ``(size, d)`` of independent
        samples; otherwise a single vector of shape ``(d,)``.
    """
    if d < 1:
        raise DomainError(f"need dimension >= 1, got {d}")
    n = 1 if size is None else int(size)
    g = rng.standard_normal((n, d, 2))
    g /= np.sqrt(np.einsum("ijk,ijk->i", g, g))[:, None, None]
    z = g.view(np.complex128)[..., 0]
    return z[0] if size is None else z


def chunk_sizes(n: int, size: int = CHUNK) -> Iterator[int]:
    """Split ``n`` draws into consecutive chunks of at most ``size``."""
    return (min(size, n - start) for start in range(0, n, size))


def inverse_cdf(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: for each row ``i`` of the cumulative table ``cum``
    (shape ``(n, width)``, ``width >= 1``), the number of its entries
    strictly below ``u[i]``, as int64.

    The count is made one column at a time, so no ``(n, width)`` boolean
    block is built and reduced; the integers equal that block's row sums,
    ties included (the comparison is strict).  A row ending below ``u[i]``
    gives ``width``; callers clamp it to the last outcome.
    """
    idx = (u > cum[:, 0]).astype(np.int64)
    for j in range(1, cum.shape[1]):
        idx += u > cum[:, j]
    return idx


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Povm:
    """A measurement: one positive operator per outcome, summing to identity.

    Outcome ``a`` is the position of its element.  Elements must be square
    and of one dimension (else :class:`StructuralError`); use
    :func:`validate_povm` for positivity and completeness, which it
    reports instead of raising.
    """

    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        elements = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not elements:
            raise StructuralError("a POVM needs at least one element")
        shape = elements[0].shape
        square = len(shape) == 2 and shape[0] == shape[1]
        if not square or any(e.shape != shape for e in elements):
            shapes = [e.shape for e in elements]
            raise StructuralError(f"POVM elements need one square shape, got {shapes}")
        object.__setattr__(self, "elements", tuple(_readonly(e) for e in elements))

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        """The elements' common matrix dimension."""
        return self.elements[0].shape[0]


def projective_povm(vectors: Sequence[Sequence[complex]]) -> Povm:
    """POVM of rank-one projectors onto the given orthonormal vectors."""
    els = []
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        els.append(np.outer(v, v.conj()))
    return Povm(tuple(els))


@dataclass(frozen=True)
class PovmValidationReport:
    """Outcome of :func:`validate_povm`.

    ``failed_invariant`` is ``None`` when the POVM is valid, otherwise
    ``"positivity"`` or ``"completeness"``; ``worst_deviation`` is the
    worst-case numerical deviation of the named invariant (or, when valid,
    the larger of the two observed deviations).
    """

    ok: bool
    failed_invariant: str | None
    worst_deviation: float


def validate_povm(p: Povm) -> PovmValidationReport:
    """Check positivity of each element and completeness of their sum.

    Returns a report naming the first failed invariant and its worst-case
    deviation.  The shapes the invariants need (square elements of one
    dimension) are checked when the :class:`Povm` is built.
    """
    lowest = [np.linalg.eigvalsh((e + e.conj().T) / 2.0).min() for e in p.elements]
    return _povm_report(p, lowest)


def _povm_report(p: Povm, lowest: Sequence[float]) -> PovmValidationReport:
    """:func:`validate_povm`'s report, given the smallest eigenvalue of
    each element's Hermitian part."""
    pos_dev = 0.0
    for e, low in zip(p.elements, lowest):
        herm = float(np.max(np.abs(e - e.conj().T)))
        pos_dev = max(pos_dev, herm, -float(low))
    total = sum(p.elements)
    comp_dev = float(np.max(np.abs(total - np.eye(p.dim))))
    if pos_dev > POVM_TOL:
        return PovmValidationReport(False, "positivity", pos_dev)
    if comp_dev > POVM_TOL:
        return PovmValidationReport(False, "completeness", comp_dev)
    return PovmValidationReport(True, None, max(pos_dev, comp_dev))


def refine_to_rank_one(p: Povm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split every POVM element into rank-one pieces ``weight * |v><v|`` via
    eigendecomposition.

    Returns ``(weights, directions, parents)``, one row per piece: the
    piece's trace, its unit vector (a C-contiguous complex ``(n, d)``
    array) and the outcome position of the element it coarse-grains back
    to.  Pieces come element by element, each element's in ascending
    eigenvalue order, one per eigenvalue above ``1e-12`` (null directions
    carry no probability and are dropped); the sum of the reconstructed
    matrices reproduces the original element, and the weights sum to d
    within :data:`WEIGHT_SUM_TOL`.  The POVM is validated as by
    :func:`validate_povm`, its positivity taken from the same
    eigendecompositions.
    """
    weights, directions, parents, lowest = [], [], [], []
    for label, e in enumerate(p.elements):
        w, vecs = np.linalg.eigh((e + e.conj().T) / 2.0)
        lowest.append(w.min())
        keep = w > RANK_ONE_CUTOFF
        weights.append(w[keep])
        directions.append(vecs[:, keep].T)
        parents.append(np.full(int(keep.sum()), label))
    report = _povm_report(p, lowest)
    if not report.ok:
        raise InvariantViolation(
            f"cannot refine invalid POVM ({report.failed_invariant} violated "
            f"by {report.worst_deviation:.3e})"
        )
    weights = np.concatenate(weights)
    if abs(weights.sum() - p.dim) > WEIGHT_SUM_TOL:
        raise InvariantViolation(
            f"rank-one weights sum to {weights.sum()!r}, expected the "
            f"dimension {p.dim} (within {WEIGHT_SUM_TOL})"
        )
    return weights, np.concatenate(directions), np.concatenate(parents)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Scenario:
    """An N-party Bell experiment: shared state plus per-party setting lists.

    ``settings[p]`` is the list of POVMs party ``p`` may choose between; all
    settings of one party must act on that party's local dimension and have
    the same number of outcomes.
    Construction validates every POVM, so a ``Scenario`` instance is always
    fully valid.
    """

    state: QuantumState
    settings: tuple[tuple[Povm, ...], ...]

    def __post_init__(self) -> None:
        settings = tuple(tuple(per_party) for per_party in self.settings)
        n = len(settings)
        if n < 2:
            raise StructuralError(f"a scenario needs >= 2 parties, got {n}")
        if n != self.state.n_parties:
            raise StructuralError(
                f"{n} setting lists for a {self.state.n_parties}-party state"
            )
        for party, povms in enumerate(settings):
            if not povms:
                raise StructuralError(f"party {party} has no settings")
            n_outcomes = povms[0].n_outcomes
            for s, povm in enumerate(povms):
                report = validate_povm(povm)
                if not report.ok:
                    raise InvariantViolation(
                        f"party {party} setting {s}: {report.failed_invariant} "
                        f"violated by {report.worst_deviation:.3e}"
                    )
                if povm.dim != self.state.dims[party]:
                    raise StructuralError(
                        f"party {party} setting {s} acts on dimension "
                        f"{povm.dim}, local dimension is {self.state.dims[party]}"
                    )
                if povm.n_outcomes != n_outcomes:
                    raise StructuralError(
                        f"party {party}: settings 0 and {s} have "
                        f"{n_outcomes} and {povm.n_outcomes} outcomes"
                    )
        object.__setattr__(self, "settings", settings)

    @property
    def n_parties(self) -> int:
        return len(self.settings)

    @cached_property
    def n_settings(self) -> tuple[int, ...]:
        """Number of settings per party (M_1, ..., M_N)."""
        return tuple(len(per_party) for per_party in self.settings)

    @cached_property
    def n_outcomes(self) -> tuple[int, ...]:
        """Number of outcomes per party (A_1, ..., A_N), the same for all
        of a party's settings."""
        return tuple(per_party[0].n_outcomes for per_party in self.settings)

    def settings_choices(self) -> Iterable[tuple[int, ...]]:
        """All joint setting choices, in lexicographic order."""
        return itertools.product(*(range(m) for m in self.n_settings))

    @cached_property
    def _contraction(self) -> np.ndarray:
        """The array of :func:`all_marginals`, contracted on first use:
        each party's stack holds the POVM elements of all its settings,
        then the identity."""
        stacks = [
            np.stack(
                [e for povm in per_party for e in povm.elements]
                + [np.eye(d, dtype=complex)]
            )
            for per_party, d in zip(self.settings, self.state.dims)
        ]
        table = _stacked_tables(self.state, stacks)
        table.setflags(write=False)
        return table


def settings_index(
    settings: Iterable[int], n_settings: Sequence[int]
) -> tuple[int, ...]:
    """A caller's settings choice as an index: one int per count in the
    tuple ``n_settings``, each in range, or :class:`DomainError`."""
    try:
        choice = tuple(map(operator.index, settings))
    except TypeError:  # not iterable, or not integers
        choice = ()
    whole = len(choice) == len(n_settings)
    if not (whole and all(0 <= x < m for x, m in zip(choice, n_settings))):
        raise DomainError(f"settings {settings!r} out of range for counts {n_settings}")
    return choice


def check_table_size(scenario: Scenario) -> None:
    """Raise :class:`SizeGuardExceeded` if the scenario's eta-extended
    table, prod_p M_p (A_p + 1) entries, exceeds :data:`MAX_TABLE_ENTRIES`,
    or the largest step of its contraction :data:`MAX_CONTRACTION_BYTES`.

    Step p of :func:`_stacked_tables` writes (prod_{q>=p} d_q)^2
    prod_{q<=p} (M_q A_q + 1) complex entries beside the density tensor's
    (prod_q d_q)^2, so a small table can still need a large contraction.
    """
    m, a, dims = scenario.n_settings, scenario.n_outcomes, scenario.state.dims
    entries = math.prod(mp * (ap + 1) for mp, ap in zip(m, a))
    if entries > MAX_TABLE_ENTRIES:
        raise SizeGuardExceeded(
            f"exact table would hold {entries} entries "
            f"(limit {MAX_TABLE_ENTRIES}); reduce parties, settings, or outcomes"
        )
    stacks = [mp * ap + 1 for mp, ap in zip(m, a)]
    step = max(
        math.prod(dims[p:]) ** 2 * math.prod(stacks[: p + 1])
        for p in range(len(dims))
    )
    size = 16 * (math.prod(dims) ** 2 + step)  # complex128 entries
    if size > MAX_CONTRACTION_BYTES:
        raise SizeGuardExceeded(
            f"the quantum table's contraction would hold {size} bytes at "
            f"its largest step (limit {MAX_CONTRACTION_BYTES}); reduce the "
            "local dimensions, settings, or outcomes"
        )


# ---------------------------------------------------------------------------
# joint probabilities
# ---------------------------------------------------------------------------


def _stacked_tables(
    state: QuantumState, op_stacks: Sequence[np.ndarray]
) -> np.ndarray:
    """Contract per-party operator stacks against the state.

    ``op_stacks[p]`` has shape ``(n_p, d_p, d_p)``; the result has shape
    ``(n_1, ..., n_N)`` with entry Tr((E^1_{a_1} (x) ...) rho), real part.

    Starts from the density tensor D[i, j] = rho_{j i} (psi*_i psi_j for a
    pure state), bra indices i_1..i_N first, and contracts one party at a
    time: the ket index j_p against the operators' column index
    (``tensordot``), then the bra index i_p against their row index (a
    trace).  This order keeps the cells that cancel exactly, such as the
    forbidden GHZ outcomes, at exactly 0.0.  Each step holds n_p d_p times
    the entries of the partly contracted tensor, never the prod (n_p d_p)
    of a chain that contracts every ket index first.
    """
    n = state.n_parties
    if state.kind == "pure":
        density = np.multiply.outer(state.data.conj(), state.data)
    else:
        density = state.data.T
    # axes: i_p..i_N, j_p..j_N, then the outcome axes of parties < p
    t = density.reshape(state.dims + state.dims)
    for p, ops in enumerate(op_stacks):
        t = np.tensordot(t, ops, axes=([n - p], [2]))
        t = np.einsum("i...i->...", t)
    return np.ascontiguousarray(t.real)


def all_marginals(scenario: Scenario) -> np.ndarray:
    """Every quantum table of a scenario, from one contraction, computed
    on first use and cached on the scenario.

    Party p's axis has ``M_p * A_p + 1`` entries: index ``x * A_p + a``
    is outcome position ``a`` of setting ``x``, and the last index
    substitutes the identity, tracing party p out.  So the all-click
    corner holds every joint table, and fixing some parties at the last
    index gives the marginal of the others.  The array is read-only;
    :func:`party_marginals`, :func:`subset_joint_table` and
    :func:`joint_outcome_table` return views of it, and
    :func:`quantum_distribution` copies one.
    """
    return scenario._contraction


def party_marginals(scenario: Scenario, parties: Iterable[int]) -> np.ndarray:
    """The quantum marginal of ``parties`` (strictly increasing) at every
    settings choice of theirs, the others traced out: a read-only view of
    :func:`all_marginals` with shape ``(M_p..., A_p...)`` over the listed
    parties, settings axes first and then outcome axes, each in the order
    of ``parties``.
    """
    parties = [int(p) for p in parties]
    n, k = scenario.n_parties, len(parties)
    if sorted(set(parties)) != parties or not all(0 <= p < n for p in parties):
        raise DomainError(
            f"parties must be strictly increasing within 0..{n - 1}, got {parties}"
        )
    m, a = scenario.n_settings, scenario.n_outcomes
    rows = all_marginals(scenario)[
        tuple(slice(-1) if p in parties else -1 for p in range(n)) + (Ellipsis,)
    ]
    split = rows.reshape([size for p in parties for size in (m[p], a[p])])
    return split.transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)])


def subset_joint_table(
    scenario: Scenario, parties: Sequence[int], settings: Sequence[int]
) -> np.ndarray:
    """Marginal outcome table of a subset of parties at one settings
    choice of theirs: a read-only view of :func:`all_marginals`.

    The remaining parties are traced out by substituting the identity for
    their measurement operators, so the result does not depend on any
    setting choice for them.  ``parties`` must be strictly increasing
    within 0..N-1; ``settings[j]`` is the setting of ``parties[j]``.  The
    returned axes follow the order of ``parties``.
    """
    table = party_marginals(scenario, parties)
    return table[settings_index(settings, table.shape[: table.ndim // 2])]


def joint_outcome_table(
    scenario: Scenario, settings: Sequence[int]
) -> np.ndarray:
    """Joint click probabilities at one settings choice: a read-only array
    of shape ``(n_outcomes_1, ..., n_outcomes_N)`` indexed by outcome
    positions."""
    return subset_joint_table(scenario, range(scenario.n_parties), settings)


# ---------------------------------------------------------------------------
# outcome distributions
# ---------------------------------------------------------------------------


def sequential_sum(a: np.ndarray, axes: Iterable[int]) -> np.ndarray:
    """Sum ``a`` over ``axes`` one cell at a time, in C order over them.

    This is the order, and so the rounding, of a Python loop over the
    cells; ``np.sum`` adds pairwise and can differ in the last bit.
    """
    axes = list(axes)
    kept = a.ndim - len(axes)
    moved = np.moveaxis(a, axes, range(kept, a.ndim))
    flat = moved.reshape(moved.shape[:kept] + (-1,))
    if not flat.shape[-1]:  # an empty sum, e.g. no all-click cell
        return np.zeros(flat.shape[:-1], dtype=a.dtype)
    return np.cumsum(flat, axis=-1)[..., -1]


def outcome_labels(size: int, silent: bool) -> list[str]:
    """Report labels of one outcome axis of ``size`` positions: each
    position as text, and "∅" for the last one where ``silent``."""
    labels = [str(i) for i in range(size)]
    if silent:
        labels[-1] = "∅"
    return labels


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """A probability table over settings choices and outcome tuples.

    ``probs`` has shape ``(M_1, ..., M_N, A_1, ..., A_N)``, so ``probs[s]``
    is the block at settings choice ``s``; outcomes are positions, and
    ``silent`` says that the last position of every outcome axis is the
    no-click outcome.  Labels are used only at I/O
    (:func:`outcome_labels`); :meth:`block` is one settings block of
    ``probs``.  Every input is stored read-only as float64, and each block
    must sum to 1 within ``1e-12``.  An empty array or an odd number of
    axes raises :class:`StructuralError`; an entry outside [0, 1] or a
    block that does not sum to 1 raises :class:`InvariantViolation`.
    """

    probs: np.ndarray
    silent: bool

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs)
        n = probs.ndim // 2
        if not n or probs.ndim != 2 * n:
            raise StructuralError(
                f"probability array of shape {probs.shape} is not settings "
                "axes followed by as many outcome axes"
            )
        if not probs.size:
            raise StructuralError(f"empty probability array of shape {probs.shape}")
        probs, tol = np.array(probs, dtype=np.float64), BLOCK_SUM_TOL
        outside = ~((probs >= -tol) & (probs <= 1 + tol))  # NaN too
        if outside.any():
            raise InvariantViolation(
                f"probability {probs[outside].tolist()[0]} outside [0,1]"
            )
        totals = probs.sum(axis=tuple(range(n, 2 * n)))
        off = ~(np.abs(totals - 1) <= tol)
        if off.any():
            s = tuple(int(i) for i in np.argwhere(off)[0])
            raise InvariantViolation(
                f"settings {s}: probabilities sum to {totals[s]}, not 1"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_parties(self) -> int:
        return self.probs.ndim // 2

    def settings_choices(self) -> list[tuple[int, ...]]:
        """Every settings choice, in lexicographic (C) order."""
        shape = self.probs.shape[: self.n_parties]
        return list(itertools.product(*(range(m) for m in shape)))

    def block(self, settings: Sequence[int]) -> np.ndarray:
        """The read-only outcome array ``probs[s]`` at one settings choice."""
        return self.probs[settings_index(settings, self.probs.shape[: self.n_parties])]

    @property
    def table(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], float]:
        """Every cell keyed by ``(settings, outcome positions)``, built on
        each access (for cell counts; computations use ``probs``)."""
        cells = list(np.ndindex(self.probs.shape[self.n_parties :]))
        rows = self.probs.reshape(-1, len(cells)).tolist()
        return {
            (s, o): p
            for s, row in zip(self.settings_choices(), rows)
            for o, p in zip(cells, row)
        }

    def all_click_conditional(self) -> np.ndarray:
        """Every block conditioned on all detectors firing, shape
        ``(M_1, ..., M_N, A'_1, ..., A'_N)`` with the silent position
        dropped from each outcome axis (DomainError where a block never
        fires fully)."""
        n = self.n_parties
        clicked = self.probs
        if self.silent:
            clicked = clicked[(Ellipsis,) + (slice(-1),) * n]
        totals = sequential_sum(clicked, range(n, 2 * n))
        zero = totals == 0
        if np.any(zero):
            s = tuple(int(i) for i in np.argwhere(zero)[0])
            raise DomainError(f"all-click probability is 0 at settings {s}")
        return clicked / np.reshape(totals, totals.shape + (1,) * n)


def quantum_distribution(scenario: Scenario) -> OutcomeDistribution:
    """The full click-only outcome table of a scenario, for every settings
    choice, as an :class:`OutcomeDistribution`: the marginal of all
    parties (:func:`party_marginals`)."""
    return OutcomeDistribution(
        party_marginals(scenario, range(scenario.n_parties)), silent=False
    )


def extend_with_inefficiency(
    dist: OutcomeDistribution, eta: float
) -> OutcomeDistribution:
    """Add detector silence at efficiency ``eta`` to a click-only table.

    A pattern in which a set K of k parties is silent and the rest fire with
    outcomes ``o`` has probability ``eta^(N-k) (1-eta)^k`` times the
    marginal of ``o`` over K (obtained by summing the click-only block, which
    by POVM completeness equals the identity-substitution marginal).  Each
    silent set K writes one slice of the output: the silent (last) position
    on K's outcome axes.  ``eta`` is taken as a float.
    """
    if dist.silent:
        raise DomainError("distribution already includes the no-click outcome")
    eta = float(eta)
    if not 0 <= eta <= 1:
        raise DomainError(f"efficiency {eta} outside [0,1]")
    n = dist.n_parties
    sizes = dist.probs.shape[n:]
    out = np.zeros(dist.probs.shape[:n] + tuple(a + 1 for a in sizes))
    for silent in itertools.product((False, True), repeat=n):
        k = sum(silent)
        factor = eta ** (n - k) * (1.0 - eta) ** k
        marg = sequential_sum(dist.probs, [n + q for q in range(n) if silent[q]])
        cell = tuple(sizes[q] if silent[q] else slice(sizes[q]) for q in range(n))
        # adding to zero also turns a -0.0 cell into 0.0
        out[(Ellipsis,) + cell] += factor * marg
    return OutcomeDistribution(out, silent=True)


# ---------------------------------------------------------------------------
# scenario (de)serialization
# ---------------------------------------------------------------------------


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [[_complex_to_pair(z) for z in row] for row in np.asarray(m)]


def scenario_to_json(scenario: Scenario) -> dict:
    """Serialize a scenario to the documented JSON structure.

    Complex numbers become two-element ``[re, im]`` arrays.  Pure-state data
    is a flat list of pairs, mixed-state data a list of matrix rows.  Outcome
    labels are positional (0..n-1) in this format.
    """
    state = scenario.state
    if state.kind == "pure":
        data = [_complex_to_pair(z) for z in state.data]
    else:
        data = _matrix_to_pairs(state.data)
    return {
        "parties": scenario.n_parties,
        "state": {"kind": state.kind, "dims": list(state.dims), "data": data},
        "settings": [
            [_povm_to_json(povm) for povm in per_party]
            for per_party in scenario.settings
        ],
    }


def _povm_to_json(povm: Povm) -> list:
    return [_matrix_to_pairs(e) for e in povm.elements]


def _pair_to_complex(pair: Any, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) for x in pair)
    ):
        raise ScenarioFormatError(
            f"{where}: expected a two-element [re, im] array, got {pair!r}"
        )
    return complex(float(pair[0]), float(pair[1]))


def _pairs_to_matrix(rows: Any, where: str) -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ScenarioFormatError(f"{where}: expected a non-empty matrix")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ScenarioFormatError(f"{where} row {i}: expected a list")
        out.append([_pair_to_complex(z, f"{where}[{i}]") for z in row])
    return np.asarray(out, dtype=complex)


def scenario_from_json(obj: Any) -> Scenario:
    """Parse a scenario from the documented JSON structure.

    Raises :class:`ScenarioFormatError` for every malformed or invalid
    input, including invariant violations of the described state or POVMs.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"top level must be an object, got {type(obj)}")
    try:
        parties = int(obj["parties"])
        state_obj = obj["state"]
        settings_obj = obj["settings"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(
            "top level needs integer 'parties', object 'state', list 'settings'"
        ) from exc
    if not isinstance(state_obj, dict):
        raise ScenarioFormatError("'state' must be an object")
    kind = state_obj.get("kind")
    if kind not in ("pure", "mixed"):
        raise ScenarioFormatError(
            f"state kind must be 'pure' or 'mixed', got {kind!r}"
        )
    dims = state_obj.get("dims")
    if (
        not isinstance(dims, (list, tuple))
        or not dims
        or not all(isinstance(d, int) and d >= 1 for d in dims)
    ):
        raise ScenarioFormatError("state 'dims' must be a list of positive integers")
    data = state_obj.get("data")
    try:
        if kind == "pure":
            if not isinstance(data, (list, tuple)):
                raise ScenarioFormatError("pure state 'data' must be a list of pairs")
            vec = np.asarray(
                [_pair_to_complex(z, "state data") for z in data], dtype=complex
            )
            state = QuantumState("pure", tuple(dims), vec)
        else:
            mat = _pairs_to_matrix(data, "state data")
            state = QuantumState("mixed", tuple(dims), mat)
    except (StructuralError, InvariantViolation) as exc:
        raise ScenarioFormatError(f"invalid state: {exc}") from exc
    if not isinstance(settings_obj, (list, tuple)) or len(settings_obj) != parties:
        raise ScenarioFormatError(
            f"'settings' must list one entry per party ({parties})"
        )
    per_party_povms = []
    for party, povm_list in enumerate(settings_obj):
        if not isinstance(povm_list, (list, tuple)) or not povm_list:
            raise ScenarioFormatError(f"party {party}: settings must be a non-empty list")
        povms = []
        for s, matrices in enumerate(povm_list):
            if not isinstance(matrices, (list, tuple)) or not matrices:
                raise ScenarioFormatError(
                    f"party {party} setting {s}: a POVM is a non-empty list of matrices"
                )
            els = [
                _pairs_to_matrix(m, f"party {party} setting {s} element {j}")
                for j, m in enumerate(matrices)
            ]
            try:
                povms.append(Povm(tuple(els)))
            except StructuralError as exc:
                raise ScenarioFormatError(
                    f"party {party} setting {s}: {exc}"
                ) from exc
        per_party_povms.append(tuple(povms))
    try:
        return Scenario(state, tuple(per_party_povms))
    except (StructuralError, InvariantViolation) as exc:
        raise ScenarioFormatError(f"invalid scenario: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario JSON file (ScenarioFormatError on failure)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path!r}: {exc}") from exc
    return scenario_from_json(text)
