"""The N-party protocol family: click-pattern probabilities, exact rational
mixture weights, the positivity scan, and a full model for small N.

A protocol indexed by i (i = 0 or 2 <= i <= N; there is no i = 1 member)
forces a uniformly chosen subset of i parties to stay silent, picks one
special party uniformly among the remaining N - i, and predetermines a
uniformly guessed setting plus a quantum-distributed outcome for every
other party.  A guessing party answers only when its actual setting matches
the guess; the special party always answers, from the quantum conditional.
The probability that a *given* set of k detectors stays silent under
protocol i is

    q_i(k) = C(k,i)/C(N,i) * (N-k)/(N-i) * (M-1)^(k-i) / M^(N-i-1)

for k >= i (zero for k < i, and 1 when k = i = N).

Mixing the protocols with weights p_i chosen so that
sum_i p_i q_i(k) = eta^(N-k) (1-eta)^k at eta = N/((N-1)M+1) makes the
mixture indistinguishable from independent detectors of efficiency eta.
The weights follow from an M-independent recursion for the rescaled
sequence r_k (:func:`recursion_r`, rescaled by :func:`mixture_from_recursion`
in O(N) steps), or equivalently from a triangular linear system
(:func:`solve_weights`, O(N^2) rational operations); positivity of every r_k
certifies positive weights for *all* M at once (:func:`positivity_scan`).
The CLI's ``solve`` rescales the recursion at one M and its ``scan`` reads
the recursion's signs; the triangular solve is the independent oracle that
:class:`MultipartyModel` and the tests compare it with.

Everything in this combinatorial layer uses exact rational arithmetic
end-to-end — no stable floating-point evaluation of the recursion is known,
and the positivity question is precisely about signs of tiny values.  The
recursion runs fraction-free, as a first-order recurrence on plain Python
integers (:func:`_recursion_pairs`); the positivity scan compares its
terms as integer pairs, and results are returned as
:class:`fractions.Fraction`.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Mapping

import numpy as np

from .bounds import eta_multiparty
from .errors import ConsistencyError, DomainError, SizeGuardExceeded
from .quantum import (
    OutcomeDistribution,
    Scenario,
    check_table_size,
    party_marginals,
    settings_index,
)

# ---------------------------------------------------------------------------
# click-pattern probabilities
# ---------------------------------------------------------------------------


def _check_protocol_index(n: int, i: int) -> None:
    if i == 1 or i < 0 or i > n:
        raise DomainError(
            f"protocol index must be 0 or 2..{n} (no single-silent protocol "
            f"exists), got {i}"
        )


def q_i_k(n: int, m: int, i: int, k: int) -> Fraction:
    """Probability that a given set of k detectors is silent under
    protocol i (N parties, M settings each).  Exact rational.
    """
    n, m, i, k = int(n), int(m), int(i), int(k)
    if n < 2 or m < 2:
        raise DomainError(f"need N >= 2 and M >= 2, got ({n}, {m})")
    _check_protocol_index(n, i)
    if not 0 <= k <= n:
        raise DomainError(f"silent count k must be in 0..{n}, got {k}")
    if k < i:
        return Fraction(0)
    if i == n:  # k == n here: every party is forced silent
        return Fraction(1)
    return (
        Fraction(comb(k, i), comb(n, i))
        * Fraction(n - k, n - i)
        * Fraction((m - 1) ** (k - i), m ** (n - i - 1))
    )


def q_prime(n: int, i: int, k: int) -> Fraction:
    """The M-independent part of ``q_i_k``:
    C(k,i)/C(N,i) * (N-k)/(N-i), with the k = i = N corner defined as
    1/C(N,N) = 1 so that the whole sequence stays independent of M.

    For i < N this equals q_i_k(n, m, i, k) * M^(N-i-1) / (M-1)^(k-i) for
    every M.  Requires k >= i.
    """
    n, i, k = int(n), int(i), int(k)
    if n < 2:
        raise DomainError(f"need N >= 2, got {n}")
    if not 0 <= i <= n or not 0 <= k <= n:
        raise DomainError(f"need 0 <= i, k <= {n}, got i={i}, k={k}")
    if k < i:
        raise DomainError(f"q_prime needs k >= i, got i={i}, k={k}")
    if i == k == n:
        return Fraction(1)
    return Fraction(comb(k, i), comb(n, i)) * Fraction(n - k, n - i)


@dataclass(frozen=True)
class ClickPatternProbabilities:
    """The probability q(k) that one *given* set of k detectors is silent,
    for k = 0..N, under some model.  Summing over the C(N,k) sets of each
    size must give exactly 1."""

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.n + 1:
            raise DomainError(
                f"need {self.n + 1} values for N={self.n}, got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def total(self) -> Fraction:
        """sum_k C(N,k) q(k) — exactly 1 for a genuine model."""
        return sum(
            (comb(self.n, k) * v for k, v in enumerate(self.values)),
            Fraction(0),
        )

    def ratios(self) -> tuple[Fraction | None, ...]:
        """q(k)/q(k+1) for k = 0..N-1 (None where q(k+1) = 0)."""
        out = []
        for k in range(self.n):
            nxt = self.values[k + 1]
            out.append(None if nxt == 0 else self.values[k] / nxt)
        return tuple(out)


def protocol_click_probabilities(n: int, m: int, i: int) -> ClickPatternProbabilities:
    """The q(k) row of a single protocol i."""
    return ClickPatternProbabilities(
        n, tuple(q_i_k(n, m, i, k) for k in range(n + 1))
    )


# ---------------------------------------------------------------------------
# the M-independent recursion
# ---------------------------------------------------------------------------


def recursion_r(n: int) -> list[Fraction]:
    """The rescaled weight sequence r_0..r_N, in exact rational arithmetic.

    Starting from r_0 = 1, r_1 = 0, each r_k is fixed by requiring the
    click-pattern ratios q(k-1)/q(k) of the mixture to be constant in k:

        r_k = C(N,k) * sum_{i<k} r_i * (c * q'_i(k-1) - q'_i(k)),
        c = q'_0(1)/q'_0(0) = (N-1)/N,

    with q'_i(k) the M-independent pattern factors of :func:`q_prime`.
    That sum is never evaluated: it collapses to a first-order recurrence.
    With u_i = r_i / (C(N,i) * (N-i)) and the binomial transform
    V(k) = sum_{i<=k} C(k,i) u_i, step k (2 <= k < N) is equivalent to

        V(k) = (N-1)/N * (N-k+1)/(N-k) * V(k-1),   V(0) = V(1) = 1/N,

    so V(k) = (N-1)^k / (N^k (N-k)).  Inverting the transform gives
    u_k = S_k / N^k with

        S_k = sum_j C(k,j) (N-1)^j (-N)^(k-j) / (N-j)
            = integral_0^1 t^(N-1-k) ((N-1) - N t)^k dt,

    and integrating by parts gives S_0 = 1/N and
    S_k = ((-1)^k + k N S_(k-1)) / (N-k).  The loop runs this fraction-free
    on plain integers: with D_k = N (N-1) ... (N-k), P_0 = 1 and
    P_k = (-1)^k D_(k-1) + k N P_(k-1), S_k = P_k / D_k and, since
    C(N,k) / D_(k-1) = 1/k!,

        r_k = C(N,k) P_k / (N^k D_(k-1)) = P_k / (k! N^k)   for 1 <= k < N,
        r_N = ((N-1)/N)^N,

    so each r_k costs O(1) integer operations, and building the returned
    :class:`~fractions.Fraction` is the only gcd per k.  Only the signs of
    the r_k matter downstream (sign(r_k) = sign(P_k)), and they sit at the
    edge of massive cancellation; no floating-point shortcut is taken
    anywhere in this path.

    Every r_k is non-negative, for every N, with r_1 = 0 the only zero.
    r_0 = 1 and r_N > 0, and for 1 <= k < N, r_k = C(N,k) (N-k) S_k / N^k
    has the sign of S_k.  S_1 = (-1 + N S_0) / (N-1) = 0, and two steps of
    the S recurrence give, for odd k >= 3,

        S_k = ((k-1)(N+1) + k(k-1) N^2 S_(k-2)) / ((N-k+1)(N-k)).

    By induction every odd S_k with k >= 3 is then positive: S_(k-2) >= 0,
    and the rest of the numerator and the denominator are positive for
    k < N.  Every even S_k = (1 + k N S_(k-1)) / (N-k) is positive too,
    since S_(k-1) >= 0 (and S_0 = 1/N).
    """
    n = int(n)
    if n < 2:
        raise DomainError(f"need N >= 2, got {n}")
    r = [Fraction(1)]
    r += [Fraction(p, den) for p, den in _recursion_pairs(n)]
    r.append(Fraction(n - 1, n) ** n)
    return r


def _recursion_pairs(n: int) -> Iterator[tuple[int, int]]:
    """The pairs (P_k, k! N^k) for k = 1..N-1, with r_k = P_k / (k! N^k):
    the integer recurrence of :func:`recursion_r`, unreduced.  The second
    entry is always positive, so sign(r_k) = sign(P_k)."""
    p = 1  # P_k
    d = n  # D_(k-1)
    den = 1  # k! N^k
    for k in range(1, n):
        p = (-d if k % 2 else d) + k * n * p
        den *= k * n
        yield p, den
        d *= n - k


# ---------------------------------------------------------------------------
# mixture weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolMixture:
    """Exact mixture weights p_i over the protocol family, for one (N, M).

    ``weights`` maps each protocol index i (0 and 2..N) to its probability;
    they sum to exactly 1.  ``r_sequence`` is the M-independent rescaled
    sequence: r_k = (M/(M-1))^k * p_k/p_0 for k < N, while the all-silent
    row carries one extra factor 1/M (its pattern probability is exactly 1
    rather than following the (M-1)^k/M^(N-1) scaling of the other rows),
    so r_N = (M/(M-1))^N * p_N/(M p_0).
    """

    n: int
    m: int
    eta: Fraction
    weights: Mapping[int, Fraction]
    r_sequence: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        weights = {int(i): Fraction(p) for i, p in self.weights.items()}
        expected = {0} | set(range(2, self.n + 1))
        if set(weights) != expected:
            raise DomainError(
                f"weights must cover protocol indices {sorted(expected)}, "
                f"got {sorted(weights)}"
            )
        total = sum(weights.values(), Fraction(0))
        if total != 1:
            raise ConsistencyError(f"mixture weights sum to {total}, not 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(
            self, "r_sequence", tuple(Fraction(v) for v in self.r_sequence)
        )

    def click_probabilities(self) -> ClickPatternProbabilities:
        """The mixture's pattern row sum_i p_i q_i(k), exactly."""
        values = tuple(
            sum(
                (p * q_i_k(self.n, self.m, i, k) for i, p in self.weights.items()),
                Fraction(0),
            )
            for k in range(self.n + 1)
        )
        return ClickPatternProbabilities(self.n, values)


def _r_from_weights(
    n: int, m: int, weights: Mapping[int, Fraction]
) -> tuple[Fraction, ...]:
    p0 = weights[0]
    scale = Fraction(m, m - 1)
    r = [Fraction(1), Fraction(0)]
    for k in range(2, n + 1):
        val = scale**k * weights[k] / p0
        if k == n:
            val /= m
        r.append(val)
    return tuple(r)


def solve_weights(n: int, m: int) -> ProtocolMixture:
    """Mixture weights from the triangular linear system, exactly.

    Row k of the system reads eta^(N-k) (1-eta)^k = sum_i p_i q_i(k) at
    eta = N/((N-1)M+1).  Since q_i(k) = 0 for i > k the system is
    triangular: row 0 fixes p_0 = eta^N M^(N-1), rows k >= 2 give each
    p_k by forward substitution, and row 1 — which contains no p_1, the
    family having no single-silent protocol — must hold identically at
    this eta.  It is verified exactly, as is the weights' sum of 1 (by
    :class:`ProtocolMixture`), and a violation raises
    :class:`ConsistencyError` (that would be an arithmetic bug, not a
    property of the inputs).
    """
    n, m = int(n), int(m)
    eta = eta_multiparty(n, m)
    one_minus = 1 - eta
    weights: dict[int, Fraction] = {0: eta**n * Fraction(m) ** (n - 1)}
    consistency = eta ** (n - 1) * one_minus - weights[0] * q_i_k(n, m, 0, 1)
    if consistency != 0:
        raise ConsistencyError(
            f"single-silent row violated for (N={n}, M={m}): residual {consistency}"
        )
    for k in range(2, n + 1):
        rhs = eta ** (n - k) * one_minus**k
        acc = sum(
            (weights[i] * q_i_k(n, m, i, k) for i in weights),
            Fraction(0),
        )
        weights[k] = (rhs - acc) / q_i_k(n, m, k, k)
    return ProtocolMixture(n, m, eta, weights, _r_from_weights(n, m, weights))


def mixture_from_recursion(n: int, m: int) -> ProtocolMixture:
    """Mixture weights rebuilt from the M-independent recursion, in O(N)
    rational operations: the route of ``lhv multiparty solve``.

    Un-normalized weights are t_k = ((M-1)/M)^k r_k for k < N and
    t_N = ((M-1)/M)^N M r_N (the all-silent row's extra factor M, see
    :class:`ProtocolMixture`); normalizing gives the p_i.  Row 0 of the
    triangular system, p_0 = eta^N M^(N-1), is checked exactly and a
    violation raises :class:`ConsistencyError`.  Agrees exactly with
    :func:`solve_weights` — the two constructions are independent oracles
    for each other.
    """
    n, m = int(n), int(m)
    if m < 2:
        raise DomainError(f"need M >= 2, got {m}")
    r = recursion_r(n)
    eta = eta_multiparty(n, m)
    scale = Fraction(m - 1, m)
    t = {0: Fraction(1)}
    for k in range(2, n + 1):
        t[k] = scale**k * r[k] * (m if k == n else 1)
    total = sum(t.values(), Fraction(0))
    weights = {i: v / total for i, v in t.items()}
    if weights[0] != eta**n * m ** (n - 1):
        raise ConsistencyError(
            f"recursion route for (N={n}, M={m}) gives p_0 = {weights[0]}, "
            f"not eta^N M^(N-1)"
        )
    return ProtocolMixture(n, m, eta, weights, tuple(r))


def check_report_digits(n: int, m: int) -> None:
    """Raise :class:`SizeGuardExceeded` before any arithmetic if a number
    of the mixture for (N, M) could have more decimal digits than Python
    renders (``sys.get_int_max_str_digits()``, 0 for no limit).

    Every numerator and denominator of eta, of the weights and of the
    r_k is at most Q^N, with Q = (N-1)M + 1, and at M = 2 the denominator
    of p_0 equals it:

    * eta = N/Q, and p_0 = eta^N M^(N-1) = N^N M^(N-1) / Q^N;
    * r_k N^k = C(N,k) (N-k) S_k is an integer for k < N: with S_k the
      sum of :func:`recursion_r`, the coefficient of each term,
      C(N,k) (N-k)/(N-j) C(k,j) = C(N,j) C(N-j-1, k-j), is an integer;
    * so p_k = ((M-1)/M)^k r_k p_0 = (M-1)^k M^(N-1-k) N^(N-k) (r_k N^k)
      / Q^N for k < N, and p_N = ((M-1)(N-1))^N / Q^N: every weight is an
      integer over Q^N, at most 1;
    * r_k = (M/(M-1))^k p_k / p_0 <= Q^N M^(k+1-N) / ((M-1)^k N^N), so the
      numerator of r_k, at most r_k N^k, is at most Q^N / N; r_N =
      (N-1)^N / N^N.

    Q^N has more than L digits exactly when Q^N >= 10^L.  That comparison
    is made on logarithms, and on integers only within a digit of the
    limit, where both sides have about L digits.
    """
    eta_multiparty(n, m)  # DomainError outside N >= 2, M >= 2
    n, m = int(n), int(m)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    q = (n - 1) * m + 1
    digits = n * math.log10(q)
    if not limit or digits < limit - 1:
        return
    if digits > limit + 1 or q**n >= 10**limit:
        raise SizeGuardExceeded(
            f"the exact weights for N={n}, M={m} would need about "
            f"{int(digits) + 1} decimal digits, over Python's limit of "
            f"{limit} (see sys.set_int_max_str_digits); lower N"
        )


# ---------------------------------------------------------------------------
# positivity scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    """One N of the positivity scan: the minimum r_k, the k where it first
    occurs, and whether it is non-negative."""

    n: int
    min_value: Fraction
    argmin_k: int
    passed: bool


def check_scan_args(n_max: int, n_min: int = 2) -> None:
    """Raise :class:`DomainError` unless :func:`positivity_scan` accepts
    these arguments.

    The scan is a generator, so it checks them only at its first row;
    callers that write anything before consuming it call this first.
    """
    n_max, n_min = int(n_max), int(n_min)
    if n_min < 2 or n_max < n_min:
        raise DomainError(f"need 2 <= n_min <= n_max, got ({n_min}, {n_max})")


def positivity_scan(n_max: int, n_min: int = 2) -> Iterator[ScanRow]:
    """Stream positivity checks for N = n_min..n_max, one row per N.

    Each row checks r_k >= 0 for all k via the recursion; since every
    weight is a positive multiple of its r_k, this certifies positive
    mixtures for *every* M >= 2 at once.  It keeps a running minimum over
    the integer pairs of the recurrence (see :func:`_first_min`) and
    builds one :class:`~fractions.Fraction` per row, the minimum; the row
    equals the first minimum of :func:`recursion_r`'s list.  That minimum
    is always r_1 = 0 at k = 1 (see :func:`recursion_r`: every other r_k
    is positive).

    Rows are yielded as soon as computed, so long scans can be consumed
    (and persisted) incrementally; each N is independent, making a
    restart from the last reported N possible.  Bad arguments raise at the
    first row (see :func:`check_scan_args`).
    """
    check_scan_args(n_max, n_min)
    for n in range(int(n_min), int(n_max) + 1):
        pairs = itertools.chain(
            [(1, 1)], _recursion_pairs(n), [((n - 1) ** n, n**n)]
        )
        k, p, den = _first_min(pairs)
        yield ScanRow(n, Fraction(p, den), k, p >= 0)


def _first_min(pairs: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """(index, p, den) of the first smallest p/den in a non-empty sequence
    of integer pairs with den > 0: the index that ``min`` returns over the
    Fractions, found without building them.

    Values are ordered by the sign of p first; two zeros are equal, so the
    first is kept, and only two values of the same non-zero sign are
    compared, exactly, by cross-multiplication.
    """
    it = iter(pairs)
    best_p, best_den = next(it)
    best, best_sign = 0, (best_p > 0) - (best_p < 0)
    for k, (p, den) in enumerate(it, 1):
        sign = (p > 0) - (p < 0)
        if sign < best_sign or (
            sign == best_sign != 0 and p * best_den < best_p * den
        ):
            best, best_p, best_den, best_sign = k, p, den, sign
    return best, best_p, best_den


# ---------------------------------------------------------------------------
# the full model for small N
# ---------------------------------------------------------------------------


class MultipartyModel:
    """Exact distribution and sampler of the protocol mixture for an
    N-party scenario with a uniform settings count M.

    The mixture comes from the recursion (:func:`mixture_from_recursion`)
    and must equal the triangular solve (:func:`solve_weights`) exactly,
    or :class:`ConsistencyError` is raised; the size guard keeps N small
    enough that the check costs well under a millisecond.

    The exact table multiplies the mixture's click-pattern probability
    sum_i p_i q_i(k) — evaluated from the weights, not from the
    eta-power form it is meant to equal — by the quantum marginal of the
    firing parties at their actual settings (silent parties traced out by
    identity substitution).  Every such marginal is a view of the
    identity rows of the scenario's one contraction (:func:`~lhvmodels.
    quantum.party_marginals`), which the sampler and the enumeration
    oracle index too; the eta-extended quantum table instead sums click
    blocks, so comparing the two checks the linear system and the
    marginal structure at once by independent routes.

    The size guard (:func:`~lhvmodels.quantum.check_table_size`) bounds
    the exact table, M^N prod_p (A_p + 1) entries, and the largest step
    of the contraction before any table is built.
    """

    def __init__(self, scenario: Scenario):
        counts = scenario.n_settings
        if len(set(counts)) != 1:
            raise DomainError(
                f"the protocol family needs a uniform settings count, "
                f"scenario has {counts}"
            )
        self.scenario = scenario
        self.n = scenario.n_parties
        self.m = counts[0]
        if self.m < 2:
            raise DomainError("need at least 2 settings per party")
        check_table_size(scenario)
        self.mixture = mixture_from_recursion(self.n, self.m)
        if self.mixture != solve_weights(self.n, self.m):
            raise ConsistencyError(
                f"recursion and triangular solve disagree for "
                f"(N={self.n}, M={self.m})"
            )
        self.eta = self.mixture.eta
        self._pattern = [
            float(v) for v in self.mixture.click_probabilities().values
        ]
        self._sizes = scenario.n_outcomes
        self._protocols = sorted(self.mixture.weights)
        weights = np.array([float(self.mixture.weights[i]) for i in self._protocols])
        self._protocol_probs = weights / weights.sum()

    def _special_table(
        self,
        choice: tuple[int, ...],
        special: int,
        guessers: tuple[int, ...],
        guess_settings: tuple[int, ...],
    ) -> np.ndarray:
        """The quantum marginal of the guessers at their guessed settings
        and the special party at its own, guessers' axes first (in party
        order) and the special party's last."""
        parties = tuple(sorted(guessers + (special,)))
        settings = tuple(
            choice[p] if p == special else guess_settings[guessers.index(p)]
            for p in parties
        )
        table = party_marginals(self.scenario, parties)[settings]
        return np.moveaxis(table, parties.index(special), -1)

    # ------------------------------------------------------------------
    # exact distribution
    # ------------------------------------------------------------------

    def exact_distribution(self) -> OutcomeDistribution:
        """The model's full outcome table over every settings choice.

        Each silent subset writes one slice: the firing parties' quantum
        marginals at every settings choice of theirs, times the pattern
        probability, broadcast over the silent parties' settings, at the
        silent (last) position of the silent parties' outcome axes.
        """
        n, m, sizes = self.n, self.m, self._sizes
        probs = np.zeros((m,) * n + tuple(a + 1 for a in sizes))
        for silent in itertools.product((False, True), repeat=n):
            firing = tuple(p for p in range(n) if not silent[p])
            weight = self._pattern[n - len(firing)]
            cell = tuple(
                sizes[p] if silent[p] else slice(sizes[p]) for p in range(n)
            )
            if not firing:
                probs[(Ellipsis,) + cell] = weight
                continue
            marg = party_marginals(self.scenario, firing)
            shape = [1 if silent[p] else m for p in range(n)]
            probs[(Ellipsis,) + cell] = weight * marg.reshape(
                shape + [sizes[p] for p in firing]
            )
        return OutcomeDistribution(probs, silent=True)

    # ------------------------------------------------------------------
    # explicit protocol enumeration (locality-manifest route)
    # ------------------------------------------------------------------

    def distribution_by_hidden_enumeration(self) -> OutcomeDistribution:
        """Rebuild the table by enumerating the full hidden variable.

        Sums over protocol index, forced-silent subset, special party,
        guessed settings, and guessed outcomes, composing each party's
        response to its own setting.  Exponentially slower than
        :meth:`exact_distribution`; intended for cross-checking on small
        scenarios (guarded at N <= 4).
        """
        n, m = self.n, self.m
        if n > 4:
            raise SizeGuardExceeded(
                "hidden-variable enumeration is for N <= 4 cross-checks"
            )
        ext_sizes = [a + 1 for a in self._sizes]  # last = silent
        probs = np.zeros((m,) * n + tuple(ext_sizes))
        for choice in self.scenario.settings_choices():
            block = np.zeros(ext_sizes)
            for i, p_i in self.mixture.weights.items():
                w_protocol = float(p_i)
                if w_protocol == 0.0:
                    continue
                for forced in itertools.combinations(range(n), i):
                    rest = [p for p in range(n) if p not in forced]
                    w_forced = w_protocol / comb(n, i)
                    if not rest:  # every party forced: all-silent corner
                        block[tuple(s - 1 for s in ext_sizes)] += w_forced
                        continue
                    for special in rest:
                        guessers = tuple(p for p in rest if p != special)
                        w_special = w_forced / len(rest)
                        for guess_settings in itertools.product(
                            range(m), repeat=len(guessers)
                        ):
                            w_guess = w_special / m ** len(guessers)
                            self._accumulate_guessed(
                                block,
                                choice,
                                forced,
                                special,
                                guessers,
                                guess_settings,
                                w_guess,
                            )
            probs[choice] = block
        return OutcomeDistribution(probs, silent=True)

    def _accumulate_guessed(
        self,
        block: np.ndarray,
        choice: tuple[int, ...],
        forced: tuple[int, ...],
        special: int,
        guessers: tuple[int, ...],
        guess_settings: tuple[int, ...],
        weight: float,
    ) -> None:
        """Add one (protocol, subset, special, guessed-settings) term:
        sum over guessed outcomes of weight x P(guessed) x (outer product
        of every party's response distribution)."""
        n, sizes = self.n, self._sizes
        if guessers:
            guess_marg = party_marginals(self.scenario, guessers)[guess_settings]
        else:
            guess_marg = np.ones(())
        joint = self._special_table(choice, special, guessers, guess_settings)
        for guessed in np.ndindex(guess_marg.shape):
            p_guess = float(guess_marg[guessed])
            if p_guess <= 0.0:
                continue
            # special party's conditional response on its own setting
            special_dist = np.clip(joint[guessed], 0.0, None) / p_guess
            # compose per-party responses (each a fn of own setting + lam)
            vecs = []
            for p in range(n):
                v = np.zeros(sizes[p] + 1)
                if p in forced:
                    v[-1] = 1.0
                elif p == special:
                    v[: sizes[p]] = special_dist
                else:
                    g = guessers.index(p)
                    if guess_settings[g] == choice[p]:
                        v[guessed[g]] = 1.0
                    else:
                        v[-1] = 1.0
                vecs.append(v)
            term = weight * p_guess
            out = vecs[0] * term
            for v in vecs[1:]:
                out = np.multiply.outer(out, v)
            block += out

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample(
        self, settings: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        """One draw: pick a protocol, a forced subset, a special party,
        guessed settings and outcomes, then each party answers from its own
        setting and the hidden variable alone.  Returns outcome positions,
        with -1 for a silent party; settings that are not one in-range
        setting per party raise :class:`DomainError` before the draw."""
        return self._draw(settings_index(settings, self.scenario.n_settings), rng)

    def _draw(
        self, choice: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        """:meth:`sample` at a settings choice already checked."""
        protocols = self._protocols
        i = protocols[int(rng.choice(len(protocols), p=self._protocol_probs))]
        forced = tuple(sorted(rng.choice(self.n, size=i, replace=False)))
        rest = [p for p in range(self.n) if p not in forced]
        outcomes = [-1] * self.n
        if not rest:
            return tuple(outcomes)
        special = rest[int(rng.integers(len(rest)))]
        guessers = tuple(p for p in rest if p != special)
        guess_settings = tuple(
            int(x) for x in rng.integers(self.m, size=len(guessers))
        )
        if guessers:
            marg = party_marginals(self.scenario, guessers)[guess_settings]
            flat = np.clip(marg.reshape(-1), 0.0, None)
            flat = flat / flat.sum()
            guessed = np.unravel_index(
                int(rng.choice(flat.size, p=flat)), marg.shape
            )
        else:
            guessed = ()
        # guessing parties answer only on a matching setting
        for j, p in enumerate(guessers):
            if guess_settings[j] == choice[p]:
                outcomes[p] = int(guessed[j])
        # special party draws the quantum conditional
        joint = self._special_table(choice, special, guessers, guess_settings)
        cond = np.clip(joint[guessed], 0.0, None)
        cond = cond / cond.sum()
        outcomes[special] = int(rng.choice(len(cond), p=cond))
        return tuple(outcomes)

    def sample_many(
        self, settings: tuple[int, ...], n_draws: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Count ``n_draws`` draws of :meth:`sample` at one settings choice
        into an int64 array laid out as a block of :meth:`exact_distribution`
        (silent outcome last).  Settings that are not one in-range setting
        per party (:func:`~lhvmodels.quantum.settings_index`), or
        ``n_draws < 0``, raise :class:`DomainError` before any draw."""
        choice = settings_index(settings, self.scenario.n_settings)
        if n_draws < 0:
            raise DomainError(f"need n_draws >= 0, got n_draws={n_draws}")
        counts = np.zeros([a + 1 for a in self._sizes], dtype=np.int64)
        for _ in range(int(n_draws)):
            # the silent code -1 counts in the last position
            counts[self._draw(choice, rng)] += 1
        return counts
