"""The two-party local model that reproduces eta-extended quantum
correlations at the threshold efficiency.

The shared hidden variable is a guess ``(setting, outcome)`` for one party,
together with a role flag (which party is the guesser) and a gate that
occasionally silences both detectors.  The guessing party answers its
actual setting only when the guess matches (else stays silent); the other
party always answers, drawing from the quantum conditional given the
guessed pair.  With the role and gate probabilities of
:func:`lhvmodels.bounds.solve_symmetrization`, the resulting statistics
equal the quantum distribution extended with detector efficiency
``eta = (M_A+M_B-2)/(M_A M_B - 1)``, entrywise.

Locality is structural: each party's response (:meth:`TwoPartyModel.
respond_alice`, :meth:`~TwoPartyModel.respond_bob`) is a function of the
hidden variable and that party's own setting only.  The exact table can be
built two ways — a fused analytic summation (:meth:`~TwoPartyModel.
exact_distribution`) and an explicit enumeration of hidden variables
composing the two response functions (:meth:`~TwoPartyModel.
distribution_by_hidden_enumeration`) — which agree to float precision and
serve as independent routes in the tests.

The model works for arbitrary POVMs: it only ever consumes the joint and
marginal probability tables, never the operators themselves.  Guessed
outcomes with zero quantum probability are excluded from the hidden
variable's support (they carry no weight, and excluding them avoids a 0/0
in the partner's conditional).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .bounds import SymmetrizationSolution, solve_symmetrization
from .errors import DomainError, SizeGuardExceeded
from .quantum import (
    OutcomeDistribution,
    Scenario,
    _readonly,
    check_table_size,
    inverse_cdf,
    joint_outcome_table,
    sequential_sum,
    settings_index,
    subset_joint_table,
)

#: Marginal probabilities at or below this are treated as zero support.
SUPPORT_CUTOFF = 1e-15
#: Most table cells times hidden values the enumeration oracle may sum.
MAX_ENUMERATION_TERMS = 1_000_000


def _sum_over_others(t: np.ndarray, axis: int) -> np.ndarray:
    """For each index i along ``axis``, the sum of ``t`` over the other
    indices i' != i along it, the axis kept.

    Terms are added as Python's ``sum(..., 0.0)`` adds them: from 0.0, i'
    ascending, with 0.0 in place of the skipped term, so an empty sum
    (one index) is 0.0 and every bit matches a loop over the pairs.
    """
    m = t.shape[axis]
    t = np.moveaxis(t, axis, 0)
    skip = np.eye(m, dtype=bool).reshape((m, m) + (1,) * (t.ndim - 1))
    terms = np.where(skip, 0.0, t)  # terms[i, i'] = t[i'], 0.0 at i' == i
    zero = np.zeros_like(terms[:, :1])
    total = sequential_sum(np.concatenate([zero, terms], axis=1), [1])
    return np.moveaxis(total, 0, axis)


def _cum_rows(m: np.ndarray) -> np.ndarray:
    """Row-normalized cumulative sums over the last axis; a row with no
    support becomes uniform."""
    m = np.clip(m, 0.0, None)
    sums = m.sum(axis=-1, keepdims=True)
    safe = np.where(sums > SUPPORT_CUTOFF, sums, 1.0)
    m = np.where(sums > SUPPORT_CUTOFF, m / safe, 1.0 / m.shape[-1])
    return np.cumsum(m, axis=-1)


@dataclass(frozen=True)
class TwoPartyHiddenVariable:
    """One value of the shared hidden variable.

    ``gate`` is "proceed" or "both_silent"; ``role`` names the guessing
    party ("alice_guessed" or "bob_guessed"); ``guessed_setting`` and
    ``guessed_outcome`` are the guessed party's setting index and outcome
    position (meaningful only when the gate proceeds).
    """

    gate: str
    role: str | None = None
    guessed_setting: int | None = None
    guessed_outcome: int | None = None


class TwoPartyModel:
    """Exact builder and seeded sampler for the two-party local model.

    The size guard (:func:`~lhvmodels.quantum.check_table_size`) bounds
    the exact table, M_A M_B (A+1)(B+1) entries, and the contraction's
    largest step before any quantum table is built.
    """

    def __init__(self, scenario: Scenario):
        if scenario.n_parties != 2:
            raise DomainError(
                f"this model is for 2 parties, scenario has {scenario.n_parties}"
            )
        check_table_size(scenario)
        self.scenario = scenario
        self.m_a, self.m_b = scenario.n_settings
        self.symmetrization: SymmetrizationSolution = solve_symmetrization(
            self.m_a, self.m_b
        )
        self.eta = self.symmetrization.eta
        self.n_a, self.n_b = scenario.n_outcomes
        # quantum tables: joint (x, y, a, b), marginals (x, a) and (y, b)
        self._joint = _readonly([
            [joint_outcome_table(scenario, (x, y)) for y in range(self.m_b)]
            for x in range(self.m_a)
        ])
        self._marg_a = _readonly(
            [subset_joint_table(scenario, [0], [x]) for x in range(self.m_a)]
        )
        self._marg_b = _readonly(
            [subset_joint_table(scenario, [1], [y]) for y in range(self.m_b)]
        )

    # ------------------------------------------------------------------
    # exact distribution, fused analytic form
    # ------------------------------------------------------------------

    def exact_distribution(self) -> OutcomeDistribution:
        """The model's full outcome table, by analytic summation.

        The hidden-variable sum collapses per settings pair (x, y) to:

        * both click:   g (r/M_A + (1-r)/M_B) P(a,b|x,y)
        * Alice silent:  g (r/M_A) sum_{x'!=x} sum_a' P(a',b|x',y)
        * Bob silent:    g ((1-r)/M_B) sum_{y'!=y} sum_b' P(a,b'|x,y')
        * both silent:   1 - g

        with g the proceed gate and r the probability Alice is the guesser.
        """
        g = float(self.symmetrization.proceed_prob)
        r = float(self.symmetrization.role_prob)
        w_both = g * (r / self.m_a + (1.0 - r) / self.m_b)
        w_alice_silent = g * r / self.m_a
        w_bob_silent = g * (1.0 - r) / self.m_b
        b_any_a = _sum_over_others(self._joint.sum(axis=2), axis=0)
        a_any_b = _sum_over_others(self._joint.sum(axis=3), axis=1)
        probs = np.empty((self.m_a, self.m_b, self.n_a + 1, self.n_b + 1))
        # the silent outcome in the last position
        probs[:, :, :-1, :-1] = w_both * self._joint
        probs[:, :, :-1, -1] = w_bob_silent * a_any_b
        probs[:, :, -1, :-1] = w_alice_silent * b_any_a
        probs[:, :, -1, -1] = 1.0 - g
        return OutcomeDistribution(probs, silent=True)

    # ------------------------------------------------------------------
    # explicit hidden-variable enumeration (locality-manifest route)
    # ------------------------------------------------------------------

    def enumerate_hidden_variables(
        self,
    ) -> Iterator[tuple[float, TwoPartyHiddenVariable]]:
        """Yield every hidden-variable value with its probability.

        Guessed outcomes are drawn from the guessed setting's quantum
        marginal; zero-probability outcomes are omitted.  The weights sum
        to 1 up to float rounding.
        """
        g = float(self.symmetrization.proceed_prob)
        r = float(self.symmetrization.role_prob)
        yield 1.0 - g, TwoPartyHiddenVariable(gate="both_silent")
        for setting in range(self.m_a):
            marg = self._marg_a[setting]
            for outcome in range(self.n_a):
                p = float(marg[outcome])
                if p > SUPPORT_CUTOFF:
                    yield (
                        g * r * p / self.m_a,
                        TwoPartyHiddenVariable(
                            "proceed", "alice_guessed", setting, outcome
                        ),
                    )
        for setting in range(self.m_b):
            marg = self._marg_b[setting]
            for outcome in range(self.n_b):
                p = float(marg[outcome])
                if p > SUPPORT_CUTOFF:
                    yield (
                        g * (1.0 - r) * p / self.m_b,
                        TwoPartyHiddenVariable(
                            "proceed", "bob_guessed", setting, outcome
                        ),
                    )

    def respond_alice(self, lam: TwoPartyHiddenVariable, x: int) -> np.ndarray:
        """Alice's outcome distribution given the hidden variable and *her
        own* setting only — a vector over her outcomes plus the silent
        outcome in the last position."""
        out = np.zeros(self.n_a + 1)
        if lam.gate == "both_silent":
            out[-1] = 1.0
        elif lam.role == "alice_guessed":
            if lam.guessed_setting == x:
                out[lam.guessed_outcome] = 1.0
            else:
                out[-1] = 1.0
        else:  # Bob holds the guess; Alice answers the quantum conditional
            y, b = lam.guessed_setting, lam.guessed_outcome
            out[: self.n_a] = self._joint[x, y, :, b] / float(self._marg_b[y, b])
        return out

    def respond_bob(self, lam: TwoPartyHiddenVariable, y: int) -> np.ndarray:
        """Bob's outcome distribution given the hidden variable and his own
        setting only (silent outcome last)."""
        out = np.zeros(self.n_b + 1)
        if lam.gate == "both_silent":
            out[-1] = 1.0
        elif lam.role == "bob_guessed":
            if lam.guessed_setting == y:
                out[lam.guessed_outcome] = 1.0
            else:
                out[-1] = 1.0
        else:
            x, a = lam.guessed_setting, lam.guessed_outcome
            out[: self.n_b] = self._joint[x, y, a, :] / float(self._marg_a[x, a])
        return out

    def distribution_by_hidden_enumeration(self) -> OutcomeDistribution:
        """Rebuild the outcome table as sum_lam P(lam) A(a|x,lam) B(b|y,lam).

        Slower than :meth:`exact_distribution` but makes the locality
        structure explicit: every term is an outer product of the two
        single-party response distributions.  Its cost is the table's
        cells times the 1 + M_A A + M_B B hidden values, and
        :class:`SizeGuardExceeded` is raised, before any work, where that
        exceeds :data:`MAX_ENUMERATION_TERMS`.
        """
        shape = (self.m_a, self.m_b, self.n_a + 1, self.n_b + 1)
        terms = math.prod(shape) * (
            1 + self.m_a * self.n_a + self.m_b * self.n_b
        )
        if terms > MAX_ENUMERATION_TERMS:
            raise SizeGuardExceeded(
                f"hidden-variable enumeration would sum {terms} cell terms "
                f"(limit {MAX_ENUMERATION_TERMS}); it is for small cross-checks"
            )
        lams = list(self.enumerate_hidden_variables())
        probs = np.zeros(shape)
        for x in range(self.m_a):
            for y in range(self.m_b):
                block = np.zeros((self.n_a + 1, self.n_b + 1))
                for weight, lam in lams:
                    block += weight * np.outer(
                        self.respond_alice(lam, x), self.respond_bob(lam, y)
                    )
                probs[x, y] = block
        return OutcomeDistribution(probs, silent=True)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    @cached_property
    def _sampler_tables(self) -> tuple[np.ndarray, ...]:
        """Cumulative tables for vectorized inverse-CDF draws: both
        marginals, then each answering party's conditional given the
        guessed (setting, outcome) — Bob's indexed (x', y, a, b), Alice's
        (x, y', b, a)."""
        return (
            _cum_rows(self._marg_a),
            _cum_rows(self._marg_b),
            _cum_rows(self._joint),
            _cum_rows(self._joint.transpose(0, 1, 3, 2)),
        )

    def sample_many(
        self, settings: tuple[int, int], n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n`` outcome pairs at one settings choice, vectorized.

        Returns an ``(n, 2)`` integer array of outcome positions, with -1
        encoding the silent outcome.  The draw order is fixed (gate, role,
        guessed setting, guessed outcome, partner response — one uniform
        each per sample), so a fixed seed reproduces the transcript.  Bad
        settings or ``n < 0`` raise :class:`DomainError` before any draw.

        All five uniform rows are drawn for every draw, but the table
        lookups run only for draws that proceed, and each of those looks
        up only its own role's guess and response.  Memory is one
        ``(5, n)`` block of uniforms plus arrays sized by the draws that
        proceed.  To count many draws in bounded memory, call it on chunks
        of at most :data:`~lhvmodels.quantum.CHUNK` draws and add up each
        chunk's :meth:`tabulate`, as ``lhv two-party verify --samples``
        does.  Above one chunk that is a different transcript from one
        call of ``n``: each call draws its own ``(5, c)`` block.
        """
        x, y = settings_index(settings, (self.m_a, self.m_b))
        if n < 0:
            raise DomainError(f"need n >= 0 draws, got n={n}")
        marg_a, marg_b, cond_b, cond_a = self._sampler_tables
        g = float(self.symmetrization.proceed_prob)
        r = float(self.symmetrization.role_prob)
        u = rng.random((5, n))
        proceed = u[0] < g
        alice_guessed = u[1] < r

        out = np.full((n, 2), -1, dtype=np.int64)
        # per role: the draws it covers, the guesser's column and own
        # setting, its marginal, and the answering party's conditional
        # indexed (guessed setting, guessed outcome)
        roles = (
            (proceed & alice_guessed, 0, x, marg_a, cond_b[:, y]),
            (proceed & ~alice_guessed, 1, y, marg_b, cond_a[x]),
        )
        for mask, guesser, own, marg, cond in roles:
            i = np.flatnonzero(mask)
            m_guess, n_guess = marg.shape
            # guessed setting, scaled to this role from the shared uniform
            s = np.minimum((u[2, i] * m_guess).astype(np.int64), m_guess - 1)
            # guessed outcome from the guessed setting's quantum marginal
            guess = np.minimum(inverse_cdf(u[3, i], marg[s]), n_guess - 1)
            out[i, guesser] = np.where(s == own, guess, -1)
            # answering party's conditional response
            resp = inverse_cdf(u[4, i], cond[s, guess])
            out[i, 1 - guesser] = np.minimum(resp, cond.shape[-1] - 1)
        return out

    def tabulate(self, samples: np.ndarray) -> np.ndarray:
        """Count an ``(n, 2)`` sample array into an int64 ``(n_a+1, n_b+1)``
        array laid out as a block of :meth:`exact_distribution`: outcome
        positions along each axis, with the silent code -1 counted in the
        last position."""
        samples = np.asarray(samples, dtype=np.int64)
        if samples.size and (
            samples.min() < -1
            or samples[:, 0].max() >= self.n_a
            or samples[:, 1].max() >= self.n_b
        ):
            raise DomainError(
                f"sample codes outside -1..{self.n_a - 1} (Alice) "
                f"or -1..{self.n_b - 1} (Bob)"
            )
        width = self.n_b + 1
        counts = np.bincount(
            (samples[:, 0] + 1) * width + (samples[:, 1] + 1),
            minlength=(self.n_a + 1) * width,
        )
        # the codes count the silent -1 first on each axis; roll it last
        return np.roll(counts.reshape(-1, width), -1, axis=(0, 1))
