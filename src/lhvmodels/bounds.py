"""Detection-efficiency thresholds below which local models can mimic
quantum correlations.

Four families are covered:

* two parties with ``M_A`` / ``M_B`` settings:  eta = (M_A+M_B-2)/(M_A M_B-1),
  together with the exactly solved parameters of the symmetrized two-party
  model (role swap and joint-silence gate);
* N parties with M settings each:  eta = N/((N-1)M+1);
* the all-click regime (correlations reproduced whenever every detector
  fires):  eta = 1/M^((N-1)/N);
* the dimension-dependent model with error tolerance epsilon on a pair of
  d-dimensional systems:  eta >= (epsilon/4d)^(2(d-1)), with the exact value
  obtained by solving the threshold angle.

Rational formulas are evaluated with :class:`fractions.Fraction` and are
exact; irrational ones return double-precision floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DomainError

#: Bisection tolerance when inverting the epsilon(delta) map.
ANGLE_TOL = 1e-12


def eta_two_party(m_a: int, m_b: int) -> Fraction:
    """Threshold efficiency for two parties with ``m_a`` and ``m_b`` settings.

    Returns the exact rational (m_a + m_b - 2)/(m_a*m_b - 1).  Below this
    efficiency a local model reproduces every quantum correlation of the
    scenario.

    Raises
    ------
    DomainError
        If either count is < 1, or both equal 1 (the formula degenerates).
    """
    m_a, m_b = int(m_a), int(m_b)
    if m_a < 1 or m_b < 1:
        raise DomainError(f"setting counts must be >= 1, got ({m_a}, {m_b})")
    if m_a == 1 and m_b == 1:
        raise DomainError("at least one party needs more than one setting")
    return Fraction(m_a + m_b - 2, m_a * m_b - 1)


@dataclass(frozen=True)
class SymmetrizationSolution:
    """Exact parameters making the symmetrized two-party model reproduce the
    eta-extended quantum statistics.

    ``role_prob`` is the probability that Alice is the guessing (sometimes
    silent) party and Bob answers from the conditional; ``proceed_prob`` is
    the probability that the run proceeds at all rather than both detectors
    staying silent.  Substituted into the four detection-probability
    matching conditions (:meth:`residuals`), all four hold exactly.
    """

    m_a: int
    m_b: int
    eta: Fraction
    proceed_prob: Fraction
    role_prob: Fraction

    def residuals(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The four matching conditions as exact residuals (all zero).

        In order: both detectors fire, only Bob fires, only Alice fires,
        neither fires — each as (model probability) - (target probability)
        for the detection pattern, with the target the independent-detector
        form eta^2, eta(1-eta), eta(1-eta), (1-eta)^2.
        """
        eta, g, r = self.eta, self.proceed_prob, self.role_prob
        both = g * (r * Fraction(1, self.m_a) + (1 - r) * Fraction(1, self.m_b))
        bob_only = g * r * Fraction(self.m_a - 1, self.m_a)
        alice_only = g * (1 - r) * Fraction(self.m_b - 1, self.m_b)
        neither = 1 - g
        return (
            both - eta**2,
            bob_only - eta * (1 - eta),
            alice_only - eta * (1 - eta),
            neither - (1 - eta) ** 2,
        )


def solve_symmetrization(m_a: int, m_b: int) -> SymmetrizationSolution:
    """Solve the four detection-probability matching conditions exactly.

    The system has a unique solution with all parameters in [0, 1]: the role
    probability follows from equating the two single-click conditions, the
    proceed gate from the no-click condition, and the efficiency is forced
    to ``eta_two_party(m_a, m_b)``.  The returned solution is verified to
    satisfy all four conditions exactly (a failure would indicate an
    arithmetic bug and raises :class:`ConsistencyError`).
    """
    eta = eta_two_party(m_a, m_b)
    m_a, m_b = int(m_a), int(m_b)
    # only-Bob-fires == only-Alice-fires forces the role split
    role = Fraction(m_a * (m_b - 1), m_a * (m_b - 1) + m_b * (m_a - 1))
    proceed = 1 - (1 - eta) ** 2
    solution = SymmetrizationSolution(m_a, m_b, eta, proceed, role)
    if any(res != 0 for res in solution.residuals()):
        raise ConsistencyError(
            f"symmetrization solution for ({m_a},{m_b}) violates the "
            f"matching conditions: residuals {solution.residuals()}"
        )
    return solution


def eta_multiparty(n: int, m: int) -> Fraction:
    """Threshold efficiency for N parties with M settings each.

    Returns the exact rational N/((N-1)M+1); for M=2 this is N/(2N-1) and
    for N=2 it coincides with ``eta_two_party(M, M)``.
    """
    n, m = int(n), int(m)
    if n < 2:
        raise DomainError(f"need at least 2 parties, got {n}")
    if m < 2:
        raise DomainError(f"need at least 2 settings per party, got {m}")
    return Fraction(n, (n - 1) * m + 1)


def eta_all_click(n: int, m: int) -> float:
    """Efficiency at which a local model matches the quantum correlations
    whenever *all* detectors click: 1/M^((N-1)/N), as a float.

    Approaches 1/M from above as the number of parties grows.
    """
    n, m = int(n), int(m)
    if n < 2:
        raise DomainError(f"need at least 2 parties, got {n}")
    if m < 2:
        raise DomainError(f"need at least 2 settings per party, got {m}")
    return float(m) ** (-(n - 1) / n)


def fire_probability(d: int, delta: float) -> float:
    """Q = (sin delta)^(2(d-1)): the probability that the dimension model's
    guessing party fires at threshold angle delta."""
    return math.sin(delta) ** (2 * (d - 1))


def epsilon_of_angle(d: int, delta: float) -> float:
    """The dimension model's error scale d (sin^2 delta + 2 sin delta)."""
    s = math.sin(delta)
    return d * (s * s + 2.0 * s)


def eta_symmetrized(q: float) -> float:
    """Efficiency 2Q/(1+Q) of the role-symmetrized dimension model with
    firing probability Q (Q = 1 gives 1)."""
    return 2.0 * q / (1.0 + q)


def eta_lower_bound(d: int, epsilon: float) -> float:
    """The closed-form efficiency bound (epsilon/4d)^(2(d-1)); it applies
    for 0 < epsilon < 2d."""
    return (epsilon / (4.0 * d)) ** (2 * (d - 1))


def solve_threshold_angle(d: int, epsilon: float) -> float:
    """Invert epsilon = d (sin^2 delta + 2 sin delta) for delta in (0, pi/2].

    The map is strictly increasing on (0, pi/2], so bisection (tolerance
    1e-12) finds the unique root.  Requires 0 < epsilon < 2d, the regime in
    which the closed-form lower bound of :func:`eta_dimension` also applies.
    """
    d = int(d)
    if d < 2:
        raise DomainError(f"need dimension >= 2, got {d}")
    if not 0.0 < epsilon < 2.0 * d:
        raise DomainError(
            f"error tolerance must satisfy 0 < epsilon < 2d = {2 * d}, got {epsilon}"
        )
    lo, hi = 0.0, math.pi / 2.0
    while hi - lo > ANGLE_TOL:
        mid = 0.5 * (lo + hi)
        if epsilon_of_angle(d, mid) < epsilon:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eta_dimension(d: int, epsilon: float, mode: str = "lower_bound") -> float:
    """Efficiency of the dimension-dependent model with error tolerance
    ``epsilon`` on a pair of d-dimensional systems.

    ``mode="lower_bound"`` returns the closed form (epsilon/4d)^(2(d-1)).
    ``mode="exact_from_delta"`` solves the threshold angle delta for the
    given epsilon and returns 2Q/(1+Q) with Q = (sin delta)^(2(d-1)) — the
    exact efficiency of the symmetrized model, which dominates the closed
    form for every valid (d, epsilon).
    """
    d = int(d)
    if d < 2:
        raise DomainError(f"need dimension >= 2, got {d}")
    if not 0.0 < epsilon < 2.0 * d:
        raise DomainError(
            f"error tolerance must satisfy 0 < epsilon < 2d = {2 * d}, got {epsilon}"
        )
    if mode == "lower_bound":
        return eta_lower_bound(d, epsilon)
    if mode == "exact_from_delta":
        delta = solve_threshold_angle(d, epsilon)
        return eta_symmetrized(fire_probability(d, delta))
    raise DomainError(f"unknown mode {mode!r}")
