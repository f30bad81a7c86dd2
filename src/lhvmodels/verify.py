"""Comparison machinery shared by every verification path.

Two comparison modes, each producing a :class:`ComparisonReport`:

* :func:`compare_float` — entrywise tolerance comparison of two outcome
  tables (float64 arrays over the same cells);
* :func:`statistical_match` — empirical counts against a target block,
  two arrays of the same shape, with a per-cell three-sigma
  normal-approximation criterion.

Outcomes are positions; labels (:func:`~lhvmodels.quantum.outcome_labels`,
"∅" for the silent position) are used only to name the worst cell.

The statistical criterion is one array routine, :func:`sigma_band`, which
the dimension model's checks call too.  It deliberately applies no
multiple-comparison correction; reports carry the number of failing cells
so an isolated borderline cell can be told apart from a systematic
discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DomainError, StructuralError
from .quantum import OutcomeDistribution, outcome_labels, sequential_sum

#: Default entrywise tolerance for float comparisons.
FLOAT_TOL = 1e-10
#: Width of the statistical acceptance band, in standard deviations.
SIGMA_FACTOR = 3.0
#: statistical_match refuses totals below this (normal approximation).
MIN_SAMPLES = 100


@dataclass(frozen=True)
class ComparisonReport:
    """Result of one comparison.

    ``worst_cell`` names the cell with the largest deviation, the first of
    tied cells in C order (``"settings=(0,1) outcomes=(0,∅)"`` for a float
    comparison, ``"(0, ∅)"`` for a statistical one); ``tv_distance`` is
    the total-variation distance — for tables with several settings
    blocks, the worst block's distance.  ``mode`` is ``"float"`` or
    ``"statistical"``.  ``passed`` holds iff the mode's criterion (the
    tolerance, or the three-sigma band) holds in every cell;
    ``failing_cells`` counts the cells that broke it.  ``n_samples`` and
    ``sigma_bound`` are only set by the statistical mode.
    """

    mode: str
    passed: bool
    max_abs_error: float
    worst_cell: str
    tv_distance: float
    failing_cells: int
    n_samples: int | None = None
    sigma_bound: float | None = None

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "pass": self.passed,
            "max_abs_error": self.max_abs_error,
            "worst_cell": self.worst_cell,
            "tv_distance": self.tv_distance,
            "failing_cells": self.failing_cells,
        }
        if self.n_samples is not None:
            out["n_samples"] = self.n_samples
        if self.sigma_bound is not None:
            out["sigma_bound"] = self.sigma_bound
        return out


def _labels(
    shape: tuple[int, ...], index: tuple[int, ...], silent: bool
) -> list[str]:
    """The report labels of one outcome cell, ``index`` into ``shape``."""
    return [outcome_labels(k, silent)[i] for k, i in zip(shape, index)]


def compare_float(
    a: OutcomeDistribution, b: OutcomeDistribution, tol: float = FLOAT_TOL
) -> ComparisonReport:
    """Entrywise |a - b| <= tol comparison (default tolerance 1e-10).

    The worst cell is the first largest error in C order; the distance is
    the worst block's half-sum of the errors.  Tables over different cells
    (shapes or ``silent`` flags that differ) raise :class:`StructuralError`.
    """
    if a.silent != b.silent or a.probs.shape != b.probs.shape:
        raise StructuralError(
            f"distributions index different cells (shapes {a.probs.shape} "
            f"and {b.probs.shape}, silent {a.silent} and {b.silent})"
        )
    err = np.abs(a.probs - b.probs)
    failing = int(np.count_nonzero(err > tol))
    n = a.n_parties
    i = int(np.argmax(err))
    idx = np.unravel_index(i, err.shape)
    outcomes = _labels(err.shape[n:], idx[n:], a.silent)
    tv = 0.5 * sequential_sum(err, range(n, 2 * n))
    return ComparisonReport(
        mode="float",
        passed=failing == 0,
        max_abs_error=float(err.flat[i]),
        worst_cell="settings=({}) outcomes=({})".format(
            ",".join(str(s) for s in idx[:n]), ",".join(outcomes)
        ),
        tv_distance=float(np.max(tv)),
        failing_cells=failing,
    )


def sigma_band(
    counts: Any, total: Any, target: Any, slack: Any = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The statistical acceptance rule, elementwise over arrays.

    Returns ``(freq, sigma, passed)``: the frequencies ``counts / total``,
    the normal standard deviations sigma = sqrt(max(p(1-p), 0)/total) of
    the target probabilities ``p``, and whether |freq - p| <= slack +
    :data:`SIGMA_FACTOR` sigma in each cell.  The arguments broadcast.
    """
    p = np.asarray(target, dtype=np.float64)
    freq = np.asarray(counts) / total
    sigma = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / total)
    return freq, sigma, np.abs(freq - p) <= slack + SIGMA_FACTOR * sigma


def statistical_match(counts: Any, target: Any, silent: bool) -> ComparisonReport:
    """Check an array of counts against a target array, cell by cell.

    Each cell must pass :func:`sigma_band`.  The worst cell is the first
    largest error in C order, named as a tuple of its labels, "∅" for the
    last position of every axis where ``silent``.  Shapes that differ raise
    :class:`StructuralError`; negative counts, or a total below
    :data:`MIN_SAMPLES` (the normal approximation), :class:`DomainError`.
    """
    counts = np.asarray(counts)
    probs = np.asarray(target, dtype=np.float64)
    if counts.shape != probs.shape:
        raise StructuralError(
            f"counts of shape {counts.shape}, target of shape {probs.shape}"
        )
    if (counts < 0).any():
        raise DomainError("negative count")
    total = int(counts.sum())
    if total < MIN_SAMPLES:
        raise DomainError(
            f"need at least {MIN_SAMPLES} samples for the normal "
            f"approximation, got {total}"
        )
    freq, _, passed = sigma_band(counts, total, probs)
    err = np.abs(freq - probs)
    i = int(np.argmax(err))
    cell = ", ".join(_labels(err.shape, np.unravel_index(i, err.shape), silent))
    return ComparisonReport(
        mode="statistical",
        passed=bool(passed.all()),
        max_abs_error=float(err.flat[i]),
        # as Python writes a tuple: "(0, ∅)", or "(2,)" on one axis
        worst_cell=f"({cell},)" if err.ndim == 1 else f"({cell})",
        tv_distance=0.5 * math.fsum(err.ravel().tolist()),
        failing_cells=int(np.count_nonzero(~passed)),
        n_samples=total,
        sigma_bound=SIGMA_FACTOR,
    )
