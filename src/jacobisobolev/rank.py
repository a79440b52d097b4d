"""The gamma-weighted rank of a matrix and the operator-order prediction.

The weighted rank scans the columns right to left, crediting gamma + m - j
for each column outside the span of the columns to its right; the surviving
independent columns form a reduced matrix whose rows are then scanned for
membership in the span of the rows below them. The resulting integer, doubled
and offset, predicts the order of the eigenoperator built in `diffop`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from . import _linalg
from .exactmath import _exact


class WeightedRankTrace(NamedTuple):
    """Audit trail of one weighted-rank computation."""

    eta: Tuple[Fraction, ...]
    tau: Tuple[int, ...]
    reduced_columns: Tuple[int, ...]  # 0-based indices of the kept columns
    value: Fraction


def weighted_rank(gamma, matrix: Sequence[Sequence]) -> WeightedRankTrace:
    """Walk the definition of the gamma-weighted rank with exact span tests."""
    gamma = _exact(gamma)
    m = len(matrix)
    rows = [[_exact(c) for c in row] for row in matrix]
    if any(len(row) != m for row in rows):
        raise ValueError("weighted rank is defined for square matrices")
    if m == 0:
        return WeightedRankTrace(eta=(), tau=(), reduced_columns=(), value=Fraction(0))
    columns = [[rows[i][j] for i in range(m)] for j in range(m)]
    eta: List[Fraction] = []
    kept: List[int] = []
    for j in range(1, m + 1):
        col = columns[m - j]
        later = [columns[i] for i in kept]
        if _linalg.in_span(later, col):
            eta.append(Fraction(0))
        else:
            eta.append(gamma + m - j)
            kept.append(m - j)
    kept_sorted = sorted(kept)
    reduced_rows = [[rows[i][j] for j in kept_sorted] for i in range(m)]
    tau: List[int] = []
    total_binom = m * (m - 1) // 2
    for j in range(1, m):
        below = reduced_rows[j:]
        tau.append(m - j if _linalg.in_span(below, reduced_rows[j - 1]) else 0)
    value = sum(eta, Fraction(0)) + sum(tau) - total_binom
    return WeightedRankTrace(
        eta=tuple(eta), tau=tuple(tau), reduced_columns=tuple(kept_sorted), value=value
    )


def predicted_order(cfg) -> int:
    """deg(Xi) + 2 (beta-weighted rank of M + alpha-weighted rank of N + 1)."""
    wr_m = weighted_rank(cfg.beta, cfg.M).value
    wr_n = weighted_rank(cfg.alpha, cfg.N).value
    total = cfg.xi.degree + 2 * (wr_m + wr_n + 1)
    if Fraction(total).denominator != 1:
        raise ValueError("order prediction is not an integer")
    return int(total)
