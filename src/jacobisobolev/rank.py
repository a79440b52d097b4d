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

from .exactmath import _exact


class WeightedRankTrace(NamedTuple):
    """Audit trail of one weighted-rank computation."""

    eta: Tuple[Fraction, ...]
    tau: Tuple[int, ...]
    reduced_columns: Tuple[int, ...]  # 0-based indices of the kept columns
    value: Fraction


def _absorb(basis: List[Tuple[int, List[Fraction]]], vector: Sequence[Fraction]) -> bool:
    """Whether vector lies in the span of the echelon rows in basis, each a (pivot, row)
    pair with row[pivot] = 1 and zeros at the pivots before it. When it does not, its
    reduced row, scaled to a leading 1, joins the basis."""
    for pivot, row in basis:
        factor = vector[pivot]
        if factor:
            vector = [a - factor * b for a, b in zip(vector, row)]
    lead = next((k for k, c in enumerate(vector) if c), None)
    if lead is None:
        return True
    inv = 1 / vector[lead]
    basis.append((lead, [c * inv for c in vector]))
    return False


def weighted_rank(gamma, matrix: Sequence[Sequence]) -> WeightedRankTrace:
    """Walk the definition of the gamma-weighted rank with exact span tests.

    Each scan carries one echelon basis of the vectors seen so far, so every
    column, and then every row, is reduced once."""
    gamma = _exact(gamma)
    m = len(matrix)
    rows = [[_exact(c) for c in row] for row in matrix]
    if any(len(row) != m for row in rows):
        raise ValueError("weighted rank is defined for square matrices")
    if m == 0:
        return WeightedRankTrace(eta=(), tau=(), reduced_columns=(), value=Fraction(0))
    eta: List[Fraction] = []
    kept: List[int] = []
    basis: List[Tuple[int, List[Fraction]]] = []  # the kept columns, right of the scanned one
    for j in range(1, m + 1):
        if _absorb(basis, [row[m - j] for row in rows]):
            eta.append(Fraction(0))
        else:
            eta.append(gamma + m - j)
            kept.append(m - j)
    kept_sorted = sorted(kept)
    reduced_rows = [[row[j] for j in kept_sorted] for row in rows]
    tau = [0] * (m - 1)
    basis = []  # the reduced rows below the scanned one
    _absorb(basis, reduced_rows[-1])
    for j in range(m - 1, 0, -1):
        if _absorb(basis, reduced_rows[j - 1]):
            tau[j - 1] = m - j
    total_binom = m * (m - 1) // 2
    value = sum(eta, Fraction(0)) + sum(tau) - total_binom
    return WeightedRankTrace(
        eta=tuple(eta), tau=tuple(tau), reduced_columns=tuple(kept_sorted), value=value
    )


def predicted_order(cfg) -> int:
    """deg(Xi) + 2 (beta-weighted rank of M + alpha-weighted rank of N + 1)."""
    wr_m = weighted_rank(cfg.beta, cfg.M).value
    wr_n = weighted_rank(cfg.alpha, cfg.N).value
    return int(cfg.xi.degree + 2 * (wr_m + wr_n + 1))
