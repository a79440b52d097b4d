"""Small exact linear algebra helpers over the rationals (and generic rings).

Matrices are lists of row lists. Everything is deterministic: no pivoting
heuristics are needed because the arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple


def det(matrix: Sequence[Sequence]) -> object:
    """Determinant of a square matrix over any commutative ring.

    Uses Laplace expansion with dynamic programming over column subsets, so
    entries only need +, - and *. Intended for small matrices (size <= ~6).
    A matrix of ints and Fractions is reduced once: each row is scaled to ints
    by the lcm of its denominators, and the int determinant over the product
    of those lcms is returned as a Fraction.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    if all(isinstance(c, (int, Fraction)) for row in matrix for c in row):
        scales = [math.lcm(*[c.denominator for c in row]) for row in matrix]
        rows = [[c.numerator * (s // c.denominator) for c in row] for row, s in zip(matrix, scales)]
        return Fraction(_subset_minors(rows, n)[(1 << n) - 1], math.prod(scales))
    return _subset_minors(matrix, n)[(1 << n) - 1]


def maximal_minors(rows: Sequence[Sequence]) -> list:
    """The k+1 minors of a k x (k+1) matrix, the j-th without column j, from one pass."""
    n = len(rows) + 1
    if any(len(row) != n for row in rows):
        raise ValueError("maximal minors of a matrix that is not k x (k+1)")
    minors = _subset_minors(rows, n)
    return [minors[((1 << n) - 1) ^ (1 << j)] for j in range(n)]


def _subset_minors(rows: Sequence[Sequence], n: int) -> dict:
    """{mask: det of the rows restricted to the columns in mask}, for each len(rows) of the n columns."""
    minors = {0: 1}  # after row k, the dets of rows 0..k restricted to k+1 columns
    for k, row in enumerate(rows):
        new = {}
        for mask, value in minors.items():
            # expanding along row k: cofactor sign is (-1)^(k + column position),
            # folded into an add or a subtract
            plus = k % 2 == 0
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    plus = not plus
                    continue
                term = value * row[j]
                key = mask | bit
                if key in new:
                    new[key] = new[key] + term if plus else new[key] - term
                else:
                    new[key] = term if plus else -term
        minors = new
    return minors


def _reduce(rows: Sequence[Sequence[Fraction]], ncols: int) -> Tuple[List[List[Fraction]], List[int]]:
    """Gauss-Jordan elimination over the first ncols columns: the reduced rows
    and the pivot columns, the k-th pivot in row k."""
    work = [[Fraction(c) for c in row] for row in rows]
    pivots: List[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][col]
        work[r] = [c * inv for c in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots
