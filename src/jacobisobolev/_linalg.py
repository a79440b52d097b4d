"""Determinants and maximal minors over any commutative ring.

Matrices are lists of row lists. Every minor comes from one dynamic program
over column subsets (`_subset_minors`), so entries need only +, - and *. Two
kinds of entry run it on ints, each row scaled by the lcm of its denominators,
and each minor is reduced once over the product of those lcms: ints and
``Fraction``s, and ``Poly``s, each packed into one int, its value at x = 2^B
(Kronecker substitution), with B past every minor's coefficient bound. A
matrix of ``Poly``s but for one column (of ``RationalFunction``s, say) is
expanded along that column over the int minors of its polynomial block. Any
other matrix runs the program on its entries as they are.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exactmath import Poly


def det(matrix: Sequence[Sequence]) -> object:
    """Determinant of a square matrix over any commutative ring, from n 2^(n-1) products.

    Ints and Fractions give a Fraction, and Polys a Poly. When the entries that
    are not Polys all lie in one column c, the determinant is
    sum_h (-1)^(h+c) a_hc M_h, and the minors M_h without row h and column c are
    the maximal minors of the transposed polynomial block.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    if all(isinstance(c, (int, Fraction)) for row in matrix for c in row):
        scales = [math.lcm(*[c.denominator for c in row]) for row in matrix]
        rows = [[c.numerator * (s // c.denominator) for c in row] for row, s in zip(matrix, scales)]
        return Fraction(_subset_minors(rows, n)[(1 << n) - 1], math.prod(scales))
    other = {j for row in matrix for j, c in enumerate(row) if not isinstance(c, Poly)}
    if not other:
        return _poly_minors(matrix, n, [(1 << n) - 1])[0]
    if len(other) > 1:
        return _subset_minors(matrix, n)[(1 << n) - 1]
    (c,) = other
    block = list(zip(*[row[:c] + row[c + 1 :] for row in matrix]))
    minors = _poly_minors(block, n, _without_each(n))
    terms = [row[c] * minor for row, minor in zip(matrix, minors)]
    terms = [-t if (h + c) % 2 else t for h, t in enumerate(terms)]
    return sum(terms[1:], terms[0])


def maximal_minors(rows: Sequence[Sequence]) -> list:
    """The k+1 minors of a k x (k+1) matrix, the j-th without column j, from one pass."""
    n = len(rows) + 1
    if any(len(row) != n for row in rows):
        raise ValueError("maximal minors of a matrix that is not k x (k+1)")
    if rows and all(isinstance(c, Poly) for row in rows for c in row):
        return _poly_minors(rows, n, _without_each(n))
    minors = _subset_minors(rows, n)
    return [minors[mask] for mask in _without_each(n)]


def _without_each(n: int) -> list:
    """The masks of n - 1 of the n columns, the j-th without column j."""
    return [((1 << n) - 1) ^ (1 << j) for j in range(n)]


def _poly_minors(rows: Sequence[Sequence[Poly]], n: int, masks: list) -> list:
    """The minors of Poly rows over the column sets in masks, by Kronecker substitution.

    Row i, scaled to ints by the lcm of its denominators, has coefficient 1-norm
    s_i. A minor's coefficient is a sum of products of one entry per row, so it is
    at most the product of the s_i in absolute value. Evaluation at x = 2^B is a
    ring map into the ints, and with B one bit past that bound `_unpack` inverts it
    on every minor.
    """
    int_rows, den, bound = [], 1, 1
    for row in rows:
        s = math.lcm(*[p.den for p in row])
        den *= s
        int_rows.append([p.nums if p.den == s else [c * (s // p.den) for c in p.nums] for p in row])
        bound *= sum([abs(c) for nums in int_rows[-1] for c in nums]) or 1
    bits = bound.bit_length() + 1
    minors = _subset_minors([[_pack(nums, bits) for nums in row] for row in int_rows], n)
    return [Poly._from_ints(_unpack(minors[mask], bits), den) for mask in masks]


def _pack(nums: Sequence[int], bits: int) -> int:
    """sum nums[k] 2^(bits k), by Horner's rule."""
    value = 0
    for c in reversed(nums):
        value = (value << bits) + c
    return value


def _unpack(value: int, bits: int) -> list:
    """The ints c_k, |c_k| < 2^(bits-1), with value = sum c_k 2^(bits k), lowest first."""
    nums, mask, half = [], (1 << bits) - 1, 1 << (bits - 1)
    while value:
        c = value & mask
        if c >= half:
            c -= mask + 1
        nums.append(c)
        value = (value - c) >> bits
    return nums


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
