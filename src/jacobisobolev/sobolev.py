"""The discrete Jacobi-Sobolev bilinear form.

The bilinear form is

    B(p, q) = int p q (1-x)^(alpha-m2) (1+x)^(beta-m1) dx
              + T(p, -1, m1) . M . T(q, -1, m1)
              + T(p, +1, m2) . N . T(q, +1, m2)

where T(p, point, k) is the jet (p, p', ..., p^(k-1)) at the point. The form
is generally non-symmetric, so orthogonality is one-sided ("left"): q_n is
orthogonal when B(q_n, q) = 0 for every q of lower degree and
B(q_n, q_n) != 0.

Both `bilinear` and `bilinear_monomials` take B(p, x^j) as ints over one
denominator from `_form_ints`. The Gram-matrix oracle, the ground truth for
the Casorati construction in `construct`, is in `certify`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from .exactmath import ONE, Frozen, Poly, involute, rat_rows, rat_str
from .jacobi import weight_moment

Matrix = Tuple[Tuple[Fraction, ...], ...]


class ParameterOutOfRangeError(ValueError):
    """The configuration puts a negative exponent in the weight."""


def _freeze_matrix(rows, size: int, name: str) -> Matrix:
    rows = tuple(tuple(row) for row in rat_rows(rows))
    if len(rows) != size or any(len(row) != size for row in rows):
        raise ValueError(f"{name} must be a {size}x{size} matrix")
    return rows


class SobolevConfig(Frozen):
    """Full problem statement: parameters, mass matrices and the Xi factor."""

    __slots__ = _fields = ("alpha", "beta", "m1", "m2", "M", "N", "xi")

    def __init__(self, alpha: int, beta: int, m1: int, m2: int, M=(), N=(), xi: Poly = ONE):
        for name, value in (("alpha", alpha), ("beta", beta), ("m1", m1), ("m2", m2)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if m1 < 0 or m2 < 0 or m1 + m2 < 1:
            raise ValueError("need m1, m2 >= 0 with m1 + m2 >= 1")
        if alpha < 0 or beta < 0:
            raise ValueError("alpha and beta must be nonnegative integers")
        M = _freeze_matrix(M, m1, "M")
        N = _freeze_matrix(N, m2, "N")
        for name, exponent in (("alpha - m2", alpha - m2), ("beta - m1", beta - m1)):
            if exponent < 0:
                raise ParameterOutOfRangeError(f"the weight exponent {name} = {exponent} is negative")
        if not isinstance(xi, Poly):
            raise TypeError(f"xi must be a Poly, got {xi!r}")
        if xi.is_zero:
            raise ValueError("xi must be nonzero")
        if involute(xi, alpha + beta - m1 - m2 - 1) != xi:
            raise ValueError("xi must be invariant under x -> -(x + alpha+beta-m)")
        for name, value in zip(self.__slots__, (alpha, beta, m1, m2, M, N, xi)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.m1 + self.m2

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "m1": self.m1,
            "m2": self.m2,
            "M": [[rat_str(c) for c in row] for row in self.M],
            "N": [[rat_str(c) for c in row] for row in self.N],
            "xi": self.xi.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SobolevConfig":
        unknown = sorted(set(data) - {"alpha", "beta", "m1", "m2", "M", "N", "xi"})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        return cls(
            alpha=data["alpha"],
            beta=data["beta"],
            m1=data["m1"],
            m2=data["m2"],
            M=data.get("M", []),
            N=data.get("N", []),
            xi=Poly.from_json(data.get("xi", ["1"])),
        )


def _form_ints(cfg: SobolevConfig, p: Poly, n: int) -> Tuple[List[int], int]:
    """Ints v_j and one denominator d with B(p, x^j) = v_j / d for j < n.

    The weight moments and the entries of M and N are scaled to ints over one
    lcm. The integral of p x^j is then a sum of p's numerators against the
    moments, and the jet of x^j at +-1 is (j! / (j-c)! (+-1)^(j-c))_c.
    """
    nums = p.nums
    moments = [weight_moment(cfg.alpha - cfg.m2, cfg.beta - cfg.m1, k) for k in range(len(nums) + n - 1)]
    scale = math.lcm(*[c.denominator for c in moments], *[c.denominator for row in cfg.M + cfg.N for c in row])
    mu = [c.numerator * (scale // c.denominator) for c in moments]
    values = [sum([c * mu[k + j] for k, c in enumerate(nums)]) for j in range(n)]
    for point, size, masses in ((-1, cfg.m1, cfg.M), (1, cfg.m2, cfg.N)):
        if not size:
            continue
        # the row vector T(p, point, size) . masses, times scale
        tp = [sum([nums[i] * math.perm(i, l) * point ** (i - l) for i in range(l, len(nums))]) for l in range(size)]
        ints = [[c.numerator * (scale // c.denominator) for c in row] for row in masses]
        row = [sum([tp[l] * ints[l][c] for l in range(size)]) for c in range(size)]
        for j in range(n):
            values[j] += sum([row[c] * math.perm(j, c) * point ** (j - c) for c in range(min(size, j + 1))])
    return values, p.den * scale


def bilinear(cfg: SobolevConfig, p: Poly, q: Poly) -> Fraction:
    """Evaluate the Sobolev bilinear form exactly, as the sum of q_k B(p, x^k)."""
    values, den = _form_ints(cfg, p, len(q.nums))
    return Fraction(sum([c * v for c, v in zip(q.nums, values)]), den * q.den)


def bilinear_monomials(cfg: SobolevConfig, p: Poly, n: int) -> List[Fraction]:
    """[B(p, x^j) for j < n], from one pass over p's jets and the moments."""
    values, den = _form_ints(cfg, p, n)
    return [Fraction(v, den) for v in values]
