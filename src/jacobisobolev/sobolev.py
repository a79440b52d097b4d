"""The discrete Jacobi-Sobolev bilinear form.

The bilinear form is

    B(p, q) = int p q (1-x)^(alpha-m2) (1+x)^(beta-m1) dx
              + T(p, -1, m1) . M . T(q, -1, m1)
              + T(p, +1, m2) . N . T(q, +1, m2)

where T(p, point, k) is the jet (p, p', ..., p^(k-1)) at the point. The form
is generally non-symmetric, so orthogonality is one-sided ("left"): q_n is
orthogonal when B(q_n, q) = 0 for every q of lower degree and
B(q_n, q_n) != 0.

B is tabulated once per configuration as an int Gram matrix over one
denominator d, G[k][j] = d B(x^k, x^j): the Hankel matrix of the weight
moments mu_(k+j), plus J_-^T M J_- and J_+^T N J_+ with the jet rows
J[l][k] = k!/(k-l)! (+-1)^(k-l); the moments come from one int recurrence
(`_moments`). The table is held on the `SobolevConfig` and rebuilt at the
size asked for when a longer p or more monomials need it. `bilinear` and
`bilinear_monomials` take B(p, x^j) as dot products of p's numerators with
G's columns (`_form_ints`). The Gram-matrix oracle, the ground truth for the
Casorati construction in `construct`, is in `certify`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import List, Tuple

from .exactmath import ONE, Frozen, NotInvariantError, Poly, rat_rows, rat_str, to_theta_basis

Matrix = Tuple[Tuple[Fraction, ...], ...]


class ParameterOutOfRangeError(ValueError):
    """The configuration puts a negative exponent in the weight."""


def _freeze_matrix(rows, size: int, name: str) -> Matrix:
    rows = tuple(tuple(row) for row in rat_rows(rows, f"{name}: a matrix"))
    if len(rows) != size or any(len(row) != size for row in rows):
        raise ValueError(f"{name} must be a {size}x{size} matrix")
    return rows


class SobolevConfig(Frozen):
    """Full problem statement: parameters, mass matrices and the Xi factor.

    The Gram table of B (see `_gram`) is filled on first use, ignored by ==,
    hash, repr and `to_json`, and starts empty on a config built from
    another's fields, as a copy is."""

    _fields = ("alpha", "beta", "m1", "m2", "M", "N", "xi")
    __slots__ = (*_fields, "_gram")

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
        try:  # x -> -(x+s+1) with s = alpha+beta-m-1, read from the parity of xi
            to_theta_basis(xi, alpha + beta - m1 - m2 - 1, 0)
        except NotInvariantError:
            raise ValueError("xi must be invariant under x -> -(x + alpha+beta-m)") from None
        for name, value in zip(self._fields, (alpha, beta, m1, m2, M, N, xi)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_gram", ((), 1))

    def __reduce__(self):
        return type(self), self._key()

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


def _moments(a: int, b: int, count: int) -> Tuple[List[int], int]:
    """Ints mu_k and one denominator d, mu_k / d = int (1-x)^a (1+x)^b x^k dx over (-1, 1), k < count.

    Pearson's equation (1-x^2) w' = ((b-a) - (a+b) x) w, integrated against x^k by parts, gives
    (a+b+k+2) mu_(k+1) = (b-a) mu_k + k mu_(k-1) from mu_0 = 2^(a+b+1) a! b! / (a+b+1)!. So the
    t_k = mu_k (a+b+2)_k / mu_0 are ints, t_(k+1) = (b-a) t_k + k (a+b+k+1) t_(k-1) from 1, b-a.
    """
    s = a + b
    t = [1, b - a]
    for k in range(1, count - 1):
        t.append((b - a) * t[k] + k * (s + k + 1) * t[k - 1])
    den, scale = math.factorial(s + count), 2 ** (s + 1) * math.factorial(a) * math.factorial(b)
    nums = [scale * t[k] * (den // math.factorial(s + k + 1)) for k in range(count)]
    g = math.gcd(den, *nums)
    return [c // g for c in nums], den // g


def _gram(cfg: SobolevConfig, size: int) -> Tuple[Tuple[List[int], ...], int]:
    """Columns G[j] and one denominator d with B(x^k, x^j) = G[j][k] / d for
    k, j < size at least. A table too small is rebuilt at the size asked for.

    d is the lcm of the weight moments' and the masses' denominators. Column j
    is the moments mu_(k+j) plus sum_c J[c][j] (J^T M)[k][c] over both
    endpoints, where J[l][k] = k!/(k-l)! (+-1)^(k-l) is the jet of x^k.
    """
    columns, den = cfg._gram
    if len(columns) >= size:
        return columns, den
    mu, mu_den = _moments(cfg.alpha - cfg.m2, cfg.beta - cfg.m1, 2 * size - 1)
    den = math.lcm(mu_den, *[c.denominator for row in cfg.M + cfg.N for c in row])
    mu = [c * (den // mu_den) for c in mu]
    jets: List[List[int]] = []  # the rows J[l], at -1 and then at +1
    lefts: List[List[int]] = []  # the columns of J^T M and J^T N, times d, in the same order
    for point, masses in ((-1, cfg.M), (1, cfg.N)):
        rows, row = [], [point**k for k in range(size)]
        for l in range(len(masses)):
            rows.append(row)
            row = [v * (k - l) * point for k, v in enumerate(row)]  # k!/(k-l-1)! = k!/(k-l)! (k-l)
        ints = [[c.numerator * (den // c.denominator) for c in masses_row] for masses_row in masses]
        for ints_c in zip(*ints):
            left = [0] * size
            for jet, v in zip(rows, ints_c):
                if v:
                    left = list(map(add, left, map(v.__mul__, jet)))
            lefts.append(left)
        jets += rows
    columns = []
    for j in range(size):
        col = mu[j : j + size]
        for jet, left in zip(jets, lefts):
            if jet[j]:
                col = list(map(add, col, map(jet[j].__mul__, left)))
        columns.append(col)
    object.__setattr__(cfg, "_gram", (tuple(columns), den))
    return cfg._gram


def _form_ints(cfg: SobolevConfig, p: Poly, n: int) -> Tuple[List[int], int]:
    """Ints v_j and one denominator with B(p, x^j) = v_j / den for j < n: the
    dot products of p's numerators with the Gram table's columns."""
    columns, den = _gram(cfg, max(len(p.nums), n))
    return [sum(map(mul, p.nums, columns[j])) for j in range(n)], p.den * den


def bilinear(cfg: SobolevConfig, p: Poly, q: Poly) -> Fraction:
    """Evaluate the Sobolev bilinear form exactly, as the sum of q_k B(p, x^k)."""
    values, den = _form_ints(cfg, p, len(q.nums))
    return Fraction(sum([c * v for c, v in zip(q.nums, values)]), den * q.den)


def bilinear_monomials(cfg: SobolevConfig, p: Poly, n: int) -> List[Fraction]:
    """[B(p, x^j) for j < n], from the configuration's Gram table."""
    values, den = _form_ints(cfg, p, n)
    return [Fraction(v, den) for v in values]
