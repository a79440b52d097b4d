"""Straightforward Fraction versions of the exact kernel's inner loops.

The package multiplies, takes gcds and expands Jacobi polynomials on
integers over a common denominator. These are the plain rational
algorithms it replaced; the differential tests require exact equality with
them.
"""

import functools
import math
from fractions import Fraction

from jacobisobolev.exactmath import ZERO, Poly, X, falling_binomial, pochhammer


def reference_mul(p: Poly, q: Poly) -> Poly:
    """Schoolbook product, two Fraction operations per coefficient pair."""
    if p.is_zero or q.is_zero:
        return ZERO
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def _primitive(p: Poly) -> Poly:
    """Scale to integer coefficients with content 1 and a positive lead."""
    if p.is_zero:
        return p
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p.coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if ints[-1] < 0:
        g = -g
    return Poly([Fraction(v, g) for v in ints])


def reference_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by Euclid over the rationals, with primitive normalization."""
    a, b = _primitive(p), _primitive(q)
    while not b.is_zero:
        a, b = b, _primitive(a % b)
    return a.monic()


@functools.lru_cache(maxsize=None)
def _reference_pow(p: Poly, k: int) -> Poly:
    """p**k by repeated squaring with the schoolbook product (memoized)."""
    result, base = Poly([1]), p
    while k:
        if k & 1:
            result = reference_mul(result, base)
        base = reference_mul(base, base)
        k >>= 1
    return result


def reference_jacobi_poly(alpha, beta, n: int) -> Poly:
    """J_n from the sum of C(n+a, j) C(n+b, n-j) (x-1)^(n-j) (x+1)^j, by powers."""
    if n < 0:
        return ZERO
    a, b = Fraction(alpha), Fraction(beta)
    front = (-1) ** n * pochhammer(a + b + 1, n) / (Fraction(2) ** n * pochhammer(b + 1, n))
    total = ZERO
    for j in range(n + 1):
        c = falling_binomial(n + a, j) * falling_binomial(n + b, n - j)
        if c == 0:
            continue
        term = reference_mul(_reference_pow(X - 1, n - j), _reference_pow(X + 1, j))
        total = total + c * term
    return front * total
