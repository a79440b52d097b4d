"""Classical Jacobi polynomials.

The normalization used throughout is

    J_n(x) = (-1)^n (a+b+1)_n / (2^n (b+1)_n)
             * sum_j C(n+a, j) C(n+b, n-j) (x-1)^(n-j) (x+1)^j

with parameters a = alpha, b = beta: J_n is (-1)^n (s+1)_n / (b+1)_n times
the classical P_n^(a,b), where s = a+b. These are eigenfunctions of the
second-order operator (x^2-1) d^2/dx^2 + ((a+b+2)x + a - b) d/dx with
eigenvalue theta_n = n (n + a + b + 1). Szego's recurrence for P_n
(Orthogonal Polynomials, 1939, eq. (4.5.1)) gives J_0 = 1,
J_1 = -(s+1)/(2(b+1)) ((s+2)x + a-b) and, for k >= 2, j = k-1 and e = 2j+s,

    J_k = -[((e+1)(e+2)e x + (e+1)(a^2-b^2)) J_j + 2(j+a)(e+2)(j+s) J_{j-1}]
          / (2(j+1)(j+b+1)e).
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import ONE, ZERO, Frozen, IdentityCheckFailed, Poly, _exact


class JacobiContext(Frozen):
    """Jacobi parameter pair; alpha, beta and alpha+beta must avoid -1, -2, ..."""

    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha, beta):
        alpha = _exact(alpha)
        beta = _exact(beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        for value in (alpha, beta, alpha + beta):
            if value.denominator == 1 and value <= -1:
                raise ValueError(f"parameter {value} is a forbidden negative integer")

    def theta(self, n) -> Fraction:
        n = _exact(n)
        return n * (n + self.alpha + self.beta + 1)

    def sigma(self, n) -> Fraction:
        return 2 * _exact(n) + self.alpha + self.beta - 1


_POLY_CACHE: dict = {}


def jacobi_poly(ctx: JacobiContext, n: int) -> Poly:
    """Degree-n Jacobi polynomial; the zero polynomial for n < 0.

    ``_POLY_CACHE`` maps (alpha, beta) to the family [J_0, J_1, ...] built so
    far. While that list is too short, the next degree is appended by Szego's
    recurrence (4.5.1) stated above, whose divisors are nonzero for every
    JacobiContext.
    """
    if n < 0:
        return ZERO
    a, b = ctx.alpha, ctx.beta
    family = _POLY_CACHE.setdefault((a, b), [])
    while len(family) <= n:
        k, s = len(family), a + b
        if k < 2:
            nxt = ONE if k == 0 else Poly([a - b, s + 2]) * (-(s + 1) / (2 * (b + 1)))
        else:
            j, e = k - 1, 2 * k - 2 + s
            step = Poly([(e + 1) * (a * a - b * b), (e + 1) * (e + 2) * e]) * family[j]
            nxt = (step + family[j - 1] * (2 * (j + a) * (e + 2) * (j + s))) / (-2 * (j + 1) * (j + b + 1) * e)
        if nxt.degree != k:
            raise IdentityCheckFailed("jacobi_poly", f"deg J_{k} = {k}")
        family.append(nxt)
    return family[n]

