"""Classical Jacobi polynomials, weight moments and endpoint derivative jets.

The normalization used throughout is

    J_n(x) = (-1)^n (a+b+1)_n / (2^n (b+1)_n)
             * sum_j C(n+a, j) C(n+b, n-j) (x-1)^(n-j) (x+1)^j

with parameters a = alpha, b = beta. These are eigenfunctions of the
second-order operator (x^2-1) d^2/dx^2 + ((a+b+2)x + a - b) d/dx with
eigenvalue theta_n = n (n + a + b + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import X, ZERO, IdentityCheckFailed, Poly, falling_binomial, pochhammer


@dataclass(frozen=True)
class JacobiContext:
    """Jacobi parameter pair; alpha, beta and alpha+beta must avoid -1, -2, ..."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        alpha = Fraction(self.alpha)
        beta = Fraction(self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        for value in (alpha, beta, alpha + beta):
            if value.denominator == 1 and value <= -1:
                raise ValueError(f"parameter {value} is a forbidden negative integer")

    def theta(self, n) -> Fraction:
        return Fraction(n) * (Fraction(n) + self.alpha + self.beta + 1)

    def sigma(self, n) -> Fraction:
        return 2 * Fraction(n) + self.alpha + self.beta - 1


_POLY_CACHE: dict = {}


def jacobi_poly(ctx: JacobiContext, n: int) -> Poly:
    """Degree-n Jacobi polynomial; the zero polynomial for n < 0."""
    if n < 0:
        return ZERO
    key = (ctx.alpha, ctx.beta, n)
    cached = _POLY_CACHE.get(key)
    if cached is not None:
        return cached
    a, b = ctx.alpha, ctx.beta
    front = (-1) ** n * pochhammer(a + b + 1, n) / (Fraction(2) ** n * pochhammer(b + 1, n))
    # weights[j] = C(n+a, j) C(n+b, n-j), each binomial by its ratio recurrence
    upper = [Fraction(1)]
    for j in range(n):
        upper.append(upper[-1] * (n + a - j) / (j + 1))
    lower = [Fraction(1)] * (n + 1)
    for j in range(n, 0, -1):
        lower[j - 1] = lower[j] * (b + j) / (n - j + 1)
    weights = [u * v for u, v in zip(upper, lower)]
    lcm = math.lcm(*[w.denominator for w in weights])
    # total = lcm * sum_j weights[j] (x-1)^(n-j) (x+1)^j over the integers;
    # the product moves from j to j+1 by dividing by x-1, multiplying by x+1
    prod = [math.comb(n, i) * (-1) ** (n - i) for i in range(n + 1)]
    total = [0] * (n + 1)
    for j, w in enumerate(weights):
        if j:
            quot = prod[1:]
            for i in range(n - 2, -1, -1):
                quot[i] += quot[i + 1]
            prod = [quot[0]] + [quot[i - 1] + quot[i] for i in range(1, n)] + [quot[-1]]
        if w:
            scale = w.numerator * (lcm // w.denominator)
            for i, c in enumerate(prod):
                total[i] += scale * c
    num, den = front.numerator, front.denominator * lcm
    result = Poly._from_ints([num * c for c in total], den)
    if result.degree != n:
        raise IdentityCheckFailed("jacobi_poly", f"deg J_{n} = {n}")
    _POLY_CACHE[key] = result
    return result


def classical_operator(ctx: JacobiContext):
    """The second-order operator with jacobi_poly(ctx, n) as eigenfunctions."""
    from .diffop import DiffOp

    a, b = ctx.alpha, ctx.beta
    return DiffOp([ZERO, Poly([a - b, a + b + 2]), Poly([-1, 0, 1])])


_MOMENT_CACHE: dict = {}


def weight_moment(a: int, b: int, k: int) -> Fraction:
    """Exact integral of (1-x)^a (1+x)^b x^k over (-1, 1).

    Computed by expanding the integrand and integrating monomials; a, b are
    nonnegative integers so the result is rational.
    """
    if a < 0 or b < 0 or k < 0:
        raise ValueError("weight_moment arguments must be nonnegative")
    key = (a, b, k)
    cached = _MOMENT_CACHE.get(key)
    if cached is not None:
        return cached
    integrand = (1 - X) ** a * (1 + X) ** b * X**k
    total = Fraction(0)
    for j in range(0, len(integrand.nums), 2):
        if integrand.nums[j]:
            total += Fraction(2 * integrand.nums[j], j + 1)
    total /= integrand.den
    _MOMENT_CACHE[key] = total
    return total


def integrate_against_weight(p: Poly, a: int, b: int) -> Fraction:
    """Exact integral of p(x) (1-x)^a (1+x)^b over (-1, 1)."""
    total = sum((c * weight_moment(a, b, k) for k, c in enumerate(p.nums) if c), Fraction(0))
    return total / p.den


def endpoint_jet(ctx: JacobiContext, n: int, point: int, order: int) -> Fraction:
    """Closed form for the order-th derivative of J_n at -1 or +1.

    Requires alpha and beta to be nonnegative integers (the only case the
    package exercises); must agree with differentiating jacobi_poly directly.
    """
    if point not in (-1, 1):
        raise ValueError("endpoint must be -1 or +1")
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if n < 0:
        return Fraction(0)
    a, b = ctx.alpha, ctx.beta
    if a.denominator != 1 or b.denominator != 1 or a < 0 or b < 0:
        raise ValueError("closed-form jets require nonnegative integer parameters")
    i = order
    common = (
        Fraction(math.factorial(i), 2**i)
        / falling_binomial(a + b, int(b))
        * falling_binomial(n + a + b, int(a))
        * falling_binomial(n + a + b + i, i)
    )
    if point == -1:
        return (-1) ** i * common * falling_binomial(n + b, n - i)
    return (-1) ** n * common * falling_binomial(n + a, n - i)
