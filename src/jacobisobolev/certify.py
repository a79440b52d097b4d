"""Cross-checks of the paper's identities, rebuilt from their definitions.

Nothing on the build path calls this module: `construct` builds q_n and
`diffop` builds D without it. Each check re-derives a result by a route that
shares no code with the construction it certifies.

- `rl_cross_check`: R_l(n) is the Sobolev form B(J_n, b_l) against
  b_l = (1+x)^(l-1) (1-x)^m2 for l <= m1 and (1+x)^m1 (1-x)^(l-m1-1)
  otherwise; it must equal a prefactor times z_l(n).
- `verify_comb_identities`: the second family of combinatorial identities
  (the first, as transcribed, is zero term by term). Each term is a rational
  times 1 / C(alpha+beta-k-l, alpha-k) (or with alpha and beta swapped);
  divided by the common Gamma(alpha+1) Gamma(beta+1) / Gamma(alpha+beta+1)
  it is a ratio of Pochhammer symbols, so every sum is a sum of rationals.
- `p_from_y_tuple` and `degree_of_P_check`: the degree and leading
  coefficient of the normalized Casorati determinant P.
- `gram_orthogonal_oracle`: q_n solved from the moment system of B, the
  ground truth for the existence and the shape of `construct`'s q_n.
- `jet`, `integrate_against_weight` and `endpoint_jet`: the two parts of B
  term by term, and the closed form of the jets of J_n at -1 and +1. The
  integral expands p (1-x)^a (1+x)^b, apart from `sobolev`'s moment recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .construct import ZSystem, _assemble, build_z
from .exactmath import X, Poly, _exact, falling_binomial, pochhammer, theta_poly
from .jacobi import JacobiContext, jacobi_poly
from .sobolev import SobolevConfig, bilinear, bilinear_monomials


def rl_cross_check(cfg: SobolevConfig, l: int, n: int) -> Tuple[Fraction, Fraction]:
    """The pair (B(J_n, b_l), prefactor * z_l(n)); the two must agree."""
    if not 1 <= l <= cfg.m:
        raise ValueError("l out of range")
    a, b, m1 = cfg.alpha, cfg.beta, cfg.m1
    if l <= m1:
        b_l = (X + 1) ** (l - 1) * (1 - X) ** cfg.m2
        prefactor = Fraction(
            math.factorial(b) * math.factorial(n + a),
            math.factorial(a + b) * math.factorial(n + b),
        )
    else:
        b_l = (X + 1) ** m1 * (1 - X) ** (l - m1 - 1)
        prefactor = (-1) ** n * Fraction(math.factorial(b), math.factorial(a + b))
    j_n = jacobi_poly(JacobiContext(Fraction(a), Fraction(b)), n)
    return bilinear(cfg, j_n, b_l), prefactor * build_z(cfg).z[l - 1](n)


def _inverse_binomial(a: Fraction, b: Fraction, k: int, l: int) -> Fraction:
    """1 / C(a+b-k-l, a-k) divided by Gamma(a+1) Gamma(b+1) / Gamma(a+b+1)."""
    return pochhammer(a + b - k - l + 1, k + l) / (pochhammer(a - k + 1, k) * pochhammer(b - l + 1, l))


def verify_comb_identities(alpha: Fraction, beta: Fraction, m1: int, m2: int) -> bool:
    """Check the second family of combinatorial identities exactly.

    Requires alpha, beta and alpha+beta non-integer (the identities' own
    hypothesis); the sum at every k = 1..m1+m2-1 is evaluated and must give 0.
    The first family, as transcribed, is zero term by term: comb(h, m1-l) != 0
    needs l >= m1-h > k, and then C(l-k, l) = 0. So it checks nothing and is
    not run.
    """
    alpha, beta = _exact(alpha), _exact(beta)
    if 1 in (alpha.denominator, beta.denominator, (alpha + beta).denominator):
        raise ValueError("alpha, beta and alpha+beta must be non-integers")
    m = m1 + m2

    def comb(nn: int, kk: int) -> int:
        return math.comb(nn, kk) if 0 <= kk <= nn else 0

    for k in range(1, m):
        total = sum(
            (-1) ** k
            * comb(m - l - 2, m2 - 1)
            * falling_binomial(l - k, l)
            / (beta - l)
            * _inverse_binomial(alpha, beta, k, l)
            for l in range(m1)
        ) + sum(
            comb(m - l - 2, m1 - 1) * falling_binomial(l - k, l) / (alpha - l) * _inverse_binomial(beta, alpha, k, l)
            for l in range(m2)
        )
        if total != 0:
            return False
    return True


def p_from_y_tuple(alpha, beta, m1: int, m2: int, ys: Sequence[Poly]) -> Tuple[Poly, int, Fraction]:
    """The normalized Casorati determinant for an arbitrary Y-tuple.

    Returns (P, d, r) where P is `construct.ZSystem.P` of the system with
    z_l = Y_l(theta_x), d = 2 sum(deg Y) - 2(C(m1,2) + C(m2,2)) is the
    generic degree, and r is the generic leading coefficient: the product of
    the Y leading coefficients times the two Vandermonde determinants of the
    degree tuples.
    """
    a, b = _exact(alpha), _exact(beta)
    if len(ys) != m1 + m2:
        raise ValueError("need one Y polynomial per row")
    theta = theta_poly(a, b)
    return (_assemble(a, b, m1, m2, [y(theta) for y in ys], ys).P,) + _degree_law(m1, ys)


def _degree_law(m1: int, ys: Sequence[Poly]) -> Tuple[int, Fraction]:
    """The generic degree d and leading coefficient r of P (see `p_from_y_tuple`)."""
    degs = [int(y.degree) for y in ys]
    d = 2 * sum(degs) - 2 * (math.comb(m1, 2) + math.comb(len(ys) - m1, 2))
    lead = Fraction(1)
    for y in ys:
        lead *= y.lead
    for block in (degs[:m1], degs[m1:]):
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                lead *= block[j] - block[i]
    return d, lead


def degree_of_P_check(cfg: SobolevConfig, sys: ZSystem) -> bool:
    """Degree law for the system's P: exact when the generic lead is nonzero
    (the block degrees are distinct)."""
    sys.check_config(cfg)
    p = sys.P
    d, lead = _degree_law(cfg.m1, sys.Y)
    if lead == 0:
        return p.degree <= d
    return p.degree == d and p.lead == lead


def gram_orthogonal_oracle(cfg: SobolevConfig, n: int) -> Optional[Poly]:
    """Monic degree-n left-orthogonal polynomial from the moment system.

    Solves B(q_n, x^i) = 0 for i < n with q_n monic, by exact Gauss-Jordan
    elimination. Returns None when the system is singular or the resulting
    norm B(q_n, q_n) vanishes: in either case the orthogonal polynomial does
    not exist.
    """
    columns = [bilinear_monomials(cfg, Poly.monomial(j), n) for j in range(n + 1)]
    rows = [[columns[j][i] for j in range(n)] + [-columns[n][i]] for i in range(n)]
    work, pivots = _reduce(rows, n)
    if len(pivots) < n:
        return None
    q = Poly([row[n] for row in work] + [1])
    return None if bilinear(cfg, q, q) == 0 else q


def _reduce(rows: Sequence[Sequence[Fraction]], ncols: int) -> Tuple[List[List[Fraction]], List[int]]:
    """Gauss-Jordan elimination over the first ncols columns: the reduced rows
    and the pivot columns, the k-th pivot in row k."""
    work = [[Fraction(c) for c in row] for row in rows]
    pivots: List[int] = []
    for col in range(ncols):
        r = len(pivots)
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


def jet(p: Poly, point, k: int) -> Tuple[Fraction, ...]:
    """The vector (p, p', ..., p^(k-1)) evaluated at the point."""
    return tuple([p.derivative(i)(point) for i in range(k)])


def integrate_against_weight(p: Poly, a: int, b: int) -> Fraction:
    """Exact integral of p(x) (1-x)^a (1+x)^b over (-1, 1), as x^k -> 2/(k+1) for even k."""
    integrand = p * (1 - X) ** a * (1 + X) ** b
    total = sum((Fraction(2 * c, k + 1) for k, c in enumerate(integrand.nums) if k % 2 == 0), Fraction(0))
    return total / integrand.den


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
    if a.denominator != 1 or b.denominator != 1:  # an integer one is >= 0 in a JacobiContext
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
