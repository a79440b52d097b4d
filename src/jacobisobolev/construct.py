"""Casorati-determinant construction of the Sobolev-orthogonal family.

From a `SobolevConfig` this module builds the sequence functions z_l (as
polynomials in x) together with their theta-basis counterparts Y_l, the
normalizing polynomials p and q, the rho weights, the Casorati determinant
Lambda(n) that certifies existence of the orthogonal polynomial q_n, and
q_n itself as an explicit combination of m+1 consecutive Jacobi polynomials.

The z_l come in two blocks, l <= m1 for the jets at -1 and l > m1 for those
at +1. One routine, `_endpoint_block`, builds the -1 block; the +1 block is
the -1 block of the problem mirrored by x -> -x, which swaps alpha and beta,
m1 and m2, and sends N to ((-1)^(i+k) N[i][k]).

With alpha and beta integers, every factor of the Pochhammer blocks behind
z_l and Y_l, and of p, q and the rho entries, is a linear polynomial with an
int constant. Each of these products is one int-list product
(`exactmath._int_product`), and each z_l and Y_l is one int combination of
its blocks over the lcm of its weights' denominators; the weights are int
pairs read off the mass rows. p and q are checked at n = 0..deg against a
scalar evaluation of their shifted-factorial and sigma forms.

Lambda(n) = P(n) for one polynomial P per configuration: the determinant of
the polynomial Casorati matrix C divided by p(x) q(x), exactness checked. P
is also q_n's j = 0 minor. Its other minors are plain rationals for n >= m;
for n < m they may be 0/0 at integer points, so they are reduced against
p(x) q(x) symbolically first. C also gives `diffop` Omega and the M_h
cofactors: all of them come from one Casorati matrix.

The `ZSystem` of a configuration owns every value derived from it. C, P, the
n < m minor quotients (which do not depend on n), Omega and the M_h cofactors
are cached attributes, each built once on first use; q_n is held per degree.

This module holds only what the CLI commands run; the cross-checks of the
paper's identities (the R_l integral route, the combinatorial families and the
degree law of P) are in `certify`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Tuple

from . import _linalg
from .exactmath import (
    ONE,
    X,
    Frozen,
    IdentityCheckFailed,
    Poly,
    RationalFunction,
    _exact,
    _int_product,
    _num_den,
    _wrap_rf,
    pochhammer,
    theta_poly,
)
from .jacobi import JacobiContext, jacobi_poly
from .sobolev import SobolevConfig


class DegenerateConfigError(ValueError):
    """Lambda(k) vanished for some k in range: no orthogonal family exists."""


class ZSystem(Frozen):
    """The sequence functions and normalizers of one configuration, and the
    Casorati values built from them. The cached attributes and the q_n memo
    are filled on first use, ignored by ==, hash and repr, and start empty
    on a system built from another's fields."""

    _fields = ("z", "Y", "p", "q", "rho")

    def __init__(
        self,
        z: Tuple[Poly, ...],  # z_l as polynomials in x, l = 1..m
        Y: Tuple[Poly, ...],  # the same functions as polynomials in theta
        p: Poly,
        q: Poly,
        rho: Tuple[Tuple[RationalFunction, ...], ...],  # rho[h-1][j], j = 0..m
    ):
        for name, value in zip(self._fields, (z, Y, p, q, rho)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "q_polys", {})  # q_n by degree, filled by `sobolev_poly`

    @cached_property
    def C(self) -> Tuple[Tuple[Poly, ...], ...]:
        """C[h-1][j-1] = rho^h_{x,j} z_h(x-j), h, j = 1..m: Lambda's polynomial Casorati matrix."""
        m = len(self.z)
        return tuple(tuple(self.rho[h][j].as_poly() * self.z[h].shift(-j) for j in range(1, m + 1)) for h in range(m))

    @cached_property
    def P(self) -> Poly:
        """P = det C / (p q), exactly."""
        quotient, rem = divmod(_linalg.det(self.C), self.p * self.q)
        if not rem.is_zero:
            raise IdentityCheckFailed("casorati_lambda", "p q divides the Casorati determinant")
        return quotient

    @cached_property
    def quotients(self) -> Tuple[RationalFunction, ...]:
        """quotients[j-1] = minor j / (p q), j = 1..m-1: q_n's minors for n < m, where
        minor j leaves column j out of [rho^h_{x,r} z_h(x-r)], r = 0..m, whose columns 1..m are C."""
        m = len(self.z)
        first = [rho[0] * RationalFunction(z) for rho, z in zip(self.rho, self.z)]
        entries = [[f, *map(RationalFunction, row)] for f, row in zip(first, self.C)]
        pq = RationalFunction(self.p * self.q)
        return tuple(
            _linalg.det([[row[r] for r in range(m + 1) if r != j] for row in entries]) / pq for j in range(1, m)
        )

    @cached_property
    def clearing(self) -> Poly:
        """n2^m1 with n2 = (x+beta-m+1)_{m-1}, the product of the rho^h_{x,m}: for h <= m1,
        rho^h_{x,j} = xi^h_{x-j,m-j} n2(x), where xi^h_{x,j} = (-1)^j (x-j+alpha+1)_j /
        (x-j+beta+1)_j, and rho^h_{x,m} = n2(x); for h > m1 both are 1."""
        return math.prod((row[-1].as_poly() for row in self.rho), start=ONE)

    @cached_property
    def omega(self) -> RationalFunction:
        """Omega = det E, E[l][r] = xi^l_{x-r, m-r} z_l(x-r), l, r = 1..m. E is C with its
        first m1 rows divided by n2, so Omega = det C / n2^m1 = P p q / n2^m1."""
        return RationalFunction(self.P * self.p * self.q, self.clearing)

    @cached_property
    def cofactors(self) -> Tuple[Tuple[Poly, ...], ...]:
        """cofactors[h-1][j-1] = [(-1)^(h+j) rho^h_{x,j} C_hj](x+j), h, j = 1..m, with C_hj
        the (h, j) minor of C: one maximal-minors pass per left-out row.

        With E_hj = C_hj / n2^(m1-[h<=m1]) the minors of E, and xi^h_{x,m-j} =
        rho^h_{x+j,j} / n2(x+j) for h <= m1, the M_h of `diffop.build_bundle` are
        M_h = sum_j (-1)^(h+j) xi^h_{x,m-j} S(x+j) E_hj(x+j)
            = sum_j (S / n2^m1)(x+j) cofactors[h-1][j-1]."""
        C, m = self.C, len(self.z)
        minors = [_linalg.maximal_minors(C[:h] + C[h + 1 :]) for h in range(m)]
        return tuple(
            tuple(((-1) ** (h + j) * self.rho[h][j + 1].as_poly() * minors[h][j]).shift(j + 1) for j in range(m))
            for h in range(m)
        )


def _scalar(value):
    """An exact scalar as an int when it is integral, else as a Fraction; a float is refused."""
    value = _exact(value)
    return value.numerator if value.denominator == 1 else value


def _linear_product(constants, lead: int = 1, sign: int = 1) -> Poly:
    """sign * prod (lead x + c) over the rational constants c: for c = u/v the
    factor is (lead v x + u) / v, so the product is one int-list product."""
    factors, den = [], sign
    for c in constants:
        u, v = _num_den(c)
        factors.append([u, lead * v])
        den *= v
    return _int_product(factors, den)


def _combination(terms) -> Poly:
    """sum n u / d over the (n, d, u) triples of ints n and d > 0 and Polys u: one
    int linear combination over the lcm of the d u.den."""
    den = math.lcm(*[d * u.den for _, d, u in terms])
    acc = [0] * max(len(u.nums) for _, _, u in terms)
    for n, d, u in terms:
        k = n * (den // (d * u.den))
        for i, c in enumerate(u.nums):
            acc[i] += k * c
    return Poly._from_ints(acc, den)


def _u_polys(alpha: int, beta: int, lam: int, j: int) -> Tuple[Poly, Poly]:
    """The degree-2j building block (x+a-lam+1)_j (x+b+lam-j+1)_j.

    Returns the polynomial both in x and in theta; the theta form follows
    from the factorization into factors (a-lam+i)(b+lam-i+1) + theta_x.
    """
    u_x = _linear_product([alpha - lam + 1 + k for k in range(j)] + [beta + lam - j + 1 + k for k in range(j)])
    u_t = _linear_product([(alpha - lam + i) * (beta + lam - i + 1) for i in range(1, j + 1)])
    return u_x, u_t


def build_p(alpha, beta, m1: int, m2: int) -> Poly:
    """p = prod_{i=1}^{m1-1} (-1)^(m1-i) (x+a-m+1)_{m1-i} (x+b-m1+i)_{m1-i}, checked at
    n = 0..deg p against the shifted factorials (-1)^j (n-m2-i-j+a+1)_j (n-j+b)_j, j = m1-i."""
    a, b, m = _scalar(alpha), _scalar(beta), m1 + m2
    p = _linear_product(
        [c + k for i in range(1, m1) for c in (a - m + 1, b - m1 + i) for k in range(m1 - i)],
        sign=(-1) ** math.comb(m1, 2),
    )

    def at(n: int) -> Fraction:
        value = 1
        for i in range(1, m1):
            j = m1 - i
            value *= (-1) ** j * pochhammer(n - m2 - i - j + a + 1, j) * pochhammer(n - j + b, j)
        return value

    degree = m1 * (m1 - 1)
    if p.degree != degree or any(p(n) != at(n) for n in range(degree + 1)):
        raise IdentityCheckFailed("build_z", "p equals its shifted-factorial form at n = 0..deg p")
    return p


def build_q(alpha, beta, m: int) -> Poly:
    """q = (-1)^C(m,2) prod_{h=1}^{m-1} prod_{i=1}^h (2x+a+b-2m+i+h), checked at n = 0..deg q
    against the sigma form prod sigma_{n-m+(i+h+1)/2}, sigma_y = 2y+a+b-1."""
    a, b = _scalar(alpha), _scalar(beta)
    sign = (-1) ** math.comb(m, 2)
    q = _linear_product([a + b - 2 * m + i + h for h in range(1, m) for i in range(1, h + 1)], lead=2, sign=sign)

    def at(n: int) -> Fraction:
        value = sign
        for h in range(1, m):
            for i in range(1, h + 1):
                two_y = 2 * (n - m) + i + h + 1  # sigma_y = 2y + a + b - 1
                value *= two_y + a + b - 1
        return value

    degree = math.comb(m, 2)
    if q.degree != degree or any(q(n) != at(n) for n in range(degree + 1)):
        raise IdentityCheckFailed("build_z", "q equals its sigma form at n = 0..deg q")
    return q


def rho_table(a, b, m1: int, m: int) -> Tuple[Tuple[RationalFunction, ...], ...]:
    """rho[h-1][j], j = 0..m: 1 if h > m1, else the Gamma ratio
    (-1)^(m-j) Gamma(x+a-j+1) Gamma(x+b) / (Gamma(x+a-m+1) Gamma(x+b-j+1)), which telescopes
    to (-1)^(m-j) (x+a-m+1)_{m-j} (x+b-j+1)_{j-1} for j >= 1 and (-1)^m (x+a-m+1)_m / (x+b).
    Only the j = 0 entry has a denominator to reduce; the others are polynomials."""
    a, b = _scalar(a), _scalar(b)
    first = [RationalFunction(_linear_product([a - m + 1 + k for k in range(m)], sign=(-1) ** m), X + b)]
    for j in range(1, m + 1):
        constants = [a - m + 1 + k for k in range(m - j)] + [b - j + 1 + k for k in range(j - 1)]
        first.append(_wrap_rf(_linear_product(constants, sign=(-1) ** (m - j)), ONE))
    ones = (RationalFunction(ONE),) * (m + 1)
    return (tuple(first),) * m1 + (ones,) * (m - m1)


_ZSYS_CACHE: Dict[SobolevConfig, ZSystem] = {}


def _endpoint_block(alpha: int, beta: int, m1: int, m2: int, masses) -> Tuple[List[Poly], List[Poly]]:
    """z_l and Y_l, l = 1..m1: the rows of the m1 jets at -1 against the mass matrix;
    called on the mirrored problem, the rows of the jets at +1.

    z_l = front_l u(alpha, m1-l) + sum_i w_li u(0, beta+i), with u(lam, j) the `_u_polys`
    block, front_l = 2^(alpha+beta-m1+l) (beta-m1+l-1)! / (m1-l)! and
    w_li = 2^m2 sum_j C(m2, j-l) (j-1)! M[i][j-1] / ((-2)^(i+j-l) (beta+i)!), j = l..min(l+m2, m1).
    Each weight is an int pair, mass row i read as ints r_ik over their lcm L_i:
    (-2)^-(i+j-l) = (-1)^(i+j-l) 2^(m1-j) / 2^(i+m1-l). The lam = 0 blocks do not
    depend on l and are built once."""
    rows = []
    for masses_i in masses:
        lcm = math.lcm(*[c.denominator for c in masses_i])
        rows.append(([c.numerator * (lcm // c.denominator) for c in masses_i], lcm))
    weights = []
    for l in range(1, m1 + 1):
        row = []
        for i, (r, lcm) in enumerate(rows):
            total = sum(
                math.comb(m2, j - l) * math.factorial(j - 1) * (-1) ** (i + j - l) * 2 ** (m1 - j) * r[j - 1]
                for j in range(l, min(l + m2, m1) + 1)
            )
            row.append((2**m2 * total, lcm * 2 ** (i + m1 - l) * math.factorial(beta + i)))
        weights.append(row)
    shared = [_u_polys(alpha, beta, 0, beta + i) if any(row[i][0] for row in weights) else None for i in range(m1)]
    zs: List[Poly] = []
    ys: List[Poly] = []
    for l, row in enumerate(weights, 1):
        front = 2 ** (alpha + beta - m1 + l) * math.factorial(beta - m1 + l - 1), math.factorial(m1 - l)
        terms = [(front, _u_polys(alpha, beta, alpha, m1 - l))]
        terms += [(w, u) for w, u in zip(row, shared) if w[0]]
        zs.append(_combination([(n, d, u_x) for (n, d), (u_x, _) in terms]))
        ys.append(_combination([(n, d, u_t) for (n, d), (_, u_t) in terms]))
    return zs, ys


def build_z(cfg: SobolevConfig) -> ZSystem:
    """Assemble z_l, Y_l, p, q and the rho table for a configuration."""
    cached = _ZSYS_CACHE.get(cfg)
    if cached is not None:
        return cached
    m1, m2, m = cfg.m1, cfg.m2, cfg.m
    mirrored = [[(-1) ** (i + k) * c for k, c in enumerate(row)] for i, row in enumerate(cfg.N)]
    zs, ys = _endpoint_block(cfg.alpha, cfg.beta, m1, m2, cfg.M)
    z_plus, y_plus = _endpoint_block(cfg.beta, cfg.alpha, m2, m1, mirrored)
    zs, ys = zs + z_plus, ys + y_plus
    theta = theta_poly(cfg.alpha, cfg.beta)
    for z, y in zip(zs, ys):
        if y(theta) != z:
            raise IdentityCheckFailed("build_z", "the theta-basis form Y_l(theta_x) = z_l(x)")
    system = ZSystem(
        z=tuple(zs),
        Y=tuple(ys),
        p=build_p(cfg.alpha, cfg.beta, m1, m2),
        q=build_q(cfg.alpha, cfg.beta, m),
        rho=rho_table(cfg.alpha, cfg.beta, m1, m),
    )
    _ZSYS_CACHE[cfg] = system
    return system


def casorati_lambda(sys: ZSystem, cfg: SobolevConfig, n: int) -> Fraction:
    """Lambda(n) = det(rho^h_{n,j} z_h(n-j)) / (p(n) q(n)) = P(n), exactly.

    Nonvanishing of Lambda(0..n) is equivalent to existence of the
    orthogonal polynomials q_0..q_n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sys.P(n)


def sobolev_poly(sys: ZSystem, cfg: SobolevConfig, n: int) -> Poly:
    """The degree-n Sobolev-orthogonal polynomial from the bordered determinant."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    cached = sys.q_polys.get(n)
    if cached is not None:
        return cached
    # q_{n-1} is held only once Lambda(0..n-1) were found nonzero
    for k in range(n if n - 1 in sys.q_polys else 0, n + 1):
        lam = casorati_lambda(sys, cfg, k)
        if lam == 0:
            raise DegenerateConfigError(f"Lambda({k}) = 0")
    ctx = JacobiContext(Fraction(cfg.alpha), Fraction(cfg.beta))
    m = cfg.m
    values = [lam]  # the j = 0 minor quotient is P
    if n >= m:
        pq = sys.p(n) * sys.q(n)  # every root of p and of q is below m
        # column j >= 1 is C[h][j-1](n) = rho^h_{n,j} z_h(n-j)
        rows = [[sys.rho[h][0](n) * sys.z[h](n)] + [c(n) for c in sys.C[h]] for h in range(m)]
        values += [
            _linalg.det([[row[r] for r in range(m + 1) if r != j] for row in rows]) / pq
            for j in range(1, m + 1)
        ]
    else:
        for j in range(1, n + 1):  # a minor j > n would multiply the zero polynomial
            try:
                values.append(sys.quotients[j - 1](n))
            except ZeroDivisionError as exc:
                what = f"the reduced minor {j} quotient is regular at n={n}"
                raise IdentityCheckFailed("sobolev_poly", what) from exc
    result = Poly()
    for j, value in enumerate(values):
        if value != 0:
            result = result + value * jacobi_poly(ctx, n - j)
    if result.degree != n:
        raise IdentityCheckFailed("sobolev_poly", f"deg q_{n} = {n}")
    sys.q_polys[n] = result
    return result
