"""Casorati-determinant construction of the Sobolev-orthogonal family.

From a `SobolevConfig` this module builds the sequence functions z_l (as
polynomials in x), reads off each Y_l with z_l(x) = Y_l(theta_x), and builds
the normalizing polynomials p and q, the rho weights, the Casorati determinant
Lambda(n) that certifies existence of the orthogonal polynomial q_n, and
q_n itself as an explicit combination of m+1 consecutive Jacobi polynomials.

The z_l come in two blocks, l <= m1 for the jets at -1 and l > m1 for those
at +1. One routine, `_endpoint_block`, builds the -1 block; the +1 block is
the -1 block of the problem mirrored by x -> -x, which swaps alpha and beta,
m1 and m2, and sends N to ((-1)^(i+k) N[i][k]).

The blocks behind z_l, p, q and the rho entries are products of Pochhammer
symbols (x+c)_k, and (2x+c)_k for q, each one `exactmath.pochhammer` call, with
their signs as scalar factors. Each z_l is one `exactmath._combination` of its
blocks with Fraction weights read off the mass rows, and q_n one of the Jacobi
polynomials with its minor values as weights. Y_l is read from z_l by the
parity test of `exactmath.to_theta_basis`, which also checks that z_l is a
polynomial in theta_x. p and q are checked at n = 0..deg against a scalar
evaluation of their shifted-factorial and sigma forms.

q_n's weights are the maximal minors of one bordered Casorati matrix
[rho^h_{x,r} z_h(x-r)], r = 0..m, minor j without column j. Its columns 1..m
are the polynomial Casorati matrix C, and Lambda(n) = P(n) with P = det C
(minor 0) / (p q), exactness checked. For n >= m the other minors are plain
rationals over the rows evaluated at n; for n < m they may be 0/0 at integer
points, so they are reduced against p q symbolically first. C also gives
`diffop` Omega and the M_h cofactors. The `ZSystem` of a configuration holds
the bordered matrix, C, P, the n < m quotients, Omega and the cofactors as
cached attributes, each built once on first use, and q_n per degree.

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
    NotInvariantError,
    Poly,
    RationalFunction,
    _combination,
    _wrap_rf,
    pochhammer,
    to_theta_basis,
)
from .jacobi import JacobiContext, jacobi_poly
from .sobolev import SobolevConfig


class DegenerateConfigError(ValueError):
    """Lambda(k) vanished for some k in range: no orthogonal family exists."""


class ZSystem(Frozen):
    """The sequence functions and normalizers of one configuration, and the
    Casorati values built from them. The cached attributes and the q_n memo
    are filled on first use, ignored by ==, hash and repr, and start empty
    on a system built from another's fields. A system from `build_z` records
    its configuration in ``config`` and refuses any other (`check_config`)."""

    _fields = ("z", "Y", "p", "q", "rho")
    config = None  # set by `build_z`; a system built by hand takes any configuration

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

    def check_config(self, cfg: SobolevConfig) -> None:
        """Raise ValueError unless cfg is, or equals, the configuration `build_z` built this system for."""
        built = self.config
        if built is not None and built is not cfg and built != cfg:
            raise ValueError(f"a system built for {built!r} was handed {cfg!r}")

    @cached_property
    def bordered(self) -> Tuple[tuple, ...]:
        """bordered[h-1][r] = rho^h_{x,r} z_h(x-r), h = 1..m, r = 0..m: q_n's bordered Casorati
        matrix. Column 0 holds reduced RationalFunctions; columns 1..m are the Polys of C."""
        m = len(self.z)
        return tuple(
            (rho[0] * RationalFunction(z), *(rho[j].as_poly() * z.shift(-j) for j in range(1, m + 1)))
            for rho, z in zip(self.rho, self.z)
        )

    @cached_property
    def C(self) -> Tuple[Tuple[Poly, ...], ...]:
        """C[h-1][j-1] = rho^h_{x,j} z_h(x-j), h, j = 1..m: Lambda's polynomial Casorati matrix,
        the columns 1..m of the bordered matrix."""
        return tuple(row[1:] for row in self.bordered)

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
        minor j leaves column j out of the bordered matrix."""
        pq = RationalFunction(self.p * self.q)
        return tuple(
            _linalg.det([row[:j] + row[j + 1 :] for row in self.bordered]) / pq for j in range(1, len(self.z))
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


def _u_polys(alpha: int, beta: int, lam: int, j: int) -> Poly:
    """The degree-2j building block (x+a-lam+1)_j (x+b+lam-j+1)_j, in x. It is the product
    of the theta_x + (a-lam+i)(b+lam-i+1), i = 1..j, so it and every combination of such
    blocks is a polynomial in theta_x."""
    return pochhammer(X + (alpha - lam + 1), j) * pochhammer(X + (beta + lam - j + 1), j)


def build_p(alpha, beta, m1: int, m2: int) -> Poly:
    """p = prod_{i=1}^{m1-1} (-1)^(m1-i) (x+a-m+1)_{m1-i} (x+b-m1+i)_{m1-i}, checked at
    n = 0..deg p against the shifted factorials (-1)^j (n-m2-i-j+a+1)_j (n-j+b)_j, j = m1-i."""
    m = m1 + m2
    p = (-1) ** math.comb(m1, 2) * math.prod(
        (pochhammer(X + (alpha - m + 1), m1 - i) * pochhammer(X + (beta - m1 + i), m1 - i) for i in range(1, m1)),
        start=ONE,
    )

    def at(n: int) -> Fraction:
        value = 1
        for i in range(1, m1):
            j = m1 - i
            value *= (-1) ** j * pochhammer(n - m2 - i - j + alpha + 1, j) * pochhammer(n - j + beta, j)
        return value

    degree = m1 * (m1 - 1)
    if p.degree != degree or any(p(n) != at(n) for n in range(degree + 1)):
        raise IdentityCheckFailed("build_z", "p equals its shifted-factorial form at n = 0..deg p")
    return p


def build_q(alpha, beta, m: int) -> Poly:
    """q = (-1)^C(m,2) prod_{h=1}^{m-1} prod_{i=1}^h (2x+a+b-2m+i+h), checked at n = 0..deg q
    against the sigma form prod sigma_{n-m+(i+h+1)/2}, sigma_y = 2y+a+b-1. The inner product
    over i is (2x+a+b-2m+h+1)_h."""
    s = alpha + beta
    sign = (-1) ** math.comb(m, 2)
    q = sign * math.prod((pochhammer(2 * X + (s - 2 * m + h + 1), h) for h in range(1, m)), start=ONE)

    def at(n: int) -> Fraction:
        value = sign
        for h in range(1, m):
            for i in range(1, h + 1):
                two_y = 2 * (n - m) + i + h + 1  # sigma_y = 2y + a + b - 1
                value *= two_y + s - 1
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
    first = [RationalFunction((-1) ** m * pochhammer(X + (a - m + 1), m), X + b)]
    for j in range(1, m + 1):
        entry = (-1) ** (m - j) * pochhammer(X + (a - m + 1), m - j) * pochhammer(X + (b - j + 1), j - 1)
        first.append(_wrap_rf(entry, ONE))
    ones = (RationalFunction(ONE),) * (m + 1)
    return (tuple(first),) * m1 + (ones,) * (m - m1)


def _assemble(alpha, beta, m1: int, m2: int, zs, ys) -> ZSystem:
    """The ZSystem of the z_l and Y_l with the p, q and rho of (alpha, beta, m1, m2)."""
    p, q = build_p(alpha, beta, m1, m2), build_q(alpha, beta, m1 + m2)
    return ZSystem(z=tuple(zs), Y=tuple(ys), p=p, q=q, rho=rho_table(alpha, beta, m1, m1 + m2))


_ZSYS_CACHE: Dict[SobolevConfig, ZSystem] = {}


def _endpoint_block(alpha: int, beta: int, m1: int, m2: int, masses) -> List[Poly]:
    """z_l, l = 1..m1: the rows of the m1 jets at -1 against the mass matrix;
    called on the mirrored problem, the rows of the jets at +1.

    z_l = front_l u(alpha, m1-l) + sum_i w_li u(0, beta+i), with u(lam, j) the `_u_polys`
    block, front_l = 2^(alpha+beta-m1+l) (beta-m1+l-1)! / (m1-l)! and
    w_li = 2^m2 sum_j C(m2, j-l) (j-1)! M[i][j-1] / ((-2)^(i+j-l) (beta+i)!), j = l..min(l+m2, m1),
    each weight a Fraction. The lam = 0 blocks do not depend on l and are built once."""
    weights = [
        [
            sum(
                Fraction(math.comb(m2, j - l) * math.factorial(j - 1) * 2**m2, (-2) ** (i + j - l)) * row[j - 1]
                for j in range(l, min(l + m2, m1) + 1)
            )
            / math.factorial(beta + i)
            for i, row in enumerate(masses)
        ]
        for l in range(1, m1 + 1)
    ]
    shared = [_u_polys(alpha, beta, 0, beta + i) if any(row[i] for row in weights) else None for i in range(m1)]
    zs: List[Poly] = []
    for l, row in enumerate(weights, 1):
        front = Fraction(2 ** (alpha + beta - m1 + l) * math.factorial(beta - m1 + l - 1), math.factorial(m1 - l))
        terms = [(front, _u_polys(alpha, beta, alpha, m1 - l))]
        zs.append(_combination(terms + [(w, u) for w, u in zip(row, shared) if w]))
    return zs


def build_z(cfg: SobolevConfig) -> ZSystem:
    """Assemble z_l, Y_l, p, q and the rho table for a configuration, recorded on the
    system as its ``config``. Each Y_l is read off z_l by the parity test of
    `to_theta_basis`, which raises unless z_l is a polynomial in theta_x."""
    cached = _ZSYS_CACHE.get(cfg)
    if cached is not None:
        return cached
    m1, m2 = cfg.m1, cfg.m2
    mirrored = [[(-1) ** (i + k) * c for k, c in enumerate(row)] for i, row in enumerate(cfg.N)]
    zs = _endpoint_block(cfg.alpha, cfg.beta, m1, m2, cfg.M) + _endpoint_block(cfg.beta, cfg.alpha, m2, m1, mirrored)
    try:
        ys = [to_theta_basis(z, cfg.alpha, cfg.beta) for z in zs]
    except NotInvariantError as exc:
        raise IdentityCheckFailed("build_z", "z_l is a polynomial in theta_x") from exc
    system = _assemble(cfg.alpha, cfg.beta, m1, m2, zs, ys)
    object.__setattr__(system, "config", cfg)
    _ZSYS_CACHE[cfg] = system
    return system


def casorati_lambda(sys: ZSystem, cfg: SobolevConfig, n: int) -> Fraction:
    """Lambda(n) = det(rho^h_{n,j} z_h(n-j)) / (p(n) q(n)) = P(n), exactly.

    Nonvanishing of Lambda(0..n) is equivalent to existence of the
    orthogonal polynomials q_0..q_n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    sys.check_config(cfg)
    return sys.P(n)


def sobolev_poly(sys: ZSystem, cfg: SobolevConfig, n: int) -> Poly:
    """q_n = sum_j (minor j quotient) J_(n-j), from the bordered determinant: one `_combination`."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    sys.check_config(cfg)
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
        rows = [[entry(n) for entry in row] for row in sys.bordered]
        values += [_linalg.det([row[:j] + row[j + 1 :] for row in rows]) / pq for j in range(1, m + 1)]
    else:
        for j in range(1, n + 1):  # a minor j > n would multiply the zero polynomial
            try:
                values.append(sys.quotients[j - 1](n))
            except ZeroDivisionError as exc:
                what = f"the reduced minor {j} quotient is regular at n={n}"
                raise IdentityCheckFailed("sobolev_poly", what) from exc
    result = _combination([(v, jacobi_poly(ctx, n - j)) for j, v in enumerate(values) if v])
    if result.degree != n:
        raise IdentityCheckFailed("sobolev_poly", f"deg q_{n} = {n}")
    sys.q_polys[n] = result
    return result
