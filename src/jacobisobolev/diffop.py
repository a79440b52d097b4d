"""Differential operators with polynomial coefficients, and the eigenoperator.

The working algebra is the set of operators sum_j a_j(x) d^j/dx^j whose
coefficient a_j has degree at most j: exactly the operators that never raise
the degree of a polynomial. The classical Jacobi operator, the two
first-order companions D1 and D2, and the assembled higher-order operator
for the Sobolev-orthogonal family all live there.

`build_bundle` runs the full pipeline: from a rational function S it forms
Omega, S*Omega, the M_h and their theta-quotients, the discrete primitive
lambda_x, and the eigenvalue polynomial P_S, verifying at each step the
three structural assumptions (S*Omega polynomial; M_h divisible by
sigma_{x+1} with theta-polynomial quotient; 2 lambda + sum Y_h M_h a
polynomial in theta). The last two are reflection symmetries, skew and
invariant under x -> -(x+s+1); each is read once from the parity of the
polynomial in y = x + (s+1)/2 (`exactmath.to_theta_basis`,
`exactmath.divide_skew_by_sigma`). The final operator is

    D = 1/2 P_S(D_cl) + sum_h MhTilde_h(D_cl) D_h Y_h(D_cl)

with D_cl the classical second-order operator.

Omega, the M_h cofactors and the row clearing n2^m1, n2 = (x+beta-m+1)_{m-1}, are
read from the configuration's `construct.ZSystem`, which builds them from Lambda's
polynomial Casorati matrix C: Omega's entry matrix E is C with its first m1 rows
divided by n2, so Omega = P p q / n2^m1 and each minor of E is a minor of C over a
power of n2: no det runs on rational functions. Each M_h sums its m terms as packed
ints over one multiple of their shifted denominators.

Operators are applied, composed and evaluated at polynomials by one integer kernel
on each operator's images of x^t (d^j x^t = t!/(t-j)! x^(t-j)), built once per
product as ints over one common denominator and held as a band of diagonals from the
lowest degree an image reaches. a.b takes the image of x^k as sum_t b(x^k)_t a(x^t)
over b's nonzero diagonals, and p(d) runs Horner's rule on d's band, each step along
whole diagonals. A product of any number of factors is recovered once, from its
images of x^k up to its order bound: with a_j = c_j / (den j!) the image of x^k is
sum_j C(k, j) c_j x^(k-j) / den, a triangular system whose solution c_j is again a
list of ints. None of this assumes that the operators lie in the algebra: a
degree-raising operator's band reaches above its diagonal.

The degree law of the Casorati polynomial P, which no command runs, is
checked in `certify`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .construct import sobolev_poly
from .exactmath import (
    NEG_INFINITY,
    ONE,
    ZERO,
    Frozen,
    IdentityCheckFailed,
    NotInvariantError,
    NotSkewError,
    Poly,
    RationalFunction,
    _exact,
    _pack,
    _unpack,
    anti_difference,
    divide_skew_by_sigma,
    theta_poly,
    to_theta_basis,
)
from .jacobi import JacobiContext


# the three structural assumptions, in the order that build_bundle checks them
ASSUMPTIONS = ("s_omega_polynomial", "sigma_factorization", "eigenvalue_generator")


class AssumptionFailed(ValueError):
    """One of the three structural assumptions failed for the supplied S."""

    def __init__(self, which: str, detail: str = ""):
        if which not in ASSUMPTIONS:
            raise ValueError(f"unknown assumption {which!r}")
        super().__init__(f"assumption {which} failed" + (f": {detail}" if detail else ""))
        self.which = which


class EigenMismatch(ValueError):
    """D(q_n) was not the expected multiple of q_n."""

    def __init__(self, n: int, residual: Poly):
        super().__init__(f"eigen equation failed at n={n}")
        self.n = n
        self.residual = residual


class DiffOp(Frozen):
    """sum_j coeffs[j](x) d^j/dx^j with exact polynomial coefficients."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [c if isinstance(c, Poly) else Poly.constant(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls([ONE])

    @property
    def order(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def in_algebra(self) -> bool:
        """Degree-nonincreasing: the j-th coefficient has degree at most j."""
        return all(c.degree <= j for j, c in enumerate(self.coeffs))

    def coeff(self, j: int) -> Poly:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return ZERO

    def apply(self, p: Poly) -> Poly:
        rows, den = _scaled_rows(self.coeffs)
        return _apply_band(_band(rows, len(p.nums)), den, p)

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp([self.coeff(j) + other.coeff(j) for j in range(n)])

    def __neg__(self) -> "DiffOp":
        return DiffOp([-c for c in self.coeffs])

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other) if isinstance(other, DiffOp) else NotImplemented

    def __mul__(self, scalar) -> "DiffOp":
        if isinstance(scalar, (Poly, DiffOp)):
            raise TypeError("DiffOp * takes an exact scalar; use compose for a product with an operator")
        value = _exact(scalar)
        return DiffOp([c * value for c in self.coeffs])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DiffOp({list(self.coeffs)!r})"

    def to_json(self) -> dict:
        return {
            "order": None if not self.coeffs else len(self.coeffs) - 1,
            "coeffs": [p.to_json() for p in self.coeffs],
        }


def _scaled_rows(polys: Sequence[Poly]):
    """The polynomials as int lists over one common denominator."""
    den = math.lcm(*[p.den for p in polys])
    return [[c * (den // p.den) for c in p.nums] for p in polys], den


def _band(rows: list, count: int):
    """The images of x^t, t < count, under the operator with int rows `rows`.

    The coefficient c of x^i in rows[j] puts c t!/(t-j)! on x^(t+i-j). The band
    is a pair (low, diags), low <= 0 < low + len(diags): diags[f][t] is the
    coefficient of x^(t+low+f) in the image of x^t, zero below degree 0.
    """
    shifts = [i - j for j, row in enumerate(rows[:count]) for i, c in enumerate(row) if c] + [0]
    low = min(shifts)
    diags = [[0] * count for _ in range(max(shifts) - low + 1)]
    falling = [1] * count  # t!/(t-j)!
    for j, row in enumerate(rows[:count]):
        for i, c in enumerate(row):
            if c:
                diags[i - j - low] = list(map(add, diags[i - j - low], map(c.__mul__, falling)))
        falling = [f * (t - j) for t, f in enumerate(falling)]
    return low, diags


def _apply_band(band, den: int, p: Poly) -> Poly:
    """The image of p under the operator whose band over den has at least
    len(p.nums) columns: sum_t p_t (x^t's image)."""
    low, diags = band
    n = len(p.nums)
    out = [0] * (n + len(diags) - 1)
    for f, g in enumerate(diags):
        out[f : f + n] = map(add, out[f : f + n], map(mul, g, p.nums))
    return Poly._from_ints(out[-low:], den * p.den)


def _product(a, b, count: int):
    """The band of a.b on x^k, k < count. b's diagonal e carries x^k to x^(k+shift) and
    a's column k+shift takes it on, so a's band needs count plus b's top shift columns."""
    (la, A), (lb, B) = a, b
    out = [[0] * count for _ in range(len(A) + len(B) - 1)]
    for e, col in enumerate(B):
        if not any(col):
            continue
        shift, k0 = lb + e, max(0, -lb - e)
        for i, g in enumerate(A):
            r = out[e + i]
            r[k0:] = map(add, r[k0:], map(mul, g[k0 + shift : count + shift], col[k0:]))
    return la + lb, out


def _from_images(low: int, diags: list, den: int) -> DiffOp:
    """The operator whose image of x^k is column k of the band (low, diags) over den.

    With a_j = c_j / (den j!), the image of x^k is sum_{j<=k} C(k, j) c_j x^(k-j);
    each c_k is that image less the terms of the c_j already found.
    """
    found: List[list] = []
    for k, image in enumerate(zip(*diags)):
        c = [0] * (k + low) + list(image[max(0, -k - low) :])
        for j, cj in enumerate(found):
            if cj:
                b = math.comb(k, j)
                c.extend([0] * (k - j + len(cj) - len(c)))
                for t, v in enumerate(cj, k - j):
                    c[t] -= b * v
        while c and not c[-1]:
            c.pop()
        found.append(c)
    return DiffOp([Poly._from_ints(c, den * math.factorial(k)) for k, c in enumerate(found)])


def compose(a: DiffOp, b: DiffOp, *more: DiffOp) -> DiffOp:
    """Operator product a . b . ..., so (a.b)(p) = a(b(p)), of two or more factors: the images
    of x^k, k <= the sum of the orders, are built right to left, each factor's band on as many
    columns as the product so far reaches, and the product is recovered from them once."""
    factors = [_scaled_rows(f.coeffs) for f in (a, b, *more)]
    if not all(rows for rows, _ in factors):
        return DiffOp()
    count = sum(len(rows) - 1 for rows, _ in factors) + 1
    band = _band(factors[-1][0], count)
    for rows, _ in reversed(factors[:-1]):
        band = _product(_band(rows, count + band[0] + len(band[1]) - 1), band, count)
    return _from_images(*band, math.prod([den for _, den in factors]))


def op_poly(p: Poly, d: DiffOp) -> DiffOp:
    """Evaluate a polynomial at an operator.

    The images p(d)(x^k), k <= deg p * ord d, come from Horner's rule on d's
    band, which reaches deg p * rise columns further when d raises degrees by
    up to rise. After i steps the accumulator is over the denominator dp * dd^i.
    """
    if p.is_zero:
        return DiffOp()
    rows, dd = _scaled_rows(d.coeffs)
    cs, dp = p.nums, p.den
    count = (len(cs) - 1) * max(len(rows) - 1, 0) + 1
    rise = max([len(row) - 1 - j for j, row in enumerate(rows) if row] + [0])
    band = _band(rows, count + (len(cs) - 1) * rise)
    low, acc = 0, [[cs[-1]] * count]
    scale = 1
    for c in reversed(cs[:-1]):
        scale *= dd
        low, acc = _product(band, (low, acc), count)
        if c:
            acc[-low] = [v + c * scale for v in acc[-low]]
    return _from_images(low, acc, dp * dd ** (len(cs) - 1))


def d_operators(ctx, m1: int, m2: int) -> List[DiffOp]:
    """m1 copies of D1 = -(a+b+1)/2 I + (1-x) d/dx, then m2 of D2 (mirrored)."""
    a, b = ctx.alpha, ctx.beta
    half = (a + b + 1) / 2
    d1 = DiffOp([Poly.constant(-half), Poly([1, -1])])
    d2 = DiffOp([Poly.constant(half), Poly([1, 1])])
    return [d1] * m1 + [d2] * m2


def classical_operator(ctx: JacobiContext) -> DiffOp:
    """The second-order operator with jacobi_poly(ctx, n) as eigenfunctions."""
    a, b = ctx.alpha, ctx.beta
    return DiffOp([ZERO, Poly([a - b, a + b + 2]), Poly([-1, 0, 1])])


class OperatorBundle(NamedTuple):
    """Everything produced by one run of the operator pipeline."""

    S: RationalFunction
    Omega: RationalFunction
    SOmega: Poly
    Mh: Tuple[Poly, ...]
    MhTilde: Tuple[Poly, ...]  # polynomials in theta
    lam: Poly  # discrete primitive of S*Omega
    PS: Poly  # eigenvalue polynomial, in theta
    D: DiffOp


def _omega(cfg, sys) -> RationalFunction:
    """Omega = det E = P p q / n2^m1, held on the system (see `construct.ZSystem.omega`)."""
    sys.check_config(cfg)
    return sys.omega


def default_s(cfg, sys) -> RationalFunction:
    """sigma_{x-(m-1)/2} Xi(x) ((x+beta-m+1)_{m-1})^m1 / (p(x) q(x))."""
    sys.check_config(cfg)
    a, b, m = Fraction(cfg.alpha), Fraction(cfg.beta), cfg.m
    sigma = Poly([a + b - m, 2])  # 2x + a + b - m
    return RationalFunction(sigma * cfg.xi * sys.clearing, sys.p * sys.q)


def _shift_multiple(q: Poly, m: int) -> Poly:
    """A multiple of q(x+1), ..., q(x+m), maybe above their lcm, from one gcd G = gcd(q(x+1), q):
    gcd(q(x+j), q(x+j-1)) = G(x+j-1), so with E = q(x+1) / G each q(x+j) divides q(x+1) E(x+1)...E(x+j-1)."""
    first = q.shift(1)
    step = first.div_exact(first.gcd(q))
    return math.prod([step.shift(j - 1) for j in range(2, m + 1)], start=first)


def _packed_sums(us: Sequence[Poly], rows: Sequence[Sequence[Poly]]) -> List[Poly]:
    """sum_j us[j] row[j] for each row, one int product per term (`exactmath._pack`): over ints each
    coefficient of a sum is at most sum_j |u_j|_1 |c_j|_1, and B is one bit past the largest."""
    (ints, du), scaled = _scaled_rows(us), [_scaled_rows(row) for row in rows]
    norms = [sum(map(abs, u)) for u in ints]
    bits = max(sum(map(mul, norms, [sum(map(abs, c)) for c in cs])) for cs, _ in scaled).bit_length() + 1
    packed = [_pack(u, bits) for u in ints]
    sums = [(sum(map(mul, packed, [_pack(c, bits) for c in cs])), dc) for cs, dc in scaled]
    return [Poly._from_ints(_unpack(value, bits), du * dc) for value, dc in sums]


def build_bundle(cfg, sys, custom_s: Optional[RationalFunction] = None) -> OperatorBundle:
    """Run the operator pipeline; verify the three assumptions exactly."""
    a, b = Fraction(cfg.alpha), Fraction(cfg.beta)
    m, m1 = cfg.m, cfg.m1
    ctx = JacobiContext(a, b)
    omega = _omega(cfg, sys)
    S = custom_s if custom_s is not None else default_s(cfg, sys)

    # check 1: S * Omega is a polynomial
    s_omega_rf = S * omega
    if not s_omega_rf.is_polynomial:
        raise AssumptionFailed("s_omega_polynomial", "S*Omega has a nontrivial denominator")
    s_omega = s_omega_rf.as_poly()

    lam = anti_difference(s_omega)

    # check 2: M_h = sigma^h_{x+1} * MhTilde_h(theta_x)
    mh_list: List[Poly] = []
    mh_tilde: List[Poly] = []
    # M_h = sum_j (S / n2^m1)(x+j) times the (h, j) cofactor of C, which does not depend on S,
    # each term lifted to one common multiple L of the m shifted denominators
    cleared = RationalFunction(S.num, S.den * sys.clearing)
    common = _shift_multiple(cleared.den, m)
    shifted = [cleared.shift(j) for j in range(1, m + 1)]
    lifts = [divmod(common, s_j.den) for s_j in shifted]
    if any(rem for _, rem in lifts):
        raise IdentityCheckFailed("build_bundle", "the denominator of (S / n2^m1)(x+j) divides L, j = 1..m")
    lifted = [s_j.num * quot for s_j, (quot, _) in zip(shifted, lifts)]
    for h, numerator in enumerate(_packed_sums(lifted, sys.cofactors), 1):
        mh, rem = divmod(numerator, common)
        if not rem.is_zero:
            raise AssumptionFailed("sigma_factorization", f"M_{h} is not a polynomial")
        try:
            tilde = divide_skew_by_sigma(mh, a, b)
        except NotSkewError as exc:
            raise AssumptionFailed("sigma_factorization", f"M_{h}: {exc}") from exc
        mh_list.append(mh)
        mh_tilde.append(-tilde if h > m1 else tilde)  # the sigma sequence is negated for the second block

    # check 3: 2 lambda + sum Y_h M_h is a polynomial in theta
    q_poly = sum([z * mh for z, mh in zip(sys.z, mh_list)], 2 * lam)
    try:
        ps = to_theta_basis(q_poly, a, b)
    except NotInvariantError as exc:
        raise AssumptionFailed("eigenvalue_generator", "2*lambda + sum Y_h M_h not theta-invariant") from exc

    # independent cross-check: P_S solves the first-order difference equation
    theta = theta_poly(a, b)
    if ps(theta) - ps(theta.shift(-1)) != s_omega + s_omega.shift(m):
        raise IdentityCheckFailed("build_bundle", "P_S(theta_x) - P_S(theta_{x-1}) = SOmega_x + SOmega_{x+m}")

    # assemble the operator
    d_cl = classical_operator(ctx)
    d_ops = d_operators(ctx, cfg.m1, cfg.m2)
    terms = [compose(op_poly(mh_tilde[h], d_cl), d_ops[h], op_poly(sys.Y[h], d_cl)) for h in range(m)]
    op = sum(terms, Fraction(1, 2) * op_poly(ps, d_cl))
    if not op.in_algebra:
        raise IdentityCheckFailed("build_bundle", "deg a_j <= j for the assembled D")
    return OperatorBundle(
        S=S,
        Omega=omega,
        SOmega=s_omega,
        Mh=tuple(mh_list),
        MhTilde=tuple(mh_tilde),
        lam=lam,
        PS=ps,
        D=op,
    )


def verify_eigen(bundle: OperatorBundle, cfg, sys, n_max: int) -> List[Fraction]:
    """Check D(q_n) = (lambda(n) + c) q_n for n <= n_max; return the eigenvalues.

    The eigenvalue function lambda is a discrete primitive, hence fixed only
    up to an additive constant; c is pinned from the n = 0 case and reused for
    every n. P_S reproduces the same sequence, P_S(theta_n) = lambda(n) +
    lambda(n+m) + constant, which follows from the identities `build_bundle`
    checks.

    D's coefficients are scaled to ints over one denominator, and its band on
    x^0..x^n_max built, once; each q_n is applied to that one band.
    """
    rows, den = _scaled_rows(bundle.D.coeffs)
    band = _band(rows, n_max + 1)
    eigenvalues: List[Fraction] = []
    for n in range(n_max + 1):
        qn = sobolev_poly(sys, cfg, n)
        image = _apply_band(band, den, qn)
        if not n:
            c = image.coeff(0) / qn.coeff(0) - bundle.lam(0)
        value = bundle.lam(n) + c
        residual = image - value * qn
        if not residual.is_zero:
            raise EigenMismatch(n, residual)
        eigenvalues.append(value)
    return eigenvalues


def operator_order(bundle: OperatorBundle) -> int:
    return int(bundle.D.order)
