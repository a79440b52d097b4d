"""Straightforward Fraction versions of the exact kernel's inner loops.

The package stores a polynomial as int numerators over one denominator and
adds, multiplies, divides, takes gcds, shifts, evaluates and substitutes on
those integers; the ``reference_*`` polynomial operations here work on the
tuple of Fraction coefficients instead, one Fraction operation per
coefficient. It builds each Jacobi family by its three-term recurrence; the
reference expands the explicit sum by powers. It applies, composes
and evaluates differential operators through their images of x^k on
integers. It builds Lambda's polynomial, each n < m Casorati quotient and
each q_n once per configuration, and takes Omega and the M_h minors from
Lambda's polynomial Casorati matrix. It builds the z_l of the mass point +1
as those of -1 for the mirrored problem, each z_l, Y_l and Pochhammer product
as one int-list product or combination, takes the weight moments from their
Pearson recurrence and the Sobolev form B(p, x^j) as ints over one lcm of the
moment and mass denominators. Its weighted rank
carries one echelon basis through each scan. Its cross-checks evaluate R_l(n)
as a Sobolev form and sum the combinatorial identities as rationals. These
are the plain algorithms it replaced (both blocks of z_l written out from
Fraction products, one factor at a time; B as the weighted integral of p q
plus the jets against the masses; each moment from its expanded integrand; Omega and the M_h from the xi-weighted
entries, one rational determinant each; one Sobolev form per x^j; two fresh
eliminations per span test); the differential tests require exact equality
with them.
"""

import functools
import itertools
import math
from fractions import Fraction

from jacobisobolev import _linalg
from jacobisobolev.certify import integrate_against_weight, jet
from jacobisobolev.construct import build_p, build_q, build_z
from jacobisobolev.diffop import DiffOp
from jacobisobolev.exactmath import (
    ONE,
    ZERO,
    IdentityCheckFailed,
    Poly,
    RationalFunction,
    X,
    falling_binomial,
    pochhammer,
    theta_poly,
)
from jacobisobolev.jacobi import JacobiContext, jacobi_poly


def _fractions(p: Poly) -> list:
    return list(p.coeffs)


def reference_add(p: Poly, q: Poly) -> Poly:
    """Coefficient-wise Fraction sum."""
    a, b = _fractions(p), _fractions(q)
    if len(a) < len(b):
        a, b = b, a
    for i, c in enumerate(b):
        a[i] += c
    return Poly(a)


def reference_neg(p: Poly) -> Poly:
    return Poly([-c for c in p.coeffs])


def reference_sub(p: Poly, q: Poly) -> Poly:
    return reference_add(p, reference_neg(q))


def reference_scale(p: Poly, c) -> Poly:
    """p * c for a scalar c, one Fraction product per coefficient."""
    return Poly([a * c for a in p.coeffs])


def reference_scalar_div(p: Poly, c) -> Poly:
    """p / c for a nonzero scalar c, one Fraction quotient per coefficient."""
    c = Fraction(c)
    if c == 0:
        raise ZeroDivisionError("polynomial division by zero")
    return Poly([a / c for a in p.coeffs])


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


def reference_divmod(p: Poly, q: Poly):
    """Long division over the rationals, one Fraction quotient per step."""
    if q.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = _fractions(p)
    b = q.coeffs
    dq = len(b) - 1
    if len(rem) <= dq:
        return ZERO, p
    quot = [Fraction(0)] * (len(rem) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i] / b[-1]
        if c == 0:
            continue
        quot[i - dq] = c
        for j, v in enumerate(b):
            rem[i - dq + j] -= c * v
    return Poly(quot), Poly(rem)


def reference_pochhammer(base: Poly, count: int) -> Poly:
    """base (base+1) ... (base+count-1) by schoolbook products of Fraction polynomials."""
    result = Poly([1])
    for i in range(count):
        result = reference_mul(result, reference_add(base, Poly([i])))
    return result


def reference_derivative(p: Poly, times: int = 1) -> Poly:
    cs = _fractions(p)
    for _ in range(times):
        cs = [i * c for i, c in enumerate(cs)][1:]
    return Poly(cs)


def reference_monic(p: Poly) -> Poly:
    if p.is_zero:
        return p
    return reference_scalar_div(p, p.coeffs[-1])


def reference_substitute(p: Poly, q: Poly) -> Poly:
    """p(q) by Horner's rule on Fraction polynomials."""
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = reference_add(reference_mul(acc, q), Poly([c]))
    return acc


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
        a, b = b, _primitive(reference_divmod(a, b)[1])
    return reference_monic(a)


def reference_rational_parts(num: Poly, den: Poly):
    """The (num, den) pair of num/den, reduced by the gcd and always divided
    by the lead of the denominator."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        den = ONE
    else:
        g = reference_gcd(num, den)
        num, den = reference_divmod(num, g)[0], reference_divmod(den, g)[0]
    lead = den.coeffs[-1]
    return reference_scalar_div(num, lead), reference_scalar_div(den, lead)


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


def reference_det(matrix):
    """Determinant by the Leibniz permutation sum, each sign a scalar product."""
    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total + term
    return total


def _reference_rank(rows) -> int:
    """Rank of a rational matrix by a fresh Gauss-Jordan elimination."""
    return len(_linalg._reduce(rows, len(rows[0]))[1]) if rows else 0


def _reference_in_span(vectors, candidate) -> bool:
    """Whether candidate lies in the span of vectors: two ranks compared."""
    if all(c == 0 for c in candidate):
        return True
    return _reference_rank(list(vectors)) == _reference_rank(list(vectors) + [list(candidate)])


def reference_weighted_rank(gamma, matrix) -> tuple:
    """(eta, tau, reduced_columns, value) with each span test its own two eliminations."""
    gamma, m = Fraction(gamma), len(matrix)
    rows = [[Fraction(c) for c in row] for row in matrix]
    columns = [[rows[i][j] for i in range(m)] for j in range(m)]
    eta, kept = [], []
    for j in range(1, m + 1):
        if _reference_in_span([columns[i] for i in kept], columns[m - j]):
            eta.append(Fraction(0))
        else:
            eta.append(gamma + m - j)
            kept.append(m - j)
    kept.sort()
    reduced = [[rows[i][j] for j in kept] for i in range(m)]
    tau = [m - j if _reference_in_span(reduced[j:], reduced[j - 1]) else 0 for j in range(1, m)]
    return tuple(eta), tuple(tau), tuple(kept), sum(eta, Fraction(0)) + sum(tau) - m * (m - 1) // 2


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
        total = reference_add(total, reference_scale(term, c))
    return reference_scale(total, front)


def reference_shift(p: Poly, c) -> Poly:
    """p(x + c) by Horner's rule on Fraction polynomials."""
    return reference_substitute(p, Poly([Fraction(c), 1]))


def reference_eval(p: Poly, point) -> Fraction:
    """p(point) by Horner's rule, one Fraction per step."""
    point = Fraction(point)
    acc = Fraction(0)
    for coeff in reversed(p.coeffs):
        acc = acc * point + coeff
    return acc


def reference_apply(op: DiffOp, p: Poly) -> Poly:
    """sum_j a_j * p^(j) on Fraction polynomials."""
    total = ZERO
    for j, c in enumerate(op.coeffs):
        if not c.is_zero:
            total = total + c * p.derivative(j)
    return total


def reference_compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """Operator product a . b by the Leibniz rule on Fraction polynomials."""
    n = len(a.coeffs) + len(b.coeffs)
    out = [ZERO] * max(n - 1, 0)
    for i, ai in enumerate(a.coeffs):
        if ai.is_zero:
            continue
        for j, bj in enumerate(b.coeffs):
            if bj.is_zero:
                continue
            # d^i (b_j d^j f) = sum_k C(i,k) b_j^(k) d^(i+j-k) f
            for k in range(i + 1):
                term = math.comb(i, k) * ai * bj.derivative(k)
                if not term.is_zero:
                    out[i + j - k] = out[i + j - k] + term
    return DiffOp(out)


def reference_op_poly(p: Poly, d: DiffOp) -> DiffOp:
    """p(d) by Horner's rule on Leibniz products."""
    acc = DiffOp()
    for c in reversed(p.coeffs):
        acc = reference_compose(acc, d) + DiffOp([c])
    return acc


def reference_casorati_lambda(sys, cfg, n: int) -> Fraction:
    """Lambda(n), from a rational determinant for n >= m and the n < m
    quotient rebuilt for every n."""
    m = cfg.m
    if n >= m:
        matrix = [
            [sys.rho[h][j](n) * sys.z[h](n - j) for j in range(1, m + 1)] for h in range(m)
        ]
        return _linalg.det(matrix) / (sys.p(n) * sys.q(n))
    matrix = [
        [sys.rho[h][j].as_poly() * sys.z[h].shift(-j) for j in range(1, m + 1)]
        for h in range(m)
    ]
    return RationalFunction(_linalg.det(matrix), sys.p * sys.q)(n)


def reference_sobolev_poly(sys, cfg, n: int) -> Poly:
    """q_n, with every n < m minor quotient rebuilt for every n."""
    ctx = JacobiContext(Fraction(cfg.alpha), Fraction(cfg.beta))
    m = cfg.m
    if n >= m:
        pq = sys.p(n) * sys.q(n)
        rows = [[sys.rho[h][j](n) * sys.z[h](n - j) for j in range(m + 1)] for h in range(m)]
        values = [
            _linalg.det([[row[r] for r in range(m + 1) if r != j] for row in rows]) / pq
            for j in range(m + 1)
        ]
    else:
        entries = [
            [sys.rho[h][r] * RationalFunction(sys.z[h].shift(-r)) for r in range(m + 1)]
            for h in range(m)
        ]
        values = []
        for j in range(m + 1):
            if j > n:
                values.append(Fraction(0))
                continue
            minor = _linalg.det([[row[r] for r in range(m + 1) if r != j] for row in entries])
            values.append((minor / RationalFunction(sys.p * sys.q))(n))
    result = ZERO
    for j in range(m + 1):
        if values[j] != 0:
            result = result + values[j] * jacobi_poly(ctx, n - j)
    return result


def xi(ctx, m1: int, h: int, j: int) -> RationalFunction:
    """The telescoped epsilon-product xi^h_{x,j} as a rational function of x.

    For h <= m1 it is (-1)^j (x-j+alpha+1)_j / (x-j+beta+1)_j, extended to
    negative j by xi_{x,j} = 1 / xi_{x-j,-j}; for h > m1 it is 1.
    """
    if h > m1 or j == 0:
        return RationalFunction(ONE)
    a, b = ctx.alpha, ctx.beta
    if j > 0:
        return RationalFunction(
            (-1) ** j * pochhammer(X + (a - j + 1), j), pochhammer(X + (b - j + 1), j)
        )
    return RationalFunction(
        (-1) ** (-j) * pochhammer(X + (b + 1), -j), pochhammer(X + (a + 1), -j)
    )


def _reference_u(alpha: Fraction, beta: Fraction, lam: Fraction, j: int):
    """(x+a-lam+1)_j (x+b+lam-j+1)_j in x, and in theta as the product of
    the factors (a-lam+i)(b+lam-i+1) + theta."""
    u_x = reference_mul(
        reference_pochhammer(Poly([alpha - lam + 1, 1]), j), reference_pochhammer(Poly([beta + lam - j + 1, 1]), j)
    )
    u_t = ONE
    for i in range(1, j + 1):
        u_t = reference_mul(u_t, Poly([(alpha - lam + i) * (beta + lam - i + 1), 1]))
    return u_x, u_t


def reference_build_z(cfg) -> tuple:
    """(z, Y): the sequence functions in x and in theta, with the rows of the
    jets at -1 and at +1 each written out."""
    a, b = Fraction(cfg.alpha), Fraction(cfg.beta)
    m1, m2, m = cfg.m1, cfg.m2, cfg.m
    zs, ys = [], []
    for l in range(1, m1 + 1):
        front = (
            Fraction(2) ** (cfg.alpha + cfg.beta - m1 + l)
            * math.factorial(cfg.beta - m1 + l - 1)
            / math.factorial(m1 - l)
        )
        u_x, u_t = _reference_u(a, b, a, m1 - l)
        z = reference_scale(u_x, front)
        y = reference_scale(u_t, front)
        for i in range(m1):
            inner = Fraction(0)
            for j in range(l, min(l + m2, m1) + 1):
                inner += (
                    math.factorial(j - 1)
                    * math.comb(m2, j - l)
                    * cfg.M[i][j - 1]
                    / Fraction(-2) ** (i + j - l)
                )
            if inner == 0:
                continue
            w = Fraction(2) ** m2 * inner / math.factorial(cfg.beta + i)
            u_x, u_t = _reference_u(a, b, Fraction(0), cfg.beta + i)
            z = reference_add(z, reference_scale(u_x, w))
            y = reference_add(y, reference_scale(u_t, w))
        zs.append(z)
        ys.append(y)
    for l in range(m1 + 1, m + 1):
        front = (
            Fraction(2) ** (cfg.alpha + cfg.beta - m + l)
            * math.factorial(cfg.alpha - m + l - 1)
            / math.factorial(m - l)
        )
        u_x, u_t = _reference_u(a, b, a, m - l)
        z = reference_scale(u_x, front)
        y = reference_scale(u_t, front)
        for i in range(m2):
            inner = Fraction(0)
            for j in range(l - m1, min(l, m2) + 1):
                inner += (
                    math.factorial(j - 1)
                    * math.comb(m1, l - j)
                    * cfg.N[i][j - 1]
                    / ((-1) ** (l - m1 - 1) * Fraction(2) ** (i + j - l))
                )
            if inner == 0:
                continue
            w = inner / math.factorial(cfg.alpha + i)
            u_x, u_t = _reference_u(a, b, a - b, cfg.alpha + i)
            z = reference_add(z, reference_scale(u_x, w))
            y = reference_add(y, reference_scale(u_t, w))
        zs.append(z)
        ys.append(y)
    return tuple(zs), tuple(ys)


def reference_weight_moment(a: int, b: int, k: int) -> Fraction:
    """The integral of (1-x)^a (1+x)^b x^k over (-1, 1), from the expanded
    integrand: each even power x^j integrates to 2/(j+1)."""
    integrand = (1 - X) ** a * (1 + X) ** b * X**k
    total = sum((Fraction(2 * c, j + 1) for j, c in enumerate(integrand.nums) if j % 2 == 0), Fraction(0))
    return total / integrand.den


def reference_bilinear(cfg, p: Poly, q: Poly) -> Fraction:
    """B(p, q): the weighted integral of p q plus the jets of p and q at -1
    and +1 against M and N."""
    total = integrate_against_weight(p * q, cfg.alpha - cfg.m2, cfg.beta - cfg.m1)
    for point, size, masses in ((-1, cfg.m1, cfg.M), (1, cfg.m2, cfg.N)):
        tp, tq = jet(p, point, size), jet(q, point, size)
        total += sum(tp[i] * masses[i][j] * tq[j] for i in range(size) for j in range(size))
    return total


def reference_orthogonality_failure(cfg, qs):
    """The verify report's first failed check, by one `reference_bilinear(cfg,
    q_n, x^j)` per j < n: {"n", "j"}, with j None for B(q_n, q_n) = 0, or None."""
    for n, qn in enumerate(qs):
        for j in range(n):
            if reference_bilinear(cfg, qn, Poly.monomial(j)) != 0:
                return {"n": n, "j": j}
        if reference_bilinear(cfg, qn, qn) == 0:
            return {"n": n, "j": None}
    return None


def reference_omega_entries(cfg, sys) -> list:
    """Omega's entries xi^l_{x-j, m-j} z_l(x-j), l, j = 1..m."""
    ctx = JacobiContext(Fraction(cfg.alpha), Fraction(cfg.beta))
    m = cfg.m
    return [
        [
            xi(ctx, cfg.m1, l, m - j).shift(-j) * RationalFunction(sys.z[l - 1].shift(-j))
            for j in range(1, m + 1)
        ]
        for l in range(1, m + 1)
    ]


def reference_mh(cfg, sys, S: RationalFunction) -> list:
    """M_1..M_m as rational functions, each shifted (h, j) minor rebuilt from
    its own shifted entries xi^l_{x+j-r, m-r} z_l(x+j-r)."""
    ctx = JacobiContext(Fraction(cfg.alpha), Fraction(cfg.beta))
    m, m1 = cfg.m, cfg.m1
    index_sets = [[r for r in range(1, m + 1) if r != h] for h in range(m + 1)]
    out = []
    for h in range(1, m + 1):
        total = RationalFunction(ZERO)
        for j in range(1, m + 1):
            minor = _linalg.det(
                [
                    [
                        xi(ctx, m1, l, m - r).shift(j - r) * RationalFunction(sys.z[l - 1].shift(j - r))
                        for r in index_sets[j]
                    ]
                    for l in index_sets[h]
                ]
            )
            if not isinstance(minor, RationalFunction):
                minor = RationalFunction(minor)
            total = total + (-1) ** (h + j) * xi(ctx, m1, h, m - j) * S.shift(j) * minor
        out.append(total)
    return out


def reference_p_from_y_tuple(alpha, beta, m1: int, m2: int, ys) -> tuple:
    """(P, d, lead) of the degree law, with P from its own rows
    (-1)^(m-j) (x+a-m+1)_{m-j} (x+b-j+1)_{j-1} Y_i(theta_{x-j})."""
    a, b = Fraction(alpha), Fraction(beta)
    m = m1 + m2
    theta = theta_poly(a, b)
    rows = []
    for i in range(m):
        row = []
        for j in range(1, m + 1):
            y_at = ys[i](theta.shift(-j))
            if i < m1:
                n1 = (-1) ** (m - j) * pochhammer(X + (a - m + 1), m - j)
                n2 = pochhammer(X + (b - j + 1), j - 1)
                row.append(n1 * n2 * y_at)
            else:
                row.append(y_at)
        rows.append(row)
    det = _linalg.det(rows)
    if not isinstance(det, Poly):
        det = Poly.constant(det)
    result = det.div_exact(build_p(alpha, beta, m1, m2) * build_q(alpha, beta, m))
    degs = [int(y.degree) for y in ys]
    d = 2 * sum(degs) - 2 * (math.comb(m1, 2) + math.comb(m2, 2))
    lead = Fraction(1)
    for y in ys:
        lead *= y.lead
    for block in (degs[:m1], degs[m1:]):
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                lead *= block[j] - block[i]
    return result, d, lead


def reference_rl_cross_check(cfg, l: int, n: int) -> tuple:
    """(integral route, prefactor * z_l(n)), the route summed by hand: the
    weighted integral of b_l J_n plus the endpoint jets of J_n against the
    mass matrix times the jets of b_l, written out as closed forms."""
    if not 1 <= l <= cfg.m:
        raise ValueError("l out of range")
    a, b, m1, m2 = cfg.alpha, cfg.beta, cfg.m1, cfg.m2
    ctx = JacobiContext(Fraction(a), Fraction(b))
    pn = jacobi_poly(ctx, n)
    if l <= m1:
        w1 = integrate_against_weight((X + 1) ** (l - 1) * (1 - X) ** m2 * pn, a - m2, b - m1)
        extra = Fraction(0)
        for i in range(m1):
            inner = Fraction(0)
            for j in range(l, min(l + m2, m1) + 1):
                inner += (
                    math.factorial(j - 1)
                    * math.comb(m2, j - l)
                    * cfg.M[i][j - 1]
                    / ((-1) ** m2 * Fraction(-2) ** (j - l - m2))
                )
            if inner:
                extra += inner * pn.derivative(i)(-1)
        integral_route = w1 + extra
        prefactor = Fraction(
            math.factorial(b) * math.factorial(n + a),
            math.factorial(a + b) * math.factorial(n + b),
        )
    else:
        w2 = integrate_against_weight(
            (X + 1) ** m1 * (1 - X) ** (l - m1 - 1) * pn, a - m2, b - m1
        )
        extra = Fraction(0)
        for i in range(m2):
            inner = Fraction(0)
            for j in range(l - m1, min(l, m2) + 1):
                inner += (
                    math.factorial(j - 1)
                    * math.comb(m1, l - j)
                    * cfg.N[i][j - 1]
                    / ((-1) ** (l - m1 - 1) * Fraction(2) ** (j - l))
                )
            if inner:
                extra += inner * pn.derivative(i)(1)
        integral_route = w2 + extra
        prefactor = (-1) ** n * Fraction(math.factorial(b), math.factorial(a + b))
    return integral_route, prefactor * build_z(cfg).z[l - 1](n)


class GammaProduct:
    """A rational multiple of a product of Gamma values at non-integer points.

    Each Gamma(x) is normalized to Gamma(r) with r = x mod 1 in (0, 1) times
    a rational Pochhammer factor, so products with matching residues can be
    compared and summed exactly.
    """

    __slots__ = ("coeff", "powers")

    def __init__(self, coeff: Fraction, powers=None):
        self.coeff = Fraction(coeff)
        self.powers = {r: e for r, e in (powers or {}).items() if e != 0}

    @classmethod
    def gamma(cls, x: Fraction) -> "GammaProduct":
        x = Fraction(x)
        if x.denominator == 1:
            raise ValueError("integer Gamma argument: use factorials instead")
        r = x - math.floor(x)
        steps = math.floor(x)
        if steps >= 0:
            coeff = pochhammer(r, steps)
        else:
            coeff = 1 / pochhammer(x, -steps)
        return cls(coeff, {r: 1})

    @classmethod
    def binomial(cls, top: Fraction, bottom: Fraction) -> "GammaProduct":
        return cls.gamma(top + 1) / (cls.gamma(bottom + 1) * cls.gamma(top - bottom + 1))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GammaProduct(self.coeff * other, self.powers)
        powers = dict(self.powers)
        for r, e in other.powers.items():
            powers[r] = powers.get(r, 0) + e
        return GammaProduct(self.coeff * other.coeff, powers)

    __rmul__ = __mul__

    def __truediv__(self, other):
        inv = GammaProduct(1 / other.coeff, {r: -e for r, e in other.powers.items()})
        return self * inv

    def __rtruediv__(self, other):
        return GammaProduct(Fraction(other)) / self


def _gamma_sum_is_zero(terms) -> bool:
    live = [t for t in terms if t.coeff != 0]
    if not live:
        return True
    powers = live[0].powers
    if any(t.powers != powers for t in live[1:]):
        raise IdentityCheckFailed("verify_comb_identities", "the Gamma products of one sum are comparable")
    return sum(t.coeff for t in live) == 0


def reference_verify_comb_identities(alpha, beta, m1: int, m2: int) -> bool:
    """Both families of combinatorial identities, each term a `GammaProduct`."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if 1 in (alpha.denominator, beta.denominator, (alpha + beta).denominator):
        raise ValueError("alpha, beta and alpha+beta must be non-integers")
    m = m1 + m2

    def comb(nn: int, kk: int) -> int:
        return math.comb(nn, kk) if 0 <= kk <= nn else 0

    # first family
    for h in range(0, m1 - 1):
        for k in range(1, m1 - h):
            terms = []
            for l in range(m1):
                c = (
                    Fraction((-1) ** l)
                    * comb(h, m1 - l)
                    * falling_binomial(l - k, l)
                    / (Fraction(2) ** l * (beta - l))
                )
                if c == 0:
                    continue
                terms.append(c / GammaProduct.binomial(alpha + beta - k - l, alpha - k))
            if not _gamma_sum_is_zero(terms):
                return False
    # second family
    for k in range(1, m):
        terms = []
        for l in range(m1):
            c = (
                Fraction((-1) ** k)
                * comb(m - l - 2, m2 - 1)
                * falling_binomial(l - k, l)
                / (beta - l)
            )
            if c == 0:
                continue
            terms.append(c / GammaProduct.binomial(alpha + beta - k - l, alpha - k))
        for l in range(m2):
            c = Fraction(comb(m - l - 2, m1 - 1)) * falling_binomial(l - k, l) / (alpha - l)
            if c == 0:
                continue
            terms.append(c / GammaProduct.binomial(alpha + beta - k - l, beta - k))
        if not _gamma_sum_is_zero(terms):
            return False
    return True
