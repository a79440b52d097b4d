"""Exact scalar, polynomial and rational-function arithmetic.

A ``Poly`` is a trimmed tuple of ``fractions.Fraction`` coefficients
(arbitrary precision, always reduced, denominator positive), so every
operation in this package is exact: there is no floating point anywhere.
The inner loops of polynomial multiplication, gcd, Taylor shift and scalar
evaluation run on Python ints: the operands are scaled to integer numerators
over a common denominator, and the result is turned back into reduced
fractions once per output coefficient.

Beyond the basic rings this module provides the structural transforms the
rest of the package is built on: Pochhammer products, gamma-function ratios
with integer parameter differences (which collapse to rational functions),
the discrete anti-difference, the reflection substitution
``x -> -(x + shift + 1)`` and the change of basis into powers of
``theta_x = x (x + s + 1)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Union

Scalar = Union[int, Fraction]

#: degree of the zero polynomial; compares below every integer degree and
#: never collides with a legitimate degree value
NEG_INFINITY = float("-inf")


class NotInvariantError(ValueError):
    """Polynomial is not fixed by the reflection it was claimed to be."""


class NotSkewError(ValueError):
    """Polynomial is not negated by the reflection it was claimed to be."""


class IdentityCheckFailed(RuntimeError):
    """An identity the package checks on its own results did not hold.

    This signals a defect in the computation, not bad input; the command
    line maps it to the verification-failure exit code.
    """

    def __init__(self, stage: str, identity: str):
        super().__init__(f"{stage}: check failed: {identity}")
        self.stage = stage
        self.identity = identity


def rat(value: Union[int, str, Fraction]) -> Fraction:
    """Parse a rational from an int, a Fraction or a canonical "p/q" string.

    A bool is rejected: JSON true would otherwise be read as 1."""
    if isinstance(value, bool):
        raise TypeError(f"a rational must be an integer, a fraction or a string, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def rat_rows(rows) -> List[List[Fraction]]:
    """Parse a list of rows of rationals; a string or a mapping is rejected, not
    split into its characters or keys."""
    out = []
    for row in rows:  # a string, or a JSON object, iterates as strings
        if isinstance(row, (str, dict)):
            raise TypeError(f"a matrix must be a list of rows, got {row!r}")
        out.append([rat(c) for c in row])
    return out


def rat_str(value: Scalar) -> str:
    """Canonical serialization: reduced "p/q" with q > 0, or plain "p"."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


class Poly:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored in ascending power order with trailing zeros
    trimmed; instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    @classmethod
    def _trusted(cls, coeffs: tuple) -> "Poly":
        """Wrap reduced Fractions with a nonzero last entry, skipping coercion."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def _from_ints(cls, nums: list, den: int) -> "Poly":
        """The polynomial sum nums[i] x^i / den, for ints nums and den > 0."""
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        return cls._trusted(tuple([Fraction(c, den) for c in nums[:end]]))

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls([c])

    @classmethod
    def monomial(cls, power: int, c: Scalar = 1) -> "Poly":
        return cls([0] * power + [c])

    @classmethod
    def from_strings(cls, items: Sequence[Union[str, int]]) -> "Poly":
        if isinstance(items, (str, dict)):
            raise TypeError(f"coefficients must be a list, got {items!r}")
        return cls([rat(s) for s in items])

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree as an int; NEG_INFINITY for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        na, da = _scaled_ints(self.coeffs)
        nb, db = _scaled_ints(other.coeffs)
        out = [0] * (len(na) + len(nb) - 1)
        for i, a in enumerate(na):
            if a:
                for j, b in enumerate(nb, i):
                    out[j] += a * b
        den = da * db
        # the leading product is nonzero, so the result needs no trimming
        return Poly._trusted(tuple([Fraction(c, den) for c in out]))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        if len(rem) <= dq:
            return ZERO, self
        quot = [Fraction(0)] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i] / lead
            if c == 0:
                continue
            quot[i - dq] = c
            for j, b in enumerate(other.coeffs):
                rem[i - dq + j] -= c * b
        return Poly(quot), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def div_exact(self, other: "Poly") -> "Poly":
        """Exact quotient; raises if the division leaves a remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c / Fraction(other) for c in self.coeffs])
        return NotImplemented

    # -- analysis -----------------------------------------------------------

    def __call__(self, point):
        """Evaluate by Horner's rule; accepts a scalar or a Poly (composition)."""
        if isinstance(point, Poly):
            acc: Union[Poly, Fraction] = ZERO
            for c in reversed(self.coeffs):
                acc = acc * point + Poly.constant(c)
            return acc if isinstance(acc, Poly) else Poly.constant(acc)
        u, v = _num_den(point)
        if not self.coeffs:
            return Fraction(0)
        nums, den = _scaled_ints(self.coeffs)
        # for point = u/v: sum n_i u^i v^(d-i) / (den v^d), by Horner on ints
        acc, scale = nums[-1], 1
        for n in reversed(nums[:-1]):
            scale *= v
            acc = acc * u + n * scale
        return Fraction(acc, den * scale)

    def derivative(self, times: int = 1) -> "Poly":
        p = self
        for _ in range(times):
            p = Poly([i * c for i, c in enumerate(p.coeffs)][1:])
        return p

    def shift(self, c: Scalar) -> "Poly":
        """Substitute x -> x + c.

        For c = u/v, the numerators n_i become n_i v^(d-i), which makes the
        polynomial one in y = v x; that one is shifted by the integer u in
        place, and the coefficient of x^k comes back over den v^(d-k).
        """
        u, v = _num_den(c)
        if not u or len(self.coeffs) < 2:
            return self
        a, den = _scaled_ints(self.coeffs)
        d = len(a) - 1
        scale = 1
        for i in range(d - 1, -1, -1):
            scale *= v
            a[i] *= scale
        # Taylor shift by u: d passes of synthetic division by x - u
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                a[j] += u * a[j + 1]
        out = []
        scale *= den
        for n in a:
            out.append(Fraction(n, scale))
            scale //= v
        return Poly._trusted(tuple(out))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self / self.lead

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd by a primitive remainder sequence over the integers.

        The gcd of zero and b is b made monic; the gcd of two zeros is zero.
        """
        if len(self.coeffs) == 1 or len(other.coeffs) == 1:
            return ONE  # a nonzero constant divides everything
        a = _primitive_ints(_scaled_ints(self.coeffs)[0])
        b = _primitive_ints(_scaled_ints(other.coeffs)[0])
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _primitive_ints(_pseudo_rem(a, b))
        if not a:
            return ZERO
        lead = a[-1]
        return Poly._trusted(tuple([Fraction(c, lead) for c in a]))

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(rat_str(c))
            elif i == 1:
                terms.append(f"{rat_str(c)}*x")
            else:
                terms.append(f"{rat_str(c)}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    def to_json(self) -> list:
        return [rat_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, items: Sequence[Union[str, int]]) -> "Poly":
        return cls.from_strings(items)


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return NotImplemented


def _scaled_ints(coeffs: Sequence[Fraction]):
    """Integer numerators over the lcm of the denominators, and that lcm."""
    den = math.lcm(*[c.denominator for c in coeffs])
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _num_den(value):
    """Numerator and positive denominator of an int or rational scalar."""
    if isinstance(value, int):
        return value, 1
    value = Fraction(value)
    return value.numerator, value.denominator


def _primitive_ints(ints: list) -> list:
    """The integer list divided by its content (the gcd of its entries)."""
    g = math.gcd(*ints)
    return ints if g <= 1 else [c // g for c in ints]


def _pseudo_rem(a: list, b: list) -> list:
    """A nonzero rational multiple of a mod b, for trimmed integer lists.

    Each step cancels the leading term with the smallest integer multipliers,
    so the rows grow only by the cofactor of the gcd of the two leads.
    """
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    tail = b[:-1]
    while len(r) > db:
        c = r.pop()
        if c:
            g = math.gcd(c, lead)
            s, t = lead // g, c // g
            if s != 1:
                r = [s * v for v in r]
            for j, v in enumerate(tail, len(r) - db):
                r[j] -= t * v
    while r and not r[-1]:
        r.pop()
    return r


class RationalFunction:
    """Reduced quotient of two polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = ONE
        else:
            g = num.gcd(den)
            if g.degree != 0:
                num = num.div_exact(g)
                den = den.div_exact(g)
        lead = den.lead
        if lead != 1:
            num, den = num / lead, den / lead
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    def as_poly(self) -> Poly:
        if not self.is_polynomial:
            raise ValueError(f"not a polynomial: {self!r}")
        return self.num

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        g = self.den.gcd(other.den)
        da = self.den.div_exact(g) if g.degree != 0 else self.den
        db = other.den.div_exact(g) if g.degree != 0 else other.den
        return RationalFunction(self.num * db + other.num * da, da * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return _as_rf(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        # cross-cancel before multiplying to keep the gcds small
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num.div_exact(g1) if g1.degree != 0 else self.num
        d2 = other.den.div_exact(g1) if g1.degree != 0 else other.den
        n2 = other.num.div_exact(g2) if g2.degree != 0 else other.num
        d1 = self.den.div_exact(g2) if g2.degree != 0 else self.den
        return RationalFunction(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * RationalFunction(other.den, other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return _as_rf(other) / self

    def __call__(self, point) -> Fraction:
        point = Fraction(point)
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num(point) / d

    def substitute(self, g: Poly) -> "RationalFunction":
        return RationalFunction(self.num(g), self.den(g))

    def shift(self, c: Scalar) -> "RationalFunction":
        # a shift keeps the quotient reduced and the denominator monic
        rf = object.__new__(RationalFunction)
        object.__setattr__(rf, "num", self.num.shift(c))
        object.__setattr__(rf, "den", self.den.shift(c))
        return rf

    def __eq__(self, other) -> bool:
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.is_polynomial:
            return f"RF({self.num!r})"
        return f"RF({self.num!r} / {self.den!r})"


def _as_rf(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction, Poly)):
        return RationalFunction(value)
    return NotImplemented


def pochhammer(base, count: int):
    """Rising factorial base (base+1) ... (base+count-1); empty product is 1.

    Returns a Fraction for scalar input and a Poly for polynomial input.
    """
    if count < 0:
        raise ValueError("pochhammer count must be nonnegative")
    if isinstance(base, Poly):
        result = ONE
        for i in range(count):
            result = result * (base + i)
        return result
    base = Fraction(base)
    result = Fraction(1)
    for i in range(count):
        result *= base + i
    return result


def gamma_ratio(a, b, c, d) -> RationalFunction:
    """Gamma(x+a+1)Gamma(x+b+1) / (Gamma(x+c+1)Gamma(x+d+1)) as a function of x.

    Requires the numerator and denominator parameters to pair up with integer
    differences, so the ratio telescopes to a quotient of Pochhammer products.
    """
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    if (a - c).denominator == 1 and (b - d).denominator == 1:
        pairs = [(a, c), (b, d)]
    elif (a - d).denominator == 1 and (b - c).denominator == 1:
        pairs = [(a, d), (b, c)]
    else:
        raise ValueError("gamma_ratio parameters admit no integer pairing")
    num, den = ONE, ONE
    for top, bot in pairs:
        k = int(top - bot)
        if k >= 0:
            # Gamma(x+top+1)/Gamma(x+bot+1) = (x+bot+1)_k
            num = num * pochhammer(X + (bot + 1), k)
        else:
            den = den * pochhammer(X + (top + 1), -k)
    return RationalFunction(num, den)


def anti_difference(f: Poly) -> Poly:
    """The polynomial g with g(x) - g(x-1) = f(x) and zero constant term."""
    g = ZERO
    r = f
    while not r.is_zero:
        k = int(r.degree) + 1
        term = Poly.monomial(k, r.lead / k)
        g = g + term
        r = r - (term - term.shift(-1))
    return g


def involute(f, shift):
    """Substitute x -> -(x + shift + 1); an exact involution."""
    g = Poly([-(Fraction(shift) + 1), -1])
    if isinstance(f, RationalFunction):
        return f.substitute(g)
    return _as_poly(f)(g)


def theta_poly(alpha, beta) -> Poly:
    """theta_x = x (x + alpha + beta + 1)."""
    return Poly([0, Fraction(alpha) + Fraction(beta) + 1, 1])


def theta_substitute(g: Poly, alpha, beta) -> Poly:
    """Evaluate a polynomial in theta back to a polynomial in x."""
    return g(theta_poly(alpha, beta))


def to_theta_basis(f: Poly, alpha, beta) -> Poly:
    """Rewrite a reflection-invariant polynomial of x as a polynomial in theta_x.

    Substituting x = y - (s+1)/2 with s = alpha + beta makes f even in y, and
    y^2 = theta + ((s+1)/2)^2 finishes the conversion.
    """
    s = Fraction(alpha) + Fraction(beta)
    if involute(f, s) != f:
        raise NotInvariantError("polynomial is not invariant under x -> -(x+s+1)")
    half = (s + 1) / 2
    fy = f(Poly([-half, 1]))  # f as a polynomial in y = x + (s+1)/2
    base = Poly([half * half, 1])  # theta + ((s+1)/2)^2, as a poly in theta
    g = ZERO
    power = ONE
    for k in range(0, len(fy.coeffs), 2):
        if k + 1 < len(fy.coeffs) and fy.coeffs[k + 1] != 0:
            raise NotInvariantError("odd coefficient survived the shift")
        g = g + fy.coeff(k) * power
        power = power * base
    return g


def divide_skew_by_sigma(f: Poly, alpha, beta) -> Poly:
    """For skew-invariant f, the quotient f / (2x+alpha+beta+1) in the theta basis.

    The linear factor is sigma_{x+1}; skew invariance of f guarantees exact
    divisibility and that the quotient is reflection invariant.
    """
    s = Fraction(alpha) + Fraction(beta)
    if involute(f, s) != -f:
        raise NotSkewError("polynomial is not skew invariant under x -> -(x+s+1)")
    if f.is_zero:
        return ZERO
    quotient = f.div_exact(Poly([s + 1, 2]))
    return to_theta_basis(quotient, alpha, beta)


def falling_binomial(top, k: int) -> Fraction:
    """Generalized binomial C(top, k) for integer k >= 0 (0 for k < 0)."""
    if k < 0:
        return Fraction(0)
    top = Fraction(top)
    result = Fraction(1)
    for i in range(k):
        result *= top - i
    return result / math.factorial(k)
