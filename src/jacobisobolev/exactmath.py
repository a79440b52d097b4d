"""Exact scalar, polynomial and rational-function arithmetic.

A ``Poly`` is a trimmed tuple of int numerators over one positive int
denominator with no common factor, the layout of FLINT's ``fmpq_poly``, so
every operation in this package is exact: there is no floating point
anywhere. Each polynomial operation runs on Python ints and reduces its result
once, in ``Poly._from_ints`` (trim, divide by the content, make the denominator
positive); the ``Fraction`` coefficients are built only when asked for.
Division and the gcd share one kernel, the integer pseudo-division
`_pseudo_divide` (Knuth, TAOCP vol. 2, 4.6.1).

Beyond the basic rings this module provides the structural transforms the
rest of the package is built on: Pochhammer products, linear combinations
with rational weights (`_combination`), the discrete anti-difference and the
change of basis into powers of ``theta_x = x (x + s + 1)``. Whether a
polynomial is invariant or skew under the reflection ``x -> -(x + s + 1)`` is
read from its parity in ``y = x + (s + 1)/2``, in which the reflection is
``y -> -y``.

A float is refused wherever a scalar enters (`_exact`), not read as its
binary value.

``Frozen``, the base of the package's value classes, refuses assignment and
deletion and gives ``==`` (same class only), ``hash`` and the repr
``Name(field=value, ...)`` over the attributes a subclass names in ``_fields``.
"""

from __future__ import annotations

import math
import sys
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


class Frozen:
    """Immutable value over the attributes named in ``_fields``; ``__init__``
    sets them with ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"


def _digit_limit() -> int:
    """The interpreter's int-string digit limit: 0 when it is off, or on an interpreter without one."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def rat(value: Union[int, str, Fraction]) -> Fraction:
    """Parse a rational from an int, a Fraction or a string: "p/q" or a decimal
    literal, with or without an exponent. It is also the ``parse_float`` hook
    that reads JSON numbers exactly.

    A bool is rejected: JSON true would otherwise be read as 1. A float is
    refused by `_exact`. A literal whose exponent exceeds the interpreter's
    int-string digit limit, when that limit is on, is malformed as a literal of
    that many digits is: its value would take seconds or hours to build."""
    if isinstance(value, bool):
        raise TypeError(f"a rational must be an integer, a fraction or a string, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, str):
        return _exact(value)
    exponent, limit = value.lower().partition("e")[2].strip().lstrip("+-"), _digit_limit()
    if limit and exponent.isdecimal() and int(exponent) > limit:
        raise ValueError(f"the exponent of a rational exceeds {limit}, the interpreter's digit limit")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _as_list(items, what: str):
    """items, unless it is a string or a mapping: those iterate as their characters or keys."""
    if isinstance(items, (str, dict)):
        raise TypeError(f"{what} must be a list, got {items!r}")
    return items


def rat_rows(rows, what: str = "a matrix") -> List[List[Fraction]]:
    """Parse a list of rows of rationals; a string or a mapping, as the matrix or as one of
    its rows, is rejected, not read as its characters or keys. ``what`` names the matrix
    in that error."""
    return [[rat(c) for c in _as_list(row, f"{what} row")] for row in _as_list(rows, what)]


def rat_str(value: Scalar) -> str:
    """Canonical serialization: reduced "p/q" with q > 0, or plain "p"."""
    f = _exact(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


class Poly(Frozen):
    """Dense univariate polynomial over the rationals.

    Stored as a tuple ``nums`` of int numerators, ascending powers, trailing
    zeros trimmed, over one int denominator ``den > 0`` with
    gcd(den, *nums) = 1. The form is canonical, so equality and hashing
    compare ``(nums, den)``. ``coeffs``, the tuple of reduced ``Fraction``
    coefficients, is built on each request. Instances are immutable and hashable.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else _exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the lcm of reduced denominators the numerators share no factor with it
        den = math.lcm(*[c.denominator for c in cs])
        object.__setattr__(self, "nums", tuple([c.numerator * (den // c.denominator) for c in cs]))
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_ints(cls, nums: Sequence[int], den: int) -> "Poly":
        """The polynomial sum nums[i] x^i / den, for ints nums and den != 0:
        trimmed, reduced and with a positive denominator."""
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        if end < len(nums):
            nums = nums[:end]
        if not nums:
            return ZERO
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        return _wrap(tuple(nums), den)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, ascending powers."""
        den = self.den
        return tuple([Fraction(c, den) for c in self.nums])

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        u, v = _num_den(c)
        return _wrap((u,), v) if u else ZERO

    @classmethod
    def monomial(cls, power: int, c: Scalar = 1) -> "Poly":
        if power < 0:
            raise ValueError("negative power of x")
        return cls([0] * power + [c])

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self):
        """Degree as an int; NEG_INFINITY for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else NEG_INFINITY

    @property
    def lead(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        return Fraction(self.nums[-1], self.den)

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.nums):
            return Fraction(self.nums[power], self.den)
        return Fraction(0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.nums:
            return self
        if not self.nums:
            return other
        return _sum(self.nums, self.den, other.nums, other.den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _wrap(tuple([-c for c in self.nums]), self.den)

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            u, v = _num_den(other)
            return Poly._from_ints([c * u for c in self.nums], self.den * v)
        if not isinstance(other, Poly):
            return NotImplemented
        if not (self.nums and other.nums):
            return ZERO
        return Poly._from_ints(_convolve(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return math.prod([self] * n, start=ONE)

    def __divmod__(self, other: "Poly"):
        """Quotient and remainder by integer pseudo-division (`_pseudo_divide`)."""
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.nums) < len(other.nums):
            return ZERO, self
        quot, rem, scale = _pseudo_divide(self.nums, other.nums)
        # self = nums / den and other = b / db give q = quot db / (den s), r = rem / (den s)
        den = self.den * scale
        if other.den != 1:
            quot = [other.den * v for v in quot]
        return Poly._from_ints(quot, den), Poly._from_ints(rem, den)

    def __mod__(self, other: "Poly") -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return divmod(self, other)[1]

    def div_exact(self, other: "Poly") -> "Poly":
        """Exact quotient; raises if the division leaves a remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            u, v = _num_den(other)
            if not u:
                raise ZeroDivisionError("polynomial division by zero")
            return Poly._from_ints([c * v for c in self.nums], self.den * u)
        return NotImplemented

    # -- analysis -----------------------------------------------------------

    def __call__(self, point):
        """Evaluate by Horner's rule; accepts a scalar or a Poly (composition)."""
        nums = self.nums
        if isinstance(point, Poly):
            # for point = P / dp: sum n_i P^i dp^(d-i) / (den dp^d), by Horner on int lists
            if len(nums) < 2 or not point.nums:
                return Poly.constant(self.coeff(0))
            pn, dp = point.nums, point.den
            acc, scale = [nums[-1]], 1
            for n in reversed(nums[:-1]):
                scale *= dp
                acc = _convolve(acc, pn)
                acc[0] += n * scale
            return Poly._from_ints(acc, self.den * scale)
        u, v = _num_den(point)
        if not nums:
            return Fraction(0)
        # for point = u/v: sum n_i u^i v^(d-i) / (den v^d), by Horner on ints
        acc, scale = nums[-1], 1
        for n in reversed(nums[:-1]):
            scale *= v
            acc = acc * u + n * scale
        return Fraction(acc, self.den * scale)

    def derivative(self, times: int = 1) -> "Poly":
        if times <= 0:
            return self
        nums = self.nums
        return Poly._from_ints([nums[i] * math.perm(i, times) for i in range(times, len(nums))], self.den)

    def shift(self, c: Scalar) -> "Poly":
        """Substitute x -> x + c: the composition of this polynomial with x + c."""
        u, v = _num_den(c)
        return self(_wrap((u, v), v)) if u else self

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return Poly._from_ints(self.nums, self.nums[-1])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd by a primitive remainder sequence over the integers.

        The gcd of zero and b is b made monic; the gcd of two zeros is zero.
        """
        if len(self.nums) == 1 or len(other.nums) == 1:
            return ONE  # a nonzero constant divides everything
        a = _primitive_ints(self.nums)
        b = _primitive_ints(other.nums)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _primitive_ints(_pseudo_divide(a, b)[1])
        if not a:
            return ZERO
        return Poly._from_ints(a, a[-1])

    # -- protocol -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

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
        """The coefficients as `rat_str` strings, each reduced by one gcd."""
        den = self.den
        out = []
        for c in self.nums:
            g = math.gcd(c, den)
            out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        return out

    @classmethod
    def from_json(cls, items: Sequence[Union[str, int]]) -> "Poly":
        return cls([rat(s) for s in _as_list(items, "coefficients")])


_new_object = object.__new__
_set_slot = object.__setattr__


def _wrap(nums: tuple, den: int) -> Poly:
    """The Poly nums / den, for nums and den already in canonical form."""
    p = _new_object(Poly)
    _set_slot(p, "nums", nums)
    _set_slot(p, "den", den)
    return p


ZERO = _wrap((), 1)
ONE = _wrap((1,), 1)
X = _wrap((0, 1), 1)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return NotImplemented


def _exact(value) -> Fraction:
    """value as a Fraction; a float is refused, not read as its binary value."""
    if isinstance(value, float):
        raise TypeError(f"an exact scalar must be an int or a Fraction, got the float {value!r}")
    return Fraction(value)


def _num_den(value):
    """Numerator and positive denominator of an int or rational scalar."""
    if type(value) is int:
        return value, 1
    if not isinstance(value, Fraction):
        value = _exact(value)
    return value.numerator, value.denominator


def _sum(a, da: int, b, db: int) -> Poly:
    """a / da + b / db for int sequences a and b."""
    if da != db:
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        if sa != 1:
            a = [sa * c for c in a]
        if sb != 1:
            b = [sb * c for c in b]
        da *= sa
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return Poly._from_ints(out, da)


def _convolve(a, b) -> list:
    """The product of two nonempty int coefficient sequences."""
    if len(a) > len(b):
        a, b = b, a  # the shorter one outside: one pass over the longer per entry
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _primitive_ints(ints):
    """The integer list divided by its content (the gcd of its entries)."""
    g = math.gcd(*ints)
    return ints if g <= 1 else [c // g for c in ints]


def _pseudo_divide(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Integer pseudo-division of trimmed int lists, for len(a) >= len(b).

    Returns (quot, rem, s) with s * a = quot * b + rem, rem trimmed and shorter
    than b. Each step cancels the leading term with the smallest integer
    multipliers, so the rows grow only by the cofactor of the gcd of the two
    leads, and s is the product of those cofactors.
    """
    rem = list(a)
    db = len(b) - 1
    lead, tail = b[-1], b[:-1]
    steps = []  # (t, s) for each quotient term, highest power first
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem.pop()
        if not c:
            steps.append((0, 1))
            continue
        g = math.gcd(c, lead)
        s, t = lead // g, c // g
        if s != 1:
            rem = [s * v for v in rem]
        steps.append((t, s))
        for j, v in enumerate(tail, i - db):
            rem[j] -= t * v
    # a term is scaled by the multipliers of the steps after it
    quot, scale = [], 1
    for t, s in reversed(steps):
        quot.append(t * scale)
        scale *= s
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem, scale


class RationalFunction(Frozen):
    """Reduced quotient of two polynomials with a monic denominator.

    The constructor reduces, and a sum or a quotient is reduced there. A product
    cross-cancels its reduced operands, so it is reduced as it stands and skips
    the constructor's gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = num if isinstance(num, Poly) else Poly.constant(num)  # a float is refused by name
        den = den if isinstance(den, Poly) else Poly.constant(den)
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
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        # a negation keeps the quotient reduced and the denominator monic
        return _wrap_rf(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        # cross-cancelled, the two reduced quotients multiply to a reduced one
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num.div_exact(g1) if g1.degree != 0 else self.num
        d2 = other.den.div_exact(g1) if g1.degree != 0 else other.den
        n2 = other.num.div_exact(g2) if g2.degree != 0 else other.num
        d1 = self.den.div_exact(g2) if g2.degree != 0 else self.den
        return _wrap_rf(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __call__(self, point) -> Fraction:
        point = _exact(point)
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num(point) / d

    def shift(self, c: Scalar) -> "RationalFunction":
        # a shift keeps the quotient reduced and the denominator monic
        return _wrap_rf(self.num.shift(c), self.den.shift(c))

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


def _wrap_rf(num: Poly, den: Poly) -> RationalFunction:
    """The RationalFunction num / den, for a reduced pair with a monic den."""
    rf = _new_object(RationalFunction)
    _set_slot(rf, "num", num)
    _set_slot(rf, "den", den)
    return rf


def _as_rf(value):
    if isinstance(value, RationalFunction):
        return value
    value = _as_poly(value)
    return value if value is NotImplemented else _wrap_rf(value, ONE)


def pochhammer(base, count: int):
    """Rising factorial base (base+1) ... (base+count-1); empty product is 1.

    Returns a Fraction for scalar input and a Poly for polynomial input; either
    is one product of ints over one denominator, reduced once.
    """
    if count < 0:
        raise ValueError("pochhammer count must be nonnegative")
    if isinstance(base, Poly):
        # base + i = (nums + i den) / den: one int product over one denominator den^count
        nums, den = list(base.nums) or [0], base.den
        acc = [1]
        for i in range(count):
            acc = _convolve(acc, [nums[0] + i * den, *nums[1:]])
        return Poly._from_ints(acc, den**count)
    # base = u/v: the product of the u + i v over v^count
    u, v = _num_den(base)
    result = 1
    for i in range(count):
        result *= u + i * v
    return Fraction(result, v**count)


def _combination(terms) -> Poly:
    """sum w u over the (w, u) pairs of exact rational weights w and Polys u: one int
    linear combination over the lcm of the products w.denominator * u.den, reduced once."""
    scaled = [(*_num_den(w), u) for w, u in terms]
    den = math.lcm(*[v * u.den for _, v, u in scaled])
    acc = [0] * max(len(u.nums) for _, _, u in scaled)
    for n, v, u in scaled:
        k = n * (den // (v * u.den))
        for i, c in enumerate(u.nums):
            acc[i] += k * c
    return Poly._from_ints(acc, den)


def anti_difference(f: Poly) -> Poly:
    """The polynomial g with g(x) - g(x-1) = f(x) and zero constant term. As x^k - (x-1)^k =
    sum_{i<k} (-1)^(k-i+1) C(k, i) x^i, g's coefficients solve (i+1) c_(i+1) = f_i +
    sum_{k>i+1} (-1)^(k-i) C(k, i) c_k, top first: a triangular system of determinant
    (deg f + 1)!, so the c_k are ints over (deg f + 1)! f.den and each division is exact."""
    top = len(f.nums)  # deg g
    scale = math.factorial(top)
    c = [0] * (top + 1)
    for i in range(top - 1, -1, -1):
        acc = scale * f.nums[i]
        for k in range(i + 2, top + 1):
            term = math.comb(k, i) * c[k]
            acc += -term if (k - i) % 2 else term
        c[i + 1] = acc // (i + 1)
    return Poly._from_ints(c, scale * f.den)


def theta_poly(alpha, beta) -> Poly:
    """theta_x = x (x + alpha + beta + 1)."""
    return Poly([0, _exact(alpha) + _exact(beta) + 1, 1])


def _reflection_quotient(f: Poly, alpha, beta, odd: int) -> Poly:
    """The g with f = y^odd g(theta_x), y = x + (s+1)/2 and s = alpha + beta.

    In y the reflection x -> -(x+s+1) is y -> -y, so f is invariant exactly
    when f(y - (s+1)/2) has no odd powers of y, and skew exactly when it has no
    even ones; y^2 = theta_x + ((s+1)/2)^2 finishes the change of basis.
    """
    half = (_exact(alpha) + _exact(beta) + 1) / 2
    fy = f.shift(-half)
    if any(fy.nums[1 - odd :: 2]):
        if odd:
            raise NotSkewError("polynomial is not skew invariant under x -> -(x+s+1)")
        raise NotInvariantError("polynomial is not invariant under x -> -(x+s+1)")
    return Poly._from_ints(fy.nums[odd::2], fy.den).shift(half * half)


def to_theta_basis(f: Poly, alpha, beta) -> Poly:
    """Rewrite a reflection-invariant polynomial of x as a polynomial in theta_x."""
    return _reflection_quotient(f, alpha, beta, 0)


def divide_skew_by_sigma(f: Poly, alpha, beta) -> Poly:
    """For skew-invariant f, the quotient f / (2x+alpha+beta+1) in the theta basis.

    The linear factor is sigma_{x+1} = 2y, so the quotient is half the g with f = y g(theta_x).
    """
    return _reflection_quotient(f, alpha, beta, 1) / 2


def falling_binomial(top, k: int) -> Fraction:
    """Generalized binomial C(top, k) for integer k >= 0 (0 for k < 0)."""
    if k < 0:
        return Fraction(0)
    return pochhammer(_exact(top) - k + 1, k) / math.factorial(k)
