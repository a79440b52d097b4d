"""Exact scalar/polynomial/rational-function arithmetic and transforms."""

import math
import operator
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_reference import (
    involute,
    reference_add,
    reference_anti_difference,
    reference_derivative,
    reference_det,
    reference_divmod,
    reference_eval,
    reference_gcd,
    reference_monic,
    reference_mul,
    reference_neg,
    reference_pochhammer,
    reference_rational_parts,
    reference_scalar_div,
    reference_scale,
    reference_shift,
    reference_sub,
    reference_substitute,
)

from jacobisobolev import _linalg
from jacobisobolev.construct import ZSystem, build_z
from jacobisobolev.diffop import DiffOp
from jacobisobolev.exactmath import (
    NEG_INFINITY,
    ONE,
    ZERO,
    X,
    NotInvariantError,
    NotSkewError,
    Poly,
    RationalFunction,
    anti_difference,
    divide_skew_by_sigma,
    falling_binomial,
    pochhammer,
    rat,
    rat_str,
    theta_poly,
    to_theta_basis,
)
from jacobisobolev.jacobi import JacobiContext
from jacobisobolev.sobolev import SobolevConfig

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
small_polys = st.lists(rationals, min_size=0, max_size=6).map(Poly)

# wide numerators and denominators, so the common-denominator scaling and the
# integer remainder sequence meet coefficients of very different sizes
wide_rationals = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12)
)
wide_polys = st.lists(wide_rationals, min_size=0, max_size=8).map(Poly)
constant_polys = st.lists(wide_rationals, min_size=0, max_size=1).map(Poly)
nonzero_polys = st.lists(wide_rationals, min_size=1, max_size=5).map(Poly).filter(bool)
negative_lead_polys = nonzero_polys.map(lambda p: -p if p.lead > 0 else p)
kernel_operands = st.one_of(small_polys, wide_polys, constant_polys, negative_lead_polys)
nonzero_constants = st.one_of(rationals, wide_rationals).filter(bool).map(Poly.constant)
monic_polys = nonzero_polys.map(Poly.monic)
scalars = st.one_of(st.integers(-50, 50), rationals, wide_rationals)
# non-monic divisors, with a negative lead among them
divisors = st.one_of(nonzero_polys, negative_lead_polys, nonzero_constants, small_polys.filter(bool))
# k x (k+1) polynomial matrices, k = 0..4
wide_matrices = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(small_polys, min_size=k + 1, max_size=k + 1), min_size=k, max_size=k)
)


def assert_canonical(p):
    """nums trimmed, den > 0, gcd(den, *nums) = 1, and the Fraction view agrees."""
    assert isinstance(p, Poly)
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1
    assert p.coeffs == tuple(Fraction(c, p.den) for c in p.nums)
    again = Poly(p.coeffs)  # the same polynomial by the Fraction route
    assert (again.nums, again.den) == (p.nums, p.den) and hash(again) == hash(p)
    return p


class TestPoly:
    def test_zero_degree_sentinel(self):
        assert Poly([]).degree is NEG_INFINITY
        assert Poly([0, 0]).degree is NEG_INFINITY
        assert Poly([0, 0, 5]).degree == 2

    def test_arithmetic_and_evaluation(self):
        p = (X + 1) * (X + 2)
        assert p == Poly([2, 3, 1])
        assert p(Fraction(1, 2)) == Fraction(15, 4)
        q, r = divmod(p, X + 1)
        assert q == X + 2 and r.is_zero

    def test_div_exact_rejects_remainder(self):
        with pytest.raises(ValueError):
            (X + 1).div_exact(X)

    def test_zero_has_lead_zero(self):
        assert ZERO.lead == 0 and X.lead == 1

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative power"):
            X**-1

    def test_divmod_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            divmod(X, ZERO)

    def test_composition_shift_derivative(self):
        p = X * X + 3 * X
        assert p(X - 1) == p.shift(-1)
        assert p.derivative() == 2 * X + 3

    @given(small_polys, small_polys)
    @settings(max_examples=50, deadline=None)
    def test_ring_laws(self, p, q):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * p == p * p + q * p

    @given(kernel_operands, kernel_operands)
    @settings(max_examples=200, deadline=None)
    def test_mul_matches_schoolbook(self, p, q):
        assert assert_canonical(p * q) == reference_mul(p, q)

    @given(kernel_operands, kernel_operands)
    @example(Poly([-1, 0, 1]) * Poly([3, 2]), Poly([-1, 0, 1]) * Poly([-5, Fraction(1, 3)]))  # common x^2 - 1
    @settings(max_examples=200, deadline=None)
    def test_gcd_matches_euclid(self, p, q):
        assert assert_canonical(p.gcd(q)) == reference_gcd(p, q)
        assert assert_canonical(p.monic()) == reference_monic(p)

    @given(nonzero_polys, kernel_operands, kernel_operands)
    @settings(max_examples=100, deadline=None)
    def test_gcd_of_common_factor_products(self, f, g, h):
        a, b = f * g, f * h
        got = a.gcd(b)
        assert got == reference_gcd(a, b)
        if not (a.is_zero and b.is_zero):
            assert got.lead == 1
            assert (a % got).is_zero and (b % got).is_zero
            assert (got % f).is_zero

    @given(kernel_operands)
    @settings(max_examples=50, deadline=None)
    def test_gcd_with_zero(self, b):
        assert ZERO.gcd(b) == b.monic()
        assert b.gcd(ZERO) == b.monic()

    def test_gcd_of_two_zeros_is_zero(self):
        assert ZERO.gcd(ZERO) == ZERO

    @given(nonzero_constants, kernel_operands)
    @settings(max_examples=100, deadline=None)
    def test_gcd_with_constant_matches_euclid(self, c, b):
        assert c.gcd(b) == reference_gcd(c, b) == ONE
        assert b.gcd(c) == reference_gcd(b, c) == ONE

    @pytest.mark.parametrize("c", [1, -1, Fraction(-7, 3), Fraction(10**30, 10**12 + 1)])
    def test_gcd_with_constant_pinned(self, c):
        c = Poly.constant(c)
        assert ZERO.gcd(c) == c.gcd(ZERO) == reference_gcd(ZERO, c) == ONE
        assert ZERO.gcd(ZERO) == reference_gcd(ZERO, ZERO) == ZERO

    @given(kernel_operands, st.one_of(rationals, wide_rationals, st.integers(-50, 50)))
    @settings(max_examples=200, deadline=None)
    def test_shift_and_evaluation_match_horner(self, p, c):
        assert assert_canonical(p.shift(c)) == reference_shift(p, c)
        value = p(c)
        assert isinstance(value, Fraction)
        assert value == reference_eval(p, c)

    @pytest.mark.parametrize("c", [0, 3, -2, Fraction(6, 7), Fraction(-6, 7), Fraction(1, 10**15)])
    def test_shift_and_evaluation_pinned(self, c):
        p = Poly([Fraction(1, 3), -2, 0, Fraction(5, 4), 7])
        assert p.shift(c) == reference_shift(p, c)
        assert p(c) == reference_eval(p, c)
        assert ZERO.shift(c) == ZERO
        assert ZERO(c) == Fraction(0) and isinstance(ZERO(c), Fraction)
        assert Poly([Fraction(2, 3)]).shift(c) == Poly([Fraction(2, 3)])

    def test_json_round_trip(self):
        p = Poly([Fraction(1, 3), 0, -2])
        assert Poly.from_json(p.to_json()) == p
        assert rat(rat_str(Fraction(-4, 6))) == Fraction(-2, 3)

    @pytest.mark.parametrize("value", [True, False])
    def test_rat_rejects_bool(self, value):
        # a bool is an int, and JSON true would otherwise parse as 1
        with pytest.raises(TypeError, match="a rational must be"):
            rat(value)
        with pytest.raises(TypeError):
            Poly.from_json([value])

    def test_rat_refuses_a_float(self):
        # Fraction(str(0.1)) happened to read 1/10, but 1e-400 was read as 0
        for value in (0.1, 1e-400):
            with pytest.raises(TypeError, match=f"the float {value!r}"):
                rat(value)
        assert rat("1e-400") == Fraction(1, 10**400)
        assert rat(Fraction("12345678901234567891.0")) == 12345678901234567891

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit")
    def test_rat_refuses_an_exponent_past_the_digit_limit(self):
        # 10^e with e past the limit would take seconds to hours to build, as a literal of e digits
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert rat("1e4300") == 10**4300 and rat("-2.5E-4300") == Fraction(-1, 4 * 10**4299)
            for value in ("1e4301", "1E-4301", "1e+30000000", " 5e30000000 "):
                with pytest.raises(ValueError, match="exponent"):
                    rat(value)
            sys.set_int_max_str_digits(0)  # with the limit off, nothing is refused
            assert rat("1e4301") == 10**4301
        finally:
            sys.set_int_max_str_digits(limit)


def value_instances():
    cfg = SobolevConfig(alpha=3, beta=2, m1=2, m2=1, M=[[1, 0], [2, 1]], N=[[1]])
    return {
        SobolevConfig: cfg,
        JacobiContext: JacobiContext(3, Fraction(1, 2)),
        ZSystem: build_z(cfg),
        DiffOp: DiffOp([ONE, X]),
        Poly: Poly([1, Fraction(2, 3)]),
        RationalFunction: RationalFunction(ONE, X + 1),
    }


class TestValueClasses:
    """Every value class is frozen by the one `Frozen` guard; the four without
    a canonical form of their own compare only with their own class."""

    @pytest.mark.parametrize("cls", list(value_instances()), ids=lambda cls: cls.__name__)
    def test_immutable_and_compared_within_its_class(self, cls):
        values = value_instances()
        value = values.pop(cls)
        for name in ("den", "coeffs", "alpha", "z", "new_name"):
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                setattr(value, name, 1)
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                delattr(value, name)
        if cls not in (Poly, RationalFunction):  # these two coerce scalars in ==
            for other in values.values():
                assert value.__eq__(other) is NotImplemented and value != other
            assert value.__eq__(value._key()) is NotImplemented


class TestIntegerLayout:
    """Each operation on int numerators over one denominator against the
    Fraction-coefficient reference, compared with ==, and in canonical form."""

    @given(kernel_operands, kernel_operands)
    @settings(max_examples=200, deadline=None)
    def test_add_sub_neg(self, p, q):
        assert assert_canonical(p + q) == reference_add(p, q)
        assert assert_canonical(p - q) == reference_sub(p, q)
        assert assert_canonical(-p) == reference_neg(p)
        assert assert_canonical(p - p) == ZERO

    @given(kernel_operands, scalars)
    @settings(max_examples=200, deadline=None)
    def test_scalar_mul_div_add(self, p, c):
        assert assert_canonical(p * c) == assert_canonical(c * p) == reference_scale(p, c)
        assert assert_canonical(p + c) == assert_canonical(c + p) == reference_add(p, Poly([c]))
        assert assert_canonical(p - c) == reference_sub(p, Poly([c]))
        assert assert_canonical(c - p) == reference_sub(Poly([c]), p)
        if c:
            assert assert_canonical(p / c) == reference_scalar_div(p, c)
        else:
            with pytest.raises(ZeroDivisionError):
                p / c

    @given(kernel_operands, divisors)
    @example(Poly([-1, 0, 0, 0, 1]), Poly([-1, 0, 1]))  # quotient x^2 + 1: a zero step in the loop
    @example(Poly([1, 2]), Poly([1, 0, 3]))  # dividend shorter than the divisor
    @example(Poly([Fraction(5, 3), -1, 0, 7]), Poly([Fraction(1, 2), Fraction(-3, 4)]))  # divisor over 4
    @settings(max_examples=300, deadline=None)
    def test_divmod(self, p, d):
        q, r = divmod(p, d)
        assert (assert_canonical(q), assert_canonical(r)) == reference_divmod(p, d)
        assert p % d == r
        assert q * d + r == p

    @pytest.mark.parametrize(
        "d", [Poly([1, -2]), Poly([3, 0, -5]), Poly([Fraction(1, 7), Fraction(-3, 10**12)]), Poly([-4])]
    )
    def test_divmod_by_negative_lead_pinned(self, d):
        p = Poly([Fraction(5, 3), -1, 0, 7, Fraction(10**30, 10**12 - 1)])
        q, r = divmod(p, d)
        assert (assert_canonical(q), assert_canonical(r)) == reference_divmod(p, d)

    @given(st.one_of(small_polys, constant_polys), st.one_of(small_polys, constant_polys, negative_lead_polys))
    @settings(max_examples=100, deadline=None)
    def test_substitute(self, p, q):
        assert assert_canonical(p(q)) == reference_substitute(p, q)

    @given(kernel_operands, st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_derivative(self, p, times):
        assert assert_canonical(p.derivative(times)) == reference_derivative(p, times)

    @given(kernel_operands)
    @settings(max_examples=100, deadline=None)
    def test_to_json_matches_rat_str(self, p):
        assert p.to_json() == [rat_str(c) for c in p.coeffs]

    @given(kernel_operands, kernel_operands, st.one_of(rationals, wide_rationals).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_equal_hash_across_routes(self, p, q, c):
        d = q or ONE
        routes = [
            Poly(p.coeffs),
            Poly.from_json(p.to_json()),
            (p + q) - q,
            (p * c) / c,
            p.shift(c).shift(-c),
            divmod(p * d, d)[0],
        ]
        for other in routes:
            assert other == p and hash(other) == hash(p)

    def test_coefficient_views(self):
        p = Poly([Fraction(1, 6), 0, Fraction(-3, 4)])
        assert Poly.__slots__ == ("nums", "den")
        assert (p.nums, p.den) == ((2, 0, -9), 12)
        assert p.coeffs == (Fraction(1, 6), Fraction(0), Fraction(-3, 4))
        assert p.lead == Fraction(-3, 4) and p.coeff(0) == Fraction(1, 6) and p.coeff(5) == 0
        assert (ZERO.nums, ZERO.den) == ((), 1) and ZERO.coeffs == ()

    def test_results_reduced_once_pinned(self):
        # the full product over da * db, or the scaled numerators, share a factor with the
        # denominator that one gcd in Poly._from_ints takes out
        p = Poly([Fraction(2, 9), Fraction(4, 9)])  # (2 + 4x) / 9
        q = Poly([Fraction(3, 4), Fraction(3, 2)])  # (3 + 6x) / 4
        r = Poly([Fraction(1, 2), Fraction(1, 6)])  # (3 + x) / 6
        s, t = Poly([0, Fraction(1, 2), 1]), Poly([Fraction(-1, 2), 0, 1])
        third, neg, neg_div = Fraction(1, 3), Fraction(-3, 4), Fraction(-6, 5)
        cases = [
            (p * q, reference_mul(p, q), (1, 4, 4), 6),  # both denominators cancel
            (r * Poly([6, 4]), reference_mul(r, Poly([6, 4])), (9, 9, 2), 3),  # one of them
            (p * neg, reference_scale(p, neg), (-1, -2), 6),
            (neg * p, reference_scale(p, neg), (-1, -2), 6),
            (p / neg_div, reference_scalar_div(p, neg_div), (-5, -10), 27),
            (p * 0, reference_scale(p, 0), (), 1),
            (0 * p, reference_scale(p, 0), (), 1),
            (third - p, reference_sub(Poly([third]), p), (1, -4), 9),
            (s - t, reference_sub(s, t), (1, 1), 2),  # the leads cancel
        ]
        for got, reference, nums, den in cases:
            assert assert_canonical(got) == reference
            assert (got.nums, got.den) == (nums, den)
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                p / zero


class TestOperandProtocol:
    """An unsupported operand gives Python's own TypeError, not an internal error."""

    @pytest.mark.parametrize(
        "op, symbol, left, right",
        [
            (divmod, "divmod()", "Poly", "float"),
            (lambda a, b: a % b, "%", "Poly", "float"),
            (lambda a, b: a - b, "-", "Poly", "float"),
            (lambda a, b: b - a, "-", "float", "Poly"),
        ],
    )
    def test_float_operand_rejected(self, op, symbol, left, right):
        message = rf"unsupported operand type\(s\) for {re.escape(symbol)}: '{left}' and '{right}'"
        with pytest.raises(TypeError, match=message):
            op(X + 1, 1.5)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Poly([0.1]),
            lambda: Poly([1, 0.5]),
            lambda: Poly.constant(0.5),
            lambda: (X + 1)(0.5),
            lambda: (X * X).shift(0.5),
            lambda: RationalFunction(X, X + 1)(0.1),
            lambda: pochhammer(0.1, 2),
            lambda: falling_binomial(0.1, 2),
            lambda: theta_poly(0.1, 0),
            lambda: RationalFunction(X, X + 1).shift(0.5),
            lambda: to_theta_basis(ONE, 0, 0.1),
            lambda: divide_skew_by_sigma(ZERO, 0.1, 0),
            lambda: rat_str(0.1),
        ],
    )
    def test_float_coefficient_or_point_rejected(self, make):
        # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(TypeError, match="float"):
            make()

    @pytest.mark.parametrize(
        "op, symbol", [(operator.add, "+"), (operator.sub, "-"), (operator.mul, "*"), (operator.truediv, "/")]
    )
    def test_rational_function_with_float_rejected(self, op, symbol):
        message = rf"unsupported operand type\(s\) for {re.escape(symbol)}: 'RationalFunction' and 'float'"
        with pytest.raises(TypeError, match=message):
            op(RationalFunction(ONE, X + 1), 1.5)

    def test_float_minus_rational_function_rejected(self):
        message = r"unsupported operand type\(s\) for -: 'float' and 'RationalFunction'"
        with pytest.raises(TypeError, match=message):
            1.5 - RationalFunction(ONE, X + 1)

    @pytest.mark.parametrize("left, name", [(1.5, "float"), ("a", "str")])
    def test_bad_operand_divided_by_rational_function_rejected(self, left, name):
        message = rf"unsupported operand type\(s\) for /: '{name}' and 'RationalFunction'"
        with pytest.raises(TypeError, match=message):
            left / RationalFunction(X, X + 1)

    @pytest.mark.parametrize("make", [lambda: RationalFunction(1.5), lambda: RationalFunction(X, 0.5)])
    def test_float_rational_function_part_rejected(self, make):
        with pytest.raises(TypeError, match="the float"):
            make()

    def test_negative_monomial_power_rejected(self):
        with pytest.raises(ValueError):
            Poly.monomial(-1)
        assert Poly.monomial(0, 3) == Poly([3]) and Poly.monomial(2) == X * X


square_polys = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(small_polys, min_size=k, max_size=k), min_size=k, max_size=k)
)
square_rationals = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(wide_rationals, min_size=k, max_size=k), min_size=k, max_size=k)
)


# ints and wide rationals mixed in one row, so the rows scale by unrelated lcms
square_mixed = st.integers(0, 4).flatmap(
    lambda k: st.lists(
        st.lists(st.one_of(st.integers(-(10**20), 10**20), wide_rationals), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
)


class TestDeterminant:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(square_polys, square_rationals))
    def test_matches_leibniz(self, matrix):
        assert _linalg.det(matrix) == reference_det(matrix)

    @settings(max_examples=60, deadline=None)
    @given(square_mixed)
    def test_int_and_fraction_entries(self, matrix):
        value = _linalg.det(matrix)
        assert type(value) is Fraction and value == reference_det(matrix)

    def test_int_and_empty_matrices_give_a_fraction(self):
        for matrix, expected in (([[2, 1], [1, 3]], 5), ([[7]], 7), ([], 1)):
            value = _linalg.det(matrix)
            assert type(value) is Fraction and value == expected

    def test_non_square_rejected(self):
        for matrix in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
            with pytest.raises(ValueError, match="non-square"):
                _linalg.det(matrix)

    def test_rational_function_entries(self):
        f = RationalFunction(X + 1, X - 2)
        g = RationalFunction(ONE, X + 3)
        matrix = [[f, g, ONE], [g * g, f, X], [X, f * g, g]]
        assert _linalg.det(matrix) == reference_det(matrix)


class TestMaximalMinors:
    @settings(max_examples=60, deadline=None)
    @given(wide_matrices)
    def test_matches_det_without_each_column(self, rows):
        expected = [reference_det([row[:j] + row[j + 1 :] for row in rows]) for j in range(len(rows) + 1)]
        assert _linalg.maximal_minors(rows) == expected

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            _linalg.maximal_minors([[1, 2], [3, 4]])


class TestRationalFunction:
    def test_reduction_and_monic_denominator(self):
        f = RationalFunction((X + 1) * (X + 2), 2 * (X + 1))
        assert f.den == ONE  # common factor and constant denominator removed
        assert f.num == Poly([1, Fraction(1, 2)])
        g = RationalFunction(X, 3 * (X + 1))
        assert g.den == X + 1 and g.num == Poly([0, Fraction(1, 3)])

    @given(kernel_operands, st.one_of(monic_polys, nonzero_polys, nonzero_constants))
    @settings(max_examples=200, deadline=None)
    def test_normalisation_matches_divide_by_lead(self, num, den):
        f = RationalFunction(num, den)
        assert (f.num, f.den) == reference_rational_parts(num, den)
        assert f.den.lead == 1

    @pytest.mark.parametrize(
        "den", [ONE, X + 1, 3 * (X + 1), Poly([Fraction(1, 10**12), 0, Fraction(-(10**30), 7)])]
    )
    def test_normalisation_pinned(self, den):
        zero = RationalFunction(ZERO, den)
        assert (zero.num, zero.den) == reference_rational_parts(ZERO, den) == (ZERO, ONE)
        num = Poly([Fraction(10**30, 7), -1, Fraction(1, 10**12)])
        f = RationalFunction(num, den)
        assert (f.num, f.den) == reference_rational_parts(num, den)

    def test_evaluation_and_pole(self):
        f = RationalFunction(ONE, X)
        assert f(2) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            f(0)

    def test_as_poly_rejects_a_denominator(self):
        assert RationalFunction(X * X, X).as_poly() == X
        with pytest.raises(ValueError, match="not a polynomial"):
            RationalFunction(ONE, X).as_poly()

    @given(small_polys, small_polys)
    @settings(max_examples=30, deadline=None)
    def test_field_laws(self, p, q):
        f = RationalFunction(p, X * X + 1)
        g = RationalFunction(q, X + 3)
        assert f + g == g + f
        assert (f + g) - g == f


# products of a few shared factors, so that denominators meet with gcd 1, with a
# common factor that the sum keeps, and with one that the sum cancels
_FACTORS = (X, X + 1, X - 2, 2 * X + 3, X * X + 1, X * X - X + Fraction(1, 2))
factor_products = st.lists(st.sampled_from(_FACTORS), max_size=3).map(lambda fs: math.prod(fs, start=ONE))
shared_factor_rfs = st.builds(
    lambda f, p, g, c: RationalFunction(f * p, g * c),
    factor_products,
    st.one_of(small_polys, nonzero_constants),
    factor_products,
    nonzero_constants,
)


def _parts(value):
    """(num, den) of a RationalFunction, Poly or scalar operand."""
    if isinstance(value, RationalFunction):
        return value.num, value.den
    return (value if isinstance(value, Poly) else Poly.constant(value)), ONE


def schoolbook(op, left, right):
    """The unreduced (num, den) of left op right by the textbook formulas."""
    (a, b), (c, d) = _parts(left), _parts(right)
    if op is operator.mul:
        return reference_mul(a, c), reference_mul(b, d)
    if op is operator.truediv:
        return reference_mul(a, d), reference_mul(b, c)
    combine = reference_add if op is operator.add else reference_sub
    return combine(reference_mul(a, d), reference_mul(c, b)), reference_mul(b, d)


@st.composite
def rf_operand_pairs(draw):
    """(f, g): f a RationalFunction; g another one, one that cancels part or all of
    f's denominator in f + g, or a Poly or scalar."""
    f = draw(shared_factor_rfs)
    kind = draw(st.sampled_from(["any", "cancel", "negate", "poly", "scalar"]))
    if kind == "any":
        return f, draw(shared_factor_rfs)
    if kind == "cancel":  # g = h - f, so that f + g = h
        return f, RationalFunction(*schoolbook(operator.sub, draw(shared_factor_rfs), f))
    if kind == "negate":
        return f, RationalFunction(reference_neg(f.num), f.den)
    if kind == "poly":
        return f, draw(st.one_of(small_polys, factor_products))
    return f, draw(scalars)


class TestRationalFunctionArithmetic:
    """+, -, * and / against the reduced textbook formulas, on either side."""

    @given(rf_operand_pairs())
    # a divisor whose numerator is not monic, and a zero divisor
    @example((RationalFunction(X + 1, X), RationalFunction(Fraction(-3, 2) * X * X + 1, X - 2)))
    @example((RationalFunction(X + 1, X), RationalFunction(ZERO)))
    @settings(max_examples=150, deadline=None)
    def test_matches_schoolbook(self, pair):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for left, right in (pair, pair[::-1]):
                if op is operator.truediv and _parts(right)[0].is_zero:
                    with pytest.raises(ZeroDivisionError):
                        op(left, right)
                    continue
                result = op(left, right)
                assert type(result) is RationalFunction
                assert (result.num, result.den) == reference_rational_parts(*schoolbook(op, left, right))
                # canonical: a monic denominator coprime to the numerator
                assert result.den.lead == 1 and reference_gcd(result.num, result.den) == ONE

    @pytest.mark.parametrize(
        "f, g, expected",
        [
            # coprime denominators: nothing cancels
            (RationalFunction(ONE, X), RationalFunction(ONE, X + 1), RationalFunction(2 * X + 1, X * X + X)),
            # a shared factor x of the denominators stays in the sum's denominator once
            (RationalFunction(ONE, X * (X + 1)), RationalFunction(ONE, X), RationalFunction(X + 2, X * (X + 1))),
            # the sum's numerator takes the shared factor x, and the sum is a polynomial
            (RationalFunction(ONE, X), RationalFunction(X - 1, X), RationalFunction(ONE)),
            # cancellation to zero
            (RationalFunction(ONE, X + 1), RationalFunction(-ONE, X + 1), RationalFunction(ZERO)),
        ],
    )
    def test_sum_cases_pinned(self, f, g, expected):
        total = f + g
        assert (total.num, total.den) == (expected.num, expected.den)
        assert (f - (-g)) == total == g + f


class TestPochhammer:
    def test_integer_base(self):
        assert pochhammer(3, 4) == Poly.constant(360)

    def test_empty_product(self):
        assert pochhammer(X, 0) == ONE

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pochhammer(X, -1)

    def test_polynomial_base(self):
        assert pochhammer(X + 1, 2) == X * X + 3 * X + 2

    @given(
        st.one_of(
            # linear bases lead x + c, with int and non-integer constants and leads
            st.builds(
                lambda lead, c: lead * X + c,
                st.sampled_from([1, 2, -1, Fraction(3, 2)]),
                st.one_of(st.integers(-9, 9), rationals, wide_rationals),
            ),
            st.lists(rationals, min_size=0, max_size=3).map(Poly),  # zero, constants and quadratics
        ),
        st.integers(0, 8),
    )
    @example(X - 3, 8)
    @example(X + Fraction(1, 2), 8)
    @example(2 * X + 1, 8)
    @example(X * X / 2 - Fraction(1, 3), 5)
    @example(Poly.constant(-3), 5)  # the factor base + 3 is zero
    @settings(max_examples=80, deadline=None)
    def test_polynomial_base_matches_schoolbook(self, base, count):
        assert assert_canonical(pochhammer(base, count)) == reference_pochhammer(base, count)

    @given(st.one_of(st.integers(-9, 9), rationals, wide_rationals), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_scalar_base_matches_fraction_product(self, base, count):
        want = Fraction(1)
        for i in range(count):
            want *= base + i
        got = pochhammer(base, count)
        assert type(got) is Fraction and got == want


class TestAntiDifference:
    def test_linear(self):
        g = anti_difference(2 * X)
        assert g == X * X + X

    def test_zero(self):
        assert anti_difference(Poly([])).is_zero

    def test_quadratic(self):
        g = anti_difference(3 * X * X)
        assert g == Poly([0, Fraction(1, 2), Fraction(3, 2), 1])

    @given(small_polys)
    @settings(max_examples=50, deadline=None)
    def test_defining_identity_and_linearity(self, f):
        g = anti_difference(f)
        assert g - g.shift(-1) == f
        assert g.coeff(0) == 0
        assert anti_difference(f + f) == g + g

    # degree 0..25 with wide coefficients; zero comes from the example
    @given(st.lists(wide_rationals, min_size=1, max_size=26).map(Poly))
    @example(Poly())
    @settings(max_examples=80, deadline=None)
    def test_triangular_solve_matches_reference(self, f):
        g = anti_difference(f)
        assert g == reference_anti_difference(f)
        assert g - g.shift(-1) == f and g(0) == 0


class TestInvolute:
    def test_linear_case(self):
        gamma = Fraction(3, 2)
        assert involute(X, gamma) == Poly([-gamma - 1, -1])

    def test_theta_fixed_point(self):
        for (a, b) in [(1, 1), (2, 5), (Fraction(1, 2), Fraction(7, 3))]:
            th = theta_poly(a, b)
            assert involute(th, Fraction(a) + Fraction(b)) == th

    @given(small_polys, rationals)
    @settings(max_examples=50, deadline=None)
    def test_involution_property(self, f, gamma):
        assert involute(involute(f, gamma), gamma) == f


class TestThetaBasis:
    def test_theta_itself(self):
        a, b = 2, 1
        assert to_theta_basis(theta_poly(a, b), a, b) == X

    def test_constant(self):
        assert to_theta_basis(Poly.constant(7), 3, 2) == Poly.constant(7)

    def test_worked_quadratic(self):
        # (x+1)(x+2) with theta = x(x+3) rewrites as theta + 2
        assert to_theta_basis((X + 1) * (X + 2), 1, 1) == X + 2

    def test_rejects_non_invariant(self):
        with pytest.raises(NotInvariantError):
            to_theta_basis(X, 1, 1)

    @given(st.lists(rationals, min_size=0, max_size=4).map(Poly))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, g):
        a, b = 2, 1
        f = g(theta_poly(a, b))
        assert to_theta_basis(f, a, b) == g


class TestDivideSkewBySigma:
    def test_sigma_itself(self):
        a, b = 2, 1
        sigma_next = Poly([a + b + 1, 2])  # 2x + alpha + beta + 1
        assert divide_skew_by_sigma(sigma_next, a, b) == ONE

    def test_zero(self):
        assert divide_skew_by_sigma(Poly([]), 1, 1).is_zero

    def test_product_round_trip(self):
        a, b = 1, 1
        sigma_next = Poly([a + b + 1, 2])
        f = sigma_next * (X + 5)(theta_poly(a, b))
        assert divide_skew_by_sigma(f, a, b) == X + 5

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewError):
            divide_skew_by_sigma(theta_poly(1, 1), 1, 1)


class TestReflectionParity:
    """to_theta_basis and divide_skew_by_sigma against the involute definition."""

    # alpha + beta is non-integer for some draws: the Fraction-shift path
    parameters = st.fractions(min_value=0, max_value=6, max_denominator=3)

    # zero comes from the examples; an empty draw would take a third of the runs
    @given(
        st.lists(rationals, min_size=1, max_size=4).map(Poly),
        st.sampled_from(["invariant", "skew", "mixed", "any"]),
        parameters,
        parameters,
    )
    @example(Poly(), "any", Fraction(1, 2), Fraction(0))
    @example(Poly([3]), "any", Fraction(1, 3), Fraction(1))
    @example(Poly([3]), "skew", Fraction(1, 3), Fraction(1))
    @example(Poly([0, 1]), "any", Fraction(1), Fraction(1))
    @settings(max_examples=80, deadline=None)
    def test_raises_exactly_when_involute_disagrees(self, g, kind, a, b):
        s = a + b
        theta = theta_poly(a, b)
        sigma_next = Poly([s + 1, 2])  # 2x + s + 1
        f = {"invariant": g(theta), "skew": sigma_next * g(theta), "mixed": g(theta) + X, "any": g}[kind]
        reflected = involute(f, s)
        if reflected == f:
            assert to_theta_basis(f, a, b)(theta) == f
        else:
            with pytest.raises(NotInvariantError):
                to_theta_basis(f, a, b)
        if reflected == -f:
            assert sigma_next * divide_skew_by_sigma(f, a, b)(theta) == f
        else:
            with pytest.raises(NotSkewError):
                divide_skew_by_sigma(f, a, b)
