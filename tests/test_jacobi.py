"""Classical Jacobi family: polynomials, weight moments, jets, operator."""

import functools
from fractions import Fraction

import pytest

import kernel_reference

from jacobisobolev import jacobi
from jacobisobolev.exactmath import ONE, IdentityCheckFailed, Poly, X
from jacobisobolev.certify import endpoint_jet, integrate_against_weight
from jacobisobolev.diffop import classical_operator
from jacobisobolev.jacobi import JacobiContext, jacobi_poly
from jacobisobolev.sobolev import _moments


def ctx(a, b):
    return JacobiContext(Fraction(a), Fraction(b))


# the expansion by powers is the slow part of these tests; each value is built once
reference_jacobi_poly = functools.cache(kernel_reference.reference_jacobi_poly)


class TestJacobiPoly:
    def test_degree_zero_is_one(self):
        assert jacobi_poly(ctx(2, 1), 0) == Poly([1])

    def test_negative_index_is_zero(self):
        assert jacobi_poly(ctx(2, 1), -1).is_zero
        assert jacobi_poly(ctx(2, 1), -3).is_zero

    def test_degree_one_closed_form(self):
        for (a, b) in [(2, 1), (3, 3), (0, 0)]:
            expected = Fraction(-(a + b + 1), 2 * (b + 1)) * Poly([a - b, a + b + 2])
            assert jacobi_poly(ctx(a, b), 1) == expected

    @pytest.mark.parametrize(
        "a, b", [(0, 0), (3, 2), (Fraction(1, 2), Fraction(-1, 3)), (7, 0)]
    )
    def test_matches_power_expansion(self, a, b, monkeypatch):
        # from an empty cache each call extends the family by one degree
        monkeypatch.setattr(jacobi, "_POLY_CACHE", {})
        c = ctx(a, b)
        for n in range(41):
            assert jacobi_poly(c, n) == reference_jacobi_poly(a, b, n)

    @pytest.mark.parametrize("a, b", [(0, 0), (7, 0), (Fraction(5, 3), Fraction(-7, 4))])
    def test_top_degree_first_fills_the_family(self, a, b, monkeypatch):
        # one call builds every lower degree by the recurrence and caches it
        cache = {}
        monkeypatch.setattr(jacobi, "_POLY_CACHE", cache)
        c = ctx(a, b)
        top = jacobi_poly(c, 40)
        assert len(cache[c.alpha, c.beta]) == 41
        assert top == reference_jacobi_poly(a, b, 40)
        for n in range(41):
            assert jacobi_poly(c, n) == reference_jacobi_poly(a, b, n)

    def test_interleaved_families_share_one_cache(self, monkeypatch):
        monkeypatch.setattr(jacobi, "_POLY_CACHE", {})
        first, second = (2, 0), (Fraction(1, 2), Fraction(3, 2))
        for n in [3, 1, 9, 0, 12, 20, 5, 24]:
            for a, b in (first, second):
                assert jacobi_poly(ctx(a, b), n) == reference_jacobi_poly(a, b, n)
            first, second = second, first

    def test_degree_is_exact(self):
        for n in range(9):
            assert jacobi_poly(ctx(3, 2), n).degree == n

    def test_degree_short_of_k_raises(self, monkeypatch):
        # a constant J_1 makes the recurrence's J_2 linear
        c = ctx(Fraction(11, 3), Fraction(5, 7))
        monkeypatch.setitem(jacobi._POLY_CACHE, (c.alpha, c.beta), [ONE, ONE])
        with pytest.raises(IdentityCheckFailed) as info:
            jacobi_poly(c, 2)
        assert (info.value.stage, info.value.identity) == ("jacobi_poly", "deg J_2 = 2")

    def test_eigenfunction_of_second_order_operator(self):
        for (a, b) in [(2, 1), (3, 3), (5, 2)]:
            c = ctx(a, b)
            op = classical_operator(c)
            for n in range(16):
                jn = jacobi_poly(c, n)
                assert op.apply(jn) == c.theta(n) * jn

    def test_classical_orthogonality(self):
        for (a, b) in [(1, 1), (2, 1)]:
            c = ctx(a, b)
            polys = [jacobi_poly(c, n) for n in range(11)]
            for n in range(11):
                for k in range(11):
                    val = integrate_against_weight(polys[n] * polys[k], a, b)
                    assert (val == 0) == (n != k)


class TestContext:
    def test_forbidden_parameters(self):
        with pytest.raises(ValueError):
            JacobiContext(Fraction(-1), Fraction(0))
        with pytest.raises(ValueError):
            JacobiContext(Fraction(2), Fraction(-3))
        with pytest.raises(ValueError):
            JacobiContext(Fraction(1), Fraction(-3))  # alpha + beta = -2

    def test_repr_eq_and_hash(self):
        # the repr text, and == and hash over (alpha, beta), are pinned
        c = JacobiContext(3, Fraction(1, 2))
        assert repr(c) == "JacobiContext(alpha=Fraction(3, 1), beta=Fraction(1, 2))"
        assert c == JacobiContext(Fraction(3), Fraction(2, 4)) and hash(c) == hash((Fraction(3), Fraction(1, 2)))
        assert c != JacobiContext(3, 1) and c != (Fraction(3), Fraction(1, 2))
        with pytest.raises(AttributeError):
            c.alpha = Fraction(1)

    def test_theta_and_sigma(self):
        c = ctx(2, 1)
        assert c.theta(3) == 3 * (3 + 2 + 1 + 1)
        assert c.sigma(4) == 2 * 4 + 2 + 1 - 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda: JacobiContext(0.1, 0),
            lambda: JacobiContext(0, 0.5),
            lambda: ctx(2, 1).theta(0.1),
            lambda: ctx(2, 1).sigma(0.1),
        ],
    )
    def test_float_parameter_rejected(self, make):
        # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(TypeError, match="float"):
            make()


class TestClassicalOperator:
    def test_first_degree_action(self):
        a, b = 3, 1
        op = classical_operator(ctx(a, b))
        assert op.apply(X) == Poly([a - b, a + b + 2])

    def test_kills_constants(self):
        assert classical_operator(ctx(2, 2)).apply(Poly([1])).is_zero

    def test_degree_three_eigenvalue(self):
        c = ctx(0, 0)
        j3 = jacobi_poly(c, 3)
        assert classical_operator(c).apply(j3) == 12 * j3

    def test_in_algebra(self):
        op = classical_operator(ctx(5, 2))
        assert op.order == 2
        assert op.in_algebra


def moments(a, b, count):
    nums, den = _moments(a, b, count)
    return [Fraction(c, den) for c in nums]


class TestWeightMoment:
    def test_interval_length(self):
        assert moments(0, 0, 1) == [2]

    def test_parabolic_weight(self):
        assert moments(1, 1, 1) == [Fraction(4, 3)]

    def test_odd_symmetry(self):
        assert moments(0, 0, 2)[1] == 0

    def test_matches_polynomial_integration(self):
        p = (X + 1) * (X - 2) * X
        direct = sum(p.coeff(k) * mu for k, mu in enumerate(moments(2, 1, 4)))
        assert integrate_against_weight(p, 2, 1) == direct

    def test_recurrence_matches_expansion(self):
        # a < b, a = b and a > b, each count from one moment to forty
        for a in range(9):
            for b in range(9):
                want = [kernel_reference.reference_weight_moment(a, b, k) for k in range(40)]
                for count in range(1, 41):
                    assert moments(a, b, count) == want[:count]


class TestEndpointJet:
    def test_constant(self):
        assert endpoint_jet(ctx(2, 2), 0, -1, 0) == 1

    def test_matches_direct_differentiation(self):
        for (a, b) in [(2, 2), (3, 1)]:
            c = ctx(a, b)
            for n in range(9):
                jn = jacobi_poly(c, n)
                for i in range(4):
                    for pt in (-1, 1):
                        assert endpoint_jet(c, n, pt, i) == jn.derivative(i)(pt)

    def test_alternating_sign_at_plus_one(self):
        c = ctx(2, 1)
        for n in range(8):
            value = endpoint_jet(c, n, 1, 0)
            assert value != 0
            assert (value > 0) == (n % 2 == 0)
