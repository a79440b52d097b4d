"""Differential-operator algebra and the eigenoperator pipeline."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import (
    reference_apply,
    reference_compose,
    reference_mh,
    reference_omega_entries,
    reference_op_poly,
    reference_p_from_y_tuple,
    xi,
)

from jacobisobolev import _linalg, diffop
from jacobisobolev.certify import degree_of_P_check, p_from_y_tuple
from jacobisobolev.construct import ZSystem, build_z, sobolev_poly
from jacobisobolev.diffop import (
    AssumptionFailed,
    _apply_band,
    _band,
    _omega,
    _scaled_rows,
    DiffOp,
    EigenMismatch,
    build_bundle,
    classical_operator,
    compose,
    d_operators,
    default_s,
    op_poly,
    operator_order,
    verify_eigen,
)
from jacobisobolev.exactmath import (
    ONE,
    IdentityCheckFailed,
    Poly,
    RationalFunction,
    X,
    involute,
    pochhammer,
    theta_poly,
)
from jacobisobolev.jacobi import JacobiContext, jacobi_poly
from jacobisobolev.rank import predicted_order
from jacobisobolev.sobolev import SobolevConfig

from conftest import (
    STANDARD_SHAPES,
    baseline_config,
    cached_bundle,
    cold_copy,
    degree_law_cases,
    random_configs,
    two_jet_config,
    two_jet_lowered_s,
)

small_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)
# large numerators over large, mutually unrelated denominators, so the common
# denominator of an operator is far from any one coefficient's
wide_rationals = st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**12))
coefficients = st.one_of(small_rationals, wide_rationals)
polys = st.lists(coefficients, max_size=6).map(Poly)


def algebra_coefficient(j):
    return st.lists(coefficients, max_size=j + 1).map(Poly)


def operators(max_order):
    """Zero, identity, in-algebra operators (also with zero middle coefficients)
    and ones that raise the degree, whose images reach above x^t."""
    in_algebra = st.integers(0, max_order).flatmap(
        lambda n: st.tuples(*[algebra_coefficient(j) for j in range(n + 1)])
    )
    sparse = st.integers(1, max_order).flatmap(
        lambda n: st.tuples(
            *[st.one_of(st.just(Poly()), algebra_coefficient(j)) for j in range(n)],
            algebra_coefficient(n).filter(lambda c: not c.is_zero),
        )
    )
    return st.one_of(
        st.just(DiffOp()),
        st.just(DiffOp.identity()),
        in_algebra.map(DiffOp),
        sparse.map(DiffOp),
        st.lists(st.lists(coefficients, max_size=4).map(Poly), max_size=max_order + 1).map(DiffOp),
    )


def order_two_operators():
    """The classical operator for random parameters, and random order-2 operators."""
    parameters = st.fractions(min_value=0, max_value=10, max_denominator=6)
    classical = st.builds(lambda a, b: classical_operator(JacobiContext(a, b)), parameters, parameters)
    return st.one_of(classical, operators(2))


def ctx(a, b):
    return JacobiContext(Fraction(a), Fraction(b))


def scalar_example_config(alpha, mass=Fraction(1)):
    return SobolevConfig(
        alpha=alpha, beta=alpha, m1=1, m2=1, M=[[mass]], N=[[mass]]
    )


def lowered_order_s(cfg, bundle):
    """The degree-lowering S for the equal-scalar-mass configuration."""
    a = cfg.alpha
    mass = cfg.M[0][0]
    r = Poly.constant(Fraction(4 ** (a - 1) * math.factorial(a - 1))) + (
        mass * pochhammer(X - 1, a) * pochhammer(X + a, a)
    ) * Fraction(1, 2 * math.factorial(a))
    sigma_half = Poly([2 * a - 2, 2])  # 2x + 2*alpha - 2
    return RationalFunction(sigma_half * r) / bundle.Omega


class TestDiffOp:
    def test_order_and_algebra_predicate(self):
        assert DiffOp([ONE]).order == 0
        assert DiffOp([Poly([]), X]).in_algebra
        assert not DiffOp([X]).in_algebra  # degree-1 coefficient on derivative 0
        assert classical_operator(ctx(5, 2)).in_algebra

    def test_apply_linearity(self):
        op = classical_operator(ctx(2, 1))
        p, q = (X + 1) * X, X * X * X
        assert op.apply(p + q) == op.apply(p) + op.apply(q)

    def test_json_export(self):
        op = DiffOp([ONE, X])
        data = op.to_json()
        assert data["order"] == 1

    def test_scalar_products(self):
        op = DiffOp([ONE, X])
        assert Fraction(1, 2) * op == op * Fraction(1, 2) == DiffOp([Fraction(1, 2), X * Fraction(1, 2)])
        assert 3 * op == op * 3 == op + op + op
        with pytest.raises(TypeError, match="float"):
            op * 0.5

    def test_products_with_operators_name_compose(self):
        # T * X would read as T.x, X * T as x.T; neither is a scalar product
        op = DiffOp([ONE, X])
        for product in (lambda: op * X, lambda: X * op, lambda: op * op):
            with pytest.raises(TypeError, match="compose"):
                product()

    def test_sum_with_a_non_operator_is_unsupported(self):
        op = DiffOp([ONE, X])
        for combination in (lambda: op + 1, lambda: 1 + op, lambda: op - 1, lambda: 1 - op, lambda: op + X):
            with pytest.raises(TypeError, match="unsupported operand"):
                combination()


class TestCompose:
    def test_product_rule(self):
        ddx = DiffOp([Poly([]), ONE])
        times_x = DiffOp([X])
        assert compose(ddx, times_x).apply(ONE) == ONE

    def test_identity_neutral(self):
        op = classical_operator(ctx(2, 1))
        assert compose(op, DiffOp.identity()) == op
        assert compose(DiffOp.identity(), op) == op

    def test_squared_classical_operator(self):
        c = ctx(2, 1)
        op2 = compose(classical_operator(c), classical_operator(c))
        for n in range(7):
            jn = jacobi_poly(c, n)
            assert op2.apply(jn) == c.theta(n) ** 2 * jn

    def test_agrees_with_sequential_application(self):
        a = DiffOp([X, ONE])
        b = DiffOp([Poly([]), X * X - 1])
        p = Poly([1, -2, 0, 3])
        assert compose(a, b).apply(p) == a.apply(b.apply(p))


class TestIntKernel:
    """apply, compose and op_poly against the Fraction and Leibniz references."""

    @given(operators(6), polys)
    @settings(max_examples=150, deadline=None)
    def test_apply_matches_reference(self, op, p):
        assert op.apply(p) == reference_apply(op, p)

    @given(operators(6), st.integers(0, 7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_band_applies_every_polynomial_it_spans(self, op, width, data):
        # verify_eigen builds one band for n_max + 1 columns and applies it to every q_n
        rows, den = _scaled_rows(op)
        band = _band(rows, width)
        for p in data.draw(st.lists(st.lists(coefficients, max_size=width).map(Poly), max_size=4)):
            assert _apply_band(band, den, p) == op.apply(p)

    @given(operators(8), operators(8))
    @settings(max_examples=150, deadline=None)
    def test_compose_matches_leibniz(self, a, b):
        assert compose(a, b) == reference_compose(a, b)

    @given(st.lists(coefficients, max_size=6).map(Poly), order_two_operators())
    @settings(max_examples=100, deadline=None)
    def test_op_poly_matches_reference(self, p, d):
        assert op_poly(p, d) == reference_op_poly(p, d)

    def test_zero_and_identity(self):
        op = DiffOp([Poly([Fraction(1, 3), 2]), X * X, Poly([0, 0, 0, Fraction(-7, 10**12)])])
        zero, one = DiffOp(), DiffOp.identity()
        for a, b in [(zero, op), (op, zero), (zero, zero)]:
            assert compose(a, b) == zero
        assert compose(one, op) == op == compose(op, one)
        assert op_poly(Poly([]), op) == zero
        assert op_poly(Poly([5, 1]), zero) == DiffOp([5])
        assert zero.apply(X) == Poly([]) and op.apply(Poly([])) == Poly([])

    def test_degree_raising_operators(self):
        times_x = DiffOp([X])  # outside the algebra
        x_squared_ddx = DiffOp([Poly([]), X * X])
        assert compose(times_x, times_x) == DiffOp([X * X])
        assert compose(x_squared_ddx, times_x) == reference_compose(x_squared_ddx, times_x)
        assert op_poly(Poly([1, 1, 1]), times_x) == DiffOp([Poly([1, 1, 1])])
        assert op_poly(Poly([0, 0, 1]), x_squared_ddx) == reference_op_poly(Poly([0, 0, 1]), x_squared_ddx)

    def test_classical_powers(self):
        op = classical_operator(ctx(Fraction(1, 2), Fraction(-1, 3)))
        p = Poly([Fraction(2, 7), -1, Fraction(5, 3)])
        assert op_poly(p, op) == reference_op_poly(p, op)


class TestDOperators:
    def test_constant_action(self):
        a, b = 2, 1
        ops = d_operators(ctx(a, b), 1, 1)
        assert ops[0].apply(ONE) == Poly.constant(Fraction(-(a + b + 1), 2))
        assert ops[1].apply(ONE) == Poly.constant(Fraction(a + b + 1, 2))

    def test_block_assignment_and_order(self):
        ops = d_operators(ctx(3, 2), 2, 1)
        assert len(ops) == 3
        assert ops[0] == ops[1] and ops[0] != ops[2]
        for op in ops:
            assert op.order == 1 and op.in_algebra

    def test_lower_triangular_expansion(self):
        for (a, b) in [(2, 1), (3, 3)]:
            c = ctx(a, b)
            ops = d_operators(c, 1, 1)
            eps = [
                lambda n: Fraction(-(n + a), n + b),
                lambda n: Fraction(1),
            ]
            sig = [
                lambda n: Fraction(2 * n + a + b - 1),
                lambda n: Fraction(-(2 * n + a + b - 1)),
            ]
            for h in (0, 1):
                for n in range(6):
                    expected = Fraction(-1, 2) * sig[h](n + 1) * jacobi_poly(c, n)
                    for j in range(1, n + 1):
                        prod = Fraction(1)
                        for t in range(j):
                            prod *= eps[h](n - t)
                        expected += (-1) ** (j + 1) * sig[h](n - j + 1) * prod * jacobi_poly(c, n - j)
                    assert ops[h].apply(jacobi_poly(c, n)) == expected


class TestXi:
    def test_second_block_trivial(self):
        c = ctx(2, 1)
        for j in (-2, 0, 3):
            assert xi(c, 1, 2, j) == RationalFunction(ONE)

    def test_zero_shift(self):
        assert xi(ctx(2, 1), 1, 1, 0) == RationalFunction(ONE)

    def test_two_step_quotient(self):
        assert xi(ctx(2, 1), 1, 1, 2) == RationalFunction(X + 2, X)

    def test_negative_shift_reciprocal(self):
        c = ctx(2, 1)
        val = xi(c, 1, 1, -2)
        forward = xi(c, 1, 1, 2)
        # the defining extension: value at shift -j is 1 over the value at
        # shift +j evaluated j steps to the right
        assert val * RationalFunction(forward.num.shift(2), forward.den.shift(2)) == RationalFunction(ONE)


class TestBundleDefaultS:
    def test_default_s_scalar_case(self):
        for a in (1, 2):
            cfg = scalar_example_config(a)
            sys_z = build_z(cfg)
            assert default_s(cfg, sys_z) == RationalFunction(-(X + a - 1))

    def test_omega_factorizes(self):
        cfg = scalar_example_config(2)
        bundle = cached_bundle(cfg)
        z1 = build_z(cfg).z[0]
        assert bundle.Omega == RationalFunction(-2 * z1.shift(-1) * z1.shift(-2))

    def test_bundle_invariants(self):
        cfg = random_configs((2, 1, 1, 1), count=1)[0]
        sys_z = build_z(cfg)
        bundle = cached_bundle(cfg)
        a, b = cfg.alpha, cfg.beta
        assert bundle.SOmega == (bundle.S * bundle.Omega).as_poly()
        sigma_next = Poly([a + b + 1, 2])
        for h in range(cfg.m):
            block_sigma = sigma_next if h < cfg.m1 else -sigma_next
            assert bundle.Mh[h] == block_sigma * bundle.MhTilde[h](theta_poly(a, b))
        lhs = bundle.PS(theta_poly(a, b))
        rhs = 2 * bundle.lam
        for h in range(cfg.m):
            rhs = rhs + sys_z.z[h] * bundle.Mh[h]
        assert lhs == rhs
        assert bundle.D.in_algebra

    def test_eigenvalue_generator_difference_equation(self):
        cfg = random_configs((2, 2, 1, 1), count=1)[0]
        bundle = cached_bundle(cfg)
        a, b = cfg.alpha, cfg.beta
        ps_x = bundle.PS(theta_poly(a, b))
        assert ps_x - ps_x.shift(-1) == bundle.SOmega + bundle.SOmega.shift(cfg.m)

    def test_difference_identity_fires(self, monkeypatch):
        # lambda + theta_x keeps 2 lambda + sum Y_h M_h a polynomial in theta, so check 3
        # passes, but P_S gains 2 theta, whose difference SOmega_x + SOmega_{x+m} lacks
        cfg = baseline_config((3, 3, 2, 1))
        theta = theta_poly(cfg.alpha, cfg.beta)
        real = diffop.anti_difference
        monkeypatch.setattr(diffop, "anti_difference", lambda g: real(g) + theta)
        with pytest.raises(IdentityCheckFailed) as failure:
            build_bundle(cfg, build_z(cfg))
        assert failure.value.stage == "build_bundle"
        assert failure.value.identity == "P_S(theta_x) - P_S(theta_{x-1}) = SOmega_x + SOmega_{x+m}"

    def test_involution_symmetries(self):
        cfg = random_configs((3, 2, 2, 1), count=1)[0]
        bundle = cached_bundle(cfg)
        gamma = cfg.alpha + cfg.beta
        for mh in bundle.Mh:
            assert involute(mh, gamma) == -mh
        assert involute(bundle.SOmega, gamma - 1) == -bundle.SOmega.shift(cfg.m)


def rational_dets(monkeypatch) -> list:
    """Record every determinant taken over RationalFunction entries from now on."""
    real_det = _linalg.det
    taken = []

    def det(rows):
        if rows and isinstance(rows[0][0], RationalFunction):
            taken.append(rows)
        return real_det(rows)

    monkeypatch.setattr(_linalg, "det", det)
    return taken


class TestOmegaAndMinors:
    # beside the STANDARD_SHAPES, one shape with no first block, one with no second and one m = 4
    @pytest.mark.parametrize("shape", STANDARD_SHAPES + [(3, 1, 0, 3), (1, 3, 3, 0), (4, 3, 2, 2)])
    def test_bundle_matches_rebuilt_minors(self, shape):
        cfg = random_configs(shape, count=1)[0]
        sys_z = build_z(cfg)
        bundle = cached_bundle(cfg)
        assert bundle.Omega == _linalg.det(reference_omega_entries(cfg, sys_z))
        assert [RationalFunction(mh) for mh in bundle.Mh] == reference_mh(cfg, sys_z, bundle.S)

    def test_custom_s_matches_rebuilt_minors(self):
        cfg = scalar_example_config(1)
        sys_z = build_z(cfg)
        custom = build_bundle(cfg, sys_z, lowered_order_s(cfg, cached_bundle(cfg)))
        assert [RationalFunction(mh) for mh in custom.Mh] == reference_mh(cfg, sys_z, custom.S)

    def test_two_jet_custom_s_matches_rebuilt_minors(self):
        # criterion 7's lowered-order S at m = 4
        cfg = two_jet_config(2)
        sys_z = build_z(cfg)
        custom = build_bundle(cfg, sys_z, two_jet_lowered_s(cfg, cached_bundle(cfg).Omega))
        assert custom.Omega == _linalg.det(reference_omega_entries(cfg, sys_z))
        assert [RationalFunction(mh) for mh in custom.Mh] == reference_mh(cfg, sys_z, custom.S)

    def test_second_bundle_reuses_held_minors(self, monkeypatch):
        # the M_h cofactors of the Casorati matrix do not depend on S
        cfg = scalar_example_config(1)
        sys_z = build_z(cfg)
        first = build_bundle(cfg, sys_z)
        rf_dets = rational_dets(monkeypatch)
        custom = build_bundle(cfg, sys_z, lowered_order_s(cfg, first))
        assert not rf_dets
        for bundle in (first, custom):
            assert [RationalFunction(mh) for mh in bundle.Mh] == reference_mh(cfg, sys_z, bundle.S)

    # (3, 2, 2, 1) is covered by the held-Omega test below; here m = 4 and every row cleared
    @pytest.mark.parametrize("shape", [(4, 3, 2, 2), (1, 3, 3, 0)])
    def test_cold_bundle_takes_no_rational_determinant(self, shape, monkeypatch):
        # Omega and the M_h minors come from the polynomial Casorati matrix
        cfg = random_configs(shape, count=1)[0]
        cold = cold_copy(build_z(cfg))
        rf_dets = rational_dets(monkeypatch)
        _omega(cfg, cold)
        build_bundle(cfg, cold)
        assert not rf_dets

    def test_omega_is_held_on_the_system(self, monkeypatch):
        cfg = random_configs((3, 2, 2, 1), count=1)[0]
        cold = cold_copy(build_z(cfg))
        rf_dets = rational_dets(monkeypatch)
        omega = _omega(cfg, cold)
        assert _omega(cfg, cold) is omega
        assert build_bundle(cfg, cold).Omega is omega
        assert not rf_dets
        assert omega == _linalg.det(reference_omega_entries(cfg, cold))


class TestEigenProperty:
    def test_generic_config(self):
        cfg = random_configs((2, 1, 1, 1), count=1)[0]
        sys_z = build_z(cfg)
        bundle = cached_bundle(cfg)
        values = verify_eigen(bundle, cfg, sys_z, 8)
        assert len(values) == 9
        # re-check one instance directly
        q5 = sobolev_poly(sys_z, cfg, 5)
        assert bundle.D.apply(q5) == values[5] * q5

    def test_degree_zero_preserved(self):
        cfg = random_configs((2, 2, 1, 1), count=1)[0]
        sys_z = build_z(cfg)
        bundle = cached_bundle(cfg)
        q0 = sobolev_poly(sys_z, cfg, 0)
        assert bundle.D.apply(q0).degree <= 0

    @pytest.mark.parametrize("shape", [(3, 3, 2, 1), (4, 3, 2, 1), (3, 1, 0, 2), (1, 3, 2, 0)])
    def test_eigen_check_to_the_operator_order(self, shape):
        # a_j acts through d^j, which is zero on q_n for n < j: only n up to
        # the order K reaches every coefficient of D
        cfg = baseline_config(shape)
        bundle = cached_bundle(cfg)
        order = operator_order(bundle)
        assert order == predicted_order(cfg)
        assert len(verify_eigen(bundle, cfg, build_z(cfg), order)) == order + 1

    def test_doubled_top_coefficient_fails_only_at_the_order(self):
        cfg = baseline_config((3, 3, 2, 1))
        sys_z = build_z(cfg)
        bundle = cached_bundle(cfg)
        order = operator_order(bundle)
        top = DiffOp([Poly()] * order + [bundle.D.coeff(order)])
        broken = bundle._replace(D=bundle.D + top)
        verify_eigen(broken, cfg, sys_z, 8)
        with pytest.raises(EigenMismatch) as failure:
            verify_eigen(broken, cfg, sys_z, order)
        assert failure.value.n == order

    def test_tampered_operator_is_detected(self):
        cfg = random_configs((2, 1, 1, 1), count=1)[0]
        sys_z = build_z(cfg)
        bundle = cached_bundle(cfg)
        broken = bundle._replace(D=bundle.D + DiffOp([Poly([]), X]))
        with pytest.raises(EigenMismatch):
            verify_eigen(broken, cfg, sys_z, 4)


class TestCustomS:
    def test_lowered_order_scalar_case(self):
        a = 1
        cfg = scalar_example_config(a)
        sys_z = build_z(cfg)
        base = cached_bundle(cfg)
        assert operator_order(base) == 4 * a + 2
        custom = build_bundle(cfg, sys_z, lowered_order_s(cfg, base))
        assert operator_order(custom) == 2 * a + 2
        verify_eigen(custom, cfg, sys_z, 6)
        # displayed intermediate quantities
        sigma_next = Poly([2 * a + 1, 2])
        assert custom.Mh[0] == sigma_next * Fraction(1, 4)
        assert custom.Mh[1] == sigma_next * Fraction(1, 4)
        assert custom.MhTilde[0] == Poly.constant(Fraction(1, 4))
        assert custom.MhTilde[1] == Poly.constant(Fraction(-1, 4))
        displayed_lam = X * (X + 1) + (X - 1) * X * (X + 1) * (X + 2) * Fraction(1, 4)
        assert (custom.lam - displayed_lam).degree <= 0
        assert custom.PS.degree == a + 1

    def test_invalid_custom_s_rejected(self):
        cfg = scalar_example_config(1)
        sys_z = build_z(cfg)
        with pytest.raises(AssumptionFailed) as info:
            build_bundle(cfg, sys_z, RationalFunction(X, X + 1))
        assert info.value.which == "s_omega_polynomial"

    @pytest.mark.parametrize(
        "cfg", [scalar_example_config(1), baseline_config((3, 3, 2, 1))], ids=["scalar-1", "baseline-3321"]
    )
    def test_s_over_omega_fails_mh_polynomial(self, cfg):
        # S Omega = 1 passes check 1, but the sum over the shifted S leaves M_1 a proper fraction
        sys_z = build_z(cfg)
        with pytest.raises(AssumptionFailed, match="M_1 is not a polynomial") as info:
            build_bundle(cfg, sys_z, RationalFunction(ONE) / sys_z.omega)
        assert info.value.which == "sigma_factorization"


NEG_X = Poly([0, -1])


def mirrored_config(cfg):
    """The problem mirrored by x -> -x: alpha <-> beta, m1 <-> m2, and M, N swapped
    with each entry (i, k) times (-1)^(i+k)."""

    def flip(masses):
        return [[(-1) ** (i + k) * c for k, c in enumerate(row)] for i, row in enumerate(masses)]

    return SobolevConfig(alpha=cfg.beta, beta=cfg.alpha, m1=cfg.m2, m2=cfg.m1, M=flip(cfg.N), N=flip(cfg.M))


MIRROR_CASES = [
    baseline_config((4, 3, 2, 1)),
    baseline_config((3, 3, 2, 2)),
    SobolevConfig(
        alpha=2, beta=5, m1=2, m2=0, M=[[Fraction(1, 3), Fraction(-2, 5)], [Fraction(3, 2), Fraction(5, 7)]]
    ),
    SobolevConfig(
        alpha=4, beta=3, m1=2, m2=1,
        M=[[Fraction(2, 3), Fraction(-1, 4)], [Fraction(1, 5), Fraction(3, 2)]], N=[[Fraction(-5, 6)]],
    ),
]


class TestMirror:
    """The whole pipeline commutes with the reflection x -> -x of the problem."""

    @pytest.mark.parametrize(
        "cfg", MIRROR_CASES, ids=["baseline-4321", "baseline-3322", "rational-2520", "rational-4321"]
    )
    def test_mirrored_problem_reflects_operator_and_family(self, cfg):
        twin = mirrored_config(cfg)
        d, d_twin = cached_bundle(cfg).D, cached_bundle(twin).D
        # R sends a_j(x) to (-1)^j a_j(-x); the constant term agrees too
        assert d_twin == DiffOp([(-1) ** j * a(NEG_X) for j, a in enumerate(d.coeffs)])
        for n in range(6):
            q = sobolev_poly(build_z(cfg), cfg, n)(NEG_X)
            q_twin = sobolev_poly(build_z(twin), twin, n)
            assert q_twin * q.lead == q * q_twin.lead


class TestOrderPrediction:
    def test_check_order_generic(self):
        for shape in [(2, 1, 1, 1), (2, 2, 1, 1)]:
            cfg = random_configs(shape, count=1)[0]
            assert operator_order(cached_bundle(cfg)) == predicted_order(cfg)


class TestYTupleStructure:
    def test_swap_within_block_negates_operator(self):
        cfg = random_configs((3, 2, 2, 1), count=1)[0]
        sys_z = build_z(cfg)
        base = cached_bundle(cfg)
        swapped = ZSystem(
            z=(sys_z.z[1], sys_z.z[0], sys_z.z[2]),
            Y=(sys_z.Y[1], sys_z.Y[0], sys_z.Y[2]),
            p=sys_z.p,
            q=sys_z.q,
            rho=sys_z.rho,
        )
        assert build_bundle(cfg, swapped).D == -base.D

    def test_in_block_combination_scales_operator(self):
        cfg = random_configs((3, 2, 2, 1), count=1)[0]
        sys_z = build_z(cfg)
        base = cached_bundle(cfg)
        a, b = Fraction(2), Fraction(3)
        mixed = ZSystem(
            z=(a * sys_z.z[0] + b * sys_z.z[1], sys_z.z[1], sys_z.z[2]),
            Y=(a * sys_z.Y[0] + b * sys_z.Y[1], sys_z.Y[1], sys_z.Y[2]),
            p=sys_z.p,
            q=sys_z.q,
            rho=sys_z.rho,
        )
        assert build_bundle(cfg, mixed).D == a * base.D


class TestDegreeLaw:
    def test_single_left_factor(self):
        p, d, lead = p_from_y_tuple(Fraction(2), Fraction(2), 1, 0, [X + 1])
        assert p.degree == d == 2
        assert p.lead == lead

    def test_float_parameter_rejected(self):
        for alpha, beta in ((0.5, Fraction(2)), (Fraction(2), 2.0)):
            with pytest.raises(TypeError, match="float"):
                p_from_y_tuple(alpha, beta, 1, 0, [X + 1])

    def test_degree_collapse(self):
        ys = [Poly.constant(3), 2 * X + 1]
        p, d, lead = p_from_y_tuple(Fraction(3), Fraction(3), 2, 0, ys)
        assert d == 0
        assert p.degree <= 0

    def test_matches_row_built_determinant(self):
        for m1, m2, ys in degree_law_cases():
            want = reference_p_from_y_tuple(Fraction(5), Fraction(4), m1, m2, ys)
            assert p_from_y_tuple(Fraction(5), Fraction(4), m1, m2, ys) == want

    def test_full_config_check(self):
        cfg = random_configs((3, 2, 2, 1), count=1)[0]
        assert degree_of_P_check(cfg, build_z(cfg))
