"""End-to-end acceptance checks.

Every criterion below is exact: no tolerances anywhere. A one-line PASS/FAIL
summary per criterion is printed at the end of the run (see conftest).
"""

import math
import random
import time
from fractions import Fraction

from jacobisobolev.certify import gram_orthogonal_oracle, p_from_y_tuple, rl_cross_check, verify_comb_identities
from jacobisobolev.construct import build_z, casorati_lambda, sobolev_poly
from jacobisobolev.diffop import build_bundle, classical_operator, operator_order, verify_eigen
from jacobisobolev.exactmath import (
    Poly,
    RationalFunction,
    X,
    pochhammer,
    theta_poly,
)
from jacobisobolev.jacobi import JacobiContext, jacobi_poly
from jacobisobolev.rank import predicted_order
from jacobisobolev.sobolev import SobolevConfig, bilinear

from conftest import (
    STANDARD_SHAPES,
    cached_bundle,
    degree_law_cases,
    random_configs,
    record_criterion,
    two_jet_config,
    two_jet_lowered_s,
)


def all_standard_configs():
    configs = []
    for shape in STANDARD_SHAPES:
        configs.extend(random_configs(shape, count=5))
    return configs


def scalar_multiple(p, q):
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    return p * q.lead == q * p.lead


def equal_scalar_mass_config(alpha, mass=Fraction(1)):
    return SobolevConfig(alpha=alpha, beta=alpha, m1=1, m2=1, M=[[mass]], N=[[mass]])


def lowered_order_s_scalar(cfg, omega):
    """Order-lowering S for equal scalar masses at alpha = beta."""
    a = cfg.alpha
    mass = cfg.M[0][0]
    r = Poly.constant(Fraction(4 ** (a - 1) * math.factorial(a - 1))) + (
        mass * pochhammer(X - 1, a) * pochhammer(X + a, a)
    ) * Fraction(1, 2 * math.factorial(a))
    return RationalFunction(Poly([2 * a - 2, 2]) * r) / omega


def test_criterion_01_classical_eigenfunctions():
    def body():
        start = time.monotonic()
        for (a, b) in [(0, 0), (2, 1), (3, 3), (5, 2)]:
            ctx = JacobiContext(Fraction(a), Fraction(b))
            op = classical_operator(ctx)
            for n in range(16):
                jn = jacobi_poly(ctx, n)
                assert op.apply(jn) == Fraction(n * (n + a + b + 1)) * jn
        assert time.monotonic() - start < 5

    record_criterion(1, "classical second-order eigenfunction identity", body)


def test_criterion_02_orthogonality():
    def body():
        start = time.monotonic()
        for cfg in all_standard_configs():
            sys_z = build_z(cfg)
            for n in range(11):
                qn = sobolev_poly(sys_z, cfg, n)
                for j in range(n):
                    assert bilinear(cfg, qn, Poly.monomial(j)) == 0
                assert bilinear(cfg, qn, qn) != 0
        assert time.monotonic() - start < 60

    record_criterion(2, "exact left-orthogonality of the constructed family", body)


def test_criterion_03_oracle_equivalence():
    def body():
        for cfg in all_standard_configs():
            sys_z = build_z(cfg)
            for n in range(9):
                qn = sobolev_poly(sys_z, cfg, n)
                oracle = gram_orthogonal_oracle(cfg, n)
                assert oracle is not None
                assert scalar_multiple(qn, oracle)

    record_criterion(3, "determinant formula matches the Gram-solve oracle", body)


def test_criterion_04_eigenfunction_property():
    def body():
        for cfg in all_standard_configs():
            sys_z = build_z(cfg)
            bundle = cached_bundle(cfg)
            values = verify_eigen(bundle, cfg, sys_z, 8)
            assert len(values) == 9
            # the single additive constant is pinned at n = 0; the generator
            # polynomial reproduces consecutive eigenvalue sums exactly
            ps_x = bundle.PS(theta_poly(cfg.alpha, cfg.beta))
            defect = ps_x - bundle.lam - bundle.lam.shift(cfg.m)
            assert defect.degree <= 0

    record_criterion(4, "constructed operator has the family as eigenfunctions", body)


def test_criterion_05_order_formula():
    def body():
        for cfg in all_standard_configs():
            assert operator_order(cached_bundle(cfg)) == predicted_order(cfg)
            shift = cfg.alpha + cfg.beta - cfg.m - 1
            quad = Poly([0, shift + 1, 1])
            cfg_quad = SobolevConfig(
                alpha=cfg.alpha, beta=cfg.beta, m1=cfg.m1, m2=cfg.m2,
                M=cfg.M, N=cfg.N, xi=quad,
            )
            assert operator_order(cached_bundle(cfg_quad)) == predicted_order(cfg_quad)
            assert predicted_order(cfg_quad) == predicted_order(cfg) + 2
        # closed-form spot checks for scalar masses
        for (a, b) in [(2, 1), (2, 2)]:
            cfg = SobolevConfig(alpha=a, beta=b, m1=1, m2=1, M=[[1]], N=[[2]])
            assert operator_order(cached_bundle(cfg)) == 2 * (a + b + 1)
        for a in (1, 2):
            cfg = equal_scalar_mass_config(a)
            assert operator_order(cached_bundle(cfg)) == 4 * a + 2

    record_criterion(5, "measured operator order equals the weighted-rank prediction", body)


def test_criterion_06_scalar_mass_lowered_order():
    def body():
        start = time.monotonic()
        for a in (1, 2, 3):
            cfg = equal_scalar_mass_config(a)
            sys_z = build_z(cfg)
            base = cached_bundle(cfg)
            z1 = sys_z.z[0]
            assert base.Omega == RationalFunction(-2 * z1.shift(-1) * z1.shift(-2))
            custom = build_bundle(cfg, sys_z, lowered_order_s_scalar(cfg, base.Omega))
            assert operator_order(custom) == 2 * a + 2
            sigma_next = Poly([2 * a + 1, 2])
            assert custom.Mh[0] == sigma_next * Fraction(1, 4)
            assert custom.Mh[1] == sigma_next * Fraction(1, 4)
            displayed_lam = (
                Fraction(4 ** (a - 1) * math.factorial(a - 1)) * X * (X + 2 * a - 1)
                + pochhammer(X - 1, 2 * a + 2) * Fraction(1, 2 * math.factorial(a + 1))
            )
            assert (custom.lam - displayed_lam).degree <= 0
            verify_eigen(custom, cfg, sys_z, 8)
        assert time.monotonic() - start < 30

    record_criterion(6, "equal scalar masses admit an operator of order 2a+2", body)


def test_criterion_07_two_jet_lowered_order():
    def body():
        m0, m1_mass = Fraction(2), Fraction(1)
        for a in (2, 3):
            cfg = two_jet_config(a, m0, m1_mass)
            sys_z = build_z(cfg)
            custom = build_bundle(cfg, sys_z, two_jet_lowered_s(cfg, cached_bundle(cfg).Omega))
            assert operator_order(custom) == 2 * a + 2
            assert custom.PS.degree == a + 1
            theta = theta_poly(a, a)
            sigma_next = Poly([2 * a + 1, 2])
            inner1 = (
                -m1_mass * Fraction(1, math.factorial(a - 1))
                * pochhammer(X + 3, 2 * a - 4)
                * (theta + (a + 1) * (2 * a - 1))
            )
            inner2 = (
                Poly.constant(2 * Fraction(4 ** (a - 2)) * math.factorial(a - 2))
                + (m0 - m1_mass) * Fraction(1, math.factorial(a - 1))
                * pochhammer(X + 3, 2 * a - 4)
                * (theta + (a + 1) * (2 * a - 1))
            )
            assert custom.Mh[0] == custom.Mh[2] == sigma_next * inner1
            assert custom.Mh[1] == custom.Mh[3] == sigma_next * inner2
            # the second-block reduced factors carry the opposite sign because
            # their sigma sequence is negated
            assert custom.MhTilde[0](theta_poly(a, a)) == inner1
            assert custom.MhTilde[1](theta_poly(a, a)) == inner2
            assert custom.MhTilde[2](theta_poly(a, a)) == -inner1
            assert custom.MhTilde[3](theta_poly(a, a)) == -inner2
            displayed_lam = (
                Fraction(16 ** (a - 1)) * math.factorial(a - 1) * math.factorial(a - 2) * X * (X + 2 * a - 3)
                + 2 * Fraction(4 ** (a - 1)) * m0 * Fraction(1, a) * pochhammer(X - 1, 2 * a)
                - Fraction(4 ** (a - 1)) * m1_mass * Fraction(1, a * (a + 1)) * pochhammer(X - 2, 2 * a + 2)
            )
            assert (custom.lam - displayed_lam).degree <= 0
            verify_eigen(custom, cfg, sys_z, 6)

    record_criterion(7, "two-jet equal-parameter case admits an operator of order 2a+2", body)


def test_criterion_08_closed_form_order_corollaries():
    def body():
        # anti-triangular full-mass pattern: order 2*(m1*beta + m2*alpha + 1)
        full_mass_cases = [
            (2, 2, 1, 1, [[1]], [[1]]),
            (2, 2, 2, 1, [[1, 1], [1, 0]], [[1]]),
        ]
        for (a, b, m1, m2, M, N) in full_mass_cases:
            cfg = SobolevConfig(alpha=a, beta=b, m1=m1, m2=m2, M=M, N=N)
            sys_z = build_z(cfg)
            assert all(casorati_lambda(sys_z, cfg, k) != 0 for k in range(10))
            assert operator_order(cached_bundle(cfg)) == 2 * (m1 * b + m2 * a + 1)
        # sparse diagonal (single mass on the highest derivative at each end):
        # order 2*(alpha + beta + m1 + m2 - 1)
        a, b, m1, m2 = 3, 3, 2, 2
        cfg = SobolevConfig(
            alpha=a, beta=b, m1=m1, m2=m2,
            M=[[0, 0], [0, 1]], N=[[0, 0], [0, 1]],
        )
        sys_z = build_z(cfg)
        assert all(casorati_lambda(sys_z, cfg, k) != 0 for k in range(10))
        assert operator_order(cached_bundle(cfg)) == 2 * (a + b + m1 + m2 - 1)

    record_criterion(8, "closed-form order values for full-mass and sparse-diagonal masses", body)


def test_criterion_09_combinatorial_identities():
    def body():
        assert verify_comb_identities(Fraction(5, 3), Fraction(7, 2), 3, 0)
        assert verify_comb_identities(Fraction(9, 4), Fraction(11, 5), 2, 2)
        rng = random.Random(2024)
        done = 0
        while done < 20:
            alpha = Fraction(rng.randint(1, 40), rng.choice([2, 3, 4, 5, 7]))
            beta = Fraction(rng.randint(1, 40), rng.choice([2, 3, 4, 5, 7]))
            if alpha.denominator == 1 or beta.denominator == 1:
                continue
            if (alpha + beta).denominator == 1:
                continue
            m1 = rng.randint(1, 3)
            m2 = rng.randint(0, 3)
            assert verify_comb_identities(alpha, beta, m1, m2)
            done += 1

    record_criterion(9, "finite hypergeometric-style sums vanish identically", body)


def test_criterion_10_degree_law():
    def body():
        for m1, m2, ys in degree_law_cases():
            p, d, lead = p_from_y_tuple(Fraction(5), Fraction(4), m1, m2, ys)
            assert p.degree == d
            assert p.lead == lead

    record_criterion(10, "determinant polynomial has the predicted degree and leading term", body)


def test_criterion_11_integral_cross_check():
    def body():
        for cfg in all_standard_configs():
            m = cfg.m
            for l in range(1, m + 1):
                for n in range(m, m + 7):
                    lhs, rhs = rl_cross_check(cfg, l, n)
                    assert lhs == rhs

    record_criterion(11, "integral route reproduces the closed-form sequences", body)
