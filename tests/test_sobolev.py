"""The endpoint-mass bilinear form, jets, and the Gram existence oracle."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mass_configs
from kernel_reference import reference_bilinear

from jacobisobolev.certify import endpoint_jet, gram_orthogonal_oracle, jet
from jacobisobolev.exactmath import ONE, ZERO, Poly, X
from jacobisobolev.jacobi import JacobiContext, jacobi_poly
from jacobisobolev.sobolev import ParameterOutOfRangeError, SobolevConfig, bilinear, bilinear_monomials

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_polys = st.lists(rationals, min_size=0, max_size=5).map(Poly)


PINNED_REPRS = (
    "SobolevConfig(alpha=3, beta=2, m1=2, m2=1, M=((Fraction(1, 1), Fraction(0, 1)), "
    "(Fraction(2, 1), Fraction(1, 2))), N=((Fraction(1, 1),),), xi=Poly(1))",
    "SobolevConfig(alpha=2, beta=2, m1=1, m2=0, M=((Fraction(1, 1),),), N=(), xi=Poly(1*x + 1/3*x^2))",
)


def pinned_configs():
    """Fresh copies of the two configs whose repr is pinned in PINNED_REPRS."""
    shift = 2  # alpha + beta - m - 1 of the second
    return (
        SobolevConfig(alpha=3, beta=2, m1=2, m2=1, M=[[1, 0], [2, "1/2"]], N=[[1]]),
        SobolevConfig(alpha=2, beta=2, m1=1, m2=0, M=[[1]], xi=X * (X + shift + 1) * Fraction(1, 3)),
    )


class TestConfig:
    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            SobolevConfig(alpha=1, beta=1, m1=0, m2=0)

    def test_matrix_shape_enforced(self):
        with pytest.raises(ValueError):
            SobolevConfig(alpha=2, beta=2, m1=2, m2=1, M=[[1]], N=[[1]])

    def test_parameter_bounds(self):
        with pytest.raises(ParameterOutOfRangeError, match="beta - m1 = -1"):
            SobolevConfig(alpha=1, beta=0, m1=1, m2=1, M=[[1]], N=[[1]])

    @pytest.mark.parametrize("value", [2.0, Fraction(2), True])
    def test_parameters_must_be_ints(self, value):
        with pytest.raises(TypeError):
            SobolevConfig(alpha=value, beta=2, m1=1, m2=1, M=[[1]], N=[[1]])

    def test_xi_invariance_enforced(self):
        with pytest.raises(ValueError):
            SobolevConfig(alpha=2, beta=2, m1=1, m2=1, M=[[1]], N=[[1]], xi=X)

    @pytest.mark.parametrize("xi", [Poly([]), Poly([0])])
    def test_zero_xi_rejected(self, xi):
        # a zero xi has degree -inf, which no operator order can absorb
        with pytest.raises(ValueError, match="xi must be nonzero"):
            SobolevConfig(alpha=2, beta=2, m1=1, m2=1, M=[[1]], N=[[1]], xi=xi)

    @pytest.mark.parametrize("xi", [[1], None, 1])
    def test_non_poly_xi_rejected(self, xi):
        with pytest.raises(TypeError, match="xi must be a Poly"):
            SobolevConfig(alpha=2, beta=2, m1=1, m2=1, M=[[1]], N=[[1]], xi=xi)

    def test_repr_eq_and_hash(self):
        # the repr text, and == and hash over the seven fields, are pinned
        cfg, with_xi = pinned_configs()
        for config, text in zip((cfg, with_xi), PINNED_REPRS):
            assert repr(config) == text
        same = SobolevConfig(3, 2, 2, 1, ((1, 0), (2, Fraction(1, 2))), [["1"]], ONE)
        assert cfg == same and hash(cfg) == hash(same)
        assert hash(cfg) == hash((3, 2, 2, 1, cfg.M, cfg.N, ONE))
        assert cfg != SobolevConfig(alpha=3, beta=2, m1=2, m2=1, M=[[1, 0], [2, 1]], N=[[1]])
        assert cfg != (3, 2, 2, 1, cfg.M, cfg.N, ONE) and cfg.__eq__(cfg.M) is NotImplemented
        with pytest.raises(AttributeError):
            cfg.alpha = 4

    def test_gram_table_is_not_part_of_the_value(self):
        # a built table changes none of repr, ==, hash and to_json, and a copy,
        # rebuilt from the fields, starts without one and still compares equal
        for config, text in zip(pinned_configs(), PINNED_REPRS):
            fresh = copy.copy(config)
            data, key = config.to_json(), hash(config)
            bilinear_monomials(config, X**5 - 1, 9)
            assert repr(config) == text
            assert config == fresh and hash(config) == key == hash(fresh)
            assert config.to_json() == data
            duplicate = copy.copy(config)
            assert duplicate._gram[0] == () and config._gram[0]
            assert duplicate == config and hash(duplicate) == key and repr(duplicate) == text

    @pytest.mark.parametrize("field, value", [("M", 0.5), ("N", 1e-400)])
    def test_float_mass_rejected(self, field, value):
        # a float mass used to be read through str(), and 1e-400 became 0
        masses = {"M": [[1]], "N": [[1]]}
        masses[field] = [[value]]
        with pytest.raises(TypeError, match=f"the float {value!r}"):
            SobolevConfig(alpha=2, beta=2, m1=1, m2=1, **masses)

    def test_json_round_trip(self):
        cfg = SobolevConfig(
            alpha=2, beta=1, m1=1, m2=1, M=[[Fraction(1, 2)]], N=[[-2]]
        )
        assert SobolevConfig.from_json(cfg.to_json()) == cfg


class TestJet:
    def test_square(self):
        assert jet(X * X, 1, 3) == (1, 2, 2)

    def test_constant(self):
        assert jet(ONE, -1, 2) == (1, 0)

    def test_matches_endpoint_closed_form(self):
        ctx = JacobiContext(Fraction(2), Fraction(2))
        j2 = jacobi_poly(ctx, 2)
        assert jet(j2, -1, 2) == tuple(endpoint_jet(ctx, 2, -1, i) for i in range(2))


class TestBilinear:
    def test_constant_against_constant(self):
        cfg = SobolevConfig(alpha=1, beta=1, m1=1, m2=1, M=[[3]], N=[[5]])
        assert bilinear(cfg, ONE, ONE) == 2 + 3 + 5

    def test_zero_slot(self):
        cfg = SobolevConfig(alpha=1, beta=1, m1=1, m2=1, M=[[1]], N=[[1]])
        assert bilinear(cfg, (X + 2) * X, Poly([])) == 0

    def test_non_symmetric_matrix_breaks_symmetry(self):
        cfg = SobolevConfig(
            alpha=1, beta=2, m1=2, m2=1, M=[[0, 1], [0, 0]], N=[[0]]
        )
        p, q = ONE, X
        assert bilinear(cfg, p, q) != bilinear(cfg, q, p)

    @given(small_polys, small_polys, small_polys, rationals)
    @settings(max_examples=40, deadline=None)
    def test_bilinearity(self, p, q, r, c):
        cfg = SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[1]], N=[[-1]])
        assert bilinear(cfg, p + c * r, q) == bilinear(cfg, p, q) + c * bilinear(cfg, r, q)
        assert bilinear(cfg, p, q + c * r) == bilinear(cfg, p, q) + c * bilinear(cfg, p, r)


MASS_CONFIGS = [
    SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[1]], N=[[-1]]),
    SobolevConfig(alpha=2, beta=2, m1=2, m2=1, M=[[1, 2], [0, Fraction(-3, 2)]], N=[[Fraction(1, 2)]]),
    SobolevConfig(alpha=3, beta=0, m1=0, m2=2, N=[[1, -1], [2, Fraction(1, 3)]]),
    SobolevConfig(alpha=0, beta=4, m1=3, m2=0, M=[[0, 1, 0], [2, 0, -1], [0, 0, 5]]),
]


class TestBilinearMonomials:
    @given(st.one_of(st.sampled_from(MASS_CONFIGS), mass_configs()), small_polys, st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_matches_one_form_per_monomial(self, cfg, p, n):
        values = bilinear_monomials(cfg, p, n)
        assert all(type(v) is Fraction for v in values)
        assert values == [reference_bilinear(cfg, p, Poly.monomial(j)) for j in range(n)]


class TestGramTable:
    """The configuration's Gram table, built small and then rebuilt larger."""

    @given(st.one_of(st.sampled_from(MASS_CONFIGS), mass_configs()), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rebuilt_table_matches_reference(self, cfg, data):
        cfg = copy.copy(cfg)  # a config rebuilt from the fields has no table yet
        short = data.draw(st.lists(rationals, max_size=3).map(Poly))
        q = data.draw(st.lists(rationals, max_size=3).map(Poly))
        assert bilinear(cfg, short, q) == reference_bilinear(cfg, short, q)
        size = len(cfg._gram[0])
        longer_coeffs = st.lists(rationals, min_size=size + 1, max_size=size + 6).filter(lambda cs: cs[-1])
        longer = data.draw(longer_coeffs.map(Poly))
        n = data.draw(st.integers(0, size + 6))
        values = bilinear_monomials(cfg, longer, n)
        assert values == [reference_bilinear(cfg, longer, Poly.monomial(j)) for j in range(n)]
        assert len(cfg._gram[0]) > size
        assert bilinear(cfg, short, longer) == reference_bilinear(cfg, short, longer)
        assert bilinear(cfg, longer, q) == reference_bilinear(cfg, longer, q)


class TestAgainstReference:
    """The integer kernel against the weighted integral plus the jets."""

    @given(mass_configs(), small_polys, small_polys)
    @settings(max_examples=150, deadline=None)
    def test_bilinear(self, cfg, p, q):
        value = bilinear(cfg, p, q)
        assert type(value) is Fraction
        assert value == reference_bilinear(cfg, p, q)

    @pytest.mark.parametrize("cfg", MASS_CONFIGS)
    def test_zero_slot_is_a_fraction_zero(self, cfg):
        p = (X + Fraction(1, 3)) * (X - 2)
        for value in (bilinear(cfg, p, ZERO), bilinear(cfg, ZERO, p), bilinear(cfg, ZERO, ZERO)):
            assert type(value) is Fraction and value == 0
        assert bilinear_monomials(cfg, ZERO, 3) == [0, 0, 0]
        assert bilinear_monomials(cfg, p, 0) == []


class TestGramOracle:
    def test_degree_zero(self):
        cfg = SobolevConfig(alpha=1, beta=1, m1=1, m2=1, M=[[1]], N=[[1]])
        assert gram_orthogonal_oracle(cfg, 0) == ONE

    def test_zero_masses_give_classical_family(self):
        cfg = SobolevConfig(alpha=1, beta=1, m1=1, m2=1, M=[[0]], N=[[0]])
        ctx = JacobiContext(Fraction(0), Fraction(0))
        for n in range(6):
            assert gram_orthogonal_oracle(cfg, n) == jacobi_poly(ctx, n).monic()

    def test_left_orthogonality(self):
        cfg = SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[1]], N=[[2]])
        for n in range(7):
            qn = gram_orthogonal_oracle(cfg, n)
            assert qn is not None and qn.degree == n
            for j in range(n):
                assert bilinear(cfg, qn, Poly.monomial(j)) == 0
            assert bilinear(cfg, qn, qn) != 0

    def test_right_orthogonality_for_symmetric_masses(self):
        cfg = SobolevConfig(alpha=2, beta=2, m1=2, m2=1, M=[[1, 0], [0, 1]], N=[[2]])
        for n in range(6):
            qn = gram_orthogonal_oracle(cfg, n)
            for j in range(n):
                assert bilinear(cfg, Poly.monomial(j), qn) == 0

    def test_zero_norm_reports_no_existence(self):
        # masses tuned so the norm of the constant polynomial vanishes
        cfg = SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[-1]], N=[[-1]])
        assert gram_orthogonal_oracle(cfg, 0) is None
