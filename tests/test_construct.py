"""Construction of the orthogonal family via Casorati determinants."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobisobolev import _linalg, certify, construct, diffop
from jacobisobolev.certify import gram_orthogonal_oracle, rl_cross_check, verify_comb_identities
from jacobisobolev.construct import (
    DegenerateConfigError,
    ZSystem,
    build_p,
    build_q,
    build_z,
    casorati_lambda,
    rho_table,
    sobolev_poly,
)
from jacobisobolev.exactmath import IdentityCheckFailed, Poly, RationalFunction, X, pochhammer, rat_str, theta_poly
from jacobisobolev.sobolev import SobolevConfig, bilinear

from conftest import STANDARD_SHAPES, baseline_config, cold_copy, degree_law_cases, mass_configs, random_configs
from kernel_reference import (
    GammaProduct,
    reference_build_z,
    reference_casorati_lambda,
    reference_mul,
    reference_pochhammer,
    reference_rl_cross_check,
    reference_sobolev_poly,
    reference_verify_comb_identities,
)


def scalar_multiple(p: Poly, q: Poly) -> bool:
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    return p * q.lead == q * p.lead


def assert_z_matches_reference(cfg):
    sys_z = build_z(cfg)
    zs, ys = reference_build_z(cfg)
    assert [(z.nums, z.den) for z in sys_z.z] == [(z.nums, z.den) for z in zs]
    assert [(y.nums, y.den) for y in sys_z.Y] == [(y.nums, y.den) for y in ys]


def build_z_digest(shape) -> str:
    """sha256 of the canonical JSON of build_z's z, Y, p, q and rho, and of C and P."""
    system = build_z(baseline_config(shape))
    record = {
        "z": [z.to_json() for z in system.z],
        "Y": [y.to_json() for y in system.Y],
        "p": system.p.to_json(),
        "q": system.q.to_json(),
        "rho": [[[f.num.to_json(), f.den.to_json()] for f in row] for row in system.rho],
        "C": [[c.to_json() for c in row] for row in system.C],
        "P": system.P.to_json(),
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


# STANDARD_SHAPES and four more, recorded before z_l, Y_l, p, q and rho were built
# on int linear-factor products
GOLDEN_BUILD_Z_SHA256 = {
    (2, 1, 1, 1): "1fbe237551f2a664ae3431866f9e2cccde487c7ae04f945d9719d9ab241532cb",
    (2, 2, 1, 1): "fc15aa4ba1b2fa868e90f22b9f088ca7b63394a87b92d749cb5e0a0e25c49ae0",
    (3, 2, 2, 1): "3ac72353c4ec33cbc7f7016b58f85caf6ea032132fb4f10c24b8bed59a47155a",
    (3, 3, 2, 2): "1795e4a3e03999b3dc30921573c1394a3db70491298ffeb4c51a7d4f5d81b872",
    (3, 1, 0, 3): "f1abc561542ec70c01f828c564069698355740e0ed8c30f05c468d3309b7f5cd",
    (1, 3, 3, 0): "01835a736558333ee14355d8e03ee730654667d5d4f42b643f8271d20e87baba",
    (4, 3, 2, 2): "8569b6d7e7b93d5c222127dc6bd462946e7db8cc304dcd7220b9d94991260a07",
    (4, 4, 3, 3): "853f512c938e3d2b1b3bd99ec55f4ac532d6b8c2d1401bba081a6e2829d1a5bd",
}


def bundle_digest(shape) -> str:
    """sha256 of the canonical JSON of the cofactors of C, and of the default-S bundle's M_h and D."""
    cfg = baseline_config(shape)
    system = cold_copy(build_z(cfg))
    bundle = diffop.build_bundle(cfg, system)
    record = {
        "cofactors": [[c.to_json() for c in row] for row in system.cofactors],
        "Mh": [mh.to_json() for mh in bundle.Mh],
        "D": bundle.D.to_json(),
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


# recorded before q_n's bordered Casorati matrix was held on the ZSystem
GOLDEN_BUNDLE_SHA256 = {
    (4, 4, 3, 3): "cb90d6988e8db65f5afa2d0507c3deb6935822cd9aa44a4d35e53e9bbc991b2f",
    (5, 5, 4, 3): "c325137d8ce005fbbb0cdc9bc9b599638e12a03db163bdd5823be6e0c32bf5ff",
}


class TestGoldenDigest:
    @pytest.mark.parametrize("shape", list(GOLDEN_BUILD_Z_SHA256), ids=str)
    def test_build_z_c_and_p_digest(self, shape):
        construct._ZSYS_CACHE.pop(baseline_config(shape), None)  # built here, not by an earlier test
        assert build_z_digest(shape) == GOLDEN_BUILD_Z_SHA256[shape]

    @pytest.mark.parametrize("shape", list(GOLDEN_BUNDLE_SHA256), ids=str)
    def test_cofactors_mh_and_d_digest(self, shape):
        assert bundle_digest(shape) == GOLDEN_BUNDLE_SHA256[shape]

    def test_digests_under_python_O(self):
        # no identity check or value may hang on __debug__
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(construct.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([tests, src, os.environ.get("PYTHONPATH", "")]))
        probe = (
            "import json, test_construct as t\n"
            "print(json.dumps({str(s): t.build_z_digest(s) for s in t.GOLDEN_BUILD_Z_SHA256}))"
        )
        done = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, env=env, check=False)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {str(s): d for s, d in GOLDEN_BUILD_Z_SHA256.items()}


class TestBuildZ:
    @given(mass_configs(max_jets=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_two_block_reference(self, cfg):
        # the +1 block is the -1 block of the problem mirrored by x -> -x
        assert_z_matches_reference(cfg)

    @given(
        st.sampled_from([(3, 1, 0, 3), (1, 3, 3, 0), (4, 3, 2, 2)]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_sided_and_two_sided_random_masses(self, shape, data):
        alpha, beta, m1, m2 = shape
        masses = st.fractions(min_value=-4, max_value=4, max_denominator=9)
        cfg = SobolevConfig(
            alpha=alpha, beta=beta, m1=m1, m2=m2,
            M=[[data.draw(masses) for _ in range(m1)] for _ in range(m1)],
            N=[[data.draw(masses) for _ in range(m2)] for _ in range(m2)],
        )
        assert_z_matches_reference(cfg)

    @pytest.mark.parametrize(
        "shape", [(3, 0, 0, 3), (0, 4, 4, 0), (2, 3, 3, 2), (4, 2, 1, 3)], ids=["m1=0", "m2=0", "3+2", "1+3"]
    )
    def test_one_sided_and_mixed_shapes_match_reference(self, shape):
        alpha, beta, m1, m2 = shape
        rng = random.Random(repr(shape))

        def mass():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 6))

        cfg = SobolevConfig(
            alpha=alpha, beta=beta, m1=m1, m2=m2,
            M=[[mass() for _ in range(m1)] for _ in range(m1)],
            N=[[mass() for _ in range(m2)] for _ in range(m2)],
        )
        assert_z_matches_reference(cfg)

    def test_scalar_mass_closed_form(self):
        for m0 in (Fraction(1), Fraction(3, 2)):
            cfg = SobolevConfig(alpha=1, beta=1, m1=1, m2=1, M=[[m0]], N=[[m0]])
            sys_z = build_z(cfg)
            expected = 4 + 2 * m0 * (X + 1) * (X + 2)
            assert sys_z.z[0] == expected
            assert sys_z.Y[0] == 4 + 2 * m0 * (X + 2)

    def test_zero_mass_gives_constant(self):
        for (a, b) in [(1, 1), (2, 3)]:
            cfg = SobolevConfig(alpha=a, beta=b, m1=1, m2=1, M=[[0]], N=[[0]])
            sys_z = build_z(cfg)
            assert sys_z.z[0].degree == 0
            assert sys_z.z[0] == Poly.constant(2 ** (a + b) * math.factorial(b - 1))
            assert sys_z.Y[0].degree == 0

    def test_theta_substitution_identity(self):
        for cfg in random_configs((3, 2, 2, 1), count=2):
            sys_z = build_z(cfg)
            for zl, yl in zip(sys_z.z, sys_z.Y):
                assert yl(theta_poly(cfg.alpha, cfg.beta)) == zl

    def test_full_mass_degrees(self):
        # anti-triangular mass matrices: every z degree is forced
        a, b, m1, m2 = 3, 3, 2, 2
        M = [[1, 1], [1, 0]]
        N = [[2, 1], [1, 0]]
        cfg = SobolevConfig(alpha=a, beta=b, m1=m1, m2=m2, M=M, N=N)
        sys_z = build_z(cfg)
        m = m1 + m2
        for l in range(1, m + 1):
            expected = 2 * (b + m1 - l) if l <= m1 else 2 * (a + m - l)
            assert sys_z.z[l - 1].degree == expected

    def test_p_and_q_match_schoolbook_products(self):
        # both constructors also check their int product against a scalar form at n = 0..deg
        for a, b in ((4, 4), (Fraction(4), Fraction(5)), (Fraction(7, 2), Fraction(1, 3))):
            for m1 in range(0, 4):
                for m2 in range(0, 4):
                    m = m1 + m2
                    if m == 0:
                        continue
                    p = Poly([1])
                    for i in range(1, m1):
                        p = reference_mul(p, Poly([(-1) ** (m1 - i)]))
                        p = reference_mul(p, reference_pochhammer(Poly([a - m + 1, 1]), m1 - i))
                        p = reference_mul(p, reference_pochhammer(Poly([b - m1 + i, 1]), m1 - i))
                    q = Poly([(-1) ** math.comb(m, 2)])
                    for h in range(1, m):
                        for i in range(1, h + 1):
                            q = reference_mul(q, Poly([a + b - 2 * m + i + h, 2]))
                    assert build_p(a, b, m1, m2) == p
                    assert build_q(a, b, m) == q

    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize(
        "build", [lambda: build_p(4, 4, 3, 1), lambda: build_q(4, 4, 4), lambda: build_p(Fraction(7, 2), 3, 3, 0)],
        ids=["p", "q", "p at a = 7/2"],
    )
    def test_one_factor_constant_off_by_one_raises(self, monkeypatch, build, index):
        # the scalar check at n = 0..deg does not go through the product's Poly-base
        # pochhammer calls: shifting the base of the first or the last one by one must raise
        real = construct.pochhammer
        calls = []

        def counting(base, count):
            calls.append(isinstance(base, Poly))
            return real(base, count)

        monkeypatch.setattr(construct, "pochhammer", counting)
        build()
        target = [k for k, poly_base in enumerate(calls) if poly_base][index]
        calls.clear()

        def off_by_one(base, count):
            calls.append(isinstance(base, Poly))
            return real(base + 1 if len(calls) - 1 == target else base, count)

        monkeypatch.setattr(construct, "pochhammer", off_by_one)
        with pytest.raises(IdentityCheckFailed) as info:
            build()
        assert info.value.stage == "build_z"

    def test_rho_table_is_the_gamma_ratio(self):
        # rho^h_{x,j} = (-1)^(m-j) Gamma(x+a-j+1) Gamma(x+b) / (Gamma(x+a-m+1) Gamma(x+b-j+1))
        # for h <= m1 and 1 otherwise, read at integers x where every Gamma is a factorial
        f = math.factorial
        for a in range(7):
            for b in range(7):
                for m1 in range(4):
                    for m2 in range(0 if m1 else 1, 4):
                        m = m1 + m2
                        rho = rho_table(Fraction(a), Fraction(b), m1, m)
                        assert len(rho) == m and all(row[j].is_polynomial for row in rho for j in range(1, m + 1))
                        for x in range(m + 1, m + 4):
                            for j in range(m + 1):
                                ratio = Fraction(f(x + a - j) * f(x + b - 1), f(x + a - m) * f(x + b - j))
                                for h in range(m):
                                    assert rho[h][j](x) == ((-1) ** (m - j) * ratio if h < m1 else 1)

    def test_clearing_is_n2_to_the_m1(self):
        # the system's row clearing, read off rho, is n2^m1 with n2 = (x+b-m+1)_{m-1}
        for a in range(4):
            for b in range(4):
                for m1 in range(4):
                    for m2 in range(0 if m1 else 1, 4):
                        m = m1 + m2
                        rho = rho_table(Fraction(a), Fraction(b), m1, m)
                        system = ZSystem(z=(), Y=(), p=Poly([1]), q=Poly([1]), rho=rho)
                        n2 = pochhammer(X + (b - m + 1), m - 1)
                        assert system.clearing == n2**m1


class TestCasoratiLambda:
    def test_pure_weight_never_vanishes(self):
        cfg = SobolevConfig(alpha=1, beta=1, m1=1, m2=0, M=[[0]], N=[])
        sys_z = build_z(cfg)
        for n in range(11):
            assert casorati_lambda(sys_z, cfg, n) != 0

    def test_positive_measure_case_never_vanishes(self):
        cfg = SobolevConfig(alpha=1, beta=1, m1=1, m2=1, M=[[1]], N=[[1]])
        sys_z = build_z(cfg)
        for n in range(13):
            assert casorati_lambda(sys_z, cfg, n) != 0

    def test_existence_equivalence_with_oracle(self):
        configs = list(random_configs((2, 1, 1, 1), count=3))
        # a known breakdown: masses tuned so the constant has zero norm
        configs.append(
            SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[-1]], N=[[-1]])
        )
        for cfg in configs:
            sys_z = build_z(cfg)
            lam = [casorati_lambda(sys_z, cfg, k) for k in range(10)]
            for n in range(9):
                exists = gram_orthogonal_oracle(cfg, n) is not None
                assert exists == (lam[n] != 0 and lam[n + 1] != 0)


class TestSobolevPoly:
    def test_degree_zero_nonzero_constant(self):
        cfg = SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[1]], N=[[2]])
        sys_z = build_z(cfg)
        q0 = sobolev_poly(sys_z, cfg, 0)
        assert q0.degree == 0 and not q0.is_zero

    def test_left_orthogonality(self):
        cfg = SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[1]], N=[[2]])
        sys_z = build_z(cfg)
        for n in range(11):
            qn = sobolev_poly(sys_z, cfg, n)
            assert qn.degree == n
            for j in range(n):
                assert bilinear(cfg, qn, Poly.monomial(j)) == 0

    def test_matches_gram_oracle_up_to_scalar(self):
        for shape in [(2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 2, 1)]:
            cfg = random_configs(shape, count=1)[0]
            sys_z = build_z(cfg)
            for n in range(9):
                qn = sobolev_poly(sys_z, cfg, n)
                oracle = gram_orthogonal_oracle(cfg, n)
                assert oracle is not None
                assert scalar_multiple(qn, oracle)

    def test_degenerate_config_raises(self):
        cfg = SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[-1]], N=[[-1]])
        sys_z = build_z(cfg)
        with pytest.raises(DegenerateConfigError):
            sobolev_poly(sys_z, cfg, 2)

    def test_negative_degree_rejected(self):
        cfg = SobolevConfig(alpha=2, beta=2, m1=1, m2=1, M=[[1]], N=[[1]])
        sys_z = build_z(cfg)
        for build in (casorati_lambda, sobolev_poly):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                build(sys_z, cfg, -1)

    def test_degree_short_of_n_raises(self, monkeypatch):
        # J_4 in place of J_5 leaves q_5 with no x^5 term
        cfg = baseline_config((3, 3, 2, 1))
        system = cold_copy(build_z(cfg))
        real = construct.jacobi_poly
        monkeypatch.setattr(construct, "jacobi_poly", lambda ctx, n: real(ctx, 4 if n == 5 else n))
        with pytest.raises(IdentityCheckFailed) as info:
            sobolev_poly(system, cfg, 5)
        assert (info.value.stage, info.value.identity) == ("sobolev_poly", "deg q_5 = 5")


CACHED = ("bordered", "C", "P", "quotients", "clearing", "omega", "cofactors")  # the ZSystem values built on first use


class TestPerConfigMemos:
    @pytest.fixture
    def cold_configs(self, monkeypatch):
        """Draw configs, then start from empty caches, so no memo is warm."""

        def draw(shape, count):
            configs = random_configs(shape, count=count)
            monkeypatch.setattr(construct, "_ZSYS_CACHE", {})
            return configs

        return draw

    # beside the STANDARD_SHAPES, one shape with no first block and one with no second
    @pytest.mark.parametrize("shape", STANDARD_SHAPES + [(3, 1, 0, 3), (1, 3, 3, 0)])
    def test_memoised_values_match_per_n_rebuild(self, shape, cold_configs):
        (cfg,) = cold_configs(shape, 1)
        sys_z = build_z(cfg)
        degrees = range(2 * cfg.m + 5)
        want_lambda = [reference_casorati_lambda(sys_z, cfg, n) for n in degrees]
        want_q = [reference_sobolev_poly(sys_z, cfg, n) for n in degrees]
        for order in (reversed(degrees), degrees):
            for n in order:
                assert casorati_lambda(sys_z, cfg, n) == want_lambda[n]
                assert sobolev_poly(sys_z, cfg, n) == want_q[n]
        assert len(sys_z.quotients) == cfg.m - 1
        assert isinstance(sys_z.P, Poly)
        assert all(isinstance(ratio, RationalFunction) for ratio in sys_z.quotients)
        assert set(sys_z.q_polys) == set(degrees)
        for n in range(2 * cfg.m + 5, 2 * cfg.m + 9):
            assert casorati_lambda(sys_z, cfg, n) == reference_casorati_lambda(sys_z, cfg, n)

    def test_distinct_configs_do_not_share_entries(self, cold_configs):
        cfg_a, cfg_b = cold_configs((3, 2, 2, 1), 2)
        sys_a, sys_b = build_z(cfg_a), build_z(cfg_b)
        for n in range(cfg_a.m + 1):
            sobolev_poly(sys_a, cfg_a, n)
        assert not set(CACHED) & set(vars(sys_b)) and not sys_b.q_polys
        for n in range(cfg_b.m + 1):
            assert sobolev_poly(sys_b, cfg_b, n) == reference_sobolev_poly(sys_b, cfg_b, n)
        assert sys_a.q_polys is not sys_b.q_polys
        assert sys_a.quotients is not sys_b.quotients
        assert sys_a.q_polys[cfg_a.m - 1] != sys_b.q_polys[cfg_b.m - 1]
        assert sys_a.P != sys_b.P

    def test_system_refuses_another_configuration(self, monkeypatch):
        # a system from build_z is tied to its config: handed another, q_n and the bundle refuse
        # before anything is computed or held, rather than build a q_4 orthogonal under neither form
        monkeypatch.setattr(construct, "_ZSYS_CACHE", {})
        a = SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[1]], N=[[2]])
        b = SobolevConfig(alpha=3, beta=2, m1=1, m2=1, M=[[1]], N=[[2]])
        for run in (lambda: sobolev_poly(build_z(a), b, 4), lambda: diffop.build_bundle(b, build_z(a))):
            with pytest.raises(ValueError, match="a system built for .* was handed") as refused:
                run()
            assert type(refused.value) is ValueError
        assert 4 not in build_z(a).q_polys
        q4 = sobolev_poly(build_z(a), a, 4)
        assert q4.degree == 4 and all(bilinear(a, q4, Poly.monomial(j)) == 0 for j in range(4))
        # an equal config built separately, as each CLI run parses its own, is the same problem
        twin = SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[1]], N=[[2]])
        assert twin is not a and sobolev_poly(build_z(twin), twin, 4) is q4

    @pytest.mark.parametrize(
        "run",
        [
            lambda system, cfg: casorati_lambda(system, cfg, 3),
            lambda system, cfg: diffop._omega(cfg, system),
            lambda system, cfg: diffop.default_s(cfg, system),
            lambda system, cfg: certify.degree_of_P_check(cfg, system),
        ],
        ids=["casorati_lambda", "_omega", "default_s", "degree_of_P_check"],
    )
    def test_every_system_reader_refuses_another_configuration(self, monkeypatch, run):
        # each would read a's values as b's: casorati_lambda(build_z(a), b, 3) returned a's 8320,
        # where b's Lambda(3) is 1388288
        monkeypatch.setattr(construct, "_ZSYS_CACHE", {})
        a = SobolevConfig(alpha=2, beta=1, m1=1, m2=1, M=[[1]], N=[[2]])
        b = SobolevConfig(alpha=3, beta=2, m1=1, m2=1, M=[[1]], N=[[2]])
        with pytest.raises(ValueError) as refused:
            run(build_z(a), b)
        assert type(refused.value) is ValueError
        assert str(refused.value) == f"a system built for {a!r} was handed {b!r}"
        assert casorati_lambda(build_z(a), a, 3) == 8320 and casorati_lambda(build_z(b), b, 3) == 1388288

    def test_swapped_rows_get_their_own_values(self):
        # z_1 and z_2 share their rho row, so swapping them negates every
        # Casorati determinant and minor
        cfg = SobolevConfig(alpha=3, beta=2, m1=2, m2=1, M=[[1, 0], [2, 1]], N=[[1]])
        sys_z = build_z(cfg)
        degrees = range(cfg.m + 2)
        lambdas = [casorati_lambda(sys_z, cfg, n) for n in degrees]
        qs = [sobolev_poly(sys_z, cfg, n) for n in degrees]
        z = (sys_z.z[1], sys_z.z[0], sys_z.z[2])
        Y = (sys_z.Y[1], sys_z.Y[0], sys_z.Y[2])
        swapped = ZSystem(z=z, Y=Y, p=sys_z.p, q=sys_z.q, rho=sys_z.rho)
        assert lambdas[1] == -57344
        for n in degrees:
            assert casorati_lambda(swapped, cfg, n) == -lambdas[n]
            assert sobolev_poly(swapped, cfg, n) == -qs[n]

    def test_equality_and_hash_ignore_memos(self, cold_configs):
        (cfg,) = cold_configs((2, 2, 1, 1), 1)
        warm = build_z(cfg)
        for n in range(cfg.m + 1):
            sobolev_poly(warm, cfg, n)
        cold = cold_copy(warm)
        assert warm.q_polys and not cold.q_polys
        assert {"P", "quotients"} <= set(vars(warm)) and not set(CACHED) & set(vars(cold))
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    def test_one_casorati_matrix_across_lambda_omega_and_bundle(self, monkeypatch):
        # P's det and the M_h minors read the rows of the one held C
        cfg = SobolevConfig(alpha=3, beta=2, m1=2, m2=1, M=[[1, 0], [2, 1]], N=[[1]])
        system = cold_copy(build_z(cfg))
        real_det, real_minors = _linalg.det, _linalg.maximal_minors
        dets, minors = [], []

        def det(rows):
            if isinstance(rows[0][0], Poly):
                dets.append(rows)
            return real_det(rows)

        def maximal_minors(rows):
            minors.append(rows)
            return real_minors(rows)

        monkeypatch.setattr(_linalg, "det", det)
        monkeypatch.setattr(_linalg, "maximal_minors", maximal_minors)
        casorati_lambda(system, cfg, 0)
        diffop._omega(cfg, system)
        diffop.build_bundle(cfg, system)
        assert len(dets) == 1 and len(minors) == cfg.m
        held = system.C
        assert dets[0] is held
        for h, rows in enumerate(minors):
            assert len(rows) == cfg.m - 1
            assert all(row is other for row, other in zip(rows, held[:h] + held[h + 1 :]))

    def test_quotients_and_q_n_read_the_held_bordered_rows(self, monkeypatch):
        # the n < m quotients take their minors over slices of the held bordered rows, and the
        # n >= m minor values over those rows evaluated at n; C is the held columns 1..m
        cfg = SobolevConfig(alpha=3, beta=2, m1=2, m2=1, M=[[1, 0], [2, 1]], N=[[1]])
        system, m = cold_copy(build_z(cfg)), cfg.m
        real_det = _linalg.det
        dets = []

        def det(rows):
            dets.append(rows)
            return real_det(rows)

        monkeypatch.setattr(_linalg, "det", det)
        system.quotients
        held = system.bordered
        assert len(dets) == m - 1
        for j, rows in enumerate(dets, 1):
            assert [list(map(id, row)) for row in rows] == [list(map(id, row[:j] + row[j + 1 :])) for row in held]
        assert [list(map(id, row)) for row in system.C] == [list(map(id, row[1:])) for row in held]
        assert all(isinstance(row[0], RationalFunction) for row in held)
        for n in (m, m + 3):
            dets.clear()
            sobolev_poly(system, cfg, n)
            at_n = [[entry(n) for entry in row] for row in held]
            assert [row[0] for row in at_n] == [rho[0](n) * z(n) for rho, z in zip(system.rho, system.z)]
            minors = [[list(row) for row in rows] for rows in dets if isinstance(rows[0][0], Fraction)]
            assert minors == [[row[:j] + row[j + 1 :] for row in at_n] for j in range(1, m + 1)]

    def test_p_from_y_tuple_unchanged_on_criterion_10_cases(self):
        # P and the degree law of every criterion-10 Y-tuple, recorded before `certify` built its
        # system through `construct`'s assembly routine
        record = []
        for m1, m2, ys in degree_law_cases():
            p, d, lead = certify.p_from_y_tuple(Fraction(5), Fraction(4), m1, m2, ys)
            record.append([p.to_json(), d, rat_str(lead)])
        digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
        assert digest == "01314da9d70ae150384705106a29a5526f63758173fb20668a8dcaaf01b023ab"

    def test_system_holds_only_fields_and_cached_values(self):
        cfg = SobolevConfig(alpha=3, beta=2, m1=2, m2=1, M=[[1, 0], [2, 1]], N=[[1]])
        system = cold_copy(build_z(cfg))
        fields = {"z", "Y", "p", "q", "rho", "q_polys"}
        bundle = diffop.build_bundle(cfg, system)
        assert set(vars(system)) == fields | {"bordered", "C", "P", "clearing", "omega", "cofactors"}
        diffop.verify_eigen(bundle, cfg, system, cfg.m + 1)
        assert set(vars(system)) == fields | set(CACHED)


class TestRlCrossCheck:
    @pytest.mark.parametrize("l", [0, 3])
    def test_index_out_of_range_rejected(self, l):
        cfg = SobolevConfig(alpha=2, beta=2, m1=1, m2=1, M=[[1]], N=[[1]])
        with pytest.raises(ValueError, match="l out of range"):
            rl_cross_check(cfg, l, 2)

    def test_interior_indices(self):
        cfg = SobolevConfig(alpha=2, beta=2, m1=1, m2=1, M=[[1]], N=[[1]])
        m = cfg.m
        for l in range(1, m + 1):
            for n in range(m, m + 5):
                lhs, rhs = rl_cross_check(cfg, l, n)
                assert lhs == rhs

    def test_zero_mass_reduces_to_moments(self):
        cfg = SobolevConfig(alpha=2, beta=2, m1=1, m2=1, M=[[0]], N=[[0]])
        for l in (1, 2):
            for n in range(2, 6):
                lhs, rhs = rl_cross_check(cfg, l, n)
                assert lhs == rhs

    def test_alternating_block_at_zero(self):
        cfg = SobolevConfig(alpha=2, beta=2, m1=1, m2=1, M=[[1]], N=[[1]])
        lhs, rhs = rl_cross_check(cfg, cfg.m, 0)
        assert lhs == rhs

    def test_matches_jet_sum_reference(self):
        rng = random.Random(5)
        for m1 in range(5):
            for m2 in range(5):
                if m1 + m2 == 0:
                    continue
                cfg = SobolevConfig(
                    alpha=m2 + rng.randint(0, 2),
                    beta=m1 + rng.randint(0, 2),
                    m1=m1,
                    m2=m2,
                    M=[[rng.randint(-2, 2) for _ in range(m1)] for _ in range(m1)],
                    N=[[rng.randint(-2, 2) for _ in range(m2)] for _ in range(m2)],
                )
                for l in range(1, cfg.m + 1):
                    for n in range(cfg.m + 3):
                        assert rl_cross_check(cfg, l, n) == reference_rl_cross_check(cfg, l, n)


class TestCombIdentities:
    def test_one_sided_left(self):
        assert verify_comb_identities(Fraction(5, 3), Fraction(7, 2), 3, 0)

    def test_two_sided(self):
        assert verify_comb_identities(Fraction(9, 4), Fraction(11, 5), 2, 2)

    def test_vacuous_case(self):
        assert verify_comb_identities(Fraction(5, 3), Fraction(7, 2), 1, 0)

    @staticmethod
    def perturbed_calls(monkeypatch, first):
        """The first arguments of every `_inverse_binomial` call, that at (first, k=1, l=0)
        doubled."""
        real, calls = certify._inverse_binomial, []

        def inverse_binomial(a, b, k, l):
            calls.append(a)
            value = real(a, b, k, l)
            return 2 * value if (a, k, l) == (first, 1, 0) else value

        monkeypatch.setattr(certify, "_inverse_binomial", inverse_binomial)
        return calls

    @pytest.mark.parametrize("side", ["alpha", "beta"])
    def test_perturbed_gamma_factor_fails(self, monkeypatch, side):
        alpha, beta = Fraction(1, 2), Fraction(1, 3)
        assert verify_comb_identities(alpha, beta, 3, 2)
        calls = self.perturbed_calls(monkeypatch, first=alpha if side == "alpha" else beta)
        assert not verify_comb_identities(alpha, beta, 3, 2)
        # each sum takes the factors of both sides: the alpha side over l < m1, the beta
        # side over l < m2
        assert alpha in calls and beta in calls

    @pytest.mark.parametrize(
        "call",
        [
            lambda: verify_comb_identities(0.1, 0.2, 1, 1),
            lambda: verify_comb_identities(Fraction(5, 3), 3.5, 1, 1),
            lambda: build_p(0.5, 2, 2, 1),
            lambda: build_q(3, 0.5, 3),
        ],
    )
    def test_float_parameter_rejected(self, call):
        # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(TypeError, match="float"):
            call()

    # the identities' own hypothesis: at an integer the Gamma factors have poles
    @pytest.mark.parametrize(
        "alpha, beta", [(Fraction(2), Fraction(1, 2)), (Fraction(1, 2), Fraction(3)), (Fraction(1, 2), Fraction(3, 2))]
    )
    def test_integer_parameter_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="non-integers"):
            verify_comb_identities(alpha, beta, 1, 1)

    def test_matches_gamma_product_reference(self):
        rng = random.Random(6)
        for m1 in range(5):
            for m2 in range(5):
                for alpha, beta in non_integer_pairs(rng, 2):
                    want = reference_verify_comb_identities(alpha, beta, m1, m2)
                    assert verify_comb_identities(alpha, beta, m1, m2) is want is True

    def test_terms_match_gamma_products(self):
        # 1 / C(a+b-k-l, a-k) over Gamma(a+1) Gamma(b+1) / Gamma(a+b+1) is rational
        for a, b in non_integer_pairs(random.Random(7), 6):
            common = GammaProduct.gamma(a + 1) * GammaProduct.gamma(b + 1) / GammaProduct.gamma(a + b + 1)
            for k in range(8):
                for l in range(8):
                    want = 1 / GammaProduct.binomial(a + b - k - l, a - k) / common
                    assert not want.powers
                    assert certify._inverse_binomial(a, b, k, l) == want.coeff


def non_integer_pairs(rng, count):
    """count pairs (alpha, beta) with alpha, beta and alpha + beta non-integers."""
    pairs = []
    while len(pairs) < count:
        alpha = Fraction(rng.randint(1, 40), rng.choice([2, 3, 4, 5, 7]))
        beta = Fraction(rng.randint(1, 40), rng.choice([2, 3, 4, 5, 7]))
        if 1 not in (alpha.denominator, beta.denominator, (alpha + beta).denominator):
            pairs.append((alpha, beta))
    return pairs
