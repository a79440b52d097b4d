"""Gamma-weighted matrix rank and the operator-order prediction."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_reference import reference_weighted_rank

from jacobisobolev.exactmath import Poly
from jacobisobolev.rank import predicted_order, weighted_rank
from jacobisobolev.sobolev import SobolevConfig


def diag(entries):
    m = len(entries)
    return [[entries[i] if i == j else 0 for j in range(m)] for i in range(m)]


class TestWeightedRank:
    def test_scalar(self):
        trace = weighted_rank(5, [[7]])
        assert trace.value == 5
        assert trace.eta == (Fraction(5),)
        assert trace.tau == ()

    def test_float_gamma_or_entry_rejected(self):
        # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
        for gamma, matrix in ((0.1, [[1]]), (1, [[0.5]])):
            with pytest.raises(TypeError, match="float"):
                weighted_rank(gamma, matrix)

    def test_zero_matrix(self):
        for m in (1, 2, 3):
            assert weighted_rank(4, [[0] * m for _ in range(m)]).value == 0

    def test_full_rank_value(self):
        for m in (1, 2, 3):
            identity = diag([1] * m)
            assert weighted_rank(2, identity).value == 2 * m

    def test_trace_consistency(self):
        trace = weighted_rank(3, [[1, 2], [2, 4]])
        m = 2
        assert trace.value == sum(trace.eta) + sum(trace.tau) - m * (m - 1) // 2

    def test_diagonal_closed_form(self):
        # s nonzero entries, I the 1-based positions of the zeros:
        # value = s*(gamma - m - 1) + m*(m+1) - 2*sum(I)
        for entries in [(1, 0, 2), (0, 1, 0), (0, 0, 3), (1, 2, 3), (0, 2)]:
            m = len(entries)
            s = sum(1 for e in entries if e != 0)
            zeros = [j for j in range(1, m + 1) if entries[j - 1] == 0]
            for gamma in (3, 4):
                expected = s * (gamma - m - 1) + m * (m + 1) - 2 * sum(zeros)
                assert weighted_rank(gamma, diag(entries)).value == expected

    def test_column_scaling_invariance(self):
        matrix = [[1, 2], [3, 4]]
        scaled = [[1, 2 * 5], [3, 4 * 5]]
        assert weighted_rank(3, matrix).value == weighted_rank(3, scaled).value

    def test_empty_matrix(self):
        assert weighted_rank(3, []).value == 0


entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def square_matrices(draw):
    """m x m, m = 0..5: sparse entries, or a product U V of rank at most r, so
    that dependent columns and rows are common."""
    m = draw(st.integers(0, 5))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(m)] for _ in range(m)]
    r = draw(st.integers(0, m))
    u = [[draw(entries) for _ in range(r)] for _ in range(m)]
    v = [[draw(entries) for _ in range(m)] for _ in range(r)]
    return [[sum((u[i][k] * v[k][j] for k in range(r)), Fraction(0)) for j in range(m)] for i in range(m)]


class TestAgainstReference:
    @given(st.integers(0, 6), square_matrices())
    @example(3, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    @example(2, [[0, 1, 1], [0, 1, 1], [0, 0, 0]])
    @settings(max_examples=150, deadline=None)
    def test_trace_matches_two_elimination_reference(self, gamma, matrix):
        # one echelon basis per scan gives the trace of two fresh eliminations per span test
        trace = weighted_rank(gamma, matrix)
        assert (trace.eta, trace.tau, trace.reduced_columns, trace.value) == reference_weighted_rank(gamma, matrix)


class TestPredictedOrder:
    def test_scalar_masses(self):
        cfg = SobolevConfig(alpha=2, beta=3, m1=1, m2=1, M=[[1]], N=[[-1]])
        assert predicted_order(cfg) == 2 * (2 + 3 + 1)

    def test_full_mass_anti_triangular(self):
        # anti-triangular mass pattern: order prediction 2*(m1*beta + m2*alpha + 1)
        a, b, m1, m2 = 3, 2, 2, 1
        M = [[1, 1], [1, 0]]
        N = [[1]]
        cfg = SobolevConfig(alpha=a, beta=b, m1=m1, m2=m2, M=M, N=N)
        assert predicted_order(cfg) == 2 * (m1 * b + m2 * a + 1)

    def test_sparse_diagonal(self):
        # only the last diagonal entry nonzero on each side:
        # order prediction 2*(alpha + beta + m1 + m2 - 1)
        a, b, m1, m2 = 3, 3, 2, 2
        cfg = SobolevConfig(
            alpha=a, beta=b, m1=m1, m2=m2,
            M=[[0, 0], [0, 1]], N=[[0, 0], [0, 2]],
        )
        assert predicted_order(cfg) == 2 * (a + b + m1 + m2 - 1)

    def test_xi_degree_contributes(self):
        a, b, m1, m2 = 2, 1, 1, 1
        s = a + b - m1 - m2 - 1
        xi_quad = Poly([0, s + 1, 1])
        plain = SobolevConfig(alpha=a, beta=b, m1=m1, m2=m2, M=[[1]], N=[[1]])
        shifted = SobolevConfig(
            alpha=a, beta=b, m1=m1, m2=m2, M=[[1]], N=[[1]], xi=xi_quad
        )
        assert predicted_order(shifted) == predicted_order(plain) + 2
