"""Matrix polynomial evaluation, reversal, sampling, rank, and scaling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_multiset_close
from sqeig.densela import UNIT_ROUNDOFF, generalized_eig
from sqeig.matpoly import (
    DegenerateProblemError,
    MatrixPolynomial,
    joint_norm,
    normal_rank,
    sample_perturbation,
    scale_quadratic,
    spectral_norm,
)


def _random_poly(rng, n, m):
    return MatrixPolynomial(
        tuple(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(m + 1)
        )
    )


def _ex2_poly():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    c = np.array([[1.0, 0.0], [0.0, 0.0]])
    k = np.array([[0.0, 0.0], [1.0, 0.0]])
    return MatrixPolynomial.quadratic(m, c, k)


class TestEvaluate:
    def test_at_zero_returns_constant(self):
        p = _random_poly(np.random.default_rng(0), 3, 2)
        np.testing.assert_array_equal(p.evaluate(0.0), p.coeffs[0])

    def test_ex2_at_one(self):
        np.testing.assert_allclose(
            _ex2_poly().evaluate(1.0), np.array([[2.0, 0.0], [1.0, 0.0]])
        )

    def test_degree_zero(self):
        a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = MatrixPolynomial((a0,))
        np.testing.assert_array_equal(p.evaluate(5.7 + 2j), a0)


class TestDerivative:
    def test_quadratic_formula(self):
        rng = np.random.default_rng(1)
        p = _random_poly(rng, 4, 2)
        k, c, m = p.coeffs
        lam = 0.3 - 1.1j
        np.testing.assert_allclose(p.derivative_at(lam), 2 * lam * m + c, atol=1e-14)

    def test_pencil_derivative_is_minus_b(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        p = MatrixPolynomial.pencil(a, b)
        np.testing.assert_allclose(p.derivative_at(2.2), -b, atol=1e-14)

    def test_constant_derivative_zero(self):
        p = MatrixPolynomial((np.eye(2),))
        np.testing.assert_array_equal(p.derivative_at(3.0), np.zeros((2, 2)))


class TestReverse:
    @given(st.integers(0, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, m, n, seed):
        p = _random_poly(np.random.default_rng(seed), n, m)
        q = p.reversed().reversed()
        for a, b in zip(p.coeffs, q.coeffs):
            np.testing.assert_array_equal(a, b)

    def test_reverse_of_constant(self):
        p = MatrixPolynomial((np.eye(3),))
        np.testing.assert_array_equal(p.reversed().coeffs[0], p.coeffs[0])

    def test_evaluation_identity(self):
        rng = np.random.default_rng(3)
        p = _random_poly(rng, 3, 3)
        for _ in range(5):
            lam = rng.standard_normal() + 1j * rng.standard_normal()
            lhs = p.reversed().evaluate(lam)
            rhs = lam**p.degree * p.evaluate(1.0 / lam)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(rhs).max())


class TestJointNorm:
    def test_zero_stack(self):
        assert joint_norm([np.zeros((2, 2))] * 3) == 0.0

    def test_pythagoras(self):
        a = np.zeros((2, 2))
        a[0, 0] = 3.0
        assert math.isclose(joint_norm([a, a]), math.sqrt(18.0))

    def test_sample_is_normalized(self):
        s = sample_perturbation(3, 2, np.random.default_rng(0))
        assert abs(s.joint_norm - 1.0) <= 10 * 2 * UNIT_ROUNDOFF


class TestSamplePerturbation:
    def test_entry_mean(self):
        n, m, draws = 3, 2, 10**4
        rng = np.random.default_rng(4)
        big_n = n * n * (m + 1)
        vals = np.array(
            [sample_perturbation(n, m, rng).coeffs[0][0, 0].real for _ in range(draws)]
        )
        assert abs(vals.mean()) <= 3.0 / math.sqrt(2 * big_n * draws)

    def test_entry_modulus_beta_mean(self):
        # one complex entry's squared modulus follows Beta(1, N-1): mean 1/N
        n, m, draws = 3, 2, 10**4
        rng = np.random.default_rng(5)
        big_n = n * n * (m + 1)
        vals = np.array(
            [abs(sample_perturbation(n, m, rng).coeffs[1][1, 2]) ** 2 for _ in range(draws)]
        )
        se = math.sqrt((big_n - 1) / (big_n**2 * (big_n + 1)) / draws)
        assert abs(vals.mean() - 1.0 / big_n) <= 4 * se

    def test_deterministic_given_seed(self):
        a = sample_perturbation(3, 1, np.random.default_rng(7))
        b = sample_perturbation(3, 1, np.random.default_rng(7))
        for x, y in zip(a.coeffs, b.coeffs):
            np.testing.assert_array_equal(x, y)

    def test_joint_norm_invariant_across_sizes(self):
        rng = np.random.default_rng(8)
        u = 2 * UNIT_ROUNDOFF
        for n, m in ((1, 0), (4, 1), (8, 2), (12, 3)):
            s = sample_perturbation(n, m, rng)
            assert abs(s.joint_norm - 1.0) <= 10 * u


class TestNormalRank:
    def test_identity_pencil(self):
        p = MatrixPolynomial.pencil(np.eye(4), np.eye(4))
        assert normal_rank(p, rng=0) == 4

    def test_ex2_rank_one(self):
        assert normal_rank(_ex2_poly(), rng=0) == 1

    def test_scalar_invariance(self):
        rng = np.random.default_rng(8)
        p = _ex2_poly()
        scaled = MatrixPolynomial(tuple(3.7e3 * c for c in p.coeffs))
        for seed in range(3):
            assert normal_rank(p, rng=seed) == normal_rank(scaled, rng=seed)
        assert normal_rank(_random_poly(rng, 4, 2), rng=1) == 4


class TestScaleQuadratic:
    def test_formula_arithmetic(self):
        m = 4.0 * np.eye(2)
        k = np.eye(2)
        _, _, _, info = scale_quadratic(m, np.eye(2), k)
        assert math.isclose(info.gamma, 0.5)
        assert math.isclose(info.omega, 1.0)

    def test_identity_case(self):
        ms, cs, ks, info = scale_quadratic(np.eye(3), np.eye(3), np.eye(3))
        assert math.isclose(info.gamma, 1.0)
        assert math.isclose(info.omega, 1.0)
        np.testing.assert_allclose(ms, np.eye(3))

    def test_unit_norms_posts(self):
        # spectral norms of the scaled outer coefficients are exactly one
        m = np.array([[1, 4, 2], [0, 0, 0], [1, 4, 2]], dtype=complex)
        c = np.array([[1, 3, 0], [1, 4, 2], [0, -1, -2]], dtype=complex)
        k = np.array([[1, 2, -2], [0, -1, -2], [0, 0, 0]], dtype=complex)
        ms, cs, ks, _ = scale_quadratic(m, c, k)
        assert abs(spectral_norm(ms) - 1.0) <= 10 * 2 * UNIT_ROUNDOFF
        assert abs(spectral_norm(ks) - 1.0) <= 10 * 2 * UNIT_ROUNDOFF

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateProblemError):
            scale_quadratic(np.zeros((2, 2)), np.eye(2), np.eye(2))
        with pytest.raises(DegenerateProblemError):
            scale_quadratic(np.eye(2), np.eye(2), np.zeros((2, 2)))

    def test_eigenvalue_rescaling_consistency(self):
        # eigenvalues of the scaled problem times gamma match the originals
        from sqeig.linearize import first_companion

        rng = np.random.default_rng(9)
        for _ in range(5):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            ms, cs, ks, info = scale_quadratic(m, c, k)
            a0, b0 = first_companion(m, c, k)
            a1, b1 = first_companion(ms, cs, ks)
            lam0 = generalized_eig(a0, b0, want_left=False).eigenvalues()
            lam1 = generalized_eig(a1, b1, want_left=False).eigenvalues()
            assert_multiset_close(lam0, info.gamma * lam1, rtol=1e6 * UNIT_ROUNDOFF)


class TestPadding:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rectangular_padded_square(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        coeffs = tuple(rng.standard_normal((rows, cols)) for _ in range(2))
        p = MatrixPolynomial(coeffs)
        n = max(rows, cols)
        assert p.n == n
        np.testing.assert_array_equal(p.coeffs[0][:rows, :cols], coeffs[0])
        assert np.all(p.coeffs[0][rows:, :] == 0)
        assert np.all(p.coeffs[0][:, cols:] == 0)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="same shape"):
            MatrixPolynomial((np.eye(2), np.eye(3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MatrixPolynomial((np.array([[np.inf]]),))
