"""Companion forms, eigenvector recovery, and structured kernel bases."""

import math

import numpy as np
import pytest

from conftest import assert_multiset_close
from sqeig.construct import chain_quadratic
from sqeig.densela import UNIT_ROUNDOFF, generalized_eig
from sqeig.linearize import (
    KernelDegenerateError,
    alternate_companion,
    first_companion,
    left_kernel_basis_alternate,
    left_kernel_basis_first,
    recover_from_alternate,
    recover_from_first,
    right_kernel_basis,
)


def _random_quadratic(rng, n):
    return tuple(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)
    )


def _det_roots(m, c, k):
    # scalar-determinant oracle: interpolate det Q(lam) on a circle, then
    # take polynomial roots -- an independent route to the spectrum
    n = m.shape[0]
    deg = 2 * n
    pts = 1.5 * np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
    vals = [np.linalg.det(lam**2 * m + lam * c + k) for lam in pts]
    coeffs = np.polyfit(pts, vals, deg)
    return np.roots(coeffs)


class TestCompanionForms:
    def test_scalar_first_companion(self):
        pa, pb = first_companion(np.array([[2.0]]), np.array([[3.0]]), np.array([[5.0]]))
        np.testing.assert_allclose(pa, [[3.0, 5.0], [-1.0, 0.0]])
        np.testing.assert_allclose(pb, [[-2.0, 0.0], [0.0, -1.0]])

    def test_scalar_alternate_companion(self):
        pa, pb = alternate_companion(np.array([[2.0]]), np.array([[3.0]]), np.array([[5.0]]))
        np.testing.assert_allclose(pa, [[0.0, 5.0], [-1.0, 0.0]])
        np.testing.assert_allclose(pb, [[-2.0, -3.0], [0.0, -1.0]])

    @pytest.mark.parametrize("form", [first_companion, alternate_companion])
    def test_determinant_identity(self, form):
        rng = np.random.default_rng(0)
        m, c, k = _random_quadratic(rng, 3)
        pa, pb = form(m, c, k)
        for _ in range(5):
            lam = rng.standard_normal() + 1j * rng.standard_normal()
            dq = np.linalg.det(lam**2 * m + lam * c + k)
            dl = np.linalg.det(pa - lam * pb)
            assert abs(dq - dl) <= 1e-10 * max(1.0, abs(dq))

    @pytest.mark.parametrize("form", [first_companion, alternate_companion])
    def test_embedding_identity(self, form):
        # L(lam) @ [lam I; I] stacks Q(lam) over the zero matrix
        rng = np.random.default_rng(1)
        n = 4
        m, c, k = _random_quadratic(rng, n)
        pa, pb = form(m, c, k)
        scale = sum(np.linalg.norm(x) for x in (m, c, k))
        for _ in range(10):
            lam = rng.standard_normal() + 1j * rng.standard_normal()
            emb = np.vstack([lam * np.eye(n), np.eye(n)])
            top = (pa - lam * pb) @ emb
            q = lam**2 * m + lam * c + k
            lim = 1e3 * UNIT_ROUNDOFF * scale * max(1.0, abs(lam)) ** 2
            assert np.linalg.norm(top[:n] - q) <= lim
            assert np.linalg.norm(top[n:]) <= lim

    @pytest.mark.parametrize("form", [first_companion, alternate_companion])
    def test_spectrum_matches_determinant_oracle(self, form):
        rng = np.random.default_rng(2)
        m, c, k = _random_quadratic(rng, 3)
        pa, pb = form(m, c, k)
        dec = generalized_eig(pa, pb, want_left=False)
        assert_multiset_close(
            dec.eigenvalues(), _det_roots(m, c, k), atol=1e-8, rtol=1e-8
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            first_companion(np.eye(2), np.eye(3), np.eye(2))


class TestRecovery:
    def test_structured_right_vector(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x /= np.linalg.norm(x)
        lam = 1.7 - 0.4j
        v = np.concatenate([lam * x, x]) / math.sqrt(1 + abs(lam) ** 2)
        got, _, ok = recover_from_first(v, v)
        assert ok
        overlap = abs(got.conj() @ x)
        assert abs(overlap - 1.0) <= 1e-12

    def test_structured_right_vector_alternate(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x /= np.linalg.norm(x)
        lam = 0.3 + 0.8j
        v = np.concatenate([lam * x, x]) / math.sqrt(1 + abs(lam) ** 2)
        got, _, ok = recover_from_alternate(v, v)
        assert ok
        assert abs(abs(got.conj() @ x) - 1.0) <= 1e-12

    def test_degenerate_block_flagged(self):
        v = np.concatenate([np.zeros(3), np.ones(3) / math.sqrt(3)])
        good = np.ones(6) / math.sqrt(6)
        assert not recover_from_first(v, good)[2]
        assert not recover_from_first(good, v)[2]  # left block
        assert not recover_from_alternate(np.flip(v), np.flip(v))[2]
        # column stacks: only the degenerate column is flagged
        stack = np.column_stack([good, v])
        _, _, ok = recover_from_first(stack, np.column_stack([good, good]))
        assert ok.tolist() == [True, False]

    @pytest.mark.parametrize(
        "form,recover",
        [(first_companion, recover_from_first), (alternate_companion, recover_from_alternate)],
    )
    def test_recovered_vectors_solve_quadratic(self, form, recover):
        rng = np.random.default_rng(4)
        for n in (1, 3):
            m, c, k = _random_quadratic(rng, n)
            pa, pb = form(m, c, k)
            dec = generalized_eig(pa, pb)
            j = 0  # largest-modulus finite eigenvalue
            lam = dec.alphas[j] / dec.betas[j]
            x, y, ok = recover(dec.right_vectors[:, j], dec.left_vectors[:, j])
            assert ok
            q = lam**2 * m + lam * c + k
            scale = np.linalg.norm(q) + 1.0
            assert np.linalg.norm(q @ x) <= 1e-8 * scale
            assert np.linalg.norm(y.conj() @ q) <= 1e-8 * scale


class TestRightKernelBasis:
    def test_orthonormal(self):
        inst = chain_quadratic([1.0, 0.5], 4, rng=0)
        b = inst.bases(1.0)
        cols = right_kernel_basis(b.X, b.x, 1.0)
        np.testing.assert_allclose(
            cols.conj().T @ cols, np.eye(cols.shape[1]), atol=1e-12
        )

    def test_columns_annihilated(self):
        inst = chain_quadratic([1.0, 0.5], 4, rng=1)
        lam = 0.5
        b = inst.bases(lam)
        cols = right_kernel_basis(b.X, b.x, lam)
        pa, pb = first_companion(inst.M, inst.C, inst.K)
        assert np.linalg.norm((pa - lam * pb) @ cols) <= 1e-12

    def test_zero_eigenvalue_block_form(self):
        inst = chain_quadratic([0.0, 1.0], 3, rng=2, rotate=False)
        b = inst.bases(0.0)
        cols = right_kernel_basis(b.X, b.x, 0.0)
        n = 3
        assert np.linalg.norm(cols[:n]) == 0.0

    def test_requires_orthonormal_input(self):
        with pytest.raises(ValueError, match="orthonormal"):
            right_kernel_basis(np.eye(3)[:, :1] * 2.0, np.eye(3)[:, 1], 1.0)


class TestLeftKernelBasis:
    def test_regular_case_beta(self):
        rng = np.random.default_rng(5)
        m, c, _ = _random_quadratic(rng, 3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y /= np.linalg.norm(y)
        lam = 0.3 + 0.2j
        empty = np.zeros((3, 0))
        y_l_block, y_l, beta = left_kernel_basis_first(empty, y, lam, m, c)
        assert y_l_block.shape == (6, 0)
        expected = np.linalg.norm(np.concatenate([y, (lam * m + c).conj().T @ y]))
        assert math.isclose(beta, expected, rel_tol=1e-12)

    @pytest.mark.parametrize("lam0", [1.0, 0.5])
    def test_columns_annihilated_left(self, lam0):
        inst = chain_quadratic([1.0, 0.5], 4, rng=6)
        b = inst.bases(lam0)
        y_l_block, y_l, beta = left_kernel_basis_first(b.Y, b.y, lam0, inst.M, inst.C)
        pa, pb = first_companion(inst.M, inst.C, inst.K)
        cols = np.column_stack([y_l_block, y_l])
        np.testing.assert_allclose(cols.conj().T @ cols, np.eye(cols.shape[1]), atol=1e-10)
        assert np.linalg.norm(cols.conj().T @ (pa - lam0 * pb)) <= 1e-10

    def test_beta_bound_for_scaled_problem(self):
        # with unit-norm outer coefficients, beta <= the closed-form minimum
        for lams in ([1.0, 0.5], [1.0, 0.25, 0.7]):
            inst, _ = chain_quadratic(lams, len(lams) + 2, rng=7).scaled()
            for lam0 in inst.eigenvalues:
                if lam0 == 0:
                    continue
                b = inst.bases(lam0)
                _, _, beta = left_kernel_basis_first(b.Y, b.y, lam0, inst.M, inst.C)
                c2 = np.linalg.norm(inst.C, 2)
                bound = min(
                    math.sqrt(1 + (abs(lam0) + c2) ** 2),
                    math.sqrt(1 + abs(lam0) ** -2),
                )
                assert beta <= bound * (1 + 1e-12)

    def test_alternate_form_annihilated(self):
        inst = chain_quadratic([1.0, 0.5], 4, rng=8)
        lam0 = 1.0
        b = inst.bases(lam0)
        y_l_block, y_l, _ = left_kernel_basis_alternate(b.Y, b.y, lam0, inst.M)
        pa, pb = alternate_companion(inst.M, inst.C, inst.K)
        cols = np.column_stack([y_l_block, y_l])
        assert np.linalg.norm(cols.conj().T @ (pa - lam0 * pb)) <= 1e-10


class TestConditionTransferIdentity:
    @pytest.mark.parametrize("lam0", [1.0, 0.5])
    def test_first_form_identity(self, lam0):
        # y_L* L'(lam) x_L * beta * sqrt(1+|lam|^2) equals y* Q'(lam) x
        inst = chain_quadratic([1.0, 0.5], 4, rng=9)
        b = inst.bases(lam0)
        x_l = right_kernel_basis(b.X, b.x, lam0)[:, -1]
        _, y_l, beta = left_kernel_basis_first(b.Y, b.y, lam0, inst.M, inst.C)
        pa, pb = first_companion(inst.M, inst.C, inst.K)
        lhs = (y_l.conj() @ (-pb) @ x_l) * beta * math.sqrt(1 + abs(lam0) ** 2)
        q_prime = inst.polynomial().derivative_at(lam0)
        rhs = b.y.conj() @ q_prime @ b.x
        assert abs(lhs - rhs) <= 1e6 * UNIT_ROUNDOFF * max(1.0, abs(rhs))

    def test_alternate_form_identity(self):
        inst = chain_quadratic([2.0, 0.5], 4, rng=10)
        lam0 = 0.5
        b = inst.bases(lam0)
        x_l = right_kernel_basis(b.X, b.x, lam0)[:, -1]
        _, y_l, beta = left_kernel_basis_alternate(b.Y, b.y, lam0, inst.M)
        pa, pb = alternate_companion(inst.M, inst.C, inst.K)
        lhs = (y_l.conj() @ (-pb) @ x_l) * beta * math.sqrt(1 + abs(lam0) ** 2)
        rhs = b.y.conj() @ inst.polynomial().derivative_at(lam0) @ b.x
        assert abs(lhs - rhs) <= 1e6 * UNIT_ROUNDOFF * max(1.0, abs(rhs))

    def test_broken_preconditions_detected(self):
        # a duplicated singular-space column breaks the orthonormal-input
        # precondition and must be rejected before any basis is produced
        inst = chain_quadratic([1.0, 0.5], 4, rng=11, rotate=False)
        b = inst.bases(1.0)
        with pytest.raises((ValueError, KernelDegenerateError)):
            left_kernel_basis_first(b.Y, b.Y[:, 0], 1.0, inst.M, inst.C)
