"""Companion forms, eigenvector recovery, and structured kernel bases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    recover_vectors,
    right_kernel_basis,
)
from sqeig.matpoly import KernelBases, MatrixPolynomial


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
        pa, pb = first_companion(
            MatrixPolynomial.quadratic(np.array([[2.0]]), np.array([[3.0]]), np.array([[5.0]]))
        )
        np.testing.assert_allclose(pa, [[3.0, 5.0], [-1.0, 0.0]])
        np.testing.assert_allclose(pb, [[-2.0, 0.0], [0.0, -1.0]])

    def test_scalar_alternate_companion(self):
        pa, pb = alternate_companion(
            MatrixPolynomial.quadratic(np.array([[2.0]]), np.array([[3.0]]), np.array([[5.0]]))
        )
        np.testing.assert_allclose(pa, [[0.0, 5.0], [-1.0, 0.0]])
        np.testing.assert_allclose(pb, [[-2.0, -3.0], [0.0, -1.0]])

    @pytest.mark.parametrize("form", [first_companion, alternate_companion])
    def test_determinant_identity(self, form):
        rng = np.random.default_rng(0)
        m, c, k = _random_quadratic(rng, 3)
        pa, pb = form(MatrixPolynomial.quadratic(m, c, k))
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
        pa, pb = form(MatrixPolynomial.quadratic(m, c, k))
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
        pa, pb = form(MatrixPolynomial.quadratic(m, c, k))
        dec = generalized_eig(pa, pb)
        assert_multiset_close(
            dec.eigenvalues(), _det_roots(m, c, k), atol=1e-8, rtol=1e-8
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            first_companion(MatrixPolynomial.quadratic(np.eye(2), np.eye(3), np.eye(2)))

    @pytest.mark.parametrize("form", [first_companion, alternate_companion])
    def test_rejects_other_degrees(self, form):
        if form is first_companion:
            with pytest.raises(ValueError, match="degree"):
                form(MatrixPolynomial((np.eye(2),)))
        else:
            with pytest.raises(ValueError, match="quadratic"):
                form(MatrixPolynomial.pencil(np.eye(2), np.eye(2)))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_first_form_embedding_any_degree(self, degree):
        # (A - lam*B) @ [lam**(m-1) I; ...; lam I; I] stacks P(lam) over zeros,
        # and det(A - lam*B) = det P(lam)
        rng = np.random.default_rng(20 + degree)
        n = 3
        p = MatrixPolynomial(tuple(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(degree + 1)
        ))
        pa, pb = first_companion(p)
        assert pa.shape == pb.shape == (degree * n, degree * n)
        scale = sum(np.linalg.norm(c) for c in p.coeffs)
        for _ in range(5):
            lam = rng.standard_normal() + 1j * rng.standard_normal()
            emb = np.vstack([lam ** (degree - 1 - i) * np.eye(n) for i in range(degree)])
            out = (pa - lam * pb) @ emb
            lim = 1e3 * UNIT_ROUNDOFF * scale * max(1.0, abs(lam)) ** degree
            assert np.linalg.norm(out[:n] - p.evaluate(lam)) <= lim
            assert np.linalg.norm(out[n:]) <= lim
            dp = np.linalg.det(p.evaluate(lam))
            assert abs(np.linalg.det(pa - lam * pb) - dp) <= 1e-10 * max(1.0, abs(dp))

    @pytest.mark.parametrize("form", ["first", "alternate"])
    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_blocks_match_np_block_bitwise(self, form, n):
        # QZ's Householder sign choices read signed zeros, so the -0.0
        # entries of -I must survive the block assembly
        from sqeig.corpus import BUILTIN_NAMES, builtin

        quadratics = [builtin(name, seed=1)[0] for name in BUILTIN_NAMES]
        quadratics = [q for q in quadratics if q.degree == 2 and q.n == n]
        quadratics.append(MatrixPolynomial((*_random_quadratic(np.random.default_rng(n), n),)))
        if form == "first":
            # a pencil is its own first companion form, (A0, -A1)
            pencils = [builtin(name, seed=1)[0] for name in BUILTIN_NAMES]
            pencils = [p for p in pencils if p.degree == 1 and p.n == n]
            pencils.append(MatrixPolynomial(_random_quadratic(np.random.default_rng(n), n)[:2]))
            for p in pencils:
                for g, w in zip(first_companion(p), (p.coeffs[0], -p.coeffs[1])):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    np.testing.assert_array_equal(g, w)
                    for part in (np.real, np.imag):
                        np.testing.assert_array_equal(np.signbit(part(g)), np.signbit(part(w)))
        for q in quadratics:
            k, c, m = q.coeffs
            eye, zero = np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)
            if form == "first":
                want = (np.block([[c, k], [-eye, zero]]), np.block([[-m, zero], [zero, -eye]]))
                got = first_companion(q)
            else:
                want = (np.block([[zero, k], [-eye, zero]]), np.block([[-m, -c], [zero, -eye]]))
                got = alternate_companion(q)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                np.testing.assert_array_equal(g, w)
                for part in (np.real, np.imag):
                    np.testing.assert_array_equal(np.signbit(part(g)), np.signbit(part(w)))


class TestAlternateFromFirst:
    # the solver reads both forms' eigenvectors from one QZ of the first
    # form, because C1hat = L @ C1 with the unimodular L = [[I, C], [0, I]]

    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_alternate_is_unimodular_transform_of_first(self, n, seed):
        m, c, k = _random_quadratic(np.random.default_rng(seed), n)
        q = MatrixPolynomial.quadratic(m, c, k)
        ell = np.block([[np.eye(n), c], [np.zeros((n, n)), np.eye(n)]])
        tol = 1e2 * UNIT_ROUNDOFF * np.linalg.norm(c)
        for first, alternate in zip(first_companion(q), alternate_companion(q)):
            np.testing.assert_allclose(ell @ first, alternate, rtol=0, atol=tol)

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_alternate_recovery_reads_first_form_eigenvectors(self, n, seed):
        m, c, k = _random_quadratic(np.random.default_rng(100 + seed), n)
        q = MatrixPolynomial.quadratic(m, c, k)
        first = generalized_eig(*first_companion(q))
        alternate = generalized_eig(*alternate_companion(q))
        lam1, lam2 = first.eigenvalues(), alternate.eigenvalues()
        for j in range(2 * n):
            dist = np.abs(lam2 - lam1[j])
            i = int(np.argmin(dist))
            gaps = np.abs(lam1 - lam1[j])
            gaps[j] = np.inf
            if gaps.min() < 1e-3 * max(1.0, abs(lam1[j])):
                continue  # eigenvectors of close eigenvalues are ill determined
            assert dist[i] <= 1e-10 * max(1.0, abs(lam1[j]))
            got = recover_from_alternate(first.right_vectors[:, j], first.left_vectors[:, j])
            want = recover_from_alternate(alternate.right_vectors[:, i], alternate.left_vectors[:, i])
            assert got[2] and want[2]
            for u, v in zip(got[:2], want[:2]):
                phase = np.vdot(u, v) / abs(np.vdot(u, v))
                assert np.linalg.norm(phase * u - v) <= 1e-8


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
            pa, pb = form(MatrixPolynomial.quadratic(m, c, k))
            dec = generalized_eig(pa, pb)
            j = 0  # largest-modulus finite eigenvalue
            lam = dec.alphas[j] / dec.betas[j]
            x, y, ok = recover(dec.right_vectors[:, j], dec.left_vectors[:, j])
            assert ok
            q = lam**2 * m + lam * c + k
            scale = np.linalg.norm(q) + 1.0
            assert np.linalg.norm(q @ x) <= 1e-8 * scale
            assert np.linalg.norm(y.conj() @ q) <= 1e-8 * scale


class TestRecoverVectors:
    @pytest.mark.parametrize("first", [0, 2, 5])
    def test_one_pass_reads_each_form(self, first):
        # the leading columns as the first form reads them, the rest as the
        # alternate form does, each block renormalized as np.linalg.norm does;
        # unit columns, as recover_vectors requires
        rng = np.random.default_rng(9)
        v, w = (rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5)) for _ in range(2))
        v[4:, 1] = 1e-9 * v[4:, 1]  # an alternate-form x block too small to read
        v, w = v / np.linalg.norm(v, axis=0), w / np.linalg.norm(w, axis=0)
        x, y, ok = recover_vectors(v, w, first, 4)
        blocks = np.hstack([v[:4, :first], v[4:, first:]])
        want_x = blocks / np.linalg.norm(blocks, axis=0)
        want_y = w[:4] / np.linalg.norm(w[:4], axis=0)
        assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()
        assert ok.tolist() == [j != 1 or j < first for j in range(5)]
        for got, want in zip(
            (x, y, ok),
            (np.hstack(parts) for parts in zip(
                recover_from_first(v[:, :first], w[:, :first]),
                recover_from_alternate(v[:, first:], w[:, first:]),
            )),
        ):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("norm, readable", [(5e-9, False), (2e-8, True)])
    def test_block_norm_below_1e_8_is_unreadable(self, norm, readable):
        # unit columns whose x block (top, as the first form reads it, then
        # bottom, as the alternate form does) or y block (top) has the given
        # norm; the rest of each column is unit mass on a row of the other block
        rest = math.sqrt(1.0 - norm**2)
        v = np.zeros((8, 3), dtype=complex)
        w = np.zeros((8, 3), dtype=complex)
        v[[0, 4, 4], [0, 1, 2]] = norm, norm, 1.0
        v[[4, 0], [0, 1]] = rest
        w[0, :2] = 1.0
        w[[0, 4], 2] = norm, rest
        x, y, ok = recover_vectors(v, w, 1, 4)
        assert ok.tolist() == [readable] * 3
        # every block comes back unit, readable or not
        np.testing.assert_allclose(np.linalg.norm(x, axis=0), 1.0, rtol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(y, axis=0), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("first", [0, 2, 5])
    def test_pencil_vectors_come_back_unchanged(self, first):
        # block height equal to the column height: a pencil is its own
        # linearization, so there is nothing to read out or renormalize
        rng = np.random.default_rng(10)
        v, w = (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)) for _ in range(2))
        x, y, ok = recover_vectors(v, w, first, 4)
        assert x is v and y is w
        assert ok.dtype == bool and ok.tolist() == [True] * 5


class TestRightKernelBasis:
    def test_orthonormal(self):
        inst = chain_quadratic([1.0, 0.5], 4, rng=0)
        b = inst.bases(1.0)
        cols = right_kernel_basis(1.0, b)
        np.testing.assert_allclose(
            cols.conj().T @ cols, np.eye(cols.shape[1]), atol=1e-12
        )

    def test_columns_annihilated(self):
        inst = chain_quadratic([1.0, 0.5], 4, rng=1)
        lam = 0.5
        b = inst.bases(lam)
        cols = right_kernel_basis(lam, b)
        pa, pb = first_companion(inst.polynomial())
        assert np.linalg.norm((pa - lam * pb) @ cols) <= 1e-12

    def test_zero_eigenvalue_block_form(self):
        inst = chain_quadratic([0.0, 1.0], 3, rng=2)
        b = inst.bases(0.0)
        cols = right_kernel_basis(0.0, b)
        n = 3
        assert np.linalg.norm(cols[:n]) == 0.0

    def test_requires_orthonormal_input(self):
        e = np.eye(3)
        with pytest.raises(ValueError, match="orthonormal"):
            KernelBases(X=e[:, :1] * 2.0, x=e[:, 1], Y=e[:, :1], y=e[:, 1])


class TestLeftKernelBasis:
    def test_regular_case_beta(self):
        rng = np.random.default_rng(5)
        m, c, _ = _random_quadratic(rng, 3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y /= np.linalg.norm(y)
        lam = 0.3 + 0.2j
        empty = np.zeros((3, 0))
        q = MatrixPolynomial.quadratic(m, c, np.zeros((3, 3)))
        y_l_block, y_l, beta = left_kernel_basis_first(q, lam, KernelBases(empty, y, empty, y))
        assert y_l_block.shape == (6, 0)
        expected = np.linalg.norm(np.concatenate([y, (lam * m + c).conj().T @ y]))
        assert math.isclose(beta, expected, rel_tol=1e-12)

    @pytest.mark.parametrize("lam0", [1.0, 0.5])
    def test_columns_annihilated_left(self, lam0):
        inst = chain_quadratic([1.0, 0.5], 4, rng=6)
        b = inst.bases(lam0)
        y_l_block, y_l, beta = left_kernel_basis_first(inst.polynomial(), lam0, b)
        pa, pb = first_companion(inst.polynomial())
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
                _, _, beta = left_kernel_basis_first(inst.polynomial(), lam0, b)
                c2 = np.linalg.norm(inst.polynomial().coeffs[1], 2)
                bound = min(
                    math.sqrt(1 + (abs(lam0) + c2) ** 2),
                    math.sqrt(1 + abs(lam0) ** -2),
                )
                assert beta <= bound * (1 + 1e-12)

    def test_alternate_form_annihilated(self):
        inst = chain_quadratic([1.0, 0.5], 4, rng=8)
        lam0 = 1.0
        b = inst.bases(lam0)
        y_l_block, y_l, _ = left_kernel_basis_alternate(inst.polynomial(), lam0, b)
        pa, pb = alternate_companion(inst.polynomial())
        cols = np.column_stack([y_l_block, y_l])
        assert np.linalg.norm(cols.conj().T @ (pa - lam0 * pb)) <= 1e-10


class TestConditionTransferIdentity:
    @pytest.mark.parametrize("lam0", [1.0, 0.5])
    def test_first_form_identity(self, lam0):
        # y_L* L'(lam) x_L * beta * sqrt(1+|lam|^2) equals y* Q'(lam) x
        inst = chain_quadratic([1.0, 0.5], 4, rng=9)
        b = inst.bases(lam0)
        x_l = right_kernel_basis(lam0, b)[:, -1]
        _, y_l, beta = left_kernel_basis_first(inst.polynomial(), lam0, b)
        pa, pb = first_companion(inst.polynomial())
        lhs = (y_l.conj() @ (-pb) @ x_l) * beta * math.sqrt(1 + abs(lam0) ** 2)
        q_prime = inst.polynomial().derivative_at(lam0)
        rhs = b.y.conj() @ q_prime @ b.x
        assert abs(lhs - rhs) <= 1e6 * UNIT_ROUNDOFF * max(1.0, abs(rhs))

    def test_alternate_form_identity(self):
        inst = chain_quadratic([2.0, 0.5], 4, rng=10)
        lam0 = 0.5
        b = inst.bases(lam0)
        x_l = right_kernel_basis(lam0, b)[:, -1]
        _, y_l, beta = left_kernel_basis_alternate(inst.polynomial(), lam0, b)
        pa, pb = alternate_companion(inst.polynomial())
        lhs = (y_l.conj() @ (-pb) @ x_l) * beta * math.sqrt(1 + abs(lam0) ** 2)
        rhs = b.y.conj() @ inst.polynomial().derivative_at(lam0) @ b.x
        assert abs(lhs - rhs) <= 1e6 * UNIT_ROUNDOFF * max(1.0, abs(rhs))

    def test_broken_preconditions_detected(self):
        # a duplicated singular-space column breaks the orthonormal-input
        # precondition and must be rejected before any basis is produced
        inst = chain_quadratic([1.0, 0.5], 4, rng=11)
        b = inst.bases(1.0)
        with pytest.raises((ValueError, KernelDegenerateError)):
            KernelBases(X=b.X, x=b.x, Y=b.Y, y=b.Y[:, 0])
