"""SVD, rank/nullspace, and generalized eigensolver contracts."""

import sys

import numpy as np
import pytest

from sqeig import densela
from sqeig.corpus import BUILTIN_NAMES, builtin
from sqeig.densela import (
    RANK_TOL,
    UNIT_ROUNDOFF,
    EigensolverError,
    column_norms,
    generalized_eig,
    kernel_complement,
    nullspace_basis,
    rank_with_tol,
    residual_tolerance,
    singular_values,
)


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestSvd:
    # the SVD-backed substrate: singular values alone and the kernel basis

    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(2)), [1.0, 1.0])

    def test_diagonal(self):
        np.testing.assert_allclose(singular_values(np.diag([3.0, 0.0])), [3.0, 0.0])

    def test_sorted_nonnegative(self):
        rng = np.random.default_rng(1)
        s = singular_values(_random_complex(rng, 6, 6))
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            nullspace_basis(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestRankAndNullspace:
    def test_zero_matrix(self):
        assert rank_with_tol(np.zeros((3, 4))) == 0

    def test_threshold_definition(self):
        assert rank_with_tol(np.diag([1.0, 1e-14])) == 1

    def test_benchmark_2x2_value(self):
        # value of the 2x2 benchmark quadratic at lam = 1
        assert rank_with_tol(np.array([[2.0, 0.0], [1.0, 0.0]])) == 1

    def test_nullspace_identity_empty(self):
        assert nullspace_basis(np.eye(3)).shape == (3, 0)

    def test_nullspace_axis(self):
        basis = nullspace_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert basis.shape == (2, 1)
        assert abs(abs(basis[1, 0]) - 1.0) < 1e-14

    def test_nullspace_zero_2x2_dimension_by_oracle(self):
        # the 2x2 benchmark quadratic evaluates to the zero matrix at its
        # eigenvalue 1; the SVD sees the full 2-dimensional kernel there
        q1 = np.zeros((2, 2))
        basis = nullspace_basis(q1)
        assert basis.shape == (2, 2)
        assert np.linalg.norm(q1 @ basis, "fro") <= 1e-10 * np.sqrt(2)

    def test_nullspace_residual_wide(self):
        rng = np.random.default_rng(3)
        m = _random_complex(rng, 3, 6)
        basis = nullspace_basis(m)
        assert basis.shape == (6, 3)
        smax = singular_values(m)[0]
        assert np.linalg.norm(m @ basis, "fro") <= 1e-10 * smax * np.sqrt(6)


def _full_svd(m):
    # the singular values of the full SVD, vectors and all
    return np.linalg.svd(np.asarray(m, dtype=complex))[1]


def _full_svd_rank(m):
    # the rank decision read off the full SVD
    s = _full_svd(m)
    return 0 if s.size == 0 or s[0] == 0.0 else int(np.count_nonzero(s > RANK_TOL * s[0]))


class TestSingularValuesAlone:
    def test_match_full_svd(self):
        rng = np.random.default_rng(5)
        for rows, cols in ((1, 1), (3, 3), (4, 7), (9, 2)):
            m = _random_complex(rng, rows, cols)
            s = singular_values(m)
            assert s.shape == (min(rows, cols),)
            np.testing.assert_allclose(s, _full_svd(m), rtol=0, atol=1e2 * UNIT_ROUNDOFF * s[0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            singular_values(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_rank_decisions_match_full_svd_on_corpus(self, name):
        # at the points normal_rank probes (unit circle) and at the true
        # eigenvalues, where the rank drops, values alone decide as before
        rng = np.random.default_rng(0)
        dropped = with_truth = 0
        for seed in range(5):
            p, truth = builtin(name, seed=seed)
            circle = [np.exp(2j * np.pi * rng.random()) for _ in range(3)]
            ranks = {}
            for lam in circle + list(truth.finite_eigenvalues) + [0.0]:
                m = p.evaluate(lam)
                ranks[lam] = rank_with_tol(m)
                assert ranks[lam] == _full_svd_rank(m), (seed, lam)
            with_truth += bool(truth.finite_eigenvalues)
            dropped += any(ranks[lam] < max(ranks.values()) for lam in truth.finite_eigenvalues)
        assert dropped == with_truth


class TestKernelComplement:
    @staticmethod
    def _blocks(rng, n, kernel, count=3):
        # count n-by-n blocks whose common (right) kernel is the span of the
        # orthonormal columns of kernel
        drop = np.eye(n) - kernel @ kernel.conj().T
        return [_random_complex(rng, n, n) @ drop for _ in range(count)]

    @pytest.mark.parametrize("n, k", [(1, 0), (6, 2), (30, 11), (40, 39)])
    def test_spans_the_complement_of_the_common_kernel(self, n, k):
        rng = np.random.default_rng(n + k)
        kernel = np.linalg.qr(_random_complex(rng, n, k))[0]
        blocks = self._blocks(rng, n, kernel)
        q = kernel_complement(blocks)
        if k == 0:
            assert q is None
            return
        assert q.shape == (n, n - k)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(n - k), atol=1e3 * UNIT_ROUNDOFF)
        # q spans exactly the orthogonal complement of the kernel
        np.testing.assert_allclose(q @ q.conj().T + kernel @ kernel.conj().T, np.eye(n), atol=1e-12)
        for b in blocks:
            assert np.linalg.norm(b - b @ q @ q.conj().T) <= 1e-13 * np.linalg.norm(b)

    def test_zero_stack_and_full_rank_stack(self):
        rng = np.random.default_rng(1)
        q = kernel_complement([np.zeros((5, 5))] * 2)
        assert q.shape == (5, 0) and q.dtype == complex
        # one full-rank block among rank-deficient ones leaves no common kernel
        blocks = [np.diag([1.0, 0, 0, 0]), _random_complex(rng, 4, 4)]
        assert kernel_complement(blocks) is None

    @pytest.mark.parametrize("scale, kept", [(1e-9, True), (1e-11, True), (1e-14, False)])
    def test_cutoff_is_at_rounding_level(self, scale, kept):
        # a kernel direction that one block maps to scale times the stack's
        # norm: kept down to 1e-11, dropped as rounding at 1e-14
        rng = np.random.default_rng(2)
        n = 12
        kernel = np.linalg.qr(_random_complex(rng, n, 3))[0]
        blocks = self._blocks(rng, n, kernel)
        top = np.linalg.norm(np.concatenate(blocks), 2)
        image = _random_complex(rng, n, 1)[:, 0] / np.sqrt(2 * n)
        blocks[1] = blocks[1] + scale * top * np.outer(image, kernel[:, 0].conj())
        q = kernel_complement(blocks)
        assert q.shape == (n, n - 2 if kept else n - 3)


class TestColumnNorms:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (22, 22), (40, 9)])
    def test_bits_of_linalg_norm(self, order, shape):
        v = np.asarray(_random_complex(np.random.default_rng(7), *shape), order=order)
        for block in (v, v[: shape[0] // 2 + 1], v[:, 1:]):
            assert column_norms(block).tobytes() == np.linalg.norm(block, axis=0).tobytes()


class TestGeneralizedEig:
    def test_diagonal_pencil(self):
        dec = generalized_eig(np.diag([1.0, 2.0]), np.eye(2))
        lam = dec.eigenvalues()
        np.testing.assert_allclose(sorted(lam.real), [1.0, 2.0], atol=1e-12)
        # eigenvectors are coordinate axes up to phase
        for j in range(2):
            col = np.abs(dec.right_vectors[:, j])
            assert abs(np.max(col) - 1.0) < 1e-12

    def test_infinite_eigenvalue(self):
        dec = generalized_eig(np.eye(2), np.diag([1.0, 0.0]))
        finite = dec.finite_mask()
        assert finite.sum() == 1
        lam = dec.eigenvalues()
        assert abs(lam[finite][0] - 1.0) < 1e-12
        assert np.isinf(lam[~finite][0])
        # infinite sorted last
        assert not finite[-1]

    def test_residual_invariants_random(self):
        rng = np.random.default_rng(4)
        n = 8
        a = _random_complex(rng, n, n)
        b = _random_complex(rng, n, n)
        dec = generalized_eig(a, b)
        tol = residual_tolerance(n)
        for j in range(n):
            al, be = dec.alphas[j], dec.betas[j]
            lam = al / be
            x = dec.right_vectors[:, j]
            y = dec.left_vectors[:, j]
            scale = np.linalg.norm(a, "fro") + abs(lam) * np.linalg.norm(b, "fro")
            assert np.linalg.norm(a @ x * be - b @ x * al) <= tol * scale
            assert np.linalg.norm(be * (y.conj() @ a) - al * (y.conj() @ b)) <= tol * scale

    def test_unit_norm_vectors(self):
        rng = np.random.default_rng(5)
        dec = generalized_eig(_random_complex(rng, 5, 5), _random_complex(rng, 5, 5))
        np.testing.assert_allclose(np.linalg.norm(dec.right_vectors, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(dec.left_vectors, axis=0), 1.0, atol=1e-12)

    def test_known_spectrum_recovery(self):
        # A = V D W, B = V W has eigenvalues exactly diag(D)
        from conftest import assert_multiset_close

        rng = np.random.default_rng(6)
        n = 12
        v = np.linalg.qr(_random_complex(rng, n, n))[0]
        w = np.linalg.qr(_random_complex(rng, n, n))[0]
        d = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.random(n))
        dec = generalized_eig(v @ np.diag(d) @ w, v @ w)
        assert_multiset_close(dec.eigenvalues(), d, rtol=1e6 * UNIT_ROUNDOFF)

    def test_order_deterministic(self):
        rng = np.random.default_rng(7)
        a = _random_complex(rng, 6, 6)
        b = _random_complex(rng, 6, 6)
        d1 = generalized_eig(a, b)
        d2 = generalized_eig(a, b)
        np.testing.assert_array_equal(d1.alphas, d2.alphas)
        np.testing.assert_array_equal(d1.right_vectors, d2.right_vectors)
        lam = d1.eigenvalues()[d1.finite_mask()]
        mods = np.abs(lam)
        assert np.all(np.diff(mods) <= 1e-12 * (1 + mods[:-1]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            generalized_eig(np.eye(3), np.eye(2))

    def test_exactly_singular_pencil_rejected(self):
        with pytest.raises(EigensolverError, match="indeterminate|singular"):
            generalized_eig(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_order_zero_before_lapack(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called for an order-0 pencil")

        monkeypatch.setattr(densela, "_zggev", no_lapack)
        monkeypatch.setattr(densela, "_zggev3", no_lapack)
        monkeypatch.setattr(densela, "_zgetrf", no_lapack)
        with pytest.raises(ValueError, match="order 0"):
            generalized_eig(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_lapack_failure_is_eigensolver_error(self, monkeypatch):
        # the handle that runs at each order reports info != 0, on both
        # sides of the crossover and on both routes past it: B = I takes
        # the standard route there, a B with a zero pivot takes QZ
        big = densela.ZGGEV3_FROM_ORDER
        cases = [("_zggev", 2, False), ("_zggev", big - 1, False)]
        cases.append(("_zggev3" if densela._ZGGEV3 is not None else "_zggev", big, True))
        cases += [("_zgecon", big, False), ("_zgetrs", big, False), ("_zgeev", big, False)]
        for handle, order, singular_b in cases:
            real = getattr(densela, handle)

            def failing(*args, real=real, **kwargs):
                return (*real(*args, **kwargs)[:-1], 1)

            b = np.eye(order)
            if singular_b:
                b[-1, -1] = 0.0
            with monkeypatch.context() as patch:
                patch.setattr(densela, handle, failing)
                with pytest.raises(EigensolverError, match=f"{handle[1:]} info=1"):
                    generalized_eig(np.diag(np.arange(1.0, order + 1)), b)

    def test_failed_left_vector_solve_is_eigensolver_error(self, monkeypatch):
        # the second zgetrs, B* y = w for the left vectors, is checked too
        real = densela._zgetrs

        def failing_adjoint(*args, **kwargs):
            x, info = real(*args, **kwargs)
            return x, (1 if kwargs.get("trans") == 2 else info)

        order = densela.ZGGEV3_FROM_ORDER
        monkeypatch.setattr(densela, "_zgetrs", failing_adjoint)
        with pytest.raises(EigensolverError, match="zgetrs info=1"):
            generalized_eig(np.diag(np.arange(1.0, order + 1)), np.eye(order))

    def test_zgetrf_info_raises_or_falls_back_to_qz(self, monkeypatch):
        # info < 0 (an illegal argument) raises; info > 0, a zero pivot,
        # sends the pencil to QZ instead
        real = densela._zgetrf
        order = densela.ZGGEV3_FROM_ORDER
        a, b = np.diag(np.arange(1.0, order + 1)), np.eye(order)
        for info, routine in ((-1, None), (1, densela.qz_routine(order))):
            with monkeypatch.context() as patch:
                patch.setattr(densela, "_zgetrf", lambda *args, info=info: (*real(*args)[:-1], info))
                if routine is None:
                    with pytest.raises(EigensolverError, match="zgetrf info=-1"):
                        generalized_eig(a, b)
                else:
                    assert generalized_eig(a, b).routine == routine


def _canonical(alphas, betas):
    # an order that depends only on the (alpha, beta) bits
    return np.lexsort((betas.imag, betas.real, alphas.imag, alphas.real))


def _assert_same_up_to_phase(got, ref, tol):
    for g, r in zip(got.T, ref.T):
        inner = np.vdot(r, g)
        assert np.linalg.norm(g - r * (inner / abs(inner))) <= tol


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 21, 30])
def test_direct_qz_matches_library_reference(order):
    # the direct zggev call reproduces scipy.linalg.eig's (alpha, beta) bit
    # for bit and its unit eigenvectors up to phase, without touching inputs
    import scipy.linalg

    rng = np.random.default_rng(100 + order)
    for layout in ("C", "F"):
        a = np.asarray(_random_complex(rng, order, order), order=layout)
        b = np.asarray(_random_complex(rng, order, order), order=layout)
        a0, b0 = a.copy(), b.copy()
        w, vl, vr = scipy.linalg.eig(a, b, left=True, right=True, homogeneous_eigvals=True)
        dec = generalized_eig(a, b)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)
        ref, got = _canonical(w[0], w[1]), _canonical(dec.alphas, dec.betas)
        np.testing.assert_array_equal(dec.alphas[got], w[0][ref])
        np.testing.assert_array_equal(dec.betas[got], w[1][ref])
        _assert_same_up_to_phase(dec.right_vectors[:, got], vr[:, ref], 1e-14)
        _assert_same_up_to_phase(dec.left_vectors[:, got], vl[:, ref], 1e-14)


needs_zggev3 = pytest.mark.skipif(
    densela._ZGGEV3 is None, reason="this LAPACK does not export zggev3"
)


@pytest.mark.skipif(sys.platform != "linux", reason="symbol lookup is checked on Linux")
def test_zggev3_resolves():
    # every Linux scipy wheel links an OpenBLAS that exports zggev3, so the
    # large-order path is the one tested and timed
    assert densela._ZGGEV3 is not None
    assert densela.qz_routine(densela.ZGGEV3_FROM_ORDER - 1) == "zggev"
    assert densela.qz_routine(densela.ZGGEV3_FROM_ORDER) == "zggev3"


@needs_zggev3
@pytest.mark.parametrize("layout", ["C", "F"])
def test_zggev3_equals_zggev_bitwise_below_crossover(layout):
    # below ZGGEV3_FROM_ORDER both routines return the same bits, so the
    # crossover changes no output of a small solve
    rng = np.random.default_rng(300)
    for order in range(1, densela.ZGGEV3_FROM_ORDER):
        a = np.asarray(_random_complex(rng, order, order), order=layout)
        b = np.asarray(_random_complex(rng, order, order), order=layout)
        old = densela._zggev(a, b, lwork=densela._zggev_lwork(order))
        new = densela._zggev3(a, b)
        assert old[-1] == new[-1] == 0
        # alphas, betas, right vectors and left vectors
        for i in (0, 1, 3, 2):
            assert new[i].tobytes() == old[i].tobytes(), (order, i)


def _backward_errors(a, b, alphas, betas, vectors, left):
    # |beta A x - alpha B x| / ((|beta| |A| + |alpha| |B|) |x|) per column,
    # or the same for y* A and y* B
    if left:
        a, b = a.conj().T, b.conj().T
        alphas, betas = alphas.conj(), betas.conj()
    res = np.linalg.norm(a @ vectors * betas - b @ vectors * alphas, axis=0)
    scale = np.abs(betas) * np.linalg.norm(a, 2) + np.abs(alphas) * np.linalg.norm(b, 2)
    return res / (scale * np.linalg.norm(vectors, axis=0))


def _b_under_floor(rng, order):
    # a random B with one column scaled by 1e-9: u / rcond(B) is far above
    # residual_tolerance(order), so the pencil is solved by QZ
    b = _random_complex(rng, order, order)
    b[:, -1] *= 1e-9
    return b


@needs_zggev3
@pytest.mark.parametrize("order", [33, 48, 75, 100, 150])
def test_zggev3_path_is_backward_stable(monkeypatch, order):
    # from order 75 zggev3 runs the multishift QZ; every pair of both
    # vector sets has a small backward error, the inputs are untouched and
    # a repeated call gives the same bits
    def no_zggev(*args, **kwargs):
        raise AssertionError(f"zggev called at order {order}")

    monkeypatch.setattr(densela, "_zggev", no_zggev)
    rng = np.random.default_rng(400 + order)
    a, b = _random_complex(rng, order, order), _b_under_floor(rng, order)
    a0, b0 = a.copy(), b.copy()
    dec = generalized_eig(a, b)
    assert dec.routine == "zggev3"
    np.testing.assert_array_equal(a, a0)
    np.testing.assert_array_equal(b, b0)
    tol = residual_tolerance(order)
    for vectors, left in ((dec.right_vectors, False), (dec.left_vectors, True)):
        assert _backward_errors(a, b, dec.alphas, dec.betas, vectors, left).max() <= tol
    again = generalized_eig(a, b)
    for field in ("alphas", "betas", "right_vectors", "left_vectors", "finite_values"):
        assert getattr(again, field).tobytes() == getattr(dec, field).tobytes(), field


def test_unresolved_zggev3_falls_back_to_zggev(monkeypatch):
    # where the library lacks zggev3, a large order runs zggev as below
    # the crossover
    rng = np.random.default_rng(500)
    order = densela.ZGGEV3_FROM_ORDER + 2
    a, b = _random_complex(rng, order, order), _b_under_floor(rng, order)
    monkeypatch.setattr(densela, "_ZGGEV3", None)
    assert densela.qz_routine(order) == "zggev"
    dec = generalized_eig(a, b)
    assert dec.routine == "zggev"
    alphas = densela._zggev(a, b, lwork=densela._zggev_lwork(order))[0]
    np.testing.assert_array_equal(np.sort_complex(dec.alphas), np.sort_complex(alphas))


def _b_at_floor(order, share):
    # diag(1, ..., 1, share * floor), floor = u / residual_tolerance(order):
    # zgecon reads its 1-norm rcond exactly
    b = np.eye(order, dtype=complex)
    b[-1, -1] = share * UNIT_ROUNDOFF / residual_tolerance(order)
    return b


def _routine_cases():
    # (order, B, the routine that must run), by label
    rng = np.random.default_rng(600)
    big = densela.ZGGEV3_FROM_ORDER
    qz = densela.qz_routine(big)
    cases = {
        "well_conditioned_33": (big, _random_complex(rng, big, big), "zgeev"),
        "well_conditioned_120": (120, _random_complex(rng, 120, 120), "zgeev"),
        "identity_32": (big - 1, np.eye(big - 1), "zggev"),
        "well_conditioned_32": (big - 1, _random_complex(rng, big - 1, big - 1), "zggev"),
        "just_under_the_floor": (60, _b_at_floor(60, 0.99), qz),
        "just_over_the_floor": (60, _b_at_floor(60, 1.01), "zgeev"),
    }
    return [pytest.param(*case, id=label) for label, case in cases.items()]


@pytest.mark.parametrize("order, b, routine", _routine_cases())
def test_routine_by_order_and_conditioning(order, b, routine):
    # the standard route runs from order 33 where u / rcond(B) is within
    # residual_tolerance(order), QZ everywhere else
    a = _random_complex(np.random.default_rng(order), order, order)
    assert generalized_eig(a, b).routine == routine


def test_exactly_singular_b_keeps_its_infinite_eigenvalues():
    # a zero column of B is a zero pivot in zgetrf: QZ runs and reports the
    # infinite eigenvalue last, as below the crossover
    order = densela.ZGGEV3_FROM_ORDER + 7
    b = np.eye(order)
    b[:, 3] = 0.0
    dec = generalized_eig(np.diag(np.arange(1.0, order + 1)), b)
    assert dec.routine == densela.qz_routine(order)
    assert dec.finite_mask().tolist() == [True] * (order - 1) + [False]
    np.testing.assert_allclose(np.sort(dec.finite_values.real), np.delete(np.arange(1.0, order + 1), 3))


def _well_conditioned(rng, order):
    # Q diag(d), Q unitary and d in [0.5, 2]: cond_2(B) <= 4
    q = np.linalg.qr(_random_complex(rng, order, order))[0]
    return q * rng.uniform(0.5, 2.0, order)


@pytest.mark.parametrize("order", [33, 40, 57, 80, 111, 150])
def test_standard_route_properties(order):
    # a well-conditioned B at order >= 33 is solved as B^{-1} A by zgeev:
    # both vector sets are backward stable pencil eigenvectors, unit and
    # phase-fixed, in the QZ route's order, the inputs are untouched and a
    # repeated call gives the same bits
    rng = np.random.default_rng(700 + order)
    for layout in ("C", "F"):
        a = np.asarray(_random_complex(rng, order, order), order=layout)
        b = np.asarray(_well_conditioned(rng, order), order=layout)
        a0, b0 = a.copy(), b.copy()
        dec = generalized_eig(a, b)
        assert dec.routine == "zgeev"
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)
        assert (dec.betas == 1).all() and dec.finite_mask().all()
        assert dec.finite_values.tobytes() == dec.alphas.tobytes()
        tol = residual_tolerance(order)
        for vectors, left in ((dec.right_vectors, False), (dec.left_vectors, True)):
            assert _backward_errors(a, b, dec.alphas, dec.betas, vectors, left).max() <= tol
            np.testing.assert_allclose(column_norms(vectors), 1.0, rtol=0, atol=1e2 * UNIT_ROUNDOFF)
            # the entry of largest modulus is real positive, up to rounding
            top = vectors[np.abs(vectors).argmax(axis=0), np.arange(order)]
            assert (top.real > 0).all() and (np.abs(top.imag) <= UNIT_ROUNDOFF * top.real).all()
        lam = dec.finite_values
        assert np.lexsort((np.arctan2(lam.imag, lam.real), -np.abs(lam))).tolist() == list(range(order))
        # the eigenvalues are the pencil's: QZ finds them too
        qz = densela._zggev(a, b, lwork=densela._zggev_lwork(order))
        from conftest import assert_multiset_close

        assert_multiset_close(lam, qz[0] / qz[1], rtol=1e6 * UNIT_ROUNDOFF)
        again = generalized_eig(a, b)
        for field in ("alphas", "betas", "right_vectors", "left_vectors", "finite_values"):
            assert getattr(again, field).tobytes() == getattr(dec, field).tobytes(), field
