"""Matrix polynomial evaluation, reversal, sampling, rank, and scaling."""

import builtins
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HORNER_LAMS,
    assert_multiset_close,
    assert_same_bits,
    backward_errors_reference,
    derivative_reference,
    evaluate_reference,
    perturbed,
    signed_zero_polynomial,
    unit_columns,
)
from sqeig import densela
from sqeig.condition import condition_from_products, condition_numbers
from sqeig.densela import UNIT_ROUNDOFF, generalized_eig
from sqeig.linearize import first_companion
from sqeig import matpoly
from sqeig.matpoly import (
    RANK_SEED,
    Core,
    DegenerateProblemError,
    KernelBases,
    MatrixPolynomial,
    backward_errors,
    core_backward_errors,
    horner,
    joint_norm,
    normal_rank,
    sample_perturbation,
    sample_perturbations,
    scale_quadratic,
    seeded_generator,
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
        assert abs(joint_norm(s) - 1.0) <= 10 * 2 * UNIT_ROUNDOFF

    def test_batch_matches_one_dot_of_the_float_view_bitwise(self):
        # reference: the square root of one dot of each stack's float view,
        # every real and imaginary part in order, with itself
        rng = np.random.default_rng(3)
        for n, m, count in ((1, 0, 4), (3, 2, 1), (5, 2, 17), (11, 3, 6), (4, 1, 0)):
            e = rng.standard_normal((count, m + 1, n, n)) + 1j * rng.standard_normal((count, m + 1, n, n))
            ref = []
            for stack in e:
                v = stack.reshape(-1).view(float)
                ref.append(math.sqrt(float(np.dot(v, v))))
            got = joint_norm(e)
            assert got.shape == (count,)
            np.testing.assert_array_equal(got, ref)
            for stack, want in zip(e, ref):
                assert joint_norm(tuple(stack)) == want

    @given(
        st.integers(0, 3),
        st.integers(1, 12),
        st.integers(0, 5),
        st.sampled_from([1e-150, 1.0, 1e150]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_is_the_float_view_norm_within_rounding(self, m, n, count, scale, seed):
        # within 2 L u of the correctly rounded norm, L = 2 (m+1) n**2 the
        # length of a stack's float view, or infinite on both sides; a stack
        # alone gives the bits of its batch entry
        rng = np.random.default_rng(seed)
        shape = (count, m + 1, n, n)
        e = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        got = joint_norm(e)
        length = 2 * (m + 1) * n * n
        for stack, norm in zip(e, got):
            v = stack.reshape(-1).view(float)
            want = math.sqrt(math.fsum(v * v))
            if math.isinf(want):
                assert math.isinf(norm)
            else:
                assert abs(norm - want) <= 2 * length * UNIT_ROUNDOFF * want
            assert_same_bits(joint_norm(stack), float(norm))

    @pytest.mark.parametrize("n", [400, 1000])
    def test_large_draws_pass_the_unit_norm_check(self, n):
        # sample_perturbations raises unless the second normalizing pass
        # divides by norms within UNIT_NORM_TOL of 1
        for seed in range(3):
            e = sample_perturbation(n, 1, seed)
            assert abs(joint_norm(e) - 1.0) <= matpoly.UNIT_NORM_TOL


def _assert_draw_pins():
    # SHA-256 of the bytes of a batch and of a single draw
    pins = {
        "sample_perturbations(3, 2, 5, 0)": (
            sample_perturbations(3, 2, 5, 0),
            "2b40cbf10f686235b82ae0b60a06c98cf1766af87b4ad7c06519c9b6f61aeaee",
        ),
        "sample_perturbation(11, 2, 3)": (
            sample_perturbation(11, 2, 3),
            "351b52542c4065169ddf2d266dd4523afde6ec0a1d57b3f0984a2e28bf0e5dfb",
        ),
    }
    for call, (draw, want) in pins.items():
        assert draw.dtype == complex
        got = hashlib.sha256(np.ascontiguousarray(draw).tobytes()).hexdigest()
        assert got == want, (
            f"the bits of {call} moved: a draw, or its joint_norm normalization, must "
            "reproduce the old bits or report the moved pins in CHANGES.md"
        )


class TestSamplePerturbation:
    def test_entry_mean(self):
        n, m, draws = 3, 2, 10**4
        rng = np.random.default_rng(4)
        big_n = n * n * (m + 1)
        vals = np.array(
            [sample_perturbation(n, m, rng)[0][0, 0].real for _ in range(draws)]
        )
        assert abs(vals.mean()) <= 3.0 / math.sqrt(2 * big_n * draws)

    def test_entry_modulus_beta_mean(self):
        # one complex entry's squared modulus follows Beta(1, N-1): mean 1/N
        n, m, draws = 3, 2, 10**4
        rng = np.random.default_rng(5)
        big_n = n * n * (m + 1)
        vals = np.array(
            [abs(sample_perturbation(n, m, rng)[1][1, 2]) ** 2 for _ in range(draws)]
        )
        se = math.sqrt((big_n - 1) / (big_n**2 * (big_n + 1)) / draws)
        assert abs(vals.mean() - 1.0 / big_n) <= 4 * se

    def test_deterministic_given_seed(self):
        a = sample_perturbation(3, 1, np.random.default_rng(7))
        b = sample_perturbation(3, 1, np.random.default_rng(7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("n", [1, 3, 11])
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_per_coefficient_draws_bitwise(self, n, m):
        # the sample is the normalized stack of m+1 (real, imaginary) draws
        for seed in (0, 1, 7, 2024):
            rng = np.random.default_rng(seed)
            raw = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(m + 1)]
            for _ in range(2):
                s = joint_norm(raw)
                raw = [c / s for c in raw]
            got = sample_perturbation(n, m, np.random.default_rng(seed))
            assert len(got) == m + 1
            for g, w in zip(got, raw):
                np.testing.assert_array_equal(g, w)

    def test_plain_read_only_stack(self):
        e = sample_perturbation(3, 2, np.random.default_rng(1))
        assert isinstance(e, np.ndarray) and e.shape == (3, 3, 3) and e.dtype == complex
        assert all(c.shape == (3, 3) and not c.flags.writeable for c in e)
        p = _random_poly(np.random.default_rng(2), 3, 2)
        for a, b, d in zip(perturbed(p, e, 0.5).coeffs, p.coeffs, e):
            np.testing.assert_array_equal(a, b + 0.5 * d)

    @pytest.mark.parametrize("n,m", [(1, 0), (3, 2), (5, 2), (11, 1)])
    def test_batch_stacks_equal_single_draws_bitwise(self, n, m):
        # stack i of a batch is the i-th of as many single draws, and the
        # generator ends in the same state
        batch_rng, single_rng = np.random.default_rng(9), np.random.default_rng(9)
        batch = sample_perturbations(n, m, 12, batch_rng)
        assert batch.shape == (12, m + 1, n, n) and not batch.flags.writeable
        for stack in batch:
            for got, want in zip(stack, sample_perturbation(n, m, single_rng)):
                np.testing.assert_array_equal(got, want)
        assert batch_rng.bit_generator.state == single_rng.bit_generator.state

    def test_chunked_draw_changes_no_sample(self, monkeypatch):
        whole_rng, chunked_rng = np.random.default_rng(10), np.random.default_rng(10)
        whole = sample_perturbations(3, 2, 20, whole_rng)
        # three stacks of 2*3*3*3 entries per chunk
        monkeypatch.setattr(matpoly, "DRAW_CHUNK_ENTRIES", 3 * 54 + 1)
        chunked = sample_perturbations(3, 2, 20, chunked_rng)
        np.testing.assert_array_equal(chunked, whole)
        assert chunked_rng.bit_generator.state == whole_rng.bit_generator.state

    def test_sample_off_the_unit_sphere_raises(self, monkeypatch):
        # the check on the second pass's norms, read at call time: with a
        # negative tolerance no norm passes
        monkeypatch.setattr(matpoly, "UNIT_NORM_TOL", -1.0)
        for count in (1, 3):
            with pytest.raises(ValueError, match="unit joint norm"):
                sample_perturbations(3, 2, count, 0)

    def test_empty_batch(self):
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        assert sample_perturbations(3, 2, 0, rng).shape == (0, 3, 3, 3)
        assert rng.bit_generator.state == state

    def test_draw_bits_are_pinned(self):
        # SHA-256 of the bytes of a batch and of a single draw, recorded
        # before the single draw was written as one piece.  A one-ulp change
        # of a normalizing joint norm moves test_outputs_pinned[ex8] in
        # test_solver.py by 1.5e-7, far from its cause; this test names it
        _assert_draw_pins()

    def test_draw_bits_do_not_depend_on_the_sum_builtin(self, monkeypatch):
        # from Python 3.12 on, sum() adds floats with Neumaier's compensated
        # summation, whose last bit differs from the left-to-right sum of
        # 3.11 on some joint norms; a joint norm summed by sum() moves both
        # pins under this emulation of it, so the draws must not call it
        def neumaier_sum(items, start=0):
            total, compensation = start, 0.0
            for x in items:
                t = total + x
                if abs(total) >= abs(x):
                    compensation += (total - t) + x
                else:
                    compensation += (x - t) + total
                total = t
            if compensation and math.isfinite(compensation):
                total += compensation
            return total

        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        # in effect: a left-to-right sum loses the 1.0 here
        assert sum([1e100, 1.0, -1e100]) == 1.0
        _assert_draw_pins()

    def test_joint_norm_invariant_across_sizes(self):
        rng = np.random.default_rng(8)
        u = 2 * UNIT_ROUNDOFF
        for n, m in ((1, 0), (4, 1), (8, 2), (12, 3)):
            s = sample_perturbation(n, m, rng)
            assert abs(joint_norm(s) - 1.0) <= 10 * u


class TestDerivedPolynomials:
    def _checked(self, p):
        # the derived coefficients are read-only and bitwise what the
        # validating constructor makes of them
        for c in p.coeffs:
            assert not c.flags.writeable
        for got, want in zip(p.coeffs, MatrixPolynomial(p.coeffs).coeffs):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_perturbed(self, degree):
        # the companion pair of P + eps*E carries, bit for bit, the
        # coefficients the validating constructor makes of the sums, also
        # complex ones for a real perturbation stack: for a pencil, whose
        # pair is all block row, and past the quadratic's one -I block
        p = _random_poly(np.random.default_rng(12), 4, degree)
        e = sample_perturbation(4, degree, np.random.default_rng(13))
        for stack, eps in ((e, 1e-3), ([np.eye(4)] * (degree + 1), 0.5)):
            reference = perturbed(p, stack, eps)
            self._checked(reference)
            for got, want in zip(first_companion(p, stack, eps), first_companion(reference)):
                assert got.dtype == want.dtype == complex
                np.testing.assert_array_equal(got, want)
                for part in (np.real, np.imag):
                    np.testing.assert_array_equal(np.signbit(part(got)), np.signbit(part(want)))

    def test_reversed_and_balanced(self):
        p = _random_poly(np.random.default_rng(14), 3, 2)
        self._checked(p.reversed())
        self._checked(scale_quadratic(p)[0])

    def test_perturbed_rejects_mismatched_shape(self):
        p = _random_poly(np.random.default_rng(15), 3, 1)
        with pytest.raises(ValueError, match="shape"):
            first_companion(p, (np.zeros((1, 3, 3)), np.zeros((3, 3))), 1.0)

    @pytest.mark.parametrize(
        "bad", [1.0, np.ones(3), np.ones((1, 3)), np.ones((3, 1)), np.ones((2, 2))],
        ids=["scalar", "vector", "row", "column", "wrong_n"],
    )
    def test_perturbed_rejects_broadcastable_coefficient(self, bad):
        # each of these broadcasts against a 3x3 coefficient, so the
        # companion builder checks the shape before the arithmetic
        q = _random_poly(np.random.default_rng(16), 3, 2)
        for i in range(3):
            e = [np.ones((3, 3))] * 3
            e[i] = bad
            with pytest.raises(ValueError, match="shape"):
                first_companion(q, tuple(e), 0.1)


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
        balanced, gamma = scale_quadratic(MatrixPolynomial.quadratic(m, np.eye(2), k))
        assert math.isclose(gamma, 0.5)
        # omega = 1: the balanced K is omega * K
        np.testing.assert_allclose(balanced.coeffs[0], k, rtol=1e-9)

    def test_identity_case(self):
        eye = np.eye(3)
        balanced, gamma = scale_quadratic(MatrixPolynomial.quadratic(eye, eye, eye))
        ks, cs, ms = balanced.coeffs
        assert math.isclose(gamma, 1.0)
        # omega = 1: the balanced K is omega * K
        np.testing.assert_allclose(ks, np.eye(3), rtol=1e-9)
        np.testing.assert_allclose(ms, np.eye(3))

    def test_unit_norms_posts(self):
        # spectral norms of the scaled outer coefficients are exactly one
        m = np.array([[1, 4, 2], [0, 0, 0], [1, 4, 2]], dtype=complex)
        c = np.array([[1, 3, 0], [1, 4, 2], [0, -1, -2]], dtype=complex)
        k = np.array([[1, 2, -2], [0, -1, -2], [0, 0, 0]], dtype=complex)
        ks, cs, ms = scale_quadratic(MatrixPolynomial.quadratic(m, c, k))[0].coeffs
        assert abs(float(np.linalg.norm(ms, 2)) - 1.0) <= 10 * 2 * UNIT_ROUNDOFF
        assert abs(float(np.linalg.norm(ks, 2)) - 1.0) <= 10 * 2 * UNIT_ROUNDOFF

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateProblemError):
            scale_quadratic(MatrixPolynomial.quadratic(np.zeros((2, 2)), np.eye(2), np.eye(2)))
        with pytest.raises(DegenerateProblemError):
            scale_quadratic(MatrixPolynomial.quadratic(np.eye(2), np.eye(2), np.zeros((2, 2))))

    def test_rejects_other_degrees(self):
        with pytest.raises(ValueError, match="quadratic"):
            scale_quadratic(MatrixPolynomial.pencil(np.eye(2), np.eye(2)))

    def test_matches_two_norm_formula_bitwise(self):
        from sqeig.corpus import BUILTIN_NAMES, builtin

        rng = np.random.default_rng(12)
        cases = [builtin(name, seed=s)[0] for name in BUILTIN_NAMES for s in range(3)]
        cases += [_random_poly(rng, n, 2) for n in (1, 2, 3, 7, 20, 40)]
        for p in cases:
            if p.degree != 2:
                continue
            k, c, m = p.coeffs
            gamma = math.sqrt(float(np.linalg.norm(k, 2)) / float(np.linalg.norm(m, 2)))
            omega = 1.0 / float(np.linalg.norm(k, 2))
            balanced, got = scale_quadratic(p)
            assert got == gamma
            for b, w in zip(balanced.coeffs, (omega * k, omega * gamma * c, omega * gamma**2 * m)):
                np.testing.assert_array_equal(b, w)

    def test_eigenvalue_rescaling_consistency(self):
        # eigenvalues of the scaled problem times gamma match the originals
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q = MatrixPolynomial.quadratic(m, c, k)
            balanced, gamma = scale_quadratic(q)
            a0, b0 = first_companion(q)
            a1, b1 = first_companion(balanced)
            lam0 = generalized_eig(a0, b0).eigenvalues()
            lam1 = generalized_eig(a1, b1).eigenvalues()
            assert_multiset_close(lam0, gamma * lam1, rtol=1e6 * UNIT_ROUNDOFF)


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

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError, match="order 0"):
            MatrixPolynomial((np.zeros((0, 0)), np.zeros((0, 0))))
        # a (0, k) coefficient pads to order k
        assert MatrixPolynomial((np.zeros((0, 2)),)).n == 2


class TestKernelBases:
    E = np.eye(4)

    def test_rejects_non_orthonormal_right_basis(self):
        e = self.E
        with pytest.raises(ValueError, match=r"\[X x\].*orthonormal"):
            KernelBases(X=e[:, :1], x=(e[:, 0] + e[:, 1]) / math.sqrt(2), Y=e[:, :1], y=e[:, 1])

    def test_rejects_non_orthonormal_left_basis(self):
        e = self.E
        with pytest.raises(ValueError, match=r"\[Y y\].*orthonormal"):
            KernelBases(X=e[:, :1], x=e[:, 1], Y=e[:, :1], y=2.0 * e[:, 1])

    def test_rejects_mismatched_shapes(self):
        e = self.E
        with pytest.raises(ValueError, match="shape"):
            KernelBases(X=e[:, :2], x=e[:, 2], Y=e[:, :1], y=e[:, 2])

    @pytest.mark.parametrize("side", ["x", "y", "X", "Y"])
    def test_rejects_nan_entry(self, side):
        e = self.E.astype(complex)
        parts = {"X": e[:, :1].copy(), "x": e[:, 1].copy(), "Y": e[:, :1].copy(), "y": e[:, 1].copy()}
        parts[side][0] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            KernelBases(**parts)

    def test_rejects_nan_vector_without_singular_block(self):
        with pytest.raises(ValueError, match=r"\[X x\].*orthonormal"):
            KernelBases(X=None, x=[np.nan, 0.0], Y=None, y=[1.0, 0.0])

    def test_blocks_stored_once(self):
        e = self.E
        b = KernelBases(X=e[:, :2], x=e[:, 2], Y=e[:, 1:3], y=e[:, 3])
        np.testing.assert_array_equal(b.right, e[:, :3])
        np.testing.assert_array_equal(b.left, e[:, 1:])
        for block, parts in ((b.right, (b.X, b.x)), (b.left, (b.Y, b.y))):
            assert not block.flags.writeable
            for part in parts:
                assert np.shares_memory(part, block) and not part.flags.writeable

    @pytest.mark.parametrize("empty", [None, np.zeros((4, 0)), np.zeros(0)])
    def test_empty_singular_block(self, empty):
        e = self.E
        b = KernelBases(X=empty, x=e[:, 0], Y=empty, y=e[:, 1])
        for block in (b.X, b.Y):
            assert block.shape == (4, 0) and block.dtype == complex
        for vec in (b.x, b.y):
            assert vec.shape == (4,) and vec.dtype == complex


class TestSeededSamplers:
    @pytest.mark.parametrize(
        "call",
        [lambda rng: sample_perturbations(3, 2, 2, rng), lambda rng: normal_rank(_ex2_poly(), rng)],
        ids=["sample_perturbations", "normal_rank"],
    )
    def test_bad_seed_is_named_and_generator_passes_through(self, call):
        with pytest.raises(ValueError, match="^seed must be"):
            call(-1)
        rng = np.random.default_rng(4)
        got = call(rng)
        assert np.array_equal(got, call(4))
        assert rng.bit_generator.state != np.random.default_rng(4).bit_generator.state

    def test_seeded_generator_returns_a_generator_unchanged(self):
        rng = np.random.default_rng(0)
        assert seeded_generator(rng) is rng


class TestCachedNormalRank:
    def test_fixed_seed_once(self):
        p = _ex2_poly()
        assert p.normal_rank == normal_rank(p, RANK_SEED) == 1
        assert "normal_rank" in vars(p)


class TestDeflate:
    def _synth(self):
        from sqeig.corpus import synth_pencil

        return synth_pencil(30, 12, seed=3)[0]

    def test_core_reproduces_the_coefficients(self):
        from sqeig.construct import chain_quadratic

        chain = chain_quadratic([0.5, 1.5j, -2.0], 7, rng=4).polynomial()
        for p, shape in ((self._synth(), (12, 12)), (chain, (3, 4))):
            core = p.core
            assert isinstance(core, Core)
            assert (core.left.shape[1], core.right.shape[1]) == shape
            for a, c in zip(p.coeffs, core.coeffs):
                assert c.shape == shape and not c.flags.writeable
                back = core.left @ c @ core.right.conj().T
                np.testing.assert_allclose(back, a, atol=1e-13 * np.linalg.norm(a))

    def test_core_runs_once_and_keeps_arrays_without_kernels(self):
        p = _random_poly(np.random.default_rng(3), 4, 2)
        core = p.core
        assert p.core is core and "core" in vars(p)
        assert core.left is None and core.right is None
        assert all(c is a for c, a in zip(core.coeffs, p.coeffs))
        assert core.dropped == (0.0, 0.0, 0.0)

    def test_dropped_is_what_the_core_leaves_out(self):
        # delta_j = ||A_j - left C_j right*||_F: rounding only, where the cut
        # drops exact kernels
        from sqeig.construct import chain_quadratic

        chain = chain_quadratic([0.5, 1.5j, -2.0], 7, rng=4).polynomial()
        for p in (self._synth(), chain):
            core = p.core
            assert len(core.dropped) == len(p.coeffs)
            for a, c, delta in zip(p.coeffs, core.coeffs, core.dropped):
                back = core.left @ c @ core.right.conj().T
                assert delta == float(np.linalg.norm(a - back))
                assert 0.0 < delta < 1e-13 * np.linalg.norm(a)

    def test_normal_rank_deflates_only_past_a_deficient_first_point(self, monkeypatch):
        calls = []
        real = matpoly.rank_with_tol

        def counting(m):
            calls.append(m.shape)
            return real(m)

        monkeypatch.setattr(matpoly, "rank_with_tol", counting)
        regular = _random_poly(np.random.default_rng(3), 4, 2)
        assert regular.normal_rank == 4 and "core" not in vars(regular)
        assert calls == [(4, 4)]
        calls.clear()
        # the first point reads rank 12 on the 30-by-30 pencil, the full rank
        # of its 12-by-12 core, which ends the search
        p = self._synth()
        assert p.normal_rank == 12 and "core" in vars(p)
        assert calls == [(30, 30)]

    def test_zero_polynomial_has_an_empty_core(self):
        p = MatrixPolynomial.pencil(np.zeros((6, 6)), np.zeros((6, 6)))
        assert p.normal_rank == 0
        assert p.core.left.shape == p.core.right.shape == (6, 0)
        assert all(c.shape == (0, 0) for c in p.core.coeffs)


class TestNormalRankFullRankExit:
    def _counted(self, monkeypatch):
        import sqeig.matpoly as matpoly_mod

        calls = []

        def counting(m):
            calls.append(m.shape)
            return real(m)

        real = matpoly_mod.rank_with_tol
        monkeypatch.setattr(matpoly_mod, "rank_with_tol", counting)
        return calls

    def test_full_rank_point_ends_the_search(self, monkeypatch):
        calls = self._counted(monkeypatch)
        p = _random_poly(np.random.default_rng(2), 5, 2)
        assert normal_rank(p, rng=0) == 5
        assert len(calls) == 1

    def test_rank_deficient_polynomial_probes_three_points(self, monkeypatch):
        # L_1 = [lam, -1] beside L_1^T = [lam; -1]: no common kernel, so
        # the core is the 3-by-3 pencil itself, of normal rank 2
        calls = self._counted(monkeypatch)
        a = np.zeros((3, 3))
        b = np.zeros((3, 3))
        a[0, 1] = b[0, 0] = a[2, 2] = b[1, 2] = -1.0
        assert normal_rank(MatrixPolynomial.pencil(a, b), rng=0) == 2
        assert len(calls) == 3

    def test_full_rank_of_the_core_ends_the_search(self, monkeypatch):
        # ex2's common kernels leave a 2-by-1 core, whose full rank 1 the
        # first point already reads
        calls = self._counted(monkeypatch)
        assert normal_rank(_ex2_poly(), rng=0) == 1
        assert calls == [(2, 2)]

    def test_stream_advances_by_three_draws_either_way(self):
        for p in (_random_poly(np.random.default_rng(2), 5, 2), _ex2_poly()):
            rng, want = np.random.default_rng(4), np.random.default_rng(4)
            normal_rank(p, rng)
            want.random(3)
            assert rng.random() == want.random()


class TestBackwardErrors:
    def test_matches_definition_per_column(self):
        rng = np.random.default_rng(3)
        p = _random_poly(rng, 4, 2)
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        y = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        x /= np.linalg.norm(x, axis=0)
        y /= np.linalg.norm(y, axis=0)
        got = backward_errors(p, lam, x, y)
        for j in range(3):
            value = p.evaluate(lam[j])
            scale = sum(abs(lam[j]) ** i * np.linalg.norm(c) for i, c in enumerate(p.coeffs))
            want = max(np.linalg.norm(value @ x[:, j]), np.linalg.norm(y[:, j].conj() @ value)) / scale
            assert math.isclose(got[j], want, rel_tol=1e-12)

    def test_exact_eigentriple_has_zero_error(self):
        # diag(1, 2) - lam*I at lam = 2 with coordinate vectors
        p = MatrixPolynomial.pencil(np.diag([1.0, 2.0]), np.eye(2))
        e2 = np.array([0.0, 1.0])
        assert backward_errors(p, 2.0, e2, e2) == 0.0
        assert backward_errors(p, 3.0, e2, e2) > 0.1

    def test_norms_are_computed_once(self):
        p = _random_poly(np.random.default_rng(5), 4, 2)
        assert "norms" not in vars(p)
        backward_errors(p, 0.5, unit_columns(4, 1, 0)[:, 0], unit_columns(4, 1, 1)[:, 0])
        assert p.norms is vars(p)["norms"]
        assert p.norms == tuple(float(np.linalg.norm(c)) for c in p.coeffs)


class TestCoreBackwardErrors:
    # the classification of a projected solve reads eta and kappa_bar on the
    # core; these pin the bracket and the identity for any orthonormal
    # bases, so a coarse cut that drops real directions makes delta large

    def _coarse_core(self, monkeypatch, seed):
        # a random quadratic of order 8 whose last three rows and columns are
        # scaled by 0.1, deflated at a cut of 0.3 of the leading pivot: a real
        # part of every coefficient is dropped
        monkeypatch.setattr(densela, "KERNEL_TOL", 0.3)
        grade = np.array([1.0] * 5 + [0.1] * 3)
        g = _random_poly(np.random.default_rng(seed), 8, 2).coeffs
        p = MatrixPolynomial(tuple(grade[:, None] * c * grade for c in g))
        core = p.core
        assert core.left.shape == core.right.shape == (8, 5)
        assert min(d / a for d, a in zip(core.dropped, p.norms)) > 0.02
        return p, core

    @pytest.mark.parametrize("seed", range(3))
    def test_eta_divides_by_the_polynomial_norms(self, monkeypatch, seed):
        p, core = self._coarse_core(monkeypatch, seed)
        rng = np.random.default_rng(seed + 10)
        (s_l, s_r), k = core.coeffs[0].shape, 5
        xc, yc = unit_columns(s_r, k, seed + 10), unit_columns(s_l, k, seed + 11)
        lam = 2.0 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        eta, slack = core_backward_errors(p, core, lam, [c @ xc for c in core.coeffs], yc)
        for i in range(k):
            value = sum(lam[i] ** j * c for j, c in enumerate(core.coeffs))
            scale = sum(abs(lam[i]) ** j * np.linalg.norm(a) for j, a in enumerate(p.coeffs))
            residual = max(np.linalg.norm(value @ xc[:, i]), np.linalg.norm(yc[:, i].conj() @ value))
            assert math.isclose(eta[i], residual / scale, rel_tol=1e-12)
            lost = sum(abs(lam[i]) ** j * np.linalg.norm(a - core.left @ c @ core.right.conj().T)
                       for j, (a, c) in enumerate(zip(p.coeffs, core.coeffs)))
            assert math.isclose(slack[i], lost / scale, rel_tol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_bracket_and_kappa_identity_hold_for_any_cut(self, monkeypatch, seed):
        p, core = self._coarse_core(monkeypatch, seed)
        rng = np.random.default_rng(seed + 20)
        (s_l, s_r), k = core.coeffs[0].shape, 40
        xc, yc = unit_columns(s_r, k, seed + 20), unit_columns(s_l, k, seed + 21)
        lam = np.exp(rng.uniform(-3, 3, k)) * np.exp(2j * np.pi * rng.random(k))
        products = [c @ xc for c in core.coeffs]
        eta, slack = core_backward_errors(p, core, lam, products, yc)
        x, y = core.right @ xc, core.left @ yc
        exact = backward_errors(p, lam, x, y)
        assert (np.abs(exact - eta) <= slack * (1 + 1e-12)).all()
        np.testing.assert_allclose(
            condition_from_products(products, lam, yc), condition_numbers(p, lam, x, y), rtol=1e-12
        )

    def test_core_eigentriples_use_a_good_part_of_the_slack(self, monkeypatch):
        # the dropped error is orthogonal to the core residual, so it moves a
        # large eta by second order only; at the core's eigentriples, whose
        # core eta is rounding, the exact eta uses a good part of the slack
        from sqeig.linearize import recover_vectors

        p, core = self._coarse_core(monkeypatch, 0)
        dec = generalized_eig(*first_companion(MatrixPolynomial(core.coeffs)))
        lam = dec.finite_values
        k = lam.size
        first = int(np.count_nonzero(np.abs(lam) >= 1.0))
        xc, yc, ok = recover_vectors(dec.right_vectors[:, :k], dec.left_vectors[:, :k], first, 5)
        assert k == 10 and ok.all()
        eta, slack = core_backward_errors(p, core, lam, [c @ xc for c in core.coeffs], yc)
        exact = backward_errors(p, lam, core.right @ xc, core.left @ yc)
        assert eta.max() < 1e-13 and (exact <= slack * (1 + 1e-12)).all()
        assert (exact > 0.1 * slack).all()

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_undeflated_core_gives_backward_errors_bits(self, degree):
        # both backward errors take their residuals from one helper, so on a
        # core that deflates nothing eta is backward_errors' value to the bit
        p = _random_poly(np.random.default_rng(degree), 5, degree)
        core = Core(None, None, p.coeffs, (0.0,) * (degree + 1))
        rng = np.random.default_rng(degree + 30)
        x, y = unit_columns(5, 10, degree + 30), unit_columns(5, 10, degree + 31)
        lam = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        eta, slack = core_backward_errors(p, core, lam, [c @ x for c in p.coeffs], y)
        assert_same_bits(eta, backward_errors(p, lam, x, y))
        assert_same_bits(slack, np.zeros(10))
        for j in range(10):
            products = [c @ x[:, j] for c in p.coeffs]
            eta, slack = core_backward_errors(p, core, lam[j], products, y[:, j])
            assert_same_bits(eta, backward_errors(p, lam[j], x[:, j], y[:, j]))
            assert slack == 0.0

    def test_no_kernel_gives_no_slack(self):
        p = _random_poly(np.random.default_rng(7), 5, 1)
        rng = np.random.default_rng(8)
        x, y = unit_columns(5, 4, 8), unit_columns(5, 4, 9)
        lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        eta, slack = core_backward_errors(p, p.core, lam, [c @ x for c in p.coeffs], y)
        assert not slack.any()
        np.testing.assert_allclose(eta, backward_errors(p, lam, x, y), rtol=1e-13)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
class TestHornerMatchesReferenceLoops:
    # matpoly.horner replaced written-out Horner loops; every evaluator built
    # on it gives their bits, signed zeros included

    @pytest.mark.parametrize("lam", HORNER_LAMS)
    def test_evaluate_and_derivative(self, degree, real, lam):
        p = signed_zero_polynomial(degree, real)
        assert_same_bits(p.evaluate(lam), evaluate_reference(p, lam))
        assert_same_bits(p.derivative_at(lam), derivative_reference(p, lam))
        if degree == 0:
            assert not p.derivative_at(lam).any()

    def test_backward_errors(self, degree, real):
        p = signed_zero_polynomial(degree, real)
        x, y = unit_columns(3, 4, seed=1), unit_columns(3, 4, seed=2)
        for j, lam in enumerate(HORNER_LAMS):
            assert_same_bits(
                backward_errors(p, lam, x[:, j], y[:, j]),
                backward_errors_reference(p, lam, x[:, j], y[:, j]),
            )
            assert_same_bits(backward_errors(p, lam, x, y), backward_errors_reference(p, lam, x, y))
        lams = np.array(HORNER_LAMS)
        assert_same_bits(backward_errors(p, lams, x, y), backward_errors_reference(p, lams, x, y))

    def test_horner_returns_a_new_complex_array(self, degree, real):
        p = signed_zero_polynomial(degree, real)
        got = horner(p.coeffs, 0.5)
        assert got.dtype == complex and got.flags.writeable
        assert not any(np.shares_memory(got, c) for c in p.coeffs)
