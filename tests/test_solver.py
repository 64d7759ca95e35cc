"""End-to-end randomized solvers: classification, determinism, invariants."""

import math

import numpy as np
import pytest

from conftest import assert_multiset_close
from sqeig.condition import inverse_condition
from sqeig.corpus import BUILTIN_NAMES, builtin
from sqeig.matpoly import DegenerateProblemError, MatrixPolynomial, scale_quadratic
from sqeig.solver import (
    SolverConfig,
    solve_polynomial,
    solve_singular_pencil,
    solve_singular_quadratic,
)


def _accepted_values(results):
    return [r.value for r in results if r.accepted]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=1.0)

    def test_with_seed(self):
        cfg = SolverConfig(seed=1).with_seed(2)
        assert cfg.seed == 2


class TestPencilSolver:
    def test_regular_diagonal_hand_values(self):
        # nearly unperturbed run on diag(1,2) - lam*I: kappa values are
        # sqrt(1+|lam|^2) exactly for coordinate eigenvectors
        res = solve_singular_pencil(
            np.diag([1.0, 2.0]), np.eye(2), SolverConfig(epsilon=1e-12, seed=0)
        )
        assert_multiset_close(_accepted_values(res), [1.0, 2.0], atol=1e-9)
        kappas = sorted(r.kappa_bar for r in res)
        assert math.isclose(kappas[0], math.sqrt(2.0), rel_tol=1e-5)
        assert math.isclose(kappas[1], math.sqrt(5.0), rel_tol=1e-5)

    def test_fully_singular_rejects_everything(self):
        res = solve_singular_pencil(np.zeros((3, 3)), np.zeros((3, 3)), SolverConfig(seed=4))
        assert _accepted_values(res) == []
        assert all(r.kappa_bar == math.inf for r in res)

    def test_rectangular_benchmark_pencil(self):
        a = np.array(
            [
                [1, -2, 100, 0, 0],
                [1, 0, -1, 0, 0],
                [0, 0, 0, 1, -75],
                [0, 0, 0, 0, 2],
            ],
            dtype=float,
        )
        b = np.eye(5, k=1)[:4]
        cfg = SolverConfig(seed=11)
        res = solve_singular_pencil(a, b, cfg)
        acc = [r for r in res if r.accepted]
        assert_multiset_close([r.value for r in acc], [1.0, 2.0], atol=1e-4)
        for r in acc:
            truth = min((1.0, 2.0), key=lambda t: abs(r.value - t))
            assert abs(r.value - truth) <= 100 * cfg.epsilon * r.kappa_bar

    def test_determinism(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        cfg = SolverConfig(seed=123)
        r1 = solve_singular_pencil(a, b, cfg)
        r2 = solve_singular_pencil(a, b, cfg)
        assert [(x.value, x.kappa_bar, x.accepted) for x in r1] == [
            (x.value, x.kappa_bar, x.accepted) for x in r2
        ]


class TestQuadraticSolver:
    def test_single_eigenvalue_benchmark(self):
        m = np.array([[1, 4, 2], [0, 0, 0], [1, 4, 2]], dtype=float)
        c = np.array([[1, 3, 0], [1, 4, 2], [0, -1, -2]], dtype=float)
        k = np.array([[1, 2, -2], [0, -1, -2], [0, 0, 0]], dtype=float)
        res = solve_singular_quadratic(m, c, k, SolverConfig(seed=7))
        assert_multiset_close(_accepted_values(res), [1.0], atol=1e-5)

    def test_no_finite_eigenvalues_benchmark(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = np.array([[1.0, 0.0], [0.0, 0.0]])
        k = np.array([[0.0, 0.0], [1.0, 0.0]])
        res = solve_singular_quadratic(m, c, k, SolverConfig(seed=8))
        assert _accepted_values(res) == []

    def test_two_eigenvalue_benchmark(self):
        m = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 1]], dtype=float)
        c = np.array([[1, -1, 0], [0, 1, -2], [1, 0, -2]], dtype=float)
        k = np.array([[-1, 0, 0], [0, -2, 0], [-1, -2, 0]], dtype=float)
        res = solve_singular_quadratic(m, c, k, SolverConfig(seed=9))
        assert_multiset_close(_accepted_values(res), [1.0, 2.0], atol=1e-5)

    def test_degenerate_coefficients_rejected(self):
        with pytest.raises(DegenerateProblemError):
            solve_singular_quadratic(
                np.zeros((2, 2)), np.eye(2), np.eye(2), SolverConfig(seed=0)
            )

    def test_scaling_consistency(self):
        m = np.array([[1, 4, 2], [0, 0, 0], [1, 4, 2]], dtype=float)
        c = np.array([[1, 3, 0], [1, 4, 2], [0, -1, -2]], dtype=float)
        k = np.array([[1, 2, -2], [0, -1, -2], [0, 0, 0]], dtype=float)
        cfg = SolverConfig(seed=10)
        base = _accepted_values(solve_singular_quadratic(m, c, k, cfg))
        scaled = _accepted_values(
            solve_singular_quadratic(37.5 * m, 37.5 * c, 37.5 * k, cfg)
        )
        assert_multiset_close(base, scaled, rtol=1e-10)

    def test_magnitude_partition(self):
        m = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 1]], dtype=float)
        c = np.array([[1, -1, 0], [0, 1, -2], [1, 0, -2]], dtype=float)
        k = np.array([[-1, 0, 0], [0, -2, 0], [-1, -2, 0]], dtype=float)
        _, _, _, info = scale_quadratic(m, c, k)
        res = solve_singular_quadratic(m, c, k, SolverConfig(seed=11))
        for r in res:
            lam_scaled = abs(r.value) / info.gamma
            if r.source == "C1":
                assert lam_scaled >= 1.0 - 1e-12
            else:
                assert r.source == "C1hat"
                assert lam_scaled < 1.0 + 1e-12

    def test_acceptance_monotone_in_tol(self):
        m = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 1]], dtype=float)
        c = np.array([[1, -1, 0], [0, 1, -2], [1, 0, -2]], dtype=float)
        k = np.array([[-1, 0, 0], [0, -2, 0], [-1, -2, 0]], dtype=float)
        seeds = SolverConfig(seed=12)
        loose = solve_singular_quadratic(m, c, k, seeds)
        tight = solve_singular_quadratic(
            m, c, k, SolverConfig(seed=12, tol=1e2)
        )
        acc_loose = {complex(v) for v in _accepted_values(loose)}
        acc_tight = {complex(v) for v in _accepted_values(tight)}
        assert acc_tight <= acc_loose

    def test_vectors_unit_norm(self):
        m = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 1]], dtype=float)
        c = np.array([[1, -1, 0], [0, 1, -2], [1, 0, -2]], dtype=float)
        k = np.array([[-1, 0, 0], [0, -2, 0], [-1, -2, 0]], dtype=float)
        res = solve_singular_quadratic(m, c, k, SolverConfig(seed=14))
        for r in res:
            assert math.isclose(np.linalg.norm(r.right_vector), 1.0, rel_tol=1e-10)
            assert math.isclose(np.linalg.norm(r.left_vector), 1.0, rel_tol=1e-10)

    def test_complex_designed_eigenvalues(self):
        from sqeig.construct import chain_quadratic

        inst = chain_quadratic([1.0 + 1.0j, 0.4 - 0.2j], 4, rng=3)
        res = solve_singular_quadratic(inst.M, inst.C, inst.K, SolverConfig(seed=5))
        assert_multiset_close(_accepted_values(res), inst.eigenvalues, rtol=1e-5)

    def test_rectangular_quadratic_padded(self):
        m = np.zeros((2, 3)); m[0, 0] = 1.0
        c = np.zeros((2, 3)); c[0, 0] = -3.0
        k = np.zeros((2, 3)); k[0, 0] = 2.0
        res = solve_singular_quadratic(m, c, k, SolverConfig(seed=6))
        assert_multiset_close(_accepted_values(res), [1.0, 2.0], atol=1e-5)

    def test_eigensolver_failure_carries_run_context(self, monkeypatch):
        import sqeig.solver as solver_mod
        from sqeig.densela import EigensolverError

        def boom(*args, **kwargs):
            raise EigensolverError("iteration budget exceeded")

        monkeypatch.setattr(solver_mod, "generalized_eig", boom)
        with pytest.raises(EigensolverError, match=r"seed=77.*epsilon=1e-08"):
            solve_singular_pencil(np.eye(2), np.eye(2), SolverConfig(seed=77))
        m = np.eye(2)
        with pytest.raises(EigensolverError, match=r"seed=78"):
            solve_singular_quadratic(m, m, m, SolverConfig(seed=78))

    def test_determinism_bitwise(self):
        m = np.array([[1, 4, 2], [0, 0, 0], [1, 4, 2]], dtype=float)
        c = np.array([[1, 3, 0], [1, 4, 2], [0, -1, -2]], dtype=float)
        k = np.array([[1, 2, -2], [0, -1, -2], [0, 0, 0]], dtype=float)
        cfg = SolverConfig(seed=999)
        r1 = solve_singular_quadratic(m, c, k, cfg)
        r2 = solve_singular_quadratic(m, c, k, cfg)
        assert [(x.value, x.kappa_bar, x.accepted, x.source) for x in r1] == [
            (x.value, x.kappa_bar, x.accepted, x.source) for x in r2
        ]


class TestDispatch:
    def test_pencil_dispatch(self):
        p = MatrixPolynomial.pencil(np.diag([1.0, 2.0]), np.eye(2))
        res = solve_polynomial(p, SolverConfig(seed=0))
        assert_multiset_close(_accepted_values(res), [1.0, 2.0], atol=1e-6)

    def test_unsupported_degree(self):
        p = MatrixPolynomial((np.eye(2), np.eye(2), np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match="degree"):
            solve_polynomial(p, SolverConfig(seed=0))


class TestReferenceCondition:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_kappa_matches_scalar_definition(self, name):
        # the vectorized classification must reproduce the scalar condition
        # number of each returned eigentriple on the balanced, unperturbed
        # problem, and accept exactly the candidates with kappa <= tol
        for seed in range(3):
            p, _ = builtin(name, seed=seed)
            if p.degree == 2:
                m_s, c_s, k_s, info = scale_quadratic(p.coeffs[2], p.coeffs[1], p.coeffs[0])
                balanced, gamma = MatrixPolynomial.quadratic(m_s, c_s, k_s), info.gamma
            else:
                balanced, gamma = p, 1.0
            cfg = SolverConfig(seed=seed)
            for r in solve_polynomial(p, cfg):
                assert r.accepted == (r.kappa_bar <= cfg.tol)
                lam, x, y = r.value / gamma, r.right_vector, r.left_vector
                if r.kappa_bar <= 1e8:
                    ref = 1.0 / inverse_condition(balanced, lam, x, y)
                    assert abs(r.kappa_bar - ref) <= 1e-10 * ref, (seed, r.value)
                if r.kappa_bar <= cfg.tol:
                    # the definition, evaluated one eigentriple at a time
                    root = math.sqrt(sum(abs(lam) ** (2 * j) for j in range(p.degree + 1)))
                    direct = root / abs(y.conj() @ balanced.derivative_at(lam) @ x)
                    assert abs(r.kappa_bar - direct) <= 1e-10 * direct, (seed, r.value)
