"""Condition formulas, sensitivity model, probabilistic bounds."""

import math

import numpy as np
import pytest
import scipy.stats

from sqeig.condition import (
    BadDirectionError,
    beta_ratio_lower_tail_bound,
    directional_sensitivity,
    estimate_condition,
    first_order_coefficient,
    inverse_condition,
    limit_pencil,
    lower_bound_validity,
    pencil_condition,
    quadratic_condition,
    sensitivity_tail,
    spurious_condition_bound,
    weak_condition_lower,
    weak_condition_lower_simple,
    weak_condition_upper,
)
from sqeig.construct import chain_quadratic
from sqeig.matpoly import MatrixPolynomial, joint_norm, sample_perturbation


def _scalar_pencil():
    # p(lam) = lam - 1 as a 1x1 polynomial
    return MatrixPolynomial((np.array([[-1.0]]), np.array([[1.0]])))


ONE = np.array([1.0 + 0j])


class TestInverseCondition:
    def test_scalar_pencil(self):
        assert math.isclose(
            inverse_condition(_scalar_pencil(), 1.0, ONE, ONE), 1.0 / math.sqrt(2.0)
        )

    def test_pencil_specialization(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = rng.standard_normal((3, 3))
        p = MatrixPolynomial.pencil(a, b)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        lam = 0.7 - 0.1j
        expected = abs(y.conj() @ b @ x) / math.sqrt(1 + abs(lam) ** 2)
        assert math.isclose(inverse_condition(p, lam, x, y), expected, rel_tol=1e-13)
        assert math.isclose(
            pencil_condition(b, lam, x, y), 1.0 / expected, rel_tol=1e-13
        )

    def test_quadratic_specialization(self):
        rng = np.random.default_rng(1)
        m, c, k = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)
        )
        p = MatrixPolynomial.quadratic(m, c, k)
        x = np.array([1.0, 0.0], dtype=complex)
        y = np.array([0.0, 1.0], dtype=complex)
        lam = 1.3 + 0.4j
        expected = abs(y.conj() @ (2 * lam * m + c) @ x) / math.sqrt(
            1 + abs(lam) ** 2 + abs(lam) ** 4
        )
        assert math.isclose(inverse_condition(p, lam, x, y), expected, rel_tol=1e-13)


class TestConditionNumbers:
    def test_identity_pencil_at_zero(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        assert math.isclose(pencil_condition(np.eye(2), 0.0, e1, e1), 1.0)

    def test_quadratic_hand_value(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        got = quadratic_condition(np.eye(2), np.eye(2), 1.0, e1, e1)
        assert math.isclose(got, math.sqrt(3.0) / 3.0, rel_tol=1e-14)

    def test_orthogonal_gives_infinity(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        assert pencil_condition(np.eye(2), 1.0, e1, e2) == math.inf
        assert quadratic_condition(np.eye(2), np.eye(2), 0.5, e1, e2) == math.inf


class TestDirectionalSensitivity:
    def test_scalar_constant_direction(self):
        # constant perturbation of p(lam) = lam - 1 moves the root one-to-one
        p = _scalar_pencil()
        e = (np.array([[0.5]]), np.array([[0.0]]))
        empty = np.zeros((1, 0))
        got = directional_sensitivity(p, 1.0, empty, ONE, empty, ONE, e)
        assert math.isclose(got, 1.0, rel_tol=1e-13)

    def test_first_order_movement_1x1(self):
        # root of (1 + eps e1) lam + (eps e0 - 1) vs the predicted slope
        rng = np.random.default_rng(2)
        e0, e1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p = _scalar_pencil()
        e = (np.array([[e0]]), np.array([[e1]]))
        empty = np.zeros((1, 0))
        sigma = directional_sensitivity(p, 1.0, empty, ONE, empty, ONE, e)
        e_norm = math.sqrt(abs(e0) ** 2 + abs(e1) ** 2)
        for eps in (1e-5, 1e-6):
            root = (1 - eps * e0) / (1 + eps * e1)
            assert abs(abs(root - 1.0) - sigma * e_norm * eps) <= 10 * eps**2 * e_norm**2

    def test_matches_limit_pencil_factorization(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=3)
        poly = inst.polynomial()
        b = inst.bases(1.0)
        rng = np.random.default_rng(4)
        e = sample_perturbation(3, 2, rng)
        sigma = directional_sensitivity(poly, 1.0, b.X, b.x, b.Y, b.y, e)
        assert sigma > 0 and np.isfinite(sigma)

    def test_bad_direction_raises(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=5)
        b = inst.bases(1.0)
        # rank-one direction makes the inner block exactly singular
        u = b.Y[:, :1] @ b.x.reshape(1, -1).conj() * 0  # zero inner block
        e = (u + 0.0 * u, np.zeros_like(u), np.zeros_like(u))
        with pytest.raises(BadDirectionError):
            directional_sensitivity(inst.polynomial(), 1.0, b.X, b.x, b.Y, b.y, e)


class TestFirstOrderCoefficient:
    @pytest.mark.parametrize(
        "lams,n,lam0,seed", [((1.0, 0.5), 3, 0.5, 30), ((1.0, 0.5, 2.0), 5, 2.0, 31)]
    )
    def test_matches_determinant_ratio(self, lams, n, lam0, seed):
        # reference: c = det(G) / (det(G11) * y* P'(lam) x) with plain
        # determinants of the kernel-projected perturbation G
        inst = chain_quadratic(lams, n, rng=seed)
        poly = inst.polynomial()
        b = inst.bases(lam0)
        xs = np.column_stack([b.X, b.x])
        ys = np.column_stack([b.Y, b.y])
        anchor = b.y.conj() @ poly.derivative_at(lam0) @ b.x
        rng = np.random.default_rng(seed)
        for _ in range(50):
            e = sample_perturbation(n, 2, rng)
            g = ys.conj().T @ sum(lam0**j * c for j, c in enumerate(e.coeffs)) @ xs
            ref = np.linalg.det(g) / (np.linalg.det(g[:-1, :-1]) * anchor)
            c = first_order_coefficient(poly, lam0, b.X, b.x, b.Y, b.y, e)
            assert abs(c - ref) <= 1e-12 * abs(ref)
            sigma = directional_sensitivity(poly, lam0, b.X, b.x, b.Y, b.y, e)
            assert math.isclose(sigma, abs(c) / joint_norm(e.coeffs), rel_tol=1e-14)


class TestSensitivityTail:
    def test_t_zero_is_one(self):
        assert sensitivity_tail(0.0, 2.0, 27, 3, 2) == 1.0

    def test_regular_closed_form(self):
        gamma, big_n = 0.8, 12
        for t in (0.3, 0.9, 1.3):
            got = sensitivity_tail(t, gamma, big_n, 2, 2)
            s = (gamma * t) ** 2
            expected = (1 - s) ** (big_n - 1) if s < 1 else 0.0
            assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)

    def test_corank_one_closed_form(self):
        # for n - r = 1 the tail is exactly 1/(N s) once s >= 1
        gamma, big_n = 1.7, 27
        for t in (1.0 / gamma, 2.0 / gamma, 5.0 / gamma):
            s = (gamma * t) ** 2
            got = sensitivity_tail(t, gamma, big_n, 3, 2)
            assert math.isclose(got, 1.0 / (big_n * s), rel_tol=1e-9)

    def test_model_sampling_oracle(self):
        # 1e5 Monte Carlo draws of the model variable against the tail model
        from sqeig.verify import model_sensitivity_samples

        gamma, big_n, n, r = 1.0, 27, 3, 2
        draws = model_sensitivity_samples(big_n, n, r, 10**5, np.random.default_rng(6))
        stat = scipy.stats.kstest(
            draws, lambda t: 1.0 - np.array([sensitivity_tail(ti, gamma, big_n, n, r) for ti in np.atleast_1d(t)])
        ).statistic
        assert stat <= 0.01


class TestWeakBounds:
    def test_upper_saturates(self):
        # delta >= (n-r)/N makes the max attain 1
        assert math.isclose(weak_condition_upper(0.5, 2.0, 12, 2, 0), 0.5)

    def test_upper_arithmetic(self):
        got = weak_condition_upper(1.0 / 16.0, 3.0, 12, 2, 0)
        assert math.isclose(got, math.sqrt(8.0 / 3.0) / 3.0, rel_tol=1e-13)

    def test_upper_monotone_in_delta(self):
        vals = [weak_condition_upper(d, 1.0, 27, 3, 2) for d in np.linspace(0.005, 0.9, 40)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_lower_equals_simple_at_corank_one(self):
        big_n, n, r = 27, 3, 2
        delta = 0.01
        full = weak_condition_lower(delta, 2.0, big_n, n, r)
        simple = weak_condition_lower_simple(delta, 2.0, big_n)
        assert math.isclose(full, simple, rel_tol=1e-13)

    def test_full_bound_dominates_simple(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(0, n))
            m = int(rng.integers(1, 4))
            big_n = n * n * (m + 1)
            delta = lower_bound_validity(big_n, n, r) * rng.uniform(0.1, 1.0)
            full = weak_condition_lower(delta, 1.0, big_n, n, r)
            assert full >= weak_condition_lower_simple(delta, 1.0, big_n) - 1e-12

    def test_lower_below_upper_in_validity_range(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(0, n))
            m = int(rng.integers(1, 4))
            big_n = n * n * (m + 1)
            delta = lower_bound_validity(big_n, n, r) * rng.uniform(0.05, 1.0)
            lo = weak_condition_lower(delta, 1.3, big_n, n, r)
            up = weak_condition_upper(delta, 1.3, big_n, n, r)
            assert lo <= up * (1 + 1e-12)

    def test_lower_domain_error(self):
        with pytest.raises(ValueError, match="delta"):
            weak_condition_lower(0.5, 1.0, 27, 3, 2)
        with pytest.raises(ValueError, match="singular"):
            weak_condition_lower(0.01, 1.0, 27, 3, 3)

    def test_bounds_record(self):
        from sqeig.condition import weak_condition_bounds

        rec = weak_condition_bounds(0.01, 1.5, 3, 2, 2)
        assert rec.big_n == 27
        assert rec.lower is not None and rec.lower <= rec.upper * (1 + 1e-12)
        out_of_range = weak_condition_bounds(0.5, 1.5, 3, 2, 2)
        assert out_of_range.lower is None
        regular = weak_condition_bounds(0.01, 1.5, 3, 2, 3)
        assert regular.lower is None


class TestBetaRatioBound:
    def test_specialization_closed_form(self):
        big_n, d = 27, 1
        for t in (1.5, 3.0):
            got = beta_ratio_lower_tail_bound(1, big_n - 1, 1, d, 2, t)
            expected = 1 - (big_n - 1) * d / (
                (big_n + d - 2) * (big_n + d - 1) * t**2
            )
            assert math.isclose(got, expected, rel_tol=1e-12)

    def test_t_one_bound_can_reach_zero_and_stays_valid(self):
        # within the guaranteed domain (d >= 1) the correction approaches 1
        # only in the limit b -> 0 with d = 1; the bound stays a valid
        # (nonnegative) cdf bound all the way down
        for b in (1.0, 0.1, 1e-3, 1e-6):
            got = beta_ratio_lower_tail_bound(1, b, 1, 1, 2, 1.0)
            # closed form for these parameters: b / (b + 1)
            assert math.isclose(got, b / (b + 1.0), rel_tol=1e-6, abs_tol=1e-9)
            assert -1e-12 <= got <= 1.0

    def test_dominates_empirical_cdf(self):
        rng = np.random.default_rng(9)
        a, b, c, d, k = 1.0, 26.0, 1.0, 2.0, 2
        x = rng.beta(a, b, 10**5)
        y = rng.beta(c, d, 10**5)
        ratio = (x / y) ** (1.0 / k)
        for t in (1.0, 2.0, 5.0):
            emp = float(np.mean(ratio < t))
            bound = beta_ratio_lower_tail_bound(a, b, c, d, k, t)
            assert emp <= bound + 3 * math.sqrt(max(emp, 1e-6) * (1 - min(emp, 1 - 1e-9)) / 10**5)

    def test_requires_t_at_least_one(self):
        with pytest.raises(ValueError):
            beta_ratio_lower_tail_bound(1, 1, 1, 1, 2, 0.5)


class TestSpuriousBound:
    def test_hand_value(self):
        eps = 1e-8
        got = spurious_condition_bound(5 * eps, eps, 0.0, 2, 1.0, 1.0)
        assert math.isclose(got, 25.0 / 16.0, rel_tol=1e-12)

    def test_quadratic_homogeneity_in_tau(self):
        eps = 1e-8
        b1 = spurious_condition_bound(10 * eps, eps, 0.0, 2, 1.0, 1.0)
        b2 = spurious_condition_bound(20 * eps, eps, 0.0, 2, 1.0, 1.0)
        assert math.isclose(b2, 4 * b1, rel_tol=1e-12)

    def test_precondition_not_applicable(self):
        eps = 1e-8
        assert spurious_condition_bound(4.9 * eps, eps, 0.0, 2, 1.0, 1.0) is None


class TestLimitPencil:
    def test_projected_derivative_rank_one(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=10)
        b = inst.bases(1.0)
        e = sample_perturbation(3, 2, np.random.default_rng(11))
        lp = limit_pencil(inst.polynomial(), 1.0, b.X, b.x, b.Y, b.y, e)
        d = lp.D
        anchor = b.y.conj() @ inst.polynomial().derivative_at(1.0) @ b.x
        expected = np.zeros_like(d)
        expected[-1, -1] = anchor
        assert np.linalg.norm(d - expected) <= 1e-10 * max(1.0, abs(anchor))

    def test_estimate_never_exceeds_unperturbed(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=12)
        poly = inst.polynomial()
        b = inst.bases(0.5)
        gamma = inverse_condition(poly, 0.5, b.x, b.y)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            e = sample_perturbation(3, 2, rng)
            est = estimate_condition(poly, 0.5, b.X, b.x, b.Y, b.y, e)
            assert est.gamma_bar <= gamma * (1 + 1e-12)
            if est.gamma_bar > 0:
                assert math.isclose(est.gamma_bar * est.kappa_bar, 1.0, rel_tol=1e-12)

    def test_regular_case_weights_are_one(self):
        p = _scalar_pencil()
        empty = np.zeros((1, 0))
        e = (np.array([[0.3 + 0.1j]]), np.array([[0.2]]))
        lp = limit_pencil(p, 1.0, empty, ONE, empty, ONE, e)
        assert math.isclose(lp.left_weight, 1.0, rel_tol=1e-13)
        assert math.isclose(lp.right_weight, 1.0, rel_tol=1e-13)
        est = estimate_condition(p, 1.0, empty, ONE, empty, ONE, e)
        assert math.isclose(est.gamma_bar, inverse_condition(p, 1.0, ONE, ONE), rel_tol=1e-12)
