"""Monte Carlo harness internals: matching, experiments, probes."""

import math

import numpy as np
import pytest
import scipy.stats

from sqeig.construct import KernelBases, chain_quadratic
from sqeig.matpoly import MatrixPolynomial, sample_perturbation
from sqeig.solver import SolverConfig
from sqeig.verify import (
    ProbeFailureError,
    TrialReport,
    TruthSpec,
    empirical_probability,
    expansion_order_check,
    limit_mixing_samples,
    linearization_ratios,
    match_accepted,
    model_sensitivity_samples,
    sensitivity_distribution_ks,
    sensitivity_samples,
    singular_space_estimate,
    spurious_bound_records,
    subspace_angle,
)


class TestMatching:
    def test_exact_match(self):
        got = match_accepted([2.0 + 1e-6j, 1.0], [1.0, 2.0], 1e-4)
        assert got == [2.0, 1.0]

    def test_empty_sets_match(self):
        assert match_accepted([], [], 1e-4) == []

    def test_extra_is_failure(self):
        assert match_accepted([1.0, 1.5], [1.0], 1e-4) is None

    def test_miss_is_failure(self):
        assert match_accepted([1.0], [1.0, 2.0], 1e-4) is None

    def test_relative_tolerance(self):
        assert match_accepted([100.004], [100.0], 1e-4) is not None
        assert match_accepted([100.02], [100.0], 1e-4) is None

    def test_close_truth_values_assigned_correctly(self):
        truth = [1.00001, 1.00002, 1.00003]
        got = match_accepted([1.000021, 1.000009, 1.000031], truth, 1e-4)
        assert got == [1.00002, 1.00001, 1.00003]


class TestTruthSpec:
    def test_distinct_required(self):
        with pytest.raises(ValueError):
            TruthSpec((1.0, 1.0))

    def test_report_bounds(self):
        with pytest.raises(ValueError):
            TrialReport(n_t=5, n_s=6)
        assert TrialReport(n_t=4, n_s=1).p == 0.25


class TestEmpiricalProbability:
    def test_deterministic(self):
        m = np.array([[1, 4, 2], [0, 0, 0], [1, 4, 2]], dtype=float)
        c = np.array([[1, 3, 0], [1, 4, 2], [0, -1, -2]], dtype=float)
        k = np.array([[1, 2, -2], [0, -1, -2], [0, 0, 0]], dtype=float)
        poly = MatrixPolynomial.quadratic(m, c, k)
        truth = TruthSpec((1.0,))
        cfg = SolverConfig(seed=20)
        r1 = empirical_probability(poly, truth, cfg, 20)
        r2 = empirical_probability(poly, truth, cfg, 20)
        assert (r1.n_t, r1.n_s) == (r2.n_t, r2.n_s)
        assert r1.p >= 0.9

    def test_keep_trials_details(self):
        poly = MatrixPolynomial.pencil(np.diag([1.0, 2.0]), np.eye(2))
        rep = empirical_probability(
            poly, TruthSpec((1.0, 2.0)), SolverConfig(seed=21), 5, keep_trials=True
        )
        assert len(rep.trials) == 5
        for tr in rep.trials:
            if tr.success:
                assert len(tr.accepted) == len(tr.matched_truth) == 2


class TestSensitivityDistribution:
    def test_regular_case_matches_sqrt_beta_law(self):
        # regular 2x2 pencil: scaled sensitivity follows sqrt(Beta(1, N-1))
        rng = np.random.default_rng(22)
        n = 2
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        from sqeig.densela import generalized_eig
        from sqeig.condition import inverse_condition

        dec = generalized_eig(a, b)
        lam0 = dec.alphas[0] / dec.betas[0]
        x = dec.right_vectors[:, 0]
        y = dec.left_vectors[:, 0]
        poly = MatrixPolynomial.pencil(a, b)
        empty = np.zeros((n, 0))
        bases = KernelBases(X=empty, x=x, Y=empty, y=y)
        gamma = inverse_condition(poly, lam0, x, y)
        emp = gamma * sensitivity_samples(poly, lam0, bases, 4000, rng)
        big_n = n * n * 2
        model = np.sqrt(rng.beta(1.0, big_n - 1.0, size=10**5))
        stat = scipy.stats.ks_2samp(emp, model).statistic
        assert stat <= 0.04

    def test_singular_case_ks_smoke(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=23)
        ks, emp, _ = sensitivity_distribution_ks(
            inst.polynomial(), 1.0, inst.bases(1.0), 2000, rng=24, model_size=10**5
        )
        assert ks <= 0.05
        assert emp.size == 2000

    def test_model_regular_degenerate_denominator(self):
        draws = model_sensitivity_samples(8, 2, 2, 1000, np.random.default_rng(25))
        assert np.all(draws <= 1.0 + 1e-12)


class TestExpansionOrder:
    def _kagstrom(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = np.array([[-3.0, 0.0], [0.0, 0.0]])
        k = np.array([[2.0, 0.0], [0.0, 0.0]])
        poly = MatrixPolynomial.quadratic(m, c, k)
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        bases = KernelBases(X=e2.reshape(-1, 1), x=e1, Y=e2.reshape(-1, 1), y=e1)
        return poly, bases

    def test_quadratic_remainder_on_2x2(self):
        poly, bases = self._kagstrom()
        e = sample_perturbation(2, 2, np.random.default_rng(26))
        rep = expansion_order_check(poly, 1.0, bases, e, np.logspace(-4, -7, 7))
        assert 1.7 <= rep.exponent <= 2.3

    def test_scalar_closed_form_oracle(self):
        # for p(lam) = lam - 1 the perturbed root is (1 - eps e0)/(1 + eps e1)
        # and the remainder is exactly quadratic in eps
        rng = np.random.default_rng(27)
        e0, e1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        poly = MatrixPolynomial((np.array([[-1.0]]), np.array([[1.0]])))
        one = np.array([1.0 + 0j])
        empty = np.zeros((1, 0))
        bases = KernelBases(X=empty, x=one, Y=empty, y=one)
        e = (np.array([[e0]]), np.array([[e1]]))
        eps = np.logspace(-4, -7, 7)
        rep = expansion_order_check(poly, 1.0, bases, e, eps)
        assert math.isclose(abs(rep.coefficient), abs(e0 + e1), rel_tol=1e-12)
        # oracle remainders from the closed-form root
        for ep, rem in zip(rep.eps, rep.remainders):
            root = (1 - ep * e0) / (1 + ep * e1)
            oracle = abs(root - (1.0 - rep.coefficient * ep))
            assert math.isclose(rem, oracle, rel_tol=1e-6, abs_tol=1e-14)
        assert 1.9 <= rep.exponent <= 2.1

    def test_bad_direction_reported(self):
        poly, bases = self._kagstrom()
        zero = np.zeros((2, 2))
        e = (zero, zero, zero)
        from sqeig.condition import BadDirectionError

        with pytest.raises(BadDirectionError):
            expansion_order_check(poly, 1.0, bases, e, [1e-4, 1e-5])


class TestRatios:
    def test_boundary_instance_first_form(self):
        inst, _ = chain_quadratic([1.0, 0.5], 3, rng=28).scaled()
        rep = linearization_ratios(inst, 1.0)
        assert rep.ratio_c1 <= 1.64

    def test_zero_eigenvalue_alternate_form(self):
        inst, _ = chain_quadratic([0.0, 1.0], 3, rng=29).scaled()
        rep = linearization_ratios(inst, 0.0)
        assert rep.ratio_c1hat <= 1.64

    def test_regular_sanity_formula_reduction(self):
        # diagonal regular quadratic: both ratios well defined and modest
        from sqeig.construct import diagonal_quadratic

        inst, _ = diagonal_quadratic([(1.0, -0.8), (0.5, 2.0), (0.3, -2.2)], 4, rng=30).scaled()
        rep = linearization_ratios(inst, inst.eigenvalues[0])
        assert 0 < rep.ratio_c1 <= 2.21
        assert 0 < rep.ratio_c1hat <= 2.21


class TestMixingWeights:
    def test_weights_bounded_by_one(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=31)
        w, gbar, gamma = limit_mixing_samples(
            inst.polynomial(), 1.0, inst.bases(1.0), 500, np.random.default_rng(32)
        )
        assert np.all(w <= 1.0 + 1e-12)
        assert np.all(gbar <= gamma * (1 + 1e-12))

    def test_exponential_tail(self):
        inst = chain_quadratic([1.0], 3, rng=33)  # corank 2
        w, _, _ = limit_mixing_samples(
            inst.polynomial(), 1.0, inst.bases(1.0), 4000, np.random.default_rng(34)
        )
        for t in (0.4, 0.6, 0.8):
            emp = float(np.mean(w >= t))
            bound = math.exp(-2 * t * t)
            assert emp <= bound + 3 * math.sqrt(bound * (1 - bound) / w.size)


class TestSingularSpaceEstimate:
    def test_regular_problem_empty(self):
        poly = MatrixPolynomial.pencil(np.diag([1.0, 2.0]), np.eye(2))
        basis = singular_space_estimate(poly, 1.0, 1e-4, rng=35)
        assert basis.shape == (2, 0)

    def test_constant_kernel_probe_is_exact(self):
        # this benchmark's rational kernel does not depend on lam, so probes
        # at any radius agree to roundoff
        m = np.array([[1, 4, 2], [0, 0, 0], [1, 4, 2]], dtype=float)
        c = np.array([[1, 3, 0], [1, 4, 2], [0, -1, -2]], dtype=float)
        k = np.array([[1, 2, -2], [0, -1, -2], [0, 0, 0]], dtype=float)
        poly = MatrixPolynomial.quadratic(m, c, k)
        b1 = singular_space_estimate(poly, 1.0, 1e-3, rng=36)
        b2 = singular_space_estimate(poly, 1.0, 1e-6, rng=37)
        assert b1.shape == (3, 1)
        assert subspace_angle(b1, b2) <= 1e-6

    def test_probe_linear_in_h_matches_designed_basis(self):
        # chain instances have a lam-dependent kernel column: the probe
        # error against the designed singular space shrinks linearly in h
        inst = chain_quadratic([1.0, 0.5], 4, rng=39)
        angles = []
        for i, h in enumerate((1e-2, 1e-3, 1e-4)):
            est = singular_space_estimate(inst.polynomial(), 1.0, h, rng=40 + i)
            angles.append(subspace_angle(est, inst.bases(1.0).X))
        assert angles[0] <= 1e-1
        assert 0.05 * angles[0] <= angles[1] <= 0.2 * angles[0]
        assert 0.05 * angles[1] <= angles[2] <= 0.2 * angles[1]

    def test_probe_failure_reported(self):
        poly = MatrixPolynomial.pencil(np.diag([1.0, 2.0]), np.eye(2))
        with pytest.raises(ProbeFailureError):
            # a regular pencil never shows a 2-dimensional probe kernel
            singular_space_estimate(poly, 1.0, 1e-4, rng=41, expected_nullity=2)


class TestSpuriousBound:
    def test_constant_basis_problem_respects_bound(self):
        # with lambda-constant minimal kernel bases the eps**-2 certificate
        # is exact; every spurious candidate must clear it
        from sqeig.construct import diagonal_quadratic

        inst = diagonal_quadratic([(1.0, -0.7)], 3, rng=1)
        records = spurious_bound_records(
            inst.M, inst.C, inst.K, SolverConfig(seed=7), 25, truth=inst.eigenvalues
        )
        assert records, "expected applicable spurious-bound records"
        for kappa, bound in records:
            assert kappa >= bound

    @pytest.mark.xfail(
        strict=True,
        reason="the eps**-2 certificate drops kernel-drift cross terms; on this "
        "benchmark the left minimal basis has degree 2 and measured spurious "
        "condition numbers scale like eps**-1, about six orders below the bound",
    )
    def test_benchmark_without_eigenvalues_nominal_rate(self):
        # nominal form of the certificate on the 2x2 benchmark with no
        # finite eigenvalues; see the docstring of spurious_condition_bound
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = np.array([[1.0, 0.0], [0.0, 0.0]])
        k = np.array([[0.0, 0.0], [1.0, 0.0]])
        records = spurious_bound_records(m, c, k, SolverConfig(seed=42), 25)
        assert records, "expected applicable spurious-bound records"
        for kappa, bound in records:
            assert kappa >= bound

    def test_spurious_candidates_remain_far_above_threshold(self):
        # the practical content: even with drifting kernel bases, spurious
        # condition numbers dwarf any sensible acceptance threshold
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = np.array([[1.0, 0.0], [0.0, 0.0]])
        k = np.array([[0.0, 0.0], [1.0, 0.0]])
        records = spurious_bound_records(m, c, k, SolverConfig(seed=42), 25)
        assert records
        for kappa, _ in records:
            assert kappa >= 1e7


class TestBoundSandwich:
    @pytest.mark.parametrize(
        "instance_kind,n,r,big_n",
        [("pencil", 2, 1, 8), ("quad2", 3, 2, 27), ("quad1", 3, 1, 27)],
    )
    def test_quantile_inside_bounds(self, instance_kind, n, r, big_n):
        from sqeig.condition import (
            inverse_condition,
            lower_bound_validity,
            weak_condition_lower,
            weak_condition_upper,
        )
        from sqeig.construct import diagonal_pencil

        if instance_kind == "pencil":
            inst = diagonal_pencil([1.0], 2, rng=1)
        elif instance_kind == "quad2":
            inst = chain_quadratic([1.0, 0.5], 3, rng=1)
        else:
            inst = chain_quadratic([1.0], 3, rng=1)
        lam0 = 1.0
        poly = inst.polynomial()
        b = inst.bases(lam0)
        gamma = inverse_condition(poly, lam0, b.x, b.y)
        samples = 20000
        sig = sensitivity_samples(poly, lam0, b, samples, np.random.default_rng(5))
        for delta in (0.05, 0.01):
            q = float(np.quantile(sig, 1 - delta))
            upper = weak_condition_upper(delta, gamma, big_n, n, r)
            band = 1.5 * math.sqrt((1 - delta) / (delta * samples))
            if delta <= lower_bound_validity(big_n, n, r):
                lower = weak_condition_lower(delta, gamma, big_n, n, r)
                assert lower * (1 - band) <= q <= upper * (1 + band)
            else:
                assert q <= upper * (1 + band)


class TestReportedProbabilityRegimes:
    def test_ex8_default_tolerance_is_marginal(self):
        # with the default threshold the rescaled problem is only detected
        # about half the time; raising the threshold to 1e5 fixes it
        # (asserted at its own floor in the acceptance suite)
        from sqeig.corpus import builtin

        poly, truth = builtin("ex8", seed=0)
        report = empirical_probability(
            poly, truth, SolverConfig(seed=31415), 150
        )
        assert 0.3 <= report.p <= 0.7


class TestSubspaceAngle:
    def test_identical_spans(self):
        u = np.linalg.qr(np.random.default_rng(43).standard_normal((5, 2)))[0]
        assert subspace_angle(u, u) <= 1e-7

    def test_orthogonal_spans(self):
        e = np.eye(4)
        assert math.isclose(subspace_angle(e[:, :1], e[:, 1:2]), math.pi / 2, rel_tol=1e-12)

    def test_dimension_mismatch(self):
        e = np.eye(3)
        with pytest.raises(ValueError):
            subspace_angle(e[:, :1], e[:, :2])
