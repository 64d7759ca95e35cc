"""Monte Carlo harness internals: matching, experiments, probes."""

import math

import numpy as np
import pytest
import scipy.stats

from sqeig import condition, matpoly, verify
from sqeig.condition import BadDirectionError, directional_sensitivity, limit_weights
from sqeig.construct import KernelBases, chain_quadratic
from sqeig.corpus import BUILTIN_NAMES, builtin
from sqeig.matpoly import MatrixPolynomial, sample_perturbation
from sqeig.solver import SolverConfig, solve_perturbed
from sqeig.verify import (
    MAX_RETRIES,
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

    @pytest.mark.parametrize(
        "evs", [(np.nan,), (np.inf,), (1.0, complex(0.0, -np.inf)), (np.nan, np.nan)]
    )
    def test_finite_required(self, evs):
        # two NaNs passed the distinctness check, since NaN != NaN
        with pytest.raises(ValueError, match="finite"):
            TruthSpec(evs)

    @pytest.mark.parametrize("match_tol", [np.nan, -1.0, 0.0, np.inf])
    def test_match_tol_positive_and_finite(self, match_tol):
        with pytest.raises(ValueError, match="match_tol"):
            TruthSpec((1.0,), match_tol)
        with pytest.raises(ValueError, match="match_tol"):
            TruthSpec((1.0,)).with_match_tol(match_tol)

    def test_report_bounds(self):
        with pytest.raises(ValueError):
            TrialReport(n_t=5, n_s=6)
        assert TrialReport(n_t=4, n_s=1).p == 0.25

    def test_report_needs_a_trial(self):
        # p = n_s / n_t would divide by zero
        with pytest.raises(ValueError, match="n_t >= 1"):
            TrialReport(n_t=0, n_s=0)


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

    def test_seed_sequence_equals_its_int_seed(self):
        # trials are spawned from SeedSequence(seed) either way; ex8 at the
        # default tol fails some trials, so the count tells seeds apart
        poly, truth = builtin("ex8")
        got = [
            empirical_probability(poly, truth, SolverConfig(seed=seed), 20, keep_trials=True)
            for seed in (7, np.random.SeedSequence(7))
        ]
        assert got[0].n_s == got[1].n_s
        values = [[[c.value for c in t.accepted] for t in rep.trials] for rep in got]
        assert values[0] == values[1]

    def test_seed_sequence_config_repeats_its_report(self):
        # the trial seeds are derived from the config's SeedSequence without
        # spawning, which would advance it: a second call with the same
        # config runs the same trials (a spawning loop read 24, then 25)
        poly, truth = builtin("ex8")
        cfg = SolverConfig(seed=np.random.SeedSequence(7))
        got = [empirical_probability(poly, truth, cfg, 50, keep_trials=True) for _ in range(2)]
        assert got[0].n_s == got[1].n_s
        values = [[[c.value for c in t.accepted] for t in rep.trials] for rep in got]
        assert values[0] == values[1]
        # the children are those of a fresh SeedSequence(7), as for the int seed
        assert got[0].n_s == empirical_probability(poly, truth, cfg.with_seed(7), 50).n_s

    @pytest.mark.parametrize("n_t", [2.0, True, np.float64(3.0), np.True_])
    def test_trial_count_must_be_an_integer(self, n_t):
        poly, truth = builtin("ex1")
        with pytest.raises(TypeError):
            empirical_probability(poly, truth, SolverConfig(), n_t)

    def test_numpy_integer_trial_count(self):
        poly, truth = builtin("ex1")
        got = empirical_probability(poly, truth, SolverConfig(seed=3), np.int64(2))
        want = empirical_probability(poly, truth, SolverConfig(seed=3), 2)
        assert type(got.n_t) is int and (got.n_t, got.n_s) == (want.n_t, want.n_s)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_kept_trials_equal_child_solves_bitwise(self, name):
        # trial i is, bit for bit, the accepted part of the solve with the
        # i-th child of SeedSequence(seed), and n_s counts the children
        # whose accepted values match the truth
        poly, truth = builtin(name, seed=1)
        cfg = SolverConfig()
        for seed in (0, 5, 2024):
            rep = empirical_probability(poly, truth, cfg.with_seed(seed), 3, keep_trials=True)
            children = np.random.SeedSequence(seed).spawn(3)
            assert len(rep.trials) == 3
            successes = 0
            for trial, child in zip(rep.trials, children):
                want = [r for r in solve_perturbed(poly, cfg.with_seed(child)) if r.accepted]
                got = trial.accepted
                assert len(got) == len(want)
                for field in ("value", "kappa_bar", "right_vector", "left_vector"):
                    assert np.array([getattr(r, field) for r in got]).tobytes() == np.array(
                        [getattr(r, field) for r in want]
                    ).tobytes(), (name, seed, field)
                assert [(r.accepted, r.source) for r in got] == [(r.accepted, r.source) for r in want]
                matched = match_accepted(
                    [r.value for r in want], truth.finite_eigenvalues, truth.match_tol
                )
                assert trial.success == (matched is not None)
                assert trial.matched_truth == (None if matched is None else tuple(matched))
                successes += trial.success
            assert rep.n_s == successes


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

    @pytest.mark.parametrize(
        "args,error,name",
        [
            ((1, 2, 2, 10), ValueError, "big_n"),
            ((27.0, 3, 2, 10), TypeError, "big_n"),
            ((27, 0, 0, 10), ValueError, "n"),
            ((27, 3.0, 2, 10), TypeError, "n"),
            ((27, 3, -1, 10), ValueError, "r"),
            ((27, 3, 4, 10), ValueError, "r"),
            ((27, 3, 2.0, 10), TypeError, "r"),
            ((27, 3, 2, -1), ValueError, "size"),
            ((27, 3, 2, 10.0), TypeError, "size"),
            ((27, 3, 2, True), TypeError, "size"),
        ],
        ids=lambda v: repr(v) if isinstance(v, tuple) else None,
    )
    def test_model_rejects_a_bad_argument(self, args, error, name):
        # the inverse-CDF draw would give 1s or NaN where Beta(1, b) has
        # b <= 0; a bad argument is named instead
        with pytest.raises(error, match=name):
            model_sensitivity_samples(*args, 0)

    def test_model_accepts_numpy_integers(self):
        got = model_sensitivity_samples(np.int64(27), np.int32(3), np.int64(2), np.int64(4), 0)
        assert np.array_equal(got, model_sensitivity_samples(27, 3, 2, 4, 0))


def _scalar_instance():
    # p(lam) = lam - 1, the regular 1x1 case (empty singular block)
    p = MatrixPolynomial((np.array([[-1.0]]), np.array([[1.0]])))
    one, empty = np.ones(1), np.zeros((1, 0))
    return p, 1.0, KernelBases(empty, one, empty, one)


def _chain(lams, n):
    inst = chain_quadratic(lams, n, rng=40)
    return inst.polynomial(), 1.0, inst.bases(1.0)


BATCH_CASES = {
    "regular 1x1 (d=0)": _scalar_instance,
    "chain3 (d=1)": lambda: _chain([1.0, 0.5], 3),
    "chain5 (d=2)": lambda: _chain([1.0, 0.5, 2.0], 5),
}


#: (case, sample count): every case at 40 samples, and the two instances of
#: the sensitivity_law benchmark at the 10**4 of its batches
BATCH_SIZES = [pytest.param(case, 40, id=case) for case in sorted(BATCH_CASES)] + [
    pytest.param(case, 10**4, id=f"{case}, 10**4") for case in ("chain3 (d=1)", "chain5 (d=2)")
]


class TestBatchedSampling:
    @pytest.mark.parametrize("case,k", BATCH_SIZES)
    def test_matches_per_direction_reference(self, case, k):
        # the samplers read raw Gaussian draws; the reference reads the same
        # draws normalized, one direction at a time
        poly, lam, b = BATCH_CASES[case]()
        ref_rng = np.random.default_rng(41)
        draws = [sample_perturbation(poly.n, poly.degree, ref_rng) for _ in range(k)]
        sens_rng = np.random.default_rng(41)
        got = sensitivity_samples(poly, lam, b, k, sens_rng)
        want = [directional_sensitivity(poly, lam, b, e) for e in draws]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        # nothing was redrawn: the generator ends as after k single draws
        assert sens_rng.bit_generator.state == ref_rng.bit_generator.state
        weights, _, _ = limit_mixing_samples(poly, lam, b, k, np.random.default_rng(41))
        # each direction as its own batch of one
        want = [limit_weights(poly, lam, b, np.array([e]))[0][0] for e in draws]
        np.testing.assert_allclose(weights, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("sampler", [sensitivity_samples, limit_mixing_samples])
    def test_one_sample_takes_one_joint_norm(self, sampler, monkeypatch):
        # the input rule's norm is the only one: the draw is not normalized
        evaluations = []
        reader = matpoly._norm_reader

        def counting_reader(e):
            norms = reader(e)

            def counted():
                evaluations.append(len(e))
                return norms()

            return counted

        monkeypatch.setattr(matpoly, "_norm_reader", counting_reader)
        poly, lam, b = BATCH_CASES["chain5 (d=2)"]()
        sampler(poly, lam, b, 1, np.random.default_rng(45))
        assert evaluations == [1]

    def test_redraws_only_flagged_positions_in_order(self, monkeypatch):
        poly, lam, b = BATCH_CASES["chain5 (d=2)"]()
        k = 30
        ref_rng = np.random.default_rng(42)
        draws = [sample_perturbation(poly.n, poly.degree, ref_rng) for _ in range(3 * k)]
        inner = [
            np.linalg.cond((b.left.conj().T @ sum(lam**j * c for j, c in enumerate(e)) @ b.right)[:-1, :-1])
            for e in draws
        ]
        # flag the directions whose inner block is worse than the 80th percentile
        cutoff = float(np.quantile(inner, 0.8))
        monkeypatch.setattr(condition, "BAD_DIRECTION_COND", cutoff)
        # reference: the flagged slots of each round take the next draws in order
        slots = list(range(k))
        chosen = [None] * k
        pending = iter(range(3 * k))
        while slots:
            for slot in slots:
                chosen[slot] = next(pending)
            slots = [slot for slot in slots if inner[chosen[slot]] > cutoff]
        assert any(i >= k for i in chosen), "the cutoff must flag some first-round draws"
        got = sensitivity_samples(poly, lam, b, k, np.random.default_rng(42))
        want = [directional_sensitivity(poly, lam, b, draws[i]) for i in chosen]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_too_many_bad_directions_raise(self, monkeypatch):
        poly, lam, b = BATCH_CASES["chain3 (d=1)"]()
        # a 1x1 inner block has condition number 1, so every direction fails
        monkeypatch.setattr(condition, "BAD_DIRECTION_COND", 0.5)
        with pytest.raises(BadDirectionError, match=str(MAX_RETRIES)):
            sensitivity_samples(poly, lam, b, 3, np.random.default_rng(43))
        with pytest.raises(BadDirectionError):
            limit_mixing_samples(poly, lam, b, 3, np.random.default_rng(43))

    def test_zero_anchor_gives_infinite_samples(self):
        # p(lam) = (lam - 1)**2 has p'(1) = 0
        p = MatrixPolynomial((np.array([[1.0]]), np.array([[-2.0]]), np.array([[1.0]])))
        _, lam, b = _scalar_instance()
        got = sensitivity_samples(p, lam, b, 5, np.random.default_rng(44))
        assert got.shape == (5,) and np.all(got == math.inf)

    @pytest.mark.parametrize("count", [-3, -1])
    def test_negative_count_rejected(self, count):
        poly, lam, b = BATCH_CASES["chain3 (d=1)"]()
        with pytest.raises(ValueError, match=str(count)):
            sensitivity_samples(poly, lam, b, count, 0)
        with pytest.raises(ValueError, match=str(count)):
            limit_mixing_samples(poly, lam, b, count, 0)

    def test_non_integer_count_rejected(self):
        poly, lam, b = BATCH_CASES["chain3 (d=1)"]()
        with pytest.raises(TypeError):
            sensitivity_samples(poly, lam, b, 2.5, 0)
        with pytest.raises(TypeError):
            limit_mixing_samples(poly, lam, b, 2.5, 0)

    def test_bool_count_rejected(self):
        # a bool is an int to operator.index, but no count
        poly, lam, b = BATCH_CASES["chain3 (d=1)"]()
        with pytest.raises(TypeError):
            sensitivity_samples(poly, lam, b, True, 0)
        with pytest.raises(TypeError):
            limit_mixing_samples(poly, lam, b, True, 0)

    def test_zero_and_numpy_integer_counts(self):
        poly, lam, b = BATCH_CASES["chain3 (d=1)"]()
        assert sensitivity_samples(poly, lam, b, 0, 0).shape == (0,)
        weights, gamma_bars, _ = limit_mixing_samples(poly, lam, b, 0, 0)
        assert weights.shape == gamma_bars.shape == (0,)
        assert sensitivity_samples(poly, lam, b, np.int64(3), 0).shape == (3,)


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
        # a nonzero direction with E(1) = 0 exactly, so every projected block is zero
        u = np.ones((2, 2))
        e = (u, -u, np.zeros((2, 2)))
        from sqeig.condition import BadDirectionError

        with pytest.raises(BadDirectionError):
            expansion_order_check(poly, 1.0, bases, e, [1e-4, 1e-5])

    @pytest.mark.parametrize(
        "eps", [[], [1e-6], [1e-6, 1e-6], [1e-6, 0.0], [1e-5, -1e-6], [1e-5, math.nan], [1e-5, math.inf]]
    )
    def test_degenerate_steps_rejected_before_any_solve(self, eps, monkeypatch):
        # one step, or a repeated one, gave a meaningless slope with only a
        # RankWarning; a zero step reached LAPACK, which printed an error
        poly, bases = self._kagstrom()
        e = sample_perturbation(2, 2, np.random.default_rng(26))
        monkeypatch.setattr(verify, "generalized_eig", None)
        with pytest.raises(ValueError, match="two distinct positive finite steps"):
            expansion_order_check(poly, 1.0, bases, e, eps)


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

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
    def test_bad_probe_radius_rejected(self, h):
        poly = MatrixPolynomial.pencil(np.diag([1.0, 2.0]), np.eye(2))
        with pytest.raises(ValueError, match="probe radius h must be positive and finite"):
            singular_space_estimate(poly, 1.0, h, rng=35)

    def test_probe_failure_reported(self, monkeypatch):
        poly = MatrixPolynomial.pencil(np.diag([1.0, 2.0]), np.eye(2))
        # every probe of this regular pencil sees a 1-dimensional kernel, where
        # the normal rank asks for none
        monkeypatch.setattr(verify, "nullspace_basis", lambda m: np.zeros((len(m), 1)))
        with pytest.raises(ProbeFailureError):
            singular_space_estimate(poly, 1.0, 1e-4, rng=41)


class TestSpuriousBound:
    def test_seed_sequence_config_repeats_its_records(self):
        # as for empirical_probability: the runs are the children of a
        # fresh SeedSequence, so the config's own is not advanced
        from sqeig.construct import diagonal_quadratic

        inst = diagonal_quadratic([(1.0, -0.7)], 3, rng=1)
        poly = inst.polynomial()
        cfg = SolverConfig(seed=np.random.SeedSequence(7))
        got = [spurious_bound_records(poly, cfg, 5, truth=inst.eigenvalues) for _ in range(2)]
        assert got[0] and got[0] == got[1]
        assert got[0] == spurious_bound_records(poly, cfg.with_seed(7), 5, truth=inst.eigenvalues)

    @pytest.mark.parametrize("n_runs", [2.0, True])
    def test_run_count_must_be_an_integer(self, n_runs):
        poly = MatrixPolynomial.quadratic(np.eye(2), np.eye(2), np.diag([1.0, 0.0]))
        with pytest.raises(TypeError):
            spurious_bound_records(poly, SolverConfig(), n_runs)

    def test_constant_basis_problem_respects_bound(self):
        # with lambda-constant minimal kernel bases the eps**-2 certificate
        # is exact; every spurious candidate must clear it
        from sqeig.construct import diagonal_quadratic

        inst = diagonal_quadratic([(1.0, -0.7)], 3, rng=1)
        records = spurious_bound_records(
            inst.polynomial(), SolverConfig(seed=7), 25, truth=inst.eigenvalues
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
        records = spurious_bound_records(
            MatrixPolynomial.quadratic(m, c, k), SolverConfig(seed=42), 25
        )
        assert records, "expected applicable spurious-bound records"
        for kappa, bound in records:
            assert kappa >= bound

    def test_spurious_candidates_remain_far_above_threshold(self):
        # the practical content: even with drifting kernel bases, spurious
        # condition numbers dwarf any sensible acceptance threshold
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = np.array([[1.0, 0.0], [0.0, 0.0]])
        k = np.array([[0.0, 0.0], [1.0, 0.0]])
        records = spurious_bound_records(
            MatrixPolynomial.quadratic(m, c, k), SolverConfig(seed=42), 25
        )
        assert records
        for kappa, _ in records:
            assert kappa >= 1e7


class TestBoundSandwich:
    @pytest.mark.parametrize(
        "instance_kind,n,r,big_n",
        [("pencil", 2, 1, 8), ("quad2", 3, 2, 27), ("quad1", 3, 1, 27)],
    )
    def test_quantile_inside_bounds(self, instance_kind, n, r, big_n):
        from sqeig.condition import inverse_condition, weak_condition_bounds
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
            bounds = weak_condition_bounds(delta, gamma, n, poly.degree, r)
            assert bounds.big_n == big_n
            band = 1.5 * math.sqrt((1 - delta) / (delta * samples))
            if bounds.lower is not None:
                assert bounds.lower * (1 - band) <= q <= bounds.upper * (1 + band)
            else:
                assert q <= bounds.upper * (1 + band)


class TestReportedProbabilityRegimes:
    def test_ex8_default_tolerance_is_marginal(self):
        # with the default threshold the rescaled problem is only detected
        # about half the time; raising the threshold to 1e5 fixes it
        # (asserted at its own floor in the acceptance suite)
        from sqeig.corpus import BUILTIN_NAMES, builtin

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

    def test_empty_spans(self):
        empty = np.zeros((3, 0))
        assert subspace_angle(empty, empty) == 0.0

    def test_dimension_mismatch(self):
        e = np.eye(3)
        with pytest.raises(ValueError):
            subspace_angle(e[:, :1], e[:, :2])


def _seeded_calls():
    # each study sampler as a function of its rng argument alone
    inst = chain_quadratic([1.0, 0.5], 3, rng=31)
    poly, bases = inst.polynomial(), inst.bases(1.0)
    return {
        "sensitivity_samples": lambda rng: sensitivity_samples(poly, 1.0, bases, 5, rng),
        "model_sensitivity_samples": lambda rng: model_sensitivity_samples(36, 3, 2, 5, rng),
        "sensitivity_distribution_ks": lambda rng: sensitivity_distribution_ks(
            poly, 1.0, bases, 5, rng, model_size=50
        )[1],
        "limit_mixing_samples": lambda rng: limit_mixing_samples(poly, 1.0, bases, 5, rng)[0],
        "singular_space_estimate": lambda rng: singular_space_estimate(poly, 1.0, 1e-3, rng),
    }


@pytest.mark.parametrize("name", sorted(_seeded_calls()))
def test_study_sampler_names_a_bad_seed(name):
    # a bad seed fails with the seed message, not numpy's
    with pytest.raises(ValueError, match="^seed must be"):
        _seeded_calls()[name](-1)


@pytest.mark.parametrize("name", sorted(_seeded_calls()))
def test_study_sampler_draws_from_a_given_generator(name):
    # a Generator is used as it is: the call draws from it, as from a fresh
    # generator of the same seed
    call = _seeded_calls()[name]
    rng = np.random.default_rng(8)
    got = call(rng)
    assert np.array_equal(got, call(8))
    untouched = np.random.default_rng(8).bit_generator.state
    assert rng.bit_generator.state != untouched
