"""End-to-end randomized solvers: classification, determinism, invariants."""

import cmath
import collections
import collections.abc
import functools
import itertools
import math

import numpy as np
import pytest

from conftest import (
    assert_multiset_close,
    companion_projection_reference,
    deflated_projection_reference,
    perturbed,
)
from sqeig.condition import inverse_condition
from sqeig.corpus import BUILTIN_NAMES, builtin
from sqeig.matpoly import DegenerateProblemError, MatrixPolynomial, scale_quadratic
from sqeig.solver import (
    SOURCES,
    ClassifiedEigenvalue,
    SolveResult,
    SolverConfig,
    solve_perturbed,
    solve_polynomial,
    solve_singular_pencil,
    solve_singular_quadratic,
)
from sqeig.verify import match_accepted


def _accepted_values(results):
    return [r.value for r in results if r.accepted]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": math.nan},
            {"epsilon": math.inf},
            {"epsilon": -1e-8},
            {"tol": math.nan},
            {"tol": 0.5},
        ],
        ids=["eps-nan", "eps-inf", "eps-negative", "tol-nan", "tol-below-one"],
    )
    def test_rejects_invalid_values(self, kwargs):
        # NaN compares false with everything, so it must fail the checks
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_with_seed(self):
        cfg = SolverConfig(seed=1).with_seed(2)
        assert cfg.seed == 2

    @pytest.mark.parametrize(
        "make", [np.random.default_rng, np.random.PCG64], ids=["Generator", "BitGenerator"]
    )
    def test_rejects_generator_seed(self, make):
        # a generator is a stream, not a seed: a config holding one would
        # give a different result on every call
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=make(0))
        with pytest.raises(ValueError, match="seed"):
            SolverConfig().with_seed(make(0))

    @pytest.mark.parametrize(
        "seed",
        [1.5, -1, "a", b"a", True, np.True_, [1, -2], [1, 2.0], [[1, 2]], [1, [2]], np.array(-3)],
        ids=lambda s: repr(s),
    )
    def test_rejects_invalid_seed_when_built(self, seed):
        # a bad seed fails when the config is built, naming the seed, and not
        # later inside the solve with numpy's message
        with pytest.raises(ValueError, match="^seed must be"):
            SolverConfig(seed=seed)
        with pytest.raises(ValueError, match="^seed must be"):
            SolverConfig().with_seed(seed)

    @pytest.mark.parametrize(
        "seed",
        [None, 0, 2**70, np.int64(3), [1, 2], (4,), np.array([5, 6]), np.random.SeedSequence(7)],
        ids=lambda s: repr(s),
    )
    def test_accepts_valid_seed(self, seed):
        cfg = SolverConfig().with_seed(seed)
        assert cfg.seed is seed
        p, _ = builtin("ex1", seed=0)
        solve_polynomial(p, cfg)


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
        _, gamma = scale_quadratic(MatrixPolynomial.quadratic(m, c, k))
        res = solve_singular_quadratic(m, c, k, SolverConfig(seed=11))
        for r in res:
            lam_scaled = abs(r.value) / gamma
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
        k, c, m = inst.polynomial().coeffs
        res = solve_singular_quadratic(m, c, k, SolverConfig(seed=5))
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
            solve_perturbed(MatrixPolynomial.pencil(np.eye(2), np.eye(2)), SolverConfig(seed=77))
        m = np.eye(2)
        with pytest.raises(EigensolverError, match=r"seed=78.*projected"):
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

    def test_order_zero_rejected_before_lapack(self, monkeypatch):
        from sqeig import densela

        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called for an order-0 problem")

        monkeypatch.setattr(densela, "_zggev", no_lapack)
        empty = np.zeros((0, 0))
        with pytest.raises(ValueError, match="order 0"):
            solve_singular_pencil(empty, empty, SolverConfig(seed=0))
        with pytest.raises(ValueError, match="order 0"):
            solve_singular_quadratic(empty, empty, empty, SolverConfig(seed=0))

    def test_unsupported_degree(self):
        p = MatrixPolynomial((np.eye(2), np.eye(2), np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match="degree"):
            solve_polynomial(p, SolverConfig(seed=0))


class TestReferenceCondition:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_kappa_matches_scalar_definition(self, name):
        # the vectorized classification must reproduce the scalar condition
        # number of each returned eigentriple on the balanced, unperturbed
        # problem; the perturbed solve accepts exactly the candidates with
        # kappa <= tol, the projected one only such candidates
        for seed, solve in itertools.product(range(3), (solve_perturbed, solve_polynomial)):
            p, _ = builtin(name, seed=seed)
            if p.degree == 2:
                balanced, gamma = scale_quadratic(p)
            else:
                balanced, gamma = p, 1.0
            cfg = SolverConfig(seed=seed)
            for r in solve(p, cfg):
                if solve is solve_perturbed:
                    assert r.accepted == (r.kappa_bar <= cfg.tol)
                assert r.accepted <= (r.kappa_bar <= cfg.tol)
                lam, x, y = r.value / gamma, r.right_vector, r.left_vector
                if r.kappa_bar <= 1e8:
                    ref = 1.0 / inverse_condition(balanced, lam, x, y)
                    assert abs(r.kappa_bar - ref) <= 1e-10 * ref, (seed, r.value)
                if r.kappa_bar <= cfg.tol:
                    # the definition, evaluated one eigentriple at a time
                    root = math.sqrt(sum(abs(lam) ** (2 * j) for j in range(p.degree + 1)))
                    direct = root / abs(y.conj() @ balanced.derivative_at(lam) @ x)
                    assert abs(r.kappa_bar - direct) <= 1e-10 * direct, (seed, r.value)


# every candidate of solve_perturbed with kappa_bar <= 1e8 at seed 0
# (problem and solver), as (value, kappa_bar, accepted), recorded from the
# one-QZ quadratic solve (small-modulus eigenvectors read from the first
# companion form's QZ).  kagstrom2x2 was re-recorded when the joint norm
# became one BLAS dot per stack: the last bit of its perturbation moved,
# its values by about 5e-16 and its kappa_bar by 4.4e-8 and 1.0e-7
# relative.  A kappa_bar on the perturbation route is reproducible only to
# about u / eps, so a last-bit change of E moves it by about 1e-8
PINNED_OUTPUTS = {
    "ex1": [((1.0000000434118246 - 5.173132097913744e-08j), 106.510491789663, True)],
    "ex4": [
        ((2.0000000186413973 + 2.3405237419819896e-08j), 21.133009722713, True),
        ((0.9999999988322895 + 8.071585447991778e-09j), 3.24039165797454, True),
    ],
    "ex8": [
        ((7.999999999245423 + 1.6998452526683548e-08j), 13.6508263136583, True),
        ((7.000000046904325 - 3.661762859313296e-08j), 60.0788450078949, True),
        ((5.999997274675002 + 5.235892822347116e-06j), 5156.08575812508, True),
        ((4.999999963021659 - 2.4239149570871876e-09j), 83.4293671315225, True),
        ((4.000000283727804 + 4.4956814668158514e-07j), 1557.4213769456, True),
        ((3.0000000874402897 + 1.915592060624798e-07j), 472.892281896271, True),
        ((2.000000169250021 + 2.1501158180658237e-08j), 174.633367640877, True),
    ],
    "ex10": [
        ((1.9999998068977078 - 8.227361753390186e-08j), 322.878789199262, True),
        ((1.0000001240504002 - 1.9372893070707485e-08j), 168.383709516921, True),
    ],
    "kagstrom2x2": [
        ((2.0000000195645544 + 2.9781958811295236e-08j), 9.158519807923454, True),
        ((0.9999999982128188 - 1.3728273744327843e-08j), 4.002428285742068, True),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_outputs_pinned(name):
    p, _ = builtin(name, seed=0)
    got = [r for r in solve_perturbed(p, SolverConfig(seed=0)) if r.kappa_bar <= 1e8]
    want = PINNED_OUTPUTS[name]
    assert len(got) == len(want)
    for r, (value, kappa, accepted) in zip(got, want):
        assert abs(r.value - value) <= 1e-12 * abs(value)
        assert math.isclose(r.kappa_bar, kappa, rel_tol=1e-12)
        assert r.accepted == accepted


def test_quadratic_solve_checks_each_matrix_once(monkeypatch):
    # input checks run where a matrix enters the pipeline: only the QZ call
    # checks its two matrices; the balanced, perturbed and projected
    # polynomials and the companion form are built from checked
    # coefficients, and the condition call reads the balanced polynomial as
    # stored.  The normal rank, read once per polynomial, checks the
    # P(mu) it takes the SVD of
    from sqeig import condition, densela, matpoly

    calls = []

    def counting(a, name="matrix"):
        calls.append(name)
        return densela_as_matrix(a, name)

    densela_as_matrix = densela.as_matrix
    for module in (condition, densela, matpoly):
        monkeypatch.setattr(module, "as_matrix", counting)
    p, _ = builtin("ex4", seed=0)
    calls.clear()
    solve_polynomial(p, SolverConfig(seed=0))
    assert calls == ["matrix", "A", "B"]
    for solve in (solve_polynomial, solve_perturbed):
        calls.clear()
        solve(p, SolverConfig(seed=1))
        assert calls == ["A", "B"]


def test_perturbed_trials_build_the_companion_skeleton_once(monkeypatch):
    # the unperturbed companion pair of the balanced polynomial is built on
    # its first perturbed solve and copied by the later ones, and every
    # trial makes exactly one eigensolver call; the pair is kept only
    # while its polynomial lives
    import gc

    import sqeig.linearize as linearize_mod
    import sqeig.solver as solver_mod

    builds, eig_calls = [], []

    def counting_pair(p):
        builds.append(p)
        return real_pair(p)

    def counting_eig(*args, **kwargs):
        eig_calls.append(args[0].shape)
        return real_eig(*args, **kwargs)

    real_pair, real_eig = linearize_mod._companion_pair, solver_mod.generalized_eig
    monkeypatch.setattr(linearize_mod, "_companion_pair", counting_pair)
    monkeypatch.setattr(solver_mod, "generalized_eig", counting_eig)
    # so that no skeleton of an earlier test, such as one a failed test's
    # traceback held, goes during this one
    gc.collect()
    kept = len(linearize_mod._SKELETONS)
    p, _ = builtin("ex4", seed=0)
    for seed in range(10):
        solve_perturbed(p, SolverConfig(seed=seed))
        assert len(eig_calls) == seed + 1
    assert builds == [p.balancing[0]]
    assert eig_calls == [(2 * p.n, 2 * p.n)] * 10
    assert len(linearize_mod._SKELETONS) == kept + 1
    del p, builds
    gc.collect()
    assert len(linearize_mod._SKELETONS) == kept


@pytest.mark.parametrize("name", ["ex4", "ex10"])
def test_one_qz_call_per_solve(monkeypatch, name):
    # a quadratic reads both modulus branches from one QZ of its first
    # companion form; a pencil is its own linearization
    import sqeig.solver as solver_mod

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    real = solver_mod.generalized_eig
    monkeypatch.setattr(solver_mod, "generalized_eig", counting)
    p, _ = builtin(name, seed=0)
    res = solve_polynomial(p, SolverConfig(seed=0))
    rank = (p if p.degree == 1 else p.balancing[0]).normal_rank
    assert calls == [(p.degree * rank, p.degree * rank)]
    if p.degree == 2:
        # both branches present, so the single call served both
        assert {r.source for r in res} == {"C1", "C1hat"}


def _order_cases():
    from sqeig.construct import chain_quadratic
    from sqeig.corpus import synth_pencil

    cases = [(f"{name}-{seed}", builtin(name, seed=seed)[0], seed)
             for name in BUILTIN_NAMES for seed in range(5)]
    chain = chain_quadratic([0.3 + 0.4j, 0.8, 1.5j, -2.5, 4.0 - 1.0j], 12, rng=2)
    cases.append(("chain_quadratic", chain.polynomial(), 3))
    cases.append(("synth_pencil", synth_pencil(12, 6, seed=4)[0], 5))
    return cases


def test_output_order_contract():
    # candidates come out by modulus (descending), then phase, and every C1
    # candidate precedes every C1hat one; the solver relies on the
    # eigensolver's order for this and does not sort again
    for label, p, seed in _order_cases():
        res = solve_polynomial(p, SolverConfig(seed=seed))
        keys = [(-abs(r.value), cmath.phase(r.value)) for r in res]
        assert keys == sorted(keys), label
        sources = [r.source for r in res]
        assert sources == sorted(sources, key=lambda s: s == "C1hat"), label


class TestSolveResult:
    @staticmethod
    def _result():
        p, _ = builtin("ex4", seed=0)
        return solve_perturbed(p, SolverConfig(seed=0))

    def test_sequence_of_views(self):
        res = self._result()
        assert isinstance(res, SolveResult)
        k = res.values.size
        assert len(res) == k > 1
        views = list(res)
        assert len(views) == k
        assert all(isinstance(r, ClassifiedEigenvalue) for r in views)
        assert res[0].value == views[0].value
        assert res[-1].value == views[-1].value == res[k - 1].value
        assert res[-k].value == res[0].value
        assert [r.value for r in res[1:3]] == [r.value for r in views[1:3]]
        for i in (k, -k - 1):
            with pytest.raises(IndexError):
                res[i]

    def test_not_a_sequence(self):
        # every access builds new records, which compare by identity, so a
        # Sequence's index and count could never find one: the result offers
        # len, iteration, indexing and slices only
        res = self._result()
        assert res[0] is not res[0]
        assert not isinstance(res, collections.abc.Sequence)
        assert not hasattr(res, "index") and not hasattr(res, "count")

    def test_views_equal_array_rows(self):
        res = self._result()
        for i, r in enumerate(res):
            assert r.value == res.values[i]
            assert r.kappa_bar == res.kappa_bar[i]
            assert r.accepted == res.accepted[i]
            assert r.source == SOURCES[res.source_codes[i]]
            assert type(r.value) is complex and type(r.kappa_bar) is float
            assert type(r.accepted) is bool
            np.testing.assert_array_equal(r.right_vector, res.right_vectors[:, i])
            np.testing.assert_array_equal(r.left_vector, res.left_vectors[:, i])
        assert res.accepted.tolist() == (res.kappa_bar <= SolverConfig().tol).tolist()

    def test_arrays_read_only(self):
        res = self._result()
        arrays = [
            res.values, res.kappa_bar, res.accepted, res.source_codes,
            res.right_vectors, res.left_vectors, res[0].right_vector, res[0].left_vector,
        ]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[..., 0] = 0

    def test_no_candidates(self):
        # B = 0: every eigenvalue is infinite, so no finite candidate is left
        res = solve_singular_pencil(np.eye(2), np.zeros((2, 2)), SolverConfig(seed=0))
        assert len(res) == 0
        assert list(res) == [] and res[:] == ()
        assert res.values.shape == res.kappa_bar.shape == res.accepted.shape == (0,)
        assert res.right_vectors.shape == res.left_vectors.shape == (2, 0)
        with pytest.raises(IndexError):
            res[0]


def test_balancing_runs_once_per_polynomial(monkeypatch):
    from sqeig import matpoly

    calls = []

    def counting(p):
        calls.append(p)
        return real(p)

    real = matpoly.scale_quadratic
    monkeypatch.setattr(matpoly, "scale_quadratic", counting)
    p, _ = builtin("ex4", seed=0)
    for seed in range(4):
        solve_polynomial(p, SolverConfig(seed=seed))
    assert calls == [p]
    assert p.balancing is p.balancing
    # a new polynomial with the same coefficients is balanced once of its own
    q = MatrixPolynomial(p.coeffs)
    solve_polynomial(q, SolverConfig(seed=0))
    assert calls == [p, q]


def _per_block_classification(p, cfg):
    # the solve classified one form at a time, as separate calls: each
    # form's recovery on its own columns, then the degree's own condition
    # function on loose matrices
    from sqeig.condition import pencil_condition, quadratic_condition
    from sqeig.densela import generalized_eig
    from sqeig.linearize import first_companion, recover_from_alternate, recover_from_first
    from sqeig.matpoly import sample_perturbation

    balanced, gamma = (p, 1.0) if p.degree == 1 else scale_quadratic(p)
    e = sample_perturbation(p.n, p.degree, np.random.default_rng(cfg.seed))
    pert = perturbed(balanced, e, cfg.epsilon)
    if p.degree == 1:
        dec = generalized_eig(pert.coeffs[0], -pert.coeffs[1])
    else:
        dec = generalized_eig(*first_companion(pert))
    finite = dec.finite_mask()
    lam = dec.alphas[finite] / dec.betas[finite]
    v, w = dec.right_vectors[:, finite], dec.left_vectors[:, finite]
    if p.degree == 1:
        x, y = v, w
        kappa = pencil_condition(-balanced.coeffs[1], lam, x, y)
    else:
        large = np.abs(lam) >= 1.0
        x1, y1, ok1 = recover_from_first(v[:, large], w[:, large])
        x2, y2, ok2 = recover_from_alternate(v[:, ~large], w[:, ~large])
        x, y, ok = np.hstack([x1, x2]), np.hstack([y1, y2]), np.concatenate([ok1, ok2])
        m, c = balanced.coeffs[2], balanced.coeffs[1]
        kappa = np.where(ok, quadratic_condition(m, c, lam, x, y), np.inf)
    return gamma * lam, kappa, x, y


def _one_pass_input(name, seed):
    # a built-in, or a larger pencil or quadratic from the generators
    from sqeig.construct import chain_quadratic
    from sqeig.corpus import synth_pencil

    if name == "synth_pencil":
        return synth_pencil(12, 6, seed=seed)[0]
    if name == "synth_pencil_40":
        return synth_pencil(40, 20, seed=seed)[0]
    if name == "chain_quadratic":
        return chain_quadratic([3.0, 0.5, -1 + 2j, 0.2j], 9, rng=seed).polynomial()
    if name == "chain_quadratic_30":
        lams = [0.4 * k * np.exp(0.7j * k) for k in range(1, 11)]
        return chain_quadratic(lams, 30, rng=seed).polynomial()
    return builtin(name, seed=seed)[0]


@pytest.mark.parametrize(
    "name",
    [*BUILTIN_NAMES, "synth_pencil", "chain_quadratic", "synth_pencil_40", "chain_quadratic_30"],
)
def test_one_pass_classification_matches_per_block(name):
    # recovering both forms' blocks in one pass and classifying with one
    # condition call on the polynomial gives the per-block results bit for
    # bit; the perturbation route, which the larger inputs reach only
    # through solve_perturbed
    for seed in range(5):
        p = _one_pass_input(name, seed)
        cfg = SolverConfig(seed=seed)
        res = solve_perturbed(p, cfg)
        values, kappa, x, y = _per_block_classification(p, cfg)
        for got, want in (
            (res.values, values), (res.kappa_bar, kappa),
            (res.right_vectors, x), (res.left_vectors, y),
        ):
            assert got.shape == want.shape, (name, seed)
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (name, seed)


def _annulus(count, rng):
    return rng.uniform(0.5, 2.0, count) * np.exp(2j * np.pi * rng.random(count))


def _regular_pencil(seed):
    # order 40 with 40 known eigenvalues: normal rank r = n
    from sqeig.construct import diagonal, random_conjugation

    rng = np.random.default_rng(seed)
    lams = _annulus(40, rng)
    (a, b), _ = random_conjugation((diagonal(lams, 40), np.eye(40)), rng)
    return MatrixPolynomial.pencil(a, b), lams


def _regular_quadratic(seed):
    # n = 20, companion order 40, with diagonal entries (lam - a_i)(lam - b_i)
    from sqeig.construct import diagonal, random_conjugation

    rng = np.random.default_rng(seed)
    roots = _annulus(40, rng)
    a, b = roots[::2], roots[1::2]
    (m, c, k), _ = random_conjugation((np.eye(20), diagonal(-(a + b), 20), diagonal(a * b, 20)), rng)
    return MatrixPolynomial.quadratic(m, c, k), roots


def _synth_with_infinite(seed):
    # 48 x 48, rank 24: 16 finite and 8 infinite eigenvalues
    from sqeig.corpus import synth_pencil

    p, truth = synth_pencil(48, 24, n_finite=16, seed=seed)
    return p, truth.finite_eigenvalues


def _chain(seed):
    # n = 24 (companion order 48), normal rank 12
    from sqeig.construct import chain_quadratic

    rng = np.random.default_rng(seed)
    inst = chain_quadratic(_annulus(12, rng), 24, rng=rng)
    return inst.polynomial(), inst.eigenvalues


def _rank_zero(seed):
    return MatrixPolynomial.pencil(np.zeros((40, 40)), np.zeros((40, 40))), ()


# problems of companion order 40-48, where the eigensolver runs zgeev or
# zggev3; the regular ones (nullity 0) are solved unprojected
LARGE_CASES = {
    "regular_pencil": _regular_pencil,
    "regular_quadratic": _regular_quadratic,
    "synth_pencil_with_infinite": _synth_with_infinite,
    "chain_quadratic": _chain,
    "rank_zero": _rank_zero,
}
REGULAR_CASES = ("regular_pencil", "regular_quadratic")


@pytest.mark.parametrize("case", sorted(LARGE_CASES))
def test_large_problem_accepts_exactly_the_truth(case):
    from sqeig.verify import match_accepted

    for problem_seed in range(2):
        p, truth = LARGE_CASES[case](problem_seed)
        for seed in range(3):
            res = solve_polynomial(p, SolverConfig(seed=seed))
            accepted = res.values[res.accepted]
            assert match_accepted(accepted, truth, 1e-6) is not None, (case, problem_seed, seed)
            again = solve_polynomial(p, SolverConfig(seed=seed))
            for a, b in ((res.values, again.values), (res.kappa_bar, again.kappa_bar),
                         (res.accepted, again.accepted), (res.right_vectors, again.right_vectors)):
                assert a.tobytes() == b.tobytes(), (case, problem_seed, seed)


def test_projected_route_gates_on_backward_error():
    # on a chain quadratic the projected pair has n random eigenvalues, many
    # with kappa_bar below tol; the backward-error gate rejects exactly them
    from sqeig.densela import residual_tolerance
    from sqeig.matpoly import backward_errors

    p, truth = _chain(0)
    balanced, gamma = p.balancing
    cfg = SolverConfig(seed=0)
    res = solve_polynomial(p, cfg)
    eta = backward_errors(balanced, res.values / gamma, res.right_vectors, res.left_vectors)
    size = p.degree * balanced.normal_rank
    gate = residual_tolerance(size)
    assert res.accepted.tolist() == ((res.kappa_bar <= cfg.tol) & (eta <= gate)).tolist()
    assert np.count_nonzero((res.kappa_bar <= cfg.tol) & (eta > gate)) > 0
    # the two populations sit decades apart on either side of the gate
    assert eta[res.accepted].max() < 1e-3 * gate
    assert eta[~res.accepted & (res.kappa_bar <= cfg.tol)].min() > 1e3 * gate


def test_projected_order_is_the_normal_rank(monkeypatch):
    import sqeig.solver as solver_mod

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    real = solver_mod.generalized_eig
    monkeypatch.setattr(solver_mod, "generalized_eig", counting)
    synth, _ = _synth_with_infinite(0)
    chain, _ = _chain(0)
    solve_polynomial(synth, SolverConfig(seed=0))
    solve_polynomial(chain, SolverConfig(seed=0))
    # m*r: the polynomial is projected to r-by-r coefficients, then linearized
    assert calls == [(24, 24), (24, 24)]


def _synth(seed):
    # 60 x 60, rank 30, every eigenvalue of the regular part finite
    from sqeig.corpus import synth_pencil

    return synth_pencil(60, 30, seed=seed)


def _kronecker_pencil(rng, lams, n_infinite=0, right_blocks=8, left_blocks=8,
                      zero_rows=0, zero_cols=0, scale=1.0):
    # a pencil with designed Kronecker blocks, randomly conjugated:
    # right_blocks blocks L_1 = [lam, -1] (1 x 2) and left_blocks blocks
    # L_1^T (2 x 1), minimal indices of degree 1 that leave no common kernel,
    # each times scale; the regular part diag(lam_i - lam) and n_infinite
    # infinite eigenvalues; then zero rows (a left common kernel) and zero
    # columns (a right one).  Normal rank right_blocks + left_blocks +
    # len(lams) + n_infinite.
    from sqeig.construct import random_conjugation

    rows = right_blocks + 2 * left_blocks + len(lams) + n_infinite + zero_rows
    assert rows == 2 * right_blocks + left_blocks + len(lams) + n_infinite + zero_cols
    a = np.zeros((rows, rows), dtype=complex)
    b = np.zeros((rows, rows), dtype=complex)
    i = j = 0
    for _ in range(right_blocks):
        a[i, j + 1] = b[i, j] = -scale
        i, j = i + 1, j + 2
    for _ in range(left_blocks):
        a[i + 1, j] = b[i, j] = -scale
        i, j = i + 2, j + 1
    for lam in lams:
        a[i, j], b[i, j] = lam, 1.0
        i, j = i + 1, j + 1
    for _ in range(n_infinite):
        a[i, j] = 1.0
        i, j = i + 1, j + 1
    (a, b), _ = random_conjugation((a, b), rng)
    return MatrixPolynomial.pencil(a, b), tuple(lams)


def _kronecker(seed):
    # order 40, normal rank 32, nullity 8: 8 L_1, 8 L_1^T and 16 eigenvalues
    rng = np.random.default_rng(seed)
    return _kronecker_pencil(rng, _annulus(16, rng))


def _kronecker_with_infinite(seed):
    # as _kronecker, with 12 finite and 4 infinite eigenvalues
    rng = np.random.default_rng(seed)
    return _kronecker_pencil(rng, _annulus(12, rng), n_infinite=4)


def _core_sizes(p):
    # (s_L, s_R): the core's side lengths, n where a side has no common kernel
    core = p.core
    return tuple(p.n if q is None else q.shape[1] for q in (core.left, core.right))


@pytest.mark.parametrize(
    "build",
    [_kronecker, _kronecker_with_infinite],
    ids=["kronecker_pencil", "kronecker_pencil_with_infinite"],
)
def test_projected_pencil_is_the_companion_projection(build):
    # a pencil is its own first companion form, so projecting its
    # coefficients is projecting its companion pair, bit for bit; with no
    # common kernel (full-rank stacks) the core is the pencil itself, and the
    # projected route is the one that projected the whole pencil
    for seed in range(3):
        p, truth = build(seed)
        assert p.normal_rank < p.n
        assert p.core.left is None and p.core.right is None
        assert p.core.coeffs == p.coeffs
        cfg = SolverConfig(seed=seed)
        res = solve_polynomial(p, cfg)
        got = (res.values, res.kappa_bar, res.accepted, res.source_codes, res.right_vectors, res.left_vectors)
        for a, b in zip(got, companion_projection_reference(p, cfg)):
            assert a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes(), seed
        assert match_accepted(res.values[res.accepted], truth, 1e-6) is not None, seed


@pytest.mark.parametrize(
    "build", [_synth, _synth_with_infinite], ids=["synth_pencil", "synth_pencil_with_infinite"]
)
def test_projected_synth_pencil_is_the_deflated_projection(build):
    # a synthetic pencil's core is its regular part, of size r on both
    # sides, so the projected route solves the core itself and draws
    # nothing: every solver seed gives the same bits, and the candidates
    # are those of a reference that deflates with SVD bases
    for problem_seed in range(3):
        p, _ = build(problem_seed)
        assert _core_sizes(p) == (p.normal_rank, p.normal_rank)
        res = solve_polynomial(p, SolverConfig(seed=0))
        other = solve_polynomial(p, SolverConfig(seed=problem_seed + 1))
        got = (res.values, res.kappa_bar, res.accepted, res.source_codes, res.right_vectors, res.left_vectors)
        for a, b in zip(got, (other.values, other.kappa_bar, other.accepted, other.source_codes,
                              other.right_vectors, other.left_vectors)):
            assert a.tobytes() == b.tobytes(), problem_seed
        lam, kappa, accepted, codes, x, y = deflated_projection_reference(p, SolverConfig(seed=0))
        np.testing.assert_allclose(res.values, lam, rtol=1e-10)
        np.testing.assert_allclose(res.kappa_bar, kappa, rtol=1e-8)
        assert res.accepted.tolist() == accepted.tolist() and res.accepted.all()
        assert res.source_codes.tolist() == codes.tolist()
        for got_vecs, want in ((res.right_vectors, x), (res.left_vectors, y)):
            overlap = np.abs((got_vecs.conj() * want).sum(axis=0))
            np.testing.assert_allclose(overlap, 1.0, rtol=1e-10)


def _accepts_exactly(p, truth, seeds=range(3)):
    for seed in seeds:
        res = solve_polynomial(p, SolverConfig(seed=seed))
        assert match_accepted(res.values[res.accepted], truth, 1e-6) is not None, seed


def test_common_kernel_perturbed_at_1e_9_is_kept():
    # the L_1 and L_1^T blocks scaled to 1e-9 of the regular part leave
    # directions that every coefficient nearly annihilates: the deflation
    # keeps them (and the normal rank counts them), so the route is the
    # whole pencil's projection, bit for bit; at 1e-13 they are dropped
    # with the blocks' rank, as rounding
    for seed in range(2):
        rng = np.random.default_rng(seed)
        p, truth = _kronecker_pencil(rng, _annulus(16, rng), scale=1e-9)
        assert p.normal_rank == 32 and _core_sizes(p) == (40, 40)
        cfg = SolverConfig(seed=seed)
        res = solve_polynomial(p, cfg)
        for a, b in zip((res.values, res.kappa_bar, res.accepted), companion_projection_reference(p, cfg)):
            assert a.tobytes() == np.ascontiguousarray(b).tobytes(), seed
        _accepts_exactly(p, truth)
        rng = np.random.default_rng(seed)
        p, truth = _kronecker_pencil(rng, _annulus(16, rng), scale=1e-13)
        assert p.normal_rank == 16 and _core_sizes(p) == (16, 16)
        _accepts_exactly(p, truth)


@pytest.mark.parametrize("side", ["left", "right"])
def test_one_sided_common_kernel(monkeypatch, side):
    # order 36, normal rank 28, 20 eigenvalues (_one_sided_common_kernel):
    # the deflated side has size r and draws nothing, the other is projected
    # from n to r
    import sqeig.solver as solver_mod

    draws = []
    real = solver_mod._projection_basis

    def recording(rows, cols, rng):
        basis = real(rows, cols, rng)
        draws.append(None if basis is None else basis.shape)
        return basis

    monkeypatch.setattr(solver_mod, "_projection_basis", recording)
    for problem_seed in range(2):
        p, truth = _one_sided_common_kernel(side, problem_seed)
        assert p.normal_rank == 28 and _core_sizes(p) == ((28, 36) if side == "left" else (36, 28))
        draws.clear()
        _accepts_exactly(p, truth)
        drawn = (36, 28)
        assert draws == ([None, drawn] if side == "left" else [drawn, None]) * 3


def test_rectangular_core_of_a_chain_quadratic():
    # a chain quadratic's rows past its r eigenvalues are zero and its
    # columns past r + 1 are zero: the core is r-by-(r + 1), so U is not
    # drawn and V maps r + 1 to r
    for problem_seed in range(2):
        p, truth = _chain(problem_seed)
        balanced = p.balancing[0]
        assert balanced.normal_rank == 12 and _core_sizes(balanced) == (12, 13)
        assert all(c.shape == (12, 13) for c in balanced.core.coeffs)
        _accepts_exactly(p, truth)


def test_graded_coefficients_keep_the_core():
    # two-sided diagonal scaling whose product spans 1e-4 ... 1e4 moves the
    # eigenvalues nowhere and must not move a kept direction below the cutoff
    from sqeig.corpus import synth_pencil

    for problem_seed in range(2):
        p, truth = synth_pencil(60, 30, seed=problem_seed)
        rng = np.random.default_rng(problem_seed)
        d_left = np.logspace(-2, 2, 60)
        d_right = rng.permutation(d_left)
        graded = MatrixPolynomial(tuple(d_left[:, None] * c * d_right for c in p.coeffs))
        assert graded.normal_rank == 30 and _core_sizes(graded) == (30, 30)
        _accepts_exactly(graded, truth.finite_eigenvalues)


def test_core_with_infinite_eigenvalues_runs_qz(monkeypatch):
    # synth_pencil(48, 24, n_finite=16): the 24-by-24 core carries the 8
    # infinite eigenvalues, so its B is singular and QZ solves it
    from sqeig.densela import qz_routine

    routines = _recording_routines(monkeypatch)
    for problem_seed in range(2):
        p, truth = _synth_with_infinite(problem_seed)
        assert _core_sizes(p) == (24, 24)
        _accepts_exactly(p, truth)
    assert routines == [qz_routine(24)] * 6


def _ladder_rung(kind, n, seed):
    # a size-ladder problem: a chain quadratic or a synthetic pencil of
    # normal rank n/2 with eigenvalues on the annulus 0.5 <= |lam| <= 2
    from sqeig.construct import chain_quadratic
    from sqeig.corpus import synth_pencil

    if kind == "synth":
        p, truth = synth_pencil(n, n // 2, seed=seed)
        return p, truth.finite_eigenvalues
    rng = np.random.default_rng(seed)
    inst = chain_quadratic(_annulus(n // 2, rng), n, rng=rng)
    return inst.polynomial(), inst.eigenvalues


@pytest.mark.parametrize(
    "rung", ["synth-100", "chain-50", "synth-200", "chain-100", "synth-400", "chain-200", *BUILTIN_NAMES]
)
def test_true_pairs_sit_three_decades_under_the_gate_on_the_ladder(rung):
    # the eta of every true pair stays 1e3 below residual_tolerance(m*r) on
    # the ladder, so the gate has room for rounding that the standard route
    # may add; on the built-ins, at orders m*r of 2-16 where the gate is
    # smallest, it stays 1e2 below (over solver seeds 0-199 the largest was
    # 6.3e-4 of it, on ex3)
    from sqeig.densela import residual_tolerance
    from sqeig.matpoly import backward_errors

    if rung in BUILTIN_NAMES:
        p, spec = builtin(rung, seed=0)
        truth, margin = spec.finite_eigenvalues, 1e-2
    else:
        kind, n = rung.split("-")
        p, truth = _ladder_rung(kind, int(n), 300)
        margin = 1e-3
    balanced, gamma = (p, 1.0) if p.degree == 1 else p.balancing
    gate = residual_tolerance(p.degree * balanced.normal_rank)
    for seed in range(2):
        res = solve_polynomial(p, SolverConfig(seed=seed))
        accepted = res.values[res.accepted]
        assert match_accepted(accepted, truth, 1e-6) is not None, seed
        eta = backward_errors(balanced, accepted / gamma, res.right_vectors[:, res.accepted],
                              res.left_vectors[:, res.accepted])
        assert eta.max(initial=0.0) < margin * gate, seed


def _wide_modulus_chain(problem_seed):
    # n = 40, normal rank 20: 20 real eigenvalues log-spaced over 1e-6 ... 7e5
    from sqeig.construct import chain_quadratic

    inst = chain_quadratic(np.logspace(-6, np.log10(7e5), 20), 40, rng=problem_seed)
    return inst.polynomial(), inst.eigenvalues


def _one_sided_common_kernel(side, problem_seed):
    # order 36, normal rank 28: 8 zero rows (a left common kernel) beside 8
    # blocks L_1, or 8 zero columns (a right one) beside 8 blocks L_1^T, and
    # 20 eigenvalues
    rng = np.random.default_rng(problem_seed)
    if side == "left":
        return _kronecker_pencil(rng, _annulus(20, rng), right_blocks=8, left_blocks=0, zero_rows=8)
    return _kronecker_pencil(rng, _annulus(20, rng), right_blocks=0, left_blocks=8, zero_cols=8)


# projected problems whose core is smaller than the polynomial on at least
# one side: the ladder's six recipes and the special cores
CORE_CASES = {
    **{f"{kind}{n}": functools.partial(_ladder_rung, kind, n, 300)
       for kind, n in (("synth", 100), ("chain", 50), ("synth", 200), ("chain", 100), ("synth", 400), ("chain", 200))},
    "left_common_kernel": functools.partial(_one_sided_common_kernel, "left", 0),
    "right_common_kernel": functools.partial(_one_sided_common_kernel, "right", 0),
    "rectangular_chain_core": functools.partial(_chain, 0),
    "core_with_infinite_eigenvalues": functools.partial(_synth_with_infinite, 0),
    "wide_modulus_chain": functools.partial(_wide_modulus_chain, 0),
}


@pytest.mark.parametrize("case", list(CORE_CASES))
def test_core_classification_is_the_polynomial_classification(case):
    # kappa_bar read on the core is the polynomial's kappa_bar of the lifted
    # vectors, and the accepted mask is the one the exact eta gives.  Both
    # kappa_bar evaluate y* P'(lam) x, which rounds to about u * w, w =
    # kappa_bar * sum_j j |lam|**(j-1) ||A_j||_F / sqrt(sum_j |lam|**(2j));
    # they agree to 1e-12 relative where w is moderate, and to 16 u w where
    # the product cancels, as on the wide-modulus chain (||C||_F = 861
    # after balancing, differences up to 5.8e-10 at w / kappa_bar ~ 1e3)
    from sqeig.condition import condition_numbers, power_sum
    from sqeig.densela import UNIT_ROUNDOFF, residual_tolerance
    from sqeig.matpoly import backward_errors

    p, _ = CORE_CASES[case]()
    balanced, gamma = (p, 1.0) if p.degree == 1 else p.balancing
    assert min(_core_sizes(balanced)) < p.n
    gate = residual_tolerance(p.degree * balanced.normal_rank)
    for seed in range(2):
        cfg = SolverConfig(seed=seed)
        res = solve_polynomial(p, cfg)
        lam, x, y = res.values / gamma, res.right_vectors, res.left_vectors
        finite = np.isfinite(res.kappa_bar)
        full = condition_numbers(balanced, lam[finite], x[:, finite], y[:, finite])
        moduli = np.abs(lam[finite])
        w = full * sum(j * moduli ** (j - 1) * a for j, a in enumerate(balanced.norms) if j)
        w /= np.sqrt(power_sum(lam[finite], p.degree))
        rel = np.abs(res.kappa_bar[finite] - full) / full
        assert (rel <= np.maximum(1e-12, 16 * UNIT_ROUNDOFF * w)).all(), seed
        exact = (res.kappa_bar <= cfg.tol) & (backward_errors(balanced, lam, x, y) <= gate)
        assert res.accepted.tolist() == exact.tolist(), seed


def _coupled_kernel_pencil(seed):
    # order 40, normal rank 2: diag(10, -10j) - lam*I on two coordinates, and
    # each of the two columns coupled into the other 38 rows by 8e-12 and
    # 3e-12 (in A and in B), about 6e-13 and 2e-13 of ||A||_F, randomly
    # conjugated.  The couplings lie under the deflation's cut, so the core
    # is 2-by-2 and drops them: the core's eigenpairs have eta at rounding,
    # while the polynomial's are about 0.35 times the coupling, 2.9e-12 and
    # 1.1e-12, either side of the gate 1e4 * u * 2 = 2.2e-12
    from sqeig.construct import random_conjugation

    rng = np.random.default_rng(seed)
    a = np.zeros((40, 40), dtype=complex)
    b = np.zeros((40, 40), dtype=complex)
    for i, (lam, size) in enumerate(((10.0, 8e-12), (-10j, 3e-12))):
        h = rng.standard_normal((2, 38)) + 1j * rng.standard_normal((2, 38))
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        a[i, i], b[i, i] = lam, 1.0
        a[2:, i], b[2:, i] = size * h[0], size * h[1]
    (a, b), _ = random_conjugation((a, b), rng)
    return MatrixPolynomial.pencil(a, b)


@pytest.mark.parametrize("problem_seed", range(4))
def test_candidates_in_the_slack_band_go_to_the_exact_gate(monkeypatch, problem_seed):
    # where the slack of the core's eta straddles the gate, the exact eta of
    # the lifted vectors decides: here it keeps -10j and rejects 10, whose
    # core eta alone would pass both
    import sqeig.solver as solver_mod
    from sqeig.densela import residual_tolerance
    from sqeig.matpoly import backward_errors, core_backward_errors

    decided = []
    real = solver_mod.backward_errors

    def recording(p, lam, x, y):
        decided.append(np.size(lam))
        return real(p, lam, x, y)

    monkeypatch.setattr(solver_mod, "backward_errors", recording)
    p = _coupled_kernel_pencil(problem_seed)
    assert p.normal_rank == 2 and _core_sizes(p) == (2, 2)
    gate = residual_tolerance(2)
    res = solve_polynomial(p, SolverConfig(seed=0))
    assert decided == [2]
    core = p.core
    xc, yc = core.right.conj().T @ res.right_vectors, core.left.conj().T @ res.left_vectors
    eta, slack = core_backward_errors(p, core, res.values, [c @ xc for c in core.coeffs], yc)
    assert (eta <= gate).all() and (eta + slack > gate).all() and (eta - slack <= gate).all()
    exact = backward_errors(p, res.values, res.right_vectors, res.left_vectors)
    assert res.accepted.tolist() == ((res.kappa_bar <= 1e4) & (exact <= gate)).tolist()
    np.testing.assert_allclose(res.values[res.accepted], [-10j], rtol=1e-12)


@pytest.mark.parametrize("rung", ["synth-100", "chain-50"])
def test_ladder_solves_ask_for_no_exact_eta(monkeypatch, rung):
    # no bracket of a ladder candidate straddles the gate, so a projected
    # solve there never calls backward_errors, not even on an empty band
    import sqeig.solver as solver_mod

    calls = []
    monkeypatch.setattr(solver_mod, "backward_errors", lambda *args: calls.append(args))
    kind, n = rung.split("-")
    p, truth = _ladder_rung(kind, int(n), 1)
    assert p.normal_rank < p.n
    for seed in range(2):
        res = solve_polynomial(p, SolverConfig(seed=seed))
        assert match_accepted(res.values[res.accepted], truth, 1e-6) is not None, seed
    assert calls == []


def _recall_and_extras(results, truth):
    # (matched true values, accepted values matching none) under the
    # TruthSpec rule |a - t| <= MATCH_TOL * max(1, |t|), by optimal assignment
    import scipy.optimize

    from sqeig.matpoly import MATCH_TOL

    truth = np.asarray(truth)
    matched = extras = 0
    for res in results:
        accepted = res.values[res.accepted]
        cost = np.abs(accepted[:, None] - truth[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        hits = int(np.count_nonzero(cost[rows, cols] <= MATCH_TOL * np.maximum(1.0, np.abs(truth[cols]))))
        matched += hits
        extras += accepted.size - hits
    return matched, extras


def _wide_modulus_chain_contract(solve, problem_seeds, solver_seeds):
    # no accepted value off the truth, and recall at least 0.995: over
    # problem and solver seeds 0-29, solve_polynomial missed 23 of 18,000
    # true values (recall 0.99872), each with kappa_bar just above tol, and
    # accepted nothing else; on problem and solver seeds 0-9 it misses 5 of
    # 2,000
    matched = extras = total = 0
    for problem_seed in problem_seeds:
        p, truth = _wide_modulus_chain(problem_seed)
        results = [solve(p, SolverConfig(seed=s)) for s in solver_seeds]
        hits, extra = _recall_and_extras(results, truth)
        matched, extras, total = matched + hits, extras + extra, total + len(truth) * len(results)
    assert extras == 0
    assert matched >= 0.995 * total


def test_wide_modulus_chain_is_solved_by_the_projection():
    _wide_modulus_chain_contract(solve_polynomial, range(10), range(10))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: the perturbation route loses the wide-modulus chain to scaling "
    "(recall 0.40 and 65 extras over problem seeds 0-9 x solver seeds 0-2)",
)
def test_wide_modulus_chain_on_the_perturbation_route():
    _wide_modulus_chain_contract(solve_perturbed, range(10), range(3))


def _quadratic_with_infinite(seed):
    # n = 40 (companion order 80), normal rank 20: diagonal entries
    # (lam - a_i)(lam - b_i) for i < 12 and lam - c_j for the next 8, so the
    # regular part has a singular leading coefficient and 8 infinite
    # eigenvalues besides its 32 finite ones
    from sqeig.construct import diagonal, random_conjugation

    rng = np.random.default_rng(seed)
    roots = _annulus(32, rng)
    a, b, c = roots[:12], roots[12:24], roots[24:]
    m = diagonal(np.ones(12), 40)
    cc = diagonal(np.concatenate((-(a + b), np.ones(8))), 40)
    k = diagonal(np.concatenate((a * b, -c)), 40)
    (m, cc, k), _ = random_conjugation((m, cc, k), rng)
    return MatrixPolynomial.quadratic(m, cc, k), roots


@pytest.mark.parametrize("problem_seed", range(5))
def test_projected_quadratic_with_infinite_eigenvalues(problem_seed):
    from sqeig.verify import match_accepted

    p, truth = _quadratic_with_infinite(problem_seed)
    assert p.balancing[0].normal_rank == 20
    for seed in range(3):
        res = solve_polynomial(p, SolverConfig(seed=seed))
        # QZ at order 2r = 40 finds the 32 finite values and 8 infinite ones
        assert len(res) == 32, (problem_seed, seed)
        assert match_accepted(res.values[res.accepted], truth, 1e-6) is not None, (problem_seed, seed)


@pytest.mark.parametrize("problem_seed", range(3))
def test_projected_diagonal_quadratic_rejects_no_candidate(problem_seed):
    # n = 24 (companion order 48), normal rank 9: the projected quadratic
    # has a companion form of order 18, and all 18 of its eigenvalues are true
    from sqeig.construct import diagonal_quadratic
    from sqeig.verify import match_accepted

    rng = np.random.default_rng(problem_seed)
    roots = _annulus(18, rng)
    inst = diagonal_quadratic(list(zip(roots[::2], roots[1::2])), 24, rng=rng)
    p = inst.polynomial()
    for seed in range(3):
        res = solve_polynomial(p, SolverConfig(seed=seed))
        assert len(res) == 18 and res.accepted.all(), (problem_seed, seed)
        assert match_accepted(res.values, inst.eigenvalues, 1e-6) is not None, (problem_seed, seed)


def test_small_nullity_is_projected(monkeypatch):
    # order 64, nullity 7: the core is the regular part, 57-by-57, solved at
    # order 57 with nothing drawn, and the accepted set is the truth
    import sqeig.solver as solver_mod
    from sqeig.corpus import synth_pencil

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real(*args, **kwargs)

    real = solver_mod.generalized_eig
    monkeypatch.setattr(solver_mod, "generalized_eig", counting)
    p, truth = synth_pencil(64, 57, seed=0)
    assert p.normal_rank == 57 and _core_sizes(p) == (57, 57)
    for seed in range(3):
        res = solve_polynomial(p, SolverConfig(seed=seed))
        assert match_accepted(res.values[res.accepted], truth.finite_eigenvalues, 1e-6) is not None, seed
    assert calls == [57] * 3


@pytest.mark.parametrize("case", REGULAR_CASES)
def test_regular_problem_is_solved_without_deflation(monkeypatch, case):
    # a regular polynomial has no common kernel: its rank read is one SVD of
    # order n, nothing is deflated or drawn, and the unprojected, unperturbed
    # solve accepts the set the perturbed one accepts
    import sqeig.solver as solver_mod
    from sqeig import matpoly

    calls = collections.Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            calls[name, out is None] += 1
            return out
        return wrapper

    monkeypatch.setattr(matpoly, "deflate", counting("deflate", matpoly.deflate))
    monkeypatch.setattr(matpoly, "rank_with_tol", counting("svd", matpoly.rank_with_tol))
    monkeypatch.setattr(solver_mod, "_projection_basis", counting("basis", solver_mod._projection_basis))
    p, truth = LARGE_CASES[case](0)
    for seed in range(3):
        res = solve_polynomial(p, SolverConfig(seed=seed))
        want = solve_perturbed(p, SolverConfig(seed=seed))
        assert match_accepted(res.values[res.accepted], want.values[want.accepted], 1e-8) is not None, seed
        assert match_accepted(res.values[res.accepted], truth, 1e-6) is not None, seed
    assert calls == {("svd", False): 1, ("basis", True): 6}


def test_rank_zero_never_reaches_lapack(monkeypatch):
    import sqeig.solver as solver_mod

    def failing(*args, **kwargs):
        raise AssertionError("QZ called on a rank-0 problem")

    monkeypatch.setattr(solver_mod, "generalized_eig", failing)
    p, _ = _rank_zero(0)
    res = solve_polynomial(p, SolverConfig(seed=0))
    assert len(res) == 0
    assert res.values.dtype == complex and res.accepted.dtype == bool
    assert res.values.shape == res.kappa_bar.shape == res.accepted.shape == (0,)
    assert res.right_vectors.shape == res.left_vectors.shape == (40, 0)


def test_normal_rank_runs_once_per_polynomial(monkeypatch):
    from sqeig import matpoly

    calls = []

    def counting(p, rng):
        calls.append((p, rng))
        return real(p, rng)

    real = matpoly.normal_rank
    monkeypatch.setattr(matpoly, "normal_rank", counting)
    p, _ = _chain(1)
    for seed in range(3):
        solve_polynomial(p, SolverConfig(seed=seed))
    balanced = p.balancing[0]
    assert calls == [(balanced, matpoly.RANK_SEED)]
    assert balanced.normal_rank == 12


def _recording_routines(monkeypatch):
    # the LAPACK eigensolver each solve's generalized_eig ran, in order
    import sqeig.solver as solver_mod

    routines = []
    real = solver_mod.generalized_eig

    def recording(a, b):
        dec = real(a, b)
        routines.append(dec.routine)
        return dec

    monkeypatch.setattr(solver_mod, "generalized_eig", recording)
    return routines


def _synth80(seed):
    # 80 x 80, rank 40: the projected pencil of order 40 has the 40 true
    # eigenvalues only
    from sqeig.corpus import synth_pencil

    p, truth = synth_pencil(80, 40, seed=seed)
    return p, truth.finite_eigenvalues


def _chain40(seed):
    # n = 40, normal rank 20: the projected quadratic's companion form of
    # order 40 has the 20 true eigenvalues and 20 placed by U and V
    from sqeig.construct import chain_quadratic

    inst = chain_quadratic([0.4 * k * np.exp(0.7j * k) for k in range(1, 21)], 40, rng=seed)
    return inst.polynomial(), inst.eigenvalues


@pytest.mark.parametrize("build", [_synth80, _chain40], ids=["synth_pencil_80_40", "chain_quadratic_40_20"])
def test_standard_route_pairs_sit_far_under_the_gate(monkeypatch, build):
    # at projected order 40 the well-conditioned projected B takes zgeev;
    # its true pairs keep backward errors decades under the eta gate and
    # the accepted set is exactly the truth
    from sqeig.densela import residual_tolerance
    from sqeig.matpoly import backward_errors
    from sqeig.verify import match_accepted

    routines = _recording_routines(monkeypatch)
    for problem_seed in range(2):
        p, truth = build(problem_seed)
        balanced, gamma = (p, 1.0) if p.degree == 1 else p.balancing
        gate = residual_tolerance(p.degree * balanced.normal_rank)
        for seed in range(3):
            res = solve_polynomial(p, SolverConfig(seed=seed))
            assert routines[-1] == "zgeev", (problem_seed, seed)
            eta = backward_errors(balanced, res.values / gamma, res.right_vectors, res.left_vectors)
            accepted = res.values[res.accepted]
            assert accepted.size == len(truth), (problem_seed, seed)
            assert match_accepted(accepted, truth, 1e-6) is not None, (problem_seed, seed)
            assert eta[res.accepted].max() < 1e-3 * gate, (problem_seed, seed)


def _synth80_with_infinite(seed):
    # 80 x 80, rank 40: 32 finite and 8 infinite eigenvalues
    from sqeig.corpus import synth_pencil

    p, truth = synth_pencil(80, 40, n_finite=32, seed=seed)
    return p, truth.finite_eigenvalues


@pytest.mark.parametrize(
    "build", [_synth80_with_infinite, _quadratic_with_infinite],
    ids=["synth_pencil_with_infinite", "quadratic_with_infinite"],
)
def test_projected_problems_with_infinite_eigenvalues_run_qz(monkeypatch, build):
    # infinite eigenvalues make the projected B singular, so at projected
    # order 40 QZ solves the problem, and finds the exact truth set
    from sqeig.densela import qz_routine
    from sqeig.verify import match_accepted

    routines = _recording_routines(monkeypatch)
    p, truth = build(0)
    balanced = p if p.degree == 1 else p.balancing[0]
    assert p.degree * balanced.normal_rank == 40
    for seed in range(3):
        res = solve_polynomial(p, SolverConfig(seed=seed))
        assert match_accepted(res.values[res.accepted], truth, 1e-6) is not None, seed
    assert routines == [qz_routine(40)] * 3


@pytest.mark.parametrize("build", [_synth, _chain40], ids=["synth_pencil_60_30", "chain_quadratic_40_20"])
def test_perturbation_route_runs_qz_at_large_order(monkeypatch, build):
    # the paper's route on a singular problem: B = -diag(M + eps E, I) has
    # cond(B) ~ 1/eps, far past the standard route's floor, so QZ runs; the
    # studies of the spurious candidates' kappa_bar rely on it
    from sqeig.densela import qz_routine

    routines = _recording_routines(monkeypatch)
    p, _ = build(0)
    for seed in range(3):
        solve_perturbed(p, SolverConfig(seed=seed))
    assert routines == [qz_routine(p.degree * p.n)] * 3


@pytest.mark.parametrize("case", REGULAR_CASES)
def test_regular_problem_with_well_conditioned_lead_runs_zgeev(monkeypatch, case):
    # a regular problem is solved unprojected and unperturbed, and its
    # B = -A_m is well conditioned: zgeev solves it
    routines = _recording_routines(monkeypatch)
    p, _ = LARGE_CASES[case](0)
    solve_polynomial(p, SolverConfig(seed=0))
    assert routines == ["zgeev"]
