"""Constructed singular instances: designed structure really holds."""

import inspect

import numpy as np
import pytest

import sqeig
from sqeig import construct, probfile
from sqeig.construct import chain_quadratic, diagonal_pencil, diagonal_quadratic
from sqeig.corpus import builtin
from sqeig.densela import generalized_eig, rank_with_tol
from sqeig.matpoly import normal_rank, sample_perturbation
from sqeig.solver import SolverConfig, solve_polynomial
from sqeig.verify import empirical_probability, expansion_order_check


def _bases_are_kernels(poly, lam0, b):
    q = poly.evaluate(lam0)
    right = np.column_stack([b.X, b.x])
    left = np.column_stack([b.Y, b.y])
    assert np.linalg.norm(q @ right) <= 1e-10
    assert np.linalg.norm(left.conj().T @ q) <= 1e-10
    np.testing.assert_allclose(right.conj().T @ right, np.eye(right.shape[1]), atol=1e-12)
    np.testing.assert_allclose(left.conj().T @ left, np.eye(left.shape[1]), atol=1e-12)


# recipes always conjugate, so True is the one case
@pytest.mark.parametrize("rotate", [True])
def test_chain_quadratic_structure(rotate):
    lams = [1.0, 0.5, -0.25]
    inst = chain_quadratic(lams, 5, rng=3)
    assert (inst.conjugation is not None) is rotate
    poly = inst.polynomial()
    assert inst.normal_rank == 3
    assert normal_rank(poly, rng=0) == 3
    for lam0 in lams:
        # rank drops by one at a designed eigenvalue
        assert rank_with_tol(poly.evaluate(lam0)) == 2
        _bases_are_kernels(poly, lam0, inst.bases(lam0))


def test_chain_zero_eigenvalue():
    inst = chain_quadratic([0.0, 1.0], 4, rng=4)
    _bases_are_kernels(inst.polynomial(), 0.0, inst.bases(0.0))


def test_chain_scaled_keeps_structure():
    inst = chain_quadratic([2.0, 0.5], 4, rng=5)
    scaled, gamma = inst.scaled()
    assert abs(np.linalg.norm(scaled.polynomial().coeffs[2], 2) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(scaled.polynomial().coeffs[0], 2) - 1.0) <= 1e-12
    for lam_orig, lam_scaled in zip(inst.eigenvalues, scaled.eigenvalues):
        assert abs(lam_orig - gamma * lam_scaled) <= 1e-12
        _bases_are_kernels(scaled.polynomial(), lam_scaled, scaled.bases(lam_scaled))


def test_diagonal_quadratic_structure():
    inst = diagonal_quadratic([(1.0, -1.2), (0.5, 2.0)], 4, rng=6)
    poly = inst.polynomial()
    assert inst.normal_rank == 2
    assert normal_rank(poly, rng=0) == 2
    assert len(inst.eigenvalues) == 4
    for lam0 in inst.eigenvalues:
        assert rank_with_tol(poly.evaluate(lam0)) == 1
        _bases_are_kernels(poly, lam0, inst.bases(lam0))


def test_diagonal_pencil_structure():
    inst = diagonal_pencil([1.0, -2.0], 4, rng=7)
    poly = inst.polynomial()
    assert normal_rank(poly, rng=0) == 2
    for lam0 in inst.eigenvalues:
        _bases_are_kernels(poly, lam0, inst.bases(lam0))


def test_rejects_bad_designs():
    with pytest.raises(ValueError, match="distinct"):
        chain_quadratic([1.0, 1.0], 4, rng=0)
    with pytest.raises(ValueError, match="n >="):
        chain_quadratic([1.0, 2.0, 3.0], 3, rng=0)
    with pytest.raises(ValueError, match="distinct"):
        diagonal_quadratic([(1.0, 1.0)], 3, rng=0)
    with pytest.raises(ValueError, match="n >="):
        diagonal_quadratic([(1.0, 2.0), (3.0, 4.0)], 2, rng=0)
    with pytest.raises(ValueError, match="n >="):
        diagonal_pencil([1.0, 2.0, 3.0], 3, rng=0)


def test_recipes_always_conjugate_from_a_required_seed():
    assert not hasattr(construct, "_conjugated")
    for recipe in (chain_quadratic, diagonal_quadratic, diagonal_pencil):
        params = inspect.signature(recipe).parameters
        assert list(params)[2:] == ["rng"]
        assert params["rng"].default is inspect.Parameter.empty
    for inst in (
        chain_quadratic([1.0, 0.5], 3, rng=0),
        diagonal_quadratic([(1.0, -0.7)], 3, rng=1),
        diagonal_pencil([1.0, -2.0], 4, rng=7),
    ):
        u, v = inst.conjugation
        np.testing.assert_allclose(u.T @ u, np.eye(inst.n), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(inst.n), atol=1e-12)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"], ids=repr)
def test_recipes_name_a_bad_seed(seed):
    for recipe, values, n in (
        (chain_quadratic, [1.0, 0.5], 3),
        (diagonal_quadratic, [(1.0, -0.7)], 3),
        (diagonal_pencil, [1.0, -2.0], 4),
    ):
        with pytest.raises(ValueError, match="^seed must be"):
            recipe(values, n, rng=seed)


@pytest.mark.parametrize(
    "values,n,expected",
    [
        ([2.0, -1j], 3, np.diag([2.0, -1j, 0.0])),
        ([], 2, np.zeros((2, 2))),
        ((1.0, 2.0), 2, np.diag([1.0, 2.0])),
    ],
    ids=["padded", "empty", "full"],
)
def test_diagonal_builder(values, n, expected):
    got = construct.diagonal(values, n)
    assert got.dtype == complex
    np.testing.assert_array_equal(got, expected)


def test_unknown_eigenvalue_lookup():
    inst = chain_quadratic([1.0, 0.5], 3, rng=8)
    with pytest.raises(ValueError, match="designed"):
        inst.bases(3.33)


@pytest.mark.parametrize("lam0", [np.nan, complex(0.0, np.nan), np.inf, -np.inf])
def test_non_finite_eigenvalue_lookup(lam0):
    # NaN would otherwise pick the first designed eigenvalue, 0 here
    inst = chain_quadratic([0.0, 0.5], 3, rng=8)
    with pytest.raises(ValueError, match="designed"):
        inst.bases(lam0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: chain_quadratic([1.0, 0.5], 3, rng=0),
        lambda: chain_quadratic([1.0, 0.5], 3, rng=0).scaled()[0],
        lambda: diagonal_quadratic([(1.0, -0.7)], 3, rng=1),
        lambda: diagonal_pencil([1.0, -2.0], 4, rng=7),
    ],
)
def test_polynomial_is_held_once(make):
    # the builder checks the polynomial once; every call hands back that object
    inst = make()
    assert isinstance(inst, construct.SingularProblem)
    assert inst.polynomial() is inst.polynomial()
    assert inst.n == inst.polynomial().n


def test_scaled_rejects_a_pencil():
    with pytest.raises(ValueError, match="degree 1"):
        diagonal_pencil([1.0, -2.0], 4, rng=7).scaled()


def test_designed_types_merged():
    for gone in ("SingularQuadratic", "SingularPencil", "_DesignedSpectrum"):
        assert not hasattr(construct, gone)
        assert not hasattr(sqeig, gone)
    assert sqeig.SingularProblem is construct.SingularProblem


def _annulus_eigenvalues(count, rng):
    # simple eigenvalues with 0.5 <= |lam| <= 2
    return rng.uniform(0.5, 2.0, count) * np.exp(2j * np.pi * rng.random(count))


@pytest.mark.parametrize("n", [100, 200])
def test_chain_bases_orthonormal_at_large_order(n):
    rng = np.random.default_rng(n)
    inst = chain_quadratic(_annulus_eigenvalues(n // 2, rng), n, rng=rng)
    poly = inst.polynomial()
    for lam0 in inst.eigenvalues:
        b = inst.bases(lam0)
        right = np.column_stack([b.X, b.x])
        np.testing.assert_allclose(right.conj().T @ right, np.eye(right.shape[1]), atol=1e-12)
        q = poly.evaluate(lam0)
        assert np.linalg.norm(q @ b.x) <= 1e-12 * np.linalg.norm(q)


def test_chain_bases_built_on_demand(monkeypatch):
    calls = []
    build = construct._chain_bases
    monkeypatch.setattr(
        construct, "_chain_bases", lambda *args: calls.append(args) or build(*args)
    )
    inst = chain_quadratic(_annulus_eigenvalues(100, np.random.default_rng(0)), 200, rng=1)
    assert calls == []
    inst.bases(inst.eigenvalues[7])
    assert len(calls) == 1


def _study_inputs():
    # a chain quadratic at a designed eigenvalue with one perturbation stack
    inst = chain_quadratic([1.0, 0.5], 3, rng=0)
    return inst.polynomial(), 1.0, inst.bases(1.0), sample_perturbation(3, 2, 0)


def _kept_trials():
    poly, truth = builtin("kagstrom2x2")
    return empirical_probability(poly, truth, SolverConfig(seed=0), 2, keep_trials=True)


def test_array_holding_types_compare_by_identity():
    # the generated field-wise __eq__ would compare ndarrays and raise
    for make in (
        lambda: chain_quadratic([1.0, 0.5], 3, rng=0),
        lambda: diagonal_pencil([1.0, -2.0], 4, rng=7),
        lambda: chain_quadratic([1.0, 0.5], 3, rng=0).polynomial(),
        lambda: chain_quadratic([1.0, 0.5], 3, rng=0).bases(1.0),
        lambda: solve_polynomial(builtin("kagstrom2x2")[0], SolverConfig(seed=0))[0],
        lambda: generalized_eig(np.eye(2), np.eye(2)),
        lambda: _kept_trials().trials[0],
        _kept_trials,
        lambda: expansion_order_check(*_study_inputs(), [1e-4, 1e-5]),
        lambda: probfile.ProblemFile(coefficients=(np.eye(2),)),
    ):
        a, b = make(), make()
        assert a == a
        assert a != b
        assert len({a, b}) == 2
