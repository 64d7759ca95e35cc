"""Condition formulas, sensitivity model, probabilistic bounds."""

import contextlib
import gc
import math
import re
import warnings
import weakref

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HORNER_LAMS,
    assert_same_bits,
    condition_reference,
    signed_zero_polynomial,
    unit_columns,
)
from sqeig.condition import (
    BadDirectionError,
    beta_ratio_lower_tail_bound,
    condition_numbers,
    directional_sensitivities,
    directional_sensitivity,
    first_order_coefficient,
    inverse_condition,
    limit_weights,
    pencil_condition,
    quadratic_condition,
    sensitivity_tail,
    spurious_condition_bound,
    weak_condition_bounds,
)
import sqeig.condition as condition_mod
from sqeig.construct import chain_quadratic
from sqeig.densela import UNIT_ROUNDOFF
from sqeig.matpoly import (
    KernelBases,
    MatrixPolynomial,
    joint_norm,
    sample_perturbation,
    sample_perturbations,
)
from sqeig.verify import limit_mixing_samples


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

    def test_degree_zero_is_infinitely_ill_conditioned(self):
        # P(lam) = A0 has P' = 0, so no eigentriple has a finite condition
        # number, whatever y* A0 x is
        p = MatrixPolynomial((np.eye(2),))
        e1 = np.array([1.0, 0.0], dtype=complex)
        assert condition_numbers(p, 0.5, e1, e1) == math.inf
        assert inverse_condition(p, 0.5, e1, e1) == 0.0
        lams = np.array([0.0, 2.0 - 1j])
        assert np.all(condition_numbers(p, lams, np.eye(2), np.eye(2)) == math.inf)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
class TestConditionMatchesReferenceLoop:
    # P'(lam) x is one Horner pass over the products in place of a
    # written-out loop; the condition numbers keep its bits

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_polynomial(self, degree, real):
        p = signed_zero_polynomial(degree, real)
        x, y = unit_columns(3, 4, seed=3), unit_columns(3, 4, seed=4)
        for j, lam in enumerate(HORNER_LAMS):
            want = condition_reference(p.coeffs, lam, x[:, j], y[:, j])
            assert_same_bits(condition_numbers(p, lam, x[:, j], y[:, j]), want)
            assert_same_bits(inverse_condition(p, lam, x[:, j], y[:, j]), 1.0 / want)
        lams = np.array(HORNER_LAMS)
        assert_same_bits(condition_numbers(p, lams, x, y), condition_reference(p.coeffs, lams, x, y))

    def test_leading_coefficient_near_overflow(self, real):
        # the factor 2 scales the product A_2 x, which stays finite, not
        # A_2, whose double overflows and would turn inf * 0 into NaN
        p = MatrixPolynomial.quadratic(np.diag([1e308, 0.0]), np.eye(2), np.eye(2))
        x = y = np.array([0.5, math.sqrt(0.75) if real else 1j * math.sqrt(0.75)])
        # |lam| <= 1, so that P'(lam) x stays finite too
        for lam in HORNER_LAMS[:3]:
            got = condition_numbers(p, lam, x, y)
            assert math.isfinite(got)
            assert_same_bits(got, condition_reference(p.coeffs, lam, x, y))

    def test_pencil_and_quadratic(self, real):
        # loose matrices, real ones as float arrays
        _, c, m = (np.array(a.real if real else a) for a in signed_zero_polynomial(2, real).coeffs)
        cc, mc = np.asarray(c, dtype=complex), np.asarray(m, dtype=complex)
        x, y = unit_columns(3, 4, seed=5), unit_columns(3, 4, seed=6)
        for j, lam in enumerate(HORNER_LAMS):
            xj, yj = x[:, j], y[:, j]
            assert_same_bits(
                pencil_condition(m, lam, xj, yj), condition_reference((None, mc), lam, xj, yj)
            )
            assert_same_bits(
                quadratic_condition(m, c, lam, xj, yj),
                condition_reference((None, cc, mc), lam, xj, yj),
            )
        lams = np.array(HORNER_LAMS)
        assert_same_bits(
            pencil_condition(m, lams, x, y), condition_reference((None, mc), lams, x, y)
        )
        assert_same_bits(
            quadratic_condition(m, c, lams, x, y), condition_reference((None, cc, mc), lams, x, y)
        )


class TestDirectionalSensitivity:
    def test_scalar_constant_direction(self):
        # constant perturbation of p(lam) = lam - 1 moves the root one-to-one
        p = _scalar_pencil()
        e = (np.array([[0.5]]), np.array([[0.0]]))
        empty = np.zeros((1, 0))
        got = directional_sensitivity(p, 1.0, KernelBases(empty, ONE, empty, ONE), e)
        assert math.isclose(got, 1.0, rel_tol=1e-13)

    def test_first_order_movement_1x1(self):
        # root of (1 + eps e1) lam + (eps e0 - 1) vs the predicted slope
        rng = np.random.default_rng(2)
        e0, e1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p = _scalar_pencil()
        e = (np.array([[e0]]), np.array([[e1]]))
        empty = np.zeros((1, 0))
        sigma = directional_sensitivity(p, 1.0, KernelBases(empty, ONE, empty, ONE), e)
        e_norm = math.sqrt(abs(e0) ** 2 + abs(e1) ** 2)
        for eps in (1e-5, 1e-6):
            root = (1 - eps * e0) / (1 + eps * e1)
            assert abs(abs(root - 1.0) - sigma * e_norm * eps) <= 10 * eps**2 * e_norm**2

    def test_positive_finite_on_chain(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=3)
        poly = inst.polynomial()
        b = inst.bases(1.0)
        rng = np.random.default_rng(4)
        e = sample_perturbation(3, 2, rng)
        sigma = directional_sensitivity(poly, 1.0, b, e)
        assert sigma > 0 and np.isfinite(sigma)

    def test_bad_direction_raises(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=5)
        b = inst.bases(1.0)
        # a nonzero direction with E(1) = 0 exactly: a zero inner block
        u = b.Y[:, :1] @ b.x.reshape(1, -1).conj()
        e = (u, -u, np.zeros_like(u))
        with pytest.raises(BadDirectionError):
            directional_sensitivity(inst.polynomial(), 1.0, b, e)


class TestBatchedKernel:
    def test_flags_bad_directions_without_raising(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=5)
        b = inst.bases(1.0)
        batch = np.array(sample_perturbations(3, 2, 4, np.random.default_rng(6)))
        # E_1 = -E_0 and E_2 = 0 give E(1) = 0 exactly, so every projected
        # block of this nonzero direction is zero
        batch[2, 1], batch[2, 2] = -batch[2, 0], 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, ok = directional_sensitivities(inst.polynomial(), 1.0, b, batch)
            weights, ok_limit = limit_weights(inst.polynomial(), 1.0, b, batch)
        np.testing.assert_array_equal(ok, [True, True, False, True])
        np.testing.assert_array_equal(ok_limit, [True, True, False, True])
        assert np.isnan(weights[2]) and np.all(np.isfinite(weights[ok_limit]))

    def test_zero_anchor_gives_infinite_sensitivity(self):
        # p(lam) = (lam - 1)**2 has p'(1) = 0
        p = MatrixPolynomial((np.array([[1.0]]), np.array([[-2.0]]), np.array([[1.0]])))
        empty = np.zeros((1, 0))
        b = KernelBases(empty, ONE, empty, ONE)
        batch = sample_perturbations(1, 2, 3, np.random.default_rng(7))
        values, ok = directional_sensitivities(p, 1.0, b, batch)
        assert ok.all() and np.all(values == math.inf)
        assert directional_sensitivity(p, 1.0, b, batch[0]) == math.inf
        assert first_order_coefficient(p, 1.0, b, batch[0]) == complex(math.inf)


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
            g = ys.conj().T @ sum(lam0**j * c for j, c in enumerate(e)) @ xs
            ref = np.linalg.det(g) / (np.linalg.det(g[:-1, :-1]) * anchor)
            c = first_order_coefficient(poly, lam0, b, e)
            assert abs(c - ref) <= 1e-12 * abs(ref)
            sigma = directional_sensitivity(poly, lam0, b, e)
            assert math.isclose(sigma, abs(c) / joint_norm(e), rel_tol=1e-14)


def _fresh(monkeypatch, fn, *args):
    # fn(*args) with no anchor kept beforehand, so it is computed afresh
    monkeypatch.setattr(condition_mod, "_ANCHORS", weakref.WeakKeyDictionary())
    return fn(*args)


def _own_probe(lams, n, seed, lam0):
    # a polynomial and kernel bases that nothing else refers to
    inst = chain_quadratic(lams, n, rng=seed)
    b = inst.bases(lam0)
    p = MatrixPolynomial(tuple(np.array(c) for c in inst.polynomial().coeffs))
    return p, KernelBases(b.X.copy(), b.x.copy(), b.Y.copy(), b.y.copy())


#: the three functions that read the kept anchor, as functions of one direction
_ANCHOR_READERS = {
    "first_order_coefficient": first_order_coefficient,
    "directional_sensitivity": directional_sensitivity,
    "directional_sensitivities": lambda p, lam, b, e: directional_sensitivities(p, lam, b, e[None]),
}


class TestKeptAnchor:
    """The kept anchor ``y* P'(lam) x`` gives a fresh computation's bits."""

    @pytest.mark.parametrize("name", sorted(_ANCHOR_READERS))
    @pytest.mark.parametrize("lams,n,lam0,seed", [((1.0, 0.5), 3, 1.0, 40), ((1.0, 0.5, 2.0), 5, 2.0, 41)])
    def test_same_bits_as_a_fresh_computation(self, monkeypatch, name, lams, n, lam0, seed):
        fn = _ANCHOR_READERS[name]
        p, b = _own_probe(lams, n, seed, lam0)
        for e in sample_perturbations(n, 2, 5, np.random.default_rng(seed)):
            want = _fresh(monkeypatch, fn, p, lam0, b, e)
            fn(p, lam0, b, e)  # kept on the first call, read on the second
            assert_same_bits(fn(p, lam0, b, e), want)

    @pytest.mark.parametrize("name", sorted(_ANCHOR_READERS))
    def test_same_bits_in_the_regular_case(self, monkeypatch, name):
        fn = _ANCHOR_READERS[name]
        p, empty = _scalar_pencil(), np.zeros((1, 0))
        b = KernelBases(empty, ONE, empty, ONE)
        for e in sample_perturbations(1, 1, 3, np.random.default_rng(49)):
            want = _fresh(monkeypatch, fn, p, 1.0, b, e)
            fn(p, 1.0, b, e)
            assert_same_bits(fn(p, 1.0, b, e), want)

    def test_kept_anchor_is_the_formula(self):
        p, b = _own_probe((1.0, 0.5), 3, 42, 1.0)
        anchor = condition_mod._anchor(p, 0.3 - 0.6j, b)
        assert_same_bits(anchor, complex(b.y.conj() @ p.derivative_at(0.3 - 0.6j) @ b.x))
        assert condition_mod._anchor(p, 0.3 - 0.6j, b) is anchor

    def test_two_lams_on_one_bases(self, monkeypatch):
        p, b = _own_probe((1.0, 0.5), 3, 43, 1.0)
        e = sample_perturbation(3, 2, 43)
        for lam in (1.0, 0.5, 1.0, 0.5):
            assert_same_bits(
                first_order_coefficient(p, lam, b, e), _fresh(monkeypatch, first_order_coefficient, p, lam, b, e)
            )
        first_order_coefficient(p, 1.0, b, e)
        first_order_coefficient(p, 0.5, b, e)
        assert len(condition_mod._ANCHORS[p][b]) == 2

    def test_two_polynomials_sharing_one_bases(self, monkeypatch):
        p, b = _own_probe((1.0, 0.5), 3, 44, 1.0)
        q = MatrixPolynomial(tuple(2.0 * c for c in p.coeffs))
        e = sample_perturbation(3, 2, 44)
        want_p = _fresh(monkeypatch, first_order_coefficient, p, 1.0, b, e)
        want_q = _fresh(monkeypatch, first_order_coefficient, q, 1.0, b, e)
        assert want_p != want_q
        for poly, want in ((p, want_p), (q, want_q), (p, want_p), (q, want_q)):
            assert_same_bits(first_order_coefficient(poly, 1.0, b, e), want)

    def test_entry_goes_with_its_polynomial_and_bases(self):
        gc.collect()  # so that no entry of an earlier test goes during this one
        kept = len(condition_mod._ANCHORS)
        p, b = _own_probe((1.0, 0.5), 3, 45, 1.0)
        other = KernelBases(b.X.copy(), b.x.copy(), b.Y.copy(), b.y.copy())
        e = sample_perturbation(3, 2, 45)
        directional_sensitivity(p, 1.0, b, e)
        directional_sensitivity(p, 1.0, other, e)
        assert len(condition_mod._ANCHORS) == kept + 1
        assert len(condition_mod._ANCHORS[p]) == 2
        del other
        gc.collect()
        assert len(condition_mod._ANCHORS[p]) == 1
        del p
        gc.collect()
        assert len(condition_mod._ANCHORS) == kept

    @pytest.mark.parametrize(
        "lam", [np.float64(1.0), np.array(1.0), np.complex128(1.0), np.array(1.0 + 0j)], ids=repr
    )
    def test_numpy_scalar_and_0d_lam(self, monkeypatch, lam):
        p, b = _own_probe((1.0, 0.5), 3, 46, 1.0)
        e = sample_perturbation(3, 2, 46)
        want = _fresh(monkeypatch, first_order_coefficient, p, 1.0, b, e)
        want_sensitivity = _fresh(monkeypatch, directional_sensitivity, p, 1.0, b, e)
        for _ in range(2):
            assert_same_bits(first_order_coefficient(p, lam, b, e), want)
            assert_same_bits(directional_sensitivity(p, lam, b, e), want_sensitivity)

    def test_signed_zero_lams_are_kept_apart(self):
        p, b = _own_probe((1.0, 0.5), 3, 47, 1.0)
        lams = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0))
        for lam in lams:
            condition_mod._anchor(p, lam, b)
        assert len(condition_mod._ANCHORS[p][b]) == len(lams)


#: numpy's SVD as loaded, for references that a counting wrapper put in
#: place of np.linalg.svd must not see
_numpy_svd = np.linalg.svd


def _svd_screen(g):
    # the screen by singular values alone, on a (k, d, d) stack: the mask
    # every decision of the bound must reproduce
    s = _numpy_svd(g, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return s[:, 0] / s[:, -1] <= condition_mod.BAD_DIRECTION_COND


def _screen(g):
    # the module's screen, given slogdet's log|det g| as its callers give it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return condition_mod._passes_screen(g, np.linalg.slogdet(g)[1])


def _outcome(fn, *args):
    # what fn(*args) gives: ("value", bits) or (exception type, message)
    try:
        got = fn(*args)
    except (BadDirectionError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return "value", repr(got)


@contextlib.contextmanager
def _counting_svd():
    # the arrays handed to np.linalg.svd inside the block, one per call
    seen = []

    def counting(a, *args, **kwargs):
        seen.append(np.array(a))
        return _numpy_svd(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", counting)
        yield seen


def _designed_block(rng, cond, d, scale=1.0):
    # U diag(sigma) V* with Haar unitary U and V and singular values sigma
    # log-spaced from scale down to scale / cond (scale alone at d = 1)
    u, v = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0] for _ in range(2))
    return (u * (scale * np.geomspace(1.0, 1.0 / cond, d))) @ v.conj().T


def _undecided(g):
    # (must, may): the rows of the finite (k, d, d) stack g that the bound
    # ||g||_F**d / |det g| cannot pass, read from the singular values, and
    # those together with the rows on the edge of a decision (a bound
    # within a relative 1e-3 of a decade below the cutoff, or a squared norm
    # at the edge of the normal range)
    d = g.shape[-1]
    limit = math.log(condition_mod.BAD_DIRECTION_COND / 10.0)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    s = _numpy_svd(g, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ratios = s / s[:, :1]
        log_bound = 0.5 * d * np.log(np.square(ratios).sum(axis=1)) - np.log(ratios).sum(axis=1)
        top = np.square(s[:, 0])
        must = ~(log_bound <= limit + 1e-3) | (d * top < tiny) | (top > huge)
        may = must | (log_bound >= limit - 1e-3) | (top < tiny) | (d * top > huge)
    return set(np.flatnonzero(must)), set(np.flatnonzero(may))


def _rows_seen(g, seen):
    # the indices of the rows of g that the recorded SVD calls took, each once
    rows = [next(i for i, b in enumerate(g) if np.array_equal(a, b)) for call in seen for a in call]
    assert len(set(rows)) == len(rows)
    return set(rows)


def _check_screen(g):
    # the mask equals the SVD reference on the stack and on each block alone
    # (the one-direction form), and the SVD sees only the blocks the bound
    # leaves undecided
    want = _svd_screen(g)
    must, may = _undecided(g)
    with _counting_svd() as seen:
        got = _screen(g)
    np.testing.assert_array_equal(got, want)
    assert must <= _rows_seen(g, seen) <= may
    for i in range(len(g)):
        with _counting_svd() as seen:
            got = _screen(g[i : i + 1])
        assert got.tolist() == [want[i]], i
        assert (i in must) <= bool(seen) <= (i in may), i


class TestBadDirectionScreen:
    """The determinant bound passes what it can; the SVD decides the rest as before."""

    @given(st.integers(1, 3), st.lists(st.floats(0.0, 14.0), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_log_uniform_conditions(self, d, log_conds, seed):
        rng = np.random.default_rng(seed)
        _check_screen(np.array([_designed_block(rng, 10.0**c, d) for c in log_conds]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_designed_blocks(self, d):
        rng = np.random.default_rng(60 + d)
        conds = (1.0, 1e3, 1e11, 1e12 * (1 - 1e-6), 1e12 * (1 + 1e-6), 1e14)
        blocks = [_designed_block(rng, c, d) for c in conds]
        # scaled out of the range where the squared norm is a normal number
        blocks += [_designed_block(rng, c, d, scale) for scale in (1e170, 1e-170) for c in (10.0, 1e14)]
        blocks.append(np.zeros((d, d), dtype=complex))
        if d > 1:  # two equal rows: an exactly singular block
            twin = _designed_block(rng, 10.0, d)
            twin[-1] = twin[0]
            blocks.append(twin)
        g = np.array(blocks)
        _check_screen(g)
        # every nonzero block has condition 1 at d = 1.  A block of 1e-170
        # has a squared norm that underflows to 0; a bound of -inf from it
        # would pass the block of condition 1e14 (row 9) too
        want = _svd_screen(g)
        assert want[:3].all() and want[6] and want[8]
        assert want[5] == want[7] == want[9] == (d == 1)
        assert not want[10:].any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nan_blocks_raise_as_the_svd_does(self, d):
        rng = np.random.default_rng(70 + d)
        nan_block = _designed_block(rng, 10.0, d)
        nan_block[0, 0] = math.nan
        g = np.array([_designed_block(rng, 10.0, d), nan_block])
        for stack in (g, g[1:]):
            want = _outcome(_svd_screen, stack)
            assert want[0] is np.linalg.LinAlgError
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert _outcome(_screen, stack) == want

    def test_cutoff_is_read_at_call_time(self, monkeypatch):
        rng = np.random.default_rng(75)
        g = np.array([_designed_block(rng, c, 2) for c in (1.0, 30.0, 1e3, 1e6)])
        for cutoff in (0.5, 1.0, 1e2, 1e4, 1e12):
            monkeypatch.setattr(condition_mod, "BAD_DIRECTION_COND", cutoff)
            _check_screen(g)


def _directions_with_blocks(b, blocks, inner):
    # perturbation stacks (E_0, 0, 0) with E_0 = [Y y] G [X x]*, whose
    # projected perturbation at any lam is G up to rounding; a d-by-d block
    # is the inner block G11 (inner=True, the last row and column set to 1)
    # or the whole G
    out = []
    for block in blocks:
        g = block
        if inner:
            g = np.ones((len(block) + 1,) * 2, dtype=complex)
            g[:-1, :-1] = block
        e0 = b.left @ g @ b.right.conj().T
        out.append(np.array([e0, np.zeros_like(e0), np.zeros_like(e0)]))
    return np.array(out)


class TestScreenThroughCallers:
    """Each caller gives what it gave with the SVD screen, near the cutoff too."""

    CONDS = (1e10, 1e11, 1e12 * (1 - 1e-6), 1e12, 1e12 * (1 + 1e-6), 1e13, 1e16)

    def _cases(self, lams, n, seed):
        inst = chain_quadratic(lams, n, rng=seed)
        poly, b = inst.polynomial(), inst.bases(1.0)
        d = b.X.shape[1]
        rng = np.random.default_rng(seed)
        inner = _directions_with_blocks(b, [_designed_block(rng, c, d) for c in self.CONDS], inner=True)
        whole = _directions_with_blocks(b, [_designed_block(rng, c, d + 1) for c in self.CONDS], inner=False)
        random = np.array(sample_perturbations(n, 2, 4, rng))
        return poly, b, np.concatenate([inner, whole, random])

    @staticmethod
    def _svd_reference(monkeypatch, fn, *args):
        with monkeypatch.context() as m:
            m.setattr(condition_mod, "_passes_screen", lambda g, log_det: _svd_screen(g))
            return fn(*args)

    @pytest.mark.parametrize("lams,n,seed", [((1.0, 0.5), 3, 80), ((1.0, 0.5, 2.0), 5, 81)])
    def test_same_masks_values_and_errors(self, monkeypatch, lams, n, seed):
        poly, b, batch = self._cases(lams, n, seed)
        for fn in (limit_weights, directional_sensitivities):
            want = self._svd_reference(monkeypatch, fn, poly, 1.0, b, batch)
            got = fn(poly, 1.0, b, batch)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
        ok_limit = limit_weights(poly, 1.0, b, batch)[1]
        assert ok_limit.any() and not ok_limit.all()
        raised = 0
        for e in batch:
            for fn in (first_order_coefficient, directional_sensitivity):
                want = self._svd_reference(monkeypatch, _outcome, fn, poly, 1.0, b, e)
                assert _outcome(fn, poly, 1.0, b, e) == want
                raised += want[0] is BadDirectionError
        assert raised > 0 or n == 3


#: the four functions that screen a direction, as functions of a batch of
#: four directions
_SCREENED_READERS = {
    "first_order_coefficient": lambda p, lam, b, e: first_order_coefficient(p, lam, b, e[2]),
    "directional_sensitivity": lambda p, lam, b, e: directional_sensitivity(p, lam, b, e[2]),
    "directional_sensitivities": directional_sensitivities,
    "limit_weights": limit_weights,
}


class TestNonFiniteInputs:
    """A lam or direction outside the one input rule raises a ValueError that names it.

    The rule: lam is finite, the squared joint norm of each direction is a
    normal, finite number, and E(lam) does not overflow.
    """

    @staticmethod
    def _probe():
        inst = chain_quadratic((1.0, 0.5), 3, rng=90)
        return inst.polynomial(), inst.bases(1.0), np.array(sample_perturbations(3, 2, 4, 90))

    @pytest.mark.parametrize("name", sorted(_SCREENED_READERS))
    @pytest.mark.parametrize("lam", [complex(math.nan, 0.0), math.inf, complex(1.0, -math.inf)], ids=repr)
    def test_lam(self, name, lam):
        p, b, e = self._probe()
        with pytest.raises(ValueError, match="lam must be finite"):
            _SCREENED_READERS[name](p, lam, b, e)

    @pytest.mark.parametrize("name", sorted(_SCREENED_READERS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)], ids=repr)
    def test_direction(self, name, bad):
        # the bad entry sits in direction 2 of the batch, which is also the
        # one direction the single-direction functions read
        p, b, e = self._probe()
        e[2, 1, 0, 2] = bad
        with pytest.raises(ValueError, match="perturbation direction [02] "):
            _SCREENED_READERS[name](p, 1.0, b, e)

    def test_batches_name_the_bad_direction(self):
        p, b, e = self._probe()
        e[2, 0, 1, 1] = math.nan
        for fn in (directional_sensitivities, limit_weights):
            with pytest.raises(ValueError, match="perturbation direction 2 "):
                fn(p, 1.0, b, e)

    def test_overflowing_joint_norm_is_not_a_sensitivity(self):
        # finite entries whose squares overflow: the joint norm is lost, so
        # every function raises, the first-order coefficient too although it
        # does not read the norm
        p, b, e = self._probe()
        e[2] *= 1e160
        for fn in _SCREENED_READERS.values():
            with pytest.raises(ValueError, match="perturbation direction [02] has a joint norm of inf"):
                fn(p, 1.0, b, e)

    @staticmethod
    def _large_lam_probe():
        # chain3 with its kernel bases at lam = 1, read at a large lam
        inst = chain_quadratic((1.0, 0.5), 3, rng=1)
        return inst.polynomial(), inst.bases(1.0), np.array(sample_perturbations(3, 2, 4, 1))

    @pytest.mark.parametrize("name", sorted(_SCREENED_READERS))
    @pytest.mark.parametrize("lam", [1e160, 1e200], ids=repr)
    def test_lam_so_large_that_the_direction_overflows(self, name, lam):
        # lam**2 E_2 overflows, which leaves every projected block NaN; the
        # rule names lam before the screen's SVD fails on such a block
        p, b, e = self._large_lam_probe()
        with pytest.raises(ValueError, match=re.escape(f"lam = {lam!r} is too large")):
            _SCREENED_READERS[name](p, lam, b, e)

    @pytest.mark.parametrize("name", sorted(_SCREENED_READERS))
    def test_large_lam_inside_the_rule(self, name):
        # at lam = 1e100, E(lam) and its blocks near 1e200 are finite
        p, b, e = self._large_lam_probe()
        out = _SCREENED_READERS[name](p, 1e100, b, e)
        values, ok = out if isinstance(out, tuple) else (np.array([out]), [True])
        assert np.all(ok) and np.all(np.isfinite(values)) and np.all(values != 0)

    @pytest.mark.parametrize("name", sorted(_SCREENED_READERS))
    @pytest.mark.parametrize("scale", [0.0, 2.0**-520, 2.0**520], ids=["zero", "2**-520", "2**520"])
    def test_direction_out_of_scale(self, name, scale):
        # a zero direction, one whose squared norm is subnormal and one whose
        # squared norm overflows: finite entries all, and all outside the rule
        p, b, e = self._probe()
        e[2] *= scale
        with pytest.raises(ValueError, match="perturbation direction [02] has a joint norm of "):
            _SCREENED_READERS[name](p, 1.0, b, e)


#: the two probes of the sensitivity_law benchmark, chain3 and chain5 at lam = 1,
#: each with eight drawn directions
_SCALE_PROBES = []
for _lams, _n, _seed in (((1.0, 0.5), 3, 95), ((1.0, 0.5, 2.0), 5, 96)):
    _inst = chain_quadratic(_lams, _n, rng=_seed)
    _SCALE_PROBES.append(
        (_inst.polynomial(), _inst.bases(1.0), np.array(sample_perturbations(_n, 2, 8, _seed)))
    )


class TestDirectionScale:
    """The direction statistics across the scales the input rule admits."""

    @given(st.integers(-500, 500), st.sampled_from(range(len(_SCALE_PROBES))))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scalings(self, k, probe):
        p, b, e = _SCALE_PROBES[probe]
        scaled = e * 2.0**k
        weights, ok = limit_weights(p, 1.0, b, e)
        got_weights, got_ok = limit_weights(p, 1.0, b, scaled)
        # the same bits, NaNs of failed directions included
        np.testing.assert_array_equal(got_weights.view(np.int64), weights.view(np.int64))
        np.testing.assert_array_equal(got_ok, ok)
        # the sensitivities and c come from slogdet's log magnitudes, sums of
        # 2d+1 logarithms that each grow by about |k| ln 2 and whose partial
        # sums reach (d+1)|k| ln 2, each rounded: an absolute error in the log
        # of up to about (2d+1)(d+1)|k| roundings, which reached 5.3|k| at
        # d = 2 over 200 directions
        d = b.X.shape[1]
        rtol = 1e-13 + (2 * d + 1) * (d + 1) * abs(k) * UNIT_ROUNDOFF
        values, ok = directional_sensitivities(p, 1.0, b, e)
        got_values, got_ok = directional_sensitivities(p, 1.0, b, scaled)
        np.testing.assert_array_equal(got_ok, ok)
        np.testing.assert_allclose(got_values, values, rtol=rtol, atol=0.0)
        for direction, scaled_direction in zip(e, scaled):
            c = first_order_coefficient(p, 1.0, b, direction)
            got = first_order_coefficient(p, 1.0, b, scaled_direction)
            assert abs(got - 2.0**k * c) <= rtol * 2.0**k * abs(c)


class TestSensitivityTail:
    def test_t_zero_is_one(self):
        assert sensitivity_tail(0.0, 2.0, 3, 2, 2) == 1.0

    def test_regular_closed_form(self):
        gamma, big_n = 0.8, 12
        for t in (0.3, 0.9, 1.3):
            got = sensitivity_tail(t, gamma, 2, 2, 2)
            s = (gamma * t) ** 2
            expected = (1 - s) ** (big_n - 1) if s < 1 else 0.0
            assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)

    def test_corank_one_closed_form(self):
        # for n - r = 1 the tail is exactly 1/(N s) once s >= 1
        gamma, big_n = 1.7, 27
        for t in (1.0 / gamma, 2.0 / gamma, 5.0 / gamma):
            s = (gamma * t) ** 2
            got = sensitivity_tail(t, gamma, 3, 2, 2)
            assert math.isclose(got, 1.0 / (big_n * s), rel_tol=1e-9)

    def test_model_sampling_oracle(self):
        # 1e5 Monte Carlo draws of the model variable against the tail model
        from sqeig.verify import model_sensitivity_samples

        gamma, big_n, n, m, r = 1.0, 27, 3, 2, 2
        draws = model_sensitivity_samples(big_n, n, r, 10**5, np.random.default_rng(6))
        stat = scipy.stats.kstest(
            draws, lambda t: 1.0 - np.array([sensitivity_tail(ti, gamma, n, m, r) for ti in np.atleast_1d(t)])
        ).statistic
        assert stat <= 0.01

    @pytest.mark.parametrize("big_n,n,r", [(27, 3, 2), (75, 5, 3)])
    def test_model_sampler_at_the_benchmark_instances(self, big_n, n, r):
        # the order-3 corank-1 and order-5 corank-2 quadratics of the
        # sensitivity_law workload, against the quadrature tail model
        from sqeig.verify import model_sensitivity_samples

        draws = model_sensitivity_samples(big_n, n, r, 2 * 10**4, np.random.default_rng(big_n))
        stat = scipy.stats.kstest(
            draws, lambda t: 1.0 - np.array([sensitivity_tail(ti, 1.0, n, 2, r) for ti in np.atleast_1d(t)])
        ).statistic
        assert stat <= 0.015

    def test_model_sampler_regular_case(self):
        # d = 0: sqrt(Z_N) alone, against the closed-form tail (1 - t**2)**(N-1)
        from sqeig.verify import model_sensitivity_samples

        draws = model_sensitivity_samples(27, 3, 3, 10**5, np.random.default_rng(9))
        assert np.all((0.0 <= draws) & (draws <= 1.0))
        stat = scipy.stats.kstest(
            draws, lambda t: 1.0 - np.array([sensitivity_tail(ti, 1.0, 3, 2, 3) for ti in np.atleast_1d(t)])
        ).statistic
        assert stat <= 0.01

    @pytest.mark.parametrize("b", [1, 2, 26, 74])
    def test_beta_one_marginal(self, b):
        # the numerators and denominators of the workload instances
        from sqeig.verify import _beta_one_samples

        draws = _beta_one_samples(b, 10**5, np.random.default_rng(b))
        assert np.all((0.0 <= draws) & (draws <= 1.0))
        assert scipy.stats.kstest(draws, scipy.stats.beta(1.0, b).cdf).statistic <= 0.01

    @pytest.mark.parametrize("b", [1, 2, 26, 74, 1e6])
    def test_beta_one_draws_lie_in_the_unit_interval(self, b):
        # the extreme uniforms rng.random can return, 0 and 1 - 2**-53
        from sqeig.verify import _beta_one_samples

        class Extremes:
            def random(self, size):
                return np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])[:size]

        draws = _beta_one_samples(b, 4, Extremes())
        assert draws[0] == 0.0 and not np.signbit(draws[0])
        assert np.all((0.0 <= draws) & (draws <= 1.0))
        assert np.all(np.diff(draws) > 0)


class TestWeakBounds:
    def test_upper_saturates(self):
        # delta >= (n-r)/N makes the max attain 1
        assert math.isclose(weak_condition_bounds(0.5, 2.0, 2, 2, 0).upper, 0.5)

    def test_upper_arithmetic(self):
        got = weak_condition_bounds(1.0 / 16.0, 3.0, 2, 2, 0).upper
        assert math.isclose(got, math.sqrt(8.0 / 3.0) / 3.0, rel_tol=1e-13)

    def test_upper_monotone_in_delta(self):
        vals = [weak_condition_bounds(d, 1.0, 3, 2, 2).upper for d in np.linspace(0.005, 0.9, 40)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_lower_equals_simple_at_corank_one(self):
        rec = weak_condition_bounds(0.01, 2.0, 3, 2, 2)
        assert math.isclose(rec.lower, rec.lower_simple, rel_tol=1e-13)

    def test_full_bound_dominates_simple(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(0, n))
            m = int(rng.integers(1, 4))
            validity = weak_condition_bounds(0.5, 1.0, n, m, r).validity
            rec = weak_condition_bounds(validity * rng.uniform(0.1, 1.0), 1.0, n, m, r)
            assert rec.lower >= rec.lower_simple - 1e-12
        # normal rank 0, the largest corank of an order-3 quadratic
        rec = weak_condition_bounds(0.01, 1.0, 3, 2, 0)
        assert rec.lower >= rec.lower_simple

    def test_lower_below_upper_in_validity_range(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(0, n))
            m = int(rng.integers(1, 4))
            validity = weak_condition_bounds(0.5, 1.3, n, m, r).validity
            rec = weak_condition_bounds(validity * rng.uniform(0.05, 1.0), 1.3, n, m, r)
            assert rec.lower <= rec.upper * (1 + 1e-12)

    def test_lower_domain_error(self):
        # outside its range of delta, or for a regular problem, the lower
        # bound does not apply and the record holds None
        out_of_range = weak_condition_bounds(0.5, 1.0, 3, 2, 2)
        assert out_of_range.lower is None and out_of_range.validity < 0.5
        for n, m in ((3, 2), (1, 1)):  # n = m = 1 is the smallest model, N = 2
            regular = weak_condition_bounds(0.01, 1.0, n, m, n)
            assert regular.lower is None and regular.validity == 0.0

    def test_bounds_record(self):
        rec = weak_condition_bounds(0.01, 1.5, 3, 2, 2)
        assert rec.big_n == 27
        assert rec.lower is not None and rec.lower <= rec.upper * (1 + 1e-12)
        # (N-1) d / ((N+d-2)(N+d-1)) is 1/N at corank one
        assert math.isclose(rec.validity, 1 / 27, rel_tol=1e-15)


BAD_INV_CONDS = [0.0, -1.0, math.nan, math.inf, -math.inf]


class TestBoundArguments:
    # the bounds need 0 < delta < 1 and 0 < inv_cond < inf and the tail
    # t >= 0; a NaN must fail the check rather than slip past it into a NaN
    # or zero result.  Each id names the field a caller asks for.
    @pytest.mark.parametrize("inv_cond", BAD_INV_CONDS)
    @pytest.mark.parametrize(
        "bound",
        [
            lambda g: weak_condition_bounds(0.01, g, 3, 2, 2).upper,
            lambda g: weak_condition_bounds(0.01, g, 3, 2, 2).lower,
            lambda g: weak_condition_bounds(0.01, g, 3, 2, 2).lower_simple,
            lambda g: weak_condition_bounds(0.01, g, 3, 2, 2),
            lambda g: sensitivity_tail(0.5, g, 3, 1, 2),
            lambda g: sensitivity_tail(0.0, g, 3, 1, 2),
        ],
        ids=["upper", "lower", "lower_simple", "bounds", "tail", "tail_at_zero"],
    )
    def test_bad_inv_cond_rejected(self, bound, inv_cond):
        with pytest.raises(ValueError, match="inv_cond must be positive and finite"):
            bound(inv_cond)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
    @pytest.mark.parametrize(
        "bound",
        [
            lambda d: weak_condition_bounds(d, 1.0, 3, 2, 2).upper,
            lambda d: weak_condition_bounds(d, 1.0, 3, 2, 2).lower_simple,
        ],
        ids=["upper", "lower_simple"],
    )
    def test_bad_delta_rejected(self, bound, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            bound(delta)

    @pytest.mark.parametrize("t", [-1.0, math.nan, -math.inf])
    def test_bad_tail_point_rejected(self, t):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            sensitivity_tail(t, 0.5, 3, 1, 2)

    def test_overflowing_bounds_rejected(self):
        # 1 / inv_cond overflows; a record of infinite bounds says nothing
        with pytest.raises(ValueError, match="overflow"):
            weak_condition_bounds(0.01, 1e-310, 3, 2, 2)

    # N = n**2 * (m + 1) with integers n >= 1, m >= 1 and 0 <= r <= n; these
    # ran into a ZeroDivisionError, a math domain error or a meaningless number
    @pytest.mark.parametrize(
        "bound",
        [
            lambda: weak_condition_bounds(0.01, 1.0, 0, 2, 0),
            lambda: weak_condition_bounds(0.01, 1.0, 3, -1, 0),
            lambda: weak_condition_bounds(0.01, 1.0, 3, 0, 2),
            lambda: weak_condition_bounds(0.01, 1.0, 3, 2, 5),
            lambda: weak_condition_bounds(0.01, 1.0, 3, 2, -1),
            lambda: weak_condition_bounds(0.01, 1.0, 2.5, 2, 1),
            lambda: weak_condition_bounds(0.01, 1.0, 3, 2, math.nan),
            lambda: weak_condition_bounds(0.01, 1.0, 3, 2, 1.5),
            lambda: weak_condition_bounds(0.01, 1.0, 3, 2, -1).upper,
            # N = 26 with n = 3 would need m = 17/9
            lambda: weak_condition_bounds(0.01, 1.0, 3, 17 / 9, 2).upper,
            lambda: weak_condition_bounds(0.01, 1.0, 3, 2, 5).lower,
            lambda: weak_condition_bounds(0.01, 1.0, 0, 2, 0).lower,
            lambda: weak_condition_bounds(0.01, 1.0, 3, 2, 5).validity,
            lambda: weak_condition_bounds(0.01, 1.0, 3, 0, 2).validity,
            lambda: sensitivity_tail(1.0, 0.5, 3, 2, 5),
            lambda: sensitivity_tail(1.0, 0.5, 0, 2, 0),
            lambda: sensitivity_tail(0.0, 0.5, math.nan, 2, 2),
            lambda: sensitivity_tail(1.0, 0.5, 3, math.inf, 2),
            lambda: weak_condition_bounds(0.5, 1.0, 0, 1, 0).lower_simple,
            lambda: weak_condition_bounds(0.5, 1.0, 1, 0, 0).lower_simple,
            lambda: weak_condition_bounds(0.5, 1.0, 3, math.nan, 2).lower_simple,
        ],
        ids=[
            "bounds-n0", "bounds-m-1", "bounds-m0", "bounds-r>n", "bounds-r<0",
            "bounds-n-fraction", "bounds-r-nan", "bounds-r-fraction",
            "upper-r<0", "upper-N-not-n2(m+1)", "lower-r>n", "lower-n0",
            "validity-r>n", "validity-m0", "tail-r>n", "tail-N0", "tail-N-nan",
            "tail-m-inf", "simple-N0", "simple-N1", "simple-N-nan",
        ],
    )
    def test_bad_model_dimensions_rejected(self, bound):
        with pytest.raises(ValueError, match=r"need integers n >= 1, m >= 1 and 0 <= r <= n"):
            bound()


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
        for params in ((1, 1, 1, 1, 2, 0.5), (1, 26, 1, 1, 2, math.nan)):
            with pytest.raises(ValueError, match="t >= 1"):
                beta_ratio_lower_tail_bound(*params)

    # written so that NaN fails; k = 0 returned 0.963 and a NaN returned NaN
    @pytest.mark.parametrize(
        "params",
        [
            (0, 1, 1, 1, 2),
            (1, -1, 1, 1, 2),
            (1, 1, 0, 1, 2),
            (1, 1, 1, -2, 2),
            (math.nan, 1, 1, 1, 2),
            (1, 26, 1, 1, 0),
            (1, 26, 1, 1, math.nan),
            (1, 26, 1, math.nan, 2),
        ],
        ids=["a", "b", "c", "d", "a-nan", "k0", "k-nan", "d-nan"],
    )
    def test_requires_positive_parameters(self, params):
        with pytest.raises(ValueError, match="beta parameters and k must be positive"):
            beta_ratio_lower_tail_bound(*params, 1.5)


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


class TestLimitWeights:
    def test_projected_derivative_rank_one(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=10)
        b = inst.bases(1.0)
        # the projected derivative D of the limit pencil G + zeta*D
        d = b.left.conj().T @ inst.polynomial().derivative_at(1.0) @ b.right
        anchor = b.y.conj() @ inst.polynomial().derivative_at(1.0) @ b.x
        expected = np.zeros_like(d)
        expected[-1, -1] = anchor
        assert np.linalg.norm(d - expected) <= 1e-10 * max(1.0, abs(anchor))

    def test_estimate_never_exceeds_unperturbed(self):
        inst = chain_quadratic([1.0, 0.5], 3, rng=12)
        poly = inst.polynomial()
        b = inst.bases(0.5)
        gamma = inverse_condition(poly, 0.5, b.x, b.y)
        _, gamma_bars, _ = limit_mixing_samples(poly, 0.5, b, 1000, np.random.default_rng(13))
        assert np.all(gamma_bars <= gamma * (1 + 1e-12))

    def test_regular_case_weights_are_one(self):
        p = _scalar_pencil()
        empty = np.zeros((1, 0))
        e = np.array([[[[0.3 + 0.1j]], [[0.2]]]])
        weights, ok = limit_weights(p, 1.0, KernelBases(empty, ONE, empty, ONE), e)
        # each factor of the weight is at most 1, so this pins both
        assert ok[0] and math.isclose(weights[0], 1.0, rel_tol=1e-13)
