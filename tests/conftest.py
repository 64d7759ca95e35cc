import numpy as np
import scipy.optimize

from sqeig.condition import condition_numbers, power_sum
from sqeig.densela import column_norms, generalized_eig, residual_tolerance
from sqeig.linearize import first_companion, recover_vectors
from sqeig.matpoly import MatrixPolynomial, backward_errors
from sqeig.solver import SOURCES


def assert_multiset_close(got, expected, rtol=0.0, atol=0.0):
    """Match two eigenvalue multisets by optimal assignment and compare."""
    got = np.asarray(got, dtype=complex).ravel()
    expected = np.asarray(expected, dtype=complex).ravel()
    assert got.size == expected.size, f"sizes differ: {got.size} vs {expected.size}"
    if got.size == 0:
        return
    cost = np.abs(got[:, None] - expected[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    for i, j in zip(rows, cols):
        tol = atol + rtol * max(1.0, abs(expected[j]))
        assert cost[i, j] <= tol, (
            f"no match within {tol:.3e}: got {got[i]} vs expected {expected[j]}"
        )


def perturbed(p, e, epsilon):
    """``P + epsilon*E`` one coefficient at a time, as a checked polynomial.

    The per-block reference of ``first_companion(p, e, epsilon)``, which
    computes the same sums straight into the companion blocks.
    """
    return MatrixPolynomial(
        tuple(np.asarray(a + epsilon * d, dtype=complex) for a, d in zip(p.coeffs, e))
    )


def assert_same_bits(got, want):
    """Assert equal values with zeros of the same sign, real and imaginary parts alike."""
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


#: the lam of the bitwise Horner checks: zero, a negative real value, a
#: complex value and one of modulus above 1
HORNER_LAMS = (0.0, -0.75, 0.3 - 0.6j, 1.5 + 2.0j)


def signed_zero_polynomial(degree, real, seed=0):
    """A random order-3 polynomial of the given degree with exact zeros of both signs.

    ``real`` coefficients are passed as float arrays, so their stored
    imaginary parts are +0.
    """
    rng = np.random.default_rng(seed)
    coeffs = []
    for _ in range(degree + 1):
        c = rng.standard_normal((3, 3))
        if not real:
            c = c + 1j * rng.standard_normal((3, 3))
            c[2, 2] = complex(-0.0, -0.0)
        c[0, 0] = 0.0
        c[1, 1] = -0.0
        coeffs.append(c)
    return MatrixPolynomial(tuple(coeffs))


def unit_columns(n, k, seed):
    """An n-by-k complex stack of unit columns, its first row exactly zero."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    v[0] = 0.0
    return v / np.linalg.norm(v, axis=0)


# The Horner loops below are written out as the evaluators of matpoly and
# condition once were; matpoly.horner must reproduce each of them bit for bit.


def evaluate_reference(p, lam):
    """``P(lam)`` by a written-out Horner loop, the reference of ``p.evaluate``."""
    acc = np.array(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = acc * lam + c
    return acc


def derivative_reference(p, lam):
    """``P'(lam)`` by a written-out Horner loop, the reference of ``p.derivative_at``.

    The zero matrix ``0 * A_0`` for degree 0.
    """
    acc = p.degree * np.array(p.coeffs[-1])
    for i in reversed(range(1, p.degree)):
        acc = acc * lam + i * p.coeffs[i]
    return acc


def backward_errors_reference(p, lam, x, y):
    """``matpoly.backward_errors`` with ``P(lam) x`` and ``y* P(lam)`` by written-out loops."""
    lam = np.asarray(lam, dtype=complex)
    right = p.coeffs[-1] @ x
    left = p.coeffs[-1].conj().T @ y
    for c in reversed(p.coeffs[:-1]):
        right *= lam
        right += c @ x
        left *= lam.conj()
        left += c.conj().T @ y
    moduli = np.abs(lam)
    scale = sum(moduli**j * np.linalg.norm(c) for j, c in enumerate(p.coeffs))
    return np.maximum(column_norms(right), column_norms(left)) / scale


def condition_reference(coeffs, lam, x, y):
    """The condition numbers of ``condition_numbers`` with ``P'(lam) x`` by a written-out loop.

    ``coeffs`` is a coefficient stack whose ``coeffs[0]`` is read only at
    degree 0, times its factor 0; a factor j = 1 is not applied.
    """
    lam = np.asarray(lam, dtype=complex)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    degree = len(coeffs) - 1
    dx = coeffs[degree] @ x
    if degree != 1:
        dx *= degree
    for j in range(degree - 1, 0, -1):
        dx *= lam
        term = coeffs[j] @ x
        if j > 1:
            term *= j
        dx += term
    with np.errstate(divide="ignore"):
        kappa = np.sqrt(power_sum(lam, degree)) / np.abs((y.conj() * dx).sum(axis=0))
    return float(kappa) if kappa.ndim == 0 else kappa


def companion_projection_reference(p, cfg):
    """The projected solve as it was written when it projected the companion pair.

    The first companion pair ``(A, B)`` of the balanced polynomial, of
    normal rank k = m*n - (n - r), is compressed to ``(U* A V, U* B V)``
    with mn-by-k U and V of orthonormal columns drawn from
    ``default_rng(cfg.seed)``, U first; the eigenvectors are lifted as
    ``V v`` and ``U w`` and read back with blocks of height n, and the eta
    gate is ``residual_tolerance(k)``.  A pencil is its own companion form
    (k = r), so ``solve_polynomial`` must reproduce this bit for bit on a
    projected pencil with no common kernel, whose core is the pencil
    itself.  Needs k > 0.  Returns the ``SolveResult`` arrays as a tuple:
    values, kappa_bar, accepted, source_codes, right and left vectors.
    """
    balanced, gamma = (p, 1.0) if p.degree == 1 else p.balancing
    order = p.degree * p.n
    k = order - p.n + balanced.normal_rank
    rng = np.random.default_rng(cfg.seed)
    bases = []
    for _ in range(2):
        z = rng.standard_normal((2, order, k))
        bases.append(np.linalg.qr(z[0] + 1j * z[1])[0])
    u, v = bases
    uh = u.conj().T
    dec = generalized_eig(*(uh @ c @ v for c in first_companion(balanced)))
    lam = dec.finite_values
    right = v @ dec.right_vectors[:, : lam.size]
    left = u @ dec.left_vectors[:, : lam.size]
    first = int(np.count_nonzero(np.abs(lam) >= 1.0))
    x, y, ok = recover_vectors(right, left, first, p.n)
    codes = np.full(lam.size, SOURCES.index("pencil" if p.degree == 1 else "C1hat"), dtype=np.int8)
    if p.degree == 2:
        codes[:first] = SOURCES.index("C1")
    kappa = condition_numbers(balanced, lam, x, y)
    kappa[~ok] = np.inf
    accepted = kappa <= cfg.tol
    kept = np.flatnonzero(accepted)
    eta = backward_errors(balanced, lam[kept], x[:, kept], y[:, kept])
    accepted[kept] = eta <= residual_tolerance(k)
    return gamma * lam, kappa, accepted, codes, x, y


def deflated_projection_reference(p, cfg):
    """The projected solve of a pencil whose core is regular, written out with SVD bases.

    Orthonormal bases L and R of the column space of ``[A_0 A_1]`` and of
    the row space of ``[A_0; A_1]`` come from full SVDs (the directions
    above 1e-8 times the largest singular value); both must have r
    columns, r the normal rank, so that the core ``L* A_j R`` is the
    projected pencil and nothing is drawn.  Its eigenvectors are lifted as
    ``R x`` and ``L y``; kappa_bar and the eta gate ``residual_tolerance(r)``
    are read on the unprojected pencil.  L and R differ from the solver's
    bases by unitary factors, so ``solve_polynomial`` must give the same
    candidates up to rounding, with eigenvectors equal up to a phase.
    Returns the ``SolveResult`` arrays as a tuple: values, kappa_bar,
    accepted, source_codes, right and left vectors.
    """
    assert p.degree == 1
    r = p.normal_rank

    def complement(stack, left):
        u, s, vh = np.linalg.svd(stack)
        keep = s > 1e-8 * s[0]
        return u[:, keep] if left else vh[keep].conj().T

    big_l = complement(np.concatenate(p.coeffs, axis=1), left=True)
    big_r = complement(np.concatenate(p.coeffs, axis=0), left=False)
    assert big_l.shape[1] == big_r.shape[1] == r
    core = MatrixPolynomial(tuple(big_l.conj().T @ c @ big_r for c in p.coeffs))
    dec = generalized_eig(*first_companion(core))
    lam = dec.finite_values
    x = big_r @ dec.right_vectors[:, : lam.size]
    y = big_l @ dec.left_vectors[:, : lam.size]
    kappa = condition_numbers(p, lam, x, y)
    accepted = kappa <= cfg.tol
    kept = np.flatnonzero(accepted)
    eta = backward_errors(p, lam[kept], x[:, kept], y[:, kept])
    accepted[kept] = eta <= residual_tolerance(r)
    codes = np.full(lam.size, SOURCES.index("pencil"), dtype=np.int8)
    return lam, kappa, accepted, codes, x, y
