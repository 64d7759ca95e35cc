import numpy as np
import scipy.optimize

from sqeig.matpoly import MatrixPolynomial


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
