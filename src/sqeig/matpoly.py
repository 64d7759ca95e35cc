"""Matrix-polynomial data model.

A matrix polynomial is stored as its coefficient stack ``A_0 ... A_m`` in
ascending powers.  The module provides evaluation, derivative, reversal,
the joint Frobenius norm of a coefficient stack, normalized random
perturbation sampling, probabilistic normal-rank estimation, the
two-norm scaling used to balance quadratic problems, and the known-truth
record of benchmark problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densela import as_matrix, rank_with_tol

__all__ = [
    "DegenerateProblemError",
    "MatrixPolynomial",
    "PerturbationSample",
    "ScalingInfo",
    "TruthSpec",
    "joint_norm",
    "normal_rank",
    "pad_to_square",
    "sample_perturbation",
    "scale_quadratic",
    "spectral_norm",
]


class DegenerateProblemError(ValueError):
    """Raised when an input violates a structural assumption (e.g. M = 0)."""


@dataclass(frozen=True)
class TruthSpec:
    """Known finite eigenvalues of a benchmark problem.

    ``match_tol`` is the relative matching tolerance used to decide whether
    an accepted eigenvalue hits a true one; the default matches the
    accuracy scale of default solver parameters (epsilon * tol).
    """

    finite_eigenvalues: tuple
    match_tol: float = 1e-4

    def __post_init__(self):
        evs = tuple(complex(v) for v in self.finite_eigenvalues)
        if len({(v.real, v.imag) for v in evs}) != len(evs):
            raise ValueError("truth eigenvalues must be distinct")
        object.__setattr__(self, "finite_eigenvalues", evs)

    def with_match_tol(self, match_tol):
        return TruthSpec(self.finite_eigenvalues, match_tol)


def pad_to_square(m):
    """Zero-pad a rectangular matrix to square order max(rows, cols)."""
    m = as_matrix(m)
    rows, cols = m.shape
    n = max(rows, cols)
    if rows == cols:
        return m
    out = np.zeros((n, n), dtype=complex)
    out[:rows, :cols] = m
    return out


def _freeze(a):
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MatrixPolynomial:
    """Square matrix polynomial ``P(lam) = sum_i lam**i * coeffs[i]``.

    Rectangular coefficient input is zero-padded to square before storage.
    Coefficient arrays are read-only after construction.
    """

    coeffs: tuple

    def __post_init__(self):
        raw = [as_matrix(c, f"coefficient {i}") for i, c in enumerate(self.coeffs)]
        if not raw:
            raise ValueError("a matrix polynomial needs at least one coefficient")
        shape = raw[0].shape
        if any(c.shape != shape for c in raw):
            raise ValueError("all coefficients must have the same shape")
        object.__setattr__(self, "coeffs", tuple(_freeze(pad_to_square(c)) for c in raw))

    @classmethod
    def quadratic(cls, m, c, k):
        """Build ``lam**2 M + lam C + K`` from its three coefficients."""
        return cls((k, c, m))

    @classmethod
    def pencil(cls, a, b):
        """Build the linear polynomial ``A - lam B``."""
        return cls((a, -as_matrix(b, "B")))

    @property
    def n(self):
        return self.coeffs[0].shape[0]

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def evaluate(self, lam):
        """Value ``P(lam)`` by Horner's rule."""
        acc = np.array(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * lam + c
        return acc

    def derivative_at(self, lam):
        """Value ``P'(lam)``; the zero matrix for degree-0 polynomials."""
        if self.degree == 0:
            return np.zeros((self.n, self.n), dtype=complex)
        acc = self.degree * np.array(self.coeffs[-1])
        for i in reversed(range(1, self.degree)):
            acc = acc * lam + i * self.coeffs[i]
        return acc

    def reversed(self):
        """Polynomial with the coefficient order reversed.

        Satisfies ``reversed(P)(lam) == lam**m * P(1/lam)`` for ``lam != 0``
        and is an involution.
        """
        return MatrixPolynomial(self.coeffs[::-1])

    def perturbed(self, sample, epsilon):
        """``P + epsilon * E`` for a coefficient stack of matching shape."""
        coeffs = sample.coeffs if isinstance(sample, PerturbationSample) else tuple(sample)
        if len(coeffs) != len(self.coeffs):
            raise ValueError("perturbation stack must match the polynomial degree")
        return MatrixPolynomial(tuple(a + epsilon * e for a, e in zip(self.coeffs, coeffs)))


def joint_norm(coeffs):
    """Frobenius norm of the stacked coefficients ``[E_0 E_1 ... E_m]``."""
    return math.sqrt(sum(float(np.linalg.norm(c, "fro")) ** 2 for c in coeffs))


@dataclass(frozen=True)
class PerturbationSample:
    """Random coefficient stack drawn uniformly from the unit sphere.

    The stack as a whole has unit joint norm, i.e. it is uniform on the
    unit sphere of real dimension 2*n**2*(m+1).
    """

    coeffs: tuple

    def __post_init__(self):
        if abs(joint_norm(self.coeffs) - 1.0) > 64 * np.finfo(float).eps:
            raise ValueError("perturbation sample must have unit joint norm")

    @property
    def joint_norm(self):
        return joint_norm(self.coeffs)


def sample_perturbation(n, m, rng):
    """Draw a random perturbation stack of m+1 complex n-by-n coefficients.

    Every real and imaginary entry is an independent standard normal; the
    stack is then divided once by its joint norm (and once more to absorb
    rounding), making the vectorized stack exactly uniform on the unit
    sphere.
    """
    rng = np.random.default_rng(rng)
    raw = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for _ in range(m + 1)
    ]
    for _ in range(2):
        s = joint_norm(raw)
        raw = [c / s for c in raw]
    return PerturbationSample(tuple(_freeze(c) for c in raw))


def normal_rank(p, rng=None, samples=3, rank_tol=1e-10):
    """Estimate the normal rank of ``p`` (the maximal rank over all lam).

    The rank is evaluated at ``samples`` points drawn uniformly on the unit
    circle, which avoids the finitely many rank-dropping points almost
    surely; the maximum observed rank is returned.
    """
    rng = np.random.default_rng(rng)
    best = 0
    for _ in range(samples):
        mu = np.exp(2j * np.pi * rng.random())
        best = max(best, rank_with_tol(p.evaluate(mu), rank_tol))
    return best


def spectral_norm(m):
    """Matrix 2-norm (largest singular value)."""
    return float(np.linalg.norm(as_matrix(m), 2))


@dataclass(frozen=True)
class ScalingInfo:
    """Balancing factors for a quadratic problem.

    ``gamma`` rescales eigenvalues (original = gamma * scaled) and ``omega``
    rescales coefficients so that the scaled leading and trailing
    coefficients both have unit 2-norm.
    """

    gamma: float
    omega: float


def scale_quadratic(m, c, k):
    """Balance a quadratic so the scaled M and K have unit 2-norm.

    Returns ``(M_s, C_s, K_s, info)`` with ``M_s = omega*gamma**2*M``,
    ``C_s = omega*gamma*C`` and ``K_s = omega*K`` where
    ``gamma = sqrt(norm2(K)/norm2(M))`` and ``omega = 1/norm2(K)``.
    Eigenvalues of the original problem are ``gamma`` times those of the
    scaled one.
    """
    m = as_matrix(m, "M")
    c = as_matrix(c, "C")
    k = as_matrix(k, "K")
    nm = spectral_norm(m)
    nk = spectral_norm(k)
    if nm == 0.0 or nk == 0.0:
        raise DegenerateProblemError("scaling requires nonzero leading and trailing coefficients")
    gamma = math.sqrt(nk / nm)
    omega = 1.0 / nk
    return omega * gamma**2 * m, omega * gamma * c, omega * k, ScalingInfo(gamma, omega)
