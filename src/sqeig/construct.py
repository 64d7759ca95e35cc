"""Singular test problems with eigenvalues and kernel bases known by design.

Two quadratic recipes and one pencil recipe, each built from structured
rows and conjugated with random orthonormal factors drawn from a seed:

* ``chain_quadratic``: row i of the quadratic is
  ``(lam - lam_i) * (e_i + lam*e_{i+1})^T``, so the designed eigenvalues are
  the ``lam_i``, the normal rank is the number of rows used, and the right
  rational kernel mixes one degree-k column with constant directions.
* ``diagonal_quadratic``: diagonal entry i is ``(lam - lam_i)(lam - mu_i)``,
  leaving full control over the 2-norm of the middle coefficient.
* ``diagonal_pencil``: diagonal pencil entries ``lam - lam_i`` padded with
  zero rows.

Every recipe returns a ``SingularProblem`` holding its checked polynomial,
which builds, on request through ``bases(lam)``, orthonormal bases
``[X x]`` / ``[Y y]`` of the kernels at a designed eigenvalue, with the
leading blocks spanning the right/left singular spaces, transformed
consistently with the conjugation.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .matpoly import KernelBases, MatrixPolynomial, TruthSpec, seeded_generator

__all__ = [
    "KernelBases",
    "SingularProblem",
    "chain_quadratic",
    "diagonal",
    "diagonal_pencil",
    "diagonal_quadratic",
    "random_conjugation",
    "random_orthonormal",
]


def random_orthonormal(n, rng, uniform=False):
    """Random real orthonormal factor from QR of a random matrix.

    ``rng`` is a seed or a stream, as ``matpoly.seeded_generator`` takes it.
    """
    rng = seeded_generator(rng)
    raw = rng.random((n, n)) if uniform else rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * np.sign(np.diag(r))


def _orthonormalize_against(v, basis):
    v = v - basis @ (basis.conj().T @ v)
    nv = np.linalg.norm(v)
    if nv < 1e-10:
        raise ValueError("eigenvector direction collapsed onto the singular space")
    return v / nv


def random_conjugation(mats, rng, uniform=False):
    """Conjugate each matrix as ``U.T @ m @ V`` with random orthonormal U, V.

    U, then V, is drawn from ``rng`` by ``random_orthonormal``.  Returns
    ``(matrices, (U, V))``; kernel vectors of the unconjugated problem map
    to the conjugated one through V^T on the right and U^T on the left.
    """
    rng = seeded_generator(rng)
    n = mats[0].shape[0]
    u = random_orthonormal(n, rng, uniform)
    v = random_orthonormal(n, rng, uniform)
    return tuple(u.T @ m @ v for m in mats), (u, v)


@dataclass(frozen=True, eq=False)
class SingularProblem:
    """Singular quadratic or pencil with designed eigenvalues and normal rank.

    ``polynomial()`` returns the ``MatrixPolynomial`` its builder checked
    once.  ``eigenvalues`` pass through ``TruthSpec``, which requires them
    distinct, and are kept as its complex tuple.  ``conjugation`` is the
    ``(U, V)`` pair of ``random_conjugation``; ``index_bases(i)`` builds the
    unconjugated kernel bases at eigenvalue i.
    """

    _polynomial: MatrixPolynomial
    eigenvalues: tuple
    normal_rank: int
    conjugation: tuple
    index_bases: Callable[[int], KernelBases]

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", TruthSpec(self.eigenvalues).finite_eigenvalues)

    @property
    def n(self):
        return self._polynomial.n

    def polynomial(self):
        return self._polynomial

    def bases(self, lam0):
        """Orthonormal ``KernelBases`` at the designed eigenvalue ``lam0``."""
        i = int(np.argmin([abs(lam0 - ev) for ev in self.eigenvalues]))
        # scaled by the designed eigenvalue so that NaN and infinite lam0 fail
        if not abs(self.eigenvalues[i] - lam0) <= 1e-12 * max(1.0, abs(self.eigenvalues[i])):
            raise ValueError(f"{lam0} is not a designed eigenvalue of this instance")
        b = self.index_bases(i)
        u, v = self.conjugation
        return KernelBases(X=v.T @ b.X, x=v.T @ b.x, Y=u.T @ b.Y, y=u.T @ b.y)

    def scaled(self):
        """Rescaled quadratic with unit-norm leading and trailing coefficients.

        Returns ``(instance, gamma)``; eigenvalues divide by the scale
        factor ``gamma`` and kernels are unchanged.  A pencil raises the
        ValueError of ``scale_quadratic``.
        """
        balanced, gamma = self._polynomial.balancing
        eigenvalues = tuple(ev / gamma for ev in self.eigenvalues)
        return dataclasses.replace(self, _polynomial=balanced, eigenvalues=eigenvalues), gamma


def diagonal(values, n):
    """n-by-n complex matrix with ``values`` leading its diagonal, zero elsewhere."""
    d = np.zeros(n, dtype=complex)
    d[: len(values)] = values
    return np.diag(d)


def chain_coefficients(eigenvalues, n):
    """Raw (M, C, K) of the shift-chain recipe before any conjugation."""
    k = len(eigenvalues)
    if k + 1 > n:
        raise ValueError("need n >= number of eigenvalues + 1")
    m = np.zeros((n, n), dtype=complex)
    c = np.zeros((n, n), dtype=complex)
    kk = np.zeros((n, n), dtype=complex)
    for i, lam in enumerate(eigenvalues):
        m[i, i + 1] = 1.0
        c[i, i] = 1.0
        c[i, i + 1] = -lam
        kk[i, i] = -lam
    return m, c, kk


def _chain_bases(eigenvalues, n, i0):
    k = len(eigenvalues)
    lam0 = eigenvalues[i0]
    # right kernel: degree-k chain column evaluated at lam0 ...
    chain = np.zeros(n, dtype=complex)
    for j in range(k + 1):
        chain[j] = (-1.0) ** j * lam0 ** (k - j)
    chain /= np.linalg.norm(chain)
    consts = np.eye(n, dtype=complex)[:, k + 1 :]
    big_x = np.column_stack([chain, consts])
    # ... and the eigenvector from the chain truncated at the broken row, which
    # is parallel to the chain's head (rows <= i0): the shorter of head and tail
    # stays clear of the chain in rounding, so that one is orthonormalized,
    # keeping the phase of the truncation
    top = np.zeros(n, dtype=complex)
    for j in range(i0 + 1):
        top[j] = (-lam0) ** (i0 - j)
    tail = np.where(np.arange(n) > i0, chain, 0.0)
    if np.linalg.norm(chain[: i0 + 1]) <= np.linalg.norm(tail):
        x = _orthonormalize_against(top, big_x)
    else:
        x = _orthonormalize_against(tail / np.linalg.norm(tail), big_x)
        phase = np.vdot(x, top)
        x = x * (phase / abs(phase))
    # left kernel: zero rows are constant left null directions, e_{i0} joins at lam0
    big_y = np.eye(n, dtype=complex)[:, k:]
    y = np.zeros(n, dtype=complex)
    y[i0] = 1.0
    return KernelBases(X=big_x, x=x, Y=big_y, y=y)


def chain_quadratic(eigenvalues, n, rng):
    """Singular quadratic with the given simple eigenvalues (chain recipe).

    Normal rank equals ``len(eigenvalues)``; ``n`` must exceed it.  The
    coefficients are conjugated by random real orthonormal factors drawn
    from ``rng``.
    """
    eigenvalues = tuple(complex(ev) for ev in eigenvalues)
    (m, c, kk), conj = random_conjugation(chain_coefficients(eigenvalues, n), rng)
    return SingularProblem(
        MatrixPolynomial.quadratic(m, c, kk),
        eigenvalues=eigenvalues,
        normal_rank=len(eigenvalues),
        conjugation=conj,
        index_bases=lambda i: _chain_bases(eigenvalues, n, i),
    )


def _axis_bases(n, k, i0):
    free = np.eye(n, dtype=complex)[:, k:]
    e_i = np.zeros(n, dtype=complex)
    e_i[i0] = 1.0
    return KernelBases(X=free, x=e_i, Y=free, y=e_i)


def diagonal_quadratic(root_pairs, n, rng):
    """Singular quadratic with diagonal entries ``(lam - a_i)(lam - b_i)``.

    All roots must be distinct across pairs so every eigenvalue is simple.
    Useful when the middle coefficient's norm must stay small.
    """
    root_pairs = [(complex(a), complex(b)) for a, b in root_pairs]
    k = len(root_pairs)
    if k + 1 > n:
        raise ValueError("need n >= number of diagonal entries + 1")
    roots = [r for pair in root_pairs for r in pair]
    m = diagonal(np.ones(k), n)
    c = diagonal([-(a + b) for a, b in root_pairs], n)
    kk = diagonal([a * b for a, b in root_pairs], n)
    (m, c, kk), conj = random_conjugation((m, c, kk), rng)
    return SingularProblem(
        MatrixPolynomial.quadratic(m, c, kk),
        eigenvalues=tuple(roots),
        normal_rank=k,
        conjugation=conj,
        # eigenvalues 2i and 2i+1 are the roots of diagonal entry i
        index_bases=lambda j: _axis_bases(n, k, j // 2),
    )


def diagonal_pencil(eigenvalues, n, rng):
    """Singular pencil with diagonal regular part ``diag(lam - lam_i)``."""
    eigenvalues = tuple(complex(ev) for ev in eigenvalues)
    k = len(eigenvalues)
    if k + 1 > n:
        raise ValueError("need n >= number of eigenvalues + 1")
    # pencil value is A - lam*B, conjugated the same way as the quadratic
    (a, b), conj = random_conjugation((diagonal(eigenvalues, n), diagonal(np.ones(k), n)), rng)
    return SingularProblem(
        MatrixPolynomial.pencil(a, b),
        eigenvalues=eigenvalues,
        normal_rank=k,
        conjugation=conj,
        index_bases=lambda i: _axis_bases(n, k, i),
    )
