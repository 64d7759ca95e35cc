"""Singular test problems with eigenvalues and kernel bases known by design.

Two quadratic recipes and one pencil recipe, each built from structured
rows and optionally conjugated with random orthonormal factors:

* ``chain_quadratic``: row i of the quadratic is
  ``(lam - lam_i) * (e_i + lam*e_{i+1})^T``, so the designed eigenvalues are
  the ``lam_i``, the normal rank is the number of rows used, and the right
  rational kernel mixes one degree-k column with constant directions.
* ``diagonal_quadratic``: diagonal entry i is ``(lam - lam_i)(lam - mu_i)``,
  leaving full control over the 2-norm of the middle coefficient.
* ``diagonal_pencil``: diagonal pencil entries ``lam - lam_i`` padded with
  zero rows.

Every instance records orthonormal bases ``[X x]`` / ``[Y y]`` of the
kernels at each designed eigenvalue, with the leading blocks spanning the
right/left singular spaces, transformed consistently with the conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matpoly import MatrixPolynomial, scale_quadratic

__all__ = [
    "KernelBases",
    "SingularPencil",
    "SingularQuadratic",
    "chain_quadratic",
    "diagonal_pencil",
    "diagonal_quadratic",
    "random_conjugation",
    "random_orthonormal",
]


def random_orthonormal(n, rng, uniform=False):
    """Random real orthonormal factor from QR of a random matrix."""
    rng = np.random.default_rng(rng)
    raw = rng.random((n, n)) if uniform else rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class KernelBases:
    """Orthonormal kernel bases at a simple eigenvalue.

    ``[X x]`` spans the right kernel with ``X`` spanning the right singular
    space; ``[Y y]`` likewise on the left.
    """

    X: np.ndarray
    x: np.ndarray
    Y: np.ndarray
    y: np.ndarray


def _orthonormalize_against(v, basis):
    if basis.size:
        v = v - basis @ (basis.conj().T @ v)
    nv = np.linalg.norm(v)
    if nv < 1e-10:
        raise ValueError("eigenvector direction collapsed onto the singular space")
    return v / nv


def random_conjugation(mats, rng, uniform=False, bases=()):
    """Conjugate each matrix as ``U.T @ m @ V`` with random orthonormal U, V.

    U, then V, is drawn from ``rng`` by ``random_orthonormal``.  Kernel
    ``bases`` of the unconjugated problem are mapped to the conjugated one:
    right vectors through V^T, left vectors through U^T.  Returns the
    tuples ``(matrices, bases)``.
    """
    rng = np.random.default_rng(rng)
    n = mats[0].shape[0]
    u = random_orthonormal(n, rng, uniform)
    v = random_orthonormal(n, rng, uniform)
    mats = tuple(u.T @ m @ v for m in mats)
    bases = tuple(KernelBases(X=v.T @ b.X, x=v.T @ b.x, Y=u.T @ b.Y, y=u.T @ b.y) for b in bases)
    return mats, bases


class _DesignedSpectrum:
    """Kernel-basis lookup of an instance with ``eigenvalues`` and ``kernel_bases``."""

    def bases(self, lam0):
        i = int(np.argmin([abs(lam0 - ev) for ev in self.eigenvalues]))
        if abs(self.eigenvalues[i] - lam0) > 1e-12 * max(1.0, abs(lam0)):
            raise ValueError(f"{lam0} is not a designed eigenvalue of this instance")
        return self.kernel_bases[i]


@dataclass(frozen=True)
class SingularQuadratic(_DesignedSpectrum):
    """Constructed singular quadratic with known spectral structure."""

    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    eigenvalues: tuple
    normal_rank: int
    kernel_bases: tuple

    @property
    def n(self):
        return self.M.shape[0]

    def polynomial(self):
        return MatrixPolynomial.quadratic(self.M, self.C, self.K)

    def scaled(self):
        """Rescaled instance with unit-norm leading and trailing coefficients.

        Eigenvalues divide by the scale factor; kernels are unchanged.
        """
        ms, cs, ks, info = scale_quadratic(self.M, self.C, self.K)
        return (
            SingularQuadratic(
                M=ms,
                C=cs,
                K=ks,
                eigenvalues=tuple(ev / info.gamma for ev in self.eigenvalues),
                normal_rank=self.normal_rank,
                kernel_bases=self.kernel_bases,
            ),
            info,
        )


@dataclass(frozen=True)
class SingularPencil(_DesignedSpectrum):
    """Constructed singular pencil ``A - lam*B`` with known structure."""

    A: np.ndarray
    B: np.ndarray
    eigenvalues: tuple
    normal_rank: int
    kernel_bases: tuple

    @property
    def n(self):
        return self.A.shape[0]

    def polynomial(self):
        return MatrixPolynomial.pencil(self.A, self.B)


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
    big_x = np.column_stack([chain, consts]) if consts.size else chain.reshape(-1, 1)
    # ... and the eigenvector from the chain truncated at the broken row
    top = np.zeros(n, dtype=complex)
    for j in range(i0 + 1):
        top[j] = (-lam0) ** (i0 - j)
    x = _orthonormalize_against(top, big_x)
    # left kernel: zero rows are constant left null directions, e_{i0} joins at lam0
    big_y = np.eye(n, dtype=complex)[:, k:]
    y = np.zeros(n, dtype=complex)
    y[i0] = 1.0
    return KernelBases(X=big_x, x=x, Y=big_y, y=y)


def chain_quadratic(eigenvalues, n, rng=None, rotate=True):
    """Singular quadratic with the given simple eigenvalues (chain recipe).

    Normal rank equals ``len(eigenvalues)``; ``n`` must exceed it.  With
    ``rotate`` the coefficients are conjugated by random real orthonormal
    factors drawn from ``rng``.
    """
    eigenvalues = tuple(complex(ev) for ev in eigenvalues)
    if len(set(eigenvalues)) != len(eigenvalues):
        raise ValueError("designed eigenvalues must be distinct")
    m, c, kk = chain_coefficients(eigenvalues, n)
    bases = tuple(_chain_bases(eigenvalues, n, i) for i in range(len(eigenvalues)))
    if rotate:
        (m, c, kk), bases = random_conjugation((m, c, kk), rng, bases=bases)
    return SingularQuadratic(
        M=m,
        C=c,
        K=kk,
        eigenvalues=eigenvalues,
        normal_rank=len(eigenvalues),
        kernel_bases=bases,
    )


def _axis_bases(n, k, i0):
    free = np.eye(n, dtype=complex)[:, k:]
    e_i = np.zeros(n, dtype=complex)
    e_i[i0] = 1.0
    return KernelBases(X=free, x=e_i, Y=free, y=e_i)


def diagonal_quadratic(root_pairs, n, rng=None, rotate=True):
    """Singular quadratic with diagonal entries ``(lam - a_i)(lam - b_i)``.

    All roots must be distinct across pairs so every eigenvalue is simple.
    Useful when the middle coefficient's norm must stay small.
    """
    root_pairs = [(complex(a), complex(b)) for a, b in root_pairs]
    k = len(root_pairs)
    if k + 1 > n:
        raise ValueError("need n >= number of diagonal entries + 1")
    roots = [r for pair in root_pairs for r in pair]
    if len(set(roots)) != len(roots):
        raise ValueError("roots must be distinct for simple eigenvalues")
    m = np.zeros((n, n), dtype=complex)
    c = np.zeros((n, n), dtype=complex)
    kk = np.zeros((n, n), dtype=complex)
    eigenvalues = []
    bases = []
    for i, (a, b) in enumerate(root_pairs):
        m[i, i] = 1.0
        c[i, i] = -(a + b)
        kk[i, i] = a * b
        for root in (a, b):
            eigenvalues.append(root)
            bases.append(_axis_bases(n, k, i))
    if rotate:
        (m, c, kk), bases = random_conjugation((m, c, kk), rng, bases=bases)
    return SingularQuadratic(
        M=m,
        C=c,
        K=kk,
        eigenvalues=tuple(eigenvalues),
        normal_rank=k,
        kernel_bases=tuple(bases),
    )


def diagonal_pencil(eigenvalues, n, rng=None, rotate=True):
    """Singular pencil with diagonal regular part ``diag(lam - lam_i)``."""
    eigenvalues = tuple(complex(ev) for ev in eigenvalues)
    k = len(eigenvalues)
    if k + 1 > n:
        raise ValueError("need n >= number of eigenvalues + 1")
    if len(set(eigenvalues)) != k:
        raise ValueError("designed eigenvalues must be distinct")
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    for i, lam in enumerate(eigenvalues):
        a[i, i] = lam
        b[i, i] = 1.0
    bases = tuple(_axis_bases(n, k, i) for i in range(k))
    if rotate:
        # pencil value is A - lam*B, conjugated the same way as the quadratic
        (a, b), bases = random_conjugation((a, b), rng, bases=bases)
    return SingularPencil(
        A=a, B=b, eigenvalues=eigenvalues, normal_rank=k, kernel_bases=bases
    )
