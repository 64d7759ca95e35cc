"""Dense complex linear-algebra substrate.

SVD with tolerance-based rank and nullspace decisions, plus a QZ-backed
generalized eigensolver that reports eigenvalues as homogeneous
(alpha, beta) pairs together with unit-norm right and left eigenvectors.
All functions are pure; returned arrays are never mutated afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "DEFAULT_INF_CUTOFF",
    "EigensolverError",
    "GeneralizedEigenDecomposition",
    "Svd",
    "UNIT_ROUNDOFF",
    "as_matrix",
    "generalized_eig",
    "nullspace_basis",
    "rank_with_tol",
    "residual_tolerance",
    "svd",
]

#: unit roundoff of IEEE double precision (half the machine epsilon)
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0

#: relative |beta| threshold below which a generalized eigenvalue is flagged
#: infinite; scale-invariant and far below any sensible perturbation level
DEFAULT_INF_CUTOFF = 1e-12


class EigensolverError(RuntimeError):
    """A dense decomposition failed to converge or produced indeterminate output."""


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def residual_tolerance(order):
    """Default relative residual tolerance for a backward-stable dense solve."""
    return 1e4 * UNIT_ROUNDOFF * order


@dataclass(frozen=True)
class Svd:
    """Full singular value decomposition ``M = U @ diag(s) @ V*``.

    ``left_vectors`` is square unitary (rows x rows), ``right_vectors`` is
    square unitary (cols x cols) with right singular vectors as columns, and
    ``singular_values`` holds the min(rows, cols) values in nonincreasing
    order.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self):
        rows = self.left_vectors.shape[0]
        cols = self.right_vectors.shape[0]
        sigma = np.zeros((rows, cols))
        k = self.singular_values.size
        sigma[:k, :k] = np.diag(self.singular_values)
        return self.left_vectors @ sigma @ self.right_vectors.conj().T


def svd(m):
    """Full SVD of a complex matrix."""
    m = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"SVD did not converge for input of shape {m.shape}"
        ) from exc
    return Svd(u, s, vh.conj().T)


def _rank_from_singular_values(s, rel_tol):
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def rank_with_tol(m, rel_tol):
    """Number of singular values above ``rel_tol`` times the largest one.

    The zero matrix has rank 0 for any tolerance.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    return _rank_from_singular_values(svd(m).singular_values, rel_tol)


def nullspace_basis(m, rel_tol):
    """Orthonormal basis of the numerical nullspace of ``m``.

    Returns the right singular vectors whose singular values are at most
    ``rel_tol`` times the largest one, as columns of a (cols, nullity) array.
    Full-rank input yields a (cols, 0) array.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    dec = svd(m)
    r = _rank_from_singular_values(dec.singular_values, rel_tol)
    return dec.right_vectors[:, r:]


def _fix_phases(vectors):
    # Make the entry of largest modulus in each column real positive so that
    # eigenvector output is deterministic up to the solver itself.  Columns
    # have unit norm, so that entry is nonzero.
    a = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * (np.conj(a) / np.abs(a))


@dataclass(frozen=True)
class GeneralizedEigenDecomposition:
    """Eigenvalues of a regular pencil ``A - lam*B`` as (alpha, beta) pairs.

    Column j of ``right_vectors`` satisfies
    ``beta[j] * A @ x = alpha[j] * B @ x`` and column j of ``left_vectors``
    satisfies ``beta[j] * y* A = alpha[j] * y* B``.  All vectors have unit
    2-norm.  ``left_vectors`` is None when left eigenvectors were not
    requested.
    """

    alphas: np.ndarray
    betas: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray | None

    @property
    def order(self):
        return self.alphas.size

    def finite_mask(self, cutoff=DEFAULT_INF_CUTOFF):
        return np.abs(self.betas) > cutoff * (np.abs(self.alphas) + np.abs(self.betas))

    def eigenvalues(self, cutoff=DEFAULT_INF_CUTOFF):
        """Eigenvalues with infinite ones reported as complex infinity."""
        finite = self.finite_mask(cutoff)
        lam = np.full(self.order, np.inf + 0j, dtype=complex)
        lam[finite] = self.alphas[finite] / self.betas[finite]
        return lam


def generalized_eig(a, b, want_left=True):
    """Solve the generalized eigenproblem of the pencil ``a - lam*b``.

    The pencil must be regular.  Finite eigenvalues are ordered by modulus
    (descending), ties broken by phase; infinite eigenvalues (relative
    ``|beta|`` at most ``DEFAULT_INF_CUTOFF``) come last.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"pencil matrices must be square and of equal order, got {a.shape} and {b.shape}")
    try:
        out = scipy.linalg.eig(a, b, left=want_left, right=True, homogeneous_eigvals=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise EigensolverError(f"QZ iteration failed for pencil of order {a.shape[0]}") from exc
    if want_left:
        w, vl, vr = out
    else:
        w, vr = out
        vl = None
    alphas, betas = w[0], w[1]
    if not (np.all(np.isfinite(alphas)) and np.all(np.isfinite(betas))):
        raise EigensolverError("eigensolver returned non-finite (alpha, beta) pairs")
    if np.any((np.abs(alphas) + np.abs(betas)) == 0.0):
        raise EigensolverError("indeterminate eigenvalue (alpha = beta = 0); pencil is singular")

    finite = np.abs(betas) > DEFAULT_INF_CUTOFF * (np.abs(alphas) + np.abs(betas))
    lam = np.zeros_like(alphas)
    lam[finite] = alphas[finite] / betas[finite]
    key_mod = np.where(finite, -np.abs(lam), 0.0)
    key_ang = np.where(finite, np.angle(lam), 0.0)
    # lexsort orders by the last key first: finite block, then |lam| desc, then phase
    order = np.lexsort((key_ang, key_mod, np.where(finite, 0, 1)))

    vr = _fix_phases(vr / np.linalg.norm(vr, axis=0, keepdims=True))[:, order]
    if vl is not None:
        vl = _fix_phases(vl / np.linalg.norm(vl, axis=0, keepdims=True))[:, order]
    return GeneralizedEigenDecomposition(
        alphas=alphas[order], betas=betas[order], right_vectors=vr, left_vectors=vl
    )
