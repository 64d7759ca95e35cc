"""Companion linearizations of quadratic matrix polynomials.

Provides the two strong linearizations of the method (one reliable for
eigenvalues of large modulus, one for small modulus), eigenvector recovery
from the linearization's eigenvectors, and structured orthonormal bases of
the linearization kernels built from kernel bases of the quadratic.  The
alternate form is the first form times the unimodular [[I, C], [0, I]],
so the solver runs QZ on the first form only and applies either recovery
to its eigenvectors; the study functions use both forms.
"""

from __future__ import annotations

import math

import numpy as np

from .densela import column_norms

__all__ = [
    "KernelDegenerateError",
    "alternate_companion",
    "first_companion",
    "left_kernel_basis_alternate",
    "left_kernel_basis_first",
    "recover_from_alternate",
    "recover_from_first",
    "recover_vectors",
    "right_kernel_basis",
]


# never raised (the recover functions return an ``ok`` mask instead), but
# perfbench/tracing.py imports it
class RecoveryError(RuntimeError):
    """Recovered eigenvector block is numerically zero."""


class KernelDegenerateError(RuntimeError):
    """Left kernel construction degenerated (non-simple eigenvalue or bad bases)."""


def _companion_parts(q):
    # (K, C, M, I) of a degree-2 polynomial, the blocks of both forms
    if q.degree != 2:
        raise ValueError(f"companion forms need a quadratic, got degree {q.degree}")
    return (*q.coeffs, np.eye(q.n, dtype=complex))


def _block_pencil(n, blocks):
    # the order-2n matrix with the n-by-n blocks {(row, col): block}, zero
    # elsewhere; slice assignment is cheaper than np.block at small n and
    # copies the same entries, signed zeros included
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    for (i, j), block in blocks.items():
        out[i * n : (i + 1) * n, j * n : (j + 1) * n] = block
    return out


def first_companion(q):
    """First companion linearization of the quadratic ``lam**2 M + lam C + K``.

    ``q`` is a degree-2 ``MatrixPolynomial``.  The pencil is
    ``lam*[[M, 0], [0, I]] + [[C, K], [-I, 0]]`` of order 2n, returned as
    the pair ``(A, B)`` of ``A - lam*B``.
    """
    k, c, m, eye = _companion_parts(q)
    a = _block_pencil(q.n, {(0, 0): c, (0, 1): k, (1, 0): -eye})
    b = _block_pencil(q.n, {(0, 0): -m, (1, 1): -eye})
    return a, b


def alternate_companion(q):
    """Alternate strong linearization ``lam*[[M, C], [0, I]] + [[0, K], [-I, 0]]``.

    Preferable to the first companion form for eigenvalues of small modulus.
    Takes the degree-2 ``q`` and returns the pair ``(A, B)`` of ``A - lam*B``.
    """
    k, c, m, eye = _companion_parts(q)
    a = _block_pencil(q.n, {(0, 1): k, (1, 0): -eye})
    b = _block_pencil(q.n, {(0, 0): -m, (0, 1): -c, (1, 1): -eye})
    return a, b


def recover_vectors(v, w, first):
    """Quadratic eigenvectors from companion eigenvectors, read by either form.

    ``v`` and ``w`` are (2n, k) column stacks of right/left eigenvectors of
    an order-2n companion pencil.  The left quadratic eigenvector is the
    leading n entries of each column of ``w``.  The right one is the
    leading n entries of the first ``first`` columns of ``v``, as the first
    companion form holds it, and the trailing n entries of the others, as
    the alternate form holds it.  Each block is renormalized to unit norm.
    Returns ``(x, y, ok)``; ``ok`` is False where either block holds less
    than 1e-8 of its column's norm, so that the pair carries no
    eigenvector information.
    """
    n, k = v.shape[0] // 2, v.shape[1]
    # the x and y blocks side by side, [x y], so that each column norm is
    # taken once
    blocks = np.concatenate((v[:n, :first], v[n:, first:], w[:n]), axis=1)
    nb = column_norms(blocks)
    holds = nb >= 1e-8 * np.concatenate((column_norms(v), column_norms(w)))
    unit = blocks / np.where(nb > 0, nb, 1.0)
    return unit[:, :k], unit[:, k:], holds[:k] & holds[k:]


def _recover(v, w, right_on_top):
    # one form's reading of a single eigenvector pair or of column stacks
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if v.ndim == 1:
        x, y, ok = recover_vectors(v[:, None], w[:, None], int(right_on_top))
        return x[:, 0], y[:, 0], ok[0]
    return recover_vectors(v, w, v.shape[1] if right_on_top else 0)


def recover_from_first(v, w):
    """Quadratic eigenvectors from first-companion eigenvectors.

    ``v`` and ``w`` are right/left eigenvectors of the order-2n pencil, or
    column stacks of them; the right and left quadratic eigenvectors are
    the leading n entries of each, renormalized to unit norm.  Returns
    ``(x, y, ok)``; ``ok`` is False where either block is numerically
    zero, so that the pair carries no eigenvector information.  The
    all-first case of ``recover_vectors``.
    """
    return _recover(v, w, right_on_top=True)


def recover_from_alternate(v, w):
    """Quadratic eigenvectors from alternate-companion eigenvectors.

    As ``recover_from_first``, except that the right eigenvector sits in
    the trailing n entries.  Eigenvectors of the first companion form give
    the same result, up to a unit phase.  The all-alternate case of
    ``recover_vectors``.
    """
    return _recover(v, w, right_on_top=False)


def right_kernel_basis(lam, bases):
    """Orthonormal kernel basis of a companion linearization at ``lam``.

    Given the ``KernelBases`` of the quadratic at a simple eigenvalue, with
    right basis ``[X x]``, returns ``[[lam*X, lam*x], [X, x]] / sqrt(1 + |lam|**2)``.
    The same construction is a kernel basis for both companion forms.
    """
    stack = np.column_stack([bases.X, bases.x])
    scale = 1.0 / math.sqrt(1.0 + abs(lam) ** 2)
    return scale * np.vstack([lam * stack, stack])


def _left_kernel_from_map(bases, w_map):
    yt = np.concatenate([bases.y, w_map @ bases.y])
    # the top block Y is orthonormal, so tall has full column rank
    tall = np.vstack([bases.Y, w_map @ bases.Y])
    y_l_block = np.linalg.qr(tall)[0]
    proj = yt - y_l_block @ (y_l_block.conj().T @ yt)
    beta = float(np.linalg.norm(proj))
    if beta < 1e-12:
        raise KernelDegenerateError("projected left eigenvector vanished; eigenvalue not simple?")
    return y_l_block, proj / beta, beta


def left_kernel_basis_first(q, lam, bases):
    """Orthonormal left-kernel basis of the first companion form at ``lam``.

    ``q`` is the quadratic ``lam**2 M + lam C + K`` and ``bases`` its
    ``KernelBases`` at ``lam``.  Stacks each column v of ``[Y y]`` into
    ``[v, (lam*M + C)* v]``, orthonormalizes the singular-space block by a
    QR factorization and the eigenvector column by projection.
    Returns ``(Y_L, y_L, beta)`` where ``beta`` is the norm of the projected
    eigenvector column before normalization.
    """
    _, c, m = q.coeffs
    return _left_kernel_from_map(bases, (lam * m + c).conj().T)


def left_kernel_basis_alternate(q, lam, bases):
    """Left-kernel basis of the alternate companion form at ``lam``.

    Same construction as for the first companion form with the map
    ``v -> [v, conj(lam) * M* v]``.
    """
    m = q.coeffs[2]
    return _left_kernel_from_map(bases, np.conj(lam) * m.conj().T)
