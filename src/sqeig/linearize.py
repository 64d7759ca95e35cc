"""Companion linearizations of quadratic matrix polynomials.

Provides the two strong linearizations used by the solver (one reliable for
eigenvalues of large modulus, one for small modulus), eigenvector recovery
from the linearization's eigenvectors, and structured orthonormal bases of
the linearization kernels built from kernel bases of the quadratic.
"""

from __future__ import annotations

import math

import numpy as np

from .densela import as_matrix

__all__ = [
    "KernelDegenerateError",
    "alternate_companion",
    "first_companion",
    "left_kernel_basis_alternate",
    "left_kernel_basis_first",
    "recover_from_alternate",
    "recover_from_first",
    "right_kernel_basis",
]


# never raised (the recover functions return an ``ok`` mask instead), but
# perfbench/tracing.py imports it
class RecoveryError(RuntimeError):
    """Recovered eigenvector block is numerically zero."""


class KernelDegenerateError(RuntimeError):
    """Left kernel construction degenerated (non-simple eigenvalue or bad bases)."""


def _check_quadratic_coeffs(m, c, k):
    m = as_matrix(m, "M")
    c = as_matrix(c, "C")
    k = as_matrix(k, "K")
    if not (m.shape == c.shape == k.shape) or m.shape[0] != m.shape[1]:
        raise ValueError("M, C, K must be square matrices of equal order")
    return m, c, k


def first_companion(m, c, k):
    """First companion linearization of ``lam**2 M + lam C + K``.

    The pencil is ``lam*[[M, 0], [0, I]] + [[C, K], [-I, 0]]`` of order 2n,
    returned as the pair ``(A, B)`` of ``A - lam*B``.
    """
    m, c, k = _check_quadratic_coeffs(m, c, k)
    n = m.shape[0]
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    a = np.block([[c, k], [-eye, zero]])
    b = np.block([[-m, zero], [zero, -eye]])
    return a, b


def alternate_companion(m, c, k):
    """Alternate strong linearization ``lam*[[M, C], [0, I]] + [[0, K], [-I, 0]]``.

    Preferable to the first companion form for eigenvalues of small modulus.
    Returned as the pair ``(A, B)`` of ``A - lam*B``.
    """
    m, c, k = _check_quadratic_coeffs(m, c, k)
    n = m.shape[0]
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    a = np.block([[zero, k], [-eye, zero]])
    b = np.block([[-m, -c], [zero, -eye]])
    return a, b


def _unit_block(block, full):
    # unit-norm columns, and whether each block holds at least 1e-8 of its
    # column's norm (a smaller block carries no direction information)
    nb = np.linalg.norm(block, axis=0)
    return block / np.where(nb > 0, nb, 1.0), nb >= 1e-8 * np.linalg.norm(full, axis=0)


def _recover(v, w, right_on_top):
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    n = v.shape[0] // 2
    x, x_ok = _unit_block(v[:n] if right_on_top else v[n:], v)
    y, y_ok = _unit_block(w[:n], w)
    return x, y, x_ok & y_ok


def recover_from_first(v, w):
    """Quadratic eigenvectors from first-companion eigenvectors.

    ``v`` and ``w`` are right/left eigenvectors of the order-2n pencil, or
    column stacks of them; the right and left quadratic eigenvectors are
    the leading n entries of each, renormalized to unit norm.  Returns
    ``(x, y, ok)``; ``ok`` is False where either block is numerically
    zero, so that the pair carries no eigenvector information.
    """
    return _recover(v, w, right_on_top=True)


def recover_from_alternate(v, w):
    """Quadratic eigenvectors from alternate-companion eigenvectors.

    As ``recover_from_first``, except that the right eigenvector sits in
    the trailing n entries.
    """
    return _recover(v, w, right_on_top=False)


def _check_orthonormal(cols, what):
    if cols.size == 0:
        return
    gram = cols.conj().T @ cols
    if np.linalg.norm(gram - np.eye(gram.shape[0])) > 1e-6:
        raise ValueError(f"{what} must have orthonormal columns")


def right_kernel_basis(big_x, x, lam):
    """Orthonormal kernel basis of a companion linearization at ``lam``.

    Given an orthonormal basis ``[big_x, x]`` of the quadratic's kernel at a
    simple eigenvalue (with ``big_x`` spanning the right singular space),
    returns ``[[lam*big_x, lam*x], [big_x, x]] / sqrt(1 + |lam|**2)``.  The
    same construction is a kernel basis for both companion forms.
    """
    big_x = as_matrix(big_x, "X") if np.size(big_x) else np.zeros((x.size, 0), dtype=complex)
    x = np.asarray(x, dtype=complex).reshape(-1)
    stack = np.column_stack([big_x, x])
    _check_orthonormal(stack, "[X x]")
    scale = 1.0 / math.sqrt(1.0 + abs(lam) ** 2)
    return scale * np.vstack([lam * stack, stack])


def _inv_sqrt_hermitian(g):
    # g = I + (positive semidefinite), so eigenvalues are >= 1 and the
    # inverse square root is well conditioned.
    vals, vecs = np.linalg.eigh(g)
    vals = np.maximum(vals, np.finfo(float).tiny)
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def _left_kernel_from_map(big_y, y, w_map):
    big_y = as_matrix(big_y, "Y") if np.size(big_y) else np.zeros((y.size, 0), dtype=complex)
    y = np.asarray(y, dtype=complex).reshape(-1)
    _check_orthonormal(np.column_stack([big_y, y]), "[Y y]")
    d = big_y.shape[1]
    yt = np.concatenate([y, w_map @ y])
    if d:
        tall = np.vstack([big_y, w_map @ big_y])
        s = _inv_sqrt_hermitian(tall.conj().T @ tall)
        y_l_block = tall @ s
        proj = yt - y_l_block @ (y_l_block.conj().T @ yt)
    else:
        y_l_block = np.zeros((yt.size, 0), dtype=complex)
        proj = yt
    beta = float(np.linalg.norm(proj))
    if beta < 1e-12:
        raise KernelDegenerateError("projected left eigenvector vanished; eigenvalue not simple?")
    return y_l_block, proj / beta, beta


def left_kernel_basis_first(big_y, y, lam, m, c):
    """Orthonormal left-kernel basis of the first companion form at ``lam``.

    Given an orthonormal basis ``[big_y, y]`` of the quadratic's left kernel,
    stacks each column v into ``[v, (lam*M + C)* v]``, orthonormalizes the
    singular-space block with an inverse matrix square root and the
    eigenvector column by projection.  Returns ``(Y_L, y_L, beta)`` where
    ``beta`` is the norm of the projected eigenvector column before
    normalization.
    """
    m = as_matrix(m, "M")
    c = as_matrix(c, "C")
    w_map = (lam * m + c).conj().T
    return _left_kernel_from_map(big_y, y, w_map)


def left_kernel_basis_alternate(big_y, y, lam, m):
    """Left-kernel basis of the alternate companion form at ``lam``.

    Same construction as for the first companion form with the map
    ``v -> [v, conj(lam) * M* v]``.
    """
    m = as_matrix(m, "M")
    w_map = np.conj(lam) * m.conj().T
    return _left_kernel_from_map(big_y, y, w_map)
