"""Companion linearizations of matrix polynomials.

Provides the first companion form of any degree (a pencil is its own), a
quadratic's alternate form (the first is reliable for eigenvalues of large
modulus, the alternate for small), eigenvector recovery, and orthonormal
bases of the linearization kernels built from kernel bases of the
quadratic.  The alternate form is the first form times the unimodular
[[I, C], [0, I]], so the solver solves the first form only and applies
either recovery to its eigenvectors; the study functions use both forms.
"""

from __future__ import annotations

import math
import weakref

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


def first_companion(p, e=None, epsilon=1.0):
    """First companion linearization of ``P + epsilon*E``, of degree m >= 1.

    For ``P(lam) = sum_j lam**j A_j`` the pencil ``A - lam*B`` of order mn
    has ``A_{m-1} ... A_0`` in the first block row of ``A`` and ``-I`` on
    its block subdiagonal, and ``B = -diag(A_m, I, ..., I)``; it is
    returned as the pair ``(A, B)``.  A quadratic gives
    ``lam*[[M, 0], [0, I]] + [[C, K], [-I, 0]]`` and a pencil ``A0 + lam*A1``
    its own ``(A0, -A1)``.  Degree 0 raises ValueError.

    ``e`` is a perturbation stack ``E_0 ... E_m`` of n-by-n matrices, or
    None for ``P`` itself.  A perturbed pair is a copy of the unperturbed
    one, built once per polynomial and kept while the polynomial lives,
    with the whole stack ``epsilon*E`` added into its blocks, so the pair
    equals, bit for bit, the first companion form of the polynomial whose
    coefficients are the sums ``A_j + epsilon*E_j``.  A stack of another
    length or coefficient shape is a ValueError.
    """
    m, n = p.degree, p.n
    if m < 1:
        raise ValueError(f"a companion form needs degree at least 1, got degree {m}")
    if e is None:
        return _companion_pair(p)
    # checked before the arithmetic, which would broadcast a scalar or a row
    if _stack_shape(e) != (m + 1, n, n):
        raise ValueError(
            f"perturbation stack must hold {m + 1} coefficients of shape {(n, n)}"
        )
    skeleton = _SKELETONS.get(p)
    if skeleton is None:
        skeleton = _SKELETONS[p] = _companion_pair(p)
        for x in skeleton:
            x.setflags(write=False)
    a, b = skeleton[0].copy(), skeleton[1].copy()
    t = np.multiply(e, epsilon)
    # the blocks A_{m-1} ... A_0 of the first block row of A, as
    # blocks[:, q] = A_{m-1-q}, each become A_j + epsilon*E_j
    blocks = a[:n].reshape(n, m, n)
    blocks += t[m - 1 :: -1].transpose(1, 0, 2)
    # the sum is negated after it is formed, as -(A_m + epsilon*E_m): the
    # skeleton's -A_m minus epsilon*E_m differs from it in the sign of a
    # zero sum.  It is formed apart, where both steps run over contiguous
    # arrays, and copied into its block
    lead = np.add(p.coeffs[m], t[m])
    b[:n, :n] = np.negative(lead, lead)
    return a, b


#: the unperturbed first companion pair of each polynomial that has been
#: perturbed, read-only, dropped with the polynomial.  Kept beside
#: _companion_pair: building the pair afresh cost 12 us (3%) per perturbed
#: trial, paired A/B over the built-ins on a 2-core x86-64 host
_SKELETONS = weakref.WeakKeyDictionary()


def _companion_pair(p):
    # the first companion pair of p, in new arrays
    m, n = p.degree, p.n
    a = np.zeros((m * n, m * n), dtype=complex)
    b = np.zeros((m * n, m * n), dtype=complex)
    for j, c in enumerate(p.coeffs[:m]):
        a[:n, (m - 1 - j) * n : (m - j) * n] = c
    np.negative(p.coeffs[m], out=b[:n, :n])
    minus_eye = -np.eye(n, dtype=complex)
    for i in range(1, m):
        a[i * n : (i + 1) * n, (i - 1) * n : i * n] = minus_eye
        b[i * n : (i + 1) * n, i * n : (i + 1) * n] = minus_eye
    return a, b


def _stack_shape(e):
    # the shape of the stack e as one array, None where its coefficients
    # differ in shape
    try:
        return np.shape(e)
    except ValueError:
        return None


def alternate_companion(q):
    """Alternate strong linearization ``lam*[[M, C], [0, I]] + [[0, K], [-I, 0]]``.

    Preferable to the first companion form for eigenvalues of small modulus.
    Takes the degree-2 ``q`` and returns the pair ``(A, B)`` of ``A - lam*B``.
    """
    if q.degree != 2:
        raise ValueError(f"the alternate form needs a quadratic, got degree {q.degree}")
    k, c, m = q.coeffs
    n = q.n
    a = np.zeros((2 * n, 2 * n), dtype=complex)
    b = np.zeros((2 * n, 2 * n), dtype=complex)
    minus_eye = -np.eye(n, dtype=complex)
    a[:n, n:] = k
    a[n:, :n] = minus_eye
    np.negative(m, out=b[:n, :n])
    np.negative(c, out=b[:n, n:])
    b[n:, n:] = minus_eye
    return a, b


def recover_vectors(v, w, first, n):
    """Polynomial eigenvectors from companion eigenvectors, read by either form.

    ``v`` and ``w`` are column stacks of right/left eigenvectors of a
    companion pencil with blocks of height ``n``, every column of unit
    2-norm, as ``densela.generalized_eig`` returns them (a lift by a matrix
    with orthonormal columns keeps them so).  The left eigenvector is the
    top n entries of each column of ``w``.  The right one is the top n
    entries of the first ``first`` columns of ``v``, as the first companion
    form holds it, and the bottom n entries of the others, as the
    alternate form holds it.  Each block is renormalized to unit norm.
    Returns ``(x, y, ok)``; ``ok`` is False where either block has a norm
    below 1e-8, so that the pair carries no eigenvector information.  With
    ``n`` the column height (a pencil), ``v``, ``w`` and an all-True
    ``ok`` come back unchanged.
    """
    k = v.shape[1]
    if n == v.shape[0]:
        return v, w, np.ones(k, dtype=bool)
    # the x and y blocks side by side, [x y], so that each column norm is
    # taken once
    blocks = np.concatenate((v[:n, :first], v[-n:, first:], w[:n]), axis=1)
    nb = column_norms(blocks)
    holds = nb >= 1e-8
    # with no zero block the division needs no mask, which saved a Monte
    # Carlo trial about 2 us in a paired A/B
    if np.count_nonzero(nb) == nb.size:
        blocks /= nb
    else:
        # a zero block stays zero
        np.divide(blocks, nb, out=blocks, where=nb > 0)
    return blocks[:, :k], blocks[:, k:], holds[:k] & holds[k:]


def _recover(v, w, right_on_top):
    # one form's reading of a single eigenvector pair or of column stacks
    v, w = np.asarray(v, dtype=complex), np.asarray(w, dtype=complex)
    if v.ndim == 1:
        x, y, ok = _recover(v[:, None], w[:, None], right_on_top)
        return x[:, 0], y[:, 0], ok[0]
    return recover_vectors(v, w, v.shape[1] if right_on_top else 0, len(v) // 2)


def recover_from_first(v, w):
    """Quadratic eigenvectors from first-companion eigenvectors.

    ``v`` and ``w`` are unit right/left eigenvectors of the order-2n
    pencil, or column stacks of them; the right and left quadratic
    eigenvectors are the leading n entries of each, renormalized to unit
    norm.  Returns ``(x, y, ok)``; ``ok`` is False where either block has a
    norm below 1e-8, so that the pair carries no eigenvector information.
    The all-first case of ``recover_vectors``, which states the unit-column
    precondition.
    """
    return _recover(v, w, right_on_top=True)


def recover_from_alternate(v, w):
    """Quadratic eigenvectors from alternate-companion eigenvectors.

    As ``recover_from_first``, except that the right eigenvector sits in
    the trailing n entries.  Eigenvectors of the first companion form give
    the same result, up to a unit phase.  ``v`` and ``w`` have unit
    columns, as for ``recover_vectors``, of which this is the
    all-alternate case.
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
