"""Dense complex linear-algebra substrate.

Singular values with tolerance-based rank and nullspace decisions, the
complement of a common kernel by pivoted QR, plus a generalized
eigensolver that reports eigenvalues as homogeneous (alpha, beta) pairs
together with unit-norm right and left eigenvectors.
It calls LAPACK directly, by pencil order k and by the conditioning of B:

- below ``ZGGEV3_FROM_ORDER`` (33), QZ by scipy's f2py ``zggev`` with its
  workspace size cached per order, which is the size ``scipy.linalg.eig``
  queries, so the eigenvalues carry the same bits at a fraction of the
  wrapper cost;
- from that order on, B is LU-factored (``zgetrf``) and its 1-norm
  reciprocal condition number estimated (``zgecon``).  Where
  ``u / rcond(B) <= residual_tolerance(k)`` the pencil is solved as the
  standard problem ``B^{-1} A`` by ``zgeev``, 2-3 times cheaper than QZ:
  its eigenvalues are the pencil's, with beta = 1, its right vectors are
  the pencil's and its left vectors w give the pencil's as ``B^{-*} w``.
  The solve through B adds at most about u / rcond(B) to the backward
  error, so the floor keeps it within the budget of a backward stable
  solve.  The projected solver route, whose B is well conditioned, runs
  here;
- otherwise (a singular or ill-conditioned B, as on the paper's
  perturbation route for a singular problem, where cond(B) ~ 1/epsilon),
  QZ by ``zggev3`` through ctypes, with its own workspace query cached per
  order.  It reduces to Hessenberg-triangular form by blocks
  (``zgghd3``) and, from order 75, iterates with the multishift QZ with
  aggressive early deflation (``zlaqz0``; Kagstrom and Kressner, SIMAX
  2006), about twice as fast as ``zggev`` from order 200.  QZ stays
  backward stable on nearly singular pencils.  scipy does not wrap
  ``zggev3``, so the routine is looked up once at import in the LAPACK
  that scipy's own ``_flapack`` extension links; where no such symbol
  resolves, QZ runs ``zggev`` at every order.

All functions are pure; returned arrays are never mutated afterwards.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import _flapack
from scipy.linalg.lapack import get_lapack_funcs

__all__ = [
    "DEFAULT_INF_CUTOFF",
    "EigensolverError",
    "GeneralizedEigenDecomposition",
    "KERNEL_TOL",
    "RANK_TOL",
    "UNIT_ROUNDOFF",
    "ZGGEV3_FROM_ORDER",
    "as_matrix",
    "column_norms",
    "generalized_eig",
    "kernel_complement",
    "nullspace_basis",
    "qz_routine",
    "rank_with_tol",
    "residual_tolerance",
    "singular_values",
]

#: unit roundoff of IEEE double precision (half the machine epsilon)
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0

#: relative |beta| threshold below which a generalized eigenvalue is flagged
#: infinite; scale-invariant and far below any sensible perturbation level
DEFAULT_INF_CUTOFF = 1e-12

#: relative singular-value cutoff of every numerical rank decision
RANK_TOL = 1e-10

#: relative cutoff of ``kernel_complement``: a pivoted-QR diagonal entry at
#: most this times the first marks a common kernel direction.  Rounding
#: level, far below ``RANK_TOL``: on the size-ladder problems (workload
#: seeds 1-3, 11, 12 and 21-23) the kept entries sit at 0.3 and above, the
#: dropped ones at 1.2e-15 and below.
KERNEL_TOL = 1e-12


#: LAPACK's complex QZ routine; copies its inputs (overwrite_a/b default to 0)
_zggev = get_lapack_funcs("ggev", dtype=complex)

#: the standard route's LU factorization, condition estimate, LU solve,
#: eigensolver and eigensolver workspace query; each copies its inputs
#: unless told to overwrite them
_zgetrf, _zgecon, _zgetrs, _zgeev, _zgeev_lwork_query = get_lapack_funcs(
    ("getrf", "gecon", "getrs", "geev", "geev_lwork"), dtype=complex
)

#: the column-pivoted QR of ``kernel_complement`` and the Q it forms
_zgeqp3, _zungqr = get_lapack_funcs(("geqp3", "ungqr"), dtype=complex)


@functools.cache
def _zggev_lwork(n):
    # the lwork=-1 query scipy.linalg.eig makes (both vector sets), so the
    # blocked QR inside zggev takes the same path; its answer depends on
    # the order only
    z = np.zeros((n, n), dtype=complex)
    return int(_zggev(z, z, lwork=-1)[-2][0].real)


@functools.cache
def _zgeev_lwork(n):
    # the query scipy.linalg.eig makes for both vector sets of a standard
    # problem; its answer depends on the order only
    return int(_zgeev_lwork_query(n, compute_vl=1, compute_vr=1)[0].real)


class EigensolverError(RuntimeError):
    """A dense decomposition failed to converge or produced indeterminate output."""


def _check_info(routine, info, n):
    if info != 0:
        raise EigensolverError(f"LAPACK call failed for pencil of order {n} ({routine} info={info})")


#: the smallest pencil order whose QZ runs through zggev3, and the smallest
#: that may take the standard route.  Below it zggev3 returns the same
#: alpha, beta and eigenvector bits as zggev (its blocked reduction starts
#: at order 33), so it would only add the cost of the ctypes call, about
#: 10 us, to every small solve; the standard route starts there too, so
#: every small solve, the built-ins and their Monte Carlo traffic among
#: them, keeps its bits.
ZGGEV3_FROM_ORDER = 33


def _resolve_zggev3():
    # dlsym on the extension's handle also searches the libraries it links,
    # which hold the LAPACK it calls: scipy-openblas wheels prefix its
    # symbols with scipy_, other builds export plain Fortran names; both
    # names are the 32-bit-integer interface (a 64-bit one ends in 64_)
    try:
        lib = ctypes.CDLL(_flapack.__file__)
    except OSError:
        return None
    for symbol in ("scipy_zggev3_", "zggev3_"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            break
    else:
        return None
    int_p, ptr = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    # JOBVL, JOBVR, N, A, LDA, B, LDB, ALPHA, BETA, VL, LDVL, VR, LDVR,
    # WORK, LWORK, RWORK, INFO, then the lengths of the two CHARACTER
    # arguments, which gfortran passes last
    fn.argtypes = [
        ctypes.c_char_p, ctypes.c_char_p, int_p, ptr, int_p, ptr, int_p,
        ptr, ptr, ptr, int_p, ptr, int_p, ptr, int_p, ptr, int_p,
        ctypes.c_size_t, ctypes.c_size_t,
    ]
    fn.restype = None
    return fn


#: LAPACK's zggev3, or None where scipy's LAPACK does not export it
_ZGGEV3 = _resolve_zggev3()


def _call_zggev3(a, b, work, lwork):
    # one zggev3 call, both vector sets, on Fortran-ordered copies of a and
    # b, which it overwrites; ctypes passes each c_int by reference
    n = a.shape[0]
    a = np.array(a, dtype=complex, order="F")
    b = np.array(b, dtype=complex, order="F")
    alphas = np.empty(n, dtype=complex)
    betas = np.empty(n, dtype=complex)
    vl = np.empty((n, n), dtype=complex, order="F")
    vr = np.empty((n, n), dtype=complex, order="F")
    rwork = np.empty(8 * n)
    order, info = ctypes.c_int(n), ctypes.c_int()
    _ZGGEV3(
        b"V", b"V", order,
        a.ctypes.data, order, b.ctypes.data, order,
        alphas.ctypes.data, betas.ctypes.data,
        vl.ctypes.data, order, vr.ctypes.data, order,
        work.ctypes.data, ctypes.c_int(lwork), rwork.ctypes.data, info,
        1, 1,
    )
    return alphas, betas, vl, vr, info.value


@functools.cache
def _zggev3_lwork(n):
    # zggev3's own lwork=-1 answer (4,193 at order 1, 45,150 at order 75),
    # which exceeds zggev's 33*n; a zggev-sized workspace corrupts the heap
    z = np.zeros((n, n), dtype=complex)
    work = np.empty(1, dtype=complex)
    _call_zggev3(z, z, work, -1)
    return int(work[0].real)


def qz_routine(order):
    """Name of the QZ routine ``generalized_eig`` runs for a pencil of this order.

    It runs QZ below ``ZGGEV3_FROM_ORDER`` and, from that order on, where
    B is singular or too ill conditioned for the standard route ``zgeev``;
    ``GeneralizedEigenDecomposition.routine`` names the one that ran.
    """
    return "zggev3" if order >= ZGGEV3_FROM_ORDER and _ZGGEV3 is not None else "zggev"


def _zggev3(a, b):
    """``(alphas, betas, vl, vr, info)`` of ``zggev3`` on copies of ``a``, ``b``."""
    lwork = _zggev3_lwork(a.shape[0])
    return _call_zggev3(a, b, np.empty(lwork, dtype=complex), lwork)


def _standard(a, b):
    """``(w, vl, vr)`` of the pencil solved as ``B^{-1} A`` by ``zgeev``.

    None where B is exactly singular or ``u / rcond(B)`` exceeds
    ``residual_tolerance(k)``; ``w`` are the eigenvalues and ``vl``, ``vr``
    the pencil's left and right eigenvectors, neither normalized.
    """
    n = a.shape[0]
    lu, piv, info = _zgetrf(b)
    if info > 0:
        # an exact zero pivot: B is singular
        return None
    _check_info("zgetrf", info, n)
    rcond, info = _zgecon(lu, np.abs(b).sum(axis=0).max(), norm="1")
    _check_info("zgecon", info, n)
    # u / rcond <= residual_tolerance(n), written so that rcond = 0 fails it
    if not rcond * residual_tolerance(n) >= UNIT_ROUNDOFF:
        return None
    c, info = _zgetrs(lu, piv, a)
    _check_info("zgetrs", info, n)
    w, vl, vr, info = _zgeev(c, lwork=_zgeev_lwork(n), overwrite_a=True)
    _check_info("zgeev", info, n)
    # w* B^{-1} A = lam w* makes y = B^{-*} w a left vector of the pencil
    vl, info = _zgetrs(lu, piv, vl, trans=2, overwrite_b=True)
    _check_info("zgetrs", info, n)
    return w, vl, vr


def as_matrix(a, name="matrix"):
    """Coerce ``a`` to a 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    # counted, not reduced: on the small pencils of a Monte Carlo trial a
    # count costs a third of ``.all()``
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def column_norms(v):
    """2-norms of the columns of ``v``, as ``np.linalg.norm(v, axis=0)`` gives them.

    The same reduction in the same order, so the same bits, without the
    wrapper's argument handling.
    """
    return np.sqrt(np.add.reduce((v.conj() * v).real, axis=0))


def residual_tolerance(order):
    """Default relative residual tolerance for a backward-stable dense solve."""
    return 1e4 * UNIT_ROUNDOFF * order


def _checked_svd(m, compute_uv):
    m = as_matrix(m)
    try:
        return np.linalg.svd(m, full_matrices=True, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"SVD did not converge for input of shape {m.shape}"
        ) from exc


def singular_values(m):
    """Singular values of a complex matrix in nonincreasing order, without vectors."""
    return _checked_svd(m, compute_uv=False)


def _rank_from_singular_values(s):
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def rank_with_tol(m):
    """Number of singular values above ``RANK_TOL`` times the largest one.

    The zero matrix has rank 0.
    """
    return _rank_from_singular_values(singular_values(m))


def nullspace_basis(m):
    """Orthonormal basis of the numerical nullspace of ``m``.

    Returns the right singular vectors whose singular values are at most
    ``RANK_TOL`` times the largest one, as columns of a (cols, nullity)
    array.  Full-rank input yields a (cols, 0) array.
    """
    _, s, vh = _checked_svd(m, compute_uv=True)
    return vh.conj().T[:, _rank_from_singular_values(s):]


def kernel_complement(blocks):
    """Orthonormal basis of the complement of the common kernel of ``blocks``.

    ``blocks`` are matrices of n columns each, and their common kernel holds
    the x with ``B_j x = 0`` for every j; its orthogonal complement is the
    row space of the stack ``T = [B_0; ...; B_m]``.  A T of more than n
    rows is first reduced by a Householder QR to its n-by-n R, of the same
    row space and cheaper to pivot; a column-pivoted QR (``zgeqp3``) of T*
    (or R*) then ranks the directions: the leading s columns of its Q,
    those whose diagonal entry exceeds ``KERNEL_TOL`` times the first, are
    returned as an n-by-s array.  None where s = n, so that a caller with
    no common kernel to remove skips the products with it; an all-zero
    stack gives s = 0.
    """
    t = np.concatenate(blocks)
    n = t.shape[1]
    if t.shape[0] > n:
        t = np.linalg.qr(t, mode="r")
    # info is nonzero only for an illegal argument, which these shapes rule out
    packed, _, tau, _, _ = _zgeqp3(t.conj().T)
    # the pivoting makes the diagonal's moduli non-increasing
    d = np.abs(packed.diagonal())
    # (a stack of no rows has an empty diagonal and keeps nothing)
    s = int(np.count_nonzero(d > KERNEL_TOL * d[0])) if d.size else 0
    if s == n:
        return None
    return _zungqr(packed[:, :s], tau[:s])[0]


def _finite(abs_betas, moduli, cutoff=DEFAULT_INF_CUTOFF):
    # from |beta| and |alpha| + |beta| of the (alpha, beta) pairs
    return abs_betas > cutoff * moduli


@functools.cache
def _column_index(k):
    # 0, ..., k-1, the column of each entry the phase fix gathers; kept, as
    # a fresh arange cost a Monte Carlo trial about 2 us in a paired A/B
    index = np.arange(k)
    index.setflags(write=False)
    return index


def _unit_phased(vr, vl, order):
    # The columns of vr and then those of vl, each set in the given order,
    # side by side in one Fortran-ordered array, as LAPACK returns each, so
    # that one pass normalizes every column with the same arithmetic: each
    # is scaled to unit 2-norm (LAPACK scales it to largest |re| + |im| =
    # 1), then its entry of largest modulus is made real positive, so that
    # eigenvector output is deterministic up to the solver itself.  Columns
    # are nonzero, so that entry is nonzero.  The gather fills the rows of
    # the C-ordered transpose, one row per column.
    n = order.size
    rows = np.empty((2 * n, n), dtype=complex)
    vr.T.take(order, axis=0, out=rows[:n], mode="clip")
    vl.T.take(order, axis=0, out=rows[n:], mode="clip")
    vectors = rows.T
    vectors /= column_norms(vectors)
    a = vectors[np.abs(vectors).argmax(axis=0), _column_index(2 * n)]
    vectors *= a.conj() / np.abs(a)
    return vectors


@dataclass(frozen=True, eq=False)
class GeneralizedEigenDecomposition:
    """Eigenvalues of a regular pencil ``A - lam*B`` as (alpha, beta) pairs.

    Column j of ``right_vectors`` satisfies
    ``beta[j] * A @ x = alpha[j] * B @ x`` and column j of ``left_vectors``
    satisfies ``beta[j] * y* A = alpha[j] * y* B``.  Every column of both
    sets has unit 2-norm, and its entry of largest modulus is real
    positive.  The finite pairs lead the order, and ``finite_values`` holds
    their eigenvalues alpha/beta: entry j belongs to column j of the
    vectors, so the finite pairs are read as ``finite_values`` and the
    first ``finite_values.size`` columns.  ``routine`` names the LAPACK
    eigensolver that ran: ``zgeev`` on the standard route, whose betas
    are all 1, else the QZ routine ``zggev3`` or ``zggev``.
    """

    alphas: np.ndarray
    betas: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    finite_values: np.ndarray
    routine: str

    @property
    def order(self):
        return self.alphas.size

    def finite_mask(self, cutoff=DEFAULT_INF_CUTOFF):
        abs_betas = np.abs(self.betas)
        return _finite(abs_betas, np.abs(self.alphas) + abs_betas, cutoff)

    def eigenvalues(self):
        """Eigenvalues with infinite ones reported as complex infinity."""
        lam = np.full(self.order, np.inf + 0j, dtype=complex)
        lam[: self.finite_values.size] = self.finite_values
        return lam


def generalized_eig(a, b):
    """Solve the generalized eigenproblem of the pencil ``a - lam*b``.

    The pencil must be regular and of order at least 1 (order 0 is a
    ValueError, raised before LAPACK is called).  Finite eigenvalues are
    ordered by modulus (descending), ties broken by phase; infinite
    eigenvalues (relative ``|beta|`` at most ``DEFAULT_INF_CUTOFF``) come
    last.  Both vector sets are returned, every column unit and
    phase-fixed, so that callers never renormalize them.

    Below order ``ZGGEV3_FROM_ORDER`` QZ runs, by LAPACK ``zggev``.  From
    that order on, a B whose estimated 1-norm reciprocal condition number
    rcond satisfies ``u / rcond <= residual_tolerance(k)`` gives the
    standard problem ``B^{-1} A``, solved by LU (``zgetrf``, ``zgetrs``)
    and ``zgeev``, with beta = 1 and the left vectors ``B^{-*} w``; an
    exactly singular or more ill-conditioned B gives QZ by ``zggev3``,
    where the library exports it (``zggev`` where it does not).  Both
    routes are backward stable within ``residual_tolerance(k)`` and order
    and normalize their output alike; ``routine`` on the result names the
    eigensolver that ran.  A non-zero ``info`` from any LAPACK call (but
    a zero pivot in ``zgetrf``, which sends the pencil to QZ), a
    non-finite pair or an indeterminate pair (alpha = beta = 0) raises
    EigensolverError.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"pencil matrices must be square and of equal order, got {a.shape} and {b.shape}")
    n = a.shape[0]
    if n == 0:
        raise ValueError("pencil order must be at least 1, got order 0")
    standard = _standard(a, b) if n >= ZGGEV3_FROM_ORDER else None
    if standard is not None:
        routine = "zgeev"
        alphas, vl, vr = standard
        betas = np.ones(n, dtype=complex)
    else:
        routine = qz_routine(n)
        if routine == "zggev3":
            alphas, betas, vl, vr, info = _zggev3(a, b)
        else:
            alphas, betas, vl, vr, _, info = _zggev(a, b, lwork=_zggev_lwork(n))
        _check_info(routine, info, n)
    abs_betas = np.abs(betas)
    moduli = np.abs(alphas)
    moduli += abs_betas
    # every pair needs 0 < |alpha| + |beta| < inf, which is NaN or infinite
    # where alpha or beta is; argmin and argmax return the first NaN where
    # there is one, so that the comparisons fail on it
    if not (moduli[moduli.argmin()] > 0.0 and moduli[moduli.argmax()] < np.inf):
        if not np.isfinite(moduli).all():
            raise EigensolverError("eigensolver returned non-finite (alpha, beta) pairs")
        raise EigensolverError("indeterminate eigenvalue (alpha = beta = 0); pencil is singular")

    finite = _finite(abs_betas, moduli)
    count = np.count_nonzero(finite)
    # lexsort orders by the last key first: finite block, then |lam| desc,
    # then phase.  Infinite eigenvalues keep lam = 0, so both of the last
    # keys read 0 for them; where every pair is finite, as on the
    # perturbation route, the division needs no mask and the order no
    # finite key, which saved a trial about 1.6 us in a paired A/B
    if count == n:
        lam = alphas / betas
        keys = (np.arctan2(lam.imag, lam.real), -np.abs(lam))
    else:
        lam = np.divide(alphas, betas, out=np.zeros(n, dtype=complex), where=finite)
        keys = (np.arctan2(lam.imag, lam.real), -np.abs(lam), ~finite)
    order = np.lexsort(keys)
    vectors = _unit_phased(vr, vl, order)
    return GeneralizedEigenDecomposition(
        alphas=alphas[order],
        betas=betas[order],
        right_vectors=vectors[:, :n],
        left_vectors=vectors[:, n:],
        finite_values=lam[order[:count]],
        routine=routine,
    )
