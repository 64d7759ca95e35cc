"""Matrix-polynomial data model.

A matrix polynomial is stored as its coefficient stack ``A_0 ... A_m`` in
ascending powers.  The module provides the Horner evaluator, ``horner``
(the package's one power loop, ``condition``'s too), and on it
evaluation and the derivative; reversal, the joint
Frobenius norm of one coefficient stack or a batch of them, random
perturbation sampling (raw Gaussian stacks for the scale-free study
statistics, and stacks of unit joint norm, one or a batch, for the
solver), the deflation of the coefficients' common kernels and
probabilistic normal-rank estimation (both kept per polynomial), the
two-sided backward errors of approximate eigentriples, exact or read in the
coordinates of the deflated core with a bound on the difference, the
two-norm scaling used to balance quadratic problems, the orthonormal
kernel bases at an eigenvalue, the known-truth record of benchmark
problems, and the seed check that the problem builders and the solver
share.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .densela import as_matrix, column_norms, kernel_complement, rank_with_tol

__all__ = [
    "Core",
    "DegenerateProblemError",
    "KernelBases",
    "MATCH_TOL",
    "MatrixPolynomial",
    "RANK_SEED",
    "TruthSpec",
    "backward_errors",
    "check_seed",
    "core_backward_errors",
    "deflate",
    "gaussian_perturbations",
    "horner",
    "joint_norm",
    "normal_rank",
    "pad_to_square",
    "sample_perturbation",
    "sample_perturbations",
    "scale_quadratic",
    "seeded_generator",
]


#: relative tolerance for matching a computed eigenvalue to a known one
MATCH_TOL = 1e-4

#: most standard normal entries a perturbation draw takes at once; a
#: batch is drawn in pieces of whole stacks, which changes no sample
DRAW_CHUNK_ENTRIES = 1 << 20

#: largest distance from 1 of a perturbation sample's joint norm after its
#: first normalizing pass, which the second pass divides by
UNIT_NORM_TOL = 64 * np.finfo(float).eps

#: seed of the points at which ``MatrixPolynomial.normal_rank`` evaluates
#: the polynomial, fixed so that every read of one polynomial's rank agrees
RANK_SEED = 0


def _is_seed(seed):
    # None, a SeedSequence, a non-negative integer (not a bool) or a sequence
    # of such integers; a SeedSequence, as every Monte Carlo trial holds,
    # is recognized first
    if seed is None or isinstance(seed, np.random.SeedSequence):
        return True
    if isinstance(seed, (str, bytes)):
        return False
    try:
        entries = (seed,) if np.ndim(seed) == 0 else seed
        # bool is an int subclass, so it is excluded by name
        return all(
            not isinstance(v, (bool, np.bool_)) and operator.index(v) >= 0 for v in entries
        )
    except (TypeError, ValueError):
        # not an integer, or a nested sequence numpy cannot shape
        return False


def check_seed(seed):
    """Raise a ValueError that names ``seed`` unless it is a repeatable seed.

    A seed is None, a non-negative int (not a bool), a sequence of them or a
    ``SeedSequence``.  A ``Generator`` is a stream, not a seed.
    """
    if not _is_seed(seed):
        raise ValueError(
            "seed must be a non-negative int, a sequence of them, a SeedSequence "
            f"or None, got {seed!r}"
        )


def seeded_generator(seed):
    """``np.random.default_rng(seed)`` for a stream or a seed ``check_seed`` accepts.

    A ``Generator`` is returned as it is and a ``BitGenerator`` wrapped;
    anything else that is not a seed raises the ValueError of
    ``check_seed``, where numpy's own message would not name the seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.BitGenerator):
        check_seed(seed)
    return np.random.default_rng(seed)


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
    match_tol: float = MATCH_TOL

    def __post_init__(self):
        evs = tuple(complex(v) for v in self.finite_eigenvalues)
        if not all(cmath.isfinite(v) for v in evs):
            raise ValueError("truth eigenvalues must be finite")
        if len({(v.real, v.imag) for v in evs}) != len(evs):
            raise ValueError("truth eigenvalues must be distinct")
        object.__setattr__(self, "finite_eigenvalues", evs)
        # written so that NaN fails
        if not 0 < self.match_tol < math.inf:
            raise ValueError(f"match_tol must be positive and finite, got {self.match_tol!r}")

    def with_match_tol(self, match_tol):
        return TruthSpec(self.finite_eigenvalues, match_tol)


def pad_to_square(m):
    """Zero-pad a rectangular matrix to square order max(rows, cols)."""
    return _square(as_matrix(m))


def _square(m):
    rows, cols = m.shape
    n = max(rows, cols)
    if rows == cols:
        return m
    out = np.zeros((n, n), dtype=complex)
    out[:rows, :cols] = m
    return out


def horner(terms, lam):
    """``sum_j lam**j * terms[j]`` by Horner's rule, as a new complex array.

    ``terms`` are arrays of one shape, highest power last; ``lam`` is a
    scalar or one value per column (the last axis) of the terms.  Each step
    is ``acc * lam + t`` in this operand order: numpy's complex product
    ``lam * acc`` can differ from it in the last bit.
    """
    lam = np.asarray(lam, dtype=complex)
    acc = np.array(terms[-1], dtype=complex)
    for t in reversed(terms[:-1]):
        acc *= lam
        acc += t
    return acc


def _read_only(a):
    a.setflags(write=False)
    return a


def _freeze(a):
    return _read_only(np.array(a, dtype=complex))


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Square matrix polynomial ``P(lam) = sum_i lam**i * coeffs[i]``.

    Rectangular coefficient input is zero-padded to square before storage.
    Coefficient arrays are read-only after construction.  Instances compare
    and hash by identity, as the array-holding types of this package do, so
    a quadratic's balancing (``balancing``), the deflated core (``core``),
    the normal rank (``normal_rank``) and the coefficients' Frobenius norms
    (``norms``) are computed once and kept.
    """

    coeffs: tuple

    def __post_init__(self):
        raw = [as_matrix(c, f"coefficient {i}") for i, c in enumerate(self.coeffs)]
        if not raw:
            raise ValueError("a matrix polynomial needs at least one coefficient")
        shape = raw[0].shape
        if any(c.shape != shape for c in raw):
            raise ValueError("all coefficients must have the same shape")
        if max(shape) == 0:
            raise ValueError("a matrix polynomial needs order at least 1, got order 0")
        object.__setattr__(self, "coeffs", tuple(_freeze(_square(c)) for c in raw))

    @classmethod
    def _derived(cls, coeffs):
        # coefficients computed from those of a validated polynomial: already
        # square complex arrays of one shape that nothing else holds, so they
        # are only made read-only; a non-finite one is left to the input check
        # of densela.generalized_eig
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(_read_only(c) for c in coeffs))
        return p

    @classmethod
    def quadratic(cls, m, c, k):
        """Build ``lam**2 M + lam C + K`` from its three coefficients."""
        return cls((k, c, m))

    @classmethod
    def pencil(cls, a, b):
        """Build the linear polynomial ``A - lam B``."""
        return cls((a, -np.asarray(b, dtype=complex)))

    @property
    def n(self):
        return self.coeffs[0].shape[0]

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @functools.cached_property
    def balancing(self):
        """``scale_quadratic(self)``, the pair ``(balanced, gamma)``, computed once.

        A polynomial of degree other than 2 raises the ValueError of
        ``scale_quadratic`` on every access.
        """
        return scale_quadratic(self)

    @functools.cached_property
    def core(self):
        """The module's ``deflate(self)``, computed once."""
        return deflate(self)

    @functools.cached_property
    def normal_rank(self):
        """The module's ``normal_rank(self, RANK_SEED)``, computed once."""
        return normal_rank(self, RANK_SEED)

    @functools.cached_property
    def norms(self):
        """The Frobenius norms ``||A_j||_F`` as a tuple of floats, computed once.

        Every backward error of this polynomial divides by them, exact or
        read on the core, so the two cannot disagree on the scale.
        """
        return tuple(float(np.linalg.norm(c)) for c in self.coeffs)

    def evaluate(self, lam):
        """Value ``P(lam)`` by Horner's rule."""
        return horner(self.coeffs, lam)

    def derivative_at(self, lam):
        """Value ``P'(lam)`` by Horner's rule; the zero matrix for degree 0."""
        # j * A_j with the factor 1 applied, unlike condition_from_products:
        # skipping it flips signed zeros in five bitwise derivative pins.
        # At degree 0 the one term, 0 * A_0, is the zero matrix
        terms = [j * c for j, c in enumerate(self.coeffs)]
        return horner(terms[1:] or terms, lam)

    def reversed(self):
        """Polynomial with the coefficient order reversed.

        Satisfies ``reversed(P)(lam) == lam**m * P(1/lam)`` for ``lam != 0``
        and is an involution.
        """
        return MatrixPolynomial._derived(self.coeffs[::-1])


@dataclass(frozen=True, eq=False)
class KernelBases:
    """Orthonormal kernel bases at a simple eigenvalue.

    ``[X x]`` spans the right kernel with ``X`` spanning the right singular
    space; ``[Y y]`` likewise on the left.  The blocks are stored once, as
    the read-only complex (n, d+1) arrays ``right`` = ``[X x]`` and
    ``left`` = ``[Y y]``; ``X`` and ``Y`` are their (n, d) leading columns,
    with d = 0 for None or an empty array, and ``x`` and ``y`` their last
    columns, all read-only views.  Raises ValueError unless ``[X x]`` and
    ``[Y y]`` have the same shape and orthonormal columns.
    """

    X: np.ndarray
    x: np.ndarray
    Y: np.ndarray
    y: np.ndarray
    right: np.ndarray = field(init=False, repr=False)
    left: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for big, single, both in (("X", "x", "right"), ("Y", "y", "left")):
            vec = np.asarray(getattr(self, single), dtype=complex).reshape(-1)
            block = getattr(self, big)
            if block is None or np.size(block) == 0:
                block = np.zeros((vec.size, 0))
            stack = _read_only(np.column_stack([block, vec]))
            # written so that NaN fails
            if not np.linalg.norm(stack.conj().T @ stack - np.eye(stack.shape[1])) <= 1e-6:
                raise ValueError(f"[{big} {single}] must have orthonormal columns")
            object.__setattr__(self, both, stack)
            object.__setattr__(self, big, stack[:, :-1])
            object.__setattr__(self, single, stack[:, -1])
        if self.X.shape != self.Y.shape:
            raise ValueError(f"[X x] and [Y y] differ in shape: X {self.X.shape}, Y {self.Y.shape}")


def joint_norm(coeffs):
    """Frobenius norm of the stacked coefficients ``[E_0 E_1 ... E_m]``.

    ``coeffs`` is one stack of m+1 matrices, giving a float, or a
    (count, m+1, n, n) batch of stacks, giving the count norms as an array.
    Each norm is ``sqrt(v @ v)`` for the float view v of its stack, every
    real and imaginary part in order: one BLAS dot per stack, with no
    Python ``sum``, ``pow`` or ``reduce``, so a stack alone gives the bits
    of its entry in any batch.  Those bits depend on the BLAS dot kernel,
    as every solve's do on its LAPACK calls.
    """
    e = np.ascontiguousarray(coeffs, dtype=complex)
    norms = _norm_reader(e)()
    return norms if e.ndim == 4 else float(norms[0])


def _norm_reader(e):
    # a function giving joint_norm of each stack of the complex array e, which
    # ends in the (m+1, n, n) axes of one stack, as a float array.  It reads
    # e through views, so on a contiguous e it sees later in-place changes.
    # Each stack's float view is a (1, L) row and an (L, 1) column, and one
    # stacked matmul of them makes one BLAS dot call per stack, followed by
    # one vectorized sqrt: no Python sum, pow or reduce per coefficient
    rows = e.reshape(-1, 1, math.prod(e.shape[-3:])).view(float)
    cols = rows.transpose(0, 2, 1)

    def norms():
        return np.sqrt((rows @ cols).reshape(-1))

    return norms


def gaussian_perturbations(n, m, count, rng):
    """Draw ``count`` raw Gaussian perturbation stacks of m+1 complex n-by-n matrices.

    Every real and imaginary entry is an independent standard normal, so
    each vectorized stack's direction is uniform on the unit sphere of real
    dimension 2*n**2*(m+1), while its joint norm, about sqrt(2*n**2*(m+1)),
    is random.  A statistic that does not depend on a direction's scale
    reads these stacks as they are.  The generator is consumed as by
    ``count`` single draws, stack after stack, each in the order of m+1
    (real part, imaginary part) pairs of n-by-n draws: the draws and the
    generator's end state of ``sample_perturbations``, before it normalizes.
    Returns a read-only complex (count, m+1, n, n) array.  ``rng`` is a seed
    or a stream, as ``seeded_generator`` takes it.
    """
    return _read_only(_gaussian_draw(n, m, count, seeded_generator(rng)))


def _gaussian_draw(n, m, count, rng):
    # the writable draw of gaussian_perturbations from the generator rng
    e = np.empty((count, m + 1, n, n), dtype=complex)
    # the real and imaginary parts of e as the last axis of a float view
    parts = e.view(float).reshape(count, m + 1, n, n, 2)
    step = max(1, DRAW_CHUNK_ENTRIES // (2 * (m + 1) * n * n))
    for start in range(0, count, step):
        raw = rng.standard_normal((min(step, count - start), m + 1, 2, n, n))
        parts[start : start + len(raw)] = raw.transpose(0, 1, 3, 4, 2)
    return e


def sample_perturbations(n, m, count, rng):
    """Draw ``count`` random perturbation stacks of unit joint norm.

    The stacks of ``gaussian_perturbations(n, m, count, rng)``, from the
    same generator draws, each divided in place by its joint norm twice
    (the second pass absorbs rounding, and its norms are checked to be 1
    up to rounding), making the vectorized stack exactly uniform on the
    unit sphere of real dimension 2*n**2*(m+1).  The solver scales its one
    draw by epsilon, so it needs the unit norm; the study samplers of
    ``verify`` take the raw draw, since their statistics do not depend on
    a direction's scale.  The norms are ``joint_norm``'s: the square root
    of one BLAS dot of each stack's float view with itself, all stacks in
    one stacked product, with no Python ``sum``, ``pow`` or ``reduce``.
    Returns a read-only complex (count, m+1, n, n) array.  ``rng`` is a
    seed or a stream, as ``seeded_generator`` takes it.
    """
    return _normalized(_gaussian_draw(n, m, count, seeded_generator(rng)))


def sample_perturbation(n, m, rng):
    """Draw one random perturbation stack of m+1 complex n-by-n coefficients.

    The batch of one of ``sample_perturbations``, taken out of it: the
    read-only complex (m+1, n, n) array, whose entry j is ``E_j``.
    """
    return sample_perturbations(n, m, 1, rng)[0]


def _normalized(e):
    # e, a complex (count, m+1, n, n) batch of raw draws, with each stack
    # divided by its joint norm twice, read-only.  The second pass divides
    # by norms that must already be 1 up to rounding, so checking them
    # checks the sample (written so that NaN fails).  The check reads the
    # norms as floats: numpy's calls on a one-entry array cost a
    # one-direction sample about 2 us
    norms_of = _norm_reader(e)
    e /= _divisors(norms_of())
    norms = norms_of()
    for x in norms.tolist():
        if not abs(x - 1.0) <= UNIT_NORM_TOL:
            raise ValueError("perturbation sample must have unit joint norm")
    e /= _divisors(norms)
    return _read_only(e)


def _divisors(norms):
    # the joint norms as a divisor of the stacks: a scalar for a batch of
    # one, which divides about 0.4 us faster than a one-entry column, else a
    # column; the entries are divided by the same numbers either way, to the
    # same bits
    return norms[0] if len(norms) == 1 else norms.reshape(-1, 1, 1, 1)


@dataclass(frozen=True, eq=False)
class Core:
    """A polynomial's coefficients with their common kernels removed.

    The common right kernel holds the x with ``A_j x = 0`` for every
    coefficient, the common left kernel the y with ``y* A_j = 0``: in
    Kronecker terms the minimal indices of degree 0.  ``right`` (n-by-s_R)
    and ``left`` (n-by-s_L) have orthonormal columns spanning their
    complements, the row space of ``[A_0; ...; A_m]`` and the column space
    of ``[A_0 ... A_m]``, or are None where that complement is all of C^n.
    ``coeffs`` are the read-only s_L-by-s_R ``left* A_j right`` (a None
    side left out; p's own arrays where both are None).  As
    ``A_j = left C_j right*`` up to rounding, the core has the
    polynomial's rank at every lam, so its normal rank and its finite
    eigenvalues, and a right eigenvector x of the core lifts to the
    polynomial's ``right @ x``, a left one y to ``left @ y``.

    ``dropped`` holds, per coefficient, the float
    ``delta_j = ||E_j||_F`` with ``E_j = A_j - left C_j right*``: what the
    deflation left out of A_j, rounding and any direction cut below
    ``densela.KERNEL_TOL``; 0.0 where both sides are None.  A solve reads
    its eigentriples in core coordinates with it.  For ``x = right x_c``
    and ``y = left y_c``, ``y* A_j x = y_c* C_j x_c`` exactly, while
    ``A_j x = left C_j x_c + E_j x`` and ``y* A_j = y_c* C_j right* +
    y* E_j``, so a residual read on the core is within
    ``sum_j |lam|**j delta_j`` of the polynomial's
    (``core_backward_errors``).
    """

    left: object
    right: object
    coeffs: tuple
    dropped: tuple


def deflate(p):
    """The ``Core`` of ``p``, by ``densela.kernel_complement`` on each side.

    ``right`` is the complement of the common kernel of the coefficients
    A_j.  As ``A_j = (A_j right) right*``, ``left`` is then that of the
    conjugate transposes of the narrower ``A_j right``, which span the same
    columns, and the core is ``left* (A_j right)``.  Each ``delta_j`` is
    then measured once, by forming ``left C_j right*`` (products of order
    n*s_L*s_R and n*n*s_R); nothing is formed where no side deflates.
    """
    right = kernel_complement(p.coeffs)
    coeffs = p.coeffs if right is None else [c @ right for c in p.coeffs]
    left = kernel_complement([c.conj().T for c in coeffs])
    if left is not None:
        lh = left.conj().T
        coeffs = [lh @ c for c in coeffs]
    dropped = tuple(_dropped_norm(a, c, left, right) for a, c in zip(p.coeffs, coeffs))
    coeffs = tuple(_read_only(c) for c in coeffs)
    return Core(left=left, right=right, coeffs=coeffs, dropped=dropped)


def _dropped_norm(a, c, left, right):
    # ||a - left c right*||_F, a None side read as the identity
    if left is None and right is None:
        return 0.0
    back = c if left is None else left @ c
    if right is not None:
        back = back @ right.conj().T
    return float(np.linalg.norm(a - back))


def normal_rank(p, rng):
    """Estimate the normal rank of ``p`` (the maximal rank over all lam).

    The rank is evaluated at three points drawn from ``rng`` uniformly on
    the unit circle, which avoids the finitely many rank-dropping points
    almost surely; the maximum observed rank is returned.  No point has a
    rank above the normal rank, so a point of full rank ends the search;
    the stream advances by three draws either way.  The first point is read
    on ``p``, so that a regular polynomial (rank n there) costs one SVD of
    order n and no deflation.  Past a rank-deficient one, the others are
    read on the core ``p.core`` (computed then and kept), which has the
    rank of ``p`` at every point and is smaller wherever ``p`` has common
    kernels; there full rank is the shorter of its sides.  ``rng`` is a
    seed or a stream, as ``seeded_generator`` takes it.
    """
    draws = seeded_generator(rng).random(3)
    best = rank_with_tol(p.evaluate(np.exp(2j * np.pi * draws[0])))
    if best < p.n:
        core = p.core.coeffs
        for t in draws[1:]:
            if best == min(core[0].shape):
                break
            best = max(best, rank_with_tol(horner(core, np.exp(2j * np.pi * t))))
    return best


def backward_errors(p, lam, x, y):
    """Two-sided relative backward errors of approximate eigentriples of ``p``.

    ``max(||P(lam) x||, ||y* P(lam)||) / sum_j |lam|**j ||A_j||_F`` for
    unit vectors ``x`` and ``y``, or column stacks of them with one ``lam``
    per column (the result is then an array).  Both products are evaluated
    by Horner's rule on ``A_j @ x`` and ``A_j* @ y``; the norms are the
    cached ``p.norms``.
    """
    lam = np.asarray(lam, dtype=complex)
    return _residual_norms(p.coeffs, lam, [c @ x for c in p.coeffs], y) / _weighted(p.norms, lam)


def core_backward_errors(p, core, lam, products, yc):
    """Backward errors of eigentriples of ``p`` read on its core, and their bracket.

    ``core`` is ``p.core``, or a ``Core`` with no side deflated (both None,
    the coefficients ``p.coeffs`` and every ``delta_j`` 0.0), which is
    ``p.core`` for a regular polynomial without the deflation's cost.  The
    eigentriples are ``(lam, right @ xc, left @ yc)`` with ``right`` and
    ``left`` of ``core`` (a None side the identity), for unit core
    vectors xc (length s_R) and yc (length s_L), or column stacks of them
    with one ``lam`` per column.  ``products`` are the ``C_j @ xc`` of the
    core coefficients, which a caller computes once for the condition
    numbers too.  Returns ``(eta, slack)``:

    - ``eta = max(||P_c(lam) xc||, ||yc* P_c(lam)||) / sum_j |lam|**j
      ||A_j||_F``, the formula of ``backward_errors`` with the core's
      residuals over the polynomial's own cached norms ``p.norms``;
    - ``slack = sum_j |lam|**j delta_j / sum_j |lam|**j ||A_j||_F``, with
      the ``delta_j`` of ``Core.dropped``.

    Both residuals of the lifted triple are the core's (kept in norm by the
    orthonormal bases) plus ``sum_j lam**j`` times ``E_j x`` or ``y* E_j``,
    each at most ``delta_j`` in norm, so
    ``|backward_errors(p, lam, right @ xc, left @ yc) - eta| <= slack`` up
    to rounding; slack is 0 where nothing was deflated.  The residuals are
    those of ``backward_errors``, in its arithmetic, so on an undeflated
    core eta is its value to the last bit.
    """
    lam = np.asarray(lam, dtype=complex)
    scale = _weighted(p.norms, lam)
    eta = _residual_norms(core.coeffs, lam, products, yc) / scale
    return eta, _weighted(core.dropped, lam) / scale


def _residual_norms(coeffs, lam, products, y):
    # max(||P(lam) x||, ||y* P(lam)||) per column, from the products A_j @ x
    # and, conjugated, y* P(lam) as sum_j conj(lam)**j A_j* y.  Not the rows
    # y* A_j, which copy no coefficient: they move the last bit of every
    # complex case of the bitwise backward-error pins
    right = horner(products, lam)
    left = horner([c.conj().T @ y for c in coeffs], lam.conj())
    return np.maximum(column_norms(right), column_norms(left))


def _weighted(values, lam):
    # sum_j |lam|**j * values[j], elementwise in lam
    moduli = np.abs(lam)
    return sum(moduli**j * v for j, v in enumerate(values))


def scale_quadratic(p):
    """Balance a quadratic so the scaled M and K have unit 2-norm.

    ``p`` is the degree-2 polynomial ``lam**2 M + lam C + K``.  Returns
    ``(balanced, gamma)``, where ``balanced`` has the coefficients
    ``omega*gamma**2*M``, ``omega*gamma*C`` and ``omega*K`` with
    ``gamma = sqrt(norm2(K)/norm2(M))`` and ``omega = 1/norm2(K)``.
    Eigenvalues of ``p`` are ``gamma`` times those of ``balanced``.
    """
    if p.degree != 2:
        raise ValueError(f"balancing needs a quadratic, got degree {p.degree}")
    k, c, m = p.coeffs
    # one stacked call; each slice runs the gesdd of np.linalg.norm(., 2)
    nm, nk = (float(s) for s in np.linalg.svd(np.stack((m, k)), compute_uv=False)[:, 0])
    if nm == 0.0 or nk == 0.0:
        raise DegenerateProblemError("scaling requires nonzero leading and trailing coefficients")
    gamma = math.sqrt(nk / nm)
    omega = 1.0 / nk
    return MatrixPolynomial._derived((omega * k, omega * gamma * c, omega * gamma**2 * m)), gamma
