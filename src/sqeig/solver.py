"""Solvers for singular generalized and quadratic eigenproblems.

``solve_polynomial`` is one pipeline for pencils and quadratics, the
normal-rank projection of Hochstenbach, Mehl and Plestenjak ("Solving
singular generalized eigenvalue problems. Part II: projection and
augmentation", SIMAX 2023):

1. a quadratic is balanced (once per polynomial, see
   ``MatrixPolynomial.balancing``); a pencil is not;
2. the balanced polynomial's common kernels, the vectors that every A_j
   annihilates on the right or on the left, are deflated, once per
   polynomial (``MatrixPolynomial.core``): orthonormal bases Q_L
   (n-by-s_L) and Q_R (n-by-s_R) of the column space of
   ``[A_0 ... A_m]`` and of the row space of ``[A_0; ...; A_m]`` leave the
   core ``C_j = Q_L* A_j Q_R``.  A regular polynomial (normal rank r = n)
   has no common kernel, so its core is itself and the deflation is
   skipped: its normal rank costs one SVD of order n and nothing more;
3. the core is projected to the r-by-r ``U* C_j V``, U (s_L-by-r) and V
   (s_R-by-r) random with orthonormal columns, drawn only for a side
   longer than r (a synthetic pencil's core is its regular part, r-by-r,
   and a regular polynomial's is n-by-n: neither draws anything);
4. one eigensolver call of order m*r solves the first companion form of
   the projected polynomial, regular almost surely.  Its eigenvalues
   include the true ones exactly;
5. each candidate is classified by its condition number ``kappa_bar`` on
   the balanced, unprojected polynomial and accepted only if that is at
   most ``tol`` and its two-sided backward error eta there
   (``matpoly.backward_errors``) is at most
   ``densela.residual_tolerance(m*r)`` = 1e4 * u * m*r: the residual a
   backward stable eigensolver of order m*r leaves, with room for the
   block reading and the lift.  The candidates placed by U and V have
   lifted eigenvectors ``Q_R (V x)`` and ``Q_L (U y)`` that are no
   eigenvectors of the polynomial, and their ``kappa_bar`` often lies
   below ``tol``; eta rejects them.

The projected leading coefficient is well conditioned where the problem
has no infinite eigenvalue, so from order 33 ``densela.generalized_eig``
solves that pencil as the standard problem ``B^{-1} A`` by ``zgeev``, 2-3
times cheaper than QZ, and by QZ where it is not.

Both numbers are read in core coordinates, on the vectors ``xc = V x``
and ``yc = U y`` before their lift to length n, with products by the
s_L-by-s_R core coefficients instead of the n-by-n ones.  kappa_bar is
exact there: for ``x = Q_R xc`` and ``y = Q_L yc``, with orthonormal
Q_R and Q_L, ``y* A_j x = yc* C_j xc``, and the products ``C_j xc`` serve
kappa_bar and the right residual alike.  eta is bracketed:
``A_j Q_R xc = Q_L C_j xc + E_j Q_R xc`` with ``E_j = A_j - Q_L C_j Q_R*``,
and ``Core.dropped`` keeps ``delta_j = ||E_j||_F`` (0 where nothing was
deflated), so eta read on the core (over the polynomial's own
``||A_j||_F``) is within
``Delta(lam) = sum_j |lam|**j delta_j / sum_j |lam|**j ||A_j||_F`` of the
exact one (``matpoly.core_backward_errors``).  A candidate is accepted
where eta + Delta is under the gate and rejected where eta - Delta is
over it; only one in between pays the exact eta on its lifted vectors.
The accepted set is the one the exact gate gives, and the vectors are
lifted once, for the result.

``solve_perturbed`` is the paper's algorithm, for the studies of the
perturbed candidates' condition numbers and the paper's acceptance
criteria (``verify.empirical_probability``): add a small random
perturbation to the balanced coefficients (turning the singular problem
into a regular one almost surely), solve the perturbed problem with one
eigensolver call at order m*n, and accept a candidate by its condition
number alone.  The perturbed problem is regular but nearly singular: a
singular problem has a singular leading coefficient (det P = 0 has no top
term), so the perturbed one has a condition number of order 1/epsilon,
and ``densela.generalized_eig`` solves it by QZ, which stays backward
stable there.  Well conditioned eigenvalues approximate true eigenvalues
of the original problem; eigenvalues created from the perturbed singular
part come out violently ill conditioned and are rejected by the
threshold.  A Monte Carlo trial is one such solve.  Over the built-ins,
``zggev`` takes 50% of a trial's time (66-70% at order 22, 10-22% at
orders 4-8, where numpy calls around the QZ call still take most of it;
one BLAS thread, README "One Monte Carlo trial"), so what does not depend
on the trial is done once per polynomial: the perturbation is added into
a copy of the balanced polynomial's companion pair, built on its first
perturbed solve (``first_companion(balanced, e, epsilon)``, no perturbed
polynomial).

Both solvers share the eigensolve and the recovery.  The finite
eigenvalues come from ``generalized_eig`` once (``finite_values``; the
finite pairs lead its order, so their vectors are the leading columns).
A quadratic's first companion form C1 serves both of the paper's forms:
the alternate form C1hat = L * C1, with the unimodular
L = [[I, C], [0, I]], has the same eigenvalues and right eigenvectors, and
left eigenvectors with the same top block, so large-modulus candidates
are read as the first form would, small-modulus ones as the alternate
form would.  Values are rescaled to the original units.  A pencil is its
own first companion form, whose eigenvectors are read back unchanged.

A solve returns one ``SolveResult``: read-only arrays with one entry (or
column) per finite candidate.  It also yields ``ClassifiedEigenvalue``
records, built on demand, one per candidate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .condition import condition_from_products, condition_numbers
from .densela import EigensolverError, generalized_eig, residual_tolerance
from .linearize import first_companion, recover_vectors
from .matpoly import (
    Core,
    MatrixPolynomial,
    backward_errors,
    check_seed,
    core_backward_errors,
    sample_perturbation,
)

# unused here; perfbench/tracing.py patches these solver attributes by name
from .condition import pencil_condition, quadratic_condition  # noqa: F401
from .densela import as_matrix  # noqa: F401
from .linearize import alternate_companion, recover_from_alternate, recover_from_first  # noqa: F401
from .matpoly import pad_to_square, scale_quadratic  # noqa: F401

__all__ = [
    "ClassifiedEigenvalue",
    "SOURCES",
    "SolveResult",
    "SolverConfig",
    "solve_perturbed",
    "solve_polynomial",
    "solve_singular_pencil",
    "solve_singular_quadratic",
]

SOURCE_PENCIL = "pencil"
SOURCE_C1 = "C1"
SOURCE_C1HAT = "C1hat"

#: the source names; ``SolveResult.source_codes`` holds indices into it
SOURCES = (SOURCE_PENCIL, SOURCE_C1, SOURCE_C1HAT)
_PENCIL_CODE, _C1_CODE, _C1HAT_CODE = range(len(SOURCES))

@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the solvers.

    ``epsilon`` is the perturbation size of ``solve_perturbed``
    (``solve_polynomial`` perturbs nothing and does not read it), ``tol``
    the condition-number acceptance threshold, ``seed`` a non-negative
    int, a sequence of them, a ``SeedSequence`` or None.  Anything else is a ValueError that names
    the seed; a ``Generator`` or ``BitGenerator`` in particular is a
    stream, not a seed, and a config holding one would give a different
    result on every call.
    """

    epsilon: float = 1e-8
    tol: float = 1e4
    seed: object = 0

    def __post_init__(self):
        # written so that NaN fails both tests
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not self.tol > 1:
            raise ValueError("tol must exceed 1")
        check_seed(self.seed)

    def with_seed(self, seed):
        return type(self)(self.epsilon, self.tol, seed)


@dataclass(frozen=True, eq=False)
class ClassifiedEigenvalue:
    """A finite computed eigenvalue with its classification.

    ``value`` is in the original problem's units (rescaled where the solver
    balanced the coefficients).  ``kappa_bar`` is the condition number of
    the eigentriple on the balanced, unperturbed problem and may be +inf;
    ``accepted`` is equivalent, from ``solve_polynomial``, to
    ``kappa_bar <= tol`` and a backward error on the balanced, unprojected
    polynomial of at most 1e4 * u * m*r, m*r the projected eigensolver
    order, and from ``solve_perturbed`` to ``kappa_bar <= tol`` alone.
    ``solve_polynomial`` reads both in the coordinates of the deflated
    core: ``kappa_bar`` exactly, and the backward error within a proven
    bound, with the exact one deciding wherever the bound straddles the
    gate, so ``accepted`` is what the lifted vectors give.  ``source``
    names how the eigenvectors were read: ``pencil``; ``C1``, from the top
    blocks of the first companion form's eigenvectors (|lam| >= 1 on the
    balanced problem); or ``C1hat``, with the right vector from the bottom
    block of C1, as the alternate form would (|lam| < 1).  From
    ``solve_polynomial`` that form is the projected polynomial's, of block
    height r, and the vectors read from it are lifted to length n as
    ``Q_R (V x)`` and ``Q_L (U y)``.  The eigenvectors have unit norm.
    """

    value: complex
    kappa_bar: float
    accepted: bool
    source: str
    right_vector: np.ndarray
    left_vector: np.ndarray


@dataclass(frozen=True, eq=False)
class SolveResult:
    """The classified finite candidates of one solve, as read-only arrays.

    Entry i of ``values`` (original units), ``kappa_bar``, ``accepted``
    and ``source_codes`` (indices into ``SOURCES``), and column i of
    ``right_vectors`` and ``left_vectors``, describe candidate i, as the
    fields of ``ClassifiedEigenvalue`` do.  Candidates are in the
    eigensolver's order.  The constructor marks the arrays read-only.
    Iteration, ``res[i]`` and slices (a tuple) build
    ``ClassifiedEigenvalue`` records on demand; a record's vectors are
    read-only views of the columns.  Records are new on every access and
    compare by identity, so there is no ``index`` or ``count`` to find one
    by.  Compares by identity.
    """

    values: np.ndarray
    kappa_bar: np.ndarray
    accepted: np.ndarray
    source_codes: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    def __post_init__(self):
        for a in vars(self).values():
            a.setflags(write=False)

    def __len__(self):
        return self.values.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._records(np.arange(len(self))[i])
        return self._records(np.arange(len(self))[[operator.index(i)]])[0]

    def __iter__(self):
        return iter(self._records(np.arange(len(self))))

    def accepted_candidates(self):
        """The records of the accepted candidates, in order, as a tuple."""
        return self._records(self.accepted.nonzero()[0])

    def _records(self, indices):
        # the ClassifiedEigenvalue records of an integer array of candidate
        # indices, each field read from its array in one pass
        fields = zip(
            indices.tolist(),
            self.values[indices].tolist(),
            self.kappa_bar[indices].tolist(),
            self.accepted[indices].tolist(),
            self.source_codes[indices].tolist(),
        )
        # row i of a transpose is a view of column i
        right, left = self.right_vectors.T, self.left_vectors.T
        return tuple(
            ClassifiedEigenvalue(value, kappa, accepted, SOURCES[code], right[i], left[i])
            for i, value, kappa, accepted, code in fields
        )


def solve_singular_pencil(a, b, cfg=None):
    """Classified finite eigenvalues of the (possibly singular) pencil ``A - lam*B``."""
    return solve_polynomial(MatrixPolynomial.pencil(a, b), cfg)


def solve_singular_quadratic(m, c, k, cfg=None):
    """Classified finite eigenvalues of ``lam**2 M + lam C + K``."""
    return solve_polynomial(MatrixPolynomial.quadratic(m, c, k), cfg)


def solve_polynomial(p, cfg=None):
    """Finite eigenvalues of a degree-1 or degree-2 matrix polynomial, classified.

    The one pipeline of the module docstring: a quadratic is balanced to
    unit leading/trailing 2-norms, and the balanced polynomial, of cached
    ``normal_rank`` r, is projected to r-by-r coefficients.  Unless it is
    regular (r = n), its common kernels are deflated first, once per
    polynomial (``MatrixPolynomial.core``), leaving the s_L-by-s_R core
    ``C_j = Q_L* A_j Q_R``; a regular polynomial is its own core, n-by-n.
    The core becomes ``U* C_j V`` for s_L-by-r U and s_R-by-r V with
    orthonormal columns from ``default_rng(cfg.seed)``, U first, each
    drawn only where its side is longer than r, and one eigensolver call
    of order m*r solves the projected polynomial, among whose eigenvalues
    are the true ones.  The eigenvectors, read from blocks of height r,
    are lifted as ``Q_R (V x)`` and ``Q_L (U y)``; a candidate is accepted
    when its ``kappa_bar`` on the balanced, unprojected polynomial is at
    most ``tol`` and its backward error there (``matpoly.backward_errors``)
    at most ``densela.residual_tolerance(m*r)``.  Both are read on the
    core, before the lift: kappa_bar exactly, eta within the bound Delta
    that ``Core.dropped`` gives, and the exact eta of the lifted vectors
    decides only a candidate whose bracket straddles the gate.
    ``epsilon`` is not used; a normal rank of 0 gives no candidate.
    Returns a ``SolveResult`` holding every finite candidate in the
    eigensolver's order: modulus (descending), then phase.  For a
    quadratic the |lam| >= 1 candidates of the balanced problem are a
    prefix of that order, so every ``C1`` candidate precedes every
    ``C1hat`` one.
    """
    balanced, gamma = _balanced(p)
    cfg = cfg or SolverConfig()
    r = balanced.normal_rank
    # a regular polynomial has no common kernel: its core is itself
    core = balanced.core if r < p.n else Core(None, None, balanced.coeffs, (0.0,) * (p.degree + 1))
    rng = np.random.default_rng(cfg.seed)
    rows, cols = core.coeffs[0].shape
    u = _projection_basis(rows, r, rng)
    v = _projection_basis(cols, r, rng)
    coeffs = core.coeffs
    if u is not None:
        uh = u.conj().T
        coeffs = [uh @ c for c in coeffs]
    if v is not None:
        coeffs = [c @ v for c in coeffs]
    pair = first_companion(MatrixPolynomial._derived(tuple(coeffs)))
    lam, x, y, ok, codes = _eigensolve(p, pair, r, cfg, projected=True)
    # classified in core coordinates: one set of products C_j xc serves
    # kappa_bar and the right residual, and the lift runs once, for the
    # returned vectors
    xc, yc = _lift(v, x), _lift(u, y)
    products = [c @ xc for c in core.coeffs]
    kappa = condition_from_products(products, lam, yc)
    kappa[~ok] = np.inf
    accepted = kappa <= cfg.tol
    x, y = _lift(core.right, xc), _lift(core.left, yc)
    # the gate reads only the candidates the threshold kept; eta read on
    # the core is within slack of the exact one, so only a bracket that
    # straddles the gate needs the exact eta of the lifted vectors.  Almost
    # no solve has one (none of 45,000 ladder candidates did), and an empty
    # call still conjugates both balanced coefficients, 0.6 ms at order 400
    kept = np.flatnonzero(accepted)
    eta, slack = core_backward_errors(
        balanced, core, lam[kept], [t[:, kept] for t in products], yc[:, kept]
    )
    gate = residual_tolerance(p.degree * r)
    band = kept[(eta - slack <= gate) & (eta + slack > gate)]
    accepted[kept] = eta + slack <= gate
    if band.size:
        accepted[band] = backward_errors(balanced, lam[band], x[:, band], y[:, band]) <= gate
    return _result(gamma, lam, kappa, accepted, codes, x, y)


def solve_perturbed(p, cfg=None):
    """The paper's solve: perturb at random, accept by condition number.

    The balanced coefficient stack is perturbed jointly (uniformly on the
    unit sphere, scaled by ``epsilon``, drawn from
    ``default_rng(cfg.seed)``), linearized and solved by one
    ``generalized_eig`` call of order m*n: QZ on a singular problem, whose
    perturbed leading coefficient is ill conditioned, ``zgeev`` from
    order 33 on a regular one whose leading coefficient is well
    conditioned.  All finite candidates are classified at once, with the
    balanced, unperturbed coefficients; a candidate whose recovered
    eigenvector block is numerically zero gets ``kappa_bar = inf``, and a
    candidate is accepted when ``kappa_bar <= tol``.  The paper's
    acceptance criteria (through ``verify.empirical_probability``) and the
    studies of the perturbed candidates' condition numbers use this
    solver.  Returns a ``SolveResult`` in the order ``solve_polynomial``
    gives.
    """
    balanced, gamma = _balanced(p)
    cfg = cfg or SolverConfig()
    e = sample_perturbation(p.n, p.degree, np.random.default_rng(cfg.seed))
    pair = first_companion(balanced, e, cfg.epsilon)
    lam, x, y, ok, codes = _eigensolve(p, pair, p.n, cfg, projected=False)
    kappa = condition_numbers(balanced, lam, x, y)
    kappa[~ok] = np.inf
    return _result(gamma, lam, kappa, kappa <= cfg.tol, codes, x, y)


def _balanced(p):
    # (balanced, gamma) of a polynomial the solver supports: the problem
    # solved, and the factor from its eigenvalues to those of p
    if p.degree not in (1, 2):
        raise ValueError(f"no solver for degree {p.degree}; supported degrees are 1 and 2")
    return (p, 1.0) if p.degree == 1 else p.balancing


def _projection_basis(rows, cols, rng):
    # U or V of a projection: the Q factor of a complex Gaussian rows-by-cols
    # matrix, or None, drawing nothing, where the side of the core already
    # has the projected size
    if rows == cols:
        return None
    z = rng.standard_normal((2, rows, cols))
    return np.linalg.qr(z[0] + 1j * z[1])[0]


def _lift(basis, vectors):
    return vectors if basis is None else basis @ vectors


def _eigensolve(p, pair, n, cfg, projected):
    # (lam, x, y, ok, codes) of the finite candidates of a companion pair
    # of block height n: one eigensolver call, then each candidate's
    # eigenvector block read as its form would read it
    if n:
        try:
            dec = generalized_eig(*pair)
        except EigensolverError as exc:
            how = "projected" if projected else f"epsilon={cfg.epsilon:g}"
            raise EigensolverError(
                f"degree-{p.degree} solve failed (seed={cfg.seed!r}, {how}): {exc}"
            ) from exc
        lam, right, left = dec.finite_values, dec.right_vectors, dec.left_vectors
    else:
        # a projected polynomial of normal rank 0: no eigensolver call and
        # no candidate; the 0-by-0 pair stands in for its two vector sets
        lam, (right, left) = np.empty(0, dtype=complex), pair
    # the finite pairs lead the order
    k = lam.size
    # the eigenvector block each form reads, chosen by modulus as the paper
    # chooses the form; both read the eigenvectors of C1, and the
    # large-modulus (C1) candidates are a prefix of the order
    first = int(np.count_nonzero(np.abs(lam) >= 1.0))
    x, y, ok = recover_vectors(right[:, :k], left[:, :k], first, n)
    codes = np.empty(k, dtype=np.int8)
    if p.degree == 1:
        codes[:] = _PENCIL_CODE
    else:
        codes[:first] = _C1_CODE
        codes[first:] = _C1HAT_CODE
    return lam, x, y, ok, codes


def _result(gamma, lam, kappa, accepted, codes, x, y):
    return SolveResult(
        values=gamma * lam,
        kappa_bar=kappa,
        accepted=accepted,
        source_codes=codes,
        right_vectors=x,
        left_vectors=y,
    )
