"""Randomized solver for singular generalized and quadratic eigenproblems.

One pipeline serves pencils and quadratics: add a small random
perturbation to the coefficients (turning the singular problem into a
regular one almost surely), solve the perturbed problem with a dense
QZ-backed eigensolver, and classify each computed eigenvalue by its
condition number.  Well conditioned eigenvalues approximate true
eigenvalues of the original problem; eigenvalues created from the
perturbed singular part come out violently ill conditioned and are
rejected by the threshold.

A quadratic is balanced first (once per polynomial, see
``MatrixPolynomial.balancing``) and solved by one QZ call on its first
companion form C1.  The alternate form C1hat = L * C1, with the unimodular
L = [[I, C], [0, I]], has the same eigenvalues and right eigenvectors, and
left eigenvectors with the same top block, so both forms' eigenvector
recovery reads the eigenvectors of C1: large-modulus candidates as the
first form would, small-modulus ones as the alternate form would.  Values
are rescaled to the original units.  A pencil is not balanced and is its
own first companion form, whose eigenvectors are read back unchanged.

A solve returns one ``SolveResult``: read-only arrays with one entry (or
column) per finite candidate.  It is also a sequence of
``ClassifiedEigenvalue`` records, built on demand, one per candidate.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .condition import condition_numbers
from .densela import EigensolverError, generalized_eig
from .linearize import first_companion, recover_vectors
from .matpoly import MatrixPolynomial, sample_perturbation

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
    """Knobs of the randomized solve.

    ``epsilon`` is the perturbation size, ``tol`` the condition-number
    acceptance threshold, ``seed`` an int, a sequence of ints, a
    ``SeedSequence`` or None.  A ``Generator`` or ``BitGenerator`` is
    rejected: it is a stream, not a seed, and a config holding one would
    give a different result on every call.
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
        if isinstance(self.seed, (np.random.Generator, np.random.BitGenerator)):
            raise ValueError(
                "seed must be an int, a sequence of ints, a SeedSequence or None, not a generator"
            )

    def with_seed(self, seed):
        return dataclasses.replace(self, seed=seed)


@dataclass(frozen=True, eq=False)
class ClassifiedEigenvalue:
    """A finite computed eigenvalue with its classification.

    ``value`` is in the original problem's units (rescaled where the solver
    balanced the coefficients).  ``kappa_bar`` is the condition number of
    the eigentriple on the balanced, unperturbed problem and may be +inf;
    ``accepted`` is equivalent to ``kappa_bar <= tol``.  ``source`` names
    how the eigenvectors were read: ``pencil``; ``C1``, from the top
    blocks of the first companion form's eigenvectors (|lam| >= 1 on the
    balanced problem); or ``C1hat``, with the right vector from the bottom
    block of C1, as the alternate form would (|lam| < 1).  The eigenvectors
    have unit norm.
    """

    value: complex
    kappa_bar: float
    accepted: bool
    source: str
    right_vector: np.ndarray
    left_vector: np.ndarray


@dataclass(frozen=True, eq=False)
class SolveResult(Sequence):
    """The classified finite candidates of one solve, as read-only arrays.

    Entry i of ``values`` (original units), ``kappa_bar``, ``accepted``
    and ``source_codes`` (indices into ``SOURCES``), and column i of
    ``right_vectors`` and ``left_vectors``, describe candidate i, as the
    fields of ``ClassifiedEigenvalue`` do.  Candidates are in the
    eigensolver's order.  The constructor marks the arrays read-only.  The
    result is also a sequence of ``ClassifiedEigenvalue`` records, built
    on demand; a record's vectors are read-only views of the columns.
    Compares by identity.
    """

    values: np.ndarray
    kappa_bar: np.ndarray
    accepted: np.ndarray
    source_codes: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    def __post_init__(self):
        for f in dataclasses.fields(self):
            getattr(self, f.name).setflags(write=False)

    def __len__(self):
        return self.values.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"candidate index {i} out of range for {len(self)} candidates")
        return ClassifiedEigenvalue(
            value=complex(self.values[i]),
            kappa_bar=float(self.kappa_bar[i]),
            accepted=bool(self.accepted[i]),
            source=SOURCES[self.source_codes[i]],
            right_vector=self.right_vectors[:, i],
            left_vector=self.left_vectors[:, i],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def solve_singular_pencil(a, b, cfg=None):
    """Classified finite eigenvalues of the (possibly singular) pencil ``A - lam*B``."""
    return solve_polynomial(MatrixPolynomial.pencil(a, b), cfg)


def solve_singular_quadratic(m, c, k, cfg=None):
    """Classified finite eigenvalues of ``lam**2 M + lam C + K``."""
    return solve_polynomial(MatrixPolynomial.quadratic(m, c, k), cfg)


def solve_polynomial(p, cfg=None):
    """Finite eigenvalues of a degree-1 or degree-2 matrix polynomial, classified.

    A quadratic is balanced to unit leading/trailing 2-norms.  The
    coefficient stack is then perturbed jointly (uniformly on the unit
    sphere, scaled by ``epsilon``), linearized and solved by one QZ call.
    All finite candidates are classified at once, with the balanced,
    unperturbed coefficients; a candidate whose recovered eigenvector
    block is numerically zero gets ``kappa_bar = inf``.
    Returns a ``SolveResult`` holding every finite candidate in the
    eigensolver's order: modulus (descending), then phase.  For a
    quadratic the |lam| >= 1 candidates of the balanced problem are a
    prefix of that order, so every ``C1`` candidate precedes every
    ``C1hat`` one.
    """
    if p.degree not in (1, 2):
        raise ValueError(f"no solver for degree {p.degree}; supported degrees are 1 and 2")
    cfg = cfg or SolverConfig()
    balanced, gamma = (p, 1.0) if p.degree == 1 else p.balancing
    e = sample_perturbation(p.n, p.degree, np.random.default_rng(cfg.seed))
    perturbed = balanced.perturbed(e, cfg.epsilon)
    try:
        dec = generalized_eig(*first_companion(perturbed), want_left=True)
    except EigensolverError as exc:
        raise EigensolverError(
            f"degree-{p.degree} solve failed (seed={cfg.seed!r}, epsilon={cfg.epsilon:g}): {exc}"
        ) from exc
    finite = dec.finite_mask()
    lam = dec.alphas[finite] / dec.betas[finite]
    # the eigenvector block each form reads, chosen by modulus as the paper
    # chooses the form; both read the eigenvectors of C1, and the
    # large-modulus (C1) candidates are a prefix of the order
    first = int(np.count_nonzero(np.abs(lam) >= 1.0))
    x, y, ok = recover_vectors(
        dec.right_vectors[:, finite], dec.left_vectors[:, finite], first, p.n
    )
    codes = np.full(lam.size, _PENCIL_CODE if p.degree == 1 else _C1HAT_CODE, dtype=np.int8)
    if p.degree == 2:
        codes[:first] = _C1_CODE
    kappa = np.where(ok, condition_numbers(balanced, lam, x, y), np.inf)
    return SolveResult(
        values=gamma * lam,
        kappa_bar=kappa,
        accepted=kappa <= cfg.tol,
        source_codes=codes,
        right_vectors=x,
        left_vectors=y,
    )
