"""Randomized solver for singular generalized and quadratic eigenproblems.

One pipeline serves pencils and quadratics: add a small random
perturbation to the coefficients (turning the singular problem into a
regular one almost surely), solve the perturbed problem with a dense
QZ-backed eigensolver, and classify each computed eigenvalue by its
condition number.  Well conditioned eigenvalues approximate true
eigenvalues of the original problem; eigenvalues created from the
perturbed singular part come out violently ill conditioned and are
rejected by the threshold.

A quadratic is balanced first and solved through two companion
linearizations: large-modulus candidates come from the first companion
form, small-modulus ones from the alternate form, and accepted values are
rescaled to the original units.  A pencil is its own linearization.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .condition import pencil_condition, quadratic_condition
from .densela import EigensolverError, generalized_eig
from .linearize import (
    alternate_companion,
    first_companion,
    recover_from_alternate,
    recover_from_first,
)
from .matpoly import MatrixPolynomial, sample_perturbation, scale_quadratic

# unused here; perfbench/tracing.py patches these solver attributes by name
from .densela import as_matrix  # noqa: F401
from .matpoly import pad_to_square  # noqa: F401

__all__ = [
    "ClassifiedEigenvalue",
    "SolverConfig",
    "solve_polynomial",
    "solve_singular_pencil",
    "solve_singular_quadratic",
]

SOURCE_PENCIL = "pencil"
SOURCE_C1 = "C1"
SOURCE_C1HAT = "C1hat"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the randomized solve.

    ``epsilon`` is the perturbation size, ``tol`` the condition-number
    acceptance threshold, ``seed`` anything ``numpy.random.default_rng``
    accepts.
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

    def with_seed(self, seed):
        return dataclasses.replace(self, seed=seed)


@dataclass(frozen=True)
class ClassifiedEigenvalue:
    """A finite computed eigenvalue with its classification.

    ``value`` is in the original problem's units (rescaled where the solver
    balanced the coefficients).  ``kappa_bar`` is the condition number of
    the eigentriple on the balanced, unperturbed problem and may be +inf;
    ``accepted`` is equivalent to ``kappa_bar <= tol``.  ``source`` names
    the linearization the value came from (``pencil``, ``C1`` or
    ``C1hat``); the eigenvectors have unit norm.
    """

    value: complex
    kappa_bar: float
    accepted: bool
    source: str
    right_vector: np.ndarray
    left_vector: np.ndarray


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
    sphere, scaled by ``epsilon``), linearized and solved by QZ.  All
    finite candidates of a QZ call are classified at once, with the
    balanced, unperturbed coefficients; a candidate whose recovered
    eigenvector block is numerically zero gets ``kappa_bar = inf``.
    Returns every finite candidate, ordered by modulus (descending), then
    phase, then source.
    """
    if p.degree not in (1, 2):
        raise ValueError(f"no solver for degree {p.degree}; supported degrees are 1 and 2")
    cfg = cfg or SolverConfig()
    balanced, gamma = (p, 1.0) if p.degree == 1 else scale_quadratic(p)
    e = sample_perturbation(p.n, p.degree, np.random.default_rng(cfg.seed))
    perturbed = balanced.perturbed(e, cfg.epsilon)

    # (source, pencil A, pencil B, keeps |lam| >= 1, eigenvector recovery)
    if p.degree == 1:
        routes = [(SOURCE_PENCIL, perturbed.coeffs[0], -perturbed.coeffs[1], None, None)]
    else:
        routes = [
            (SOURCE_C1, *first_companion(perturbed), True, recover_from_first),
            (SOURCE_C1HAT, *alternate_companion(perturbed), False, recover_from_alternate),
        ]
    out = []
    for source, a, b, large, recover in routes:
        try:
            dec = generalized_eig(a, b, want_left=True)
        except EigensolverError as exc:
            kind = "pencil" if p.degree == 1 else "quadratic"
            raise EigensolverError(
                f"{kind} solve failed (seed={cfg.seed!r}, epsilon={cfg.epsilon:g}): {exc}"
            ) from exc
        finite = dec.finite_mask()
        lam = dec.alphas[finite] / dec.betas[finite]
        x, y = dec.right_vectors[:, finite], dec.left_vectors[:, finite]
        if recover is None:
            kappa = pencil_condition(-balanced.coeffs[1], lam, x, y)
        else:
            keep = (np.abs(lam) >= 1.0) == large
            lam = lam[keep]
            x, y, ok = recover(x[:, keep], y[:, keep])
            m, c = balanced.coeffs[2], balanced.coeffs[1]
            kappa = np.where(ok, quadratic_condition(m, c, lam, x, y), np.inf)
        values = gamma * lam
        out += [
            ClassifiedEigenvalue(
                value=complex(values[i]),
                kappa_bar=float(kappa[i]),
                accepted=bool(kappa[i] <= cfg.tol),
                source=source,
                right_vector=x[:, i],
                left_vector=y[:, i],
            )
            for i in range(lam.size)
        ]
    return tuple(sorted(out, key=lambda r: (-abs(r.value), np.angle(r.value), r.source)))
