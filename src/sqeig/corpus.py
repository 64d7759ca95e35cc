"""Built-in benchmark problems with known finite eigenvalues.

``ex1`` to ``ex8`` are singular quadratic problems, ``ex10`` a rectangular
singular pencil, and ``kagstrom2x2`` the classic 2-by-2 quadratic whose
eigenvalues can be destroyed by adversarial (but only adversarial)
perturbations.  Problems ``ex5``-``ex8`` are generated from structured
coefficients conjugated with random orthonormal factors drawn from the
given seed, so the same seed always yields the same matrices.
"""

from __future__ import annotations

import numpy as np

from .construct import chain_coefficients, diagonal, random_conjugation, random_orthonormal
from .matpoly import MatrixPolynomial, TruthSpec, seeded_generator

__all__ = ["BUILTIN_NAMES", "BUILTIN_NOTES", "builtin", "synth_pencil"]

#: quirks worth knowing before comparing detection counts across problems
BUILTIN_NOTES = {
    "ex7": "reversal of ex6; the zero eigenvalue of ex6 maps to an infinite one,"
    " leaving 7 finite eigenvalues {2, ..., 8}",
    "ex8": "diagonally rescaled variant of ex7 with the same 7 finite eigenvalues"
    " {2, ..., 8}; loose descriptions sometimes quote 8 detected eigenvalues"
    " for this family, which counts the infinite one",
    "ex10": "stored rectangular (4x5); the solver pads it with a zero row",
}


def _ex1(_rng):
    m = [[1, 4, 2], [0, 0, 0], [1, 4, 2]]
    c = [[1, 3, 0], [1, 4, 2], [0, -1, -2]]
    k = [[1, 2, -2], [0, -1, -2], [0, 0, 0]]
    return MatrixPolynomial.quadratic(m, c, k), TruthSpec((1.0,))


def _ex2(_rng):
    m = [[1, 0], [0, 0]]
    c = [[1, 0], [0, 0]]
    k = [[0, 0], [1, 0]]
    return MatrixPolynomial.quadratic(m, c, k), TruthSpec(())


def _ex3(_rng):
    m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    c = [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [0, 0, 0, 0]]
    k = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0]]
    return MatrixPolynomial.quadratic(m, c, k), TruthSpec((0.0,))


def _ex4(_rng):
    m = [[0, 1, 0], [0, 0, 1], [0, 1, 1]]
    c = [[1, -1, 0], [0, 1, -2], [1, 0, -2]]
    k = [[-1, 0, 0], [0, -2, 0], [-1, -2, 0]]
    return MatrixPolynomial.quadratic(m, c, k), TruthSpec((1.0, 2.0))


def _rotated_chain(lambdas, n, rng):
    return random_conjugation(chain_coefficients(lambdas, n), rng, uniform=True)[0]


def _ex5(rng):
    lambdas = [1.0 + 1e-5 * i for i in range(1, 6)]
    m, c, k = _rotated_chain(lambdas, 8, rng)
    return MatrixPolynomial.quadratic(m, c, k), TruthSpec(tuple(lambdas))


def _ex6(rng):
    lambdas = [0.0] + [1.0 / i for i in range(2, 9)]
    m, c, k = _rotated_chain(lambdas, 11, rng)
    return MatrixPolynomial.quadratic(m, c, k), TruthSpec(tuple(lambdas))


def _ex7(rng):
    # reversed problem: eigenvalues invert, the zero one becomes infinite
    return _ex6(rng)[0].reversed(), TruthSpec(tuple(float(i) for i in range(2, 9)))


def _ex8(rng):
    # structural coefficients of the ex7 family (reversed ex6 chain),
    # diagonally rescaled before the one orthonormal conjugation
    lambdas = [0.0] + [1.0 / i for i in range(2, 9)]
    m6, c6, k6 = chain_coefficients(lambdas, 11)
    m7, c7, k7 = k6, c6, m6
    d = np.diag([1.0, 4.0, 2.0, 1.0, 8.0, 1.0, 16.0, 32.0, 64.0, 1.0, 1.0])
    u = random_orthonormal(11, rng, uniform=True)
    v = random_orthonormal(11, rng, uniform=True)
    m = u @ d @ m7 @ d @ v
    c = u @ d @ c7 @ d @ v
    k = u @ d @ k7 @ d @ v
    return MatrixPolynomial.quadratic(m, c, k), TruthSpec(tuple(float(i) for i in range(2, 9)))


def _ex10(_rng):
    a = np.array(
        [
            [1, -2, 100, 0, 0],
            [1, 0, -1, 0, 0],
            [0, 0, 0, 1, -75],
            [0, 0, 0, 0, 2],
        ],
        dtype=complex,
    )
    b = np.array(
        [
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ],
        dtype=complex,
    )
    return MatrixPolynomial.pencil(a, b), TruthSpec((1.0, 2.0))


def _kagstrom2x2(_rng):
    m = [[1, 0], [0, 0]]
    c = [[-3, 0], [0, 0]]
    k = [[2, 0], [0, 0]]
    return MatrixPolynomial.quadratic(m, c, k), TruthSpec((1.0, 2.0))


#: every built-in by name, in the order of BUILTIN_NAMES; each builder takes
#: the seeded generator, which the fixed problems ignore
_BUILDERS = {
    "ex1": _ex1,
    "ex2": _ex2,
    "ex3": _ex3,
    "ex4": _ex4,
    "ex5": _ex5,
    "ex6": _ex6,
    "ex7": _ex7,
    "ex8": _ex8,
    "ex10": _ex10,
    "kagstrom2x2": _kagstrom2x2,
}

BUILTIN_NAMES = tuple(_BUILDERS)


def builtin(name, seed=0):
    """Return ``(polynomial, truth)`` for a named built-in problem.

    ``seed`` only matters for the randomly conjugated problems ex5-ex8,
    but is always checked: a bad one is the ValueError of
    ``matpoly.seeded_generator``, which names it.
    """
    rng = seeded_generator(seed)
    if name not in _BUILDERS:
        raise KeyError(f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    return _BUILDERS[name](rng)


def synth_pencil(size, rank, n_finite=None, seed=0):
    """Random singular pencil with a known regular part.

    ``rank`` of the ``size`` diagonal slots are active: ``n_finite`` of them
    carry simple finite eigenvalues (drawn from the seeded generator on an
    annulus), the remainder are constant entries contributing infinite
    eigenvalues; the rest of the pencil is identically zero before the
    random orthonormal conjugation.  Stands in for benchmark pencils whose
    matrices are not reproducible here.  ``seed`` is checked as by
    ``builtin``.
    """
    if not 0 < rank < size:
        raise ValueError("need 0 < rank < size for a singular pencil")
    n_finite = rank if n_finite is None else n_finite
    if not 0 <= n_finite <= rank:
        raise ValueError("need 0 <= n_finite <= rank")
    rng = seeded_generator(seed)
    moduli = rng.uniform(0.5, 2.0, size=n_finite)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_finite)
    eigenvalues = tuple(m * np.exp(1j * t) for m, t in zip(moduli, phases))
    # unit entries of A past the finite eigenvalues, with B zero, are infinite ones
    a = diagonal(eigenvalues + (1.0,) * (rank - n_finite), size)
    (a, b), _ = random_conjugation((a, diagonal(np.ones(n_finite), size)), rng, uniform=True)
    return MatrixPolynomial.pencil(a, b), TruthSpec(eigenvalues)
