"""Built-in benchmark problems: exact matrices, structure, determinism."""

import numpy as np
import pytest

from conftest import assert_multiset_close
from sqeig.construct import chain_quadratic, diagonal_pencil
from sqeig.corpus import BUILTIN_NAMES, BUILTIN_NOTES, builtin, synth_pencil
from sqeig.matpoly import normal_rank
from sqeig.solver import SolverConfig, solve_polynomial


def test_all_names_construct():
    for name in BUILTIN_NAMES:
        poly, truth = builtin(name, seed=0)
        assert poly.n == poly.coeffs[0].shape[0]
        assert truth.finite_eigenvalues is not None


def test_unknown_name():
    with pytest.raises(KeyError, match="unknown"):
        builtin("ex99")


def test_ex1_printed_matrices_and_rank():
    poly, truth = builtin("ex1")
    np.testing.assert_array_equal(
        poly.coeffs[2].real, [[1, 4, 2], [0, 0, 0], [1, 4, 2]]
    )
    assert truth.finite_eigenvalues == (1.0 + 0j,)
    assert normal_rank(poly, rng=0) == 2


def test_ex2_no_finite_eigenvalues():
    poly, truth = builtin("ex2")
    assert truth.finite_eigenvalues == ()
    assert normal_rank(poly, rng=0) == 1


def test_ex5_truth_values():
    _, truth = builtin("ex5", seed=3)
    expected = tuple(1.0 + 1e-5 * i for i in range(1, 6))
    assert truth.finite_eigenvalues == expected


def test_ex7_is_reversal_of_ex6():
    poly6, truth6 = builtin("ex6", seed=11)
    poly7, truth7 = builtin("ex7", seed=11)
    rev = poly6.reversed()
    for a, b in zip(rev.coeffs, poly7.coeffs):
        np.testing.assert_array_equal(a, b)
    assert truth7.finite_eigenvalues == tuple(float(i) for i in range(2, 9))
    assert len(truth6.finite_eigenvalues) == 8


def test_ex8_metadata_note_flags_count_discrepancy():
    assert "ex8" in BUILTIN_NOTES
    assert "infinite" in BUILTIN_NOTES["ex8"]
    _, truth = builtin("ex8", seed=0)
    assert len(truth.finite_eigenvalues) == 7


def test_ex10_rectangular_padded():
    poly, truth = builtin("ex10")
    assert poly.n == 5
    assert poly.degree == 1
    # original data sits in the top 4 rows; the padding row is zero
    assert np.all(poly.coeffs[0][4, :] == 0)
    assert truth.finite_eigenvalues == (1.0 + 0j, 2.0 + 0j)


def test_seeded_problems_deterministic():
    for name in ("ex5", "ex6", "ex7", "ex8"):
        p1, _ = builtin(name, seed=5)
        p2, _ = builtin(name, seed=5)
        p3, _ = builtin(name, seed=6)
        for a, b in zip(p1.coeffs, p2.coeffs):
            np.testing.assert_array_equal(a, b)
        assert any(
            not np.array_equal(a, b) for a, b in zip(p1.coeffs, p3.coeffs)
        )


def test_designed_eigenvalues_are_detected():
    # spot-check that the seeded constructions really carry their truth
    poly, truth = builtin("ex5", seed=1)
    res = solve_polynomial(poly, SolverConfig(seed=2))
    accepted = [r.value for r in res if r.accepted]
    assert_multiset_close(accepted, truth.finite_eigenvalues, rtol=1e-4)


def test_synth_pencil_known_regular_part():
    poly, truth = synth_pencil(6, 3, seed=9)
    assert poly.degree == 1
    assert normal_rank(poly, rng=0) == 3
    res = solve_polynomial(poly, SolverConfig(seed=10))
    accepted = [r.value for r in res if r.accepted]
    assert_multiset_close(accepted, truth.finite_eigenvalues, rtol=1e-4)


def test_synth_pencil_with_infinite_part():
    poly, truth = synth_pencil(6, 4, n_finite=2, seed=11)
    assert len(truth.finite_eigenvalues) == 2
    assert normal_rank(poly, rng=0) == 4
    res = solve_polynomial(poly, SolverConfig(seed=12))
    accepted = [r.value for r in res if r.accepted]
    assert_multiset_close(accepted, truth.finite_eigenvalues, rtol=1e-4)


def test_synth_pencil_validation():
    with pytest.raises(ValueError):
        synth_pencil(4, 4)
    with pytest.raises(ValueError):
        synth_pencil(4, 2, n_finite=3)


# Frobenius norm of every coefficient, then entries [0, 1] and [-1, 0] of
# every coefficient, in ascending powers.  The benchmark and the acceptance
# suite solve these recipes, so a changed draw order or conjugation would
# silently change their problems.
PINNED = {
    "ex5": (
        (2.2361350597627148, 3.1623250948471444, 2.23606797749979),
        (
            (-0.3725814788440932, -0.1066801043970135),
            (-0.20887427186745847, 0.2806085884003097),
            (0.5814277789242227, -0.1739270273008878),
        ),
    ),
    "ex6": (
        (0.7262382888241262, 2.920175003686285, 2.82842712474619),
        (
            (-0.0700974306016226, -0.01507407854124538),
            (0.3728703704849092, 0.09474178608177289),
            (0.08402817616317595, 0.045807221547265506),
        ),
    ),
    "ex7": (
        (2.82842712474619, 2.920175003686285, 0.7262382888241262),
        (
            (0.08402817616317595, 0.045807221547265506),
            (0.3728703704849092, 0.09474178608177289),
            (-0.0700974306016226, -0.01507407854124538),
        ),
    ),
    "ex8": (
        (2111.1409237661032, 1090.5957056153186, 133.98200417709327),
        (
            (-211.73506493891554, -129.7925435315596),
            (-3.0817901994120396, -96.09055550474254),
            (3.7790247218915725, 13.356490906737838),
        ),
    ),
    "synth_pencil": (
        (2.4307762472254044, 2.0),
        (
            (
                complex(0.3442134747042115, -0.10015975429739182),
                complex(0.025893922419216238, 0.0013566461931770228),
            ),
            (0.19210887102547888, -0.15038811645962333),
        ),
    ),
    "chain_quadratic": (
        (2.0615528128088303, 2.5, 1.414213562373095),
        (
            (1.029590120288746, 0.0026861994895305418),
            (-0.577013075071171, -0.3936742053745631),
            (-0.17748112492301868, 0.19456472009573608),
        ),
    ),
    "diagonal_pencil": (
        (2.2360679774997894, 1.414213562373095),
        ((1.6675158767351537, 0.6752536403554027), (-0.8500321269268578, -0.682743334839243)),
    ),
}

PINNED_RECIPES = {
    "ex5": lambda: builtin("ex5", seed=0)[0],
    "ex6": lambda: builtin("ex6", seed=0)[0],
    "ex7": lambda: builtin("ex7", seed=0)[0],
    "ex8": lambda: builtin("ex8", seed=0)[0],
    "synth_pencil": lambda: synth_pencil(8, 4, seed=3)[0],
    "chain_quadratic": lambda: chain_quadratic([0.5, 2.0], 4, rng=1).polynomial(),
    "diagonal_pencil": lambda: diagonal_pencil([1.0, 2.0], 3, rng=2).polynomial(),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_constructed_matrices_pinned(name):
    norms, entries = PINNED[name]
    coeffs = PINNED_RECIPES[name]().coeffs
    np.testing.assert_allclose([np.linalg.norm(c) for c in coeffs], norms, rtol=1e-14)
    np.testing.assert_allclose([(c[0, 1], c[-1, 0]) for c in coeffs], entries, rtol=1e-14)
