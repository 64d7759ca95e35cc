"""Same-outputs fingerprint: six SHA-256 digests of solver and study outputs.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python .github/fingerprint.py

prints one line per digest:

- ``builtin``: every ``SolveResult`` array (values, kappa_bar, accepted,
  source_codes, right and left vectors) of the built-ins, problem seed 1,
  solver seeds 0-199;
- ``perturbed``: the same arrays of the built-ins through
  ``solve_perturbed``, the paper's algorithm that the Monte Carlo trials
  run, problem seed 1, solver seeds 0-199;
- ``projected_pencil``: the same arrays of projected pencil solves,
  ``synth_pencil(60, 30, seed=s)`` with solver seed s for s = 0-9;
- ``projected_quadratic``: the same arrays of projected quadratic solves,
  a chain quadratic n = 20, r = 10 with solver seeds 0-4;
- ``study``: the study functions of ``verify``, ``condition`` and
  ``matpoly`` on four designed problems, kept Monte Carlo trials of every
  built-in, the perturbation sampler, the model tails and the matcher;
- ``large``: every ``SolveResult`` array of solves whose eigensolver
  runs at order 33 or more, solver seeds 0-4 each:
  ``synth_pencil(80, 40, seed=0)`` and a chain quadratic n = 40, r = 20,
  both projected to order 40, and a regular pencil of order 40, solved
  unprojected and unperturbed (its normal rank is 40), all three with a
  well-conditioned B (``zgeev``), and the chain quadratic through
  ``solve_perturbed`` at order 80, whose B is ill conditioned (QZ).  The
  other digests cover orders below 33 only.

Each array enters its digest with its dtype and shape, then its bytes, so
a change in any bit of any output changes a digest.  A change that claims
to keep every output runs this script on the parent and on the change and
compares the lines; CI also compares two runs under different
``PYTHONHASHSEED``s.

The ``large`` digest depends on the host as well as on the code: its
solves run ``zgeev`` and ``zggev3``, whose blocked steps call the BLAS
kernels that OpenBLAS picks for the CPU at run time and split by its
thread count.  On one 2-core x86-64 host with numpy 2.4.6 and scipy
1.17.1, the same commit printed one ``large`` digest with one OpenBLAS
thread and another with two; the other five digests did not move.  So
the parent and the change are fingerprinted on one host with one BLAS
thread, ``solve-checks.sh`` runs with one BLAS thread, and it prints the
BLAS builds, numpy's CPU dispatch and the thread setting next to the
digests.
"""

import hashlib

import numpy as np

from sqeig.condition import (
    beta_ratio_lower_tail_bound,
    condition_numbers,
    first_order_coefficient,
    inverse_condition,
    sensitivity_tail,
)
from sqeig.construct import (
    chain_quadratic,
    diagonal,
    diagonal_pencil,
    diagonal_quadratic,
    random_conjugation,
)
from sqeig.corpus import BUILTIN_NAMES, builtin, synth_pencil
from sqeig.matpoly import (
    MatrixPolynomial,
    backward_errors,
    sample_perturbation,
    sample_perturbations,
)
from sqeig.solver import SolverConfig, solve_perturbed, solve_polynomial
from sqeig.verify import (
    empirical_probability,
    end_to_end_condition_ratios,
    expansion_order_check,
    limit_mixing_samples,
    linearization_ratios,
    match_accepted,
    sensitivity_distribution_ks,
    sensitivity_samples,
    singular_space_estimate,
    spurious_bound_records,
)


def feed(h, x):
    """Add ``x`` (nested tuples and lists of arrays, numbers, strings and None) to ``h``."""
    if isinstance(x, (tuple, list)):
        h.update(b"(%d" % len(x))
        for item in x:
            feed(h, item)
        h.update(b")")
    elif x is None or isinstance(x, str):
        h.update(repr(x).encode())
    else:
        a = np.ascontiguousarray(x)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def result_arrays(res):
    return (
        res.values, res.kappa_bar, res.accepted, res.source_codes,
        res.right_vectors, res.left_vectors,
    )


def builtin_digest():
    h = hashlib.sha256()
    for name in BUILTIN_NAMES:
        p, _ = builtin(name, seed=1)
        for seed in range(200):
            feed(h, (name, result_arrays(solve_polynomial(p, SolverConfig(seed=seed)))))
    return h.hexdigest()


def perturbed_digest():
    h = hashlib.sha256()
    for name in BUILTIN_NAMES:
        p, _ = builtin(name, seed=1)
        for seed in range(200):
            feed(h, (name, result_arrays(solve_perturbed(p, SolverConfig(seed=seed)))))
    return h.hexdigest()


def projected_pencil_digest():
    h = hashlib.sha256()
    for s in range(10):
        p, _ = synth_pencil(60, 30, seed=s)
        feed(h, result_arrays(solve_polynomial(p, SolverConfig(seed=s))))
    return h.hexdigest()


def projected_quadratic_digest():
    h = hashlib.sha256()
    lams = [0.4 * k * np.exp(0.7j * k) for k in range(1, 11)]
    q = chain_quadratic(lams, 20, rng=0).polynomial()
    for s in range(5):
        feed(h, result_arrays(solve_polynomial(q, SolverConfig(seed=s))))
    return h.hexdigest()


def large_digest():
    h = hashlib.sha256()
    rng = np.random.default_rng(0)
    lams = 1.5 * np.exp(2j * np.pi * rng.random(40)) * rng.uniform(0.5, 1.0, 40)
    (a, b), _ = random_conjugation((diagonal(lams, 40), np.eye(40)), rng)
    problems = [
        synth_pencil(80, 40, seed=0)[0],
        chain_quadratic([0.4 * k * np.exp(0.7j * k) for k in range(1, 21)], 40, rng=0).polynomial(),
        MatrixPolynomial.pencil(a, b),
    ]
    for solve, p in [(solve_polynomial, q) for q in problems] + [(solve_perturbed, problems[1])]:
        for s in range(5):
            feed(h, result_arrays(solve(p, SolverConfig(seed=s))))
    return h.hexdigest()


def _designed_problem_outputs(inst, seed):
    poly = inst.polynomial()
    lam0 = inst.eigenvalues[0]
    bases = inst.bases(lam0)
    e = sample_perturbation(poly.n, poly.degree, seed)
    cfg = SolverConfig(seed=seed)
    rep = expansion_order_check(poly, lam0, bases, e, np.logspace(-4, -7, 7))
    ks, emp, model = sensitivity_distribution_ks(poly, lam0, bases, 200, seed, model_size=10**4)
    out = [
        sensitivity_samples(poly, lam0, bases, 200, seed),
        limit_mixing_samples(poly, lam0, bases, 200, seed),
        (ks, emp, model),
        (rep.exponent, rep.coefficient, rep.eps, rep.remainders),
        first_order_coefficient(poly, lam0, bases, e),
        inverse_condition(poly, lam0, bases.x, bases.y),
        backward_errors(poly, lam0, bases.x, bases.y),
        poly.derivative_at(lam0),
        poly.evaluate(lam0),
        singular_space_estimate(poly, lam0, 1e-3, seed),
    ]
    balanced, gamma = (poly, 1.0) if poly.degree == 1 else poly.balancing
    res = solve_perturbed(poly, cfg)
    lam = res.values / gamma
    out.append(condition_numbers(balanced, lam, res.right_vectors, res.left_vectors))
    out.append(backward_errors(balanced, lam, res.right_vectors, res.left_vectors))
    if poly.degree == 2:
        scaled, _ = inst.scaled()
        rr = linearization_ratios(scaled, scaled.eigenvalues[0])
        out.append((rr.gamma_q, rr.gamma_c1, rr.gamma_c1hat))
        out.append(end_to_end_condition_ratios(inst, cfg))
        out.append(spurious_bound_records(poly, cfg, 3, truth=inst.eigenvalues))
    return out


def study_digest():
    h = hashlib.sha256()
    for name in BUILTIN_NAMES:
        p, truth = builtin(name, seed=1)
        rep = empirical_probability(p, truth, SolverConfig(seed=1), 20, keep_trials=True)
        feed(h, (name, rep.n_t, rep.n_s))
        for t in rep.trials:
            records = [
                (r.value, r.kappa_bar, r.accepted, r.source, r.right_vector, r.left_vector)
                for r in t.accepted
            ]
            feed(h, (t.success, records, t.matched_truth))
    feed(h, sample_perturbations(3, 2, 5, 0))
    problems = [
        chain_quadratic([1.0, 0.5], 3, rng=1),
        chain_quadratic([2.0, 1.0, 0.5], 4, rng=2),
        diagonal_quadratic([(1.0, -1.2), (0.5, 2.0)], 4, rng=6),
        diagonal_pencil([1.0, -2.0], 4, rng=7),
    ]
    for seed, inst in enumerate(problems):
        feed(h, _designed_problem_outputs(inst, seed))
    feed(h, [sensitivity_tail(t, 0.5, 3, 2, r) for t in (0.5, 1.0, 2.0) for r in (2, 3)])
    feed(h, [beta_ratio_lower_tail_bound(1.0, 17.0, 1.0, d, 0.5, t) for d in (1.0, 2.0) for t in (1.0, 3.0)])
    feed(h, match_accepted([1.0, 2.0 + 1e-12, -1j], [-1j, 2.0, 1.0], 1e-8))
    feed(h, match_accepted([1.0, 2.5], [1.0, 2.0], 1e-8))
    return h.hexdigest()


if __name__ == "__main__":
    print("builtin", builtin_digest())
    print("perturbed", perturbed_digest())
    print("projected_pencil", projected_pencil_digest())
    print("projected_quadratic", projected_quadratic_digest())
    print("study", study_digest())
    print("large", large_digest())
