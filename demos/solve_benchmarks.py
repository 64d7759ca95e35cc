"""Solve the built-in singular benchmark problems and classify the output.

Each problem is singular: its determinant vanishes identically, so a plain
dense eigensolver run would return garbage mixed with the true eigenvalues.
The paper's randomized solver (``solver.solve_perturbed``) perturbs the
coefficients by 1e-8, solves the now regular problem, and keeps only
eigenvalues whose condition number stays below 1e4.  The spurious
eigenvalues created from the singular part show up with condition numbers
around 1e8 and beyond, so the threshold separates them cleanly.  The
package's ``solve_polynomial`` projects to the normal rank instead; the
line under each table counts the candidates it accepts.

Run:  python demos/solve_benchmarks.py
"""

import numpy as np

from sqeig import SolverConfig, builtin, solve_polynomial
from sqeig.solver import solve_perturbed
from sqeig.verify import empirical_probability

SHOW = ["ex1", "ex2", "ex4", "ex10", "kagstrom2x2"]

for name in SHOW:
    poly, truth = builtin(name, seed=0)
    results = solve_perturbed(poly, SolverConfig(seed=7))
    print(f"\n=== {name} (order {poly.n}, degree {poly.degree}) ===")
    print(f"known finite eigenvalues: {[f'{t:.6g}' for t in truth.finite_eigenvalues]}")
    print(f"{'eigenvalue':>28s} {'kappa_bar':>12s} {'accepted':>9s} {'source':>7s}")
    for r in results:
        kappa = "inf" if np.isinf(r.kappa_bar) else f"{r.kappa_bar:.3e}"
        print(f"{r.value:>28.6g} {kappa:>12s} {str(r.accepted):>9s} {r.source:>7s}")
    projected = solve_polynomial(poly, SolverConfig(seed=7))
    print(f"projected: {projected.accepted.sum()} accepted of {len(projected)} candidates")

print("\n=== detection probability over 200 randomized runs ===")
for name in ["ex1", "ex2", "ex3", "ex4", "ex5", "ex10"]:
    poly, truth = builtin(name, seed=0)
    report = empirical_probability(poly, truth, SolverConfig(seed=123), 200)
    print(f"{name:12s} p = {report.n_s}/{report.n_t} = {report.p:.3f}")
