"""Why the solver reads eigenvectors by the companion form suited to |lam|.

Turning a quadratic into a double-size pencil can inflate eigenvalue
condition numbers.  After balancing the outer coefficients to unit norm,
the inflation of the reciprocal condition number is provably at most
about 1.63 for the first companion form on eigenvalues with |lam| >= 1,
and the same for the alternate form on |lam| <= 1; using the wrong form
can be much worse.  This script measures the inflation on constructed
singular quadratics with known kernel bases.

Run:  python demos/linearization_choice.py
"""

import numpy as np

from sqeig.construct import chain_quadratic
from sqeig.solver import SolverConfig
from sqeig.verify import end_to_end_condition_ratios, linearization_ratios

rng = np.random.default_rng(3)

print("gamma(quadratic) / gamma(linearization) by eigenvalue magnitude")
print(f"{'|lam0|':>8s} {'first form':>11s} {'alternate':>10s}")
rows = []
for big in (2.5, 1.6, 1.0, 0.62, 0.4):
    inst, _ = chain_quadratic([big, 0.35 * big], 3, rng=rng).scaled()
    lam0 = inst.eigenvalues[0]
    rep = linearization_ratios(inst, lam0)
    rows.append((abs(lam0), rep.ratio_c1, rep.ratio_c1hat))
for mag, r1, r2 in sorted(rows, reverse=True):
    print(f"{mag:>8.3f} {r1:>11.3f} {r2:>10.3f}")
print("(low ratio = the linearization barely degrades conditioning;")
print(" the first form wins for large |lam|, the alternate for small)\n")

print("end-to-end check on solver output: pencil-level vs quadratic-level")
print("condition number of the same accepted eigentriple")
from sqeig.construct import diagonal_quadratic

worst = 0.0
for i in range(10):
    inst, _ = diagonal_quadratic([(2.0, -0.38), (0.4, -2.1)], 4, rng=rng).scaled()
    for value, source, kq, kl in end_to_end_condition_ratios(inst, SolverConfig(seed=50 + i)):
        worst = max(worst, kl / kq)
        print(f"  lam = {value:>12.4g}  source = {source:6s}  inflation = {kl / kq:.3f}")
print(f"worst inflation observed: {worst:.3f}")
