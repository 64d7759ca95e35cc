"""Problem files and synthetic singular pencils.

Problems travel as plain JSON: coefficients entry-by-entry as [re, im]
pairs, optionally with the known finite eigenvalues as ground truth.  The
synthetic-pencil generator builds singular pencils of any size and normal
rank whose regular part is known by construction, which is handy for
stress-testing detection when no published matrices are available.

Run:  python demos/problem_files_and_synth.py
"""

import pathlib
import tempfile

from sqeig import SolverConfig, solve_polynomial, synth_pencil
from sqeig.probfile import ProblemFile, dump, load
from sqeig.verify import empirical_probability

poly, truth = synth_pencil(size=8, rank=5, n_finite=3, seed=21)
print(f"synthetic pencil: order {poly.n}, normal rank 5, 3 finite eigenvalues")
for t in truth.finite_eigenvalues:
    print(f"  designed eigenvalue {t:.6g}")

with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "pencil.json"
    dump(
        ProblemFile(
            coefficients=poly.coeffs,
            truth=truth.finite_eigenvalues,
            name="demo-pencil",
            source="synthetic",
        ),
        path,
    )
    print(f"\nwrote {path.name} ({path.stat().st_size} bytes), reading it back...")
    pf = load(path)

results = solve_polynomial(pf.to_polynomial(), SolverConfig(seed=2))
print("\nclassified eigenvalues of the problem projected to its normal rank:")
for r in results:
    mark = "ACCEPT" if r.accepted else "reject"
    print(f"  {mark}  {r.value:>24.6g}  kappa = {r.kappa_bar:.3e}")

report = empirical_probability(pf.to_polynomial(), pf.truth_spec(), SolverConfig(seed=3), 200)
print(f"\ndetection probability of the perturbed solve over {report.n_t} runs: {report.p:.3f}")
