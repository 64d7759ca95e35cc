"""Well-conditioned eigenvalues of singular quadratic eigenvalue problems
and singular matrix pencils.

Singular problems (identically zero determinant) still have meaningful
finite eigenvalues, but generic numerical methods cannot see them directly.
This package projects such problems to their normal rank, solves the
projected regular problem with a dense eigensolver (through companion
linearizations in the quadratic case), and separates true eigenvalues
from the ones the projection places by an eigenvalue condition number
and a backward error (``solve_polynomial``).  The paper's algorithm
regularizes them with a tiny random perturbation instead and thresholds
the condition number alone (``solver.solve_perturbed``); a Monte Carlo
harness measures it and validates the probabilistic sensitivity theory
its classification relies on.
"""

from .condition import (
    BadDirectionError,
    WeakConditionBounds,
    beta_ratio_lower_tail_bound,
    condition_numbers,
    directional_sensitivity,
    first_order_coefficient,
    inverse_condition,
    pencil_condition,
    quadratic_condition,
    sensitivity_tail,
    spurious_condition_bound,
    weak_condition_bounds,
)
from .construct import (
    SingularProblem,
    chain_quadratic,
    diagonal_pencil,
    diagonal_quadratic,
)
from .corpus import BUILTIN_NAMES, builtin, synth_pencil
from .densela import (
    EigensolverError,
    GeneralizedEigenDecomposition,
    generalized_eig,
    nullspace_basis,
    rank_with_tol,
    singular_values,
)
from .linearize import (
    alternate_companion,
    first_companion,
    left_kernel_basis_alternate,
    left_kernel_basis_first,
    recover_from_alternate,
    recover_from_first,
    recover_vectors,
    right_kernel_basis,
)
from .matpoly import (
    KernelBases,
    MatrixPolynomial,
    TruthSpec,
    joint_norm,
    normal_rank,
    sample_perturbation,
    scale_quadratic,
)
from .probfile import ProblemFile, ProblemFormatError
from .solver import (
    ClassifiedEigenvalue,
    SolveResult,
    SolverConfig,
    solve_polynomial,
    solve_singular_pencil,
    solve_singular_quadratic,
)
from .verify import (
    TrialReport,
    empirical_probability,
    expansion_order_check,
    linearization_ratios,
    sensitivity_distribution_ks,
    singular_space_estimate,
)

__version__ = "0.1.0"
