"""Well-conditioned eigenvalues of singular quadratic eigenvalue problems
and singular matrix pencils.

Singular problems (identically zero determinant) still have meaningful
finite eigenvalues, but generic numerical methods cannot see them directly.
This package regularizes such problems with a tiny random perturbation,
solves the perturbed regular problem with a dense QZ-backed eigensolver
(through companion linearizations in the quadratic case), and separates
true eigenvalues from the spurious ones created out of the singular part by
thresholding an eigenvalue condition number.  A Monte Carlo harness
validates the probabilistic sensitivity theory the classification relies
on.
"""

from .condition import (
    BadDirectionError,
    ConditionEstimate,
    LimitPencil,
    WeakConditionBounds,
    beta_ratio_lower_tail_bound,
    directional_sensitivity,
    estimate_condition,
    first_order_coefficient,
    inverse_condition,
    limit_pencil,
    lower_bound_validity,
    pencil_condition,
    quadratic_condition,
    sensitivity_tail,
    spurious_condition_bound,
    weak_condition_bounds,
    weak_condition_lower,
    weak_condition_lower_simple,
    weak_condition_upper,
)
from .construct import (
    KernelBases,
    SingularPencil,
    SingularQuadratic,
    chain_quadratic,
    diagonal_pencil,
    diagonal_quadratic,
)
from .corpus import BUILTIN_NAMES, builtin, synth_pencil
from .densela import (
    EigensolverError,
    GeneralizedEigenDecomposition,
    Svd,
    generalized_eig,
    nullspace_basis,
    rank_with_tol,
    svd,
)
from .linearize import (
    alternate_companion,
    first_companion,
    left_kernel_basis_alternate,
    left_kernel_basis_first,
    recover_from_alternate,
    recover_from_first,
    right_kernel_basis,
)
from .matpoly import (
    MatrixPolynomial,
    PerturbationSample,
    ScalingInfo,
    TruthSpec,
    joint_norm,
    normal_rank,
    sample_perturbation,
    scale_quadratic,
)
from .probfile import ProblemFile, ProblemFormatError
from .solver import (
    ClassifiedEigenvalue,
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
