"""Monte Carlo harness for the solver and its sensitivity theory.

Reproduces detection probabilities on benchmark problems, compares the
empirical law of the directional sensitivity against its beta-ratio model,
checks the first-order eigenvalue expansion by regression, measures the
effect of companion linearization on reciprocal condition numbers, and
estimates singular spaces by probing near an eigenvalue.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .condition import (
    BadDirectionError,
    directional_sensitivities,
    first_order_coefficient,
    inverse_condition,
    limit_weights,
    pencil_condition,
    spurious_condition_bound,
)
from .densela import generalized_eig, nullspace_basis, singular_values
from .linearize import (
    alternate_companion,
    first_companion,
    left_kernel_basis_alternate,
    left_kernel_basis_first,
    right_kernel_basis,
)
from .matpoly import (
    MATCH_TOL,
    KernelBases,
    TruthSpec,
    gaussian_perturbations,
    seeded_generator,
)
from .solver import SOURCE_C1, SolverConfig, solve_perturbed

# unused here; perfbench/tracing.py patches these verify attributes by name
from .matpoly import sample_perturbation  # noqa: F401
from .solver import solve_polynomial  # noqa: F401

__all__ = [
    "ExpansionReport",
    "ProbeFailureError",
    "RatioReport",
    "TrialOutcome",
    "TrialReport",
    "TruthSpec",
    "empirical_probability",
    "end_to_end_condition_ratios",
    "expansion_order_check",
    "limit_mixing_samples",
    "linearization_ratios",
    "match_accepted",
    "model_sensitivity_samples",
    "sensitivity_distribution_ks",
    "sensitivity_samples",
    "singular_space_estimate",
    "spurious_bound_records",
    "subspace_angle",
]


#: redraws allowed per sampling call for directions failing the bad-direction screen
MAX_RETRIES = 100


class ProbeFailureError(RuntimeError):
    """A nullspace probe did not see the expected kernel dimension."""


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    success: bool
    accepted: tuple
    matched_truth: tuple | None


@dataclass(frozen=True, eq=False)
class TrialReport:
    """Aggregated success count over independent randomized runs."""

    n_t: int
    n_s: int
    trials: tuple | None = None

    def __post_init__(self):
        if not (self.n_t >= 1 and 0 <= self.n_s <= self.n_t):
            raise ValueError(f"need n_t >= 1 and 0 <= n_s <= n_t, got {self.n_t} and {self.n_s}")

    @property
    def p(self):
        return self.n_s / self.n_t


def _matches(value, truth, tol):
    return abs(value - truth) <= tol * max(1.0, abs(truth))


def match_accepted(accepted_values, truth_values, match_tol):
    """Match two eigenvalue multisets within a relative tolerance.

    Both are sequences (or arrays) of numbers.  Returns the truth values
    aligned with the accepted ones, or None when the counts differ or some
    pair exceeds the tolerance (an extra accepted eigenvalue and a missed
    one both count as failure).
    """
    if len(accepted_values) != len(truth_values):
        return None
    if not len(truth_values):
        return []
    accepted = np.asarray(accepted_values, dtype=complex)
    truth = np.asarray(truth_values, dtype=complex)
    cost = np.abs(np.subtract.outer(accepted, truth))
    import scipy.optimize  # loaded on first use, off the solve path

    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    accepted, truth = accepted.tolist(), truth.tolist()
    matched = [None] * len(accepted)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not _matches(accepted[i], truth[j], match_tol):
            return None
        matched[i] = truth[j]
    return matched


def _seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _trial_seeds(seed, count):
    # the count children that a fresh SeedSequence(seed) spawns, built
    # without spawning: spawn advances a caller's SeedSequence, so a second
    # run from the same config would draw other children
    root = _seed_sequence(seed)
    return [
        np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (k,), pool_size=root.pool_size)
        for k in range(count)
    ]


def _count(value, name, least):
    # value as an int of at least least; a float or a bool is a TypeError,
    # and every error names the argument
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"{name} must be at least {least}, got {count}")
    return count


def empirical_probability(problem, truth, cfg, n_t, keep_trials=False):
    """Fraction of randomized runs that recover the truth set exactly.

    A run is one ``solver.solve_perturbed`` solve, the paper's algorithm,
    and succeeds iff its accepted eigenvalues match ``truth`` as a
    multiset under the truth's relative tolerance.  ``n_t``, the number of
    runs, is a positive integer (not a bool).  Run k is seeded with child
    k of ``cfg.seed``, the child that a fresh ``SeedSequence(cfg.seed)``
    (or a ``SeedSequence`` seed that has not spawned) spawns as its k-th,
    so trials are independent and could equally run in parallel, and a
    config gives the same report on every call; aggregation is order
    independent.
    """
    n_t = _count(n_t, "n_t", 1)
    cfg = cfg or SolverConfig()
    n_s = 0
    outcomes = []
    for child in _trial_seeds(cfg.seed, n_t):
        results = solve_perturbed(problem, cfg.with_seed(child))
        matched = match_accepted(
            results.values[results.accepted], truth.finite_eigenvalues, truth.match_tol
        )
        success = matched is not None
        n_s += success
        if keep_trials:
            # per-candidate records only for the accepted ones, and only when kept
            outcomes.append(
                TrialOutcome(
                    success=success,
                    accepted=results.accepted_candidates(),
                    matched_truth=tuple(matched) if success else None,
                )
            )
    return TrialReport(n_t=n_t, n_s=n_s, trials=tuple(outcomes) if keep_trials else None)


def _screened_samples(statistic, poly, lam0, bases, n_samples, rng):
    # statistic(poly, lam0, bases, batch) -> (values, ok) over n_samples
    # independent uniform directions drawn as one batch; the directions ok
    # flags as bad are redrawn in place, in order, at most MAX_RETRIES times
    # over the whole call.  The directions are raw Gaussian stacks, not
    # normalized: each statistic is scale-free and takes the one joint norm
    # it needs by its input rule
    count = _count(n_samples, "sample count", 0)
    rng = seeded_generator(rng)
    batch = gaussian_perturbations(poly.n, poly.degree, count, rng)
    values, ok = statistic(poly, lam0, bases, batch)
    bad = 0
    while not ok.all():
        redo = np.flatnonzero(~ok)
        bad += len(redo)
        if bad > MAX_RETRIES:
            raise BadDirectionError(
                f"more than {MAX_RETRIES} perturbation directions failed the bad-direction screen"
            )
        batch = gaussian_perturbations(poly.n, poly.degree, len(redo), rng)
        values[redo], ok[redo] = statistic(poly, lam0, bases, batch)
    return values


def sensitivity_samples(poly, lam0, bases, n_samples, rng):
    """Directional sensitivities under independent uniform perturbations.

    The directions are drawn as one batch by
    ``matpoly.gaussian_perturbations``: raw Gaussian stacks, uniform in
    direction and not normalized, since a sensitivity does not depend on
    the scale of its direction and ``condition.directional_sensitivities``
    takes each joint norm once, by its input rule.  A direction failing the
    bad-direction screen is redrawn in its place, at most ``MAX_RETRIES``
    times per call, else BadDirectionError is raised.  ``n_samples`` must
    be a nonnegative integer; ``rng`` is a seed or a stream, as
    ``matpoly.seeded_generator`` takes it.
    """
    return _screened_samples(directional_sensitivities, poly, lam0, bases, n_samples, rng)


def _beta_one_samples(b, size, rng):
    # size draws of Beta(1, b) by the inverse CDF 1 - (1 - U)**(1/b), formed
    # as -expm1(log1p(-U) / b) from U = rng.random(size), in place on one
    # array.  U lies in [0, 1), so every draw lies in [0, 1]
    z = rng.random(size)
    np.negative(z, out=z)
    np.log1p(z, out=z)
    z /= b
    np.expm1(z, out=z)
    return np.negative(z, out=z)


def model_sensitivity_samples(big_n, n, r, size, rng):
    """Samples of the model law sqrt(Z_N / Z_{n-r+1}).

    ``Z_k ~ Beta(1, k-1)``, drawn by its inverse CDF ``1 - (1 - U)**(1/(k-1))``,
    evaluated as ``-expm1(log1p(-U) / (k-1))`` from one ``rng.random``
    uniform U per draw: the ``size`` numerators first, then the ``size``
    denominators.  The denominator degenerates to 1 in the regular case
    r = n.  ``big_n`` is an integer of at least 2, ``n`` at least 1, ``r``
    from 0 to n and ``size`` a nonnegative integer, none a bool nor a float,
    else TypeError or ValueError names it.  ``rng`` is a seed or a stream,
    as ``matpoly.seeded_generator`` takes it.
    """
    big_n = _count(big_n, "big_n", 2)
    n = _count(n, "n", 1)
    r = _count(r, "r", 0)
    if r > n:
        raise ValueError(f"r must be at most n = {n}, got {r}")
    size = _count(size, "size", 0)
    rng = seeded_generator(rng)
    z = _beta_one_samples(big_n - 1, size, rng)
    if r < n:
        z /= _beta_one_samples(n - r, size, rng)
    return np.sqrt(z, out=z)


def sensitivity_distribution_ks(poly, lam0, bases, n_samples, rng, model_size=10**6):
    """Two-sample KS distance between scaled sensitivities and the model law.

    The empirical samples are multiplied by the reciprocal condition number
    so both sides are parameter free.  Returns ``(ks, empirical, model)``.
    ``rng`` is a seed or a stream, as ``matpoly.seeded_generator`` takes it.
    """
    rng = seeded_generator(rng)
    gamma = inverse_condition(poly, lam0, bases.x, bases.y)
    emp = gamma * sensitivity_samples(poly, lam0, bases, n_samples, rng)
    r = poly.n - bases.X.shape[1]
    model = model_sensitivity_samples(
        poly.n**2 * (poly.degree + 1), poly.n, r, model_size, rng
    )
    # study-only, loaded on first use; called through the module attribute,
    # which perfbench/tracing.py patches
    import scipy.stats

    return float(scipy.stats.ks_2samp(emp, model).statistic), emp, model


@dataclass(frozen=True, eq=False)
class ExpansionReport:
    exponent: float
    coefficient: complex
    eps: np.ndarray
    remainders: np.ndarray


def expansion_order_check(poly, lam0, bases, e, eps_list):
    """Regression order of the second-order remainder of the eigenvalue path.

    For each eps, the perturbed problem's eigenvalue nearest the first-order
    prediction ``lam0 - coeff*eps`` is tracked and the deviation from that
    prediction recorded; the fitted log-log slope is about 2 when the
    expansion holds.  Needs at least two distinct steps, all positive and
    finite.
    """
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if not ((eps > 0) & (eps < math.inf)).all() or np.unique(eps).size < 2:
        raise ValueError(f"need at least two distinct positive finite steps, got {list(eps_list)}")
    coeff = first_order_coefficient(poly, lam0, bases, e)
    remainders = np.empty_like(eps)
    for i, ep in enumerate(eps):
        lams = generalized_eig(*first_companion(poly, e, ep)).finite_values
        predicted = lam0 - coeff * ep
        lam = lams[np.argmin(np.abs(lams - predicted))]
        remainders[i] = max(abs(lam - predicted), 1e-300)
    slope = np.polyfit(np.log(eps), np.log(remainders), 1)[0]
    return ExpansionReport(
        exponent=float(slope), coefficient=coeff, eps=eps, remainders=remainders
    )


@dataclass(frozen=True)
class RatioReport:
    """Reciprocal-condition ratios between a quadratic and its linearizations."""

    gamma_q: float
    gamma_c1: float
    gamma_c1hat: float

    @property
    def ratio_c1(self):
        return self.gamma_q / self.gamma_c1

    @property
    def ratio_c1hat(self):
        return self.gamma_q / self.gamma_c1hat


def _companion_inverse_conditions(q, bases, lam):
    # reciprocal condition numbers of an eigentriple of the quadratic q on
    # its first and alternate companion forms, with the companions' kernel
    # bases built from q's; returns (gamma_c1, gamma_c1hat)
    x_l = right_kernel_basis(lam, bases)[:, -1]
    _, y_l, _ = left_kernel_basis_first(q, lam, bases)
    _, y_lh, _ = left_kernel_basis_alternate(q, lam, bases)
    gamma_c1 = 1 / pencil_condition(first_companion(q)[1], lam, x_l, y_l)
    gamma_c1hat = 1 / pencil_condition(alternate_companion(q)[1], lam, x_l, y_lh)
    return gamma_c1, gamma_c1hat


def linearization_ratios(instance, lam0):
    """Per-eigenvalue ratios gamma(quadratic) / gamma(linearization).

    ``instance`` must already have unit-norm leading and trailing
    coefficients for the ratio bounds to be meaningful.
    """
    q = instance.polynomial()
    bases = instance.bases(lam0)
    gamma_c1, gamma_c1hat = _companion_inverse_conditions(q, bases, lam0)
    return RatioReport(
        gamma_q=inverse_condition(q, lam0, bases.x, bases.y),
        gamma_c1=gamma_c1,
        gamma_c1hat=gamma_c1hat,
    )


def end_to_end_condition_ratios(instance, cfg):
    """Solver-reported condition inflation of the linearization route.

    Runs the paper's randomized solver (``solver.solve_perturbed``) on the
    instance and returns, for every accepted eigenvalue matched to a designed one,
    ``(value, source, kappa_bar, kappa_bar_lin)``.  ``kappa_bar_lin`` is
    the condition number of the same eigentriple on the balanced,
    unperturbed companion form named by ``source``.
    """
    q = instance.polynomial()
    balanced, gamma = q.balancing
    records = []
    for r in solve_perturbed(q, cfg).accepted_candidates():
        nearest = min(instance.eigenvalues, key=lambda ev: abs(r.value - ev))
        if not _matches(r.value, nearest, MATCH_TOL):
            continue
        bases = KernelBases(X=None, x=r.right_vector, Y=None, y=r.left_vector)
        gammas = _companion_inverse_conditions(balanced, bases, r.value / gamma)
        gamma_lin = gammas[0] if r.source == SOURCE_C1 else gammas[1]
        records.append((r.value, r.source, r.kappa_bar, 1.0 / gamma_lin))
    return records


def limit_mixing_samples(poly, lam0, bases, n_samples, rng):
    """Mixing weights |a_last|*|b_last| of the limit pencil, with the
    induced reciprocal-condition estimates.

    gamma_bar = gamma * weight is the reciprocal condition number seen through
    the perturbed eigenvectors.  Directions are drawn and redrawn as by
    ``sensitivity_samples``, as raw Gaussian stacks: a weight does not
    depend on the scale of its direction, and their joint norms, about
    sqrt(2*n**2*(m+1)), lie far inside the input rule of
    ``condition.limit_weights``, which reads each weight from the last row
    and column of one inverse of the projected block.  Returns
    ``(weights, gamma_bars, gamma)``.
    """
    gamma = inverse_condition(poly, lam0, bases.x, bases.y)
    weights = _screened_samples(limit_weights, poly, lam0, bases, n_samples, rng)
    return weights, gamma * weights, gamma


def subspace_angle(u, v):
    """Largest principal angle (radians) between two column spans."""
    u = np.atleast_2d(np.asarray(u, dtype=complex))
    v = np.atleast_2d(np.asarray(v, dtype=complex))
    if u.shape[1] != v.shape[1]:
        raise ValueError("subspaces must have equal dimension")
    if u.shape[1] == 0:
        return 0.0
    s = np.linalg.svd(u.conj().T @ v, compute_uv=False)
    return float(np.arccos(np.clip(s[-1], -1.0, 1.0)))


def singular_space_estimate(poly, lam0, h, rng):
    """Estimate the right singular space at ``lam0`` by a nearby probe.

    Evaluates the polynomial at ``lam0 + h*exp(i*theta)`` for a phase
    drawn from ``rng``; away from the finitely many rank-dropping points
    the kernel there equals the rational kernel evaluated at the probe, an
    O(h) approximation of the singular space at ``lam0``.  The expected
    kernel dimension is the order minus the normal rank kept on the
    polynomial (``poly.normal_rank``), which draws nothing from ``rng``.
    A probe seeing another dimension is retried with a fresh phase, up to
    five probes in all, else ProbeFailureError is raised.
    """
    # written so that NaN fails, as the checks of SolverConfig are
    if not 0 < h < math.inf:
        raise ValueError("probe radius h must be positive and finite")
    rng = seeded_generator(rng)
    expected_nullity = poly.n - poly.normal_rank
    for _ in range(5):
        mu = lam0 + h * cmath.exp(2j * math.pi * rng.random())
        basis = nullspace_basis(poly.evaluate(mu))
        if basis.shape[1] == expected_nullity:
            return basis
    raise ProbeFailureError(
        f"no probe of radius {h} saw a {expected_nullity}-dimensional kernel near {lam0}"
    )


def spurious_bound_records(poly, cfg, n_runs, truth=()):
    """Measured condition numbers vs. certified bounds for spurious output.

    Runs the paper's randomized solver (``solver.solve_perturbed``)
    repeatedly on the quadratic ``poly``; every finite
    candidate not close to a truth eigenvalue is treated as spurious, and
    whenever the bound's precondition holds the pair (measured kappa_bar,
    certified lower bound) is recorded.  A candidate is close to a truth eigenvalue under the
    matching rule of ``match_accepted`` with tolerance ``MATCH_TOL``.
    ``n_runs`` is a nonnegative integer (not a bool), and run k is seeded
    with child k of ``cfg.seed``, as in ``empirical_probability``.
    Quantities are evaluated on the balanced problem, whose normal rank is
    estimated with the rank cutoff ``densela.RANK_TOL`` (``normal_rank``
    of the balanced polynomial, kept on it).
    """
    n_runs = _count(n_runs, "n_runs", 0)
    scaled_poly, gamma = poly.balancing
    rank = scaled_poly.normal_rank
    records = []
    for child in _trial_seeds(cfg.seed, n_runs):
        for cand in solve_perturbed(poly, cfg.with_seed(child)):
            lam_scaled = cand.value / gamma
            if any(_matches(cand.value, t, MATCH_TOL) for t in truth):
                continue
            s = singular_values(scaled_poly.evaluate(lam_scaled))
            tau = float(s[rank - 1])
            dp_norm = float(
                np.linalg.norm(scaled_poly.derivative_at(lam_scaled), 2)
            )
            bound = spurious_condition_bound(
                tau, cfg.epsilon, lam_scaled, 2, 1.0, dp_norm
            )
            if bound is not None:
                records.append((cand.kappa_bar, bound))
    return records
