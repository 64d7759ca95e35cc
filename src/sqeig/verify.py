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
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.stats

from .condition import (
    BadDirectionError,
    first_order_coefficient,
    inverse_condition,
    limit_pencil,
    spurious_condition_bound,
)
from .densela import generalized_eig, nullspace_basis, svd
from .linearize import (
    alternate_companion,
    first_companion,
    left_kernel_basis_alternate,
    left_kernel_basis_first,
    right_kernel_basis,
)
from .matpoly import (
    MatrixPolynomial,
    TruthSpec,
    normal_rank,
    sample_perturbation,
    scale_quadratic,
)
from .solver import SolverConfig, solve_polynomial, solve_singular_quadratic

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


class ProbeFailureError(RuntimeError):
    """A nullspace probe did not see the expected kernel dimension."""


@dataclass(frozen=True)
class TrialOutcome:
    success: bool
    accepted: tuple
    matched_truth: tuple | None


@dataclass(frozen=True)
class TrialReport:
    """Aggregated success count over independent randomized runs."""

    n_t: int
    n_s: int
    trials: tuple | None = None

    def __post_init__(self):
        if not 0 <= self.n_s <= self.n_t:
            raise ValueError("need 0 <= n_s <= n_t")

    @property
    def p(self):
        return self.n_s / self.n_t


def match_accepted(accepted_values, truth_values, match_tol):
    """Match two eigenvalue multisets within a relative tolerance.

    Returns the truth values aligned with the accepted ones, or None when
    the counts differ or some pair exceeds the tolerance (an extra accepted
    eigenvalue and a missed one both count as failure).
    """
    accepted_values = [complex(v) for v in accepted_values]
    truth_values = [complex(v) for v in truth_values]
    if len(accepted_values) != len(truth_values):
        return None
    if not accepted_values:
        return []
    cost = np.array(
        [[abs(a - t) for t in truth_values] for a in accepted_values], dtype=float
    )
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    matched = [None] * len(accepted_values)
    for i, j in zip(rows, cols):
        if cost[i, j] > match_tol * max(1.0, abs(truth_values[j])):
            return None
        matched[i] = truth_values[j]
    return matched


def _seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def empirical_probability(problem, truth, cfg, n_t, keep_trials=False):
    """Fraction of randomized runs that recover the truth set exactly.

    A run succeeds iff its accepted eigenvalues match ``truth`` as a
    multiset under the truth's relative tolerance.  Per-trial seeds are
    spawned deterministically from ``cfg.seed``, so trials are independent
    and could equally run in parallel; aggregation is order independent.
    """
    if n_t < 1:
        raise ValueError("need at least one trial")
    cfg = cfg or SolverConfig()
    children = _seed_sequence(cfg.seed).spawn(n_t)
    n_s = 0
    outcomes = []
    for child in children:
        results = solve_polynomial(problem, cfg.with_seed(child))
        accepted = tuple(r for r in results if r.accepted)
        matched = match_accepted(
            [r.value for r in accepted], truth.finite_eigenvalues, truth.match_tol
        )
        success = matched is not None
        n_s += success
        if keep_trials:
            outcomes.append(
                TrialOutcome(
                    success=success,
                    accepted=accepted,
                    matched_truth=tuple(matched) if success else None,
                )
            )
    return TrialReport(n_t=n_t, n_s=n_s, trials=tuple(outcomes) if keep_trials else None)


def _per_direction(statistic, poly, lam0, bases, n_samples, rng, max_retries):
    # statistic(poly, lam0, X, x, Y, y, e) for n_samples independent uniform
    # directions e; a direction raising BadDirectionError is redrawn, at most
    # max_retries times over the whole call
    out = []
    bad = 0
    while len(out) < n_samples:
        e = sample_perturbation(poly.n, poly.degree, rng)
        try:
            out.append(statistic(poly, lam0, bases.X, bases.x, bases.Y, bases.y, e))
        except BadDirectionError:
            bad += 1
            if bad > max_retries:
                raise
    return out


def sensitivity_samples(poly, lam0, bases, n_samples, rng, max_retries=100):
    """Directional sensitivities under independent uniform perturbations."""
    from .condition import directional_sensitivity

    rng = np.random.default_rng(rng)
    return np.array(
        _per_direction(directional_sensitivity, poly, lam0, bases, n_samples, rng, max_retries),
        dtype=float,
    )


def model_sensitivity_samples(big_n, n, r, size, rng):
    """Samples of the model law sqrt(Z_N / Z_{n-r+1}).

    ``Z_k ~ Beta(1, k-1)``; the denominator degenerates to 1 in the regular
    case r = n.
    """
    rng = np.random.default_rng(rng)
    zn = rng.beta(1.0, big_n - 1.0, size=size)
    d = n - r
    if d == 0:
        return np.sqrt(zn)
    return np.sqrt(zn / rng.beta(1.0, float(d), size=size))


def sensitivity_distribution_ks(poly, lam0, bases, n_samples, rng, model_size=10**6):
    """Two-sample KS distance between scaled sensitivities and the model law.

    The empirical samples are multiplied by the reciprocal condition number
    so both sides are parameter free.  Returns ``(ks, empirical, model)``.
    """
    rng = np.random.default_rng(rng)
    gamma = inverse_condition(poly, lam0, bases.x, bases.y)
    emp = gamma * sensitivity_samples(poly, lam0, bases, n_samples, rng)
    r = poly.n - bases.X.shape[1]
    model = model_sensitivity_samples(
        poly.n**2 * (poly.degree + 1), poly.n, r, model_size, rng
    )
    return float(scipy.stats.ks_2samp(emp, model).statistic), emp, model


def _finite_eigenvalues(poly):
    if poly.degree == 1:
        a, b = poly.coeffs[0], -poly.coeffs[1]
    elif poly.degree == 2:
        a, b = first_companion(poly.coeffs[2], poly.coeffs[1], poly.coeffs[0])
    else:
        raise ValueError("only degrees 1 and 2 are supported")
    dec = generalized_eig(a, b, want_left=False)
    mask = dec.finite_mask()
    return dec.alphas[mask] / dec.betas[mask]


@dataclass(frozen=True)
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
    expansion holds.
    """
    e_coeffs = e.coeffs if hasattr(e, "coeffs") else tuple(e)
    coeff = first_order_coefficient(poly, lam0, bases.X, bases.x, bases.Y, bases.y, e_coeffs)
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    remainders = np.empty_like(eps)
    for i, ep in enumerate(eps):
        lams = _finite_eigenvalues(poly.perturbed(e_coeffs, ep))
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

    lam0: complex
    c_norm: float
    gamma_q: float
    gamma_c1: float
    gamma_c1hat: float
    beta_c1: float
    beta_c1hat: float

    @property
    def ratio_c1(self):
        return self.gamma_q / self.gamma_c1

    @property
    def ratio_c1hat(self):
        return self.gamma_q / self.gamma_c1hat


def _companion_inverse_conditions(m, c, k, big_x, x, big_y, y, lam):
    # reciprocal condition numbers of an eigentriple on the first and the
    # alternate companion form, with the companions' kernel bases built from
    # the quadratic's; returns (gamma_c1, beta_c1, gamma_c1hat, beta_c1hat)
    x_l = right_kernel_basis(big_x, x, lam)[:, -1]
    _, y_l, beta = left_kernel_basis_first(big_y, y, lam, m, c)
    _, y_lh, beta_hat = left_kernel_basis_alternate(big_y, y, lam, m)
    c1 = MatrixPolynomial.pencil(*first_companion(m, c, k))
    c1hat = MatrixPolynomial.pencil(*alternate_companion(m, c, k))
    gamma_c1 = inverse_condition(c1, lam, x_l, y_l)
    gamma_c1hat = inverse_condition(c1hat, lam, x_l, y_lh)
    return gamma_c1, beta, gamma_c1hat, beta_hat


def linearization_ratios(instance, lam0):
    """Per-eigenvalue ratios gamma(quadratic) / gamma(linearization).

    ``instance`` must already have unit-norm leading and trailing
    coefficients for the ratio bounds to be meaningful.
    """
    bases = instance.bases(lam0)
    gamma_c1, beta, gamma_c1hat, beta_hat = _companion_inverse_conditions(
        instance.M, instance.C, instance.K, bases.X, bases.x, bases.Y, bases.y, lam0
    )
    return RatioReport(
        lam0=complex(lam0),
        c_norm=float(np.linalg.norm(instance.C, 2)),
        gamma_q=inverse_condition(instance.polynomial(), lam0, bases.x, bases.y),
        gamma_c1=gamma_c1,
        gamma_c1hat=gamma_c1hat,
        beta_c1=beta,
        beta_c1hat=beta_hat,
    )


def end_to_end_condition_ratios(instance, cfg, match_tol=1e-4):
    """Solver-reported condition inflation of the linearization route.

    Runs the randomized quadratic solver on the instance and returns, for
    every accepted eigenvalue matched to a designed one,
    ``(value, source, kappa_bar, kappa_bar_lin)``.  ``kappa_bar_lin`` is
    the condition number of the same eigentriple on the balanced,
    unperturbed companion form named by ``source``.
    """
    m_s, c_s, k_s, info = scale_quadratic(instance.M, instance.C, instance.K)
    empty = np.zeros((instance.n, 0))
    records = []
    for r in solve_singular_quadratic(instance.M, instance.C, instance.K, cfg):
        if not r.accepted:
            continue
        dists = [abs(r.value - ev) for ev in instance.eigenvalues]
        j = int(np.argmin(dists))
        if dists[j] > match_tol * max(1.0, abs(instance.eigenvalues[j])):
            continue
        gamma_c1, _, gamma_c1hat, _ = _companion_inverse_conditions(
            m_s, c_s, k_s, empty, r.right_vector, empty, r.left_vector, r.value / info.gamma
        )
        gamma_lin = gamma_c1 if r.source == "C1" else gamma_c1hat
        records.append((r.value, r.source, r.kappa_bar, 1.0 / gamma_lin))
    return records


def limit_mixing_samples(poly, lam0, bases, n_samples, rng, max_retries=100):
    """Mixing weights |a_last|*|b_last| of the limit pencil, with the
    induced reciprocal-condition estimates.

    Returns ``(weights, gamma_bars, gamma)``.
    """
    rng = np.random.default_rng(rng)
    gamma = inverse_condition(poly, lam0, bases.x, bases.y)
    pencils = _per_direction(limit_pencil, poly, lam0, bases, n_samples, rng, max_retries)
    weights = np.array([lp.left_weight * lp.right_weight for lp in pencils], dtype=float)
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


def singular_space_estimate(
    poly, lam0, h, rng=None, rank_tol=1e-10, max_attempts=5, expected_nullity=None
):
    """Estimate the right singular space at ``lam0`` by a nearby probe.

    Evaluates the polynomial at ``lam0 + h*exp(i*theta)`` for a random
    phase; away from the finitely many rank-dropping points the kernel
    there equals the rational kernel evaluated at the probe, an O(h)
    approximation of the singular space at ``lam0``.  Probes seeing an
    unexpected kernel dimension are retried with a fresh phase.  The
    expected dimension defaults to order minus estimated normal rank.
    """
    if h <= 0:
        raise ValueError("probe radius h must be positive")
    rng = np.random.default_rng(rng)
    if expected_nullity is None:
        expected_nullity = poly.n - normal_rank(poly, rng=rng, rank_tol=rank_tol)
    expected = expected_nullity
    for _ in range(max_attempts):
        mu = lam0 + h * cmath.exp(2j * math.pi * rng.random())
        basis = nullspace_basis(poly.evaluate(mu), rank_tol)
        if basis.shape[1] == expected:
            return basis
    raise ProbeFailureError(
        f"no probe of radius {h} saw a {expected}-dimensional kernel near {lam0}"
    )


def spurious_bound_records(m, c, k, cfg, n_runs, truth=(), match_tol=1e-4, rank_tol=1e-10):
    """Measured condition numbers vs. certified bounds for spurious output.

    Runs the quadratic solver repeatedly; every finite candidate not close
    to a truth eigenvalue is treated as spurious, and whenever the bound's
    precondition holds the pair (measured kappa_bar, certified lower bound)
    is recorded.  Quantities are evaluated on the balanced problem, whose
    normal rank is estimated with the relative tolerance ``rank_tol``.
    """
    m_s, c_s, k_s, info = scale_quadratic(m, c, k)
    scaled_poly = MatrixPolynomial.quadratic(m_s, c_s, k_s)
    children = _seed_sequence(cfg.seed).spawn(n_runs)
    rank = normal_rank(scaled_poly, rng=np.random.default_rng(0), rank_tol=rank_tol)
    records = []
    for child in children:
        for cand in solve_singular_quadratic(m, c, k, cfg.with_seed(child)):
            lam_scaled = cand.value / info.gamma
            if any(
                abs(cand.value - t) <= match_tol * max(1.0, abs(t)) for t in truth
            ):
                continue
            s = svd(scaled_poly.evaluate(lam_scaled)).singular_values
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
