"""Eigenvalue condition numbers for singular matrix polynomials.

The central scale is the reciprocal condition number of a simple eigenvalue,

    inv_cond = |y* P'(lam) x| / sqrt(sum_j |lam|**(2j)),

computed from unit right/left eigenvectors.  For singular problems the
module also provides the first-order coefficient of an eigenvalue path
under a perturbation stack and the directional sensitivity it induces,
the sensitivity's exact distribution model under uniformly random
perturbations (a ratio of beta variables), probabilistic upper/lower
bounds on the delta-weak condition number, a beta-ratio tail estimate,
the small "limit pencil" whose eigenvectors describe how perturbed
eigenvectors mix kernel directions, and a lower bound certifying that
spurious eigenvalues created from the singular part are ill conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
from scipy.special import betaln

from .densela import as_matrix
from .matpoly import joint_norm

__all__ = [
    "BadDirectionError",
    "ConditionEstimate",
    "LimitPencil",
    "WeakConditionBounds",
    "beta_ratio_lower_tail_bound",
    "directional_sensitivity",
    "estimate_condition",
    "first_order_coefficient",
    "inverse_condition",
    "limit_pencil",
    "lower_bound_validity",
    "pencil_condition",
    "power_sum",
    "quadratic_condition",
    "sensitivity_tail",
    "spurious_condition_bound",
    "weak_condition_bounds",
    "weak_condition_lower",
    "weak_condition_lower_simple",
    "weak_condition_upper",
]

#: condition threshold beyond which the inner perturbation block is treated
#: as numerically singular (the sensitivity blows up along such directions)
BAD_DIRECTION_COND = 1e12


class BadDirectionError(RuntimeError):
    """The perturbation direction makes the inner block numerically singular."""


def power_sum(lam, degree):
    """``sum_{j=0}^{degree} |lam|**(2j)`` (the j = 0 term is always 1), elementwise."""
    a2 = np.abs(lam) ** 2
    return sum(a2**j for j in range(degree + 1))


def _condition(coeffs, lam, x, y):
    # sqrt(sum_j |lam|**(2j)) / |y* P'(lam) x| for P = sum_j lam**j coeffs[j]
    # (coeffs[0] is never read), +inf where the inner product vanishes.  x and
    # y may be column stacks with one lam per column; P'(lam) x is evaluated
    # by Horner's rule on coeffs[j] @ x.
    lam = np.asarray(lam, dtype=complex)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    degree = len(coeffs) - 1
    dx = degree * (coeffs[degree] @ x)
    for j in range(degree - 1, 0, -1):
        dx = dx * lam + j * (coeffs[j] @ x)
    with np.errstate(divide="ignore"):
        kappa = np.sqrt(power_sum(lam, degree)) / np.abs(np.sum(y.conj() * dx, axis=0))
    return float(kappa) if kappa.ndim == 0 else kappa


def inverse_condition(p, lam, x, y):
    """Reciprocal eigenvalue condition number from unit eigenvectors.

    Zero output is meaningful: it flags an infinitely ill-conditioned
    (or spurious) eigenvalue.
    """
    return 1.0 / _condition(p.coeffs, lam, np.ravel(x), np.ravel(y))


def pencil_condition(b, lam, x, y):
    """Condition number of a pencil eigenvalue: sqrt(1+|lam|^2)/|y* B x|.

    ``x`` and ``y`` are unit vectors, or column stacks of them with one
    ``lam`` per column (the result is then an array).  Returns +inf when
    the inner product vanishes, so callers can compare against an
    acceptance threshold directly.
    """
    return _condition((None, as_matrix(b, "B")), lam, x, y)


def quadratic_condition(m, c, lam, x, y):
    """Condition number of a quadratic eigenvalue.

    ``sqrt(1 + |lam|^2 + |lam|^4) / |y* (2 lam M + C) x|`` with +inf when
    the inner product vanishes; vectorized over columns as
    ``pencil_condition``.
    """
    return _condition((None, as_matrix(c, "C"), as_matrix(m, "M")), lam, x, y)


def _stack_bases(big, single):
    single = np.asarray(single, dtype=complex).reshape(-1, 1)
    if big is None or np.size(big) == 0:
        return single
    return np.hstack([np.asarray(big, dtype=complex), single])


def _projected_perturbation(p, lam, big_x, x, big_y, y, e_coeffs):
    e_lam = np.zeros((p.n, p.n), dtype=complex)
    for j, c in enumerate(e_coeffs):
        e_lam = e_lam + (lam**j) * c
    xs = _stack_bases(big_x, x)
    ys = _stack_bases(big_y, y)
    return ys.conj().T @ e_lam @ xs, xs, ys


def _check_inner_condition(g):
    inner = g[:-1, :-1]
    if inner.size:
        s = np.linalg.svd(inner, compute_uv=False)
        if s[-1] == 0.0 or s[0] / s[-1] > BAD_DIRECTION_COND:
            raise BadDirectionError(
                "perturbation direction leaves the inner block numerically singular"
            )


def _first_order_terms(p, lam, big_x, x, big_y, y, e_coeffs):
    # (phase, log magnitude, y* P'(lam) x) with c = phase * exp(log) / anchor
    g, _, _ = _projected_perturbation(p, lam, big_x, x, big_y, y, e_coeffs)
    _check_inner_condition(g)
    sign_full, ld_full = np.linalg.slogdet(g)
    sign_inner, ld_inner = np.linalg.slogdet(g[:-1, :-1])
    x = np.asarray(x, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    anchor = complex(y.conj() @ p.derivative_at(lam) @ x)
    return complex(sign_full / sign_inner), ld_full - ld_inner, anchor


def first_order_coefficient(p, lam, big_x, x, big_y, y, e):
    """Signed first-order coefficient c of ``lam(eps) = lam - c*eps + O(eps**2)``.

    ``[big_x, x]`` and ``[big_y, y]`` are orthonormal kernel bases at the
    simple eigenvalue ``lam`` whose leading blocks span the right/left
    singular spaces, and ``e`` is a perturbation stack.  With G the
    kernel-projected perturbation, ``c = det(G) / (det(G11) * y* P'(lam) x)``
    where G11 drops the last row and column; the determinants are evaluated
    in log-magnitude form so the ratio survives large kernel dimensions.
    c is infinite where ``y* P'(lam) x`` vanishes.
    """
    e_coeffs = e.coeffs if hasattr(e, "coeffs") else tuple(e)
    phase, log_mag, anchor = _first_order_terms(p, lam, big_x, x, big_y, y, e_coeffs)
    if anchor == 0.0:
        return complex(math.inf)
    return phase * math.exp(log_mag) / anchor


def directional_sensitivity(p, lam, big_x, x, big_y, y, e):
    """First-order eigenvalue movement per unit perturbation size.

    ``|first_order_coefficient| / joint_norm(e)``, with the arguments of
    ``first_order_coefficient``; the modulus is formed from the log
    magnitudes without the phase.
    """
    e_coeffs = e.coeffs if hasattr(e, "coeffs") else tuple(e)
    _, log_mag, anchor = _first_order_terms(p, lam, big_x, x, big_y, y, e_coeffs)
    if anchor == 0.0:
        return math.inf
    return math.exp(log_mag) / (joint_norm(e_coeffs) * abs(anchor))


@dataclass(frozen=True)
class LimitPencil:
    """Projected pencil governing the zero-perturbation limit of eigenvectors.

    ``G`` is the kernel-projected perturbation, ``D`` the projected
    derivative (numerically rank one at a simple eigenvalue), and ``a``,
    ``b`` the unit left/right eigenvectors of ``G + zeta*D`` associated with
    the eigenvector-carrying eigenvalue.  The limits of the perturbed
    eigenvectors are ``[Y y] a`` and ``[X x] b``.
    """

    G: np.ndarray
    D: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def left_weight(self):
        """|last entry of a|; at most 1."""
        return float(abs(self.a[-1]))

    @property
    def right_weight(self):
        """|last entry of b|; at most 1."""
        return float(abs(self.b[-1]))


def limit_pencil(p, lam, big_x, x, big_y, y, e):
    """Compute the limit pencil and its distinguished eigenvector pair.

    The pair is the one whose eigenvectors have a nonzero last component;
    in closed form ``a = G^{-*} e_last / ||.||`` and
    ``b = G^{-1} e_last / ||.||``.
    """
    e_coeffs = e.coeffs if hasattr(e, "coeffs") else tuple(e)
    g, xs, ys = _projected_perturbation(p, lam, big_x, x, big_y, y, e_coeffs)
    s = np.linalg.svd(g, compute_uv=False)
    if s[-1] == 0.0 or s[0] / s[-1] > BAD_DIRECTION_COND:
        raise BadDirectionError("projected perturbation block is numerically singular")
    d = ys.conj().T @ p.derivative_at(lam) @ xs
    e_last = np.zeros(g.shape[0], dtype=complex)
    e_last[-1] = 1.0
    a = np.linalg.solve(g.conj().T, e_last)
    b = np.linalg.solve(g, e_last)
    return LimitPencil(G=g, D=d, a=a / np.linalg.norm(a), b=b / np.linalg.norm(b))


@dataclass(frozen=True)
class ConditionEstimate:
    """Condition statistic of a computed eigenvalue.

    ``gamma_bar`` is the perturbed-eigenvector analogue of the reciprocal
    condition number (never exceeding the unperturbed one) and ``kappa_bar``
    its reciprocal, +inf when ``gamma_bar`` vanishes.
    """

    eigenvalue: complex
    gamma_bar: float
    kappa_bar: float


def estimate_condition(p, lam, big_x, x, big_y, y, e):
    """Condition estimate a random perturbation ``e`` would produce at ``lam``.

    Uses the limit-pencil eigenvector pair, for which the estimate factors
    exactly as inv_cond times the product of the pair's last-component
    moduli; hence ``gamma_bar <= inverse_condition`` always.
    """
    lp = limit_pencil(p, lam, big_x, x, big_y, y, e)
    gamma = inverse_condition(p, lam, x, y)
    gamma_bar = gamma * lp.left_weight * lp.right_weight
    kappa = math.inf if gamma_bar == 0.0 else 1.0 / gamma_bar
    return ConditionEstimate(eigenvalue=lam, gamma_bar=gamma_bar, kappa_bar=kappa)


def sensitivity_tail(t, inv_cond, big_n, n, r):
    """Model tail probability ``P(sensitivity >= t)`` under random perturbations.

    The model law is ``sqrt(Z_N / Z_{n-r+1}) / inv_cond`` with independent
    ``Z_k ~ Beta(1, k-1)``; ``Z_1`` degenerates to the constant 1 (regular
    case), giving the closed form ``(1 - s)**(N-1)`` for ``s = (inv_cond*t)**2
    <= 1``.  Otherwise the tail is evaluated by adaptive quadrature to
    absolute tolerance 1e-10.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1.0
    s = (inv_cond * t) ** 2
    d = n - r
    if d == 0:
        return float((1.0 - s) ** (big_n - 1)) if s < 1.0 else 0.0
    upper = min(1.0, 1.0 / s)

    def integrand(z):
        return d * (1.0 - z) ** (d - 1) * (1.0 - s * z) ** (big_n - 1)

    val, _ = scipy.integrate.quad(integrand, 0.0, upper, epsabs=1e-10, epsrel=1e-10)
    return float(min(1.0, max(0.0, val)))


def weak_condition_upper(delta, inv_cond, big_n, n, r):
    """Upper bound on the delta-weak condition number.

    ``(1/inv_cond) * max(1, sqrt((n-r)/(delta*N)))``; for delta at least
    (n-r)/N the bound is simply 1/inv_cond.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if inv_cond <= 0.0:
        raise ValueError("inv_cond must be positive")
    return max(1.0, math.sqrt((n - r) / (delta * big_n))) / inv_cond


def lower_bound_validity(big_n, n, r):
    """Largest delta for which the weak-condition lower bound applies."""
    d = n - r
    return (big_n - 1) * d / ((big_n + d - 2) * (big_n + d - 1))


def weak_condition_lower(delta, inv_cond, big_n, n, r):
    """Lower bound on the delta-weak condition number (singular case).

    Valid for ``delta <= (N-1)(n-r) / ((N+n-r-2)(N+n-r-1))``; outside that
    range a ValueError is raised.  The bound never falls below the simple
    variant ``1 / (sqrt(N*delta) * inv_cond)``.
    """
    if r >= n:
        raise ValueError("lower bound requires a singular problem (r < n)")
    if inv_cond <= 0.0:
        raise ValueError("inv_cond must be positive")
    vmax = lower_bound_validity(big_n, n, r)
    if not 0.0 < delta <= vmax:
        raise ValueError(f"delta must lie in (0, {vmax:.6g}] for the lower bound")
    d = n - r
    return math.sqrt((big_n - 1) * d / ((big_n + d - 2) * (big_n + d - 1) * delta)) / inv_cond


def weak_condition_lower_simple(delta, inv_cond, big_n):
    """Simplified lower bound ``1 / (sqrt(N*delta) * inv_cond)``."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return 1.0 / (math.sqrt(big_n * delta) * inv_cond)


@dataclass(frozen=True)
class WeakConditionBounds:
    """Upper and lower bounds on a delta-weak condition number.

    ``lower`` is None when ``delta`` lies outside the lower bound's
    validity range (or the problem is regular); otherwise the two bounds
    sandwich the weak condition number and satisfy ``lower <= upper``.
    """

    delta: float
    n: int
    m: int
    r: int
    big_n: int
    upper: float
    lower: float | None

    def __post_init__(self):
        if self.big_n != self.n**2 * (self.m + 1):
            raise ValueError("N must equal n**2 * (m + 1)")
        if self.lower is not None and self.lower > self.upper * (1 + 1e-12):
            raise ValueError("lower bound exceeds upper bound")


def weak_condition_bounds(delta, inv_cond, n, m, r):
    """Evaluate both weak-condition bounds, honoring validity ranges."""
    big_n = n**2 * (m + 1)
    upper = weak_condition_upper(delta, inv_cond, big_n, n, r)
    lower = None
    if r < n and delta <= lower_bound_validity(big_n, n, r):
        lower = weak_condition_lower(delta, inv_cond, big_n, n, r)
    return WeakConditionBounds(
        delta=delta, n=n, m=m, r=r, big_n=big_n, upper=upper, lower=lower
    )


def beta_ratio_lower_tail_bound(a, b, c, d, k, t):
    """Upper bound on ``P((X/Y)**(1/k) < t)`` for independent beta variables.

    ``X ~ Beta(a, b)``, ``Y ~ Beta(c, d)`` and ``t >= 1``.  The bound is
    ``1 - t**(-c*k) * B(a+c, b+d-1) / (c * B(a,b) * B(c,d))`` evaluated
    through log-beta values; it can legitimately approach 0 at t = 1 (a
    valid cdf bound).  Guaranteed only for ``d >= 1`` (the monotonicity step
    behind it reverses for d < 1) and ``b + d > 1``.
    """
    if min(a, b, c, d) <= 0:
        raise ValueError("beta parameters must be positive")
    if t < 1.0:
        raise ValueError("the bound requires t >= 1")
    log_term = (
        betaln(a + c, b + d - 1.0)
        - betaln(a, b)
        - betaln(c, d)
        - math.log(c)
        - c * k * math.log(t)
    )
    return 1.0 - math.exp(log_term)


def spurious_condition_bound(tau, eps, lam, degree, e_norm, dp_norm):
    """Certified condition lower bound for a spurious eigenvalue.

    ``tau`` is the r-th singular value of the unperturbed polynomial at the
    computed eigenvalue ``lam`` (r = normal rank), ``eps`` the perturbation
    size, ``e_norm`` the perturbation's joint norm and ``dp_norm`` the
    2-norm of the polynomial's derivative at ``lam``.  Returns None when the
    precondition ``tau >= 5 * c * eps`` fails (bound not applicable), where
    ``c = sqrt(sum_j |lam|**(2j)) * e_norm``.

    The eps**-2 rate is guaranteed when the problem's rational kernels
    admit lambda-constant minimal bases.  When a minimal basis varies with
    lambda, cross terms between the drifting kernel directions and the
    derivative enter at first order and the measured condition number of a
    spurious eigenvalue scales like eps**-1 instead: still enormous
    compared to any sensible acceptance threshold, but below this bound.
    """
    root_sum = math.sqrt(power_sum(lam, degree))
    c = root_sum * e_norm
    if tau < 5.0 * c * eps:
        return None
    return tau**2 / (eps**2 * 16.0 * root_sum * e_norm**2 * dp_norm)
