"""Eigenvalue condition numbers for singular matrix polynomials.

The central scale is the reciprocal condition number of a simple eigenvalue,

    inv_cond = |y* P'(lam) x| / sqrt(sum_j |lam|**(2j)),

computed from unit right/left eigenvectors.  For singular problems the
module also provides the first-order coefficient of an eigenvalue path
under a perturbation stack and the directional sensitivity it induces
(for one stack or screened over a batch of them),
the sensitivity's exact distribution model under uniformly random
perturbations (a ratio of beta variables), probabilistic upper/lower
bounds on the delta-weak condition number, a beta-ratio tail estimate,
the mixing weights of the small "limit pencil" G + zeta*D, whose
eigenvectors describe how perturbed eigenvectors mix kernel directions,
and a lower bound certifying that spurious eigenvalues created from the
singular part are ill conditioned.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .densela import as_matrix
from .matpoly import horner, joint_norm

__all__ = [
    "BadDirectionError",
    "WeakConditionBounds",
    "beta_ratio_lower_tail_bound",
    "condition_from_products",
    "condition_numbers",
    "directional_sensitivities",
    "directional_sensitivity",
    "first_order_coefficient",
    "inverse_condition",
    "limit_weights",
    "pencil_condition",
    "power_sum",
    "quadratic_condition",
    "sensitivity_tail",
    "spurious_condition_bound",
    "weak_condition_bounds",
]

#: condition threshold beyond which the inner perturbation block is treated
#: as numerically singular (the sensitivity blows up along such directions).
#: The screen reads it at call time.  It first tries the bound
#: ``cond2(G) <= ||G||_F**d / |det G|`` of a d-by-d block, which holds since
#: ``sigma_d >= |det G| / sigma_1**(d-1)`` and ``sigma_1 <= ||G||_F``; a block
#: passes on the bound alone where the bound sits a decade or more below
#: this threshold, a margin far wider than slogdet's rounding, and every
#: other block goes to its singular values
BAD_DIRECTION_COND = 1e12


#: the smallest normal double: a squared norm below it may have lost digits
_TINY = np.finfo(float).tiny

#: sqrt(_TINY) = 2**-511 exactly, as a numpy scalar (faster than a float in numpy comparisons)
_ROOT_TINY = np.sqrt(_TINY)


class BadDirectionError(RuntimeError):
    """The perturbation direction makes the inner block numerically singular."""


def power_sum(lam, degree):
    """``sum_{j=0}^{degree} |lam|**(2j)`` (the j = 0 term is always 1), elementwise."""
    a2 = np.abs(lam) ** 2
    # summed left to right; the j = 0 and j = 1 terms are 1 and a2 exactly
    total = a2**0 if degree == 0 else 1.0 + a2
    for j in range(2, degree + 1):
        total = total + a2**j
    return total


def _condition(coeffs, lam, x, y):
    # condition_from_products on the products coeffs[j] @ x; coeffs[0] is
    # read only at degree 0, since P' = 0 there
    x = np.asarray(x, dtype=complex)
    first = min(len(coeffs) - 1, 1)
    return condition_from_products([None] * first + [c @ x for c in coeffs[first:]], lam, y)


def condition_from_products(products, lam, y):
    """Condition numbers from the products ``A_j @ x`` of unit right vectors.

    ``products[j]`` is ``A_j @ x`` (``products[0]`` is read only at degree
    0, times its factor 0, and may be None otherwise), ``y`` the unit left
    vectors; x and y may be column stacks with one ``lam`` per column.
    Gives ``condition_numbers``'s ``sqrt(sum_j |lam|**(2j)) / |y* P'(lam)
    x|``, +inf where the inner product vanishes, with ``P'(lam) x``
    evaluated by Horner's rule on ``j * products[j]``.  A caller that
    needs the products for residuals too computes them once.  For the
    eigentriples of a polynomial lifted from its core (``matpoly.Core``),
    ``x = right x_c`` and ``y = left y_c``, the core's products ``C_j @
    x_c`` and y_c give the polynomial's numbers: ``y* A_j x = y_c* C_j
    x_c`` exactly.
    """
    lam = np.asarray(lam, dtype=complex)
    y = np.asarray(y, dtype=complex)
    degree = len(products) - 1
    # a factor j = 1 is not applied: multiplying by 1 can only flip the sign
    # of a zero component, which |y* P'(lam) x| does not see
    terms = [products[j] if j == 1 else products[j] * j for j in range(min(degree, 1), degree + 1)]
    dx = horner(terms, lam)
    inner = np.abs(np.add.reduce(y.conj() * dx, axis=0))
    # np.errstate costs more than the count (about 4 us of a Monte Carlo
    # trial in a paired A/B), so only a vanishing inner product, whose
    # division gives +inf, enters it
    if np.count_nonzero(inner) == inner.size:
        kappa = np.sqrt(power_sum(lam, degree)) / inner
    else:
        with np.errstate(divide="ignore"):
            kappa = np.sqrt(power_sum(lam, degree)) / inner
    return float(kappa) if kappa.ndim == 0 else kappa


def inverse_condition(p, lam, x, y):
    """Reciprocal eigenvalue condition number from unit eigenvectors.

    Zero output is meaningful: it flags an infinitely ill-conditioned
    (or spurious) eigenvalue.
    """
    return 1.0 / _condition(p.coeffs, lam, np.ravel(x), np.ravel(y))


def condition_numbers(p, lam, x, y):
    """Condition numbers of eigentriples of the matrix polynomial ``p``.

    ``sqrt(sum_j |lam|**(2j)) / |y* P'(lam) x|`` for unit vectors ``x``
    and ``y``, or column stacks of them with one ``lam`` per column, +inf
    where the inner product vanishes.  The coefficients are read as ``p``
    stores them, already checked.  ``pencil_condition`` and
    ``quadratic_condition`` give the same numbers from loose matrices: a
    pencil ``A - lam*B`` stores ``-B``, and ``|y* (-B) x|`` equals
    ``|y* B x|`` exactly.
    """
    return _condition(p.coeffs, lam, x, y)


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


def _batch_of_one(e):
    # one perturbation stack as a (1, m+1, n, n) batch
    return np.asarray(e, dtype=complex)[None]


#: per polynomial, then per ``KernelBases``, then per lam: the anchor
#: ``y* P'(lam) x`` of the first-order coefficient, dropped with the
#: polynomial or the bases.  It depends on the probe alone, and computing it
#: afresh cost a one-direction sensitivity sample about 7 us of 65 (README
#: "One sensitivity sample")
_ANCHORS = weakref.WeakKeyDictionary()


def _anchor(p, lam, bases):
    # y* P'(lam) x, kept in _ANCHORS with the bits of a fresh computation.
    # lam is keyed as a complex, which a numpy scalar and a 0-d array give
    # alike (horner reads every lam as a complex), together with the signs
    # of its parts, since -0.0 == 0.0 as a key but not always in Horner's
    # products.  Callers pass a finite lam only (_joint_norms): a NaN key is
    # never found again
    per_bases = _ANCHORS.get(p)
    if per_bases is None:
        per_bases = _ANCHORS[p] = weakref.WeakKeyDictionary()
    anchors = per_bases.get(bases)
    if anchors is None:
        anchors = per_bases[bases] = {}
    z = complex(lam)
    key = (z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))
    anchor = anchors.get(key)
    if anchor is None:
        anchor = anchors[key] = complex(bases.y.conj() @ p.derivative_at(lam) @ bases.x)
    return anchor


def _projected_perturbations(p, lam, bases, e):
    # G = [Y y]* E(lam) [X x] for every stack of the (k, m+1, n, n) batch e,
    # with E(lam) by Horner's rule over the coefficient axis
    return bases.left.conj().T @ horner(e.swapaxes(0, 1), lam) @ bases.right


def _passes_screen(g, log_det):
    # True where the square block g[i], of order d >= 1, is numerically
    # nonsingular, cond2(g[i]) <= BAD_DIRECTION_COND: the guard shared by
    # the first-order coefficient (on the inner block) and the limit weights
    # (on the whole projected block).  log_det is slogdet's log|det g|.  A
    # block passes on the bound log(||g||_F**d / |det g|) where that is at
    # least a decade below the cutoff: the LU behind slogdet gives the exact
    # determinant of a block within a few roundings of g, which moves a
    # condition number of 1e11 or less by a relative 1e-4 or so, far inside
    # the decade.  Every other block is decided by its singular values: a
    # squared norm that is zero, subnormal (it may have lost digits),
    # infinite or NaN, a singular or NaN block (whose SVD raises), and a
    # bound near or above the cutoff.  Called under
    # np.errstate(divide="ignore", over="ignore", invalid="ignore"), which
    # the caller enters once for this and its own arithmetic
    cutoff = BAD_DIRECTION_COND
    limit = math.log(cutoff / 10.0)
    half_d = 0.5 * g.shape[-1]
    if len(g) == 1:
        # one direction, as a sensitivity sample draws it, in scalars: the
        # numpy calls of the batch form cost about as much as the SVD here
        norm_sq = np.vdot(g, g).real
        ok = np.array([norm_sq >= _TINY and half_d * math.log(norm_sq) - log_det[0] <= limit])
    else:
        norm_sq = np.square(np.abs(g)).sum(axis=(1, 2))
        ok = (norm_sq >= _TINY) & (half_d * np.log(norm_sq) - log_det <= limit)
    if np.count_nonzero(ok) != ok.size:
        rows = np.flatnonzero(~ok)
        s = np.linalg.svd(g[rows], compute_uv=False)
        ok[rows] = s[:, 0] / s[:, -1] <= cutoff
    return ok


def _joint_norms(lam, e):
    # the joint norms of the (k, m+1, n, n) batch e, once lam is finite and
    # each squared norm is a normal, finite number: the one input rule of the
    # four direction statistics, which do not depend on a direction's scale
    # and keep their digits inside it.  sqrt rounds correctly, so the norms
    # lie in [2**-511, 2**512) exactly where their squares pass the screen's
    # >= _TINY and are finite.  Runs under the caller's np.errstate
    if not cmath.isfinite(complex(lam)):
        raise ValueError(f"lam must be finite, got {lam!r}")
    norms = joint_norm(e)
    if len(norms) == 1:
        # one direction, as a sensitivity sample draws it, in scalars: the
        # batch form's numpy calls cost a sample about 1.3 us more (paired
        # rounds, 2-core x86-64)
        bad = [] if _ROOT_TINY <= norms[0] < math.inf else [0]
    else:
        bad = np.flatnonzero(~(np.isfinite(norms) & (norms >= _ROOT_TINY)))
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"perturbation direction {i} has a joint norm of {float(norms[i])!r}, outside "
            "[2**-511, 2**512) where its square is a normal, finite number"
        )
    return norms


def _require_screened(ok):
    if not ok[0]:
        raise BadDirectionError("perturbation direction leaves the inner block numerically singular")


def _first_order_terms(p, lam, bases, e):
    # (joint norms, phase, log magnitude, y* P'(lam) x, screen mask) over the
    # batch e, with c = phase * exp(log magnitude) / anchor where the mask
    # holds.  One np.errstate for the rule, the screen and the division: a
    # second one cost a one-direction sample 2.4-2.7 us (paired rounds,
    # 2-core x86-64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        norms = _joint_norms(lam, e)
        g = _projected_perturbations(p, lam, bases, e)
        inner = g[:, :-1, :-1]
        phase, log_mag = np.linalg.slogdet(g)
        if inner.shape[-1]:
            sign_inner, ld_inner = np.linalg.slogdet(inner)
            ok = _passes_screen(inner, ld_inner)
            phase, log_mag = phase / sign_inner, log_mag - ld_inner
        else:  # the regular case: an empty inner block, of determinant 1, passes
            ok = np.ones(len(g), dtype=bool)
    return norms, phase, log_mag, _anchor(p, lam, bases), ok


def first_order_coefficient(p, lam, bases, e):
    """Signed first-order coefficient c of ``lam(eps) = lam - c*eps + O(eps**2)``.

    ``bases`` is the ``KernelBases`` ``[X x]``, ``[Y y]`` at the simple
    eigenvalue ``lam`` and ``e`` a perturbation stack.  With G the
    kernel-projected perturbation, ``c = det(G) / (det(G11) * y* P'(lam) x)``
    where G11 drops the last row and column; the determinants are evaluated
    in log-magnitude form so the ratio survives large kernel dimensions.
    c is linear in ``e``, and infinite where ``y* P'(lam) x`` vanishes.
    Raises BadDirectionError when G11 is numerically singular, and
    ValueError, naming it, for a NaN or infinite ``lam`` or for an ``e``
    whose squared joint norm is not a normal, finite number (a joint norm
    outside ``[2**-511, 2**512)``: a zero stack, a NaN or infinite entry,
    or a stack scaled that far).
    """
    _, phase, log_mag, anchor, ok = _first_order_terms(p, lam, bases, _batch_of_one(e))
    _require_screened(ok)
    if anchor == 0.0:
        return complex(math.inf)
    return complex(phase[0]) * math.exp(log_mag[0]) / anchor


def directional_sensitivities(p, lam, bases, e):
    """Directional sensitivities of a (k, m+1, n, n) batch of perturbation stacks.

    Returns ``(values, ok)``: ``values[i]`` is the sensitivity along
    ``e[i]`` as ``directional_sensitivity`` defines it, and ``ok[i]`` is
    False where that direction fails the screen on the inner block, whose
    value is then meaningless.  A sensitivity does not depend on the scale
    of its direction.  Raises ValueError for a NaN or infinite ``lam``, and
    for the first direction whose squared joint norm is not a normal,
    finite number (a joint norm outside ``[2**-511, 2**512)``), naming it.
    """
    norms, _, log_mag, anchor, ok = _first_order_terms(p, lam, bases, e)
    if anchor == 0.0:
        return np.full(len(e), math.inf), ok
    return np.exp(log_mag) / (norms * abs(anchor)), ok


def directional_sensitivity(p, lam, bases, e):
    """First-order eigenvalue movement per unit perturbation size.

    ``|first_order_coefficient| / joint_norm(e)``, with the arguments of
    ``first_order_coefficient``; the modulus is formed from the log
    magnitudes without the phase, and does not depend on the scale of
    ``e``.  Raises BadDirectionError and ValueError as
    ``first_order_coefficient`` does.
    """
    values, ok = directional_sensitivities(p, lam, bases, _batch_of_one(e))
    _require_screened(ok)
    return float(values[0])


def limit_weights(p, lam, bases, e):
    """Limit-pencil mixing weights of a (k, m+1, n, n) batch of perturbation stacks.

    Along each direction, G is the kernel-projected perturbation and D the
    projected derivative ``[Y y]* P'(lam) [X x]``.  The limits of the
    perturbed eigenvectors are ``[Y y] a`` and ``[X x] b``, where ``a`` and
    ``b`` are the unit left/right eigenvectors of ``G + zeta*D`` whose last
    entries are nonzero; in closed form ``a = G^{-*} e_last / ||.||`` and
    ``b = G^{-1} e_last / ||.||``, the conjugated last row and the last
    column of one inverse of G.  Returns ``(weights, ok)``: ``weights[i]``
    is ``|a[-1]| * |b[-1]|`` along ``e[i]`` (at most 1), and ``ok[i]`` is
    False where that direction fails the screen on G, whose weight is then
    NaN.  A weight does not depend on the scale of its direction, and keeps
    its bits when the direction is scaled by a power of two.  Raises
    ValueError as ``directional_sensitivities`` does.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _joint_norms(lam, e)
        g = _projected_perturbations(p, lam, bases, e)
        ok = _passes_screen(g, np.linalg.slogdet(g)[1])
    # each block scaled exactly, by the power of two that brings its largest
    # modulus into [1/2, 1): the weights keep their bits under power-of-two
    # scalings of e, and the screened inverse and its norms cannot overflow.
    # |a[-1]| and |b[-1]| both read the inverse's corner
    screened = g[ok]
    _, exponent = np.frexp(np.abs(screened).max(axis=(1, 2)))
    inv = np.linalg.inv(screened * np.ldexp(1.0, -exponent)[:, None, None])
    corner = np.abs(inv[:, -1, -1])
    weights = np.full(len(g), np.nan)
    weights[ok] = corner / np.linalg.norm(inv[:, -1], axis=1) * (corner / np.linalg.norm(inv[:, :, -1], axis=1))
    return weights, ok


def _check_inv_cond(inv_cond):
    # written so that NaN fails, as the checks of solver.SolverConfig are
    if not 0.0 < inv_cond < math.inf:
        raise ValueError("inv_cond must be positive and finite")


def _model_dims(n, m, r):
    # (N, d): N = n**2 * (m + 1) perturbation entries and the corank d = n - r
    # of an order-n, degree-m problem of normal rank r.  NaN fails.
    if not (all(float(v).is_integer() for v in (n, m, r)) and n >= 1 and m >= 1 and 0 <= r <= n):
        raise ValueError(f"need integers n >= 1, m >= 1 and 0 <= r <= n, got {n!r}, {m!r}, {r!r}")
    return n**2 * (m + 1), n - r


def sensitivity_tail(t, inv_cond, n, m, r):
    """Model tail probability ``P(sensitivity >= t)`` under random perturbations.

    For an order-n, degree-m problem of normal rank r, with N = n**2 * (m+1)
    and d = n - r, the model law is ``sqrt(Z_N / Z_{d+1}) / inv_cond`` with
    independent ``Z_k ~ Beta(1, k-1)``; ``Z_1`` degenerates to the constant 1
    (regular case), giving the closed form ``(1 - s)**(N-1)`` for
    ``s = (inv_cond*t)**2 <= 1``.  Otherwise the tail is evaluated by
    adaptive quadrature to absolute tolerance 1e-10.
    """
    if not t >= 0:  # NaN fails too
        raise ValueError("t must be nonnegative")
    _check_inv_cond(inv_cond)
    big_n, d = _model_dims(n, m, r)
    if t == 0:
        return 1.0
    s = (inv_cond * t) ** 2
    if d == 0:
        return float((1.0 - s) ** (big_n - 1)) if s < 1.0 else 0.0
    upper = min(1.0, 1.0 / s)
    import scipy.integrate  # study-only, loaded on first use

    def integrand(z):
        return d * (1.0 - z) ** (d - 1) * (1.0 - s * z) ** (big_n - 1)

    val, _ = scipy.integrate.quad(integrand, 0.0, upper, epsabs=1e-10, epsrel=1e-10)
    return float(min(1.0, max(0.0, val)))


@dataclass(frozen=True)
class WeakConditionBounds:
    """Bounds on the delta-weak condition number of one eigenvalue.

    With N = n**2 * (m + 1) and d = n - r:

    - ``upper = max(1, sqrt(d / (delta*N))) / inv_cond``;
    - ``validity = (N-1) d / ((N+d-2)(N+d-1))`` is the largest delta for
      which the lower bound applies, and 0.0 for a regular problem (d = 0);
    - ``lower = sqrt(validity / delta) / inv_cond`` for ``delta <=
      validity``, else None; the two bounds then sandwich the weak
      condition number and satisfy ``lower <= upper``;
    - ``lower_simple = 1 / (sqrt(N*delta) * inv_cond)``, which ``lower``
      never falls below and equals at corank one.
    """

    delta: float
    n: int
    m: int
    r: int
    upper: float
    lower: float | None
    lower_simple: float
    validity: float

    def __post_init__(self):
        if not math.isfinite(max(self.upper, self.lower_simple)):
            raise ValueError("the bounds overflow; inv_cond is too small")
        if self.lower is not None and self.lower > self.upper * (1 + 1e-12):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def big_n(self):
        """Dimension N = n**2 * (m + 1) of the perturbation space."""
        return _model_dims(self.n, self.m, self.r)[0]


def weak_condition_bounds(delta, inv_cond, n, m, r):
    """Bounds on the delta-weak condition number of a simple eigenvalue.

    ``inv_cond`` is the eigenvalue's reciprocal condition number and the
    problem has order n, degree m and normal rank r; see
    ``WeakConditionBounds`` for the formulas.  Raises ValueError unless
    ``0 < delta < 1``, ``0 < inv_cond < inf``, n, m and r are integers
    with n >= 1, m >= 1 and 0 <= r <= n, and every bound is finite.
    """
    if not 0.0 < delta < 1.0:  # NaN fails too
        raise ValueError("delta must lie in (0, 1)")
    _check_inv_cond(inv_cond)
    big_n, d = _model_dims(n, m, r)
    # num / (den * delta) rounds once where validity / delta would round twice
    num, den = (big_n - 1) * d, (big_n + d - 2) * (big_n + d - 1)
    validity = num / den if d else 0.0
    return WeakConditionBounds(
        delta=delta,
        n=n,
        m=m,
        r=r,
        upper=max(1.0, math.sqrt(d / (delta * big_n))) / inv_cond,
        lower=math.sqrt(num / (den * delta)) / inv_cond if delta <= validity else None,
        lower_simple=1.0 / (math.sqrt(big_n * delta) * inv_cond),
        validity=validity,
    )


def beta_ratio_lower_tail_bound(a, b, c, d, k, t):
    """Upper bound on ``P((X/Y)**(1/k) < t)`` for independent beta variables.

    ``X ~ Beta(a, b)``, ``Y ~ Beta(c, d)``, ``k > 0`` and ``t >= 1``.  The bound is
    ``1 - t**(-c*k) * B(a+c, b+d-1) / (c * B(a,b) * B(c,d))`` evaluated
    through log-beta values; it can legitimately approach 0 at t = 1 (a
    valid cdf bound).  Guaranteed only for ``d >= 1`` (the monotonicity step
    behind it reverses for d < 1) and ``b + d > 1``.
    """
    # written so that NaN fails
    if not all(v > 0 for v in (a, b, c, d, k)):
        raise ValueError("beta parameters and k must be positive")
    if not t >= 1.0:
        raise ValueError("the bound requires t >= 1")
    from scipy.special import betaln  # study-only, loaded on first use

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
