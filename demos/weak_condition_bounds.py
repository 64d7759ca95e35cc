"""Probabilistic condition bounds sandwich the empirical quantiles.

The delta-weak condition number is the smallest bound the sensitivity
respects with probability 1 - delta.  Closed-form upper and lower bounds
are available; for corank one they collapse to the same value, so the
empirical quantile must land right on them (up to Monte Carlo noise).
The t^-2 tail bound is checked head-on as well.

Run:  python demos/weak_condition_bounds.py
"""

import numpy as np

from sqeig.condition import inverse_condition, weak_condition_bounds
from sqeig.construct import chain_quadratic
from sqeig.verify import sensitivity_samples

rng = np.random.default_rng(7)

instance = chain_quadratic([1.0, 0.5], 3, rng=1)
lam0 = 1.0
poly = instance.polynomial()
n, m, r = poly.n, poly.degree, instance.normal_rank
bases = instance.bases(lam0)
gamma = inverse_condition(poly, lam0, bases.x, bases.y)
sigmas = sensitivity_samples(poly, lam0, bases, 20_000, rng)
deltas = (0.03, 0.02, 0.01, 0.005, 0.002)
records = [weak_condition_bounds(delta, gamma, n, m, r) for delta in deltas]
big_n, validity = records[0].big_n, records[0].validity

print(f"gamma = {gamma:.4f}, N = {big_n}, corank = {n - r}")
print(f"lower bound valid for delta <= {validity:.4f}\n")

print(f"{'delta':>8s} {'lower':>9s} {'(1-d)-quantile':>15s} {'upper':>9s}")
for rec in records:
    q = float(np.quantile(sigmas, 1 - rec.delta))
    lower = "      n/a" if rec.lower is None else f"{rec.lower:9.3f}"
    print(f"{rec.delta:>8.3f} {lower} {q:>15.3f} {rec.upper:>9.3f}")

print(f"\n{'t':>10s} {'P(sigma >= t)':>14s} {'tail bound':>11s}")
for mult in (1.0, 2.0, 5.0, 10.0):
    t = mult / gamma
    emp = float(np.mean(sigmas >= t))
    bound = (n - r) / (gamma**2 * big_n * t**2)
    print(f"{mult:>8.0f}/g {emp:>14.5f} {bound:>11.5f}")
print("(for corank one the tail bound is exact, so Monte Carlo estimates")
print(" straddle it within sampling noise)")
