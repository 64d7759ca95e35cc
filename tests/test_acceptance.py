"""Acceptance suite.

Each test prints one summary line per criterion so a full run doubles as an
acceptance report:

    pytest -s tests/test_acceptance.py
"""

import math

import numpy as np
import pytest

from conftest import assert_multiset_close
from sqeig.condition import inverse_condition, weak_condition_bounds
from sqeig.construct import chain_quadratic, diagonal_quadratic
from sqeig.corpus import builtin, synth_pencil
from sqeig.densela import (
    UNIT_ROUNDOFF,
    generalized_eig,
    nullspace_basis,
    residual_tolerance,
    singular_values,
)
from sqeig.matpoly import sample_perturbation
from sqeig.solver import SolverConfig, solve_polynomial
from sqeig.verify import (
    empirical_probability,
    end_to_end_condition_ratios,
    expansion_order_check,
    limit_mixing_samples,
    linearization_ratios,
    match_accepted,
    model_sensitivity_samples,
    sensitivity_samples,
)
from sqeig.construct import KernelBases
from sqeig.matpoly import MatrixPolynomial

MASTER_SEED = 12345
PROBLEM_SEED = 0
N_TRIALS = 200

# (name, kappa threshold tol, probability floor, match tolerance)
DETECTION_CASES = [
    ("ex1", 1e4, 0.97, 1e-4),
    ("ex2", 1e4, 0.97, 1e-4),
    ("ex3", 1e4, 0.97, 1e-4),
    ("ex4", 1e4, 0.97, 1e-4),
    ("ex5", 1e4, 0.97, 1e-4),
    ("ex6", 1e4, 0.97, 1e-4),
    ("ex7", 1e4, 0.95, 1e-4),
    ("ex10", 1e4, 0.93, 1e-4),
    ("ex8", 1e5, 0.90, 1e-3),  # match tol = eps * tol for this run
]


@pytest.fixture(scope="module")
def detection_reports():
    reports = {}
    for name, tol, floor, match_tol in DETECTION_CASES:
        poly, truth = builtin(name, seed=PROBLEM_SEED)
        cfg = SolverConfig(tol=tol, seed=MASTER_SEED)
        reports[name] = (
            empirical_probability(
                poly, truth.with_match_tol(match_tol), cfg, N_TRIALS, keep_trials=True
            ),
            floor,
            cfg,
        )
    return reports


def test_criterion_1_detection_probabilities(detection_reports):
    ok = True
    details = []
    for name, _, floor, _ in DETECTION_CASES:
        report, floor, _ = detection_reports[name]
        passed = report.p >= floor
        ok &= passed
        details.append(f"{name}={report.p:.3f}(>={floor})")
    print(
        f"[acceptance] criterion 1 (detection probabilities, n_t={N_TRIALS}): "
        + ", ".join(details)
        + f": {'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_2_accepted_accuracy(detection_reports):
    worst = 0.0
    checked = 0
    for name, (report, _, cfg) in detection_reports.items():
        for trial in report.trials:
            if not trial.success:
                continue
            for cand, true_val in zip(trial.accepted, trial.matched_truth):
                bound = 100.0 * cfg.epsilon * cand.kappa_bar
                err = abs(cand.value - true_val)
                worst = max(worst, err / bound)
                checked += 1
                assert err <= bound, (name, cand.value, true_val, cand.kappa_bar)
    print(
        f"[acceptance] criterion 2 (accepted accuracy, {checked} eigenvalues, "
        f"worst error/bound = {worst:.2e}): PASS"
    )


# the same for the projected solve (solver.solve_polynomial), which criteria
# 1-2 do not run: the detection cases, a synthetic pencil and a chain
# quadratic past order 33.  Every case read 1.000 over the 200 trials when
# the floors were set, so a floor of 0.99 allows two failed trials
PROJECTED_CASES = [(name, tol, 0.99, match_tol) for name, tol, _, match_tol in DETECTION_CASES] + [
    ("synth_pencil_60_30", 1e4, 0.99, 1e-4),
    ("chain_quadratic_40_20", 1e4, 0.99, 1e-4),
]


def _projected_problem(name):
    # (polynomial, finite true eigenvalues)
    if name == "synth_pencil_60_30":
        poly, truth = synth_pencil(60, 30, seed=PROBLEM_SEED)
        return poly, truth.finite_eigenvalues
    if name == "chain_quadratic_40_20":
        lams = [0.4 * k * np.exp(0.7j * k) for k in range(1, 21)]
        inst = chain_quadratic(lams, 40, rng=PROBLEM_SEED)
        return inst.polynomial(), inst.eigenvalues
    poly, truth = builtin(name, seed=PROBLEM_SEED)
    return poly, truth.finite_eigenvalues


@pytest.fixture(scope="module")
def projected_reports():
    # per case: the successful trials' (accepted values, matched truth,
    # kappa_bar), one solve per child of MASTER_SEED as in criterion 1
    reports = {}
    for name, tol, floor, match_tol in PROJECTED_CASES:
        poly, truth = _projected_problem(name)
        cfg = SolverConfig(tol=tol, seed=MASTER_SEED)
        successes = []
        for child in np.random.SeedSequence(MASTER_SEED).spawn(N_TRIALS):
            res = solve_polynomial(poly, cfg.with_seed(child))
            accepted = res.values[res.accepted]
            matched = match_accepted(accepted, truth, match_tol)
            if matched is not None:
                successes.append((accepted, matched, res.kappa_bar[res.accepted]))
        reports[name] = (successes, floor, cfg)
    return reports


def test_projected_detection_probabilities(projected_reports):
    ok = True
    details = []
    for name, (successes, floor, _) in projected_reports.items():
        p = len(successes) / N_TRIALS
        ok &= p >= floor
        details.append(f"{name}={p:.3f}(>={floor})")
    print(
        f"[acceptance] projected detection probabilities (n_t={N_TRIALS}): "
        + ", ".join(details)
        + f": {'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_projected_accepted_accuracy(projected_reports):
    # criterion 2's bound, with the config's epsilon that the projection
    # does not use: its values are accurate to about u * kappa_bar
    worst = 0.0
    checked = 0
    for name, (successes, _, cfg) in projected_reports.items():
        for accepted, matched, kappa in successes:
            for value, true_val, k in zip(accepted, matched, kappa):
                bound = 100.0 * cfg.epsilon * k
                err = abs(value - true_val)
                worst = max(worst, err / bound)
                checked += 1
                assert err <= bound, (name, value, true_val, k)
    print(
        f"[acceptance] projected accuracy ({checked} eigenvalues, "
        f"worst error/bound = {worst:.2e}): PASS"
    )


@pytest.fixture(scope="module")
def sigma_experiment():
    # singular quadratic with order 3, degree 2, corank 1
    inst = chain_quadratic([1.0, 0.5], 3, rng=PROBLEM_SEED)
    lam0 = 1.0
    poly = inst.polynomial()
    bases = inst.bases(lam0)
    gamma = inverse_condition(poly, lam0, bases.x, bases.y)
    rng = np.random.default_rng(42)
    sigmas = sensitivity_samples(poly, lam0, bases, 10**4, rng)
    model = model_sensitivity_samples(27, 3, 2, 10**6, rng)
    return inst, gamma, sigmas, model


def test_criterion_3_sensitivity_distribution(sigma_experiment):
    import scipy.stats

    _, gamma, sigmas, model = sigma_experiment
    ks = float(scipy.stats.ks_2samp(gamma * sigmas, model).statistic)
    ok = ks <= 0.03
    print(
        f"[acceptance] criterion 3 (sensitivity law, KS={ks:.4f} <= 0.03): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_4_bound_sandwich_and_tail(sigma_experiment):
    _, gamma, sigmas, _ = sigma_experiment
    n, m, r = 3, 2, 2
    samples = sigmas.size
    ok = True
    notes = []
    for delta in (0.05, 0.01):
        quantile = float(np.quantile(sigmas, 1.0 - delta))
        bounds = weak_condition_bounds(delta, gamma, n, m, r)
        big_n, upper, lower = bounds.big_n, bounds.upper, bounds.lower
        if lower is not None:
            # 3-sigma order-statistic band for a quantile of a ~t^-2 tail
            band = 1.5 * math.sqrt((1.0 - delta) / (delta * samples))
            hit = lower * (1 - band) <= quantile <= upper * (1 + band)
            notes.append(
                f"delta={delta}: q={quantile:.3f} in "
                f"[{lower:.3f},{upper:.3f}]*(1+-{band:.3f})"
            )
        else:
            hit = quantile <= upper
            notes.append(f"delta={delta}: q={quantile:.3f} <= upper={upper:.3f} (lower n/a)")
        ok &= hit
    for mult in (2.0, 5.0, 10.0):
        t = mult / gamma
        emp = float(np.mean(sigmas >= t))
        bound = (n - r) / (gamma**2 * big_n * t**2)
        band = 3.0 * math.sqrt(bound * (1 - bound) / samples)
        hit = emp <= bound + band
        ok &= hit
        notes.append(f"tail(t={mult:g}/gamma): {emp:.4f} <= {bound:.4f}+{band:.4f}")
    print(
        f"[acceptance] criterion 4 (bound sandwich + tail): "
        + "; ".join(notes)
        + f": {'PASS' if ok else 'FAIL'}"
    )
    assert ok


def _ratio_instances():
    # 100 balanced singular quadratics covering all regimes of the ratio
    # bounds, including |lam0| = 1 boundary cases
    rng = np.random.default_rng(77)
    instances = []
    for _ in range(50):
        lams = [1.0, float(rng.uniform(0.25, 0.75))]
        instances.append(chain_quadratic(lams, 3, rng=rng).scaled()[0])
    for _ in range(50):
        a = float(rng.uniform(0.3, 0.9))
        b = -a + float(rng.uniform(0.05, 0.2))
        c = float(rng.uniform(1.5, 2.5))
        d = -c - float(rng.uniform(0.05, 0.2))
        instances.append(diagonal_quadratic([(a, b), (c, d)], 4, rng=rng).scaled()[0])
    return instances


def test_criterion_5_linearization_ratio_bounds():
    checked = 0
    worst = {"c1_big": 0.0, "c1_small": 0.0, "c1hat_small": 0.0, "c1hat_big": 0.0}
    for inst in _ratio_instances():
        c_norm = float(np.linalg.norm(inst.polynomial().coeffs[1], 2))
        for lam0 in inst.eigenvalues:
            rep = linearization_ratios(inst, lam0)
            mag = abs(lam0)
            if mag >= 1.0:
                worst["c1_big"] = max(worst["c1_big"], rep.ratio_c1)
                assert rep.ratio_c1 <= 1.64
                if c_norm <= 1.0:
                    worst["c1hat_big"] = max(worst["c1hat_big"], rep.ratio_c1hat)
                    assert rep.ratio_c1hat <= 2.21
            if mag <= 1.0:
                worst["c1hat_small"] = max(worst["c1hat_small"], rep.ratio_c1hat)
                assert rep.ratio_c1hat <= 1.64
                if c_norm <= 1.0:
                    worst["c1_small"] = max(worst["c1_small"], rep.ratio_c1)
                    assert rep.ratio_c1 <= 2.21
            checked += 1

    # end-to-end condition inflation of the linearization route, measured on
    # solver output for well-separated eigenvalue magnitudes
    rng = np.random.default_rng(88)
    end_worst = 0.0
    records = 0
    for i in range(15):
        a = float(rng.uniform(1.8, 2.2))
        b = float(rng.uniform(0.3, 0.5))
        inst = diagonal_quadratic([(a, -0.95 * b), (b, -1.05 * a)], 4, rng=rng).scaled()[0]
        for _, source, kappa_quad, kappa_lin in end_to_end_condition_ratios(
            inst, SolverConfig(seed=1000 + i)
        ):
            ratio = kappa_lin / kappa_quad
            end_worst = max(end_worst, ratio)
            records += 1
            assert ratio <= 1.1 * 1.2, (source, ratio)
    assert records >= 30
    print(
        "[acceptance] criterion 5 (ratio bounds on "
        f"{checked} eigenvalue/instance pairs, worst "
        + ", ".join(f"{k}={v:.3f}" for k, v in worst.items())
        + f"; end-to-end worst={end_worst:.3f} <= 1.32 on {records} records): PASS"
    )


def test_criterion_6_mixing_weight_statistics():
    ok = True
    notes = []
    for lams, n in (([1.0, 0.5], 3), ([1.0], 3)):
        inst = chain_quadratic(lams, n, rng=PROBLEM_SEED)
        d = n - inst.normal_rank
        weights, gamma_bars, gamma = limit_mixing_samples(
            inst.polynomial(), 1.0, inst.bases(1.0), 10**4, np.random.default_rng(99)
        )
        all_below = bool(np.all(gamma_bars <= gamma * (1 + 1e-12)))
        mean_ok = float(np.mean(weights)) <= 1.2 / math.sqrt(d)
        ok &= all_below and mean_ok
        tails = []
        for t in (0.01, 0.05, 0.1):
            emp = float(np.mean(weights < t))
            hit = emp <= 2.0 * t * d * 1.2
            ok &= hit
            tails.append(f"P(w<{t})={emp:.4f}<={2 * t * d * 1.2:.3f}")
        notes.append(
            f"corank {d}: mean={np.mean(weights):.3f}<={1.2 / math.sqrt(d):.3f}, "
            f"always<=gamma={all_below}, " + ", ".join(tails)
        )
    print(
        f"[acceptance] criterion 6 (mixing-weight statistics): "
        + "; ".join(notes)
        + f": {'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_7_expansion_order():
    checks = []

    # 2x2 benchmark whose eigenvalues adversarial perturbations can destroy
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    c = np.array([[-3.0, 0.0], [0.0, 0.0]])
    k = np.array([[2.0, 0.0], [0.0, 0.0]])
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    checks.append(
        (
            "2x2 benchmark",
            MatrixPolynomial.quadratic(m, c, k),
            1.0,
            KernelBases(X=e2.reshape(-1, 1), x=e1, Y=e2.reshape(-1, 1), y=e1),
        )
    )
    inst1 = chain_quadratic([1.0, 0.5], 3, rng=1)
    checks.append(("chain corank 1", inst1.polynomial(), 1.0, inst1.bases(1.0)))
    inst2 = chain_quadratic([2.0, 1.0, 0.5], 4, rng=2)
    checks.append(("chain order 4", inst2.polynomial(), 0.5, inst2.bases(0.5)))

    ok = True
    notes = []
    for label, poly, lam0, bases in checks:
        e = sample_perturbation(poly.n, poly.degree, np.random.default_rng(5))
        rep = expansion_order_check(poly, lam0, bases, e, np.logspace(-4, -7, 7))
        hit = 1.7 <= rep.exponent <= 2.3
        ok &= hit
        notes.append(f"{label}: slope={rep.exponent:.3f}")
    print(
        f"[acceptance] criterion 7 (first-order expansion remainder): "
        + ", ".join(notes)
        + f" (all in [1.7, 2.3]): {'PASS' if ok else 'FAIL'}"
    )
    assert ok


def test_criterion_8_substrate_property_suites():
    rng = np.random.default_rng(2024)

    # SVD: planted singular values and an orthonormal kernel basis on 100
    # random complex matrices of known rank, U diag(d) V* with orthonormal
    # U and V and d in [0.5, 2]
    worst_null = 0.0
    for _ in range(100):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        u, v = (
            np.linalg.qr(rng.standard_normal((k, rank)) + 1j * rng.standard_normal((k, rank)))[0]
            for k in (rows, cols)
        )
        d = np.sort(rng.uniform(0.5, 2.0, rank))[::-1]
        mat = (u * d) @ v.conj().T
        s = singular_values(mat)
        limit = 1e3 * UNIT_ROUNDOFF * max(rows, cols)
        # absolute errors relative to 2, which bounds the planted values
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert np.all(np.abs(s[:rank] - d) <= 2.0 * limit) and np.all(s[rank:] <= 2.0 * limit)
        basis = nullspace_basis(mat)
        assert basis.shape == (cols, cols - rank)
        orth = np.linalg.norm(basis.conj().T @ basis - np.eye(cols - rank))
        resid = np.linalg.norm(mat @ basis) / 2.0
        worst_null = max(worst_null, orth / limit, resid / limit)
        assert orth <= limit and resid <= limit

    # generalized eigensolver: residuals on 100 random regular pencils and
    # multiset recovery of planted spectra
    worst_resid = 0.0
    for i in range(100):
        n = int(rng.integers(2, 21))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dec = generalized_eig(a, b)
        tol = residual_tolerance(n)
        for j in np.flatnonzero(dec.finite_mask()):
            al, be = dec.alphas[j], dec.betas[j]
            lam = al / be
            x = dec.right_vectors[:, j]
            y = dec.left_vectors[:, j]
            scale = np.linalg.norm(a, "fro") + abs(lam) * np.linalg.norm(b, "fro")
            r_r = np.linalg.norm(a @ x * be - b @ x * al) / (abs(be) * scale)
            r_l = np.linalg.norm(be * (y.conj() @ a) - al * (y.conj() @ b)) / (abs(be) * scale)
            worst_resid = max(worst_resid, r_r / tol, r_l / tol)
            assert r_r <= tol and r_l <= tol

        if i < 50:
            v = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            w = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            d = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.random(n))
            dec2 = generalized_eig(v @ np.diag(d) @ w, v @ w)
            assert_multiset_close(dec2.eigenvalues(), d, rtol=1e6 * UNIT_ROUNDOFF)

    print(
        f"[acceptance] criterion 8 (substrate properties: 100 planted "
        f"singular spectra recovered, worst kernel basis residual or "
        f"orthonormality {worst_null:.3f} of limit, worst pencil residual "
        f"{worst_resid:.3f} of limit, 50 planted spectra recovered): PASS"
    )
