"""Command-line interface.

Subcommands:

* ``solve``       classify the eigenvalues of one problem (CSV or JSON rows)
* ``montecarlo``  detection probability over repeated randomized runs (JSON)
* ``dist``        empirical vs. model quantiles of the scaled sensitivity (CSV)
* ``bounds``      weak-condition-number bounds for given parameters (JSON)
* ``synth-pencil`` emit a random singular pencil with known eigenvalues as a
  problem file

Exit codes: 0 on success, 1 on usage errors, 2 on numerical failures.
All error messages go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import corpus, probfile
from .condition import BadDirectionError, lower_bound_validity, weak_condition_bounds
from .construct import chain_quadratic, diagonal_pencil
from .densela import EigensolverError
from .matpoly import DegenerateProblemError
from .solver import SolverConfig, solve_polynomial
from .verify import empirical_probability, sensitivity_distribution_ks

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _sig15(x):
    if math.isinf(x) or math.isnan(x):
        return x
    return float(f"{x:.15g}")


def _add_solver_flags(sub):
    sub.add_argument("--eps", type=float, default=1e-8, help="perturbation size")
    sub.add_argument("--tol", type=float, default=1e4, help="condition acceptance threshold")
    sub.add_argument("--seed", type=int, default=0, help="random seed")


def _load_problem(args):
    if args.builtin is not None:
        poly, truth = corpus.builtin(args.builtin, seed=args.seed)
        return poly, truth
    pf = probfile.load(args.input)
    truth = pf.truth_spec() if pf.truth is not None else None
    return pf.to_polynomial(), truth


def _cmd_solve(args):
    poly, _ = _load_problem(args)
    cfg = SolverConfig(epsilon=args.eps, tol=args.tol, seed=args.seed)
    rows = [
        {
            "re": _sig15(r.value.real),
            "im": _sig15(r.value.imag),
            "kappa_bar": None if math.isinf(r.kappa_bar) else _sig15(r.kappa_bar),
            "accepted": r.accepted,
            "source": r.source,
        }
        for r in solve_polynomial(poly, cfg)
    ]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        out = csv.writer(sys.stdout)
        out.writerow(["re", "im", "kappa_bar", "accepted", "source"])
        for r in rows:
            kappa = "inf" if r["kappa_bar"] is None else f"{r['kappa_bar']:.15g}"
            out.writerow([f"{r['re']:.15g}", f"{r['im']:.15g}", kappa, r["accepted"], r["source"]])
    return 0


def _cmd_montecarlo(args):
    poly, truth = corpus.builtin(args.builtin, seed=args.seed)
    cfg = SolverConfig(epsilon=args.eps, tol=args.tol, seed=args.seed)
    report = empirical_probability(poly, truth, cfg, args.runs)
    print(json.dumps({"n_t": report.n_t, "n_s": report.n_s, "p": report.p}))
    return 0


def _dist_instance(n, m, r, seed):
    lambdas = [1.0 + i / 8.0 for i in range(r)]
    if m == 2:
        return chain_quadratic(lambdas, n, rng=seed)
    if m == 1:
        return diagonal_pencil(lambdas, n, rng=seed)
    raise _UsageError("dist supports --m 1 (pencil) or --m 2 (quadratic)")


def _cmd_dist(args):
    if not 0 < args.r < args.n:
        raise _UsageError("need 0 < r < n for a singular test problem")
    instance = _dist_instance(args.n, args.m, args.r, args.seed)
    lam0 = instance.eigenvalues[0]
    poly = instance.polynomial()
    bases = instance.bases(lam0)
    _, emp, model = sensitivity_distribution_ks(
        poly, lam0, bases, args.samples, args.seed, model_size=max(10**5, 10 * args.samples)
    )
    qs = np.arange(1, 100) / 100.0
    out = csv.writer(sys.stdout)
    out.writerow(["quantile", "empirical", "model"])
    for q, e, mo in zip(qs, np.quantile(emp, qs), np.quantile(model, qs)):
        out.writerow([f"{q:.2f}", f"{e:.15g}", f"{mo:.15g}"])
    return 0


def _cmd_bounds(args):
    if args.gamma <= 0:
        raise _UsageError("--gamma must be positive")
    if not 0 < args.delta < 1:
        raise _UsageError("--delta must lie in (0, 1)")
    if not 0 <= args.r <= args.n:
        raise _UsageError("need 0 <= r <= n")
    bounds = weak_condition_bounds(args.delta, args.gamma, args.n, args.m, args.r)
    note = None
    if bounds.lower is None:
        if args.r >= args.n:
            note = "lower bound requires a singular problem (r < n)"
        else:
            vmax = lower_bound_validity(bounds.big_n, args.n, args.r)
            note = f"lower bound requires delta <= {vmax:.6g}"
    doc = {
        "n": bounds.n,
        "m": bounds.m,
        "r": bounds.r,
        "N": bounds.big_n,
        "delta": bounds.delta,
        "gamma": args.gamma,
        "upper": _sig15(bounds.upper),
        "lower": None if bounds.lower is None else _sig15(bounds.lower),
        "note": note,
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_synth_pencil(args):
    poly, truth = corpus.synth_pencil(args.size, args.rank, args.finite, seed=args.seed)
    pf = probfile.ProblemFile(
        coefficients=poly.coeffs,
        truth=truth.finite_eigenvalues,
        name=f"synth-pencil-{args.size}-{args.rank}",
        source="synthetic singular pencil with known regular part",
    )
    text = probfile.serialize(pf)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


_DESCRIPTION = """\
Eigenvalues of singular quadratic eigenvalue problems and matrix pencils
by random regularization and condition-number screening.

subcommands:
  solve         classify the eigenvalues of one problem (CSV or JSON rows)
  montecarlo    detection probability over repeated randomized runs (JSON)
  dist          empirical vs model quantiles of the scaled sensitivity (CSV)
  bounds        weak-condition-number bounds for given parameters (JSON)
  synth-pencil  emit a random singular pencil with known eigenvalues

Exit codes: 0 success, 1 usage error, 2 numerical failure."""


def _build_parser():
    parser = _Parser(prog="sqeig", description=_DESCRIPTION, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one problem and classify its eigenvalues")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="problem file (JSON)")
    src.add_argument("--builtin", choices=corpus.BUILTIN_NAMES, help="built-in problem name")
    _add_solver_flags(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON rows")
    fmt.add_argument("--csv", action="store_true", help="emit CSV rows (default)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("montecarlo", help="detection probability over repeated runs")
    p.add_argument("--builtin", choices=corpus.BUILTIN_NAMES, required=True)
    p.add_argument("--runs", type=int, default=1000)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("dist", help="empirical vs model sensitivity quantiles")
    p.add_argument("--n", type=int, required=True, help="problem order")
    p.add_argument("--m", type=int, required=True, help="polynomial degree (1 or 2)")
    p.add_argument("--r", type=int, required=True, help="normal rank")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("bounds", help="weak condition number bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True, help="reciprocal condition number")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("synth-pencil", help="emit a random singular pencil problem file")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--rank", type=int, required=True, help="normal rank of the pencil")
    p.add_argument("--finite", type=int, default=None, help="finite eigenvalues (default: rank)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_synth_pencil)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EigensolverError, BadDirectionError, DegenerateProblemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, probfile.ProblemFormatError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
