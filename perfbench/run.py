"""Benchmark runner for sqeig.

    python3 perfbench/run.py --workload mc_corpus --seed 1 --seconds 25 --trace 0

Runs one workload (see BENCHMARK.json and perfbench/README.md) in this
process against the package sources in ``src/``, checks every output
against the known truth, and prints a readable report followed by one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from an outside-in traced run.  A result file with the run
context (and the spans, when traced) is written to ``.bench_out/``.

Set-up (import, problem generation, one warm-up operation) is measured in
this process and in ``SETUP_PROBES`` fresh child processes; the medians are
reported.  Gated times are in reference seconds: operation times are
scaled by a fixed reference kernel run between the operations (see
``hostspeed``), set-up times by a pure-Python one run around each set-up
(``setup_reference``), so that the shared host's changes of speed cancel
out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: set-up reference call time that set-up times are expressed against;
#: about the median on the 2-vCPU Xeon VM the benchmark was tuned on
SETUP_NOMINAL_S = 0.012
#: source the set-up reference compiles and runs: many small functions,
#: like the module bodies an import executes
_SETUP_REFERENCE_SRC = "\n".join(
    f"def f{i}(a, b=2):\n    return [x * b for x in range(a)] + list({{{i}: a}}.items())"
    for i in range(150)
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _import_package():
    """Import sqeig from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import sqeig
    except ImportError as exc:
        raise BenchError(f"cannot import sqeig from {SRC}: {exc}") from exc
    origin = Path(sqeig.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"sqeig imported from {origin}, not from {SRC}")


def setup_reference():
    """Pure-Python reference for set-up: compile, exec and a loop; returns seconds.

    Set-up is mostly imports, which follow the host's speed for Python code
    and file loading rather than that of ``hostspeed.reference``.  It uses
    only the standard library, so it can run before numpy is imported.
    """
    t0 = perf_counter()
    exec(compile(_SETUP_REFERENCE_SRC, "<setup-reference>", "exec"), {})
    x = 0
    for i in range(20000):
        x += i * i
    return perf_counter() - t0


def measure_setup(workload_name, seed):
    """Import, build the workload from its seed, run one untimed operation.

    Times are in set-up reference seconds: scaled by ``SETUP_NOMINAL_S``
    over the mean of a ``setup_reference`` call just before and just after.
    """
    ref_before = setup_reference()
    t0 = perf_counter()
    _import_package()
    import workloads

    if workload_name not in workloads.WORKLOADS:
        raise BenchError(
            f"unknown workload {workload_name!r}; choose from {', '.join(workloads.WORKLOADS)}"
        )
    t1 = perf_counter()
    wl = workloads.WORKLOADS[workload_name](seed)
    t2 = perf_counter()
    warm = wl.warmup()
    t3 = perf_counter()
    factor = SETUP_NOMINAL_S / (0.5 * (ref_before + setup_reference()))
    timing = {
        "import_s": factor * (t1 - t0),
        "build_s": factor * (t2 - t1),
        "warmup_s": factor * (t3 - t2),
        "wall_s": t3 - t0,
    }
    return wl, warm, timing


def probe_setup(workload_name, seed):
    """Set-up timings measured in a fresh child process."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload_name,
        "--seed", str(seed),
        "--setup-probe",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_context(args):
    import numpy as np
    import scipy
    from harness import TAIL_PERCENTILE

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "sqeig").glob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "src_sqeig_lines": src_lines,
        "tail_percentile": TAIL_PERCENTILE,
    }


def gate_selfcheck(wl, warm):
    """The gate must flag a copied warm-up result with a known-wrong value."""
    import workloads

    if wl.name == "sensitivity_law":
        return []  # its check runs on the first batch, see SensitivityLaw.run_cycle
    accepted, truth = warm
    wrong = workloads.inject_wrong_value(accepted, truth)
    flagged = not workloads.gate_accepted(wrong, truth, wl.cfg.epsilon).ok
    return [("eigenvalue gate flags a known-wrong accepted value", flagged)]


def load_benchmark_spec():
    """Units of the end-to-end and the per-layer metrics, by name."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("BENCHMARK.json not found at the checkout root")
    spec = json.loads(path.read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def check_metric_names(metrics, expected):
    """Printed metrics must be exactly the BENCHMARK.json set."""
    bad = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise BenchError(f"metric names outside [A-Za-z0-9_.-]+: {bad}")
    if set(metrics) != set(expected):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(metrics))},"
            f" unknown {sorted(set(metrics) - set(expected))}"
        )


def correctness(tally):
    """pass_rate, recall and detect_p of a gate tally.

    Where a workload has no eigenvalue truth and no exact-set detection (the
    sensitivity law), recall and detect_p fall back to the pass share.
    """
    pass_rate = 1.0 - tally.failed / tally.attempted
    recall = tally.matched / tally.truth if tally.truth else pass_rate
    detect_p = tally.detected / tally.detect_ops if tally.detect_ops else pass_rate
    return pass_rate, recall, detect_p


def gate_lines(wl, gate, seed):
    g = gate.total()
    pass_rate, recall, detect_p = correctness(g)
    if g.detect_ops:
        detail = (
            f" recall={recall:.6f} ({g.matched} of {g.truth} true eigenvalues),"
            f" detect_p={detect_p:.6f} ({g.detected} of {g.detect_ops} operations)"
        )
    else:
        detail = f" recall and detect_p are the pass share here, {pass_rate:.6f}"
    lines = [
        f"correctness over the first {wl.gate_cycles} cycle(s), exact for seed {seed}:"
        f" fail_rate={g.failed / g.attempted:.6f} (failed {g.failed} of {g.attempted} attempted),"
        + detail
    ]
    for label, t in gate.tallies.items():
        row = f"  {label:12s} failed {t.failed}/{t.attempted}"
        if t.detect_ops:
            row += (
                f"  recall {t.matched}/{t.truth}"
                f"  detect_p {t.detected}/{t.detect_ops} = {t.detected / t.detect_ops:.3f}"
            )
        lines.append(row)
    if gate.ks_stats:
        lines.append("  KS statistics of the gated batches: " + ", ".join(f"{k:.4f}" for k in gate.ks_stats))
    return lines


def untraced_run(wl, args, setup_s, report):
    """End-to-end metrics from the timed loop, tracing off."""
    import harness

    clock = harness.Clock(wl.labels)
    clock.wants_selfcheck = True
    gate, cycles = harness.measure(wl, clock, args.seconds)
    timing = harness.op_stats(clock)
    pass_rate, recall, detect_p = correctness(gate.total())
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": timing["ops_per_s"],
        "op_ms_tail": timing["op_ms_tail"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_rate": pass_rate,
        "recall": recall,
        "detect_p": detect_p,
    }
    run_tally = clock.total()
    wall = timing["wall"]
    lines = [
        f"measured {cycles} whole cycles, {len(clock.op_times)} operations,"
        f" {clock.busy_s:.3f} s busy; op_ms_tail is p{harness.TAIL_PERCENTILE},"
        f" with {timing['beyond_tail']} operations beyond it",
        f"host speed: {timing['ref_calls']} reference calls, median factor"
        f" {timing['host_factor']:.4f}; as measured, without scaling:"
        f" ops_per_s {wall['ops_per_s']:.6g} 1/s, op_ms_tail {wall['op_ms_tail']:.6g} ms",
        "not gated: operation time "
        + ", ".join(f"{q} {v:.6g} ms" for q, v in timing["ungated_ms"].items()),
        *gate_lines(wl, gate, args.seed),
        f"whole run: failed {run_tally.failed} of {run_tally.attempted} attempted operations",
    ]
    report["ungated_op_ms"] = timing["ungated_ms"]
    report["wall"] = wall
    report["host_factor"] = timing["host_factor"]
    report["gate"] = {label: vars(t) for label, t in gate.tallies.items()}
    report["failures"] = clock.failures[:50]
    return metrics, run_tally, lines, clock.selfchecks


def traced_run(wl, setup, report):
    """Per-layer metrics from a traced replay of the first cycles."""
    import harness
    import tracing

    # the same cycles run untraced before and after the traced phase, so
    # that drift during the run cancels out of trace.overhead
    before = harness.Clock(wl.labels)
    before.wants_selfcheck = True
    harness.replay(wl, before, wl.trace_cycles)
    tracer = tracing.Tracer()
    traced = harness.Clock(wl.labels, tracer=tracer)
    tracer.install()
    try:
        harness.replay(wl, traced, wl.trace_cycles)
    finally:
        tracer.uninstall()
    after = harness.Clock(wl.labels)
    harness.replay(wl, after, wl.trace_cycles)

    layer, check = tracer.layer_metrics(traced.steps, traced.busy_s)
    busy = {name: float(c.scaled_times()[0].sum()) for name, c in
            (("before", before), ("traced", traced), ("after", after))}
    metrics = {
        "setup.import_s": setup["import_s"],
        "setup.build_s": setup["build_s"],
        "setup.warmup_s": setup["warmup_s"],
        # traced over untraced operations per second, as the same work, in
        # reference seconds
        "trace.overhead": 0.5 * (busy["before"] + busy["after"]) / busy["traced"],
        **layer,
    }
    run_tally = before.total()
    for clock in (traced, after):
        run_tally.add(clock.total())
    lines = [
        f"traced {wl.trace_cycles} cycle(s) ({traced.steps} timed calls), with the same"
        f" cycle(s) run untraced before and after; {len(tracer)} spans",
        f"trace check: {check['roots_ok']} of {traced.steps} timed calls have exactly one root"
        f" span, {check['stray_roots']} root span(s) outside them; layer self times sum to"
        f" {check['self_time_sum_s']:.6f} s, the clock's busy"
        f" time is {traced.busy_s:.6f} s (untraced share {check['untraced_share']:.2%})",
    ]
    selfchecks = before.selfchecks + [
        ("wrappers restored after the traced run", not tracing.installed_wrappers()),
        ("every timed call is one root span, and layer self times cover its busy time", check["ok"]),
    ]
    report["trace_check"] = check
    report["spans"] = tracer.dump_spans()
    report["failures"] = (before.failures + traced.failures + after.failures)[:50]
    return metrics, run_tally, lines, selfchecks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    if args.setup_probe:
        _, _, timing = measure_setup(args.workload, args.seed)
        print(json.dumps(timing))
        return 0

    e2e_units, layer_units = load_benchmark_spec()
    wl, warm, own_setup = measure_setup(args.workload, args.seed)
    selfchecks = gate_selfcheck(wl, warm)
    setups = [own_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup = {key: statistics.median(s[key] for s in setups) for key in own_setup}
    setup_s = statistics.median(s["import_s"] + s["build_s"] + s["warmup_s"] for s in setups)

    report = {"context": run_context(args), "setup_samples": setups}
    if args.trace:
        metrics, tally, lines, checks = traced_run(wl, setup, report)
        expected = layer_units
    else:
        metrics, tally, lines, checks = untraced_run(wl, args, setup_s, report)
        expected = e2e_units
    check_metric_names(metrics, expected)
    units = {name: expected[name] for name in metrics}
    selfchecks += checks
    correct = tally.failed == 0 and all(passed for _, passed in selfchecks)
    report.update(
        {
            "selfchecks": selfchecks,
            "metrics": metrics,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "correct": correct,
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, default=str))

    ctx = report["context"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(
        f"python {ctx['python']}, numpy {ctx['numpy']}, scipy {ctx['scipy']},"
        f" blas {(ctx['blas'] or {}).get('name')} threads {BLAS_THREADS}, nproc {ctx['nproc']},"
        f" src/sqeig {ctx['src_sqeig_lines']} lines"
    )
    print(
        f"set-up median of {len(setups)}, in set-up reference seconds: import"
        f" {setup['import_s']:.3f} s, build {setup['build_s']:.3f} s, warm-up"
        f" {setup['warmup_s']:.3f} s; wall time as measured {setup['wall_s']:.3f} s"
    )
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, passed in selfchecks:
        print(f"self-check: {name}: {'ok' if passed else 'FAILED'}")
    for label, reasons in report["failures"][:10]:
        print(f"gate failure in {label}: {'; '.join(reasons)}")
    print(f"result file: {out_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
