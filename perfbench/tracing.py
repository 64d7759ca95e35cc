"""Outside-in tracing of the sqeig modules.

The tracer replaces, for the length of a traced phase, the module
attributes through which ``sqeig.solver``, ``sqeig.verify`` and
``sqeig.densela`` reach the functions they call, plus the public entry
points the workloads call.  Each wrapper records a span (name, start, end,
parent span, operation id) in memory and a few counts taken from the
arguments or the result.  ``uninstall`` puts every original back and
checks that it did, so untraced code never runs through a wrapper.

Self time of a span is its duration minus the durations of its direct
children.  Every span name belongs to exactly one per-layer metric.  A
wrapper's result hook (the counts) runs in a child span of its own, so its
cost is charged to ``trace.hook_s`` and not to the wrapped layer.

``layer_metrics`` checks the trace against the clock that drove it: every
timed call must be exactly one root span, so a call site missing from the
patch table cannot hide its time, and the root spans must cover the
clock's busy time up to the cost of the outermost wrapper.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from time import perf_counter

import scipy.linalg
import scipy.stats

from sqeig import condition, solver, verify
from sqeig.condition import BadDirectionError
from sqeig.linearize import RecoveryError

HOOK_SPAN = "trace.hooks"

# span name -> per-layer metric that owns its self time
SELF_TIME_METRIC = {
    "scipy.linalg.eig": "densela.lapack_s",
    "densela.generalized_eig": "densela.wrap_s",
    "linearize.first_companion": "linearize.companion_s",
    "linearize.alternate_companion": "linearize.companion_s",
    "linearize.recover_from_first": "linearize.recover_s",
    "linearize.recover_from_alternate": "linearize.recover_s",
    "condition.pencil_condition": "condition.kappa_s",
    "condition.quadratic_condition": "condition.kappa_s",
    "condition.directional_sensitivity": "condition.dirsens_s",
    "matpoly.sample_perturbation": "matpoly.perturb_s",
    "matpoly.scale_quadratic": "matpoly.scale_s",
    "densela.as_matrix": "matpoly.input_s",
    "matpoly.pad_to_square": "matpoly.input_s",
    "solver.solve_polynomial": "solver.self_s",
    "verify.match_accepted": "verify.match_s",
    "verify.model_sensitivity_samples": "verify.model_s",
    "scipy.stats.ks_2samp": "verify.ks_s",
    "verify.empirical_probability": "verify.self_s",
    "verify.sensitivity_samples": "verify.self_s",
    HOOK_SPAN: "trace.hook_s",
}

#: largest share of the clock's busy time the root spans may leave uncovered
UNTRACED_SHARE_LIMIT = 0.05


def _count_eig(tracer, args, kwargs, out):
    a, b = args[0], args[1]
    cutoff = kwargs.get("inf_cutoff", 1e-12)
    tracer.counts["densela.order3_sum"] += out.order**3
    tracer.counts["densela.pairs"] += out.order
    tracer.counts["densela.finite"] += int(out.finite_mask(cutoff).sum())
    tracer.counts["densela.bytes_in"] += int(getattr(a, "nbytes", 0) + getattr(b, "nbytes", 0))


def _count_solve(tracer, args, kwargs, out):
    tracer.counts["solver.candidates"] += len(out)
    tracer.counts["solver.accepted"] += sum(1 for r in out if r.accepted)


def _count_trials(tracer, args, kwargs, out):
    tracer.counts["verify.trials"] += out.n_t


def _record_ks(tracer, args, kwargs, out):
    tracer.ks_stats.append(float(out.statistic))


def patch_table():
    """(namespace, attribute, span name, result hook) for every wrapped call site."""
    return [
        (solver, "generalized_eig", "densela.generalized_eig", _count_eig),
        (solver, "as_matrix", "densela.as_matrix", None),
        (solver, "pad_to_square", "matpoly.pad_to_square", None),
        (solver, "sample_perturbation", "matpoly.sample_perturbation", None),
        (solver, "scale_quadratic", "matpoly.scale_quadratic", None),
        (solver, "first_companion", "linearize.first_companion", None),
        (solver, "alternate_companion", "linearize.alternate_companion", None),
        (solver, "recover_from_first", "linearize.recover_from_first", None),
        (solver, "recover_from_alternate", "linearize.recover_from_alternate", None),
        (solver, "pencil_condition", "condition.pencil_condition", None),
        (solver, "quadratic_condition", "condition.quadratic_condition", None),
        (solver, "solve_polynomial", "solver.solve_polynomial", _count_solve),
        (verify, "solve_polynomial", "solver.solve_polynomial", _count_solve),
        (verify, "match_accepted", "verify.match_accepted", None),
        (verify, "sample_perturbation", "matpoly.sample_perturbation", None),
        (verify, "empirical_probability", "verify.empirical_probability", _count_trials),
        (verify, "sensitivity_samples", "verify.sensitivity_samples", None),
        (verify, "model_sensitivity_samples", "verify.model_sensitivity_samples", None),
        # verify imports directional_sensitivity from condition at call time
        (condition, "directional_sensitivity", "condition.directional_sensitivity", None),
        # densela reaches LAPACK through the scipy.linalg attribute
        (scipy.linalg, "eig", "scipy.linalg.eig", None),
        (scipy.stats, "ks_2samp", "scipy.stats.ks_2samp", _record_ks),
    ]


def installed_wrappers():
    """Call sites that currently hold a tracer wrapper (empty when restored)."""
    return [
        f"{namespace.__name__}.{attr}"
        for namespace, attr, _, _ in patch_table()
        if hasattr(getattr(namespace, attr), "bench_span")
    ]


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one entry per span, in flat arrays so that recording creates no
        # objects the garbage collector has to track
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")  # index of the parent span, -1 for a root
        self.span_op = array("l")
        self._stack = []
        self.op = -1
        self.counts = Counter()
        self.errors = Counter()
        self.ks_stats = []
        self._originals = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, hook):
        name_id = self._name_id(name)
        hook_id = self._name_id(HOOK_SPAN)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack, tracer = self.span_parent, self.span_op, self._stack, self

        def open_span(span_name):
            i = len(names)
            names.append(span_name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            return i

        def close_span(i):
            ends[i] = perf_counter()
            stack.pop()

        def traced(*args, **kwargs):
            tracer.counts[name] += 1
            i = open_span(name_id)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                close_span(i)
                tracer.errors[f"{name}:{type(exc).__name__}"] += 1
                raise
            if hook is not None:
                j = open_span(hook_id)
                hook(tracer, args, kwargs, out)
                close_span(j)
            close_span(i)
            return out

        traced.bench_span = name
        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for namespace, attr, name, hook in patch_table():
            original = getattr(namespace, attr)
            self._originals.append((namespace, attr, original))
            setattr(namespace, attr, self._wrap(name, original, hook))

    def uninstall(self):
        """Restore every patched attribute; raise if any is not the original."""
        for namespace, attr, original in reversed(self._originals):
            setattr(namespace, attr, original)
        bad = [
            f"{namespace.__name__}.{attr}"
            for namespace, attr, original in self._originals
            if getattr(namespace, attr) is not original
        ]
        self._originals = []
        if bad:
            raise RuntimeError(f"wrappers left installed: {', '.join(bad)}")

    def __len__(self):
        return len(self.span_name)

    def self_times(self):
        child = [0.0] * len(self)
        for parent, start, end in zip(self.span_parent, self.span_start, self.span_end):
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for start, end, c in zip(self.span_start, self.span_end, child)]

    def layer_metrics(self, steps, busy_s):
        """Per-layer times and counts, checked against the driving clock.

        ``steps`` and ``busy_s`` are the number of timed calls and their
        summed time as the clock measured them.
        """
        selfs = self.self_times()
        times = defaultdict(float)
        durations = defaultdict(float)
        for name_id, start, end, s in zip(self.span_name, self.span_start, self.span_end, selfs):
            name = self.names[name_id]
            times[SELF_TIME_METRIC[name]] += s
            durations[name] += end - start
        op_s = sum(
            end - start
            for start, end, parent in zip(self.span_start, self.span_end, self.span_parent)
            if parent < 0
        )
        c = self.counts
        pairs = c["densela.pairs"]
        candidates = c["solver.candidates"]
        m = {metric: times[metric] for metric in sorted(set(SELF_TIME_METRIC.values()))}
        m.update(
            {
                "densela.eig_calls": c["densela.generalized_eig"],
                "densela.eig_s": durations["densela.generalized_eig"],
                "densela.order3_sum": c["densela.order3_sum"],
                "densela.bytes_in": c["densela.bytes_in"],
                "densela.vec_use_ratio": candidates / pairs if pairs else 0.0,
                "linearize.companion_calls": c["linearize.first_companion"]
                + c["linearize.alternate_companion"],
                "linearize.recover_calls": c["linearize.recover_from_first"]
                + c["linearize.recover_from_alternate"],
                "linearize.recover_fail": sum(
                    n for key, n in self.errors.items()
                    if key.startswith("linearize.recover") and key.endswith(RecoveryError.__name__)
                ),
                "condition.kappa_calls": c["condition.pencil_condition"]
                + c["condition.quadratic_condition"],
                "condition.dirsens_calls": c["condition.directional_sensitivity"],
                "condition.bad_direction": self.errors[
                    f"condition.directional_sensitivity:{BadDirectionError.__name__}"
                ],
                "matpoly.perturb_calls": c["matpoly.sample_perturbation"],
                "solver.calls": c["solver.solve_polynomial"],
                "solver.candidates": candidates,
                "solver.accepted": c["solver.accepted"],
                "solver.accept_ratio": c["solver.accepted"] / candidates if candidates else 0.0,
                "solver.split_dropped": c["densela.finite"] - candidates if pairs else 0,
                "verify.trials": c["verify.trials"],
                "verify.ks_stat": max(self.ks_stats, default=0.0),
                "trace.op_s": op_s,
                "trace.spans": len(self),
            }
        )
        roots = Counter(op for op, parent in zip(self.span_op, self.span_parent) if parent < 0)
        roots_ok = sum(1 for k in range(steps) if roots[k] == 1)
        layer_sum = sum(times.values())
        untraced_share = (busy_s - layer_sum) / busy_s
        check = {
            "self_time_sum_s": layer_sum,
            "op_s": op_s,
            "busy_s": busy_s,
            "roots_ok": roots_ok,
            "stray_roots": sum(n for op, n in roots.items() if not 0 <= op < steps),
            "untraced_share": untraced_share,
        }
        check["ok"] = (
            roots_ok == steps
            and check["stray_roots"] == 0
            and 0.0 <= untraced_share <= UNTRACED_SHARE_LIMIT
        )
        return m, check

    def dump_spans(self):
        """Spans as plain lists for the result file."""
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_s": self.span_start.tolist(),
            "end_s": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
