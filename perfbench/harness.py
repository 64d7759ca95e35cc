"""Timing loop and gate bookkeeping shared by the runner's modes.

``Clock`` is what a workload's ``run_cycle`` talks to: it times each call
into the package, runs the host-speed reference between calls, and collects
the gate's verdicts.  ``measure`` runs the timed loop in whole cycles;
``replay`` reruns a fixed prefix of cycles, which the traced run uses.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import hostspeed
from workloads import Tally

#: operation-time percentile reported as op_ms_tail: the highest that
#: leaves at least 10 operations beyond it in every run of every workload
#: and stays steady (p90 falls near the top of a size_ladder rung)
TAIL_PERCENTILE = 85
#: percentiles printed in the report but not gated
UNGATED_PERCENTILES = (10, 50)


class Clock:
    """Times the workload's calls and collects the gate's verdicts.

    ``op`` times one operation; ``step`` times work that belongs to the
    measured loop but is not an operation (a sensitivity batch's model draws
    and KS test).  A call that raises returns None, and the workload counts
    it as failed; ``last_error`` says why.  Gate bookkeeping and the
    host-speed reference run between the timed calls and are not counted;
    the reference runs once at the start, after every ``hostspeed.EVERY_S``
    of busy time, and once more in ``finish``.
    """

    def __init__(self, labels, tracer=None):
        self.tracer = tracer
        self.op_times = []
        self.busy_s = 0.0
        self.steps = 0
        self.call_times = []
        self.call_is_op = []
        self.call_refs = []
        self.refs = [hostspeed.reference()]
        self._since_ref = 0.0
        self.last_error = None
        self.tallies = {label: Tally() for label in labels}
        self.failures = []
        self.ks_stats = []
        self.wants_selfcheck = False
        self.selfchecks = []

    def _timed(self, fn, args, kwargs):
        if self.tracer is not None:
            self.tracer.op = self.steps
        self.steps += 1
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a gate failure, not a crash
            out = None
            self.last_error = f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.op = -1
        self.busy_s += dt
        self.call_times.append(dt)
        self.call_refs.append(len(self.refs))
        self._since_ref += dt
        if self._since_ref >= hostspeed.EVERY_S:
            self._reference()
        return out, dt

    def _reference(self):
        self.refs.append(hostspeed.reference())
        self._since_ref = 0.0

    def op(self, fn, *args, **kwargs):
        out, dt = self._timed(fn, args, kwargs)
        self.op_times.append(dt)
        self.call_is_op.append(True)
        return out

    def step(self, fn, *args, **kwargs):
        out, _ = self._timed(fn, args, kwargs)
        self.call_is_op.append(False)
        return out

    def finish(self):
        """Run the reference after the last call, if it has not run since."""
        if self.call_refs and self.call_refs[-1] == len(self.refs):
            self._reference()

    def scaled_times(self):
        """Every call's time in reference seconds, and which calls are operations."""
        self.finish()
        scaled = hostspeed.scaled_times(self.call_times, self.call_refs, self.refs)
        return scaled, np.asarray(self.call_is_op, dtype=bool)

    def record(self, label, verdict):
        self.tallies[label].add(verdict.tally())
        if not verdict.ok:
            self.failures.append((label, verdict.reasons))

    def record_batch(self, label, n_ops, reasons, ks):
        failed = n_ops if reasons else 0
        self.tallies[label].add(Tally(attempted=n_ops, failed=failed))
        self.ks_stats.append(ks)
        if reasons:
            self.failures.append((label, reasons))

    def selfcheck_result(self, gate_failed):
        self.selfchecks.append(("sensitivity gate flags a known-wrong batch", gate_failed))
        self.wants_selfcheck = False

    def total(self):
        return total(self.tallies)


@dataclass
class GateSnapshot:
    """A clock's gate verdicts at one moment."""

    tallies: dict
    ks_stats: list

    @classmethod
    def of(cls, clock):
        return cls(copy.deepcopy(clock.tallies), list(clock.ks_stats))

    def total(self):
        return total(self.tallies)


def total(tallies):
    out = Tally()
    for t in tallies.values():
        out.add(t)
    return out


def replay(wl, clock, cycles):
    """Run cycles 0 .. cycles-1."""
    for k in range(cycles):
        wl.run_cycle(k, clock)


def measure(wl, clock, seconds):
    """Run whole cycles until ``seconds`` have passed.

    Runs at least the first ``wl.gate_cycles`` cycles and stops at the first
    cycle boundary after ``seconds``.  Returns the gate snapshot taken after
    the gate cycles and the number of cycles run.
    """
    gate = None
    start = perf_counter()
    k = 0
    while gate is None or perf_counter() - start < seconds:
        wl.run_cycle(k, clock)
        k += 1
        if k == wl.gate_cycles:
            gate = GateSnapshot.of(clock)
    return gate, k


def op_stats(clock):
    """Throughput and pooled percentiles, in reference seconds and as measured.

    The gated values are the scaled ones (see ``hostspeed``); the measured
    wall-clock ones are reported beside them.
    """
    scaled, is_op = clock.scaled_times()
    times = scaled[is_op]
    raw = np.asarray(clock.op_times)
    tail = float(np.percentile(times, TAIL_PERCENTILE))
    return {
        "ops_per_s": times.size / float(scaled.sum()),
        "op_ms_tail": 1e3 * tail,
        "beyond_tail": int(np.count_nonzero(times > tail)),
        "ungated_ms": {
            f"p{q}": 1e3 * float(np.percentile(times, q)) for q in UNGATED_PERCENTILES
        },
        "wall": {
            "ops_per_s": raw.size / clock.busy_s,
            "op_ms_tail": 1e3 * float(np.percentile(raw, TAIL_PERCENTILE)),
        },
        "host_factor": hostspeed.NOMINAL_S / float(np.median(clock.refs)),
        "ref_calls": len(clock.refs),
    }
