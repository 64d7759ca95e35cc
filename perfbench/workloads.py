"""The three benchmark workloads and the correctness gate they share.

Every workload is a closed loop: one caller, and the next call into the
package starts when the previous one returns.  A workload is built from the
workload seed alone, then runs numbered cycles; cycle ``k`` always performs
the same calls with the same per-call seeds, so any prefix of cycles can be
replayed exactly (the traced run relies on this).

Calls into the package go through module attributes (``verify.x(...)``,
not ``from ... import x``) so that the tracer's wrappers, when installed,
see them.  The gate keeps its own reference to ``match_accepted`` taken at
import time, before any wrapper exists, so gating is never traced; the
self-check's KS test uses a reference taken the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.stats
from scipy.stats import ks_2samp as _ks_2samp

from sqeig import construct, corpus, solver, verify
from sqeig.condition import inverse_condition
from sqeig.verify import TruthSpec
from sqeig.verify import match_accepted as _match_accepted

#: criterion 2: an accepted eigenvalue must satisfy |err| <= ACCURACY_FACTOR * epsilon * kappa_bar
ACCURACY_FACTOR = 100.0
#: criterion 3: largest two-sample KS distance a sensitivity batch may show
KS_LIMIT = 0.03
#: model draws per sensitivity batch, as in the acceptance suite
MODEL_SIZE = 10**6


def child_seed(parent, k):
    """Child ``k`` of a SeedSequence, the same one ``parent.spawn`` yields as its k-th."""
    return np.random.SeedSequence(
        parent.entropy, spawn_key=parent.spawn_key + (k,), pool_size=parent.pool_size
    )


@dataclass
class Tally:
    """Gate counts for one label (a corpus problem, a ladder rung or an instance)."""

    attempted: int = 0
    failed: int = 0
    truth: int = 0
    matched: int = 0
    detected: int = 0
    detect_ops: int = 0

    def add(self, other):
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class Verdict:
    """Gate verdict of one eigenvalue operation."""

    ok: bool
    truth: int
    matched: int
    exact: bool
    reasons: list = field(default_factory=list)

    def tally(self):
        return Tally(
            attempted=1,
            failed=int(not self.ok),
            truth=self.truth,
            matched=self.matched,
            detected=int(self.exact),
            detect_ops=1,
        )


def gate_accepted(accepted, truth, epsilon):
    """Check accepted eigenvalues against the known truth.

    ``accepted`` holds (value, kappa_bar) pairs.  The exact-set test is
    ``verify.match_accepted`` itself; the partial matching below uses the
    same cost (|a - t|) and the same relative tolerance, so it can also
    tell extra accepted values from missed true ones.  An operation fails
    when an accepted value has no true match, or when a matched value
    breaks the criterion-2 bound.
    """
    values = [complex(v) for v, _ in accepted]
    kappas = [float(k) for _, k in accepted]
    true_values = list(truth.finite_eigenvalues)
    exact = _match_accepted(values, true_values, truth.match_tol) is not None
    reasons = []
    matched = 0
    if values and true_values:
        cost = np.abs(np.subtract.outer(np.array(values), np.array(true_values)))
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        for i, j in zip(rows, cols):
            if cost[i, j] > truth.match_tol * max(1.0, abs(true_values[j])):
                continue
            matched += 1
            bound = ACCURACY_FACTOR * epsilon * kappas[i]
            if cost[i, j] > bound:
                reasons.append(f"accuracy: |err|={cost[i, j]:.3e} > {bound:.3e}")
    if len(values) > matched:
        reasons.append(f"extra: {len(values) - matched} accepted value(s) with no true match")
    return Verdict(
        ok=not reasons, truth=len(true_values), matched=matched, exact=exact, reasons=reasons
    )


def raised_verdict(truth, error):
    """Verdict of an operation that raised instead of returning."""
    return Verdict(
        ok=False, truth=len(truth.finite_eigenvalues), matched=0, exact=False, reasons=[error]
    )


def inject_wrong_value(accepted, truth):
    """Copy of an accepted list with one value moved far from every truth."""
    far = 1.0 + 10.0 * max([1.0] + [abs(t) for t in truth.finite_eigenvalues])
    out = list(accepted)
    if out:
        out[0] = (far, out[0][1])
    else:
        out.append((far, 1.0))
    return out


def _accepted_pairs(results):
    return [(r.value, r.kappa_bar) for r in results if r.accepted]


def _sensitivity_verdict(values, ks):
    """Criterion 3 for one batch: finite positive samples and KS <= KS_LIMIT."""
    reasons = []
    if not np.all(np.isfinite(values) & (values > 0)):
        reasons.append("non-finite or non-positive sensitivity sample")
    if not ks <= KS_LIMIT:
        reasons.append(f"KS statistic {ks:.4f} > {KS_LIMIT}")
    return reasons


class McCorpus:
    """One empirical_probability trial per built-in problem per cycle."""

    name = "mc_corpus"
    gate_cycles = 100
    trace_cycles = 100

    def __init__(self, seed):
        root = np.random.SeedSequence(seed)
        problem_root, self.trial_root, self.warm_root = root.spawn(3)
        self.cfg = solver.SolverConfig()
        self.problems = []
        for j, name in enumerate(corpus.BUILTIN_NAMES):
            poly, truth = corpus.builtin(name, seed=child_seed(problem_root, j))
            self.problems.append((name, poly, truth))

    @property
    def labels(self):
        return [name for name, _, _ in self.problems]

    def warmup(self):
        name, poly, truth = self.problems[0]
        cfg = self.cfg.with_seed(child_seed(self.warm_root, 0))
        report = verify.empirical_probability(poly, truth, cfg, 1, keep_trials=True)
        return _accepted_pairs(report.trials[0].accepted), truth

    def run_cycle(self, k, clock):
        seeds = child_seed(self.trial_root, k)
        for j, (name, poly, truth) in enumerate(self.problems):
            cfg = self.cfg.with_seed(child_seed(seeds, j))
            report = clock.op(verify.empirical_probability, poly, truth, cfg, 1, keep_trials=True)
            if report is None:
                clock.record(name, raised_verdict(truth, clock.last_error))
                continue
            accepted = _accepted_pairs(report.trials[0].accepted)
            clock.record(name, gate_accepted(accepted, truth, self.cfg.epsilon))


def _ladder_eigenvalues(count, rng):
    moduli = rng.uniform(0.5, 2.0, size=count)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return moduli * np.exp(1j * phases)


class SizeLadder:
    """QZ-bound solves of chain quadratics and synthetic pencils of growing order.

    Each rung runs at normal rank n/2.  A cycle holds ``count`` solves of
    each rung, about 14 s on a 2-core Xeon VM, and a run holds at least
    three cycles, so always at least 114 solves.  The rungs' solve times do
    not overlap, so a pooled percentile over whole cycles always falls at
    the same place in the same rung: with the rungs in order of solve time,
    the synth200 rung covers cycle shares 0.79-0.92, so p85 lies in its
    middle, with at least 17 solves beyond it.
    """

    name = "size_ladder"
    gate_cycles = 3
    trace_cycles = 1
    # (label, kind, n, solves per cycle), in order of solve time; pencils QZ
    # at order n, quadratics run two QZ calls at order 2n
    RUNGS = (
        ("synth100", "synth", 100, 24),
        ("chain50", "chain", 50, 6),
        ("synth200", "synth", 200, 5),
        ("chain100", "chain", 100, 1),
        ("synth400", "synth", 400, 1),
        ("chain200", "chain", 200, 1),
    )

    def __init__(self, seed):
        root = np.random.SeedSequence(seed)
        problem_root, self.trial_root, self.warm_root = root.spawn(3)
        self.cfg = solver.SolverConfig()
        self.rungs = {}
        for j, (label, kind, n, _) in enumerate(self.RUNGS):
            ss = child_seed(problem_root, j)
            if kind == "chain":
                rng = np.random.default_rng(ss)
                inst = construct.chain_quadratic(_ladder_eigenvalues(n // 2, rng), n, rng=rng)
                self.rungs[label] = (inst.polynomial(), TruthSpec(inst.eigenvalues))
            else:
                self.rungs[label] = corpus.synth_pencil(n, n // 2, seed=ss)
        self.schedule = self._interleave()

    @property
    def labels(self):
        return [label for label, _, _, _ in self.RUNGS]

    def _interleave(self):
        # spread each rung's solves evenly over the cycle
        slots = max(count for *_, count in self.RUNGS)
        order = []
        for i in range(slots):
            for label, _, _, count in self.RUNGS:
                if i * count % slots < count:
                    order.append(label)
        assert all(order.count(label) == count for label, _, _, count in self.RUNGS)
        return order

    def warmup(self):
        label = self.schedule[0]
        poly, truth = self.rungs[label]
        cfg = self.cfg.with_seed(child_seed(self.warm_root, 0))
        return _accepted_pairs(solver.solve_polynomial(poly, cfg)), truth

    def run_cycle(self, k, clock):
        seeds = child_seed(self.trial_root, k)
        for j, label in enumerate(self.schedule):
            poly, truth = self.rungs[label]
            cfg = self.cfg.with_seed(child_seed(seeds, j))
            results = clock.op(solver.solve_polynomial, poly, cfg)
            if results is None:
                clock.record(label, raised_verdict(truth, clock.last_error))
                continue
            clock.record(label, gate_accepted(_accepted_pairs(results), truth, self.cfg.epsilon))


@dataclass(frozen=True)
class _SensitivityInstance:
    label: str
    poly: object
    lam0: complex
    bases: object
    gamma: float
    big_n: int
    r: int
    batch: int


class SensitivityLaw:
    """Directional sensitivities against their beta-ratio model law.

    Each cycle draws one batch per instance, one sample per call, then
    draws the model law and runs the two-sample KS test of criterion 3.
    The first instance is the acceptance-suite one; the second has larger
    order and corank.
    """

    name = "sensitivity_law"
    gate_cycles = 1
    trace_cycles = 1
    # (label, designed eigenvalues, order, samples per batch); lambda = 1 throughout
    INSTANCES = (
        ("chain3", (1.0, 0.5), 3, 10**4),
        ("chain5", (1.0, 0.5, 2.0), 5, 10**4),
    )

    def __init__(self, seed):
        root = np.random.SeedSequence(seed)
        problem_root, self.trial_root, self.warm_root = root.spawn(3)
        self.instances = []
        for j, (label, lams, n, batch) in enumerate(self.INSTANCES):
            inst = construct.chain_quadratic(lams, n, rng=np.random.default_rng(child_seed(problem_root, j)))
            poly = inst.polynomial()
            bases = inst.bases(1.0)
            self.instances.append(
                _SensitivityInstance(
                    label=label,
                    poly=poly,
                    lam0=1.0,
                    bases=bases,
                    gamma=inverse_condition(poly, 1.0, bases.x, bases.y),
                    big_n=poly.n**2 * (poly.degree + 1),
                    r=inst.normal_rank,
                    batch=batch,
                )
            )

    @property
    def labels(self):
        return [inst.label for inst in self.instances]

    def warmup(self):
        inst = self.instances[0]
        rng = np.random.default_rng(child_seed(self.warm_root, 0))
        return verify.sensitivity_samples(inst.poly, inst.lam0, inst.bases, 1, rng)

    def run_cycle(self, k, clock):
        seeds = child_seed(self.trial_root, k)
        for j, inst in enumerate(self.instances):
            rng = np.random.default_rng(child_seed(seeds, j))
            values = np.full(inst.batch, np.nan)
            raised = []
            for i in range(inst.batch):
                sample = clock.op(
                    verify.sensitivity_samples, inst.poly, inst.lam0, inst.bases, 1, rng
                )
                if sample is None:
                    raised.append(clock.last_error)
                else:
                    values[i] = sample[0]
            model = clock.step(
                verify.model_sensitivity_samples, inst.big_n, inst.poly.n, inst.r, MODEL_SIZE, rng
            )
            result = None if model is None else clock.step(
                scipy.stats.ks_2samp, inst.gamma * values, model
            )
            if result is None:
                clock.record_batch(inst.label, inst.batch, raised + [clock.last_error], np.nan)
                continue
            ks = float(result.statistic)
            reasons = raised[:1] + _sensitivity_verdict(values, ks)
            clock.record_batch(inst.label, inst.batch, reasons, ks)
            if clock.wants_selfcheck:
                # known-wrong copy: samples scaled by 1.5 must break criterion 3
                wrong = float(_ks_2samp(1.5 * inst.gamma * values, model).statistic)
                clock.selfcheck_result(bool(_sensitivity_verdict(values, wrong)))


WORKLOADS = {w.name: w for w in (McCorpus, SizeLadder, SensitivityLaw)}
