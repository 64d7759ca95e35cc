"""A fixed reference kernel that tracks the host's speed during a run.

A shared host runs the same code up to about twice as fast at one moment
as a few seconds later, and both the workload and any unrelated code slow
down together.  The timed loop therefore runs ``reference`` between
operations (untimed) and scales every operation time by how long the
reference took around it.  Scaled times are in *reference seconds*: the
time the operation would take on a host on which one reference call takes
``NOMINAL_S``.  The kernel uses only Python, numpy and scipy, never
sqeig, so a change to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# bound at import, before any tracer wrapper exists, so that the traced run
# never records the reference kernel's eigenproblems
from scipy.linalg import eig as _eig

#: reference call time that scaled times are expressed against; about the
#: median on the 2-vCPU Xeon VM the benchmark was tuned on
NOMINAL_S = 0.008
#: busy time between two reference calls in the timed loop
EVERY_S = 0.1

_rng = np.random.default_rng(0)
# one pencil the size of a small corpus problem's companion form, one the
# size of a small ladder rung's
_PENCILS = [(_rng.standard_normal((n, n)), _rng.standard_normal((n, n))) for n in (40, 64)]
_VECTOR = np.arange(64.0)


def _python_loop():
    x = 0
    for i in range(5000):
        x += i * i
    return x


def _small_arrays():
    a = _VECTOR
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    return a


def reference():
    """Run the reference kernel once; returns its wall time in seconds."""
    t0 = perf_counter()
    _python_loop()
    _small_arrays()
    for a, b in _PENCILS:
        _eig(a, b)
    return perf_counter() - t0


def scaled_times(durations, refs_before, refs):
    """Scale each duration by the reference calls that bracket it.

    ``refs_before[i]`` is how many reference calls had run before call
    ``i`` started (at least one), and ``refs`` must hold one more call made
    after the last duration.  Call ``i`` is scaled by ``NOMINAL_S`` over the
    mean of the reference calls just before and just after it.
    """
    refs = np.asarray(refs)
    idx = np.asarray(refs_before)
    local = 0.5 * (refs[idx - 1] + refs[idx])
    return np.asarray(durations) * (NOMINAL_S / local)
