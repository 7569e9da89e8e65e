"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the speed of the same code drifts by up to 2x
over minutes, for spells that outlast a run.  The benchmark times this
kernel between passes and scales its timings by the kernel's fastest time
against ``REFERENCE_S``, so the drift cancels.  The kernel mixes the kinds
of work effbath does (Python calls, small-array numpy, dot products and
float formatting) and never calls effbath, so no change to the program
can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the kernel's fastest time on the 2-vCPU Xeon the benchmark was defined on
REFERENCE_S = 0.0035

_rng = np.random.default_rng(0)
_LONG_A, _LONG_B = _rng.random(20000), _rng.random(20000)
_SHORT = _rng.random(64)


def _rational(x: float) -> float:
    return x * x / (1.0 + x)


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    start = perf_counter()
    total = 0.0
    for i in range(4000):
        total += _rational(i * 0.001)
    for _ in range(300):
        total += float(np.sum(np.exp(-_SHORT) * _SHORT))
    for _ in range(60):
        total += float(np.dot(_LONG_A, _LONG_B))
    "".join(format(v, ".17g") for v in _LONG_A[:3000])
    return perf_counter() - start
