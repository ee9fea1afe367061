"""Reference kernel: fixed work, independent of curvemine, timed between ops.

On a shared 2-core KVM guest the machine's speed changes every few seconds:
the same rank op on the same input varied by 60%, and run medians by 20%,
within minutes. Each op's wall time is divided by the median kernel time
measured just before and just after the op, and multiplied by ``NOMINAL_S``.
It then reads as seconds on a machine where the kernel takes ``NOMINAL_S``.
The kernel mixes the work the workloads do: Python bytecode (an integer
loop), small-array numpy calls in a Python loop (LM at n = 330) and
large-array numpy (LM at n = 20,000). Object construction was left out: it
swung twice as much as the ops did. Raw wall seconds are kept beside every
normalized figure; NOTES.md has the evidence.
"""

from __future__ import annotations

import time

import numpy as np

# About the median kernel time on the 2-core Xeon KVM guest (Python 3.11,
# numpy 2.4, one BLAS thread) where the benchmark was calibrated. Only the
# scale of normalized figures depends on it; never change it, or figures
# measured before and after the change stop being comparable.
NOMINAL_S = 0.016

_SMALL_X = np.linspace(-1.0, 51.0, 330)
_BIG_X = np.linspace(-1.0, 51.0, 20_000)


def _lm(x: np.ndarray, iterations: int) -> float:
    y = 100.0 * np.exp(-0.5 * ((x - 15.0) / 8.0) ** 2)
    p = np.array([90.0, 14.0, 7.0])
    for _ in range(iterations):
        u = (x - p[1]) / p[2]
        e = np.exp(-0.5 * u * u)
        jac = np.stack([e, p[0] * e * u / p[2], p[0] * e * u * u / p[2]])
        a = jac @ jac.T
        step = np.linalg.solve(a + 1e-3 * np.diag(np.diag(a)), jac @ (y - p[0] * e))
        p = p + 0.5 * step
    return float(p[0])


def reference_kernel() -> float:
    """Run the fixed work once; return its wall seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    _lm(_SMALL_X, 150)
    _lm(_BIG_X, 12)
    return time.perf_counter() - t0
