"""A fixed calibration kernel that tracks how fast the machine runs right now.

On a shared 2-vCPU box the same op's wall time drifts by 20-70 % over seconds
to minutes, with CPU time drifting alike (no steal is accounted), so raw
medians of two identical runs can differ by more than any useful bound.
The worker runs this kernel before every op, outside the op's timed
section, and reports op times in calibrated seconds:

    calibrated = wall time * NOMINAL_S / (kernel time around the op)

that is, the seconds the op would take with the kernel at its nominal speed.
The kernel is plain NumPy and Python written here, not the program, so a
change to the program moves calibrated times as it moves raw ones.
It mixes the kinds of work the workloads do: interpreted Python, NumPy calls
on 0-d and small arrays, and a large broadcast scan.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the box where the benchmark was defined: a 2-vCPU
# Intel Xeon VM at 2.1 GHz, one BLAS thread
NOMINAL_S = 0.0060
WINDOW = 5  # kernel samples (centred on the op) whose median calibrates an op


class Kernel:
    """Fixed inputs and work; calling it returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(20180521)
        self.X = rng.normal(size=(1000, 20))
        self.y = self.X @ rng.normal(size=20) + rng.normal(size=1000)
        self.v = np.linspace(0.0, 1.0, 1025)
        self.g = -(self.v * np.log(np.where(self.v > 0, self.v, 1.0)) - self.v + 1.0)
        self.l = np.linspace(0.0, 8.0, 513)

    def work(self) -> float:
        acc = 0.0
        for i in range(10000):  # interpreted Python
            acc += i * i % 7
        for i in range(200):  # NumPy calls on 0-d arrays, as in per-block weight lookups
            x = np.asarray(i * 0.01)
            acc += float(np.clip(np.exp(-x), 0.0, 1.0)) + float(np.where(x < 1.0, x, 1.0))
        w, lam = np.zeros(20), 1.0
        for _ in range(8):  # small-array NumPy calls, as in a reweighting loop
            r = (self.X @ w - self.y) ** 2
            v = np.minimum(1.0, np.exp(-r / lam))
            A = self.X.T @ (v[:, None] * self.X) + 1e-3 * np.eye(20)
            w = np.linalg.solve(A, self.X.T @ (v * self.y))
            lam *= 1.3
        # one broadcast scan over 1025 x 513 points, as in a conjugate
        scan = np.min(self.v[:, None] * self.l[None, :] - self.g[:, None], axis=0)
        return acc + float(w.sum()) + float(scan.sum())

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


def calibrated(times, kernel_times):
    """Each time scaled by NOMINAL_S over the median kernel time around it."""
    half = WINDOW // 2
    out = []
    for i, t in enumerate(times):
        lo = max(0, min(i - half, len(kernel_times) - WINDOW))
        out.append(t * NOMINAL_S / statistics.median(kernel_times[lo : lo + WINDOW]))
    return out
