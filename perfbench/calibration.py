"""Machine-speed calibration, so that timings compare across a drifting machine.

On a shared host the same work runs up to ~40% slower for minutes at a time
(other tenants on the same cores).  A fixed kernel that does not use relucert
runs between the stages of every pass, and a run's times are reported as
``raw * REFERENCE_S / kernel time``: seconds on a machine where the kernel
takes REFERENCE_S.  A change to the program cannot move the kernel, so the
ratio moves only with the program.

The kernel does, in about equal parts, the three kinds of work the workloads
do: per-point region geometry of a small ReLU net in Python and numpy (like
certification and the regularizer), many tiny numpy calls, and a BLAS matmul
(like PGD).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.05
SAMPLES = 3   # kernel runs at each stage boundary


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.w1 = rng.standard_normal((64, 2))
        self.b1 = 0.3 * rng.standard_normal(64)
        self.w2 = rng.standard_normal((3, 64))
        self.points = rng.uniform(0.0, 1.0, (300, 2))
        self.small = rng.standard_normal((64, 64))
        self.left = rng.standard_normal((1000, 256))
        self.right = rng.standard_normal((256, 256))
        self.times = []

    def _once(self):
        t = time.perf_counter()
        for x in self.points:
            mask = self.w1 @ x + self.b1 > 0
            v = self.w2 @ (self.w1 * mask[:, None])
            u = np.abs(self.w1 @ x + self.b1)
            d1 = u / np.abs(self.w1).max(axis=1)
            np.argsort(d1, kind="stable")[:8]
            diff = v[0] - v[1:]
            float(np.min(diff @ x / np.abs(diff).sum(axis=1)))
        x = self.small[0]
        for _ in range(1200):
            x = np.maximum(self.small @ x * 0.01 + 0.1, 0.0)
        for _ in range(5):
            self.left @ self.right
        return time.perf_counter() - t

    def sample(self):
        """Run the kernel SAMPLES times and keep the times."""
        self.times += [self._once() for _ in range(SAMPLES)]

    def seconds(self):
        """Kernel time of the run: mean of the middle 80% of the samples,
        which follows the average speed a long stage sees."""
        ts = sorted(self.times)
        cut = len(ts) // 10
        return statistics.mean(ts[cut:len(ts) - cut])
