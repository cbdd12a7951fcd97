"""Host-speed scaling for the end-to-end timings.

On a shared machine the speed of one core drifts by tens of percent over
minutes, for reasons outside this process.  A fixed kernel, owned by the
benchmark and never changed by the program, is timed before and after
every measured operation; each timing is then scaled to a host on which
the kernel takes ``REFERENCE_S``.  The kernel is what the program spends
most of its time on: batched float32 frame-level products, leaky
rectifiers, statistics pooling and the matching weight gradients.
"""

import time

import numpy as np

REFERENCE_S = 0.04


class HostSpeed:
    def __init__(self):
        g = np.random.default_rng(0)
        self._x = g.standard_normal((32, 50, 20)).astype(np.float32)
        self._w1 = (0.2 * g.standard_normal((64, 20))).astype(np.float32)
        self._w2 = (0.1 * g.standard_normal((64, 64))).astype(np.float32)
        self.readings = []
        self.read()  # the first pass pays for page faults and BLAS start-up
        self.readings.clear()

    def read(self):
        """Time the kernel once; returns the reading's index."""
        x, w1, w2 = self._x, self._w1, self._w2
        t0 = time.perf_counter()
        for _ in range(25):
            a1 = x @ w1.T
            z1 = np.maximum(a1, 0.01 * a1)
            a2 = z1 @ w2.T
            z2 = np.maximum(a2, 0.01 * a2)
            mean = z2.mean(axis=1)
            centered = z2 - mean[:, None, :]
            std = np.sqrt((centered ** 2).mean(axis=1) + 1e-12)
            g2 = centered / std[:, None, :]
            g2.reshape(-1, 64).T @ z1.reshape(-1, 64)
            (g2 @ w2).reshape(-1, 64).T @ x.reshape(-1, 20)
        self.readings.append(time.perf_counter() - t0)
        return len(self.readings) - 1

    def slowness(self, before):
        """How much slower than the reference host the machine ran around a
        timing taken between readings ``before`` and ``before + 1``."""
        return 0.5 * (self.readings[before] + self.readings[before + 1]) / REFERENCE_S
