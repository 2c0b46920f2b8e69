"""Reference kernels that gauge how fast the host runs right now.

On a shared host each CPU runs slow in spells of about a second, and the
share of slow spells drifts over minutes: small numpy calls then take about
1.75x as long, an SMO solve about 1.35x and large array operations about
1.2x.  The benchmark times a reference kernel shaped like the workload's hot
loop before and after every op and reports op time in units of reference
time.  The kernels use numpy only, never ankerrank, so a change to the
library cannot move them.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    """A fixed kernel of one kind, shaped like the loop a workload spends its
    time in: "small" (BTL sweeps on 10 items), "vector" (SMO on m = 1900)
    or "large" (analogy-kernel blocks)."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        if kind == "small":
            self.vector = rng.random(1900)
            self.matrix = rng.random((10, 10)) + 0.5
            self.run = self._small
        elif kind == "vector":
            self.labels = np.where(rng.random(1900) < 0.5, -1.0, 1.0)
            self.gram = rng.random((1900, 1900))
            self.run = self._vector
        elif kind == "large":
            self.left = rng.random((300, 10)) * 2 - 1
            self.right = rng.random((300, 10)) * 2 - 1
            self.run = self._large
        else:
            raise ValueError(f"unknown reference kind {kind!r}")

    def _small(self) -> None:
        # Shaped like one SMO working-pair update and one BTL sweep.
        grad = self.vector.copy()
        theta = np.full(10, 0.1)
        for _ in range(150):
            i = int(np.argmax(np.where(grad > 0.3, grad, -np.inf)))
            grad += self.vector * (1e-9 * i)
            theta = (self.matrix / (theta[:, None] + theta[None, :])).sum(axis=1)
            theta /= theta.sum()

    def _vector(self) -> None:
        # Shaped like smo_train's loop on m = 1900: pick a working pair, then
        # update the gradient along two columns of an m x m matrix.
        y = self.labels
        grad = -np.ones_like(y)
        up = y > 0
        low = ~up
        for _ in range(40):
            v = -y * grad
            i = int(np.argmax(np.where(up, v, -np.inf)))
            j = int(np.argmin(np.where(low, v, np.inf)))
            grad += self.gram[:, i] * 1e-6
            grad -= self.gram[:, j] * 1e-6

    def _large(self) -> None:
        # Shaped like kernel_matrix: one gated similarity slab per feature.
        acc = np.zeros((self.left.shape[0], self.right.shape[0]))
        for k in range(self.left.shape[1]):
            u = self.left[:, k][:, None]
            v = self.right[:, k][None, :]
            acc += np.where(np.sign(u) == np.sign(v), 1.0 - np.abs(u - v), 0.0)

    def seconds(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start
