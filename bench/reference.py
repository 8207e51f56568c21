"""Scaling wall times to a fixed host speed, with a reference task.

On a shared host the same work can take up to twice as long from one minute to
the next, because other tenants compete for the cores' shared units.  The
benchmark therefore runs a fixed reference task in its own process before the
first timed piece of work and after each one, and scales the piece's wall time
by ``REF_S`` over the mean reference time around it.  A slow phase of the host
slows the piece and the reference alike and cancels; a change to elastoscan
moves the scaled time in proportion.  After a piece the task repeats until it
has run for ``REF_SHARE`` of the piece's time, so that a long piece is compared
with a long sample of the host's speed and not with one noisy pass.

The task mirrors the program's mix and touches no elastoscan code: Python
float formatting and parsing (MSR/1 and CSV files), complex exponentials over
an array (kernels and indicator phases), complex matrix products (the
indicators' F @ Phi) and an LU factorization (the forward solve).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

REF_S = 0.2          # seconds the task takes on the 2-core baseline host in a quiet phase
FLOATS = 30_000
MATRIX = 400
PRODUCT = 512
REPEATS = 5
PRODUCTS = 3
REF_SHARE = 0.05
START_S = 1.0        # reference time before the first timed call, after untimed work


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(FLOATS).tolist()
        self.matrix = rng.standard_normal((MATRIX, MATRIX))
        self.left = rng.standard_normal((PRODUCT, PRODUCT)) * (1 + 1j)
        self.right = rng.standard_normal((PRODUCT, PRODUCT)) * (1 - 1j)

    def run(self) -> float:
        """One pass of the task; returns its wall time in seconds."""
        t0 = time.perf_counter()
        text = " ".join(f"{v:.17g}" for v in self.values)
        back = [float(p) for p in text.split(" ")]
        for _ in range(REPEATS):
            np.exp(1j * self.matrix)
            scipy.linalg.lu_factor(self.matrix)
        for _ in range(PRODUCTS):
            self.left @ self.right
        wall = time.perf_counter() - t0
        if back != self.values:           # the round trip is exact at 17 digits
            raise RuntimeError("reference task round trip changed a value")
        return wall


class HostClock:
    """Scales each timed piece of work to the host speed at which the task takes REF_S."""

    def __init__(self) -> None:
        self.reference = Reference()
        self.refs: list[float] = []          # every pass, for the report
        self.before = self._sample(0.0)

    def _sample(self, budget_s: float) -> float:
        """Mean time of passes of the task, repeated until they took ``budget_s``."""
        times = [self.reference.run()]
        while sum(times) < budget_s:
            times.append(self.reference.run())
        self.refs += times
        return sum(times) / len(times)

    def resample(self, budget_s: float = START_S) -> None:
        """Measure the host speed afresh when untimed work follows the last piece."""
        self.before = self._sample(budget_s)

    def scale(self, wall_s: float) -> float:
        """Call right after the piece of work that took ``wall_s``."""
        after = self._sample(REF_SHARE * wall_s)
        scaled = wall_s * REF_S / (0.5 * (self.before + after))
        self.before = after
        return scaled
