"""A fixed piece of work that measures how fast the host runs right now.

On a shared host the speed of one CPU drifts by about +-25% over seconds
to minutes, as other tenants load it; that drift moves every timing of a
run by the same factor and swamps differences between runs of one
program.  The probe does the same work every time, in the kinds of code
the CLI spends its time in (argparse, JSON, small eigenproblems, numpy row
operations, plain Python loops), and never calls kanext, so a change to
the program cannot move it.  ``run.py`` times it between commands all
through a run and divides each command's time by the probe's time around
it over ``REFERENCE_S``, its time on a calm reference host: the
end-to-end metrics read as they would at that host's speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

# The probe's median time on a calm 2-vCPU Intel Xeon host (Python
# 3.11, numpy 2.4, OpenBLAS); only the scale of the metrics depends on it.
REFERENCE_S = 0.01
ROUNDS = 10  # about 10 ms of work, long enough to time one probe well
_SEED = 20221006  # fixed: the probe's work never depends on the run's seed


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(_SEED)
        g = rng.normal(size=(12, 4, 4)) + 1j * rng.normal(size=(12, 4, 4))
        self.hermitian = list(g @ g.conj().transpose(0, 2, 1))
        self.doc = json.dumps({
            "command": "extend",
            "objects": [[float(x) for x in row] for row in rng.dirichlet(np.ones(4), 40)],
        })
        self.tableau = rng.random((6, 14)) + 0.1
        self.words = [f"w{int(x)}" for x in rng.integers(0, 10**6, 400)]
        self.times: list[float] = []

    def _work(self) -> float:
        parser = argparse.ArgumentParser(prog="probe")
        parser.add_argument("--config", default="-")
        parser.add_argument("--out")
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.parse_args(["--config", "-", "--trace", "1"])
        doc = json.loads(self.doc)
        text = json.dumps(doc)
        total = float(len(text))
        for m in self.hermitian:
            vals = np.linalg.eigvalsh(m)
            total += float(np.cumsum(np.sort(vals)[::-1])[-1])
        t = self.tableau.copy()
        for r in range(t.shape[0]):
            col = int(np.argmax(t[r, :-1]))
            t[r] /= t[r, col]
            for i in range(t.shape[0]):
                if i != r:
                    t[i] -= t[i, col] * t[r]
        total += float(t[:, -1].sum())
        counts: dict = {}
        for w in sorted(self.words):
            counts[w[:3]] = counts.get(w[:3], 0) + 1
        return total + len(counts)

    def run(self) -> None:
        """Times ``ROUNDS`` rounds of the fixed work and records the time."""
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            self._work()
        self.times.append(time.perf_counter() - t0)

    def slowdown_near(self, k: int) -> float:
        """The host's slowness against the reference host around a command
        that ran after ``k`` probes: the median time of the two probes
        before it and the two after, over ``REFERENCE_S``."""
        return statistics.median(self.times[max(0, k - 2): k + 2]) / REFERENCE_S
