"""How fast the host runs right now, from a fixed piece of work.

The reference host is a shared two-vCPU virtual machine whose speed
drifts by a third over seconds to minutes, user CPU time included: the
same dse sweep took 0.54 s to 0.89 s of CPU within two minutes, and a
benchmark run's median sweep 0.71 s in one run and 0.98 s in another a
few minutes later. A fixed calibration rep run beside the sweep moved
with it (correlation 0.76 over 39 pairs). So every measured stretch of
CPU time is bracketed by calibration reps, and scaled to the speed of
the reference host: ``seconds * REFERENCE_REP_S / mean(reps)``, the reps
being those taken right before and right after it.

The rep uses only the standard library and NumPy, never the program, so
no change to the program can move it. It mixes the kinds of work the
program does: JSON and hashing (the result cache, the job database's
documents), Python objects, floats and dicts (the analytic models and
finalization) and NumPy array passes (operand synthesis, the engines).
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from typing import List

import numpy as np

#: User CPU seconds of one rep on the reference host (2 vCPUs, Python
#: 3.11.7, NumPy 2.4.6), rounded: run medians measured 0.10 s to 0.11 s.
#: A constant, so scaled times are seconds on that host at that speed.
REFERENCE_REP_S = 0.1


def user_s() -> float:
    """User-mode CPU seconds this process has used so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class _Point:
    __slots__ = ("area", "energy")

    def __init__(self, area: float, energy: float):
        self.area, self.energy = area, energy

    def cost(self, k: int) -> float:
        return self.area * k + self.energy / (k + 1.0)


_DOC = [{"layer": f"conv{i}", "cycles": i * 7919,
         "macs": list(range(i % 17, i % 17 + 24)),
         "energy_pj": {"dram": i * 0.5, "sram": i * 0.25}}
        for i in range(300)]
_ARRAY = np.arange(1 << 17, dtype=np.int64) % 251


def rep() -> float:
    """User CPU seconds of one fixed calibration rep."""
    start = user_s()
    for _ in range(4):
        blob = json.dumps(_DOC, sort_keys=True)
        hashlib.sha256(blob.encode()).digest()
        index = {e["layer"]: sorted(e["macs"], reverse=True)
                 for e in json.loads(blob)}
    points = [_Point(i * 0.5, i + 1.0) for i in range(2000)]
    best: dict = {}
    for k in range(20):
        for p in points:
            value = p.cost(k)
            key = (k, int(value) % 97)
            if value < best.get(key, 1e300):
                best[key] = value
    for shift in range(12):
        mixed = (_ARRAY * (shift + 3)) % 127
        np.sort(mixed, kind="stable")
        np.count_nonzero(mixed > 63)
    del index
    return user_s() - start


def scaled(seconds: float, *reps: float) -> float:
    """``seconds`` of CPU as seconds on the reference host, given the
    times ``reps`` of the calibration reps taken around it (typically
    one figure for the reps before it and one for those after)."""
    return seconds * REFERENCE_REP_S * len(reps) / sum(reps)


class HostSpeed:
    """Every calibration rep of one run, for its report."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, reps: int = 1) -> float:
        """Run ``reps`` reps; return their median."""
        taken = [rep() for _ in range(reps)]
        self.samples += taken
        return statistics.median(taken)
