"""Host-speed calibration: a fixed probe timed between measured steps.

On a shared host the speed of a virtual CPU changes by tens of percent
from one second to the next, with neighbours that come and go.  Every
timed step of a run is therefore paired with a *probe*: a fixed piece of
work of the kinds the server does (JSON decode and encode of floats,
NumPy sorting, zlib, interpreter loops) run in the client on the same CPU
the server is pinned to, right after the step.  A step's duration is
scaled by ``REFERENCE_PROBE_S / probe``, the rolling median of the probes
around it: the time the step would have taken on the reference host.
Probe time is outside every measured interval.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import zlib
from typing import List, Sequence

import numpy as np

#: Probe seconds on the reference host (2-vCPU Intel Xeon KVM guest,
#: Python 3.11, NumPy 2.4) when no neighbour loads it.  Scaled times read
#: as seconds on that host; only their ratios between commits matter.
REFERENCE_PROBE_S = 0.0030

#: Probes on each side of a step in the rolling median that scales it.
NEIGHBOURS = 16

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.normal(20.0, 2.0, (48, 32))
_PAYLOAD = json.dumps(_MATRIX.tolist()).encode()
_BLOB = _MATRIX.tobytes()


def pin() -> int:
    """Pin this process, and the servers it starts, to one CPU.

    The probe can only speak for the CPU it runs on, so the client and
    the server share one; in the closed loop they take turns on it.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    values = json.loads(_PAYLOAD)
    json.dumps(values, separators=(",", ":"))
    np.sort(np.asarray(values), axis=0)
    zlib.compress(_BLOB, 6)
    counts: dict = {}
    for i in range(300):
        counts[i % 17] = counts.get(i % 17, 0) + i
    return time.perf_counter() - start


def factors(probes: Sequence[float]) -> List[float]:
    """Per step, ``REFERENCE_PROBE_S`` over the rolling median probe."""
    n = len(probes)
    return [
        REFERENCE_PROBE_S / statistics.median(
            probes[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]
        )
        for i in range(n)
    ]


def timed(fn, samples: List[float], factors_out: List[float]):
    """Run ``fn`` between two probes; record its time and scale factor."""
    before = [probe() for _ in range(3)]
    start = time.perf_counter()
    result = fn()
    samples.append(time.perf_counter() - start)
    after = [probe() for _ in range(3)]
    factors_out.append(REFERENCE_PROBE_S / statistics.median(before + after))
    return result
