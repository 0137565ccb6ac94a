"""Host stamp printed with every benchmark result.

Host-time figures are comparable only between runs on like hosts, so
each result names the CPU, the core count and the interpreter and
numpy versions, plus a short fixed calibration loop whose score drifts
when the host does (a noisy neighbour, a throttled core).
"""

from __future__ import annotations

import os
import platform
import sys
import time

#: Iterations of the calibration loop; about 0.05 s on a 2020s core.
_CALIB_ITERS = 1_000_000


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibration_mops() -> float:
    """Best of three timings of a fixed pure-Python integer loop, in
    millions of iterations per second."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(_CALIB_ITERS):
            acc = (acc + i * i) & 0xFFFF
        best = min(best, time.perf_counter() - t0)
    return _CALIB_ITERS / best / 1e6


def host_stamp() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "calib_mops": round(calibration_mops(), 3),
    }
