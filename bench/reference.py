"""Reference work, timed next to every request to gauge the host's speed.

On a shared host other tenants slow the benchmark by 1.3 to 2 times, for
stretches from a second to a few minutes, so raw times of one run differ
from those of the next by up to 40%.  So each request is timed between two
runs of a fixed piece of reference work of the same kind, which no change to
fpsop can alter, and is reported as its time over their mean time, times the
reference's nominal time.  A slowdown of the host stretches both times; a
slower fpsop stretches only the request's.

    cli-configs   a fresh ``python -c "import numpy, scipy.sparse"`` process
    exact-scans   a sum of squared ``Fraction`` terms with growing denominators
    float-oracle  power iteration with a fixed banded ``scipy.sparse`` matrix

The nominal times are about the fastest each reference ran on the
development machine (2-core KVM guest, Intel Xeon, Python 3.11.7, numpy
2.4.6, scipy 1.17.1), so the scaled figures read as seconds there.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

LAUNCH_ARGV = [sys.executable, "-c", "import numpy, scipy.sparse"]
NOMINAL_S = {"cli-configs": 0.25, "exact-scans": 0.010, "float-oracle": 0.010}
FLOAT_SIZE = 1024
FLOAT_STEPS = 340
EXACT_TERMS = 750
LAUNCH_TIMEOUT_S = 120

_float_matrix = None


def launch_s(env: dict, cwd) -> float:
    """Time of one fresh interpreter that imports numpy and scipy.sparse."""
    started = perf_counter()
    subprocess.run(LAUNCH_ARGV, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=LAUNCH_TIMEOUT_S)
    return perf_counter() - started


def _exact() -> Fraction:
    total = Fraction(0)
    for n in range(1, EXACT_TERMS):
        total += Fraction(n, n * n + 1) ** 2
    return total


def _float():
    global _float_matrix
    import numpy as np
    import scipy.sparse as sparse

    if _float_matrix is None:
        diagonals = [np.linspace(1.0, 2.0, FLOAT_SIZE), np.full(FLOAT_SIZE - 1, 0.5)]
        _float_matrix = sparse.diags(diagonals, [0, 1], format="csr")
    x = np.ones(FLOAT_SIZE)
    for _ in range(FLOAT_STEPS):
        x = _float_matrix.T @ (_float_matrix @ x)
        x /= np.linalg.norm(x)
    return x


def in_process_s(workload: str) -> float:
    """Time of the in-process reference of ``workload``, without collection."""
    kernel = _exact if workload == "exact-scans" else _float
    gc.disable()
    try:
        started = perf_counter()
        kernel()
        return perf_counter() - started
    finally:
        gc.enable()
