"""Shared helpers of the benchmark: statistics, host facts, child processes.

Importing this module loads only the standard library, so ``run.py``
stays light; the child processes that import the program (and numpy,
for :func:`blas_info`) pass their own facts back as JSON.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
from typing import Dict, Optional, Sequence

#: Directory of this file; the benchmark's scripts live next to it.
HERE = os.path.dirname(os.path.abspath(__file__))
#: Root of the checkout the benchmark measures (parent of ``perfbench``).
ROOT = os.path.dirname(HERE)
#: Importable source tree of the program under test.
SRC = os.path.join(ROOT, "src")

#: Minimum samples strictly beyond a percentile before it may be emitted.
MIN_BEYOND = 10


class NotEnoughSamples(ValueError):
    """A percentile was asked of fewer samples than its tail needs."""


def samples_beyond(n: int, q: int) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile.

    Integer arithmetic on purpose: ``1000 * (1 - 0.99)`` is 9.99... in
    floating point, which would wrongly refuse p99 of 1000 samples.
    """
    return n * (100 - q) // 100


def percentile(values: Sequence[float], q: int) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` an int in 1..99).

    Raises :class:`NotEnoughSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond it, so a tail is never read off a handful of runs.
    """
    n = len(values)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in 1..99, got {q}")
    if samples_beyond(n, q) < MIN_BEYOND:
        raise NotEnoughSamples(
            f"p{q} needs {MIN_BEYOND} samples beyond it; {n} samples give "
            f"{samples_beyond(n, q)}"
        )
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    if not values:
        raise NotEnoughSamples("median of no samples")
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """Environment for every program process the benchmark launches.

    BLAS and OpenMP are pinned to one thread: with the default two
    OpenBLAS threads the program, the server and the load generator
    fight over the same two cores and step times wander.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by a live process."""
    with open(f"/proc/{pid}/stat") as handle:
        stat = handle.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = stat[stat.rindex(")") + 2 :].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def blas_info() -> Dict[str, object]:
    """BLAS library name/version and its live thread count.

    Call from a process that has imported numpy under the environment
    of interest (the children run with :func:`child_env`).
    """
    import ctypes

    import numpy as np

    info: Dict[str, object] = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    threads = None
    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    info["blas_threads"] = threads
    return info


def host_fingerprint(blas: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """What a result needs to be compared like for like."""
    record: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if blas:
        record.update(blas)
    return record


def read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def write_json(path: str, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def log(message: str) -> None:
    """Progress lines go to stderr; stdout carries the result."""
    print(message, file=sys.stderr, flush=True)
