"""Facts about the machine a result was measured on (recorded with every result).

Besides the CPU model, CPU counts, affinity, cgroup quota and library
versions, this measures the raw process-pool ceiling: how much faster a
pool of all usable CPUs runs a pure-Python loop than one process does.
A parallel efficiency is only honest against that ceiling.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor

SPIN = 1_500_000
TASKS_PER_WORKER = 2


def spin(n: int) -> int:
    """A pure-Python CPU loop (the pool ceiling's unit of work)."""
    acc = 0
    for i in range(n):
        acc += i * i
    return acc


def pool_ceiling(workers: int) -> float:
    """Speedup of a pool of ``workers`` processes over one on :func:`spin`.

    The workers are forked, as ``repro.parallel.run_many``'s are. (A
    spawn pool would also start multiprocessing's resource tracker, a
    process that outlives the pool and is never waited for.)
    """
    if workers <= 1:
        return 1.0
    tasks = [SPIN] * (workers * TASKS_PER_WORKER)
    t0 = time.perf_counter()
    for n in tasks:
        spin(n)
    serial = time.perf_counter() - t0
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        list(pool.map(spin, [1] * workers))  # workers up before timing
        t0 = time.perf_counter()
        list(pool.map(spin, tasks))
        pooled = time.perf_counter() - t0
    return serial / pooled


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy
    from repro.parallel import cgroup_cpu_quota, effective_cpu_budget, usable_cpus

    budget = effective_cpu_budget()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": usable_cpus(),
        "cgroup_quota": cgroup_cpu_quota(),
        "cpu_budget": budget,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pool_ceiling": round(pool_ceiling(budget), 3),
    }
