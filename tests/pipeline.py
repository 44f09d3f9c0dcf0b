"""Force the scalar or the batched kernels, for the parity tests.

The simulator picks its kernels from problem size: a machine runs the
batched settle pipeline from :data:`repro.hw.machine.BATCH_MIN_CPUS`
logical CPUs (without SMT), and a bus model runs its numpy kernel from
:data:`repro.hw.bus._VECTOR_MIN_LANES` lanes. Both are read when the
machine or bus model is built. :func:`forced` moves both thresholds so
that everything built inside the block takes one side, whatever its
size — which lets a test build the two sides of a comparison on the
same spec.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import repro.hw.bus as bus_module
import repro.hw.machine as machine_module

#: A threshold no test machine or solve reaches.
NEVER = 10**9


@contextlib.contextmanager
def forced(batched: bool) -> Iterator[None]:
    """Build machines and bus models on one side of both crossovers."""
    saved = (machine_module.BATCH_MIN_CPUS, bus_module._VECTOR_MIN_LANES)
    threshold = 0 if batched else NEVER
    machine_module.BATCH_MIN_CPUS = threshold
    bus_module._VECTOR_MIN_LANES = threshold
    try:
        yield
    finally:
        machine_module.BATCH_MIN_CPUS, bus_module._VECTOR_MIN_LANES = saved
