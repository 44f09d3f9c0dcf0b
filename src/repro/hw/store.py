"""Struct-of-arrays backing store for per-thread simulation state.

The machine's hot loops (lane entry build, advance, horizon scan,
transition commit) read and write a handful of per-thread scalars tens of
thousands of times per run. Keeping those scalars in Python objects makes
every loop iteration a chain of attribute lookups; keeping them in
contiguous arrays — one row per thread — gives both pipelines a cheap
access path.

:class:`ThreadStore` owns those arrays. :class:`repro.hw.machine.ThreadState`
is a thin index-backed view over one row: attribute reads gather from the
arrays, attribute writes scatter into them, so the store and the object API
can never disagree. Rows are append-only (``row == tid - 1`` under the
machine's monotone tid assignment; finished threads keep their row), and
the arrays grow by doubling, so a long-lived open-system run never pays
per-thread reallocation.

One storage, two access paths
-----------------------------
Each column is an :class:`array.array` (``py_<field>``) with a numpy view
of the same memory (``<field>``, made with :func:`numpy.frombuffer`).
Indexing the ``array.array`` returns a plain Python ``float``/``int``,
about three times cheaper than a numpy scalar access, so the
:class:`ThreadState` properties and the scalar settle pipeline use it.
The batched pipeline and other whole-column readers use the numpy views.
A write through either path is visible through the other.

Field groups
------------
* float64 (``'d'``) — ``work_done``, ``work_total``, ``rebuild_debt``,
  ``next_io_at_work``, ``run_time_us``, ``footprint_lines``, plus the
  demand-segment cache ``seg_rate`` / ``seg_end`` (valid while
  ``work_done < seg_end``; ``seg_end`` starts at ``-inf`` = never queried).
* int64 (``'q'``) — ``cpu``, ``last_cpu`` (−1 encodes "none").
* bool (``'B'`` bytes holding 0/1, viewed as numpy ``bool``) —
  ``blocked``, ``stalled``, ``finished``, ``in_io``. The ``array.array``
  path reads them as ``0``/``1``.

Growth allocates new arrays (a buffer with a live numpy view cannot be
resized), so references to a *specific* column — either path — must be
re-fetched from the store after :meth:`add`; the machine's hot paths read
``store.<field>`` / ``store.py_<field>`` freshly on every pass.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

__all__ = ["ThreadStore"]

#: Fields stored as float64 rows.
FLOAT_FIELDS = (
    "work_done",
    "work_total",
    "rebuild_debt",
    "next_io_at_work",
    "run_time_us",
    "footprint_lines",
    "seg_rate",
    "seg_end",
)
#: Fields stored as int64 rows (−1 = none).
INT_FIELDS = ("cpu", "last_cpu")
#: Fields stored as bool rows.
BOOL_FIELDS = ("blocked", "stalled", "finished", "in_io")

#: ``(array typecode, numpy dtype, fill)`` per field.
_LAYOUT = {
    **{name: ("d", np.float64, 0.0) for name in FLOAT_FIELDS},
    **{name: ("q", np.int64, -1) for name in INT_FIELDS},
    **{name: ("B", np.bool_, 0) for name in BOOL_FIELDS},
}

#: Per-row defaults written by :meth:`ThreadStore.add`.
_DEFAULTS = {
    **{name: 0.0 for name in FLOAT_FIELDS},
    "next_io_at_work": math.inf,
    "seg_end": -math.inf,  # stale: first entry build refreshes
    **{name: -1 for name in INT_FIELDS},
    **{name: 0 for name in BOOL_FIELDS},
}

_ALL = FLOAT_FIELDS + INT_FIELDS + BOOL_FIELDS


class ThreadStore:
    """Contiguous per-thread scalar arrays; one row per registered thread."""

    __slots__ = _ALL + tuple("py_" + name for name in _ALL) + ("n", "_capacity")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("store capacity must be positive")
        self.n = 0
        self._capacity = capacity
        for name in _ALL:
            code, _, fill = _LAYOUT[name]
            self._install(name, array(code, [fill]) * capacity)

    def _install(self, name: str, column: array) -> None:
        setattr(self, "py_" + name, column)
        setattr(self, name, np.frombuffer(column, dtype=_LAYOUT[name][1]))

    def _grow(self) -> None:
        cap = self._capacity * 2
        n = self.n
        for name in _ALL:
            code, _, fill = _LAYOUT[name]
            self._install(name, getattr(self, "py_" + name)[:n] + array(code, [fill]) * (cap - n))
        self._capacity = cap

    def add(self) -> int:
        """Append a fresh row with default state; returns its index."""
        if self.n == self._capacity:
            self._grow()
        i = self.n
        self.n = i + 1
        for name, value in _DEFAULTS.items():
            getattr(self, "py_" + name)[i] = value
        return i

    def row_dict(self, i: int) -> dict[str, float | int | bool]:
        """One row as plain Python scalars (round-trip tests, debugging)."""
        if not 0 <= i < self.n:
            raise IndexError(f"store row {i} out of range (n={self.n})")
        out: dict[str, float | int | bool] = {}
        for name in FLOAT_FIELDS + INT_FIELDS:
            out[name] = getattr(self, "py_" + name)[i]
        for name in BOOL_FIELDS:
            out[name] = bool(getattr(self, "py_" + name)[i])
        return out
