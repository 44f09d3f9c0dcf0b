"""Per-thread performance-monitoring counters.

Real Xeons expose bus-transaction counts through hardware performance
counters; the paper's CPU manager reads them through Mikael Pettersson's
``perfctr`` Linux driver, which *virtualizes* counters per thread (a
thread's counter only advances while that thread runs). This module is the
simulated equivalent: the machine credits each running thread's counters
during every settling interval, and readers (the :mod:`repro.hw.perfctr`
driver facade, the CPU-manager runtime) take snapshots.

Counters are monotone non-decreasing by construction; :class:`CounterBank`
enforces this and raises :class:`repro.errors.CounterError` on misuse, which
property tests rely on.

Storage is struct-of-arrays: three float64 columns (transactions, cycles,
work) indexed by a per-bank row. Like :class:`repro.hw.store.ThreadStore`,
each column is an :class:`array.array` with a numpy view of the same
memory. The machine's scalar settle loop adds to the ``array.array``
columns (:attr:`CounterBank.py_columns`) at rows it bound when it built
its lanes; the batched advance credits every running lane with three
fancy-indexed adds on the numpy views (:meth:`CounterBank.credit_rows`);
and the manager accumulates an application's counters without a
per-thread dict walk (:meth:`CounterBank.read_rows`). ``read_rows``
folds the ``array.array`` columns left to right from ``0.0``, the same
fold as :meth:`read_many`, which stays as the reference.

Registering a thread can grow the columns, which allocates new arrays:
re-fetch :attr:`~CounterBank.py_columns` after :meth:`~CounterBank.register`.
The machine does not credit through the checked :meth:`CounterBank.credit`;
it rejects negative rates once per lane configuration instead (the
increments are those rates times a positive interval).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ..errors import CounterError

__all__ = ["CounterSnapshot", "CounterBank"]


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable reading of one thread's counters.

    Attributes
    ----------
    bus_transactions:
        Cumulative bus transactions issued by the thread.
    cycles_us:
        Cumulative wall time the thread spent dispatched on a CPU (µs).
        (The simulator's stand-in for the cycle counter.)
    work_us:
        Cumulative useful work completed, in standalone-µs.
    """

    bus_transactions: float
    cycles_us: float
    work_us: float

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Counter increments since an ``earlier`` snapshot of the same thread.

        Raises
        ------
        CounterError
            If any field would go negative (snapshots out of order).
        """
        d_tx = self.bus_transactions - earlier.bus_transactions
        d_cy = self.cycles_us - earlier.cycles_us
        d_wk = self.work_us - earlier.work_us
        if d_tx < -1e-9 or d_cy < -1e-9 or d_wk < -1e-9:
            raise CounterError("counter snapshots compared out of order (negative delta)")
        return CounterSnapshot(max(d_tx, 0.0), max(d_cy, 0.0), max(d_wk, 0.0))


class CounterBank:
    """Monotone counters for a set of threads, stored as float64 arrays.

    The machine is the only writer; any number of readers may snapshot.

    Examples
    --------
    >>> bank = CounterBank()
    >>> bank.register(1)
    >>> bank.credit(1, bus_transactions=10.0, cycles_us=2.0, work_us=1.5)
    >>> bank.read(1).bus_transactions
    10.0
    """

    def __init__(self) -> None:
        self._row: dict[int, int] = {}
        self._alloc(64)

    def _alloc(self, capacity: int) -> None:
        """(Re)allocate the columns at ``capacity``, keeping registered rows."""
        n = len(self._row)
        old = getattr(self, "py_columns", (array("d"),) * 3)
        tx, cycles, work = (col[:n] + array("d", [0.0]) * (capacity - n) for col in old)
        #: The ``(transactions, cycles, work)`` ``array.array`` columns, for
        #: unchecked scalar credit at pre-resolved rows (see module docstring).
        self.py_columns = (tx, cycles, work)
        self._tx = np.frombuffer(tx, dtype=np.float64)
        self._cycles = np.frombuffer(cycles, dtype=np.float64)
        self._work = np.frombuffer(work, dtype=np.float64)

    def register(self, tid: int) -> None:
        """Start counting for thread ``tid`` (all counters at zero).

        Raises
        ------
        CounterError
            If ``tid`` is already registered.
        """
        if tid in self._row:
            raise CounterError(f"thread {tid} already registered")
        row = len(self._row)
        if row == self._tx.size:
            self._alloc(2 * row)
        self._row[tid] = row

    def known(self, tid: int) -> bool:
        """Whether ``tid`` has been registered."""
        return tid in self._row

    def row_of(self, tid: int) -> int:
        """The array row backing ``tid`` (for batched credit/read paths).

        Raises
        ------
        CounterError
            If ``tid`` is unknown.
        """
        try:
            return self._row[tid]
        except KeyError:
            raise CounterError(f"row of unknown thread {tid}") from None

    def rows_of(self, tids: list[int]) -> np.ndarray:
        """Array rows for several threads, in input order."""
        try:
            return np.fromiter((self._row[t] for t in tids), dtype=np.int64, count=len(tids))
        except KeyError as exc:
            raise CounterError(f"row of unknown thread {exc.args[0]}") from None

    def credit(
        self,
        tid: int,
        bus_transactions: float = 0.0,
        cycles_us: float = 0.0,
        work_us: float = 0.0,
    ) -> None:
        """Add increments to a thread's counters.

        Raises
        ------
        CounterError
            If ``tid`` is unknown or any increment is negative.
        """
        row = self._row.get(tid)
        if row is None:
            raise CounterError(f"credit for unknown thread {tid}")
        if bus_transactions < 0 or cycles_us < 0 or work_us < 0:
            raise CounterError(
                f"negative counter increment for thread {tid}: "
                f"tx={bus_transactions} cycles={cycles_us} work={work_us}"
            )
        tx, cycles, work = self.py_columns
        tx[row] += bus_transactions
        cycles[row] += cycles_us
        work[row] += work_us

    def credit_run(
        self,
        tid: int,
        bus_transactions: float,
        cycles_us: float,
        work_us: float,
    ) -> None:
        """Unchecked :meth:`credit` for the machine's settle loop.

        Skips the registration and negativity checks: the caller only
        credits registered threads, with increments it checked. A
        ``KeyError`` here indicates a caller bug, not misuse. The
        machine's scalar loop performs the same three adds inline on
        :attr:`py_columns`.
        """
        row = self._row[tid]
        tx, cycles, work = self.py_columns
        tx[row] += bus_transactions
        cycles[row] += cycles_us
        work[row] += work_us

    def credit_rows(
        self,
        rows: np.ndarray,
        bus_transactions: np.ndarray,
        cycles_us: float,
        work_us: np.ndarray,
    ) -> None:
        """Batched unchecked credit for the SoA advance (unique ``rows``).

        ``cycles_us`` is the settle interval, common to every lane; the
        per-row transaction/work increments are elementwise products the
        caller already formed. Each fancy-indexed add performs exactly the
        scalar ``+=`` of :meth:`credit_run` per row, so the stored bits
        match the scalar settle loop.
        """
        self._tx[rows] += bus_transactions
        self._cycles[rows] += cycles_us
        self._work[rows] += work_us

    def read(self, tid: int) -> CounterSnapshot:
        """Snapshot one thread's counters.

        Raises
        ------
        CounterError
            If ``tid`` is unknown.
        """
        row = self._row.get(tid)
        if row is None:
            raise CounterError(f"read of unknown thread {tid}")
        tx, cycles, work = self.py_columns
        return CounterSnapshot(tx[row], cycles[row], work[row])

    def read_many(self, tids: list[int]) -> CounterSnapshot:
        """Accumulated snapshot over several threads (e.g. one application).

        This mirrors the paper's runtime library, which polls the counters
        of all application threads and accumulates the values before writing
        the result to the shared arena. Reference path for
        :meth:`read_rows` (same bits, per-thread loop).
        """
        tx = cy = wk = 0.0
        for tid in tids:
            snap = self.read(tid)
            tx += snap.bus_transactions
            cy += snap.cycles_us
            wk += snap.work_us
        return CounterSnapshot(tx, cy, wk)

    def read_rows(self, rows: np.ndarray) -> CounterSnapshot:
        """Accumulated snapshot over pre-resolved rows (see :meth:`rows_of`).

        Plain-float ``0.0 + x0 + x1 + …`` folds over the ``array.array``
        columns, in row order: the same operations as :meth:`read_many`,
        so the same bits.
        """
        tx_col, cycles_col, work_col = self.py_columns
        tx = cy = wk = 0.0
        for row in rows.tolist():
            tx += tx_col[row]
            cy += cycles_col[row]
            wk += work_col[row]
        return CounterSnapshot(tx, cy, wk)

    def threads(self) -> list[int]:
        """All registered thread ids, sorted."""
        return sorted(self._row)
