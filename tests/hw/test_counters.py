"""Unit tests for the counter bank and snapshots."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CounterError
from repro.hw.counters import CounterBank, CounterSnapshot


@pytest.fixture
def bank() -> CounterBank:
    b = CounterBank()
    b.register(1)
    b.register(2)
    return b


class TestRegistration:
    def test_starts_at_zero(self, bank):
        snap = bank.read(1)
        assert snap.bus_transactions == 0.0
        assert snap.cycles_us == 0.0
        assert snap.work_us == 0.0

    def test_double_register_rejected(self, bank):
        with pytest.raises(CounterError):
            bank.register(1)

    def test_known(self, bank):
        assert bank.known(1)
        assert not bank.known(99)

    def test_threads_sorted(self, bank):
        assert bank.threads() == [1, 2]


class TestCredit:
    def test_accumulates(self, bank):
        bank.credit(1, bus_transactions=5.0, cycles_us=2.0, work_us=1.0)
        bank.credit(1, bus_transactions=3.0)
        snap = bank.read(1)
        assert snap.bus_transactions == 8.0
        assert snap.cycles_us == 2.0

    def test_unknown_thread_rejected(self, bank):
        with pytest.raises(CounterError):
            bank.credit(99, bus_transactions=1.0)

    def test_negative_increment_rejected(self, bank):
        with pytest.raises(CounterError):
            bank.credit(1, bus_transactions=-1.0)

    def test_py_columns_share_the_numpy_views_across_growth(self):
        bank = CounterBank()
        for tid in range(1, 200):  # forces growth
            bank.register(tid)
            tx, cycles, work = bank.py_columns  # re-fetched after register
            row = bank.row_of(tid)
            tx[row] += 2.0 * tid
            cycles[row] += 1.0
            work[row] += 0.5
        assert bank.read(150) == CounterSnapshot(300.0, 1.0, 0.5)
        rows = bank.rows_of([1, 2, 3])
        assert bank.read_rows(rows) == bank.read_many([1, 2, 3])

    def test_per_thread_isolation(self, bank):
        bank.credit(1, bus_transactions=5.0)
        assert bank.read(2).bus_transactions == 0.0


class TestRead:
    def test_unknown_read_rejected(self, bank):
        with pytest.raises(CounterError):
            bank.read(42)

    def test_read_many_accumulates(self, bank):
        bank.credit(1, bus_transactions=5.0, cycles_us=1.0)
        bank.credit(2, bus_transactions=7.0, cycles_us=2.0)
        total = bank.read_many([1, 2])
        assert total.bus_transactions == 12.0
        assert total.cycles_us == 3.0


def _bits(snap: CounterSnapshot) -> tuple[bytes, ...]:
    return tuple(
        struct.pack("<d", x) for x in (snap.bus_transactions, snap.cycles_us, snap.work_us)
    )


# Mixed magnitudes, so that a sum's rounding depends on its order.
_increment = st.one_of(
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=0.0, max_value=1e9),
)


class TestReadRowsMatchesReadMany:
    @settings(max_examples=100, deadline=None)
    @given(
        credits=st.lists(
            st.tuples(_increment, _increment, _increment), min_size=1, max_size=80
        ),
        data=st.data(),
    )
    def test_bitwise_equal_on_random_row_sets(self, credits, data):
        bank = CounterBank()
        for tid, (tx, cycles, work) in enumerate(credits, start=1):
            bank.register(tid)
            bank.credit(tid, bus_transactions=tx, cycles_us=cycles, work_us=work)
        tids = data.draw(
            st.lists(st.integers(min_value=1, max_value=len(credits)), max_size=12)
        )
        assert _bits(bank.read_rows(bank.rows_of(tids))) == _bits(bank.read_many(tids))


class TestSnapshotDelta:
    def test_delta(self):
        early = CounterSnapshot(10.0, 5.0, 3.0)
        late = CounterSnapshot(15.0, 8.0, 4.0)
        d = late.delta(early)
        assert d.bus_transactions == 5.0
        assert d.cycles_us == 3.0
        assert d.work_us == 1.0

    def test_out_of_order_rejected(self):
        early = CounterSnapshot(10.0, 5.0, 3.0)
        late = CounterSnapshot(15.0, 8.0, 4.0)
        with pytest.raises(CounterError):
            early.delta(late)
