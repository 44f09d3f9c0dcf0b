"""Lifecycle bookkeeping: the live-thread count and the runnable memo.

``Machine.all_finished()`` reads a count of unfinished threads and
``runnable_threads()`` returns a memoized list; both are kept at the
lifecycle edges (add, finish, kill, block/unblock, I/O sleep/wake).
Hypothesis drives random sequences of those edges on both forced
pipelines and, after every step, compares the two answers with a scan
of the thread store.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.hw.machine import Machine
from repro.sim.engine import Engine
from tests.pipeline import forced


class _FlatDemand:
    """Constant-rate demand (implements the DemandProcess protocol)."""

    def __init__(self, rate: float):
        self._rate = rate

    def segment(self, work: float) -> tuple[float, float]:
        return self._rate, math.inf


_ops = st.lists(
    st.tuples(
        # Repeats weight the draw towards adding threads and running them.
        st.sampled_from([
            "add", "add", "add_io", "add_io", "dispatch", "kill", "block",
            "unblock", "advance", "advance", "advance",
        ]),
        st.integers(min_value=0, max_value=15),  # thread index
        st.integers(min_value=0, max_value=3),  # cpu index
        st.floats(min_value=1.0, max_value=1_500.0),  # work, or advance dt
    ),
    min_size=5,
    max_size=50,
)


def _assert_matches_scan(machine: Machine) -> None:
    threads = machine.threads()
    scan = [t for t in threads if not (t.finished or t.blocked or t.in_io)]
    got = machine.runnable_threads()
    assert len(got) == len(scan)
    assert all(a is b for a, b in zip(got, scan))
    assert machine.runnable_rows().tolist() == [t.tid - 1 for t in scan]
    assert machine.all_finished() == all(t.finished for t in threads)


def _apply(engine: Engine, machine: Machine, op, t_idx, cpu_idx, x) -> None:
    threads = machine.threads()
    if op in ("add", "add_io"):
        machine.add_thread(
            f"t{len(threads)}",
            _FlatDemand(2.0 + 3.0 * (len(threads) % 5)),
            work_total=x,
            io_interval_work_us=x / 3.0 if op == "add_io" else None,
            io_duration_us=200.0,
        )
        return
    if op == "advance":
        # Fill idle CPUs first, as a scheduler would, so that threads run
        # into completions and I/O sleeps.
        for cpu in machine.cpus:
            ready = machine.ready_tids()
            if cpu.tid is None and ready:
                machine.dispatch(cpu.cpu_id, ready[0])
        engine.run_until(engine.now + x, advancer=machine)
        return
    if not threads:
        return
    thread = threads[t_idx % len(threads)]
    if op == "dispatch":
        if thread.runnable:
            machine.dispatch(cpu_idx, thread.tid)
    elif op == "kill":
        machine.kill_thread(thread.tid)
    elif op == "block":
        machine.set_blocked(thread.tid, True)
    else:
        machine.set_blocked(thread.tid, False)


class TestLifecycleCountsMatchScan:
    def _run(self, batched: bool, ops) -> None:
        engine = Engine()
        with forced(batched):
            machine = Machine(MachineConfig(), engine)
        _assert_matches_scan(machine)
        for op in ops:
            _apply(engine, machine, *op)
            _assert_matches_scan(machine)
        # Killing what is left brings the count to zero.
        for t in machine.threads():
            machine.kill_thread(t.tid)
            _assert_matches_scan(machine)
        assert machine.all_finished()

    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_scalar_pipeline(self, ops):
        self._run(False, ops)

    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_batched_pipeline(self, ops):
        self._run(True, ops)

    def test_count_drops_once_per_thread(self):
        # Killing a finished thread, or finishing a killed one, must not
        # count it twice.
        engine = Engine()
        machine = Machine(MachineConfig(), engine)
        a = machine.add_thread("a", _FlatDemand(1.0), work_total=100.0)
        b = machine.add_thread("b", _FlatDemand(1.0), work_total=100.0)
        machine.dispatch(0, a.tid)
        engine.run_until(1_000.0, advancer=machine)
        assert a.finished and not machine.all_finished()
        machine.kill_thread(a.tid)
        assert not machine.all_finished()
        machine.kill_thread(b.tid)
        machine.kill_thread(b.tid)
        assert machine.all_finished()
        machine.add_thread("c", _FlatDemand(1.0), work_total=100.0)
        assert not machine.all_finished()
