"""Restart recovery: dispositions of orphaned store rows, and the
shutdown races around them.

A service process that crashes (or is SIGKILLed) leaves its accepted
work behind as non-terminal store rows — ``queued`` rows the dispatcher
never took, and ``running`` rows whose executor died with the process.
These tests build exactly those rows (by submitting through a service
whose dispatcher never started, then abandoning it — the in-process
equivalent of a crash) and assert the next service's recovery pass
drives every one to the documented disposition. The full out-of-process
version, with real SIGKILLs, is ``benchmarks/chaos_smoke.py``.
"""

import threading

import pytest

from repro.config import canonical_json
from repro.service import ResultStore, SimulationService
from repro.service.schemas import spec_from_dict, spec_to_dict

PAYLOAD = {
    "spec": {
        "targets": [{"app": "CG", "work_scale": 0.02}],
        "background": [{"microbench": "BBMA"}],
        "scheduler": {"policy": "latest_quantum"},
        "max_time_us": 200_000,
    }
}


def _payload(seed: int) -> dict:
    return {"spec": dict(PAYLOAD["spec"], seed=seed)}


@pytest.fixture
def store():
    s = ResultStore(":memory:")
    yield s
    s.close()


def _orphan(store, seed: int, attempts: int = 0, running: bool = False):
    """A store row as a dead service process would have left it."""
    spec = spec_from_dict(_payload(seed)["spec"])
    record = store.create(
        spec_hash=spec.spec_hash(),
        spec_json=canonical_json(spec_to_dict(spec)),
        tenant="t1",
    )
    for _ in range(attempts):
        store.mark_running(record.run_id, lease_s=60.0)
        store.requeue(record.run_id)
    if running:
        store.mark_running(record.run_id, lease_s=60.0)
    return record.run_id


class TestRecoveryDispositions:
    def test_orphaned_queued_rows_requeued_and_complete(self, store):
        run_ids = [_orphan(store, seed) for seed in range(3)]
        service = SimulationService(store, queue_depth=8, jobs=1).start()
        try:
            for run_id in run_ids:
                assert service.wait(run_id, timeout=120.0).status == "done"
            stats = service.stats()
            assert stats.recovered_requeued == 3
            assert stats.recovered_quarantined == 0
        finally:
            service.shutdown(drain=False, timeout=10.0)

    def test_orphaned_running_row_requeued_with_attempt_charged(self, store):
        run_id = _orphan(store, seed=1, running=True)  # died mid-execution
        service = SimulationService(store, queue_depth=8, jobs=1).start()
        try:
            record = service.wait(run_id, timeout=120.0)
            assert record.status == "done"
            # One attempt from the dead process, one from the rerun.
            assert record.attempts == 2
            assert record.lease_expires_at is None
        finally:
            service.shutdown(drain=False, timeout=10.0)

    def test_exhausted_orphan_quarantined_not_rerun(self, store):
        doomed = _orphan(store, seed=1, attempts=1, running=True)  # 2 attempts
        fresh = _orphan(store, seed=2)
        service = SimulationService(
            store, queue_depth=8, jobs=1, max_attempts=2
        ).start()
        try:
            record = service.wait(doomed, timeout=120.0)
            assert record.status == "quarantined"
            assert record.attempts == 2  # budget spent, not incremented
            assert "service restarts" in record.error
            assert service.wait(fresh, timeout=120.0).status == "done"
            stats = service.stats()
            assert stats.recovered_quarantined == 1
            assert stats.recovered_requeued == 1
            assert stats.quarantined_runs == 0  # recovery's, not execution's
        finally:
            service.shutdown(drain=False, timeout=10.0)

    def test_recovery_skipped_when_queue_is_live(self, store):
        # An in-process restart: the rows in the queue have a live owner,
        # so recovery must not double-enqueue them.
        service = SimulationService(store, queue_depth=8, jobs=1)  # no dispatcher
        accepted = service.submit(PAYLOAD)
        assert service.recover() == {"requeued": 0, "quarantined": 0}
        assert store.get(accepted["run_id"]).status == "queued"
        assert service.queue.depth == 1  # exactly the one live entry

    def test_backlog_overflowing_the_queue_is_cancelled_not_stranded(self, store):
        run_ids = [_orphan(store, seed) for seed in range(4)]
        service = SimulationService(store, queue_depth=2, jobs=1)  # no dispatcher
        summary = service.recover()
        assert summary == {"requeued": 2, "quarantined": 0}
        statuses = sorted(store.get(r).status for r in run_ids)
        assert statuses == ["cancelled", "cancelled", "queued", "queued"]
        assert not any(
            store.get(r).status not in ("queued", "cancelled") for r in run_ids
        )


class TestShutdownRaces:
    def test_concurrent_drain_and_cancel_leave_no_row_behind(self, store):
        # One caller politely drains while another pulls the plug. Either
        # order is fine; what must hold is: no deadlock, dispatcher down,
        # and every accepted run terminal (done or cancelled — never a
        # stranded 'queued'/'running' row).
        service = SimulationService(store, queue_depth=16, jobs=1)
        run_ids = [service.submit(_payload(seed))["run_id"] for seed in range(4)]
        service.start()

        drainer = threading.Thread(
            target=service.shutdown, kwargs={"drain": True, "timeout": 60.0}
        )
        drainer.start()
        service.shutdown(drain=False, timeout=60.0)
        drainer.join(timeout=60.0)
        assert not drainer.is_alive(), "drain shutdown deadlocked"
        assert not service.running

        statuses = {run_id: store.get(run_id).status for run_id in run_ids}
        assert all(s in ("done", "cancelled") for s in statuses.values()), statuses

    def test_shutdown_after_recovery_completes_cleanly(self, store):
        for seed in range(2):
            _orphan(store, seed)
        service = SimulationService(store, queue_depth=8, jobs=1).start()
        assert service.shutdown(drain=True, timeout=120.0)
        assert all(r.terminal for r in store.list_runs())


class TestRowsFromAnOlderRelease:
    def test_row_with_removed_solver_mode_is_quarantined_not_fatal(self, tmp_path):
        # Stores written before BusConfig.solver_mode was removed hold
        # specs that carry it. Recovery must quarantine such a row with
        # its validation error and still start, running the rest.
        results_dir = str(tmp_path / "svc")
        old = ResultStore(results_dir)
        assert old.schema_version == 2
        spec_payload = spec_to_dict(spec_from_dict(_payload(1)["spec"]))
        spec_payload["machine"]["bus"]["solver_mode"] = "bisect"
        stale = old.create(
            spec_hash="0" * 64,  # the old hash; never recomputed
            spec_json=canonical_json(spec_payload),
            tenant="t1",
        ).run_id
        old.close()
        store = ResultStore(results_dir)
        fresh = _orphan(store, seed=2)
        service = SimulationService(store, queue_depth=8, jobs=1).start()
        try:
            assert service.running
            record = store.get(stale)
            assert record.status == "quarantined"
            assert "machine.bus" in record.error and "solver_mode" in record.error
            assert service.wait(fresh, timeout=120.0).status == "done"
            stats = service.stats()
            assert stats.recovered_quarantined == 1
            assert stats.recovered_requeued == 1
        finally:
            service.shutdown(drain=False, timeout=10.0)
            store.close()
