"""Per-run accounting: extracting results from a finished simulation.

The collectors here read only public machine/application state, so they can
run on any simulation regardless of scheduler. All derived statistics
(slowdowns, improvements) live in :mod:`repro.metrics.stats`; this module
records raw facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..audit import AuditReport
    from ..faults import FaultStats
    from ..hw.machine import Machine
    from ..workloads.base import Application
    from .queueing import DynamicStats

__all__ = ["AppResult", "RunResult", "collect_run_result"]


@dataclass(frozen=True)
class AppResult:
    """Raw outcome of one application instance.

    Attributes
    ----------
    name:
        Spec name ("CG", "BBMA", ...).
    app_id:
        Instance id.
    turnaround_us:
        Time from simulation start to the last thread's completion;
        ``None`` for background jobs still running at harness stop.
    transactions:
        Total bus transactions issued by the instance (up to harness stop).
    run_time_us:
        Total on-CPU time across the instance's threads.
    work_done_us:
        Total work completed across threads (standalone-µs).
    migrations:
        Cross-CPU migrations suffered by the instance's threads.
    dispatches:
        Total dispatches of the instance's threads.
    """

    name: str
    app_id: int
    turnaround_us: float | None
    transactions: float
    run_time_us: float
    work_done_us: float
    migrations: int
    dispatches: int

    @property
    def mean_rate_txus(self) -> float:
        """Average transaction rate while on CPU (tx/µs)."""
        if self.run_time_us <= 0:
            return 0.0
        return self.transactions / self.run_time_us


@dataclass(frozen=True)
class RunResult:
    """Raw outcome of one simulation run.

    Attributes
    ----------
    makespan_us:
        Simulated time at harness stop (last *target* completion).
    apps:
        Per-instance results, targets first, in launch order.
    target_names:
        Names of the measured (non-background) instances.
    total_transactions:
        Bus transactions issued by the whole workload during the run.
    context_switches:
        Running→running replacements across all CPUs.
    migrations:
        Cross-CPU thread migrations across all threads.
    cpu_idle_us:
        Summed idle time across CPUs.
    bus_solve_calls / bus_cache_hits / bus_bisection_steps:
        Bus contention-solver work during the run (see
        :class:`repro.hw.bus.BusModel`): total ``solve`` invocations, how
        many were answered from the memo cache, and aggregate root-finder
        throughput evaluations of the guarded-Newton root finder. The
        performance harness
        (``benchmarks/bench_perf.py``) sums these across a whole
        experiment grid.
    bus_shared_hits / bus_warm_starts:
        ``bus_shared_hits`` is always 0: the process-shared solve cache it
        counted is gone, and the field stays for readers of stored
        results. ``bus_warm_starts`` counts Newton searches seeded from
        the previous equilibrium.
    solve_skips / lane_rebuilds:
        This run's settle-loop fast-path counters (see
        :attr:`repro.hw.machine.Machine.solve_skips`). Strictly *per run*:
        each simulation builds a fresh machine, so a chunked ``run_many``
        worker running several specs back-to-back reports each run's own
        counts, never the chunk's running total (the two-runs-one-worker
        regression test pins this down).
    audit:
        The invariant auditor's :class:`repro.audit.AuditReport` when the
        run was audited (``SimulationSpec.audit`` or the process-global
        ``--audit`` switch), else ``None``.
    profile:
        Per-phase wall-clock profile (``Machine.profile_snapshot``) when
        the run was profiled, else ``None``.
    dynamic:
        Open-system observations (:class:`repro.metrics.queueing.
        DynamicStats`) when the run had a dynamic workload attached
        (``SimulationSpec.dynamic``), else ``None``. Unlike the solver
        counters, these are *results* — deterministic functions of the
        spec and seed — so they participate in equality.
    faults:
        Degradation counters (:class:`repro.faults.FaultStats`) when the
        run had a fault plan attached (``SimulationSpec.faults``), else
        ``None``. Deterministic functions of the spec and seed — injection
        draws come from dedicated named RNG streams — so, like
        ``dynamic``, they participate in equality.

    All solver counters and the profile are *observability*, not physics:
    they vary with cache warmth and settle pipeline while the simulated
    trajectory stays bit-identical, so they are excluded from equality
    comparisons (``compare=False``).
    """

    makespan_us: float
    apps: tuple[AppResult, ...]
    target_names: tuple[str, ...]
    total_transactions: float
    context_switches: int
    migrations: int
    cpu_idle_us: float
    bus_solve_calls: int = field(default=0, compare=False)
    bus_cache_hits: int = field(default=0, compare=False)
    bus_bisection_steps: int = field(default=0, compare=False)
    bus_shared_hits: int = field(default=0, compare=False)
    bus_warm_starts: int = field(default=0, compare=False)
    solve_skips: int = field(default=0, compare=False)
    lane_rebuilds: int = field(default=0, compare=False)
    audit: "AuditReport | None" = field(default=None, compare=False)
    profile: dict[str, float] | None = field(default=None, compare=False)
    dynamic: "DynamicStats | None" = None
    faults: "FaultStats | None" = None

    @property
    def workload_rate_txus(self) -> float:
        """Cumulative workload transaction rate over the run (tx/µs).

        This is the quantity Figure 1A plots: total bus transactions of the
        whole workload divided by wall time.
        """
        if self.makespan_us <= 0:
            return 0.0
        return self.total_transactions / self.makespan_us

    def targets(self) -> list[AppResult]:
        """Results of the measured instances only."""
        return [a for a in self.apps if a.name in self.target_names]

    def mean_target_turnaround_us(self) -> float:
        """Arithmetic mean turnaround of the measured instances.

        This is the paper's reported metric ("the improvement in the
        arithmetic mean of the execution times of both application
        instances").
        """
        ts = [a.turnaround_us for a in self.targets()]
        if not ts or any(t is None for t in ts):
            raise ValueError("not all target instances finished")
        return sum(ts) / len(ts)  # type: ignore[arg-type]


def collect_run_result(
    machine: "Machine",
    apps: list["Application"],
    target_names: tuple[str, ...],
) -> RunResult:
    """Assemble a :class:`RunResult` from a finished simulation."""
    results = []
    total_tx = 0.0
    total_migrations = 0
    for app in apps:
        tx = rt = wd = 0.0
        migr = disp = 0
        for t in app.threads:
            snap = machine.counters.read(t.tid)
            tx += snap.bus_transactions
            rt += snap.cycles_us
            wd += snap.work_us
            migr += t.migration_count
            disp += t.dispatch_count
        total_tx += tx
        total_migrations += migr
        results.append(
            AppResult(
                name=app.name,
                app_id=app.app_id,
                turnaround_us=app.turnaround_us,
                transactions=tx,
                run_time_us=rt,
                work_done_us=wd,
                migrations=migr,
                dispatches=disp,
            )
        )
    switches = sum(c.context_switches for c in machine.cpus)
    idle = sum(c.idle_time(machine.now) for c in machine.cpus)
    return RunResult(
        makespan_us=machine.now,
        apps=tuple(results),
        target_names=tuple(target_names),
        total_transactions=total_tx,
        context_switches=switches,
        migrations=total_migrations,
        cpu_idle_us=idle,
        bus_solve_calls=machine.bus.solve_calls,
        bus_cache_hits=machine.bus.cache_hits,
        bus_bisection_steps=machine.bus.bisection_steps,
        bus_warm_starts=machine.bus.warm_starts,
        solve_skips=machine.solve_skips,
        lane_rebuilds=machine.lane_rebuilds,
    )
