"""Golden corpus: absolute simulator outputs, pinned exactly.

The bit-identity suites compare code paths against each other; this
corpus pins what the simulator *produces*, so a change that moves every
path together still shows up. ``golden.json`` holds:

* ``fig2`` — per-application mean target turnaround (µs) of Figure 2
  sets A, B and C at work scale 0.1, seed 42: the Linux baseline and
  each default policy;
* ``counters`` — key counters of every Figure 2 set A run at work
  scale 0.1, seed 42 (the Linux baseline and each default policy): per
  application instance its transactions, on-CPU time, work done,
  migrations and dispatches; per run its total transactions, context
  switches, migrations and summed CPU idle time;
* ``dyn1`` — one DYN-1 operating point (Quanta Window, Poisson arrivals
  at 2 jobs/s, 8 jobs, one replication, work scale 0.1, seed 42);
* ``fault1`` — one FAULT-1 operating point (CG, the reference fault plan
  plus background crashes at full intensity, one replication, work
  scale 0.1, seed 42): each default policy's fault-free and degraded
  turnaround and fault counts. The crashes go through
  ``Machine.kill_thread``; the generator asserts at least one happened;
* ``memo_pressure`` — Figure 2 set A runs of a few applications at work
  scale 0.1, seed 42, on a bus whose solve memo holds only
  :data:`MEMO_PRESSURE_CACHE` entries: turnaround, transactions and the
  bus solver's call/hit/resident counts per run. The generator asserts
  every run missed the memo more often than it has entries, so the
  entries pin evictions and reordered hits in absolute terms;
* ``spec_hashes`` — ``SimulationSpec.spec_hash()`` of every spec that
  ``benchmarks/service_smoke.py`` submits, i.e. the service cache keys.

``tests/golden/test_golden.py`` recomputes every entry and compares it
with ``==`` (JSON keeps floats exact) on the CPython minor version that
generated the file (``python`` in the file). Other versions compare the
floats to 1e-9 relative: from CPython 3.12 the builtin ``sum()`` of
floats is compensated, and the simulator sums floats with it (cache
residency, selection totals, metric means), so last ulps move. A change
that moves an entry on purpose regenerates the file and says why in
CHANGES.md::

    PYTHONPATH=src python -m tests.golden.corpus --regen

Run from the repository root. Without ``--regen`` the module prints the
entries that differ from the committed file and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from typing import Any

GOLDEN = Path(__file__).with_name("golden.json")
ROOT = Path(__file__).resolve().parents[2]

FIG2_SCALE = 0.1
FIG2_SEED = 42
DYN1_POINT = {
    "policy": "quanta_window",
    "rate_per_s": 2.0,
    "n_jobs": 8,
    "work_scale": 0.1,
    "seed": 42,
}
FAULT1_POINT = {
    "app": "CG",
    "intensity": 1.0,
    "crash_prob": 0.5,
    "crash_mean_time_us": 200_000.0,
    "work_scale": 0.1,
    "seed": 42,
}
MEMO_PRESSURE_CACHE = 16
MEMO_PRESSURE_APPS = ("Raytrace", "CG", "FMM")


def fig2_turnarounds() -> dict[str, dict[str, dict[str, float]]]:
    """``{set: {app: {"linux": µs, policy: µs, ...}}}``."""
    from repro.experiments.fig2 import run_fig2

    out: dict[str, dict[str, dict[str, float]]] = {}
    for set_name in ("A", "B", "C"):
        rows = run_fig2(set_name, work_scale=FIG2_SCALE, seed=FIG2_SEED)
        out[set_name] = {
            row.name: {
                "linux": row.linux_turnaround_us,
                **{cell.policy: cell.turnaround_us for cell in row.cells},
            }
            for row in rows
        }
    return out


def _fig2_a_specs(name: str, machine=None) -> dict[str, Any]:
    """``{scheduler: SimulationSpec}`` of one Figure 2 set A cell.

    The Linux baseline and each default policy, at :data:`FIG2_SCALE`
    and :data:`FIG2_SEED`, on ``machine`` (default: the paper's SMP).
    """
    from dataclasses import replace

    from repro.config import LinuxSchedConfig, MachineConfig, ManagerConfig
    from repro.experiments.base import SimulationSpec
    from repro.experiments.fig2 import default_policies
    from repro.workloads.microbench import bbma_spec
    from repro.workloads.suites import PAPER_APPS

    manager = ManagerConfig()
    app = PAPER_APPS[name].scaled(FIG2_SCALE)
    base = SimulationSpec(
        targets=[app, app],
        background=[bbma_spec() for _ in range(4)],
        scheduler="linux",
        machine=machine or MachineConfig(),
        manager=manager,
        linux=LinuxSchedConfig(),
        seed=FIG2_SEED,
    )
    runs = {"linux": base}
    for policy in default_policies(manager):
        runs[policy.name] = replace(base, scheduler=policy)
    return runs


def fig2_counters() -> dict[str, dict[str, dict[str, Any]]]:
    """``{app: {scheduler: {"apps": [...], run counters...}}}`` for set A."""
    from repro.experiments.base import run_simulation
    from repro.workloads.suites import PAPER_APPS

    out: dict[str, dict[str, dict[str, Any]]] = {}
    for name in PAPER_APPS:
        out[name] = {}
        for scheduler, spec in _fig2_a_specs(name).items():
            result = run_simulation(spec)
            out[name][scheduler] = {
                "apps": [
                    {
                        "name": a.name,
                        "transactions": a.transactions,
                        "run_time_us": a.run_time_us,
                        "work_done_us": a.work_done_us,
                        "migrations": a.migrations,
                        "dispatches": a.dispatches,
                    }
                    for a in result.apps
                ],
                "total_transactions": result.total_transactions,
                "context_switches": result.context_switches,
                "migrations": result.migrations,
                "cpu_idle_us": result.cpu_idle_us,
            }
    return out


def dyn1_point() -> dict[str, Any]:
    """The queueing metrics of :data:`DYN1_POINT`."""
    from repro.experiments.dynamic import run_dynamic_sweep

    p = DYN1_POINT
    (row,) = run_dynamic_sweep(
        policies=[p["policy"]], rates_per_s=[p["rate_per_s"]], n_jobs=p["n_jobs"],
        replications=1, work_scale=p["work_scale"], seed=p["seed"],
    )
    return {
        "mean_response_us": row.mean_response_us,
        "mean_slowdown": row.mean_slowdown,
        "throughput_jobs_per_s": row.throughput_jobs_per_s,
        "queue_len_time_avg": row.queue_len_time_avg,
        "utilization_time_avg": row.utilization_time_avg,
        "saturated_fraction": row.saturated_fraction,
        "response_p50_us": row.response_p50_us,
        "response_p95_us": row.response_p95_us,
    }


def fault1_point() -> dict[str, dict[str, Any]]:
    """``{policy: {...}}`` of :data:`FAULT1_POINT`."""
    from dataclasses import replace

    from repro.experiments.faults import REFERENCE_PLAN, run_faults

    p = FAULT1_POINT
    plan = replace(
        REFERENCE_PLAN, crash_prob=p["crash_prob"], crash_mean_time_us=p["crash_mean_time_us"]
    )
    rows = run_faults(
        app=p["app"], plan=plan, intensities=[p["intensity"]], replications=1,
        seed=p["seed"], work_scale=p["work_scale"], jobs=1,
    )
    out: dict[str, dict[str, Any]] = {}
    for row in rows:
        (cell,) = row.cells
        assert cell.stats.apps_crashed > 0, "the FAULT-1 point must exercise kill_thread"
        out[row.policy] = {
            "baseline_turnaround_us": row.baseline_turnaround_us,
            "turnaround_us": cell.turnaround_us,
            "retained_percent": cell.retained_percent,
            "audit_ok": cell.audit_ok,
            "stats": cell.stats.to_dict(),
        }
    return out


def memo_pressure() -> dict[str, dict[str, dict[str, Any]]]:
    """``{app: {scheduler: {...}}}``: set A runs on a tiny solve memo."""
    from repro.config import BusConfig, MachineConfig
    from repro.experiments.base import run_simulation_with_handle

    machine = MachineConfig(bus=BusConfig(solve_cache_size=MEMO_PRESSURE_CACHE))
    out: dict[str, dict[str, dict[str, Any]]] = {}
    for name in MEMO_PRESSURE_APPS:
        out[name] = {}
        for scheduler, spec in _fig2_a_specs(name, machine).items():
            result, handle = run_simulation_with_handle(spec)
            bus = handle.machine.bus
            misses = bus.solve_calls - bus.cache_hits
            assert misses > MEMO_PRESSURE_CACHE, (
                f"{name}/{scheduler}: {misses} memo misses do not overflow "
                f"{MEMO_PRESSURE_CACHE} entries"
            )
            out[name][scheduler] = {
                "turnaround_us": result.mean_target_turnaround_us(),
                "total_transactions": result.total_transactions,
                "solve_calls": bus.solve_calls,
                "cache_hits": bus.cache_hits,
                "cache_len": bus.cache_len,
            }
    return out


def service_smoke_hashes() -> dict[str, str]:
    """``spec_hash()`` of the specs ``benchmarks/service_smoke.py`` submits."""
    from repro.service.schemas import spec_from_dict

    path = ROOT / "benchmarks" / "service_smoke.py"
    module_spec = importlib.util.spec_from_file_location("_service_smoke", path)
    smoke = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(smoke)  # type: ignore[union-attr]
    return {"FIG2_SPEC": spec_from_dict(smoke.FIG2_SPEC).spec_hash()}


SECTIONS = {
    "fig2": fig2_turnarounds,
    "counters": fig2_counters,
    "dyn1": dyn1_point,
    "fault1": fault1_point,
    "memo_pressure": memo_pressure,
    "spec_hashes": service_smoke_hashes,
}


def load() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def python_version() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regen", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)
    fresh = {name: compute() for name, compute in SECTIONS.items()}
    fresh["python"] = python_version()
    if args.regen:
        GOLDEN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")
        return 0
    stored = load()
    differ = [name for name in fresh if stored.get(name) != fresh[name]]
    for name in differ:
        print(f"{name}: differs from {GOLDEN.name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
