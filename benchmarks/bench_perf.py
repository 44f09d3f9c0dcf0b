"""PERF: solve cache, settle pipelines, dispatch — wall clock and counters.

A standalone script (not a pytest-benchmark module) that times ``run_fig2``
three ways, times the scalar against the batched settle pipeline on a
scaled-up workload, and writes ``BENCH_fig2.json``:

1. **serial / cache off** — the bus-solve memo cache disabled
   (``solve_cache_size=0``);
2. **serial / cache on** — the default configuration;
3. **parallel / chunked** — the cached grid through ``run_many(jobs=N)``
   with chunked dispatch.

Alongside wall-clock it records solver-work counters summed over every
simulation in the grid: ``solve`` invocations, memo-cache hits, Newton
warm starts, and root-finder throughput evaluations. The script asserts
the variants agree on the figure's actual rows: chunked parallel must
match serial *exactly*; cache-off must match cache-on to solver tolerance
(a cache hit skips a solve, which moves the next solve's warm start, so
the last ulp may differ). The CI benchmark smoke job runs this script
and fails on any violation.

The simulator picks its kernels from problem size: machines from
``repro.hw.machine.BATCH_MIN_CPUS`` logical CPUs (without SMT) run the
batched (struct-of-arrays) settle pipeline, and bus solves from
``repro.hw.bus._VECTOR_MIN_LANES`` lanes run the numpy kernel. The
**pipelines** section scales the fig2 workload up to a large SMP
(default: 256 CPUs, 128 target app instances of Barnes/SP/CG/Raytrace
plus 128 microbenchmark background apps under the Quanta Window policy)
and runs it with both thresholds forced each way: the *scalar* side
(scalar pipeline, scalar Newton loop) against the *batched* side. The
two runs must produce *bit-identical* ``RunResult``s — the speedup is
pure evaluation-order-preserving batching — and the report carries the
batched run's hot-path counters (``batched_lanes``, ``dirty_mask_hits``,
the fraction of per-job estimates re-scored).

The **entry_build** section micro-benchmarks the ``_ensure_solution``
entry build alone — every lane dirtied, solve memoized away — and
reports µs per 1k dirty lanes for the scalar loop vs the SoA array pass,
plus the ratio.

``--crossover`` adds the two tables behind the thresholds: per-solve
time of the scalar loop against the numpy kernel by lane count, and
whole-run CPU time of the scalar against the batched pipeline by
machine size (work scaled so every size does similar total work).

Parallel timing is only reported as a speedup where it can be one: the
script records ``os.cpu_count()``, the scheduler affinity mask *and*
the cgroup CPU quota (containers often show many CPUs while throttled
to a fraction of one), and on boxes where fewer than two CPUs are
actually usable the ``run_many`` entries are annotated as skipped (with
the reason) rather than reporting a misleading sub-1x "speedup" from
oversubscribing a single core. The bit-identity gate still runs with 2
workers either way.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # defaults
    PYTHONPATH=src python benchmarks/bench_perf.py --jobs 4 --scale 0.2
    PYTHONPATH=src python benchmarks/bench_perf.py --crossover
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
import time
from typing import Iterator

import repro.hw.bus as bus_module
import repro.hw.machine as machine_module
from repro.config import BusConfig, MachineConfig
from repro.parallel import cgroup_cpu_quota, fork_available, resolve_jobs, usable_cpus

#: Application subset for the scaled-up pipeline gate: two
#: bandwidth-hungry codes (SP, CG), one cache-friendly (Barnes) and one
#: mixed (Raytrace), mirroring the fig2 "set A vs set C" spread.
SCALED_APPS = ["Barnes", "SP", "CG", "Raytrace"]


@contextlib.contextmanager
def forced(batched: bool) -> Iterator[None]:
    """Build machines and bus models on one side of both size thresholds."""
    saved = (machine_module.BATCH_MIN_CPUS, bus_module._VECTOR_MIN_LANES)
    threshold = 0 if batched else 10**9
    machine_module.BATCH_MIN_CPUS = threshold
    bus_module._VECTOR_MIN_LANES = threshold
    try:
        yield
    finally:
        machine_module.BATCH_MIN_CPUS, bus_module._VECTOR_MIN_LANES = saved


def _machine(cache: bool) -> MachineConfig:
    bus = BusConfig(solve_cache_size=BusConfig().solve_cache_size if cache else 0)
    return MachineConfig(bus=bus)


def _run(set_name: str, machine: MachineConfig, jobs: int, scale: float,
         apps: list[str], seed: int):
    from repro.experiments.fig2 import (
        _background, _fresh_policy, default_policies, replace_scheduler,
    )
    from repro.config import ManagerConfig, LinuxSchedConfig
    from repro.experiments.base import SimulationSpec
    from repro.parallel import run_many
    from repro.workloads.suites import PAPER_APPS

    manager = ManagerConfig()
    specs = []
    for name in apps:
        app_spec = PAPER_APPS[name].scaled(scale)
        base = SimulationSpec(
            targets=[app_spec, app_spec],
            background=_background(set_name),
            scheduler="linux",
            machine=machine,
            manager=manager,
            linux=LinuxSchedConfig(),
            seed=seed,
        )
        specs.append(base)
        for template in default_policies(manager):
            specs.append(replace_scheduler(base, _fresh_policy(template)))
    start = time.perf_counter()
    results = run_many(specs, jobs=jobs)
    elapsed = time.perf_counter() - start
    stats = {
        "wall_clock_s": round(elapsed, 4),
        "simulations": len(results),
        "solve_calls": sum(r.bus_solve_calls for r in results),
        "cache_hits": sum(r.bus_cache_hits for r in results),
        "warm_starts": sum(r.bus_warm_starts for r in results),
        "solver_steps": sum(r.bus_bisection_steps for r in results),
    }
    stats["cache_hit_rate"] = (
        round(stats["cache_hits"] / stats["solve_calls"], 4)
        if stats["solve_calls"]
        else 0.0
    )
    return results, stats


def _scaled_spec(n_cpus: int, inst: int, scale: float, seed: int,
                 profile: bool = False):
    """One scaled-up fig2 workload under Quanta Window.

    ``inst`` instances of each app in :data:`SCALED_APPS` (two threads
    each), ``3*inst`` BBMA + ``inst`` nBBMA background apps, on an
    ``n_cpus``-way machine whose bus capacity scales with the CPU count.
    Policies are cloned per call so estimator state never crosses runs.
    """
    from repro.config import LinuxSchedConfig, ManagerConfig
    from repro.experiments.base import SimulationSpec
    from repro.experiments.fig2 import _fresh_policy, default_policies
    from repro.workloads.microbench import bbma_spec, nbbma_spec
    from repro.workloads.suites import PAPER_APPS

    machine = MachineConfig(
        n_cpus=n_cpus,
        bus=BusConfig(capacity_txus=BusConfig().capacity_txus * (n_cpus / 4.0)),
    )
    manager = ManagerConfig()
    template = default_policies(manager)[1]  # Quanta Window
    targets = []
    for name in SCALED_APPS:
        app = PAPER_APPS[name].scaled(scale)
        targets.extend([app] * inst)
    background = [bbma_spec() for _ in range(3 * inst)]
    background += [nbbma_spec() for _ in range(inst)]
    return SimulationSpec(
        targets=targets,
        background=background,
        scheduler=_fresh_policy(template),
        machine=machine,
        manager=manager,
        linux=LinuxSchedConfig(),
        seed=seed,
        profile=profile,
    )


def _best_of(reps: int, make_spec, run, clock=time.perf_counter):
    """Best time over ``reps`` runs of freshly-built specs."""
    best = float("inf")
    result = None
    for _ in range(reps):
        spec = make_spec()
        start = clock()
        result = run(spec)
        best = min(best, clock() - start)
    return best, result


def _pipeline_benchmark(n_cpus: int, inst: int, scale: float, seed: int,
                        reps: int) -> dict:
    """Time forced-scalar against forced-batched, bit-for-bit."""
    from repro.experiments.base import run_simulation

    def spec():
        return _scaled_spec(n_cpus, inst, scale, seed)

    with forced(False):
        t_scalar, r_scalar = _best_of(reps, spec, run_simulation)
    with forced(True):
        t_batched, r_batched = _best_of(reps, spec, run_simulation)
        # One extra profiled run for the hot-path counters (never timed:
        # the per-phase timers themselves cost wall clock).
        profiled = run_simulation(_scaled_spec(n_cpus, inst, scale, seed, profile=True))
    identical = r_scalar == r_batched
    assert identical, "batched pipeline diverged from the scalar pipeline"
    prof = profiled.profile or {}
    rescored = prof.get("sel_est_rescored", 0)
    reused = prof.get("sel_est_reused", 0)
    return {
        "workload": {
            "n_cpus": n_cpus,
            "apps": SCALED_APPS,
            "instances_per_app": inst,
            "target_apps": len(SCALED_APPS) * inst,
            "background_apps": 4 * inst,
            "work_scale": scale,
            "scheduler": "quanta-window",
            "seed": seed,
        },
        "best_of": reps,
        "scalar": {
            "wall_clock_s": round(t_scalar, 4),
            "solve_calls": r_scalar.bus_solve_calls,
            "solver_steps": r_scalar.bus_bisection_steps,
        },
        "batched": {
            "wall_clock_s": round(t_batched, 4),
            "solve_calls": r_batched.bus_solve_calls,
            "solver_steps": r_batched.bus_bisection_steps,
            "batched_lanes": prof.get("batched_lanes", 0),
            "dirty_mask_hits": prof.get("dirty_mask_hits", 0),
            "sel_est_rescored": rescored,
            "sel_est_reused": reused,
            "sel_rerank_fraction": (
                round(rescored / (rescored + reused), 4)
                if (rescored + reused)
                else None
            ),
        },
        "batched_speedup_vs_scalar": round(t_scalar / t_batched, 2),
        "bit_identical_scalar_batched": identical,
    }


def _entry_build_benchmark(n_lanes: int, reps: int = 3) -> dict:
    """Micro-benchmark: ``_ensure_solution`` entry build, µs per 1k dirty lanes.

    Builds a fully-occupied ``n_lanes``-CPU machine on each pipeline,
    then repeatedly invalidates the lane signature (so every lane is
    dirty and the skip path cannot fire) and rebuilds. The bus solve
    itself is memoized after the first iteration — identical rates hit
    the solve cache — so the loop isolates exactly the per-lane entry
    construction the SoA store batches: demand-segment lookup, debt/fill
    classification, request building and the grant fold.
    """
    from repro.hw.machine import Machine
    from repro.sim.engine import Engine

    class _Stepped:
        def __init__(self, rate: float, step: float):
            self._rate = rate
            self._step = step

        def segment(self, work: float) -> tuple[float, float]:
            k = int(work // self._step)
            return self._rate * (1.0 + 0.1 * (k % 3)), (k + 1) * self._step

    def build(batched: bool) -> Machine:
        config = MachineConfig(
            n_cpus=n_lanes,
            bus=BusConfig(capacity_txus=BusConfig().capacity_txus * (n_lanes / 4.0)),
        )
        with forced(batched):
            machine = Machine(config, Engine())
        for i in range(n_lanes):
            st = machine.add_thread(
                f"t{i}", _Stepped(4.0 + (i % 13), 1_000.0),
                work_total=1e9, footprint_lines=200.0 * (i % 5),
            )
            machine.dispatch(i, st.tid)
        machine.advance_to(1.0)  # settle once: prime lanes and seg caches
        return machine

    iters = max(1, 20_000 // n_lanes)  # ~20k lane entry-builds per rep
    section = {"n_lanes": n_lanes, "iterations": iters, "best_of": reps}
    for batched, key in ((False, "scalar_us_per_1k_lanes"), (True, "soa_us_per_1k_lanes")):
        machine = build(batched)
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(iters):
                machine._soa_sig = None  # defeat the solve-skip path:
                machine._lane_sig = None  # every lane rebuilds
                machine._dirty = True
                machine._ensure_solution()
            best = min(best, time.perf_counter() - start)
        section[key] = round(best / (iters * n_lanes) * 1e9, 2)
    section["soa_speedup"] = round(
        section["scalar_us_per_1k_lanes"] / section["soa_us_per_1k_lanes"], 2
    )
    return section


def _crossover_benchmark(reps: int) -> dict:
    """The tables behind ``_VECTOR_MIN_LANES`` and ``BATCH_MIN_CPUS``.

    Both are CPU time (``time.process_time``), best of ``reps``, so a
    busy neighbour on a shared box moves them less than wall clock.

    * ``bus_lanes`` — per saturated solve (memo cache off, rates drifting
      so every solve warm-starts), scalar loop ÷ numpy kernel;
    * ``machine_cpus`` — whole runs of the scaled Quanta Window workload
      (``n/8`` instances per app, two seeds, work scaled so every size
      does similar total work), scalar pipeline ÷ batched pipeline,
      each side forced. Above 1.0 the batched side is faster.
    """
    from repro.experiments.base import run_simulation
    from repro.hw.bus import BusModel

    def solve_us(n: int, batched: bool, solves: int = 300) -> float:
        rng = random.Random(n)
        base = [rng.choice([23.6, 23.6, 2.0, 5.0, 9.0, 14.0]) for _ in range(n)]
        seqs = [
            [r * (1.0 + 0.001 * ((k + i) % 7)) for i, r in enumerate(base)]
            for k in range(solves)
        ]
        cap = BusConfig().capacity_txus * max(1.0, n / 4.0)
        best = float("inf")
        for _ in range(reps):
            with forced(batched):
                bus = BusModel(BusConfig(capacity_txus=cap, solve_cache_size=0))
            reqs = [[bus.request_for_rate(r) for r in rates] for rates in seqs]
            start = time.process_time()
            for rq in reqs:
                bus.solve(rq)
            best = min(best, time.process_time() - start)
        return best / solves * 1e6

    lanes = {}
    for n in (4, 8, 16, 32, 48, 64, 96, 128, 256):
        s, v = solve_us(n, False), solve_us(n, True)
        lanes[str(n)] = {"scalar_us": round(s, 1), "batched_us": round(v, 1),
                         "scalar_over_batched": round(s / v, 2)}

    def run_cpu_s(n: int, batched: bool) -> tuple[float, list]:
        inst = max(1, n // 8)
        scale = min(1.0, 0.05 * 256 / n)

        def grid():
            return [_scaled_spec(n, inst, scale, seed) for seed in (1, 2)]

        with forced(batched):
            return _best_of(reps, grid, lambda specs: [run_simulation(s) for s in specs],
                            clock=time.process_time)

    cpus = {}
    for n in (4, 8, 16, 32, 48, 64, 96, 128):
        t_s, r_s = run_cpu_s(n, False)
        t_b, r_b = run_cpu_s(n, True)
        assert r_s == r_b, f"pipelines diverged at {n} CPUs"
        cpus[str(n)] = {"scalar_s": round(t_s, 3), "batched_s": round(t_b, 3),
                        "scalar_over_batched": round(t_s / t_b, 2)}
    return {
        "best_of": reps,
        "vector_min_lanes": bus_module._VECTOR_MIN_LANES,
        "batch_min_cpus": machine_module.BATCH_MIN_CPUS,
        "bus_lanes": lanes,
        "machine_cpus": cpus,
    }


def _multicore_benchmark(n_cpus: int, inst: int, scale: float, seed: int,
                         jobs: int, cpu_count: int, affinity: int) -> dict:
    """``run_many`` speedup over replications of the scaled workload.

    Honest by construction: the speedup is only measured (and reported)
    when at least two CPUs are actually usable by this process *and*
    fork-based workers exist; otherwise the entry says exactly why it was
    skipped instead of timing oversubscription.
    """
    from repro.parallel import run_many

    quota = cgroup_cpu_quota()
    section = {
        "cpu_count": cpu_count,
        "affinity_cpus": affinity,
        "cgroup_cpu_quota": quota,
        "fork_available": fork_available(),
        "jobs": jobs,
    }
    quota_ok = quota is None or quota >= 2.0
    meaningful = affinity >= 2 and quota_ok and jobs > 1 and fork_available()
    if not meaningful:
        section["skipped"] = True
        quota_str = "none" if quota is None else f"{quota:.2f} cores"
        section["note"] = (
            f"cpu_count={cpu_count}, usable (affinity) CPUs={affinity}, "
            f"cgroup quota={quota_str}, jobs={jobs}, "
            f"fork={fork_available()}: a run_many speedup needs >=2 "
            "usable CPUs (affinity AND cgroup quota) and fork workers; "
            "timing parallel dispatch here would measure "
            "oversubscription, not speedup"
        )
        return section

    def grid():
        return [_scaled_spec(n_cpus, inst, scale, seed + i) for i in range(jobs)]

    t_serial, r_serial = _best_of(1, grid, lambda s: run_many(s, jobs=1))
    t_par, r_par = _best_of(1, grid, lambda s: run_many(s, jobs=jobs))
    assert r_par == r_serial, "run_many diverged from serial on scaled grid"
    section.update(
        {
            "skipped": False,
            "replications": jobs,
            "serial_wall_clock_s": round(t_serial, 4),
            "parallel_wall_clock_s": round(t_par, 4),
            "run_many_speedup": round(t_serial / t_par, 2),
            "bit_identical_serial_parallel": True,
        }
    )
    return section


def _assert_within_tolerance(reference, candidate, label: str) -> None:
    """Every finished turnaround must agree to solver tolerance."""
    for a, b in zip(reference, candidate):
        for ra, rb in zip(a.apps, b.apps):
            if ra.turnaround_us is not None:
                assert abs(ra.turnaround_us - rb.turnaround_us) <= max(
                    1e-6 * ra.turnaround_us, 1e-3
                ), f"{label} changed {ra.name} turnaround"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", dest="set_name", default="A", choices=["A", "B", "C"])
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=0, help="0 = all cores")
    parser.add_argument(
        "--apps", type=str, default="Barnes,SP,CG,Raytrace",
        help="comma-separated application subset",
    )
    parser.add_argument("--out", type=str, default="BENCH_fig2.json")
    parser.add_argument(
        "--vector-cpus", type=int, default=256,
        help="machine size for the scaled-up pipeline gate",
    )
    parser.add_argument(
        "--vector-inst", type=int, default=32,
        help="instances of each scaled app (targets = 4*inst)",
    )
    parser.add_argument(
        "--vector-scale", type=float, default=0.05,
        help="work scale for the pipeline gate workload",
    )
    parser.add_argument(
        "--best-of", type=int, default=2,
        help="timing repetitions per pipeline (best wins)",
    )
    parser.add_argument(
        "--skip-vector", action="store_true",
        help="skip the scaled-up pipeline section entirely",
    )
    parser.add_argument(
        "--crossover", action="store_true",
        help="also measure the lane-count and CPU-count crossover tables",
    )
    args = parser.parse_args(argv)
    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    jobs = resolve_jobs(args.jobs)
    cpu_count = os.cpu_count() or 1
    affinity = usable_cpus()
    # On a 1-core (or fork-less, or affinity-restricted) box a timed
    # parallel run only measures oversubscription; still verify
    # bit-identity with 2 workers, but annotate the timing as meaningless.
    parallel_meaningful = affinity >= 2 and jobs > 1 and fork_available()
    parallel_jobs = jobs if parallel_meaningful else 2

    variants = {}
    base_results, variants["serial_cache_off"] = _run(
        args.set_name, _machine(cache=False), 1, args.scale, apps, args.seed
    )
    cached_results, variants["serial_cache_on"] = _run(
        args.set_name, _machine(cache=True), 1, args.scale, apps, args.seed
    )
    parallel_results, variants["parallel_chunked"] = _run(
        args.set_name, _machine(cache=True), parallel_jobs, args.scale, apps,
        args.seed,
    )
    if not parallel_meaningful:
        variants["parallel_chunked"]["timing_meaningful"] = False
        variants["parallel_chunked"]["note"] = (
            f"cpu_count={cpu_count}, usable (affinity) CPUs={affinity}, "
            f"jobs={jobs}, fork={fork_available()}: ran with 2 workers for "
            "the bit-identity gate only; wall clock measures "
            "oversubscription, not speedup"
        )

    # Correctness gates: chunked parallel must be exactly serial; the
    # cache may not move any turnaround beyond solver tolerance.
    assert parallel_results == cached_results, "parallel diverged from serial"
    _assert_within_tolerance(base_results, cached_results, "cache")

    pipeline_section = None
    entry_build_section = None
    if not args.skip_vector:
        pipeline_section = _pipeline_benchmark(
            args.vector_cpus, args.vector_inst, args.vector_scale,
            args.seed, args.best_of,
        )
        entry_build_section = _entry_build_benchmark(args.vector_cpus)
    multicore_section = _multicore_benchmark(
        args.vector_cpus, args.vector_inst, args.vector_scale, args.seed,
        jobs, cpu_count, affinity,
    )
    crossover_section = _crossover_benchmark(5) if args.crossover else None

    base = variants["serial_cache_off"]
    cached = variants["serial_cache_on"]
    par = variants["parallel_chunked"]
    report = {
        "experiment": f"fig2{args.set_name}",
        "apps": apps,
        "work_scale": args.scale,
        "seed": args.seed,
        "jobs": jobs,
        "cpu_count": cpu_count,
        "affinity_cpus": affinity,
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "variants": variants,
        "pipelines": pipeline_section,
        "entry_build": entry_build_section,
        "multicore": multicore_section,
        "crossover": crossover_section,
        "cache_step_reduction_pct": round(
            100.0 * (1.0 - cached["solver_steps"] / base["solver_steps"]), 1
        )
        if base["solver_steps"]
        else 0.0,
        "cache_speedup_serial": round(
            base["wall_clock_s"] / cached["wall_clock_s"], 2
        ),
        "parallel_speedup_vs_cached_serial": round(
            cached["wall_clock_s"] / par["wall_clock_s"], 2
        )
        if parallel_meaningful
        else None,
        "bit_identical_serial_parallel": True,
        "cache_within_tolerance": True,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"[bench] wrote {args.out}", file=sys.stderr)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
