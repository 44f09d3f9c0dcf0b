"""The simulation workloads, their correctness oracles and shared helpers.

Each workload gets its inputs from the benchmark seed and runs with the
defaults a user gets: default ``MachineConfig``/``BusConfig``, default
policy constructors and the CLI's default ``jobs``, except where a
workload says otherwise. No solver mode or policy knob is pinned, so a
change of default shows in the numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import inspect
import json
import math
import os
import random
import resource
import statistics
import time
from typing import Any, Callable

from perfbench.tracing import Patcher, bind_run_many, wrap_function


# --------------------------------------------------------------------------- helpers


def _physics(obj: Any) -> Any:
    """What dataclass equality compares, as JSON-able data (floats exact)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [_physics(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.compare]
    if isinstance(obj, (list, tuple)):
        return [_physics(x) for x in obj]
    if isinstance(obj, dict):
        return [[str(k), _physics(v)] for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))]
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return repr(obj)


def digest(objs: Any) -> str:
    """Hash of the simulated outputs: equal digests mean equal physics."""
    blob = json.dumps(_physics(objs), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": len(ordered)}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed(values: list[float], window: int, stat: Callable[[list[float]], float]) -> float:
    """Median, over consecutive windows of ``window`` samples, of each window's ``stat``.

    A stall of the shared machine spoils a window or two, not the figure;
    a tail the program itself has shows in every window.
    """
    windows = [values[i:i + window] for i in range(0, len(values) - window + 1, window)]
    return statistics.median(stat(w) for w in windows or [values])


def windowed_percentile(values: list[float], q: float, window: int) -> float:
    """:func:`windowed` of the nearest-rank percentile ``q``."""
    return windowed(values, window, lambda w: percentile(w, q))


#: The reference loop (iterations of :func:`perfbench.facts.spin`) and its
#: time at nominal speed, about its median on a 2.1 GHz Xeon vCPU.
REF_LOOP = 60_000
REF_S = 0.005


def ref_time(cpus: set[int] | None = None) -> float:
    """CPU seconds the reference loop takes right now.

    The loop's own CPU time, not its wall, is read: it measures how fast
    the CPU runs, whether or not the loop shares the CPU with other work.
    With ``cpus`` the loop runs once pinned to each and the times are
    averaged: the CPUs of a shared virtual machine slow down
    independently, and a workload spread over several processes runs on
    all of them. Without, it runs wherever this process is running.
    """
    from perfbench.facts import spin

    def once() -> float:
        t0 = time.thread_time()
        spin(REF_LOOP)
        return time.thread_time() - t0

    if not cpus:
        return once()
    own = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(once())
    finally:
        os.sched_setaffinity(0, own)
    return statistics.mean(times)


#: Reference readings averaged into each reading taken around a unit.
BRACKET_READINGS = 5


def bracket_time(cpus: set[int]) -> float:
    """Mean of :data:`BRACKET_READINGS` reference loops on every CPU in ``cpus``."""
    return statistics.mean(ref_time(cpus) for _ in range(BRACKET_READINGS))


def speed_factor(*ref_times: float) -> float:
    """Scale that turns seconds measured now into seconds at nominal speed."""
    return REF_S / statistics.mean(ref_times)


@dataclasses.dataclass
class Tapped:
    """What a :class:`ResultTap` saw since it was last emptied."""

    results: list[Any]  # in spec order
    walls: list[float]  # per spec, in spec order, as ``on_result`` reported them
    refs: list[float]  # reference readings, in completion order (``calibrate``)
    hook_s: float  # wall time spent taking those readings
    serial: bool  # every ``run_many`` call ran its specs in this process


class ResultTap:
    """Sees every ``run_many`` result and spec wall through its ``on_result`` hook.

    The hook is the program's public per-spec callback, run in the
    caller's process; it costs an append per spec, so the untraced runs
    use it too. With ``calibrate`` the hook also times the reference loop
    (:func:`ref_time`) as each spec completes, so the speed of the CPU
    can be read while the specs run.
    """

    def __init__(self, calibrate: bool = False) -> None:
        self.calibrate = calibrate
        self._patcher = Patcher()
        self._reset()

    def _reset(self) -> None:
        self.results: list[tuple[int, Any, float]] = []
        self.refs: list[float] = []
        self.hook_s = 0.0
        self.serial = True

    def __enter__(self) -> "ResultTap":
        wrap_function(self._patcher, "repro.parallel", "run_many", self._wrap)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patcher.restore()

    def _wrap(self, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def run_many(*args, **kwargs):
            base = len(self.results)

            def hook(index, result, wall_s):
                self.results.append((base + index, result, wall_s))
                if self.calibrate:
                    t0 = time.perf_counter()
                    self.refs.append(ref_time())
                    self.hook_s += time.perf_counter() - t0

            bound, jobs = bind_run_many(signature, args, kwargs, hook)
            self.serial = self.serial and jobs == 1
            return fn(*bound.args, **bound.kwargs)

        return run_many

    def take(self) -> Tapped:
        """What the tap saw; empties it."""
        ordered = sorted(self.results, key=lambda r: r[0])
        tapped = Tapped([r[1] for r in ordered], [r[2] for r in ordered],
                        self.refs, self.hook_s, self.serial)
        self._reset()
        return tapped


def run_counts(results: list[Any]) -> dict[str, int]:
    """Exact solver counts a run reports on its result."""
    return {
        "runs": len(results),
        "bus_solve_calls": sum(r.bus_solve_calls for r in results),
        "solve_skips": sum(r.solve_skips for r in results),
        "lane_rebuilds": sum(r.lane_rebuilds for r in results),
        "context_switches": sum(r.context_switches for r in results),
    }


@dataclasses.dataclass
class Check:
    """Outcome of a workload's correctness oracle."""

    attempted: int
    failures: list[str]
    info: dict[str, Any] = dataclasses.field(default_factory=dict)


# --------------------------------------------------------------------------- workloads


class SimWorkload:
    """An in-process simulation workload: ``unit`` is the timed grid."""

    name = ""
    why = ""

    def prepare(self, seed: int) -> Any:
        """Import what the unit needs and build its inputs (untimed)."""
        raise NotImplementedError

    def warm(self, inputs: Any) -> None:
        """A small untimed run so lazy set-up is done before timing."""

    def unit(self, inputs: Any) -> Any:
        raise NotImplementedError

    def check(self, output: Any, results: list[Any]) -> Check:
        raise NotImplementedError


class Fig2Paper(SimWorkload):
    """The paper's Figure 2: sets A, B and C, serial, paper work scale."""

    name = "fig2-paper"
    why = ("the paper's own Figure 2 grid (3 sets x 11 apps x 3 schedulers) "
           "on the 4-CPU machine: narrow bus solves, settle, cache and Linux model")

    def prepare(self, seed: int) -> int:
        import repro.experiments.fig2  # noqa: F401
        return seed

    def warm(self, seed: int) -> None:
        from repro.experiments.fig2 import run_fig2
        run_fig2("A", seed=seed, work_scale=0.02, apps=["CG"])

    def unit(self, seed: int) -> dict:
        from repro.experiments.fig2 import run_fig2
        return {s: run_fig2(s, seed=seed) for s in ("A", "B", "C")}

    def check(self, rows: dict, results: list[Any]) -> Check:
        failures = []
        for set_name, set_rows in rows.items():
            for row in set_rows:
                values = [row.linux_turnaround_us] + [c.turnaround_us for c in row.cells]
                if not all(math.isfinite(v) for v in values):
                    failures.append(f"{set_name}/{row.name}: non-finite turnaround")
        claims = fig2_claims(rows)
        for claim in claims:
            if claim.verdict == "MISS":
                failures.append(f"{claim.claim.claim_id} scores MISS ({claim.measured:.2f})")
        per_set = [c for c in claims if c.claim.claim_id != "F2-overall"]
        err = sum(abs(c.measured - c.claim.paper_value) for c in per_set) / len(per_set)
        return Check(
            attempted=len(results) + len(claims),
            failures=failures,
            info={"paper_err_pp": err,
                  "claims": {c.claim.claim_id: c.verdict for c in claims}},
        )


def fig2_claims(rows: dict) -> list[Any]:
    """Score the Figure 2 claims of ``repro validate`` on already-run rows.

    The claims and their bands live in ``repro.experiments.validation``;
    its experiment runners are swapped for ones that return ``rows`` (and
    neutral stand-ins for the calibration and Figure 1 inputs, whose
    claims are dropped) so the paper values are read from one place.
    """
    import repro.experiments.validation as validation

    class _Any(dict):
        def __missing__(self, key: str) -> float:
            return 1.0

    class _Stand:
        stream_rate_txus = bbma_rate_txus = 1.0
        solo_rates_txus = _Any()
        slowdowns = _Any()

        def __init__(self, name: str = "") -> None:
            self.name = name

    from repro.workloads.suites import PAPER_APPS

    patcher = Patcher()
    patcher.set(validation, "run_calibration", lambda **kw: _Stand())
    patcher.set(validation, "run_fig1", lambda **kw: [_Stand(n) for n in PAPER_APPS])
    patcher.set(validation, "run_fig2", lambda set_name, **kw: rows[set_name])
    try:
        scored = validation.run_validation()
    finally:
        patcher.restore()
    return [c for c in scored if c.claim.claim_id.startswith("F2")]


class Smp256(SimWorkload):
    """The 256-CPU scaled workload of ``benchmarks/bench_perf.py``.

    One unit runs the spec at :data:`SEEDS` seeds drawn from the run seed,
    serially through ``run_many``: a single seed moves this workload's
    cost by up to 15%, and even the mean of four seeds still moves it by
    about 10% (bus solves 777 to 868 over run seeds 1 to 5). The warm-up runs
    one seed at :data:`WARM_SCALE`, which builds the same 256-CPU machine.
    """

    name = "smp-256"
    why = ("256 CPUs, bus x64, 128 targets + 128 microbenchmarks under Quanta "
           "Window: wide bus solves, little memo reuse, selection over 256 jobs")

    N_CPUS = 256
    INSTANCES = 32
    WORK_SCALE = 0.05
    WARM_SCALE = 0.005
    APPS = ("Barnes", "SP", "CG", "Raytrace")
    SEEDS = 16

    def prepare(self, seed: int) -> Callable[..., list]:
        from repro.config import BusConfig, LinuxSchedConfig, MachineConfig, ManagerConfig
        from repro.experiments.base import SimulationSpec
        from repro.experiments.fig2 import default_policies
        from repro.workloads.microbench import bbma_spec, nbbma_spec
        from repro.workloads.suites import PAPER_APPS

        machine = MachineConfig(
            n_cpus=self.N_CPUS,
            bus=BusConfig(capacity_txus=BusConfig().capacity_txus * (self.N_CPUS / 4.0)),
        )
        background = [bbma_spec() for _ in range(3 * self.INSTANCES)]
        background += [nbbma_spec() for _ in range(self.INSTANCES)]
        rng = random.Random(seed)
        seeds = [rng.randrange(2**31) for _ in range(self.SEEDS)]

        def make_specs(work_scale: float = self.WORK_SCALE, n_seeds: int = self.SEEDS):
            targets = []
            for name in self.APPS:
                targets.extend([PAPER_APPS[name].scaled(work_scale)] * self.INSTANCES)
            # Fresh policies per unit: estimator state never crosses runs.
            return [
                SimulationSpec(
                    targets=targets,
                    background=background,
                    scheduler=default_policies(ManagerConfig())[1],
                    machine=machine,
                    manager=ManagerConfig(),
                    linux=LinuxSchedConfig(),
                    seed=s,
                )
                for s in seeds[:n_seeds]
            ]

        return make_specs

    def warm(self, make_specs: Callable[..., list]) -> None:
        from repro.parallel import run_many
        run_many(make_specs(self.WARM_SCALE, 1))

    def unit(self, make_specs: Callable[..., list]) -> list:
        from repro.parallel import run_many
        return run_many(make_specs())

    def check(self, output: list, results: list[Any]) -> Check:
        failures = []
        for res in results:
            for app in res.targets():
                if app.turnaround_us is None or not math.isfinite(app.turnaround_us):
                    failures.append(f"target {app.name}#{app.app_id} did not finish")
        return Check(attempted=len(results), failures=failures)


class Dyn1Sweep(SimWorkload):
    """The CLI's default DYN-1 open-system sweep on every usable core."""

    name = "dyn1-sweep"
    why = ("DYN-1 sweep (3 policies x 3 rates x 3 seeds, 24 jobs each) through "
           "run_many on all cores: parallel dispatch, job churn, queueing metrics")

    def prepare(self, seed: int) -> int:
        import repro.experiments.dynamic  # noqa: F401
        return seed

    def warm(self, seed: int) -> None:
        from repro.experiments.dynamic import run_dynamic_sweep
        run_dynamic_sweep(policies=["linux"], rates_per_s=[2.0], n_jobs=2,
                          replications=1, work_scale=0.05, seed=seed, jobs=1)

    def unit(self, seed: int) -> list:
        from repro.experiments.dynamic import run_dynamic_sweep
        # jobs=0 is the CLI's "all cores": the effective CPU budget.
        return run_dynamic_sweep(seed=seed, jobs=0)

    def check(self, rows: list, results: list[Any]) -> Check:
        failures = [f"{r.policy}@{r.rate_per_s}: starvation bound broken"
                    for r in rows if not r.starvation_ok]
        for i, res in enumerate(results):
            stats = res.dynamic
            if stats is None or stats.n_completed != len(stats.jobs) or stats.dropped:
                failures.append(f"run {i}: not every scheduled job completed")
        return Check(attempted=len(results) + len(rows), failures=failures)


SIM_WORKLOADS: dict[str, SimWorkload] = {
    w.name: w for w in (Fig2Paper(), Smp256(), Dyn1Sweep())
}


@dataclasses.dataclass
class Measured:
    """Samples of one untraced run; ``*_raw`` as measured, the rest at nominal speed."""

    walls: list[float]
    walls_raw: list[float]
    latencies: list[float]
    latencies_raw: list[float]
    outputs: list[Any]
    unit_results: list[list[Any]]


def measure_units(workload: SimWorkload, inputs: Any, seconds: float) -> Measured:
    """Run the unit until ``seconds`` are used (at least once).

    Every sample is scaled to nominal speed (:data:`REF_S`) by the mean
    of the unit's reference readings: on every usable CPU before and
    after the unit (:func:`bracket_time`, outside the timed region), and
    in this process as each spec completes (:class:`ResultTap`). When the
    specs run serially, the readings in between are taken off the unit's
    wall. When they run in worker processes, the readings share a CPU
    with a worker and can delay the unit by up to about 1% (5 ms per spec
    over two CPUs), which stays in the wall.
    Latencies are the per-spec walls ``run_many`` reports to
    ``on_result``, one per distinct spec.
    """
    m = Measured([], [], [], [], [], [])
    cpus = os.sched_getaffinity(0)
    start = time.perf_counter()
    with ResultTap(calibrate=True) as tap:
        before = bracket_time(cpus)
        while True:
            # Every unit starts from a collected heap, so the collector's
            # passes fall at the same points in each unit.
            gc.collect()
            t0 = time.perf_counter()
            out = workload.unit(inputs)
            wall = time.perf_counter() - t0
            after = bracket_time(cpus)
            tapped = tap.take()
            walls = tapped.walls
            if not walls:
                raise RuntimeError(f"{workload.name}: run_many reported no results")
            if tapped.serial:
                wall -= tapped.hook_s
            factor = speed_factor(before, *tapped.refs, after)
            m.walls_raw.append(wall)
            m.walls.append(wall * factor)
            m.latencies_raw.append(walls)
            m.latencies.append([w * factor for w in walls])
            m.outputs.append(out)
            m.unit_results.append(tapped.results)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(m.walls_raw) > seconds:
                break
            before = after
    # Every unit runs the same specs in the same order: a spec's latency is
    # the median of its repeats, so repeating a unit adds no tail of its own.
    m.latencies = [statistics.median(xs) for xs in zip(*m.latencies)]
    m.latencies_raw = [statistics.median(xs) for xs in zip(*m.latencies_raw)]
    return m
