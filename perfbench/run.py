"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it finds the program in ``src/`` beside
``perfbench/``. The workloads, the metric names, units and directions,
and the regression bounds are declared in ``BENCHMARK.json`` at the repo
root. The seed makes every input; the default is 42, and seed 20031 is
kept back to confirm a claimed gain on inputs nobody tuned on.

``--trace 0`` measures the end-to-end metrics with no tracing. Each is
the median of the run's samples; the lines above the result give the
quartiles, the sample count and the same figures as measured.

Host times are reported at nominal machine speed. On a shared virtual
machine the CPU's speed drifts by tens of percent within seconds, which
no number of samples averages away. So every timed unit (or service
round) is scaled by ``REF_S / reference time``, where the reference is
a fixed pure-Python loop (``perfbench.workloads.ref_time``) timed on
every usable CPU before and after it and, in a simulation, as each spec
completes (see ``perfbench.workloads.measure_units``). A service
request is also scaled by how fast a bare standard-library HTTP server
answers at the time (``perfbench.service.SpeedProbe``); the time the
client sleeps between polls is not scaled. The program never runs
either reference, so a change to the program moves the scaled figures
as much as the measured ones.

``--trace 1`` runs the workload without and then with the tracer
(:mod:`perfbench.tracing`) and reports the per-layer metrics, the part of
the wall no layer covers (``unattributed_s``) and the tracing overhead.
Both modes print the machine facts, a digest of the simulated outputs
and exact solver counts, and check the outputs. The last line of
standard output is the JSON result; the exit code is 1 if any
correctness check failed and 2 if the program is not there to run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_setup(name: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to the workload's first timed call."""
    env = dict(os.environ)
    env.pop("REPRO_JOBS", None)
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, env=env, check=True,
    )
    return float(done.stdout.split()[-1]) - t0


def _setup_samples(measure, cpus: set[int] | None = None) -> tuple[list[float], list[float]]:
    """:data:`SETUP_SAMPLES` set-up times, at nominal speed and as measured.

    One factor scales them all: the median of reference readings taken
    around each, so a single reading's noise does not land on one sample.
    """
    from perfbench.workloads import REF_S, ref_time

    refs, raw = [ref_time(cpus)], []
    for _ in range(SETUP_SAMPLES):
        raw.append(measure())
        refs.append(ref_time(cpus))
    factor = REF_S / statistics.median(refs)
    return [x * factor for x in raw], raw


# --------------------------------------------------------------------------- simulations


SETUP_SAMPLES = 3


def measure_sim(workload, seed: int, seconds: float) -> dict:
    from perfbench.workloads import digest, measure_units, peak_rss_mb, percentile, run_counts

    setups, setups_raw = _setup_samples(lambda: _probe_setup(workload.name, seed))
    inputs = workload.prepare(seed)
    workload.warm(inputs)
    m = measure_units(workload, inputs, seconds)
    check = workload.check(m.outputs[0], [r for rs in m.unit_results for r in rs])
    if len({digest(rs) for rs in m.unit_results}) > 1:
        check.failures.append("repeated units of one seed gave different outputs")
    return {
        "metrics": {
            "wall_s": statistics.median(m.walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "p50_ms": percentile(m.latencies, 50) * 1e3,
        },
        "samples": {"wall_s": (m.walls, m.walls_raw), "setup_s": (setups, setups_raw),
                    "latency_ms": ([x * 1e3 for x in m.latencies],
                                   [x * 1e3 for x in m.latencies_raw])},
        "attempted": check.attempted,
        "failures": check.failures,
        "digest": digest(m.unit_results[0]),
        "counts": run_counts(m.unit_results[0]),
        "info": {**check.info, "p95_ms": percentile(m.latencies, 95) * 1e3},
    }


def trace_sim(workload, seed: int, seconds: float, run_dir: Path, facts: dict) -> dict:
    """Untraced units for the overhead baseline, then one traced unit."""
    from perfbench import tracing
    from perfbench.workloads import (
        ResultTap, digest, measure_units, ref_time, run_counts, speed_factor,
    )

    inputs = workload.prepare(seed)
    workload.warm(inputs)
    plain = measure_units(workload, inputs, seconds / 2)
    plain_results = plain.unit_results[0]

    dump_dir = run_dir / "worker-spans"
    dump_dir.mkdir()
    tracer = tracing.Tracer(run_id=f"{workload.name}-{seed}", dump_dir=str(dump_dir))
    before = ref_time()
    gc.collect()  # as before each untraced unit
    with ResultTap() as tap:
        installed = tracing.install(tracer)
        try:
            with tracer.span(tracing.ROOT, "workload"):
                output = workload.unit(inputs)
        finally:
            installed.uninstall()
        results = tap.take().results
    factor = speed_factor(before, ref_time())

    main = tracer.profile("main")
    workers, worker_spans = tracing.read_worker_dumps(str(dump_dir))
    merged = tracing.merge_profiles(main, workers)
    fanned = main["counts"].get("fanned_calls", 0)
    jobs = round(main["counts"].get("fanned_jobs", 0) / fanned) if fanned else 1
    partition = tracing.attribute(
        main["self_s"], [(tracing.WAIT_PARALLEL, [workers["self_s"]], jobs, "parallel.self_s")]
    )
    wall = main["incl_s"]["workload"]
    metrics = tracing.layer_metrics(
        partition, merged, wall,
        _trace_extra(wall, wall * factor / statistics.median(plain.walls) - 1.0,
                     installed.missing, facts),
    )
    check = workload.check(output, results)
    traced_digest, plain_digest = digest(results), digest(plain_results)
    if traced_digest != plain_digest:
        check.failures.append("traced and untraced outputs differ")
    _write_spans(workload.name, seed, tracer.spans() + worker_spans)
    return {
        "metrics": metrics,
        "attempted": check.attempted,
        "failures": check.failures,
        "digest": traced_digest,
        "untraced_digest": plain_digest,
        "counts": {**run_counts(results), **_sim_counts(merged)},
        "info": check.info,
    }


def _trace_extra(wall: float, overhead: float, missing: list[str], facts: dict) -> dict:
    """``overhead``: traced over untraced wall, both at nominal speed, minus one."""
    return {
        "trace.wall_s": wall,
        "trace.overhead_frac": overhead,
        "trace.missing_hooks": float(len(missing)),
        "parallel.ceiling": facts["pool_ceiling"],
    }


def _sim_counts(profile: dict) -> dict:
    """Exact engine-event and settle counts a traced run read off its runs."""
    return {name: profile["counts"].get(name, 0) for name in ("events", "settle_calls")}


def _write_spans(name: str, seed: int, spans: list[dict]) -> None:
    out = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
    out.write_text(json.dumps(spans))


# --------------------------------------------------------------------------- service


#: A service run stops measuring after this long even if it has fewer
#: than ``MIN_SAMPLES`` requests, so it always ends within its limit.
SERVICE_CAP_S = 120.0


def _served_results(served: list) -> list:
    from repro.service.schemas import result_from_dict
    return [result_from_dict(s.result) for s in served if s.status == "ok"]


def measure_service(workload, seed: int, seconds: float, run_dir: Path) -> dict:
    from perfbench.service import (
        MIN_SAMPLES, ROUND_WINDOW, Client, SpeedProbe, Traffic, boot_server, check_served,
        placement,
    )
    from perfbench.workloads import digest, run_counts, windowed, windowed_percentile

    servers = []
    walls, walls_raw, latencies, latencies_raw, served = [], [], [], [], []
    all_cpus = os.sched_getaffinity(0)
    client_cpus, server_cpus = placement()
    os.sched_setaffinity(0, client_cpus or all_cpus)
    probe = SpeedProbe(ROOT, server_cpus)
    try:
        def boot() -> float:
            if servers:
                servers[-1].stop()
            servers.append(boot_server(ROOT, run_dir, f"boot{len(servers)}", cpus=server_cpus))
            return servers[-1].boot_s

        setups, setups_raw = _setup_samples(boot, all_cpus)
        server = servers[-1]
        client = Client(server.host, server.port)
        traffic = Traffic.from_seed(seed)
        originals = workload.warm(client, traffic)
        reading = probe.read()
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            batch = workload.round(client, traffic)
            wall = time.perf_counter() - t0
            previous, reading = reading, probe.read()
            factor = probe.factor(previous, reading)
            # The client's sleeps between polls are not the service's time.
            wall -= sum(s.slept_s for s in batch)
            walls_raw.append(wall)
            walls.append(wall * factor)
            served.extend(batch)
            ok = [s for s in batch if s.status == "ok"]
            latencies_raw.extend(s.latency_s for s in ok)
            # A sleep does not run faster on a faster machine: it is not scaled.
            latencies.extend(s.slept_s + (s.latency_s - s.slept_s) * factor for s in ok)
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(served) >= MIN_SAMPLES) or elapsed > SERVICE_CAP_S:
                break
        rss = server.peak_rss_mb()
    finally:
        codes = [s.stop() for s in servers]
        probe.close()
        os.sched_setaffinity(0, all_cpus)
    failures = check_served(originals, served, workload.cached, traffic.rng)
    failures += [f"server exited with code {c}" for c in codes if c != 0]
    first_round = _served_results(served[: len(traffic.pool)])
    return {
        "metrics": {
            "wall_s": windowed(walls, ROUND_WINDOW, statistics.mean),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "p50_ms": windowed_percentile(latencies or [float("nan")], 50, MIN_SAMPLES) * 1e3,
        },
        "samples": {"wall_s": (walls, walls_raw),
                    "setup_s": (setups, setups_raw),
                    "latency_ms": ([x * 1e3 for x in latencies],
                                   [x * 1e3 for x in latencies_raw])},
        "attempted": len(originals) + len(served),
        "failures": failures,
        "digest": digest(first_round),
        "counts": run_counts(first_round),
        "info": {"p95_ms": windowed_percentile(latencies or [float("nan")], 95,
                                               MIN_SAMPLES) * 1e3},
    }


def trace_service(workload, seed: int, seconds: float, run_dir: Path, facts: dict) -> dict:
    from perfbench import tracing
    from perfbench.service import (
        Client, SpeedProbe, Traffic, boot_server, check_served, placement,
    )
    from perfbench.workloads import digest, run_counts

    all_cpus = os.sched_getaffinity(0)
    client_cpus, server_cpus = placement()

    def session(traced: bool, rounds: int | None):
        dump = run_dir / "server-trace.json"
        tracer = tracing.Tracer(run_id=f"{workload.name}-{seed}")
        server = boot_server(ROOT, run_dir, "traced" if traced else "plain",
                             traced_dump=dump if traced else None, run_id=tracer.run_id,
                             cpus=server_cpus)
        try:
            plain = Client(server.host, server.port)
            traffic = Traffic.from_seed(seed)
            originals = workload.warm(plain, traffic)
            client = Client(server.host, server.port, tracer if traced else None)
            if traced:
                plain.call("GET", "/v1/healthz", mark="begin")
            walls, served = [], []
            start = time.perf_counter()
            while True:
                before = probe.read()
                t0 = time.perf_counter()
                with tracer.span(tracing.ROOT, "workload"):
                    batch = workload.round(client, traffic)
                wall = time.perf_counter() - t0 - sum(s.slept_s for s in batch)
                served.extend(batch)
                walls.append(wall * probe.factor(before, probe.read()))
                if rounds is not None and len(walls) >= rounds:
                    break
                if rounds is None and time.perf_counter() - start >= seconds / 2:
                    break
            if traced:
                plain.call("GET", "/v1/healthz", mark="end")
        finally:
            code = server.stop()
        failures = check_served(originals, served, workload.cached, traffic.rng)
        if code != 0:
            failures.append(f"server exited with code {code}")
        payload = json.loads(dump.read_text()) if traced else None
        return tracer, walls, served, originals, failures, payload

    os.sched_setaffinity(0, client_cpus or all_cpus)
    probe = SpeedProbe(ROOT, server_cpus)
    try:
        _, walls_plain, served_plain, _, failures_plain, _ = session(False, None)
        tracer, walls, served, originals, failures, payload = session(True, len(walls_plain))
    finally:
        probe.close()
        os.sched_setaffinity(0, all_cpus)

    marks = payload["marks"]
    http = tracing.diff_profiles(marks["end"]["http"], marks["begin"]["http"])
    poll = tracing.diff_profiles(marks["end"]["poll"], marks["begin"]["poll"])
    dispatch = tracing.diff_profiles(marks["end"]["dispatch"], marks["begin"]["dispatch"])
    main = tracer.profile("main")
    # While the client polls, the run executing is what the result waits
    # for; the polls' own server work comes second, and the rest of the
    # poll phase is the client's HTTP stack and poll granularity.
    partition = tracing.attribute(main["self_s"], [
        (tracing.WAIT_HTTP, [http["self_s"]], 1, "service.api.transport_s"),
        (tracing.WAIT_POLL, [dispatch["self_s"], poll["self_s"]], 1,
         "service.api.transport_s"),
    ])
    wall = main["incl_s"]["workload"]
    extra = _trace_extra(wall, sum(walls) / sum(walls_plain) - 1.0, payload["missing"], facts)
    extra["service.jobs.execute_s"] = dispatch["incl_s"].get("run_many", 0.0)
    server = tracing.merge_profiles(http, poll, dispatch)
    metrics = tracing.layer_metrics(partition, server, wall, extra)
    traced_results, plain_results = _served_results(served), _served_results(served_plain)
    failures = failures_plain + failures
    if digest(traced_results) != digest(plain_results):
        failures.append("traced and untraced outputs differ")
    _write_spans(workload.name, seed, tracer.spans() + payload["spans"])
    return {
        "metrics": metrics,
        "attempted": len(originals) + len(served) + len(served_plain),
        "failures": failures,
        "digest": digest(traced_results),
        "untraced_digest": digest(plain_results),
        "counts": {**run_counts(traced_results), **_sim_counts(server)},
        "info": {},
    }


# --------------------------------------------------------------------------- main


def child_pids() -> list[int]:
    """Processes whose parent is this one, zombies included."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue  # it ended while we looked
        # The command name is in parentheses and may hold spaces.
        if int(text.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.append(int(stat.parent.name))
    return pids


def stop_children() -> list[int]:
    """Kill and wait for every child still there; returns their pids.

    Each process the benchmark starts is stopped and waited for where it
    is started; this is the last line of defence, so that no run can
    leave a process behind that a later run would share the machine with.
    """
    left = child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return left



def _report(name: str, args: argparse.Namespace, facts: dict, out: dict,
            declared: dict[str, dict]) -> dict:
    """Print the human-readable lines; return the final result object."""
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("facts " + json.dumps(facts, sort_keys=True))
    samples = out.get("samples", {})
    for metric, value in out["metrics"].items():
        unit = declared[metric]["unit"]
        line = f"  {metric:34s} {value:14.6f} {unit}"
        series = samples.get(metric) or (samples.get("latency_ms") if metric.endswith("_ms")
                                          else None)
        if series:
            from perfbench.workloads import summary
            norm, raw = summary(series[0]), summary(series[1])
            line += (f"   (n={norm['n']}, q1 {norm['q1']:.6g}, q3 {norm['q3']:.6g}; "
                     f"as measured: median {raw['median']:.6g}, "
                     f"q1 {raw['q1']:.6g}, q3 {raw['q3']:.6g})")
        print(line)
    print(f"digest {out['digest']}" + (f"  untraced {out['untraced_digest']}"
                                      if "untraced_digest" in out else ""))
    print("counts " + json.dumps(out["counts"], sort_keys=True))
    if out.get("info"):
        print("info " + json.dumps(out["info"], sort_keys=True))
    failures = out["failures"]
    print(f"failed_frac {len(failures) / max(out['attempted'], 1):.6f} "
          f"({len(failures)} of {out['attempted']})")
    for failure in failures:
        print(f"  FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": int(out["attempted"]),
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": declared[m]["unit"]}
                    for m, v in out["metrics"].items()},
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is not here ({ROOT / 'src' / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"error: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_JOBS", None)
    # A shell may start us with SIGINT ignored, and children inherit that;
    # with a handler installed here they get the default back, so the
    # service's graceful SIGINT drain works.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    declared_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in declared_file[section]}
    names = [w["name"] for w in declared_file["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(names)}",
              file=sys.stderr)
        return 2

    from perfbench.facts import machine_facts
    from perfbench.service import SERVICE_WORKLOADS
    from perfbench.workloads import SIM_WORKLOADS

    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        facts = machine_facts()
        if args.workload in SIM_WORKLOADS:
            workload = SIM_WORKLOADS[args.workload]
            out = (trace_sim(workload, args.seed, args.seconds, run_dir, facts) if args.trace
                   else measure_sim(workload, args.seed, args.seconds))
        else:
            workload = SERVICE_WORKLOADS[args.workload]
            out = (trace_service(workload, args.seed, args.seconds, run_dir, facts)
                   if args.trace else measure_service(workload, args.seed, args.seconds, run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        left = stop_children()
        if left:
            print(f"warning: stopped processes left running: {left}", file=sys.stderr)

    printed, expected = set(out["metrics"]), set(declared)
    if printed != expected:
        print(f"error: metrics {sorted(printed ^ expected)} are not both measured and "
              f"declared in BENCHMARK.json ({section})", file=sys.stderr)
        return 2
    result = _report(args.workload, args, facts, out, declared)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
