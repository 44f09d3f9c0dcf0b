"""Tests of the benchmark itself.

Run from the repo root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402
from perfbench.service import SERVICE_WORKLOADS, SpeedProbe, placement  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SIM_WORKLOADS, ResultTap, windowed_percentile,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _small_fig2() -> None:
    from repro.experiments.fig2 import run_fig2
    run_fig2("A", seed=3, work_scale=0.02, apps=["CG", "SP"])


def _traced(fn, dump_dir: Path | None = None):
    tracer = tracing.Tracer("test", dump_dir=str(dump_dir) if dump_dir else None)
    installed = tracing.install(tracer)
    try:
        with tracer.span(tracing.ROOT, "workload"):
            fn()
    finally:
        installed.uninstall()
    return tracer, installed


# --------------------------------------------------------------------------- attribution


def test_attribute_hands_waits_to_remote_work():
    critical = {tracing.ROOT: 1.0, "a": 2.0, "wait": 4.0}
    # Two workers were busy 6 s in total during a 4 s wait: at most half
    # of each worker-second lands on the wall, and 1 s of the wait is idle.
    out = tracing.attribute(critical, [("wait", [{"b": 6.0}], 2, "idle")])
    assert out == {tracing.ROOT: 1.0, "a": 2.0, "b": 3.0, "idle": 1.0}
    # Priority order: the first remote fills the wait before the second.
    out = tracing.attribute({"wait": 5.0}, [("wait", [{"x": 4.0}, {"y": 4.0}], 1, "rest")])
    assert out == {"x": 4.0, "y": 1.0, "rest": 0.0}


def _partition_sum(metrics: dict) -> float:
    return sum(metrics[name] for name in tracing.PARTITION) + metrics[tracing.ROOT]


def test_serial_layer_self_times_sum_to_traced_wall():
    tracer, installed = _traced(_small_fig2)
    assert installed.missing == []
    main = tracer.profile("main")
    wall = main["incl_s"]["workload"]
    metrics = tracing.layer_metrics(tracing.attribute(main["self_s"], []), main, wall, {})
    assert _partition_sum(metrics) == pytest.approx(wall, rel=1e-9)
    assert metrics["sim.engine.events"] > 0 and metrics["run.count"] == 6
    assert metrics["hw.bus.solve_s"] > 0 and metrics["sched.linux.hook_s"] > 0
    assert 0 <= metrics["unattributed_frac"] < 0.05


def test_parallel_layer_self_times_sum_to_traced_wall(tmp_path):
    from repro.experiments.fig2 import run_fig2

    tracer, _ = _traced(lambda: run_fig2("B", seed=5, work_scale=0.02, apps=["CG", "SP"],
                                         jobs=2), tmp_path)
    main = tracer.profile("main")
    workers, _ = tracing.read_worker_dumps(str(tmp_path))
    wall = main["incl_s"]["workload"]
    partition = tracing.attribute(
        main["self_s"], [(tracing.WAIT_PARALLEL, [workers["self_s"]], 2, "parallel.self_s")])
    metrics = tracing.layer_metrics(partition, tracing.merge_profiles(main, workers), wall, {})
    assert _partition_sum(metrics) == pytest.approx(wall, rel=1e-9)
    assert metrics["run.count"] == 6, "every worker task's runs are in the dumps"
    assert metrics["sim.engine.self_s"] > 0


# --------------------------------------------------------------------------- speed scaling


def test_windowed_percentile_ignores_a_stalled_window():
    calm = [1.0] * 200
    stalled = [1.0] * 150 + [9.0] * 50
    assert windowed_percentile(calm + stalled + calm, 95, 200) == 1.0
    assert windowed_percentile([3.0, 1.0, 2.0], 50, 200) == 2.0


def test_speed_probe_reads_the_reference_mix_and_stops_its_server():
    _, server_cpus = placement()
    probe = SpeedProbe(ROOT, server_cpus)
    try:
        first, second = probe.read(), probe.read()
    finally:
        probe.close()
    assert probe.proc.returncode is not None
    assert first > 0 and second > 0
    assert probe.factor(first, second) > 0


def test_pool_ceiling_leaves_no_process_behind():
    from perfbench.facts import pool_ceiling
    from perfbench.run import child_pids

    assert pool_ceiling(2) > 0
    assert child_pids() == []


# --------------------------------------------------------------------------- wrappers


def _bindings() -> dict:
    """Every attribute a target names, wherever a repro module binds it."""
    found = {}
    for target in tracing.TARGETS:
        module = importlib.import_module(target.module)
        if "." in target.path:
            cls_name, meth = target.path.split(".")
            cls = getattr(module, cls_name)
            owners = [cls, *cls.__subclasses__()] if target.subclasses else [cls]
            for owner in owners:
                found[(owner, meth)] = owner.__dict__.get(meth)
        else:
            original = getattr(module, target.path)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro"):
                    for attr, value in vars(mod).items():
                        if value is original:
                            found[(mod, attr)] = value
    return found


def test_wrappers_are_removed_after_a_workload():
    importlib.import_module("repro.service.api")
    before = _bindings()
    tracer = tracing.Tracer("test")
    installed = tracing.install(tracer)
    try:
        assert any(vars(owner).get(name) is not value for (owner, name), value in before.items())
    finally:
        installed.uninstall()
    with ResultTap():
        pass
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    # A later workload runs with nothing recorded.
    _small_fig2()
    assert tracer.profile()["calls"] == {}


# --------------------------------------------------------------------------- declarations


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    # A full schedule (4 runs plus 22 per workload) must finish within
    # 3420 s; a run spends about 6 s beyond --seconds on set-up probes,
    # warm-up and checks.
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert runs * (BENCHMARK["run_seconds"] + 6) < 3420
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert all(NAME.match(n) for n in names)
    for key in ("end_to_end", "per_layer"):
        assert len({m["name"] for m in BENCHMARK[key]}) == len(BENCHMARK[key])
        for m in BENCHMARK[key]:
            assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_workload_rationale_is_recorded():
    registered = {**SIM_WORKLOADS, **SERVICE_WORKLOADS}
    declared = {w["name"]: w for w in BENCHMARK["workloads"]}
    assert declared.keys() == registered.keys()
    for name, entry in declared.items():
        assert set(entry) == {"name", "why"}
        assert entry["why"] == registered[name].why
        assert "\n" not in entry["why"] and 0 < len(entry["why"]) <= 200


def test_per_layer_metrics_are_declared_with_units():
    metrics = tracing.layer_metrics({}, tracing.merge_profiles(), 1.0, {
        "trace.wall_s": 1.0, "trace.overhead_frac": 0.0, "trace.missing_hooks": 0.0,
        "parallel.ceiling": 1.0, "service.jobs.execute_s": 0.0})
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_printed_metrics_are_declared_and_outputs_checked():
    done = _run("--workload", "smp-256", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert "left running" not in done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())

    done = _run("--workload", "smp-256", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    assert "left running" not in done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert _partition_sum(values) == pytest.approx(values["trace.wall_s"], rel=1e-6)
    digest_line = next(line for line in lines if line.startswith("digest "))
    _, traced, _, untraced = digest_line.split()
    assert traced == untraced


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "fig2-paper", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
