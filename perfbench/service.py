"""The service workloads: a ``repro serve`` subprocess and one closed-loop client.

The client is one thread (never more than the machine's CPUs) that waits
for each reply before sending the next request, and alternates two
tenants. Every request is one small fig2-style cell (one paper app at
small scale next to one BBMA) under one of the three schedulers, so the
simulation is a small share and the codecs, ``spec_hash``, the sqlite
store, the fair queue and the HTTP layer dominate.

* ``service-cold``: each submission has a fresh seed, so it runs:
  POST (202), poll until ``done``, GET the result. This is the store's
  write path (create, mark_running, mark_done).
* ``service-hit``: each submission repeats a spec that already ran, so
  the cache serves it: POST (200, cached), GET the result. This is the
  store's read path (lookup, mark_cached, get_result).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench.tracing import (
    MARK_HEADER, PARENT_HEADER, POLL_HEADER, WAIT_HTTP, WAIT_POLL, Tracer,
)

CELL_APPS = ("CG", "SP", "Barnes", "Raytrace")
CELL_SCHEDULERS = ("linux", {"policy": "latest_quantum"}, {"policy": "quanta_window"})
TENANTS = ("tenant-a", "tenant-b")
#: Status poll interval: ``SimulationService.wait``'s default.
POLL_S = 0.02
#: Requests per run, at least, and per latency window: 10 of them lie
#: beyond the p95.
MIN_SAMPLES = 200
#: Rounds per wall window: ``wall_s`` is the median of the windows' mean
#: round walls, so a stall of the shared machine spoils a window, not the
#: figure. A round's wall leaves out the time the client slept between
#: polls: whether a run is done at the first poll turns on a race between
#: the server's threads, and each miss adds a whole poll interval.
ROUND_WINDOW = 10
#: Cold results per run checked against an in-process ``run_simulation``.
COLD_CHECKS = 3
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


def cell(app: str, scheduler: Any, seed: int) -> dict:
    """One small fig2-style cell (the service smoke test's shape)."""
    return {
        "targets": [{"app": app, "work_scale": 0.02}],
        "background": [{"microbench": "BBMA"}],
        "scheduler": scheduler,
        "max_time_us": 200_000,
        "seed": seed,
    }


def cells(seeds: list[int]) -> list[dict]:
    """One round: every app under every scheduler, one seed per cell."""
    grid = [(a, s) for a in CELL_APPS for s in CELL_SCHEDULERS]
    return [cell(a, s, seed) for (a, s), seed in zip(grid, seeds)]


ROUND = len(CELL_APPS) * len(CELL_SCHEDULERS)


def _header_name(environ_key: str) -> str:
    return environ_key[len("HTTP_"):].replace("_", "-").title()


class ServiceError(RuntimeError):
    """The service answered something the benchmark did not expect."""


@dataclass
class Server:
    """A running ``repro serve`` process."""

    proc: subprocess.Popen
    host: str
    port: int
    boot_s: float
    log_path: Path

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``)."""
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", text)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> int:
        """SIGINT (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        return self.proc.returncode


def placement() -> tuple[set[int] | None, set[int] | None]:
    """CPUs for the client and the server: one each when there are two.

    Left to the OS, the two land on one CPU in some runs and on two in
    others, and request latency differs by up to 2x between the cases.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


def _popen_on(cpus: set[int] | None, cmd: list[str], **kwargs: Any) -> subprocess.Popen:
    """Start ``cmd`` pinned to ``cpus``: a child inherits its parent's affinity."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus or own)
    try:
        return subprocess.Popen(cmd, **kwargs)
    finally:
        os.sched_setaffinity(0, own)


#: Requests to the reference server in one reading, and the reading's
#: wall at nominal speed (about its median on a 2.1 GHz Xeon vCPU pair).
REF_HTTP_REQUESTS = 10
REF_READING_S = 0.02


class SpeedProbe:
    """Reads how fast this machine serves a request right now.

    A request is part CPU work and part HTTP overhead (a connection, a
    server thread, wake-ups between two processes), and on a shared
    virtual machine both slow down, by different amounts. A reading is
    the wall time of a fixed mix of the two: :data:`REF_HTTP_REQUESTS`
    requests to a standard-library server (``perfbench/refserver.py``)
    placed like the service, then the reference loop on every usable CPU.
    """

    def __init__(self, root: Path, server_cpus: set[int] | None) -> None:
        self.cpus = os.sched_getaffinity(0) | (server_cpus or set())
        self.proc = _popen_on(server_cpus, [sys.executable, str(root / "perfbench" / "refserver.py")],
                              stdout=subprocess.PIPE, text=True)
        try:
            self.port = int(self.proc.stdout.readline())
        except BaseException:
            self.proc.kill()
            self.proc.wait(timeout=30)
            self.proc.stdout.close()
            raise

    def read(self) -> float:
        from perfbench.workloads import ref_time

        t0 = time.perf_counter()
        for _ in range(REF_HTTP_REQUESTS):
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
            try:
                conn.request("GET", "/")
                conn.getresponse().read()
            finally:
                conn.close()
        ref_time(self.cpus)
        return time.perf_counter() - t0

    @staticmethod
    def factor(*readings: float) -> float:
        """Scale that turns times measured now into times at nominal speed."""
        return REF_READING_S / statistics.mean(readings)

    def close(self) -> None:
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()


def boot_server(root: Path, run_dir: Path, tag: str, traced_dump: Path | None = None,
                run_id: str = "", cpus: set[int] | None = None) -> Server:
    """Start ``repro serve`` (default flags) on a fresh results dir.

    The port is ephemeral (``--port 0``) so runs never collide. Boot
    time runs from process launch until ``/v1/healthz`` answers 200.
    ``cpus`` pins the server (every thread it starts) to those CPUs.
    """
    results_dir = run_dir / f"results-{tag}"
    log_path = run_dir / f"server-{tag}.log"
    env = dict(os.environ)
    env.pop("REPRO_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    serve_args = ["serve", "--port", "0", "--results-dir", str(results_dir)]
    if traced_dump is None:
        cmd = [sys.executable, "-m", "repro", *serve_args]
    else:
        cmd = [sys.executable, str(root / "perfbench" / "traced_serve.py"),
               str(traced_dump), run_id, *serve_args]
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = _popen_on(cpus, cmd, stdout=log, stderr=log, env=env, cwd=root)
    try:
        deadline = t0 + BOOT_TIMEOUT_S
        address = None
        while address is None:
            if proc.poll() is not None:
                raise ServiceError(f"server exited during boot: {log_path.read_text()[-2000:]}")
            if time.monotonic() > deadline:
                raise ServiceError("server did not print its address in time")
            match = re.search(r"listening on http://([^:\s]+):(\d+)", log_path.read_text())
            if match:
                address = (match.group(1), int(match.group(2)))
            else:
                time.sleep(0.005)
        client = Client(*address)
        while True:
            try:
                status, body = client.call("GET", "/v1/healthz")
                if status == 200 and body.get("ok"):
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise ServiceError("server never answered /v1/healthz")
            time.sleep(0.005)
        boot_s = time.monotonic() - t0
    except BaseException:
        proc.kill()
        proc.wait(timeout=30)
        raise
    return Server(proc=proc, host=address[0], port=address[1], boot_s=boot_s, log_path=log_path)


class Client:
    """Blocking JSON-over-HTTP client; one connection per request."""

    def __init__(self, host: str, port: int, tracer: Tracer | None = None) -> None:
        self.host, self.port, self.tracer = host, port, tracer

    def call(self, method: str, path: str, body: dict | None = None,
             mark: str | None = None) -> tuple[int, dict]:
        """One request; traced clients time it as a wait on the server."""
        headers = {"Content-Type": "application/json"}
        if mark is not None:
            headers[_header_name(MARK_HEADER)] = mark
        if self.tracer is None:
            return self._send(method, path, body, headers)
        with self.tracer.span(WAIT_HTTP, "client.http") as span_id:
            headers[_header_name(PARENT_HEADER)] = span_id
            return self._send(method, path, body, headers)

    def poll(self, path: str) -> tuple[int, dict]:
        """A status poll: part of the poll phase, tagged for the server."""
        headers = {"Content-Type": "application/json", _header_name(POLL_HEADER): "1"}
        return self._send("GET", path, None, headers)

    def poll_phase(self):
        """Span of the time between a 202 and the run being done."""
        return nullcontext() if self.tracer is None else \
            self.tracer.span(WAIT_POLL, "client.poll_phase")

    def _send(self, method: str, path: str, body: dict | None,
              headers: dict) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()


@dataclass
class Served:
    """What the client saw for one submission."""

    spec: dict
    status: str
    latency_s: float
    result: dict | None
    error: str | None = None
    #: Part of ``latency_s`` the client slept between polls.
    slept_s: float = 0.0


def submit(client: Client, spec: dict, tenant: str, expect_cached: bool) -> Served:
    """One closed-loop submission, timed from POST to the result body."""
    t0 = time.perf_counter()
    slept = 0.0
    try:
        status, body = client.call("POST", "/v1/runs", {"spec": spec, "tenant": tenant})
        if expect_cached:
            if status != 200 or not body.get("cached"):
                raise ServiceError(f"expected a cache hit, got {status} {body}")
        elif status != 202:
            raise ServiceError(f"expected 202, got {status} {body}")
        run_id = body["run_id"]
        if not expect_cached:
            with client.poll_phase():
                while True:
                    status, record = client.poll(f"/v1/runs/{run_id}")
                    if status != 200:
                        raise ServiceError(f"poll {run_id}: {status} {record}")
                    if record["status"] == "done":
                        break
                    if record["status"] not in ("queued", "running"):
                        raise ServiceError(f"run {run_id} ended {record['status']}: {record}")
                    t_sleep = time.perf_counter()
                    time.sleep(POLL_S)
                    slept += time.perf_counter() - t_sleep
        status, body = client.call("GET", f"/v1/runs/{run_id}/result")
        if status != 200:
            raise ServiceError(f"result {run_id}: {status} {body}")
    except (ServiceError, OSError, KeyError, ValueError) as exc:
        return Served(spec, "failed", time.perf_counter() - t0, None, str(exc), slept)
    return Served(spec, "ok", time.perf_counter() - t0, body["result"], slept_s=slept)


@dataclass
class Traffic:
    """The seeded request streams of one run."""

    pool: list[dict]
    rng: random.Random
    next_seed: int

    @classmethod
    def from_seed(cls, seed: int) -> "Traffic":
        rng = random.Random(seed)
        base = rng.randrange(1, 2**30)
        return cls(pool=cells(list(range(base, base + ROUND))), rng=rng, next_seed=base + ROUND)

    def fresh_round(self) -> list[dict]:
        seeds = list(range(self.next_seed, self.next_seed + ROUND))
        self.next_seed += ROUND
        return cells(seeds)


class ServiceWorkload:
    """One service traffic mix (cold or hit)."""

    def __init__(self, name: str, cached: bool, why: str) -> None:
        self.name, self.cached, self.why = name, cached, why

    def warm(self, client: Client, traffic: Traffic) -> list[Served]:
        """Run the cache pool cold (untimed): warms the server, fills the cache."""
        return [submit(client, spec, TENANTS[i % 2], expect_cached=False)
                for i, spec in enumerate(traffic.pool)]

    def round(self, client: Client, traffic: Traffic) -> list[Served]:
        specs = traffic.pool if self.cached else traffic.fresh_round()
        return [submit(client, spec, TENANTS[i % 2], expect_cached=self.cached)
                for i, spec in enumerate(specs)]


SERVICE_WORKLOADS = {
    w.name: w for w in (
        ServiceWorkload(
            "service-cold", cached=False,
            why=("repro serve, one closed-loop client, two tenants, fresh seeds: "
                 "POST, poll, GET result through the store's write path"),
        ),
        ServiceWorkload(
            "service-hit", cached=True,
            why=("repro serve, one closed-loop client, two tenants, repeated specs: "
                 "cache-served POST and GET result through the store's read path"),
        ),
    )
}


def check_served(originals: list[Served], measured: list[Served], cached: bool,
                 rng: random.Random) -> list[str]:
    """The service oracle.

    Every hit decodes equal to the cold original of its spec; a sample
    of cold results equals an in-process ``run_simulation`` of the spec.
    """
    from repro.experiments.base import run_simulation
    from repro.service.schemas import result_from_dict, spec_from_dict

    failures = [f"{s.spec['targets'][0]['app']} seed {s.spec['seed']}: {s.error}"
                for s in originals + measured if s.status != "ok"]
    if failures:
        return failures
    decoded = {json.dumps(s.spec, sort_keys=True): result_from_dict(s.result) for s in originals}
    if cached:
        for s in measured:
            if result_from_dict(s.result) != decoded[json.dumps(s.spec, sort_keys=True)]:
                failures.append(f"hit for seed {s.spec['seed']} differs from its original")
    cold = originals + ([] if cached else measured)
    for s in rng.sample(cold, min(COLD_CHECKS, len(cold))):
        if result_from_dict(s.result) != run_simulation(spec_from_dict(s.spec)):
            failures.append(f"seed {s.spec['seed']}: served result != in-process run")
    return failures
