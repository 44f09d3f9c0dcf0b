"""Run-time span tracing for the benchmark's traced runs.

The program carries no tracing code. A traced run wraps the public
functions of each layer at run time (:func:`install`), keeps what it
measures in memory, and puts every original back afterwards
(:meth:`Installed.uninstall`).

Every wrapped call pushes a frame on its thread's stack. When it returns,
its *self time* (its duration minus the time of wrapped calls made inside
it) is added to the call's bucket. A bucket is a per-layer metric name
such as ``hw.bus.solve_s``. Coarse calls (a simulation run, a grid, a
``run_many`` batch, an HTTP request) also leave a span record with a
name, start, end, span id, parent span id and the run id. Hot calls
(bus solves, settles, scheduler hooks) are only aggregated: a span per
call would cost more than the call.

Because every instant of the root span on the thread that measures the
wall is in exactly one frame, the self times on that thread add up to
the wall. Work done on other threads or processes while that thread
waits (``run_many`` worker processes, the service's request and
dispatcher threads) is charged to the wait by :func:`attribute`. That
keeps the sum equal to the wall. Whatever no layer claims is reported
as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Bucket of the workload's root span: time inside the root that no
#: wrapped layer call covers.
ROOT = "unattributed_s"

#: Buckets of waits on the measuring thread, charged by :func:`attribute`.
WAIT_PARALLEL = "wait.run_many"
WAIT_HTTP = "wait.http"
WAIT_POLL = "wait.poll"

#: Thread name of the service's dispatcher (``repro.service.jobs``).
DISPATCH_THREAD = "repro-service-dispatch"

#: What a thread's work is for: the benchmark's own thread, a server
#: thread answering a submit or result request, one answering a status
#: poll, or the service's dispatcher.
ROLES = ("main", "http", "poll", "dispatch")

#: Self-time buckets. Together with :data:`ROOT` they partition a traced
#: workload's wall.
PARTITION = (
    "sim.engine.self_s",
    "hw.machine.advance_s",
    "hw.machine.horizon_s",
    "hw.machine.dispatch_s",
    "hw.bus.solve_s",
    "hw.cache.account_s",
    "hw.counters.credit_s",
    "hw.counters.read_s",
    "sched.linux.hook_s",
    "core.policies.select_s",
    "core.policies.on_sample_s",
    "core.manager.publish_s",
    "core.manager.signal_s",
    "core.manager.tick_s",
    "dynamic.driver_s",
    "metrics.collect_s",
    "metrics.summarize_s",
    "run.build_s",
    "experiments.grid_s",
    "parallel.self_s",
    "service.schemas.parse_s",
    "service.schemas.hash_s",
    "service.schemas.encode_s",
    "service.schemas.decode_s",
    "service.store.write_s",
    "service.store.read_s",
    "service.jobs.self_s",
    "service.api.server_s",
    "service.api.transport_s",
)


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``path`` is ``func`` or ``Class.method``."""

    module: str
    path: str
    bucket: str | None
    span: bool = False
    after: str | None = None
    subclasses: bool = False


def _methods(module: str, cls: str, names: str, bucket: str, **kw: Any) -> list[Target]:
    return [Target(module, f"{cls}.{n}", bucket, **kw) for n in names.split()]


_STORE_WRITES = ("create", "mark_running", "mark_done", "mark_cached", "mark_failed",
                 "mark_cancelled", "mark_quarantined", "requeue")
_STORE_READS = ("get", "get_result", "get_audit", "lookup_cached", "list_runs", "counts",
                "wall_time_stats")


#: Every wrapped call. A later change that renames one of these makes the
#: install skip it and count it in ``trace.missing_hooks``; the run goes on.
TARGETS: tuple[Target, ...] = (
    Target("repro.sim.engine", "Engine.run", "sim.engine.self_s", span=True),
    Target("repro.hw.machine", "Machine.advance_to", "hw.machine.advance_s"),
    Target("repro.hw.machine", "Machine.horizon", "hw.machine.horizon_s"),
    *_methods("repro.hw.machine", "Machine", "dispatch set_blocked set_stalled",
              "hw.machine.dispatch_s"),
    Target("repro.hw.bus", "BusModel.solve", "hw.bus.solve_s", after="lanes"),
    *_methods("repro.hw.cache", "CacheL2", "account_run account_run_fast warmth",
              "hw.cache.account_s"),
    *_methods("repro.hw.counters", "CounterBank", "credit credit_run credit_rows",
              "hw.counters.credit_s"),
    *_methods("repro.hw.counters", "CounterBank", "read read_many read_rows",
              "hw.counters.read_s"),
    # ``_tick`` is the kernel model's timer callback: the engine calls it.
    *_methods("repro.sched.linux", "LinuxScheduler",
              "start goodness on_thread_exit on_block_change on_io_change "
              "on_new_threads _tick", "sched.linux.hook_s"),
    Target("repro.core.policies", "BandwidthPolicy.select", "core.policies.select_s",
           after="jobs", subclasses=True),
    Target("repro.core.policies", "BandwidthPolicy.on_sample", "core.policies.on_sample_s",
           subclasses=True),
    Target("repro.core.arena", "AppDescriptor.publish", "core.manager.publish_s"),
    *_methods("repro.core.signals", "SignalDispatcher", "send_block send_unblock",
              "core.manager.signal_s", after="signals"),
    # The manager's two timer callbacks (sampling and quantum boundary).
    *_methods("repro.core.manager", "CpuManager", "_sample_tick _quantum_boundary",
              "core.manager.tick_s"),
    *_methods("repro.dynamic.driver", "OpenSystemDriver", "start stats", "dynamic.driver_s"),
    Target("repro.metrics.accounting", "collect_run_result", "metrics.collect_s", span=True),
    Target("repro.metrics.queueing", "summarize_queueing", "metrics.summarize_s", span=True),
    Target("repro.experiments.base", "run_simulation", "run.build_s", span=True),
    Target("repro.experiments.base", "run_simulation_with_handle", "run.build_s",
           after="run"),
    Target("repro.experiments.fig2", "run_fig2", "experiments.grid_s", span=True),
    Target("repro.experiments.dynamic", "run_dynamic_sweep", "experiments.grid_s",
           span=True),
    Target("repro.parallel", "run_many", "parallel.self_s", span=True),
    Target("repro.parallel", "_execute_chunk", "parallel.self_s"),
    Target("repro.parallel", "_execute", "parallel.self_s", after="execution"),
    Target("repro.service.schemas", "parse_submit_request", "service.schemas.parse_s"),
    Target("repro.experiments.base", "SimulationSpec.spec_hash", "service.schemas.hash_s"),
    Target("repro.service.schemas", "result_to_dict", "service.schemas.encode_s"),
    Target("repro.service.schemas", "spec_to_dict", "service.schemas.encode_s"),
    Target("repro.service.schemas", "result_from_dict", "service.schemas.decode_s"),
    *_methods("repro.service.store", "ResultStore", " ".join(_STORE_WRITES),
              "service.store.write_s"),
    *_methods("repro.service.store", "ResultStore", " ".join(_STORE_READS),
              "service.store.read_s"),
    *_methods("repro.service.jobs", "SimulationService", "submit submit_request poll result",
              "service.jobs.self_s"),
    Target("repro.service.jobs", "FairQueue.offer", "service.jobs.self_s", after="offer"),
    # Blocks while the queue is empty, so it is never timed: the hook only
    # reads how long each taken job waited.
    Target("repro.service.jobs", "FairQueue.take_batch", None, after="take"),
    Target("repro.service.api", "create_wsgi_app", None),
)


class _Agg:
    """One thread's frame stack, aggregates and span records."""

    __slots__ = ("stack", "self_s", "incl_s", "calls", "counts", "spans", "role", "parent")

    def __init__(self, role: str) -> None:
        self.stack: list[list] = []
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.role = role
        self.parent: str | None = None


def _add(d: dict, key: str, value: float) -> None:
    d[key] = d.get(key, 0) + value


class Tracer:
    """Per-process span and self-time recorder (one per traced workload run).

    ``dump_dir`` is where forked ``run_many`` workers write what they
    recorded when each of their tasks ends.
    """

    def __init__(self, run_id: str, dump_dir: str | None = None) -> None:
        self.run_id = run_id
        self.dump_dir = dump_dir
        self._lock = threading.Lock()
        self._dumps = itertools.count(1)
        self._owner_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._aggs: list[_Agg] = []
        self._ids = itertools.count(1)
        self.offer_t: dict[str, float] = {}
        self.marks: dict[str, dict] = {}

    def agg(self) -> _Agg:
        """The calling thread's aggregate, created on first use."""
        try:
            return self._local.agg
        except AttributeError:
            thread = threading.current_thread()
            if thread.name == DISPATCH_THREAD:
                role = "dispatch"
            elif thread is threading.main_thread():
                role = "main"
            else:
                role = "http"
            agg = _Agg(role)
            with self._lock:
                self._aggs.append(agg)
            self._local.agg = agg
            return agg

    # -- frames ---------------------------------------------------------------

    def _enter(self, span: bool) -> tuple[_Agg, list, float]:
        agg = self.agg()
        stack = agg.stack
        anc = (stack[-1][1] or stack[-1][2]) if stack else agg.parent
        frame = [0.0, f"{self.pid}:{next(self._ids)}" if span else None, anc]
        stack.append(frame)
        return agg, frame, time.perf_counter()

    @staticmethod
    def _exit(agg: _Agg, frame: list, t0: float, bucket: str, label: str) -> None:
        t1 = time.perf_counter()
        dt = t1 - t0
        stack = agg.stack
        stack.pop()
        _add(agg.self_s, bucket, dt - frame[0])
        _add(agg.incl_s, label, dt)
        _add(agg.calls, label, 1)
        if stack:
            stack[-1][0] += dt
        if frame[1] is not None:
            agg.spans.append((label, t0, t1, frame[1], frame[2]))

    def timed(self, fn: Callable, bucket: str, label: str, span: bool = False,
              after: Callable | None = None) -> Callable:
        """``fn`` wrapped to charge its self time to ``bucket``."""
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg, frame, t0 = enter(span)
            try:
                ret = fn(*args, **kwargs)
            finally:
                leave(agg, frame, t0, bucket, label)
            if after is not None:
                after(self, agg, args, ret)
            return ret

        return wrapper

    @contextmanager
    def span(self, bucket: str, label: str | None = None):
        """Time a block of the benchmark's own code as a span; yields its id."""
        agg, frame, t0 = self._enter(True)
        try:
            yield frame[1]
        finally:
            self._exit(agg, frame, t0, bucket, label or bucket)

    def count(self, name: str, value: float = 1) -> None:
        _add(self.agg().counts, name, value)

    # -- snapshots ------------------------------------------------------------

    def profile(self, role: str | None = None) -> dict:
        """Totals over this process's threads (optionally one role)."""
        with self._lock:
            aggs = [a for a in self._aggs if role is None or a.role == role]
        return merge_profiles(*({key: dict(getattr(a, key)) for key in _PROFILE_KEYS}
                                for a in aggs))

    def spans(self) -> list[dict]:
        with self._lock:
            aggs = list(self._aggs)
        return [
            {"name": s[0], "start": s[1], "end": s[2], "id": s[3], "parent": s[4],
             "run_id": self.run_id}
            for agg in aggs for s in list(agg.spans)
        ]

    def mark(self, name: str) -> None:
        """Snapshot every role's totals under ``name`` (service window edges)."""
        self.marks[name] = {role: self.profile(role) for role in ROLES}

    # -- forked workers -------------------------------------------------------

    def in_child(self) -> bool:
        return os.getpid() != self._owner_pid and self.dump_dir is not None

    def start_child_task(self) -> None:
        """In a forked worker: drop everything inherited from the parent."""
        self._reset()

    def dump_child_task(self) -> None:
        """In a forked worker: write this task's totals and start afresh."""
        path = Path(self.dump_dir) / f"worker-{os.getpid()}-{next(self._dumps)}.json"
        payload = {"profile": self.profile(), "spans": self.spans()}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)
        self._reset()


def read_worker_dumps(dump_dir: str) -> tuple[dict, list[dict]]:
    """Merged profile and spans of every worker task dumped under ``dump_dir``."""
    payloads = [json.loads(p.read_text()) for p in sorted(Path(dump_dir).glob("worker-*.json"))]
    return (merge_profiles(*(p["profile"] for p in payloads)),
            [span for p in payloads for span in p["spans"]])


_PROFILE_KEYS = ("self_s", "incl_s", "calls", "counts")


def merge_profiles(*profiles: dict) -> dict:
    out: dict[str, dict] = {key: {} for key in _PROFILE_KEYS}
    for prof in profiles:
        for key in _PROFILE_KEYS:
            for name, value in prof.get(key, {}).items():
                _add(out[key], name, value)
    return out


def diff_profiles(end: dict, begin: dict) -> dict:
    return {
        key: {name: value - begin.get(key, {}).get(name, 0) for name, value in end[key].items()}
        for key in end
    }


# --------------------------------------------------------------------------- install


class Patcher:
    """Replaces attributes and puts the originals back, last first."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        self._originals: dict[int, tuple[Callable, Callable]] = {}

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def replace_function(self, module: Any, name: str, wrapper: Callable) -> None:
        """Rebind ``module.name`` and every ``from module import name`` copy."""
        original = getattr(module, name)
        self._originals[id(wrapper)] = (wrapper, original)
        for mod, attr in _repro_bindings(lambda value: value is original):
            self.set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        # A module imported while the wrappers were in place bound one of
        # them itself; point it back at the original too.
        def leftover(value: Any) -> bool:
            entry = self._originals.get(id(value))
            return entry is not None and entry[0] is value

        for mod, attr in _repro_bindings(leftover):
            setattr(mod, attr, self._originals[id(getattr(mod, attr))][1])
        self._originals.clear()


def _repro_bindings(match: Callable[[Any], bool]) -> list[tuple[Any, str]]:
    """``(module, attribute)`` pairs of loaded ``repro`` modules whose value matches."""
    return [
        (mod, attr)
        for mod in list(sys.modules.values())
        if getattr(mod, "__name__", "").startswith("repro")
        for attr, value in list(vars(mod).items())
        if match(value)
    ]


def wrap_function(patcher: Patcher, module: str, name: str,
                  factory: Callable[[Callable], Callable]) -> bool:
    """Wrap a module-level function everywhere it is bound; False if absent."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    original = getattr(mod, name, None)
    if not callable(original):
        return False
    patcher.replace_function(mod, name, factory(original))
    return True


@dataclass
class Installed:
    """Handle on an install: what to undo, and the targets it could not find."""

    patcher: Patcher
    missing: list[str]

    def uninstall(self) -> None:
        self.patcher.restore()


def _after_lanes(tracer: Tracer, agg: _Agg, args: tuple, ret: Any) -> None:
    _add(agg.counts, "lanes", len(args[1]))


def _after_jobs(tracer: Tracer, agg: _Agg, args: tuple, ret: Any) -> None:
    _add(agg.counts, "select_jobs", len(args[1]))


def _after_signals(tracer: Tracer, agg: _Agg, args: tuple, ret: Any) -> None:
    _add(agg.counts, "signals", len(args[1]))


def _after_execution(tracer: Tracer, agg: _Agg, args: tuple, ret: Any) -> None:
    _add(agg.counts, "executions", 1)


def _after_offer(tracer: Tracer, agg: _Agg, args: tuple, ret: Any) -> None:
    tracer.offer_t[args[1].run_id] = time.perf_counter()


def _after_take(tracer: Tracer, agg: _Agg, args: tuple, ret: Any) -> None:
    if not ret:
        return
    now = time.perf_counter()
    for job in ret:
        t = tracer.offer_t.pop(job.run_id, None)
        if t is not None:
            _add(agg.counts, "queue_wait_s", now - t)
    _add(agg.counts, "batches", 1)
    _add(agg.counts, "batched", len(ret))


def _after_run(tracer: Tracer, agg: _Agg, args: tuple, ret: Any) -> None:
    """Read one finished run's counters off its result and live objects."""
    result, handle = ret
    counts = agg.counts
    _add(counts, "events", handle.engine.events_fired)
    for name in ("settle_calls", "solve_skips", "lane_rebuilds"):
        _add(counts, name, getattr(handle.machine, name))
    for name in ("bus_solve_calls", "bus_cache_hits", "bus_shared_hits", "bus_bisection_steps"):
        _add(counts, name, getattr(result, name))
    if handle.manager is not None:
        prof = handle.manager.policy.selection_profile()
        _add(counts, "sel_rescored", prof.get("sel_est_rescored", 0))
        _add(counts, "sel_reused", prof.get("sel_est_reused", 0))
    if result.dynamic is not None:
        admitted = sum(1 for j in result.dynamic.jobs if j.admit_us is not None)
        _add(counts, "jobs_admitted", admitted)


_AFTER = {
    "lanes": _after_lanes,
    "jobs": _after_jobs,
    "signals": _after_signals,
    "execution": _after_execution,
    "offer": _after_offer,
    "take": _after_take,
    "run": _after_run,
}


def _hooked(tracer: Tracer, fn: Callable, after: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ret = fn(*args, **kwargs)
        after(tracer, tracer.agg(), args, ret)
        return ret

    return wrapper


def bind_run_many(signature: inspect.Signature, args: tuple, kwargs: dict,
                  hook: Callable) -> tuple[inspect.BoundArguments, int]:
    """Bind a ``run_many`` call and put ``hook`` in front of its ``on_result``.

    ``hook(index, result, wall_s)`` sees each result before the caller's
    own ``on_result`` does. Returns the bound call and the number of
    worker processes it will use (1 when it runs serially).
    """
    import repro.parallel as parallel

    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    specs = bound.arguments["specs"]
    jobs = parallel.resolve_jobs(bound.arguments["jobs"], len(specs))
    if len(specs) <= 1 or not parallel.fork_available():
        jobs = 1
    user_hook = bound.arguments["on_result"]

    def on_result(index, result, wall_s):
        hook(index, result, wall_s)
        if user_hook is not None:
            user_hook(index, result, wall_s)

    bound.arguments["on_result"] = on_result
    return bound, jobs


def _run_many_factory(tracer: Tracer):
    """``run_many``: a wait when it fans out, and the spec walls it reports."""

    def factory(fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        serial = tracer.timed(fn, "parallel.self_s", "run_many", span=True)
        fanned = tracer.timed(fn, WAIT_PARALLEL, "run_many", span=True)

        def hook(index, result, wall_s):
            tracer.count("spec_wall_sum_s", wall_s)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound, jobs = bind_run_many(signature, args, kwargs, hook)
            tracer.count("specs", len(bound.arguments["specs"]))
            if jobs > 1:
                tracer.count("fanned_jobs", jobs)
                tracer.count("fanned_calls", 1)
            return (fanned if jobs > 1 else serial)(*bound.args, **bound.kwargs)

        return wrapper

    return factory


def _execute_chunk_factory(tracer: Tracer):
    """Worker side: record each task afresh and dump it when it ends."""

    def factory(fn: Callable) -> Callable:
        timed = tracer.timed(fn, "parallel.self_s", "_execute_chunk")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.in_child():
                return timed(*args, **kwargs)
            tracer.start_child_task()
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.dump_child_task()

        return wrapper

    return factory


#: Request headers the benchmark's client sets for the traced server.
PARENT_HEADER = "HTTP_X_PERFBENCH_PARENT"
MARK_HEADER = "HTTP_X_PERFBENCH_MARK"
POLL_HEADER = "HTTP_X_PERFBENCH_POLL"


def _wsgi_factory(tracer: Tracer):
    """``create_wsgi_app``: time each request, link it to the client span."""

    def factory(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def create(*args, **kwargs):
            app = fn(*args, **kwargs)
            timed_app = tracer.timed(app, "service.api.server_s", "wsgi", span=True)

            def traced_app(environ, start_response):
                mark = environ.get(MARK_HEADER)
                if mark == "end":
                    tracer.mark("end")
                agg = tracer.agg()
                agg.parent = environ.get(PARENT_HEADER)
                if environ.get(POLL_HEADER):
                    agg.role = "poll"  # one thread per request: the role is the request's
                try:
                    return timed_app(environ, start_response)
                finally:
                    agg.parent = None
                    if mark == "begin":
                        tracer.mark("begin")

            return traced_app

        return create

    return factory


def install(tracer: Tracer) -> Installed:
    """Wrap every target; returns the handle that undoes it."""
    patcher = Patcher()
    missing: list[str] = []
    for module in {t.module for t in TARGETS}:
        try:
            importlib.import_module(module)
        except ImportError:
            pass  # its targets are reported missing below
    special = {
        ("repro.parallel", "run_many"): _run_many_factory(tracer),
        ("repro.parallel", "_execute_chunk"): _execute_chunk_factory(tracer),
        ("repro.service.api", "create_wsgi_app"): _wsgi_factory(tracer),
    }
    for target in TARGETS:
        after = _AFTER[target.after] if target.after else None
        label = target.path
        if "." not in target.path:
            factory = special.get((target.module, target.path))
            if factory is None:
                if target.bucket is None:
                    def factory(fn, after=after):
                        return _hooked(tracer, fn, after)
                else:
                    def factory(fn, target=target, after=after):
                        return tracer.timed(fn, target.bucket, target.path, target.span, after)
            if not wrap_function(patcher, target.module, target.path, factory):
                missing.append(f"{target.module}.{target.path}")
            continue
        cls_name, meth = target.path.split(".")
        try:
            cls = getattr(importlib.import_module(target.module), cls_name)
        except (ImportError, AttributeError):
            missing.append(f"{target.module}.{target.path}")
            continue
        owners = [cls]
        if target.subclasses:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                owners.append(sub)
                pending.extend(sub.__subclasses__())
        wrapped_any = False
        for owner in owners:
            fn = owner.__dict__.get(meth)
            if not inspect.isfunction(fn):
                continue
            if target.bucket is None:
                wrapper = _hooked(tracer, fn, after)
            else:
                wrapper = tracer.timed(fn, target.bucket, f"{owner.__name__}.{meth}"
                                       if owner is not cls else label, target.span, after)
            patcher.set(owner, meth, wrapper)
            wrapped_any = True
        if not wrapped_any:
            missing.append(f"{target.module}.{target.path}")
    return Installed(patcher=patcher, missing=missing)


# --------------------------------------------------------------------------- attribution


def attribute(critical: dict[str, float],
              waits: list[tuple[str, list[dict[str, float]], int, str]]) -> dict[str, float]:
    """Charge the measuring thread's self times, waits included, to layers.

    ``critical`` holds the self times on the thread that measured the
    wall (its root bucket included), so it sums to the wall. Each wait
    ``(bucket, remotes, n, rest)`` hands its time to the work it waited
    for: ``remotes`` are self-time profiles in priority order, each done
    by up to ``n`` workers at once. A remote gets ``remote * scale`` with
    ``scale = min(1/n, left/sum(remote))``, where ``left`` is the part of
    the wait earlier remotes did not take; what no remote covers goes to
    ``rest``. The result sums to the wall exactly as ``critical`` did.
    """
    wait_buckets = {w[0] for w in waits}
    out = {k: v for k, v in critical.items() if k not in wait_buckets}
    for bucket, remotes, n, rest in waits:
        left = critical.get(bucket, 0.0)
        for remote in remotes:
            busy = sum(remote.values())
            scale = min(1.0 / max(n, 1), left / busy) if busy > 0 else 0.0
            for name, seconds in remote.items():
                _add(out, name, seconds * scale)
            left -= busy * scale
        _add(out, rest, left)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(partition: dict[str, float], prof: dict, wall_s: float,
                  extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced workload, by name.

    ``partition`` comes from :func:`attribute`; ``prof`` merges the
    profiles of every traced process (counts and call totals);
    ``extra`` carries what the runner measured itself.
    """
    calls, incl, counts = prof["calls"], prof["incl_s"], prof["counts"]

    def n_calls(owner: str, *methods: str) -> float:
        return float(sum(calls.get(f"{owner}.{m}", 0) for m in methods))

    events = counts.get("events", 0)
    solve_calls = calls.get("BusModel.solve", 0)
    select_calls = sum(v for k, v in calls.items() if k.endswith(".select"))
    rescored = counts.get("sel_rescored", 0)
    run_many_wall = incl.get("run_many", 0.0)
    fanned = counts.get("fanned_calls", 0)
    jobs = counts.get("fanned_jobs", 0) / fanned if fanned else 1.0
    out = {name: partition.get(name, 0.0) for name in PARTITION}
    out.update({
        "sim.engine.events": float(events),
        "sim.engine.host_us_per_event": _ratio(incl.get("Engine.run", 0.0) * 1e6, events),
        "hw.machine.advance_calls": float(calls.get("Machine.advance_to", 0)),
        "hw.machine.dispatch_calls": n_calls("Machine", "dispatch", "set_blocked", "set_stalled"),
        "hw.machine.settle_calls": float(counts.get("settle_calls", 0)),
        "hw.machine.solve_skips": float(counts.get("solve_skips", 0)),
        "hw.machine.lane_rebuilds": float(counts.get("lane_rebuilds", 0)),
        "hw.bus.solve_calls": float(solve_calls),
        "hw.bus.lanes_per_solve": _ratio(counts.get("lanes", 0), solve_calls),
        "hw.bus.memo_hit_ratio": _ratio(counts.get("bus_cache_hits", 0),
                                        counts.get("bus_solve_calls", 0)),
        "hw.bus.shared_hit_ratio": _ratio(counts.get("bus_shared_hits", 0),
                                          counts.get("bus_solve_calls", 0)),
        "hw.bus.root_steps": float(counts.get("bus_bisection_steps", 0)),
        "hw.cache.account_calls": n_calls("CacheL2", "account_run", "account_run_fast", "warmth"),
        "hw.counters.calls": n_calls("CounterBank", "credit", "credit_run", "credit_rows",
                                     "read", "read_many", "read_rows"),
        "sched.linux.goodness_calls": float(calls.get("LinuxScheduler.goodness", 0)),
        "core.policies.select_calls": float(select_calls),
        "core.policies.jobs_per_select": _ratio(counts.get("select_jobs", 0), select_calls),
        "core.policies.rescored_frac": _ratio(rescored, rescored + counts.get("sel_reused", 0)),
        "core.manager.signals_sent": float(counts.get("signals", 0)),
        "dynamic.jobs_admitted": float(counts.get("jobs_admitted", 0)),
        "run.count": float(calls.get("run_simulation", 0)),
        "run.wall_s": incl.get("run_simulation", 0.0),
        "parallel.wall_s": run_many_wall,
        "parallel.spec_wall_sum_s": counts.get("spec_wall_sum_s", 0.0),
        "parallel.efficiency": _ratio(counts.get("spec_wall_sum_s", 0.0), jobs * run_many_wall),
        "parallel.retries": max(0.0, counts.get("executions", 0) - counts.get("specs", 0)),
        "service.store.writes": n_calls("ResultStore", *_STORE_WRITES),
        "service.store.reads": n_calls("ResultStore", *_STORE_READS),
        "service.jobs.queue_wait_s": counts.get("queue_wait_s", 0.0),
        "service.jobs.batch_size_mean": _ratio(counts.get("batched", 0), counts.get("batches", 0)),
        "service.jobs.execute_s": extra.get("service.jobs.execute_s", 0.0),
        "unattributed_frac": _ratio(partition.get(ROOT, 0.0), wall_s),
    })
    out[ROOT] = partition.get(ROOT, 0.0)
    out.update({k: v for k, v in extra.items() if k != "service.jobs.execute_s"})
    return out
