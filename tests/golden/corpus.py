"""Golden corpus: absolute simulator outputs, pinned exactly.

The bit-identity suites compare code paths against each other; this
corpus pins what the simulator *produces*, so a change that moves every
path together still shows up. ``golden.json`` holds:

* ``fig2`` — per-application mean target turnaround (µs) of Figure 2
  sets A, B and C at work scale 0.1, seed 42: the Linux baseline and
  each default policy;
* ``dyn1`` — one DYN-1 operating point (Quanta Window, Poisson arrivals
  at 2 jobs/s, 8 jobs, one replication, work scale 0.1, seed 42);
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
    "dyn1": dyn1_point,
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
