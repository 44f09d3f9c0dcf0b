"""Start ``repro serve`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/traced_serve.py DUMP RUN_ID serve [serve flags...]``

The process layout is the one ``python -m repro serve`` has: one
process, the HTTP threads and the dispatcher thread. When the server
drains (SIGINT), the tracer's window snapshots, span records and the
list of hooks it could not install are written to ``DUMP`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    dump, run_id, serve_args = Path(argv[0]), argv[1], argv[2:]
    from perfbench.tracing import Tracer, install
    from repro.cli import main as repro_main

    tracer = Tracer(run_id)
    installed = install(tracer)
    try:
        return repro_main(serve_args)
    finally:
        installed.uninstall()
        payload = {"marks": tracer.marks, "spans": tracer.spans(),
                   "missing": installed.missing}
        tmp = dump.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(dump)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
