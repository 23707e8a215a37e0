"""Set-up probe: make one workload's set-up calls, report when ready, exit.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/probe.py WORKLOAD STORE_PATH|-

It imports what ``python -m repro.experiments`` imports for the workload,
opens an execution session with the workload's worker count, opens its run
store and starts its worker pool (only where the real command does), then
prints one JSON line: the ``CLOCK_MONOTONIC`` time at which it was ready,
the time each step took, and the numpy version and coding backend the
imports resolved.  The parent subtracts its own spawn time from ``ready``.
"""

from __future__ import annotations

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


def main(argv: list) -> int:
    workload, store = argv[1], argv[2]
    started = _now()
    import repro.experiments.cli  # noqa: F401 - what `python -m repro.experiments` loads
    import repro.jobs.executor  # noqa: F401 - loaded by the first submit
    from repro.coding import np_backend
    from repro.jobs import ExecutionSession

    if workload == "analyze":
        import repro.analysis.pipeline  # noqa: F401
    elif workload == "fuzz":
        import repro.fuzz.engine  # noqa: F401
    imported = _now()
    parallel = None if workload == "fuzz" else 2
    store_path = None if store == "-" else store
    with ExecutionSession(parallel=parallel, store_path=store_path) as session:
        session.store  # the lazy property opens the run store
        store_opened = _now()
        if parallel:
            # Public API only: the pool starts on the first dispatch, so
            # dispatch two trivial tasks.
            list(session.runner.iter_tasks(abs, [-1, -2]))
        ready = _now()
        report = {
            "ready": ready,
            "import_s": imported - started,
            "store_open_s": store_opened - imported,
            "pool_start_s": ready - store_opened,
            "numpy": _numpy_version() if np_backend.numpy_available() else None,
            "coding_backend": np_backend.DEFAULT_BACKEND,
        }
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
