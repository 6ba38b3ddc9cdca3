"""One benchmark process: set up a workload, then check or measure it.

Started by ``run.py`` with the checkout's ``src`` on the path. Modes:

- ``setup``: import outcentr and generate the inputs, then exit;
- ``measure``: set up, time ``run_experiment`` calls for the run's seconds
  (with layer timers when tracing), capture the last call at every layer
  boundary and check its outputs.

The process prints ``READY`` once set-up is done (the parent times set-up
up to that line) and one ``RESULT <json>`` line at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_CALLS = 3


def _import_outcentr(root: Path):
    sys.path.insert(0, str(root / "src"))
    import outcentr

    origin = Path(outcentr.__file__).resolve()
    if (root / "src").resolve() not in origin.parents:
        raise SystemExit(f"outcentr imported from {origin}, not from this checkout's src/")
    return outcentr


def _cell_rows(report):
    return [
        [c.reducer, c.detector, c.seed, c.k_used, c.f1, c.precision, c.recall, c.auc]
        for c in report.cells
    ]


def _host(oc) -> dict:
    import platform

    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name", "") + " " + deps.get(k, {}).get("version", "")
                for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "outcentr": getattr(oc, "__version__", "?"),
        "machine": platform.machine(),
    }


def _check(inputs, workload, events, report) -> dict:
    import checks

    start = time.perf_counter()
    verdict = checks.check_run(events, report.cells, inputs, workload, inputs.config.seeds)
    return {
        "check_s": time.perf_counter() - start,
        "cells": _cell_rows(report),
        "cell_failures": {str(i): r for i, r in verdict.cell_failures.items()},
        "workload_failures": verdict.workload_failures,
        "notes": verdict.notes,
    }


def _measure(oc, inputs, workload, seconds: float, trace: bool) -> dict:
    """Time ``run_experiment`` calls until ``seconds`` of calls are spent.

    The last call is also captured at every layer boundary and its outputs
    are checked after it returns. The peak resident memory is read before
    that call: holding captured outputs changes the heap's layout, so only
    the calls before it show the program's own peak.
    """
    from probe import Probe

    calls, cpu, cells, errors, layers, counts = [], [], [], [], [], []
    probe = Probe(oc.bench, timing=trace)
    while True:
        last = len(calls) + 1 >= MIN_CALLS and sum(calls) + 2 * statistics.median(calls) > seconds
        if last:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            probe.capture = True
        gc.collect()
        probe.reset()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with probe:
                report = oc.run_experiment(inputs.config)
        except Exception as exc:  # a failing call counts its cells as failed
            report = None
            errors.append(f"{type(exc).__name__}: {exc}")
        calls.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - cpu0)
        cells.append(None if report is None else _cell_rows(report))
        layers.append(dict(probe.seconds))
        counts.append(dict(probe.counts))
        if last:
            break
        report = None
    checked = (
        {"error": "the checked call raised"} if report is None
        else _check(inputs, workload, probe.events, report)
    )
    return {
        "checked": checked,
        "calls": calls,
        "cpu": cpu,
        "cells": cells,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "counts": counts,
        "lof_peak_mb": probe.lof_peak_mb,
        "host": _host(oc),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    oc = _import_outcentr(args.root)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.prepare(oc, args.workload, args.seed, args.tiny, args.root)
    print("READY", flush=True)

    result = {}
    if args.mode == "measure":
        result = _measure(oc, inputs, workload, args.seconds, bool(args.trace))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
