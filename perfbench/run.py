"""Layered benchmark for outcentr: one command, every metric with its unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Each run starts three fresh worker processes, one after another, with the
checkout's ``src`` on the path and BLAS pinned to one thread. The first two
only set up (import outcentr, generate the inputs). The third sets up, then
times ``run_experiment`` calls for ``--seconds`` (with layer timers when
``--trace 1``); its last call is also captured at every layer boundary and
its outputs are checked (see ``checks.py``).

``setup_s`` is the median over the three processes of the time from
process start to the end of set-up. ``run_s`` is the median wall time of
the measured calls and ``peak_rss_mb`` the measuring process's peak resident
memory. The last line of standard output is the JSON result; a record of
the run, with the host, is appended to ``.perfbench/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 170.0
# the traced run's metrics and units, as BENCHMARK.json lists them
PER_LAYER = tuple(
    (m["name"], m["unit"])
    for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
)


class WorkerError(RuntimeError):
    pass


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode: str, args, root: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker; return (seconds from start to READY, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--root", str(root), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=_worker_env(root), stdout=subprocess.PIPE, text=True
    )
    lines = []  # (arrival time, line), filled as the worker prints

    def read():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=10.0)
        proc.stdout.close()
    ready = [t for t, line in lines if line.startswith("READY")]
    results = [line[len("RESULT "):] for _, line in lines if line.startswith("RESULT ")]
    if proc.returncode != 0 or not ready or not results:
        raise WorkerError(f"{mode} worker failed (exit code {proc.returncode})")
    return ready[0] - start, json.loads(results[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def summarise(args, checked: dict, measured: dict, setups: list[float]) -> dict:
    """Fold the workers' reports into the result object."""
    workload = workloads.WORKLOADS[args.workload]
    per_call = len(workload.reducers) * len(workload.detectors)
    reference = checked.get("cells")
    if reference is None:  # the checked call raised: nothing can be trusted
        correct, failed_cells = False, set(range(per_call))
    else:
        correct = not checked["workload_failures"]
        failed_cells = {int(i) for i in checked["cell_failures"]}

    # every call attempts the whole matrix; a cell fails when the checked
    # (last) call's twin failed its checks or its metrics differ from it
    attempted = per_call * len(measured["calls"])
    failed = 0
    for cells in measured["cells"]:
        if cells is None or reference is None or len(cells) != per_call:
            failed += per_call
        else:
            failed += sum(
                1 for i, (mine, ref) in enumerate(zip(cells, reference))
                if i in failed_cells or mine != ref
            )

    if args.trace:
        metrics = {}
        for (name, unit) in PER_LAYER:
            if name == "bench.traced_run_s":
                value = _median(measured["calls"])
            elif name == "bench.self_s":
                value = _median([
                    total - sum(layers.values())
                    for total, layers in zip(measured["calls"], measured["layers"])
                ])
            elif name == "detectors.lof_peak_mb":
                value = measured["lof_peak_mb"]
            elif unit == "count":
                value = _median([c.get(name, 0) for c in measured["counts"]])
            else:
                value = _median([layers.get(name, 0.0) for layers in measured["layers"]])
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "run_s": {"value": _median(measured["calls"]), "unit": "s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="outcentr layered benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "outcentr" / "__init__.py").is_file():
        print("perfbench: run from the root of an outcentr checkout (no src/outcentr here)",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        setups = [run_worker("setup", args, root, deadline)[0] for _ in range(2)]
        measure_setup, measured = run_worker("measure", args, root, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        workloads.csv_path(root, args.workload, args.seed, args.tiny).unlink(missing_ok=True)

    setups.append(measure_setup)
    checked = measured["checked"]
    result = summarise(args, checked, measured, setups)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "host": measured["host"],
        "calls_s": measured["calls"], "cpu_s": measured["cpu"],
        "setups_s": setups,
        "checks": {k: checked.get(k) for k in ("cell_failures", "workload_failures", "notes", "error", "check_s")},
        "errors": measured["errors"], **result,
    }
    work = root / workloads.WORK_DIR
    work.mkdir(exist_ok=True)
    with (work / "runs.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print("host " + json.dumps(measured["host"]))
    print("checks " + json.dumps(record["checks"]))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<9} {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
