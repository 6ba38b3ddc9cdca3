"""Fast self-test of the benchmark harness at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest -q perfbench

It runs every workload end to end on tiny inputs, checks the result line
against BENCHMARK.json, shows that each correctness check rejects a
deliberately wrong output, and that the benchmark refuses to run where the
program is missing.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from probe import Probe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(workload):
    out = run_bench(workload, 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    w = workloads.WORKLOADS[workload]
    assert result["attempted"] % (len(w.reducers) * len(w.detectors)) == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_accounts_for_the_traced_time():
    out = run_bench("nvd-ties", 1)
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert metrics["detectors.lof_pairs"]["value"] > 0
    assert metrics["detectors.iforest_nodes"]["value"] > 0
    assert metrics["data.load_csv_s"]["value"] > 0
    assert metrics["synth.generate_s"]["value"] == 0  # not called on a CSV source


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("paper", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


@pytest.fixture(scope="module")
def captured():
    import outcentr as oc

    with Probe(oc.bench, capture=True) as probe:
        inputs = workloads.prepare(oc, "paper", 3, True, Path(ROOT))
        report = oc.run_experiment(inputs.config)
    return oc, inputs, probe.events, report.cells


def _verdict(captured, events=None, cells=None):
    oc, inputs, ev, cl = captured
    return checks.check_run(
        events if events is not None else ev, cells if cells is not None else cl,
        inputs, workloads.WORKLOADS["paper"], inputs.config.seeds,
    )


def test_checks_pass_on_the_program_output(captured):
    verdict = _verdict(captured)
    assert not verdict.cell_failures and not verdict.workload_failures


def test_checks_reject_a_wrong_f1(captured):
    cells = list(captured[3])
    cells[0] = dataclasses.replace(cells[0], f1=cells[0].f1 + 0.01)
    assert 0 in _verdict(captured, cells=cells).cell_failures


def test_checks_reject_a_wrong_lof_score(captured):
    events = list(captured[2])
    i = max(j for j, ev in enumerate(events) if ev.name == "lof_score")
    result = events[i].result
    scores = np.array(result.scores)
    scores[int(np.argmax(scores))] *= 1.001
    events[i] = dataclasses.replace(events[i], result=dataclasses.replace(result, scores=scores))
    lof_cells = [j for j, c in enumerate(captured[3]) if c.detector == "lof"]
    assert lof_cells[-1] in _verdict(captured, events=events).cell_failures


def test_checks_reject_a_wrong_pca_variance(captured):
    ev = next(e for e in captured[2] if e.name == "pca_fit")
    model = dataclasses.replace(ev.result, explained_variance=ev.result.explained_variance * 1.01)
    assert checks.check_pca(ev.args[0].values, ev.args[1], model)
    assert not checks.check_pca(ev.args[0].values, ev.args[1], ev.result)


def test_checks_reject_a_misscaled_projection(captured):
    ev = next(e for e in captured[2] if e.name == "grp_transform")
    x, y = ev.args[0].values, ev.result.values
    ratio, tol, _ = checks.grp_distance_ratio(x, y, 0)
    assert abs(ratio - 1) <= tol
    ratio, tol, _ = checks.grp_distance_ratio(x, 2 * y, 0)
    assert abs(ratio - 1) > tol


def test_checks_reject_a_misread_csv(tmp_path):
    import outcentr as oc

    names, columns, labels, spec = workloads.make_nvd(3, rows=200, binary=40, contamination=0.05, informative=4)
    table = workloads.write_table(names, columns, labels, spec, tmp_path / "t.csv")
    loaded = oc.load_csv(table.path, label_column=table.label_column)
    assert checks.check_csv(table, loaded) == []
    swapped = dataclasses.replace(
        loaded, categorical_levels=tuple((n, lv[::-1]) for n, lv in loaded.categorical_levels)
    )
    assert checks.check_csv(table, swapped)


def test_lof_oracle_counts_tied_neighbours():
    # five copies of the origin and one far point: the far point's k-distance
    # neighbourhood (k=2) holds all five tied copies
    ref = np.array([[0.0]] * 5 + [[4.0]])
    oracle = checks.LofOracle(ref, k=2, metric="euclidean")
    assert oracle.kdist(5) == 4.0
    assert oracle.lrd(5) == pytest.approx(1 / 4.0)
    # a query at 4 has k-distance 4, so all six points are its neighbours,
    # each at reachability 4; the copies' densities hit the 1e-12 floor
    assert oracle.lof([4.0]) == pytest.approx((1 / 4.0 + 5 * 1e12) / 6 / (1 / 4.0))


def test_lof_oracle_keeps_ties_whatever_the_column_order():
    # rows holding the same values in different columns are all at one
    # distance from the origin; an order-dependent sum splits them by an ulp
    rng = np.random.default_rng(0)
    base = np.array([1 / 3, 2 / 3, 1 / 3] + [1.0] * 7 + [0.0] * 33)
    ref = np.array([rng.permutation(base) for _ in range(300)])
    oracle = checks.LofOracle(ref, k=20, metric="euclidean")
    assert len(set(oracle._distances(np.zeros(base.size)).tolist())) == 1
    unsorted = np.sqrt((ref * ref).sum(axis=1))
    assert len(set(unsorted.tolist())) > 1  # the case the sorted sum guards
