"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines. Criterion 10 needs externally sourced benchmark CSVs and
skips unless OUTCENTR_BENCHMARKS points at a directory holding them (see the
README for the expected layout). Its code also runs on four synthetic
stand-ins, which checks that it runs, not its verdict.
"""

import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import outcentr as oc
from oracles import brute_force_lof

SEPARATED_SPEC = oc.SynthSpec(
    n=2000, m=100, contamination=0.05, n_informative=10, separation=4.0
)


def report(number, name, ok, detail=""):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def pairwise_auc_oracle(scores, labels):
    """Quadratic oracle: count correctly ordered positive/negative pairs."""
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (pos.size * neg.size)


def hand_confusion(flags, labels):
    tp = fp = tn = fn = 0
    for f, y in zip(flags, labels):
        if f == 1 and y == 1:
            tp += 1
        elif f == 1 and y == 0:
            fp += 1
        elif f == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def test_criterion_1_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 201))
        scores = np.round(rng.normal(size=n), int(rng.integers(0, 4)))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        worst = max(worst, abs(oc.roc_auc(scores, labels) - pairwise_auc_oracle(scores, labels)))

        flags = rng.integers(0, 2, n)
        tp, fp, tn, fn = hand_confusion(flags, labels)
        c = oc.confusion(flags, labels)
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
        m = oc.prf1(c)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        assert m.precision == p and m.recall == r
        assert m.f1 == (2 * p * r / (p + r) if p + r else 0.0)
    elapsed = time.perf_counter() - start
    report(
        1,
        "ROC AUC matches the pairwise oracle within 1e-12; prf1 matches hand arithmetic",
        worst < 1e-12 and elapsed < 10.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s over 1000 instances",
    )


def test_criterion_2_lof_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        k = int(rng.choice([3, 5, 10]))
        n = int(rng.integers(k + 2, 51))
        m = int(rng.integers(1, 6))
        x = rng.random((n, m))
        d = oc.Dataset(values=x, attribute_names=tuple(f"a{j}" for j in range(m)))
        got = oc.lof_fit_predict(d, oc.DetectorConfig(kind="lof", contamination=0.1, k_neighbors=k))
        worst = max(worst, np.abs(got.scores - brute_force_lof(x, k)).max())
    elapsed = time.perf_counter() - start
    report(
        2,
        "LOF matches the brute-force oracle within 1e-9 (100 datasets, k in {3,5,10})",
        worst < 1e-9 and elapsed < 30.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def _random_labeled(rng):
    n = int(rng.integers(6, 40))
    m = int(rng.integers(2, 10))
    values = rng.random((n, m))
    labels = np.zeros(n, dtype=int)
    labels[rng.choice(n, size=int(rng.integers(1, max(2, n // 3))), replace=False)] = 1
    if labels.sum() == n:
        labels[0] = 0
    return oc.Dataset(
        values=values,
        attribute_names=tuple(f"a{j}" for j in range(m)),
        labels=labels,
        normalization=tuple((0.0, 1.0) for _ in range(m)),
    )


def test_criterion_3_reduction_formula_suite():
    rng = np.random.default_rng(303)

    for _ in range(200):  # weighted-centroid recombination at 1e-9
        d = _random_labeled(rng)
        out_rows, in_rows = oc.partition_labels(d)
        c_out = oc.compute_centroid(d, out_rows)
        c_in = oc.compute_centroid(d, in_rows)
        c_all = oc.compute_centroid(d, range(d.n))
        lhs = len(out_rows) * c_out + len(in_rows) * c_in
        assert np.allclose(lhs, d.n * c_all, atol=1e-9)

    for _ in range(200):  # score range on normalized data
        d = _random_labeled(rng)
        s = oc.distinguishability_scores(
            *(oc.compute_centroid(d, rows) for rows in oc.partition_labels(d))
        )
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    for _ in range(200):  # selection monotonicity and tie-break determinism
        m = int(rng.integers(2, 12))
        scores = rng.integers(0, 4, m) / 4.0  # coarse grid forces ties
        names = tuple(f"a{j}" for j in range(m))
        t = int(rng.integers(1, m))
        rank_small = oc.attribute_rank(scores, names, t)
        rank_large = oc.attribute_rank(scores, names, t + 1)
        assert set(rank_small.selected) <= set(rank_large.selected)
        expected = sorted(range(m), key=lambda j: (-scores[j], j))
        assert [name for name, _ in rank_small.entries] == [names[j] for j in expected]

    for _ in range(200):  # column-permutation invariance
        d = _random_labeled(rng)
        perm = rng.permutation(d.m)
        shuffled = oc.Dataset(
            values=d.values[:, perm],
            attribute_names=tuple(d.attribute_names[j] for j in perm),
            labels=d.labels,
            normalization=tuple(d.normalization[j] for j in perm),
        )
        rank_a = oc.fit_reducer(d, t_fraction=0.5)
        rank_b = oc.fit_reducer(shuffled, t_fraction=0.5)
        assert dict(rank_a.entries) == dict(rank_b.entries)
        assert set(rank_a.selected) == set(rank_b.selected)

    for _ in range(200):  # positive-affine rescaling of raw data keeps the order
        n, m = int(rng.integers(6, 30)), int(rng.integers(2, 7))
        raw = rng.integers(-40, 40, size=(n, m)).astype(float)
        labels = np.zeros(n, dtype=int)
        labels[: max(1, n // 4)] = 1
        names = tuple(f"a{j}" for j in range(m))
        scale = rng.integers(1, 9, size=m).astype(float)
        shift = rng.integers(-5, 6, size=m).astype(float)
        base = oc.normalize_minmax(oc.Dataset(values=raw, attribute_names=names, labels=labels))
        moved = oc.normalize_minmax(
            oc.Dataset(values=raw * scale + shift, attribute_names=names, labels=labels)
        )
        rank_a = oc.fit_reducer(base, t_fraction=0.5)
        rank_b = oc.fit_reducer(moved, t_fraction=0.5)
        assert [nm for nm, _ in rank_a.entries] == [nm for nm, _ in rank_b.entries]
        assert rank_a.selected == rank_b.selected

    report(3, "reduction formula suite holds on 5 x 200 random datasets", True)


def test_criterion_4_informative_attribute_recovery():
    start = time.perf_counter()
    hits = []
    for seed in range(10):
        data, informative = oc.generate(replace(SEPARATED_SPEC, seed=seed))
        train = oc.normalize_minmax(oc.split(data, 0.8, seed=seed).train)
        rank = oc.fit_reducer(train, t_fraction=0.10)
        selected = {train.index_of(name) for name in rank.selected}
        hits.append(len(selected & set(informative)))
    med = statistics.median(hits)
    elapsed = time.perf_counter() - start
    report(
        4,
        "median informative-attribute recovery in the top 10 is >= 8 over 10 seeds",
        med >= 8 and elapsed < 60.0,
        f"counts {hits}, median {med}, {elapsed:.1f}s",
    )


def test_criterion_5_f1_uplift():
    start = time.perf_counter()
    f1 = {"none": [], "outcentr": [], "grp": []}
    for seed in range(10):
        data, _ = oc.generate(replace(SEPARATED_SPEC, seed=seed))
        pair = oc.split(data, 0.8, seed=seed)
        train = oc.normalize_minmax(pair.train)
        test = oc.apply_normalization(pair.test, train.normalization)
        t = oc.top_t(train.m, 0.10)
        rank = oc.fit_reducer(train, t_fraction=0.10, seed=seed)
        variants = {
            "none": (train, test),
            "outcentr": (oc.transform(train, rank), oc.transform(test, rank)),
            "grp": (oc.grp_transform(train, t, seed), oc.grp_transform(test, t, seed)),
        }
        cfg = oc.DetectorConfig(
            kind="iforest", contamination=min(float(train.labels.mean()), 0.5), seed=seed
        )
        for name, (tr, te) in variants.items():
            result = oc.iforest_score(oc.iforest_fit(tr, cfg), te)
            f1[name].append(oc.prf1(oc.confusion(result.flags, te.labels)).f1)
    med = {name: statistics.median(vals) for name, vals in f1.items()}
    elapsed = time.perf_counter() - start
    ok = (
        med["outcentr"] >= 1.5 * med["none"]
        and med["outcentr"] >= 1.2 * med["grp"]
        and elapsed < 300.0
    )
    report(
        5,
        "median F1 with reduction >= 1.5x full-feature and >= 1.2x GRP at equal k",
        ok,
        f"medians {dict((k, round(v, 3)) for k, v in med.items())}, {elapsed:.0f}s",
    )


def test_criterion_6_pca_alignment_and_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    angle = rng.uniform(0, np.pi)
    long_axis = np.array([np.cos(angle), np.sin(angle)])
    short_axis = np.array([-np.sin(angle), np.cos(angle)])
    points = (
        np.outer(rng.normal(size=10000) * 5.0, long_axis)
        + np.outer(rng.normal(size=10000), short_axis)
    )
    d = oc.Dataset(values=points, attribute_names=("x", "y"))
    model = oc.pca_fit(d, k=2)
    cosine = abs(model.components[0] @ long_axis)
    centered = d.values - model.mean
    cov = centered.T @ centered / (d.n - 1)
    residual = max(
        np.linalg.norm(cov @ vec - lam * vec)
        for vec, lam in zip(model.components, model.explained_variance)
    )
    elapsed = time.perf_counter() - start
    report(
        6,
        "first principal component tracks the 5:1 long axis; eigenpair residual < 1e-8",
        cosine > 0.99 and residual < 1e-8 and elapsed < 10.0,
        f"|cos| {cosine:.4f}, residual {residual:.1e}, {elapsed:.1f}s",
    )


def test_criterion_7_grp_distance_preservation():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    x = rng.normal(size=(100, 500))
    d = oc.Dataset(values=x, attribute_names=tuple(f"a{j}" for j in range(500)))
    d_orig = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    pair_mask = np.triu(np.ones((100, 100), dtype=bool), k=1)
    fractions = []
    for seed in range(5):
        projected = oc.grp_transform(d, k=400, seed=seed).values
        d_proj = ((projected[:, None, :] - projected[None, :, :]) ** 2).sum(axis=2)
        ratios = d_proj[pair_mask] / d_orig[pair_mask]
        fractions.append(float((np.abs(ratios - 1.0) <= 0.3).mean()))
    med = statistics.median(fractions)
    elapsed = time.perf_counter() - start
    report(
        7,
        ">= 95% of pairwise squared distances preserved within 1 +/- 0.3 at k=400",
        med >= 0.95 and elapsed < 30.0,
        f"fractions {[round(f, 4) for f in fractions]}, median {med:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_timing_direction():
    spec = oc.SynthSpec(n=2000, m=500, contamination=0.05, n_informative=50,
                        separation=4.0, seed=8)
    data, _ = oc.generate(spec)
    pair = oc.split(data, 0.8, seed=8)
    train = oc.normalize_minmax(pair.train)
    test = oc.apply_normalization(pair.test, train.normalization)
    rank = oc.fit_reducer(train, t_fraction=0.10)
    train_red, test_red = oc.transform(train, rank), oc.transform(test, rank)
    cfg = oc.DetectorConfig(
        kind="lof", contamination=min(float(train.labels.mean()), 0.5), k_neighbors=20
    )

    def fit_predict_seconds(tr, te):
        start = time.perf_counter()
        oc.lof_score(oc.lof_fit(tr, cfg), te)
        return time.perf_counter() - start

    full = [fit_predict_seconds(train, test) for _ in range(5)]
    reduced = [fit_predict_seconds(train_red, test_red) for _ in range(5)]
    ratio = statistics.median(full) / statistics.median(reduced)
    report(
        8,
        "LOF fit+predict is >= 2x faster on the 10%-reduced data than on m=500",
        ratio >= 2.0,
        f"median full {statistics.median(full):.2f}s, "
        f"reduced {statistics.median(reduced):.2f}s, ratio {ratio:.1f}x",
    )


def test_criterion_9_end_to_end_reproducibility(tmp_path):
    from outcentr.cli import main

    config = tmp_path / "run.ini"
    config.write_text(
        "[data]\n"
        "source = synth\n"
        "n = 300\nm = 20\ncontamination = 0.1\nn_informative = 4\n\n"
        "[run]\n"
        "reducers = none, outcentr, pca, grp\n"
        "detectors = iforest, lof\n"
        "seeds = 0, 1\n"
        f"output = {tmp_path / 'r1'}\n\n"
        "[lof]\nk_neighbors = 10\n"
    )
    assert main(["run", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r2")]) == 0

    def without_timings(path):
        lines = (path / "results.csv").read_bytes().decode("utf-8").splitlines()
        return "\n".join(",".join(line.split(",")[:9]) for line in lines)

    identical = without_timings(tmp_path / "r1") == without_timings(tmp_path / "r2")
    report(9, "two identical runs produce byte-identical results.csv minus timings", identical)


BENCHMARK_FILES = ("nvd.csv", "network_intrusion.csv", "fraud.csv", "census.csv")


def benchmark_wins(root: Path) -> int:
    """Count the benchmark CSVs in ``root`` where outcentr lifts iForest's F1 over no reduction."""
    wins = 0
    for name in BENCHMARK_FILES:
        cfg = oc.RunConfig(
            source="csv",
            dataset_name=name.removesuffix(".csv"),
            csv_path=str(root / name),
            label_column="label",
            reducers=("none", "outcentr"),
            detectors=("iforest", "lof"),
            seeds=(0,),
        )
        rows = oc.run_experiment(cfg).median_rows()
        by_key = {(r["reducer"], r["detector"]): r["f1"] for r in rows}
        wins += by_key[("outcentr", "iforest")] > by_key[("none", "iforest")]
    return wins


def test_benchmark_wins_runs_on_stand_in_files(tmp_path, monkeypatch):
    """Criterion 10's code, run on four synthetic stand-ins for the benchmark CSVs."""
    monkeypatch.delenv("OUTCENTR_BENCHMARKS", raising=False)
    for seed, name in enumerate(BENCHMARK_FILES):
        spec = oc.SynthSpec(n=150, m=20, contamination=0.08, n_informative=3, seed=seed)
        oc.write_csv(oc.generate(spec)[0], tmp_path / name)
    assert benchmark_wins(tmp_path) in range(5)


@pytest.mark.skipif(
    not os.environ.get("OUTCENTR_BENCHMARKS"),
    reason="set OUTCENTR_BENCHMARKS to a directory with the four benchmark CSVs",
)
def test_criterion_10_benchmark_directional_agreement():
    root = Path(os.environ["OUTCENTR_BENCHMARKS"])
    missing = [name for name in BENCHMARK_FILES if not (root / name).exists()]
    if missing:
        pytest.skip(f"benchmark files missing from {root}: {missing}")
    wins = benchmark_wins(root)
    report(
        10,
        "reduction beats the iForest baseline F1 on at least 3 of 4 benchmark datasets",
        wins >= 3,
        f"{wins}/4 datasets improved",
    )
