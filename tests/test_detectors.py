import itertools
import math
import os
import signal
import time
import tracemalloc
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from outcentr import detectors
from outcentr.data import DataError, Dataset
from outcentr.detectors import (
    DISTANCE_METRICS,
    DetectionResult,
    DetectorConfig,
    average_path_length,
    iforest_fit,
    iforest_score,
    lof_fit,
    lof_fit_predict,
    lof_score,
)

from oracles import brute_force_lof, isolation_path_lengths, isolation_tree_path


def dataset(values, labels=None):
    values = np.asarray(values, dtype=float)
    names = tuple(f"a{j + 1}" for j in range(values.shape[1]))
    return Dataset(values=values, attribute_names=names, labels=labels)


def whole_array_walk(forest, x):
    """Mean path lengths from one walk of all (row, tree) pairs, with new arrays per level.

    This is the block walk without blocks, threads or kept buffers: the same
    integer steps, and each row summed over its trees by one numpy sum.
    """
    internal = forest.feature >= 0
    feature = np.where(internal, forest.feature, 0)
    cut = np.where(internal, forest.cut, np.inf)
    child = np.where(internal, forest.left, np.arange(internal.size))
    node = np.broadcast_to(forest.roots, (x.shape[0], forest.roots.size))
    rows = np.arange(x.shape[0])[:, None]
    for _ in range(detectors._height_limit(forest.subsample_size)):
        node = child[node] + (x[rows, feature[node]] > cut[node])
    return forest.leaf_value[node].sum(axis=1) / forest.roots.size


def iforest_cfg(**kw):
    kw.setdefault("contamination", 0.1)
    return DetectorConfig(kind="iforest", **kw)


def lof_cfg(**kw):
    kw.setdefault("contamination", 0.1)
    kw.setdefault("k_neighbors", 5)
    return DetectorConfig(kind="lof", **kw)


def grid_rows(rng, n, m):
    """Rows drawn from a small half-step grid: many exact duplicates and
    tied k-distances. Each column's offset has 40 fraction bits, so every
    coordinate and difference stays exact after a shift of +1e3, while
    products do not: there the norm expansion alone cancels badly."""
    offset = rng.integers(0, 2**39, size=m) * 2.0**-40
    return rng.integers(0, 4, size=(n, m)) * 0.5 + offset


def assert_lof_matches_oracle(x, query, k, metric, label="", **tol):
    """lof_fit_predict, and lof_fit + lof_score on held-out rows, agree with
    brute_force_lof within ``tol``."""
    cfg = lof_cfg(k_neighbors=k, metric=metric)
    expected = brute_force_lof(x, k, metric)
    assert np.allclose(lof_fit_predict(dataset(x), cfg).scores, expected, **tol), label
    model = lof_fit(dataset(x), cfg)
    assert np.allclose(model.train_scores, expected, **tol), label
    held_out = lof_score(model, dataset(query)).scores
    assert np.allclose(held_out, brute_force_lof(x, k, metric, query=query), **tol), label


def assert_weighted_lof_matches_oracle(x, query, k):
    """On both metrics LOF agrees with brute_force_lof on the expanded rows to
    1e-9 relative, and every copy of a row, trained or queried, gets the same
    score to the bit."""
    for metric in DISTANCE_METRICS:
        assert_lof_matches_oracle(x, query, k, metric, metric, rtol=1e-9, atol=0)
        model = lof_fit(dataset(x), lof_cfg(k_neighbors=k, metric=metric))
        held_out = lof_score(model, dataset(query)).scores
        for rows, scores in ((x, model.train_scores), (query, held_out)):
            _, group = np.unique(rows, axis=0, return_inverse=True)
            group = group.ravel()
            first = np.unique(group, return_index=True)[1]
            assert np.array_equal(scores, scores[first][group]), metric


class TestDetectorConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            DetectorConfig(kind="svm", contamination=0.1)
        with pytest.raises(DataError):
            DetectorConfig(kind="iforest", contamination=0.0)
        with pytest.raises(DataError):
            DetectorConfig(kind="iforest", contamination=0.6)
        with pytest.raises(DataError):
            DetectorConfig(kind="iforest", contamination=0.1, n_trees=0)
        with pytest.raises(DataError):
            DetectorConfig(kind="iforest", contamination=0.1, max_samples=1)
        with pytest.raises(DataError):
            DetectorConfig(kind="lof", contamination=0.1, k_neighbors=0)

    @pytest.mark.parametrize("max_samples", [1, 0, -3, 2.5, 2.0, "abc", "", None, True])
    def test_max_samples_is_auto_or_an_integer_of_at_least_two(self, max_samples):
        with pytest.raises(DataError, match="max_samples"):
            DetectorConfig(kind="iforest", contamination=0.1, max_samples=max_samples)
        for good in ("auto", 2, np.int64(300)):
            assert DetectorConfig(kind="iforest", contamination=0.1, max_samples=good)

    @pytest.mark.parametrize("field", ["n_trees", "k_neighbors"])
    @pytest.mark.parametrize("value", [0, -3, 2.5, 2.0, "3", None, True])
    def test_counts_are_integers_of_at_least_one(self, field, value):
        with pytest.raises(DataError, match=field):
            DetectorConfig(kind="lof", contamination=0.1, **{field: value})
        for good in (1, 7, np.int64(30)):
            cfg = DetectorConfig(kind="lof", contamination=0.1, **{field: good})
            assert getattr(cfg, field) == good

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None, True])
    def test_seed_is_a_non_negative_integer(self, seed):
        with pytest.raises(DataError, match="seed"):
            DetectorConfig(kind="iforest", contamination=0.1, seed=seed)
        for good in (0, 7, np.int64(2**40)):
            assert DetectorConfig(kind="iforest", contamination=0.1, seed=good).seed == good

    def test_unknown_choices_are_listed(self):
        with pytest.raises(DataError, match=r"choose from \('iforest', 'lof'\)"):
            DetectorConfig(kind="svm", contamination=0.1)
        with pytest.raises(DataError, match=r"choose from \('euclidean', 'manhattan'\)"):
            DetectorConfig(kind="lof", contamination=0.1, metric="cosine")

    def test_metric_is_checked(self):
        assert DetectorConfig(kind="lof", contamination=0.1).metric == "euclidean"
        manhattan = DetectorConfig(kind="lof", contamination=0.1, metric="manhattan")
        assert manhattan.metric == "manhattan"
        with pytest.raises(DataError, match="distance metric"):
            DetectorConfig(kind="lof", contamination=0.1, metric="cosine")


class TestDetectionResult:
    def test_flags_are_derived_from_the_scores(self):
        result = DetectionResult(scores=[0.2, 0.9, 0.5, 0.7], threshold=0.5)
        assert result.flags.tolist() == [0, 1, 0, 1]
        assert result.flags.dtype == np.int64 and result.scores.dtype == np.float64

    def test_flags_cannot_be_passed_in(self):
        with pytest.raises(TypeError):
            DetectionResult(scores=[0.2, 0.9], flags=[1, 1], threshold=0.5)


class TestIsolationForest:
    def test_identical_rows_give_flat_scores(self):
        d = dataset(np.tile([0.3, 0.7], (20, 1)))
        forest = iforest_fit(d, iforest_cfg(n_trees=10, seed=1))
        # nothing separates duplicates, so every tree is a single leaf
        assert forest.feature.size == 10
        scores = forest.score_samples(d.values)
        assert np.all(scores == scores[0])
        assert 0.0 < scores[0] < 1.0

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        d = dataset(rng.random((60, 4)))
        a = iforest_score(iforest_fit(d, iforest_cfg(seed=9)), d)
        b = iforest_score(iforest_fit(d, iforest_cfg(seed=9)), d)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.flags, b.flags)
        c = iforest_score(iforest_fit(d, iforest_cfg(seed=10)), d)
        assert not np.array_equal(a.scores, c.scores)

    def test_auto_subsample_resolution(self):
        rng = np.random.default_rng(3)
        small = iforest_fit(dataset(rng.random((100, 2))), iforest_cfg(n_trees=2))
        assert small.subsample_size == 100
        big = iforest_fit(dataset(rng.random((400, 2))), iforest_cfg(n_trees=2))
        assert big.subsample_size == 256
        capped = iforest_fit(
            dataset(rng.random((400, 2))), iforest_cfg(n_trees=2, max_samples=50)
        )
        assert capped.subsample_size == 50

    def test_isolated_point_gets_top_score(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            cluster = rng.normal(scale=0.05, size=(200, 3))
            far = np.full((1, 3), 10.0)
            d = dataset(np.vstack([cluster, far]))
            forest = iforest_fit(d, iforest_cfg(seed=seed))
            scores = forest.score_samples(d.values)
            assert scores.argmax() == 200

    def test_flag_count_matches_contamination(self):
        rng = np.random.default_rng(5)
        d = dataset(rng.random((200, 3)))
        result = iforest_score(
            iforest_fit(d, iforest_cfg(contamination=0.05, seed=0)), d, transductive=True
        )
        assert int(result.flags.sum()) == 10

    def test_flag_count_law_random(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(20, 120))
            contamination = float(rng.uniform(0.02, 0.5))
            d = dataset(rng.random((n, 2)))
            result = iforest_score(
                iforest_fit(d, iforest_cfg(contamination=contamination, n_trees=20)),
                d,
                transductive=True,
            )
            target = contamination * n
            assert result.flags.sum() <= np.ceil(target)
            assert np.all(result.flags == (result.scores > result.threshold))

    def test_scores_stay_inside_unit_interval(self):
        rng = np.random.default_rng(7)
        d = dataset(rng.random((150, 5)))
        forest = iforest_fit(d, iforest_cfg(seed=3))
        scores = forest.score_samples(d.values)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)
        assert not np.isnan(scores).any()

    def test_inductive_threshold_comes_from_training(self):
        rng = np.random.default_rng(8)
        train = dataset(rng.random((120, 3)))
        test = dataset(rng.random((30, 3)))
        forest = iforest_fit(train, iforest_cfg(contamination=0.1, seed=0))
        held_out = iforest_score(forest, test)
        assert held_out.threshold == forest.threshold

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        forest = iforest_fit(dataset(rng.random((30, 3))), iforest_cfg())
        with pytest.raises(DataError):
            iforest_score(forest, dataset(rng.random((5, 4))))

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            iforest_fit(dataset([[1.0, 2.0]]), iforest_cfg())

    def test_packed_forest_matches_per_tree_walk(self):
        rng = np.random.default_rng(21)
        spread = rng.normal(size=(300, 6))
        spread[:, 2] = 1.5  # a constant column
        spread[200:] = spread[rng.integers(0, 200, size=100)]  # duplicate rows
        # one varying column out of 40 (with ties): every split must use it,
        # and most nodes reach the full scan after their single draws miss
        one_column = np.zeros((200, 40))
        one_column[:, 17] = rng.integers(0, 30, size=200) * 0.5
        for x, psi, column in ((spread, 64, None), (one_column, 128, 17)):
            samples = np.stack([rng.choice(x.shape[0], size=psi, replace=False) for _ in range(12)])
            forest = detectors._grow_forest(x, samples, np.random.default_rng(5))
            height_limit = math.ceil(math.log2(psi))
            if column is not None:
                assert set(forest.feature[forest.feature >= 0]) == {column}
            tree_arrays = (forest.feature, forest.cut, forest.left, forest.right)
            held = {}  # node -> (depth, subsample rows reaching it)
            for root, sample in zip(forest.roots, samples):
                for row in sample:
                    for depth, node in enumerate(isolation_tree_path(*tree_arrays, root, x[row])):
                        held.setdefault(node, (depth, []))[1].append(row)
            # every node holds rows, so every split has two non-empty parts
            assert sorted(held) == list(range(forest.feature.size))
            for node, (depth, rows) in held.items():
                f = forest.feature[node]
                if f >= 0:
                    values = x[rows, f]
                    assert values.min() <= forest.cut[node] < values.max()
                    continue
                assert forest.leaf_value[node] == depth + average_path_length(len(rows))
                if depth < height_limit and len(rows) > 1:
                    assert len(np.unique(x[rows], axis=0)) == 1
            # rows equal to each root's cut in every column test the <= rule
            on_cuts = np.repeat(forest.cut[forest.roots][:, None], x.shape[1], axis=1)
            query = np.vstack([x, rng.normal(size=(20, x.shape[1])) * 3, on_cuts])
            assert np.allclose(
                forest.path_lengths(query), isolation_path_lengths(forest, query), rtol=0, atol=1e-12
            )
        model = iforest_fit(dataset(spread), iforest_cfg(n_trees=15, max_samples=100, seed=4))
        assert np.allclose(
            model.path_lengths(spread), isolation_path_lengths(model, spread), rtol=0, atol=1e-12
        )

    def test_block_sizes_change_no_result(self, monkeypatch):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(500, 30))
        x[:, 5:] = 0.0  # constant columns send many nodes to the full scan
        query = rng.normal(size=(301, 30)) * 2
        cfg = iforest_cfg(n_trees=20, seed=8)
        monkeypatch.setattr(detectors, "_usable_cpus", lambda: 1)
        expected = iforest_fit(dataset(x), cfg)
        expected_query = expected.path_lengths(query)
        assert np.array_equal(expected_query, whole_array_walk(expected, query))
        assert np.array_equal(expected.train_scores, expected.score_samples(x))
        # blocks of 3 rows: each thread's range of rows ends in a short block or a full one
        monkeypatch.setattr(detectors, "_BLOCK_CELLS", 7)
        monkeypatch.setattr(detectors, "_PATH_BLOCK_PAIRS", 3 * 20 + 1)
        pools = []

        class RecordingPool(futures.ThreadPoolExecutor):
            def __init__(self, workers):
                super().__init__(workers)
                pools.append(workers)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
        for cpus, pool_threads in ((1, []), (3, [2, 2])):
            monkeypatch.setattr(detectors, "_usable_cpus", lambda: cpus)
            pools.clear()
            model = iforest_fit(dataset(x), cfg)
            query_lengths = model.path_lengths(query)
            assert pools == pool_threads, cpus
            for name in ("feature", "cut", "left", "right", "leaf_value", "train_scores"):
                assert np.array_equal(getattr(model, name), getattr(expected, name)), name
            assert model.threshold == expected.threshold
            assert np.array_equal(query_lengths, expected_query)
            # clip mode would hide an off-by-one flat offset instead of raising
            assert np.allclose(
                query_lengths, isolation_path_lengths(model, query), rtol=0, atol=1e-12
            )

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_scores_after_pooled_fit(self, monkeypatch):
        rng = np.random.default_rng(23)
        d = dataset(rng.normal(size=(3000, 8)))
        monkeypatch.setattr(detectors, "_usable_cpus", lambda: 2)
        model = iforest_fit(d, iforest_cfg(n_trees=50, seed=2))  # walks 3 blocks on 2 threads
        expected = iforest_score(model, d).scores
        pid = os.fork()
        if pid == 0:  # child: score again on two threads, then leave without pytest's teardown
            status = 3
            try:
                signal.alarm(10)
                status = 0 if np.array_equal(iforest_score(model, d).scores, expected) else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 30
        while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if waited[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish scoring within 30 s")
        assert os.waitstatus_to_exitcode(waited[1]) == 0

    def test_walk_allocates_only_its_block_buffers(self, monkeypatch):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(16000, 53))
        model = iforest_fit(dataset(x[:512]), iforest_cfg(n_trees=100, seed=5))
        workers = 3
        monkeypatch.setattr(detectors, "_usable_cpus", lambda: workers)
        rows = detectors._PATH_BLOCK_PAIRS // 100
        block_buffers = rows * 100 * (8 + 8 + 8 + 8 + 1)  # node, index, value, cut_at, right
        tracemalloc.start()
        try:
            lengths = model.path_lengths(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(lengths, whole_array_walk(model, x))
        assert peak <= (workers + 1) * block_buffers + x.shape[0] * 8 + (64 << 10)

    def test_average_path_length_values(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0
        # c(n) grows like 2 ln(n); spot value, computed by hand
        assert average_path_length(256) == pytest.approx(
            2 * (np.log(255) + np.euler_gamma) - 2 * 255 / 256
        )


class TestLof:
    def test_distant_point_has_unique_max(self):
        xs, ys = np.meshgrid(np.arange(6, dtype=float), np.arange(6, dtype=float))
        grid = np.c_[xs.ravel(), ys.ravel()]
        d = dataset(np.vstack([grid, [[30.0, 30.0]]]))
        result = lof_fit_predict(d, lof_cfg(k_neighbors=5))
        assert result.scores.argmax() == 36
        assert np.sum(result.scores == result.scores.max()) == 1

    def test_identical_points_stay_finite_and_equal(self):
        d = dataset(np.tile([0.2, 0.4], (12, 1)))
        result = lof_fit_predict(d, lof_cfg(k_neighbors=3))
        assert np.isfinite(result.scores).all()
        assert np.all(result.scores == result.scores[0])

    def test_two_clusters_without_stragglers(self):
        rng = np.random.default_rng(10)
        a = rng.normal(loc=0.0, scale=0.3, size=(20, 2))
        b = rng.normal(loc=10.0, scale=0.3, size=(20, 2))
        d = dataset(np.vstack([a, b]))
        result = lof_fit_predict(d, lof_cfg(contamination=0.05, k_neighbors=5))
        assert np.all(result.scores < 2.0)
        # whatever gets flagged sits on a cluster rim, not in its core
        centers = np.vstack([a.mean(axis=0), b.mean(axis=0)])
        radius = np.linalg.norm(d.values - centers[(np.arange(40) >= 20).astype(int)], axis=1)
        median_radius = np.r_[
            np.full(20, np.median(radius[:20])), np.full(20, np.median(radius[20:]))
        ]
        for i in np.flatnonzero(result.flags):
            assert radius[i] > median_radius[i]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(10, 50))
            m = int(rng.integers(1, 5))
            k = int(rng.choice([3, 5]))
            x = rng.random((n, m))
            result = lof_fit_predict(dataset(x), lof_cfg(k_neighbors=k))
            expected = brute_force_lof(x, k)
            assert np.allclose(result.scores, expected, atol=1e-9), f"trial {trial}"
        # both metrics, both scoring paths: uniform rows, then tie-heavy grid
        # rows as they are and shifted by +1e3. Duplicates hit the distance
        # floor on the grids, so agreement there is relative.
        cases = itertools.product(DISTANCE_METRICS, ("uniform", "grid", "grid+1e3"), range(8))
        for metric, kind, trial in cases:
            n = int(rng.integers(12, 50))
            m = int(rng.integers(1, 5))
            k = int(rng.choice([3, 5, 10]))
            if kind == "uniform":
                x, query, tol = rng.random((n, m)), rng.random((8, m)), dict(atol=1e-9, rtol=0)
            else:
                rows = grid_rows(rng, n + 8, m) + (1e3 if kind == "grid+1e3" else 0.0)
                x, query = rows[:n], rows[n:]
                tol = dict(rtol=1e-9, atol=0)
            assert_lof_matches_oracle(x, query, k, metric, f"{metric} {kind} trial {trial}", **tol)

    def test_oracle_agreement_with_duplicates_and_manhattan(self):
        # duplicate clusters hit the distance floor, so densities reach 1e12
        # and only relative agreement is meaningful at that magnitude
        rng = np.random.default_rng(12)
        x = rng.integers(0, 3, size=(30, 2)).astype(float)  # many exact duplicates
        for metric in ("euclidean", "manhattan"):
            result = lof_fit_predict(dataset(x), lof_cfg(k_neighbors=4, metric=metric))
            expected = brute_force_lof(x, 4, metric)
            assert np.allclose(result.scores, expected, rtol=1e-9, atol=0)
        # the same rows far from the origin, and held-out copies of them
        query = x[rng.integers(0, 30, size=10)]
        for metric, shift in itertools.product(DISTANCE_METRICS, (0.0, 1e3)):
            assert_lof_matches_oracle(x + shift, query + shift, 4, metric, rtol=1e-9, atol=0)

    def test_block_sizes_change_no_result(self, monkeypatch):
        cases = {
            "grid": (grid_rows(np.random.default_rng(23), 160, 3), 6),
            # binary rows: at most 16 distinct, fewer than k
            "binary": (np.random.default_rng(24).integers(0, 2, size=(400, 4)) * 1.0, 20),
        }

        def fit_and_score(case, metric):
            rows, k = cases[case]
            cut = len(rows) * 3 // 4
            model = lof_fit(dataset(rows[:cut]), lof_cfg(k_neighbors=k, metric=metric))
            held_out = lof_score(model, dataset(rows[cut:])).scores
            return {"train_scores": model.train_scores, "kdist": model.kdist,
                    "lrd": model.lrd, "held_out": held_out}

        runs = list(itertools.product(cases, DISTANCE_METRICS))
        expected = {run: fit_and_score(*run) for run in runs}
        monkeypatch.setattr(detectors, "_BLOCK_CELLS", 7)
        monkeypatch.setattr(detectors, "_PAIR_TILE_CELLS", 3)
        for run in runs:
            for name, values in fit_and_score(*run).items():
                assert np.array_equal(values, expected[run][name]), (run, name)

    @pytest.mark.parametrize("copies,k", [
        ((7, 1, 2, 1), 3),  # a tie group larger than k
        ((4, 2, 1, 1), 3),  # exactly k + 1 copies
        ((3, 3, 1), 3),  # exactly k copies
        ((9, 8), 5),  # fewer distinct rows than k
        ((12,), 3),  # a single distinct row
    ])
    def test_weighted_duplicates_match_the_expanded_rows(self, copies, k):
        rng = np.random.default_rng(25)
        base = grid_rows(rng, len(copies), 2) + np.arange(len(copies))[:, None]
        x = np.repeat(base, copies, axis=0)[rng.permutation(sum(copies))]
        assert_weighted_lof_matches_oracle(x, np.vstack([base, base[:1] + 0.25]), k)

    def test_requires_more_rows_than_neighbors(self):
        d = dataset(np.random.default_rng(13).random((5, 2)))
        with pytest.raises(DataError, match="more rows than neighbors"):
            lof_fit_predict(d, lof_cfg(k_neighbors=5))

    def test_held_out_scoring_uses_train_threshold(self):
        rng = np.random.default_rng(14)
        train = dataset(rng.normal(size=(80, 3)))
        model = lof_fit(train, lof_cfg(contamination=0.1, k_neighbors=10))
        assert model.reference is train  # held, not copied
        inliers = dataset(rng.normal(size=(20, 3)))
        outliers = dataset(rng.normal(loc=8.0, size=(5, 3)))
        res_in = lof_score(model, inliers)
        res_out = lof_score(model, outliers)
        assert res_in.threshold == model.threshold == res_out.threshold
        assert res_out.scores.min() > res_in.scores.max()
        assert res_out.flags.all()

    def test_held_out_dimension_check(self):
        rng = np.random.default_rng(15)
        model = lof_fit(dataset(rng.random((30, 3))), lof_cfg())
        with pytest.raises(DataError):
            lof_score(model, dataset(rng.random((4, 2))))

    def test_query_scores_match_transductive_for_member_points(self):
        # scoring a training point against the training set (self included in
        # the reference) differs from transductive LOF, but a fresh copy of a
        # dense cluster member should still look like an inlier
        rng = np.random.default_rng(16)
        cluster = rng.normal(size=(100, 2))
        model = lof_fit(dataset(cluster), lof_cfg(k_neighbors=10))
        probe = dataset(cluster[:5] + 1e-6)
        assert np.all(lof_score(model, probe).scores < 1.5)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), metric=st.sampled_from(DISTANCE_METRICS))
def test_lof_follows_permutation_and_ignores_translation(data, metric):
    k = data.draw(st.integers(1, 6), label="k")
    n = data.draw(st.integers(k + 1, 40), label="n")
    m = data.draw(st.integers(1, 4), label="m")
    # quarter steps plus shifts in steps of 2**-20 (up to about 1e3) add
    # without rounding, so translation changes no distance and no tie
    x = data.draw(arrays(np.int64, (n, m), elements=st.integers(-8, 8)), label="x") * 0.25
    shift = data.draw(arrays(np.int64, m, elements=st.integers(-2**30, 2**30)), label="shift")
    shift = shift * 2.0**-20
    perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
    cfg = lof_cfg(k_neighbors=k, metric=metric)
    scores = lof_fit_predict(dataset(x), cfg).scores
    permuted = lof_fit_predict(dataset(x[perm]), cfg).scores
    assert np.allclose(permuted, scores[perm], rtol=1e-9, atol=0)
    translated = lof_fit_predict(dataset(x + shift), cfg).scores
    assert np.allclose(translated, scores, rtol=1e-9, atol=0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_iforest_scores_lie_in_unit_interval_and_repeat_per_seed(data):
    n = data.draw(st.integers(2, 30), label="n")
    m = data.draw(st.integers(1, 5), label="m")
    # half steps on a small grid give duplicate rows; some columns constant
    x = data.draw(arrays(np.int64, (n, m), elements=st.integers(-3, 3)), label="x") * 0.5
    x[:, data.draw(arrays(bool, m), label="constant")] = 1.25
    x = np.vstack([x, x[data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="dups")]])
    test = data.draw(
        arrays(np.float64, (5, m), elements=st.floats(-4, 4, allow_nan=False)), label="test"
    )
    cfg = iforest_cfg(
        n_trees=data.draw(st.integers(1, 20), label="n_trees"),
        max_samples=data.draw(st.sampled_from(["auto", 2, 3, 16]), label="max_samples"),
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
    )
    model, again = iforest_fit(dataset(x), cfg), iforest_fit(dataset(x), cfg)
    test_scores = iforest_score(model, dataset(test)).scores
    for scores in (model.train_scores, test_scores):
        assert np.all((scores > 0.0) & (scores < 1.0))
    assert np.array_equal(model.train_scores, again.train_scores)
    assert np.array_equal(test_scores, iforest_score(again, dataset(test)).scores)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), contamination=st.floats(0.01, 0.5))
def test_flags_are_scores_above_the_quantile_of_the_reference(data, contamination):
    n = data.draw(st.integers(7, 30), label="n")
    m = data.draw(st.integers(1, 3), label="m")
    # a small half-step grid gives tied scores, some sitting on the threshold
    x = data.draw(arrays(np.int64, (n, m), elements=st.integers(-3, 3)), label="x") * 0.5
    query = data.draw(arrays(np.int64, (5, m), elements=st.integers(-4, 4)), label="q") * 0.5
    train, test = dataset(x), dataset(query)

    def quantile(reference):
        return float(np.quantile(reference, 1.0 - contamination))

    forest = iforest_fit(train, iforest_cfg(contamination=contamination, n_trees=5))
    lof = lof_fit(train, lof_cfg(contamination=contamination, k_neighbors=3))
    transductive = lof_fit_predict(train, lof_cfg(contamination=contamination, k_neighbors=3))
    assert np.array_equal(transductive.scores, lof.train_scores)
    assert transductive.scores.tobytes() == lof.train_scores.tobytes()
    for result, reference in (
        (iforest_score(forest, test), forest.train_scores),
        (iforest_score(forest, test, transductive=True), None),
        (lof_score(lof, test), lof.train_scores),
        (transductive, None),
    ):
        reference = result.scores if reference is None else reference
        assert result.threshold == quantile(reference)
        assert np.array_equal(result.flags, result.scores > result.threshold)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lof_on_duplicate_rows_matches_the_expanded_rows(data):
    k = data.draw(st.integers(1, 6), label="k")
    m = data.draw(st.integers(1, 3), label="m")
    n_distinct = data.draw(st.integers(1, 6), label="n_distinct")
    base = data.draw(arrays(np.int64, (n_distinct, m), elements=st.integers(-3, 3)), label="base")
    # copy counts around k: tie groups larger than k, of exactly k + 1 and k
    count = st.one_of(st.integers(1, 3), st.just(k), st.just(k + 1), st.integers(k + 2, 2 * k + 2))
    copies = data.draw(st.lists(count, min_size=n_distinct, max_size=n_distinct), label="copies")
    copies[0] += max(0, k + 1 - sum(copies))
    perm = np.array(data.draw(st.permutations(range(sum(copies))), label="perm"))
    x = np.repeat(base * 0.5, copies, axis=0)[perm]
    query = data.draw(arrays(np.int64, (4, m), elements=st.integers(-4, 4)), label="query") * 0.5
    assert_weighted_lof_matches_oracle(x, np.vstack([query, x[:2]]), k)


class TestDistinctRows:
    def test_inverse_rebuilds_the_rows_in_first_appearance_order(self):
        rng = np.random.default_rng(26)
        x = rng.integers(0, 3, size=(60, 2)) * 0.5
        first, copies, inverse = detectors._distinct_rows(x)
        assert np.array_equal(x[first][inverse], x)
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(inverse[first], np.arange(first.size))
        assert np.array_equal(copies, np.bincount(inverse))
        assert np.unique(x[first], axis=0).shape[0] == first.size

    def test_rows_one_bit_apart_stay_apart(self):
        a = np.array([0.3, 2.0, 5.0])
        b = a.copy()
        b[1] = np.nextafter(2.0, 3.0)
        first, copies, inverse = detectors._distinct_rows(np.array([a, b, a, b, a]))
        assert first.tolist() == [0, 1]
        assert copies.tolist() == [3, 2]
        assert inverse.tolist() == [0, 1, 0, 1, 0]

    def test_rows_without_duplicates_give_the_identity(self):
        x = np.random.default_rng(27).random((50, 3))
        first, copies, inverse = detectors._distinct_rows(x)
        assert np.array_equal(first, np.arange(50))
        assert np.array_equal(copies, np.ones(50))
        assert np.array_equal(inverse, np.arange(50))
