import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from outcentr.data import DataError, Dataset, normalize_minmax
from outcentr.ranking import (
    attribute_rank,
    attribute_scores,
    compute_centroid,
    distinguishability_scores,
    export_rank,
    fit_reducer,
    load_rank,
    partition_labels,
    top_t,
    transform,
)


def dataset(values, labels=None, names=None, normalized=True):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = tuple(f"a{j + 1}" for j in range(values.shape[1]))
    norm = tuple((0.0, 1.0) for _ in names) if normalized else None
    return Dataset(values=values, attribute_names=names, labels=labels, normalization=norm)


def random_labeled(rng, n=None, m=None):
    n = n or int(rng.integers(6, 40))
    m = m or int(rng.integers(1, 10))
    values = rng.random((n, m))
    labels = np.zeros(n, dtype=int)
    n_out = int(rng.integers(1, max(2, n // 3)))
    labels[rng.choice(n, size=n_out, replace=False)] = 1
    if labels.sum() == n:
        labels[0] = 0
    return dataset(values, labels=labels)


class TestCentroid:
    def test_mean_of_two_rows(self):
        d = dataset([[0.0, 0.0], [1.0, 1.0]])
        assert compute_centroid(d, [0, 1]).tolist() == [0.5, 0.5]

    def test_single_row_is_identity(self):
        d = dataset([[0.2, 0.9]])
        assert compute_centroid(d, [0]).tolist() == [0.2, 0.9]

    def test_weighted_recombination(self):
        # 2 outlier rows at (0.8, 0.8) and 8 inlier rows at (0.1, 0.1):
        # the full-data centroid is the count-weighted mean of the two
        rows = np.vstack([np.full((2, 2), 0.8), np.full((8, 2), 0.1)])
        d = dataset(rows, labels=np.r_[np.ones(2, dtype=int), np.zeros(8, dtype=int)])
        full = compute_centroid(d, range(10))
        assert np.allclose(full, [0.24, 0.24])
        out_rows, in_rows = partition_labels(d)
        recombined = (2 * compute_centroid(d, out_rows) + 8 * compute_centroid(d, in_rows)) / 10
        assert np.allclose(recombined, full, atol=1e-12)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="zero rows"):
            compute_centroid(dataset([[0.1]]), [])

    def test_weighted_mean_law_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = random_labeled(rng)
            out_rows, in_rows = partition_labels(d)
            c_out = compute_centroid(d, out_rows)
            c_in = compute_centroid(d, in_rows)
            c_all = compute_centroid(d, range(d.n))
            lhs = len(out_rows) * c_out + len(in_rows) * c_in
            assert np.allclose(lhs, d.n * c_all, atol=1e-9)

    def test_partition_returns_two_index_arrays(self):
        d = dataset([[0.1], [0.2], [0.3], [0.4]], labels=np.array([0, 1, 0, 0]))
        out_rows, in_rows = partition_labels(d)
        assert out_rows.dtype == in_rows.dtype == np.int64
        assert out_rows.tolist() == [1] and in_rows.tolist() == [0, 2, 3]

    def test_partition_requires_labels_and_warns_on_majority_outliers(self):
        with pytest.raises(DataError, match="no labels"):
            partition_labels(dataset([[0.1]]))
        with pytest.warns(UserWarning, match="not smaller"):
            partition_labels(dataset([[0.1], [0.2]], labels=np.array([1, 0])))


class TestDistinguishability:
    def centroids(self, out_vals, in_vals):
        return compute_centroid(dataset([out_vals]), [0]), compute_centroid(dataset([in_vals]), [0])

    def test_absolute_gap(self):
        s = distinguishability_scores(*self.centroids([0.9, 0.2], [0.1, 0.2]))
        assert np.allclose(s, [0.8, 0.0])

    def test_identical_centroids_zero(self):
        s = distinguishability_scores(*self.centroids([0.3, 0.7], [0.3, 0.7]))
        assert np.all(s == 0.0)

    def test_maximum_gap(self):
        s = distinguishability_scores(*self.centroids([0.0, 1.0], [1.0, 0.0]))
        assert s.tolist() == [1.0, 1.0]

    def test_length_check(self):
        c_out, _ = self.centroids([0.1], [0.2])
        c_in3 = compute_centroid(dataset([[0.1, 0.2, 0.3]]), [0])
        with pytest.raises(ValueError, match="lengths differ"):
            distinguishability_scores(c_out, c_in3)

    def test_scores_in_unit_interval_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = random_labeled(rng)
            s = distinguishability_scores(
                *(compute_centroid(d, rows) for rows in partition_labels(d))
            )
            assert np.all(s >= 0.0) and np.all(s <= 1.0)


class TestAttributeRank:
    def test_orders_by_score_descending(self):
        rank = attribute_rank([0.1, 0.8, 0.3], ["a1", "a2", "a3"], t=2)
        assert [name for name, _ in rank.entries] == ["a2", "a3", "a1"]
        assert rank.selected == ("a2", "a3")

    def test_ties_break_by_column_index(self):
        rank = attribute_rank([0.5, 0.5, 0.5], ["a1", "a2", "a3"], t=2)
        assert [name for name, _ in rank.entries] == ["a1", "a2", "a3"]
        assert rank.selected == ("a1", "a2")

    def test_nvd_scale_cutoff(self):
        assert top_t(286, 0.10) == 28
        rank = attribute_rank(
            np.linspace(1, 0, 286), [f"a{j}" for j in range(286)], t=top_t(286, 0.10)
        )
        assert len(rank.selected) == 28

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            attribute_rank([0.1], ["a1"], t=2)

    def test_selection_monotonicity_random(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = int(rng.integers(2, 15))
            scores = rng.random(m)
            names = [f"a{j}" for j in range(m)]
            t = int(rng.integers(1, m))
            smaller = set(attribute_rank(scores, names, t).selected)
            larger = set(attribute_rank(scores, names, t + 1).selected)
            assert smaller <= larger


class TestAttributeScores:
    def test_deviations_about_own_centroid_cancel(self):
        d = dataset([[0.2], [0.4]])
        c = compute_centroid(d, [0, 1])
        assert attribute_scores(d, [0, 1], c)[0] == pytest.approx(0.0)

    def test_signed_mean_against_other_class(self):
        d = dataset([[0.9], [0.7]])
        c = compute_centroid(dataset([[0.2]]), [0])
        assert attribute_scores(d, [0, 1], c)[0] == pytest.approx(0.6)

    def test_single_row_equal_to_centroid(self):
        d = dataset([[0.3, 0.6]])
        c = compute_centroid(d, [0])
        assert np.allclose(attribute_scores(d, [0], c), 0.0)

    def test_absolute_variant(self):
        d = dataset([[0.2], [0.4]])
        c = compute_centroid(d, [0, 1])
        assert attribute_scores(d, [0, 1], c, absolute=True)[0] == pytest.approx(0.1)

    def test_empty_rows_and_length_checks(self):
        d = dataset([[0.2, 0.4]])
        with pytest.raises(ValueError, match="empty row set"):
            attribute_scores(d, [], compute_centroid(d, [0]))
        with pytest.raises(ValueError, match="does not match m=2"):
            attribute_scores(d, [0], np.array([0.2]))


class TestFitReducer:
    def two_class(self, rng, n=40, m=6, signal_col=2):
        values = rng.random((n, m)) * 0.05
        labels = np.zeros(n, dtype=int)
        labels[: n // 5] = 1
        values[labels == 1, signal_col] += 0.9
        return dataset(np.clip(values, 0, 1), labels=labels)

    def test_cutoff_fractions(self):
        assert top_t(286, 0.10) == 28
        assert top_t(5, 0.10) == 1

    def test_matches_the_paper_formula_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = random_labeled(rng)
            t_fraction = float(rng.uniform(0.05, 1.0))
            x, y = d.values, d.labels
            gap = np.abs(x[y == 1].mean(axis=0) - x[y == 0].mean(axis=0))
            rank = fit_reducer(d, ratio=1.0, t_fraction=t_fraction)
            names = d.attribute_names
            assert rank.entries == tuple(
                (names[j], float(gap[j])) for j in np.argsort(-gap, kind="stable")
            )
            assert rank.t == top_t(d.m, t_fraction)

    def test_signal_attribute_ranks_first(self):
        d = self.two_class(np.random.default_rng(0))
        rank = fit_reducer(d, t_fraction=0.2)
        assert rank.entries[0][0] == "a3"
        assert rank.selected[0] == "a3"

    def test_requires_normalized(self):
        d = Dataset(
            values=np.random.default_rng(1).random((10, 2)),
            attribute_names=("a1", "a2"),
            labels=np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
        )
        with pytest.raises(DataError, match="normalized"):
            fit_reducer(d)

    def test_requires_both_classes(self):
        d = dataset(np.random.default_rng(2).random((6, 2)), labels=np.zeros(6, dtype=int))
        with pytest.raises(DataError, match="both classes"):
            fit_reducer(d)

    def test_single_outlier_row_is_allowed(self):
        labels = np.zeros(10, dtype=int)
        labels[0] = 1
        d = dataset(np.random.default_rng(3).random((10, 3)), labels=labels)
        rank = fit_reducer(d)
        assert rank.m == 3

    def test_label_budget_is_seed_deterministic(self):
        rng = np.random.default_rng(4)
        d = self.two_class(rng, n=60)
        a = fit_reducer(d, ratio=0.5, seed=7)
        b = fit_reducer(d, ratio=0.5, seed=7)
        assert a == b
        c = fit_reducer(d, ratio=0.5, seed=8)
        assert set(c.selected) <= set(d.attribute_names)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = random_labeled(rng, m=int(rng.integers(2, 8)))
            perm = rng.permutation(d.m)
            shuffled = Dataset(
                values=d.values[:, perm],
                attribute_names=tuple(d.attribute_names[j] for j in perm),
                labels=d.labels,
                normalization=tuple(d.normalization[j] for j in perm),
            )
            rank_a = fit_reducer(d, t_fraction=0.5)
            rank_b = fit_reducer(shuffled, t_fraction=0.5)
            assert dict(rank_a.entries) == dict(rank_b.entries)
            assert set(rank_a.selected) == set(rank_b.selected)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_affine_rescale_leaves_rank_order_unchanged(self, data):
        n = data.draw(st.integers(4, 30), label="n")
        m = data.draw(st.integers(1, 8), label="m")
        raw = data.draw(arrays(np.int64, (n, m), elements=st.integers(-50, 50)), label="raw")
        outliers = data.draw(st.integers(1, (n - 1) // 2), label="outliers")
        labels = (np.arange(n) < outliers).astype(int)
        # positive dyadic scales and dyadic shifts keep every step of the
        # min-max map exact, so both sides normalize to the same bits and
        # tied scores break alike
        scale = data.draw(arrays(np.int64, m, elements=st.integers(1, 64)), label="scale") / 8
        shift = data.draw(arrays(np.int64, m, elements=st.integers(-1000, 1000)), label="shift") / 8
        ratio = data.draw(st.sampled_from([1.0, 0.5]), label="label budget")

        def rank_of(values):
            d = normalize_minmax(dataset(values, labels=labels, normalized=False))
            return fit_reducer(d, ratio=ratio, t_fraction=0.3, seed=7)

        base, moved = rank_of(raw.astype(float)), rank_of(raw * scale + shift)
        assert moved.entries == base.entries
        assert moved.selected == base.selected


class TestTransform:
    def test_keeps_original_column_order(self):
        d = dataset([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        rank = attribute_rank([0.2, 0.1, 0.9], d.attribute_names, t=2)
        projected = transform(d, rank)
        assert projected.attribute_names == ("a1", "a3")
        assert projected.n == 2
        assert np.array_equal(projected.values, d.values[:, [0, 2]])

    def test_full_cutoff_is_identity(self):
        d = dataset([[0.1, 0.2], [0.3, 0.4]], labels=np.array([0, 1]))
        rank = attribute_rank([0.5, 0.6], d.attribute_names, t=2)
        projected = transform(d, rank)
        assert projected.attribute_names == d.attribute_names
        assert np.array_equal(projected.values, d.values)
        assert np.array_equal(projected.labels, d.labels)

    def test_train_and_test_get_same_width(self):
        rng = np.random.default_rng(10)
        train = random_labeled(rng, n=30, m=6)
        test = dataset(rng.random((8, 6)))
        rank = fit_reducer(train, t_fraction=0.5)
        assert transform(train, rank).m == transform(test, rank).m == rank.t

    def test_unknown_attribute(self):
        d = dataset([[0.1]], names=("a1",))
        rank = attribute_rank([0.4, 0.2], ("zz", "a1"), t=1)
        with pytest.raises(DataError, match="unknown attribute"):
            transform(d, rank)


def test_export_and_load_roundtrip(tmp_path):
    rank = attribute_rank([0.4, 0.9, 0.4], ("a1", "a2", "a3"), t=2)
    path = tmp_path / "rank.csv"
    export_rank(rank, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,attribute,distinguishability_score,selected"
    assert lines[1].startswith("1,a2,")
    loaded = load_rank(path)
    assert loaded == rank


def test_load_rank_of_a_directory(tmp_path):
    with pytest.raises(DataError, match="not a file"):
        load_rank(tmp_path)


def test_load_rank_rejects_other_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(DataError, match="not an attribute-rank export"):
        load_rank(path)


@pytest.mark.parametrize(
    "flags, message",
    [
        (("1", "0", "1", "0"), "not a non-empty prefix"),
        (("0", "0", "0", "0"), "not a non-empty prefix"),
        (("0", "1", "1", "0"), "not a non-empty prefix"),
        (("1", "1", "2", "0"), "malformed rank row"),
        (("1", "1", "", "0"), "malformed rank row"),
    ],
)
def test_load_rank_rejects_selected_flags_that_are_not_a_prefix(tmp_path, flags, message):
    path = tmp_path / "rank.csv"
    lines = ["rank,attribute,distinguishability_score,selected"]
    for i, (name, flag) in enumerate(zip("abcd", flags)):
        lines.append(f"{i + 1},{name},{0.9 - 0.1 * i!r},{flag}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=message):
        load_rank(path)


def test_load_rank_rejects_a_duplicated_attribute(tmp_path):
    path = tmp_path / "rank.csv"
    path.write_text(
        "rank,attribute,distinguishability_score,selected\n"
        "1,a,0.9,1\n2,a,0.5,0\n3,b,0.1,0\n"
    )
    with pytest.raises(DataError, match=r"rank\.csv: row 3: attribute 'a' already ranked on row 2"):
        load_rank(path)


def test_a_rank_rejects_a_repeated_attribute(tmp_path):
    # such a rank could be exported, and load_rank would then refuse the file
    with pytest.raises(DataError, match=r"attribute 'a' ranked twice: at rank 1 and 2"):
        attribute_rank([0.5, 0.4, 0.1], ["a", "a", "b"], t=1)


@pytest.mark.parametrize("score", ["x", "", "nan", "inf", "-inf"])
def test_load_rank_rejects_scores_that_are_not_finite_numbers(tmp_path, score):
    path = tmp_path / "rank.csv"
    path.write_text(
        "rank,attribute,distinguishability_score,selected\n"
        f"1,a,0.9,1\n2,b,{score},0\n"
    )
    with pytest.raises(DataError, match=r"rank\.csv: row 3: distinguishability_score"):
        load_rank(path)
