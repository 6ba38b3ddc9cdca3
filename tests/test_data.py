import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outcentr.data import (
    DataError,
    Dataset,
    apply_normalization,
    encode_categoricals,
    load_csv,
    normalize_minmax,
    split,
    write_csv,
)


def make_dataset(values, labels=None, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = [f"a{j + 1}" for j in range(values.shape[1])]
    return Dataset(values=values, attribute_names=tuple(names), labels=labels)


class TestLoadCsv:
    def test_basic_load_with_categorical_and_label(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,target\n1,x,0\n2,y,1\n3,x,0\n")
        d = load_csv(path, label_column="target")
        assert d.n == 3 and d.m == 2
        assert d.attribute_names == ("a", "b")
        assert d.labels.tolist() == [0, 1, 0]
        # first-appearance ordinal encoding of the categorical column
        assert d.values[:, 1].tolist() == [0.0, 1.0, 0.0]
        assert dict(d.categorical_levels) == {"b": ("x", "y")}

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b,target\n")
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(path, label_column="target")

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,target\n1,0\n2,2\n")
        with pytest.raises(DataError, match="non-binary label"):
            load_csv(path, label_column="target")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="expected 2 fields"):
            load_csv(path)

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("a,b\n1,2\n,4\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a\n1\nnan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path)

    @pytest.mark.parametrize(
        "cells,row",
        [(("x", "", "y"), 2), (("", "x", "y"), 1), (("1", "2", ""), 3), (("x", "y", ""), 3)],
    )
    def test_empty_cell_rejected_wherever_it_sits(self, tmp_path, cells, row):
        path = tmp_path / "gap.csv"
        path.write_text("a,b\n" + "".join(f"{i},{cell}\n" for i, cell in enumerate(cells)))
        with pytest.raises(DataError, match=f"missing value in column 'b', row {row}"):
            load_csv(path)

    @pytest.mark.parametrize(
        "cells", [("1", "inf", "abc"), ("abc", "inf", "1"), ("nan", "abc", "2")]
    )
    def test_one_non_numeric_cell_makes_the_column_categorical(self, tmp_path, cells):
        path = tmp_path / "mixed.csv"
        path.write_text("a\n" + "".join(f"{cell}\n" for cell in cells))
        d = load_csv(path)
        assert d.values[:, 0].tolist() == [0.0, 1.0, 2.0]
        assert d.categorical_levels == (("a", cells),)

    def test_custom_label_tokens(self, tmp_path):
        path = tmp_path / "tok.csv"
        path.write_text("a,y\n1,yes\n2,no\n")
        d = load_csv(path, label_column="y", positive_token="yes", negative_token="no")
        assert d.labels.tolist() == [1, 0]

    def test_roundtrip_through_write_csv(self, tmp_path):
        d = make_dataset([[0.5, 1.25], [2.0, -3.5]], labels=np.array([0, 1]))
        path = tmp_path / "out.csv"
        write_csv(d, path, label_column="target")
        back = load_csv(path, label_column="target")
        assert np.array_equal(back.values, d.values)
        assert np.array_equal(back.labels, d.labels)


@pytest.mark.parametrize(
    "raw,expected",
    [
        (["x", "y", "x"], [0, 1, 0]),
        (["a"], [0]),
        (["c", "b", "a", "c"], [0, 1, 2, 0]),
    ],
)
def test_encode_categoricals(raw, expected):
    codes, levels = encode_categoricals(raw)
    assert codes.tolist() == expected
    assert len(levels) == len(set(raw))


class TestNormalize:
    def test_spans_to_unit_interval(self):
        d = normalize_minmax(make_dataset([[2.0], [4.0], [6.0]]))
        assert d.values[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert d.normalization == ((2.0, 6.0),)

    def test_constant_column_maps_to_zero(self):
        d = normalize_minmax(make_dataset([[5.0], [5.0], [5.0]]))
        assert d.values[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_negative_values(self):
        d = normalize_minmax(make_dataset([[-1.0], [0.0], [1.0]]))
        assert d.values[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_double_normalize_rejected(self):
        d = normalize_minmax(make_dataset([[1.0], [2.0]]))
        with pytest.raises(DataError, match="already normalized"):
            normalize_minmax(d)

    def test_apply_clips_out_of_range(self):
        train = normalize_minmax(make_dataset([[2.0], [6.0]]))
        test = apply_normalization(make_dataset([[8.0], [4.0], [0.0]]), train.normalization)
        assert test.values[:, 0].tolist() == [1.0, 0.5, 0.0]

    def test_apply_constant_column(self):
        test = apply_normalization(make_dataset([[2.0]]), ((2.0, 2.0),))
        assert test.values[0, 0] == 0.0

    def test_apply_state_mismatch(self):
        with pytest.raises(DataError, match="normalization state"):
            apply_normalization(make_dataset([[1.0, 2.0]]), ((0.0, 1.0),))

    def test_apply_is_idempotent_on_training_data(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            raw = make_dataset(rng.normal(size=(rng.integers(2, 30), rng.integers(1, 8))) * 10)
            normalized = normalize_minmax(raw)
            replayed = apply_normalization(raw, normalized.normalization)
            assert np.array_equal(replayed.values, normalized.values)

    def test_positive_affine_rescale_is_bit_identical(self):
        # integer data and integer scale/shift keep every step of the min-max
        # map in exact float arithmetic, so the law holds bitwise
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m = rng.integers(2, 25), rng.integers(1, 6)
            raw = rng.integers(-50, 50, size=(n, m)).astype(float)
            a = rng.integers(1, 9, size=m).astype(float)
            b = rng.integers(-5, 6, size=m).astype(float)
            base = normalize_minmax(make_dataset(raw))
            rescaled = normalize_minmax(make_dataset(raw * a + b))
            assert np.array_equal(base.values, rescaled.values)


class TestSplit:
    def test_stratified_counts(self):
        labels = np.zeros(100, dtype=int)
        labels[:5] = 1
        d = make_dataset(np.arange(200).reshape(100, 2), labels=labels)
        pair = split(d, 0.8, seed=3)
        assert pair.train.n == 80 and pair.test.n == 20
        assert int(pair.train.labels.sum()) == 4
        assert int(pair.test.labels.sum()) == 1

    def test_deterministic(self):
        labels = np.r_[np.ones(6, dtype=int), np.zeros(34, dtype=int)]
        d = make_dataset(np.random.default_rng(0).normal(size=(40, 3)), labels=labels)
        a = split(d, 0.8, seed=42)
        b = split(d, 0.8, seed=42)
        assert np.array_equal(a.train.values, b.train.values)
        assert np.array_equal(a.test.values, b.test.values)

    def test_partition_covers_source(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            n = int(rng.integers(10, 60))
            labels = np.zeros(n, dtype=int)
            labels[: max(2, n // 8)] = 1
            d = make_dataset(rng.normal(size=(n, 2)), labels=labels)
            pair = split(d, float(rng.uniform(0.2, 0.9)), seed=seed)
            merged = np.vstack([pair.train.values, pair.test.values])
            assert sorted(map(tuple, merged)) == sorted(map(tuple, d.values))
            assert pair.train.n + pair.test.n == n

    @settings(max_examples=100, deadline=None)
    @given(
        n_out=st.integers(2, 40),
        n_in=st.integers(2, 200),
        fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_class_keeps_its_ratio_within_one_row(self, n_out, n_in, fraction, seed):
        labels = np.r_[np.ones(n_out, dtype=int), np.zeros(n_in, dtype=int)]
        d = make_dataset(np.arange(n_out + n_in)[:, None], labels=labels)
        pair = split(d, fraction, seed=seed)
        for cls, size in ((1, n_out), (0, n_in)):
            in_train = int((pair.train.labels == cls).sum())
            assert abs(in_train - fraction * size) <= 1
            assert 1 <= in_train <= size - 1
            assert in_train + int((pair.test.labels == cls).sum()) == size

    def test_each_class_in_both_parts(self):
        labels = np.r_[np.ones(2, dtype=int), np.zeros(8, dtype=int)]
        d = make_dataset(np.arange(10)[:, None], labels=labels)
        pair = split(d, 0.9, seed=0)
        assert 1 in pair.train.labels and 1 in pair.test.labels

    def test_requires_labels(self):
        with pytest.raises(DataError, match="labels"):
            split(make_dataset([[1.0], [2.0]]), 0.8, seed=0)

    def test_tiny_class_rejected(self):
        d = make_dataset([[1.0], [2.0], [3.0]], labels=np.array([1, 0, 0]))
        with pytest.raises(DataError, match="fewer than 2"):
            split(d, 0.8, seed=0)


class TestContainers:
    def test_dataset_validations(self):
        with pytest.raises(DataError):
            Dataset(values=np.ones((2, 2)), attribute_names=("a",))
        with pytest.raises(DataError):
            Dataset(values=np.ones((2, 2)), attribute_names=("a", "a"))
        with pytest.raises(DataError):
            Dataset(values=np.ones((2, 1)), attribute_names=("a",), labels=np.array([0, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, bad], [6.0, bad, 8.0]])
        # the first column holding a non-finite value is named, with its first bad row
        with pytest.raises(DataError, match=rf"non-finite value {bad} in column 'b', row 3"):
            Dataset(values=values, attribute_names=("a", "b", "c"))

    def test_values_are_read_only(self):
        d = make_dataset([[1.0, 2.0]])
        with pytest.raises(ValueError):
            d.values[0, 0] = 9.0
