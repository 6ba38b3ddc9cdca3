import csv
import dataclasses
import io
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from outcentr import data
from outcentr.baselines import pca_fit
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
from outcentr.detectors import DetectorConfig, iforest_fit, iforest_score, lof_fit

from oracles import CsvRejected, csv_dataset


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

    def test_directory_is_not_a_file(self, tmp_path):
        with pytest.raises(DataError, match="not a file"):
            load_csv(tmp_path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="expected 2 fields"):
            load_csv(path)

    def test_ragged_row_after_a_quoted_newline_names_its_line(self, tmp_path):
        # the short row is the file's fourth line but its third record
        path = tmp_path / "ragged.csv"
        path.write_text('a,b\n"x\ny",1\n1\n')
        with pytest.raises(DataError, match="^line 4: expected 2 fields, got 1$"):
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
        "cell,value",
        [
            ("1_000", 1000.0),
            ("１２", 12.0),
            ("٣", 3.0),
            ("١٢", 12.0),
            ("\x1c5", 5.0),
            ("\u3000-7\t", -7.0),
            ("infinity", np.inf),
        ],
    )
    def test_float_syntax_decides_a_numeric_cell(self, tmp_path, cell, value):
        path = tmp_path / "num.csv"
        path.write_text(f"a\n0\n{cell}\n", encoding="utf-8")
        if np.isfinite(value):
            d = load_csv(path)
            assert d.values[:, 0].tolist() == [0.0, value] and d.categorical_levels == ()
        else:
            # parsed as a number and then rejected; a token would have been encoded
            with pytest.raises(DataError, match="non-finite value inf in column 'a', row 2"):
                load_csv(path)

    @pytest.mark.parametrize(
        "cells,row",
        [
            (("x", "", "y"), 2),
            (("", "x", "y"), 1),
            (("1", "2", ""), 3),
            (("x", "y", ""), 3),
            # a whitespace-only cell is missing too, in a numeric or a text column
            (("1", " \t", "2"), 2),
            (("x", "y", "\x1f "), 3),
        ],
    )
    def test_empty_cell_rejected_wherever_it_sits(self, tmp_path, cells, row):
        path = tmp_path / "gap.csv"
        path.write_text("a,b\n" + "".join(f"{i},{cell}\n" for i, cell in enumerate(cells)))
        with pytest.raises(DataError, match=f"missing value in column 'b', row {row}"):
            load_csv(path)

    @pytest.mark.parametrize(
        "cells",
        [
            ("1", "inf", "abc"),
            ("abc", "inf", "1"),
            ("nan", "abc", "2"),
            # tokens are stored stripped; a stripped numeric cell is still a token here
            (" abc ", "\x1c5", "x\t"),
        ],
    )
    def test_one_non_numeric_cell_makes_the_column_categorical(self, tmp_path, cells):
        path = tmp_path / "mixed.csv"
        path.write_text("a\n" + "".join(f"{cell}\n" for cell in cells))
        d = load_csv(path)
        assert d.values[:, 0].tolist() == [0.0, 1.0, 2.0]
        assert d.categorical_levels == (("a", tuple(cell.strip() for cell in cells)),)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Excel writes UTF-8 CSV files with a BOM ahead of the first header cell
        text = "label,a,b\n0,1.5,x\n1,2.5,y\n0,3.5,x\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a = load_csv(plain, label_column="label")
        b = load_csv(marked, label_column="label")
        assert a.attribute_names == b.attribute_names == ("a", "b")
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)
        assert (a.normalization, a.categorical_levels) == (b.normalization, b.categorical_levels)

    def test_custom_label_tokens(self, tmp_path):
        path = tmp_path / "tok.csv"
        path.write_text("a,y\n1,yes\n2,no\n")
        d = load_csv(path, label_column="y", positive_token="yes", negative_token="no")
        assert d.labels.tolist() == [1, 0]

    @settings(max_examples=100, deadline=None)
    @given(
        values=arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, max_side=6),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
    )
    @example(values=np.array([[0.5, -0.0, 5e-324], [1.7e308, -1.7e308, -2.2250738585072014e-308]]))
    def test_roundtrip_through_write_csv(self, values):
        d = make_dataset(values, labels=np.arange(len(values)) % 2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            write_csv(d, path)
            back = load_csv(path, label_column="label")
        # bit-identical: -0.0, subnormals and the largest finite floats come back as written
        assert back.values.tobytes() == d.values.tobytes()
        assert np.array_equal(back.labels, d.labels)

    def test_colliding_label_column_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"precious\n")
        d = make_dataset([[1.0], [2.0]], labels=[0, 1], names=["label"])
        with pytest.raises(DataError, match="label column name 'label' collides"):
            write_csv(d, path)
        assert path.read_bytes() == b"precious\n"


def _row_wise_calls(monkeypatch):
    """A list that grows by one each time load_csv hands a file to its row-wise reader."""
    calls = []
    row_wise = data._load_csv_rows

    def spy(*args):
        calls.append(args)
        return row_wise(*args)

    monkeypatch.setattr(data, "_load_csv_rows", spy)
    return calls


class TestLoadCsvReader:
    """A clean file is read by numpy's C reader; any other by csv.reader, row by row."""

    def test_clean_file_loads_through_numpys_reader(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a clean file went to the row-wise reader")

        monkeypatch.setattr(data, "_load_csv_rows", refuse)
        path = tmp_path / "clean.csv"
        path.write_bytes(
            "\ufeffproto, n ,label,note\r\n"
            'tcp,1.5,attack,"say ""hi"""\r\n'
            ' udp ,-2e3,normal,"x\r\ny"\r\n'
            "tcp,\x1c7\xa0,normal,plain".encode()
        )
        d = load_csv(path, label_column="label", positive_token="attack", negative_token="normal")
        assert d.attribute_names == ("proto", "n", "note")
        assert d.values.tolist() == [[0.0, 1.5, 0.0], [1.0, -2000.0, 1.0], [0.0, 7.0, 2.0]]
        assert d.labels.tolist() == [1, 0, 0]
        assert d.categorical_levels == (
            ("proto", ("tcp", "udp")),
            ("note", ('say "hi"', "x\r\ny", "plain")),
        )

    @pytest.mark.parametrize(
        "text,label,expected,row_wise",
        [
            # given a path, np.loadtxt would read the quoted \r\n as \n
            ('s,n\r\n"x\r\ny",1\r\n"x\ny",2\r\n', None,
             ([[0, 1], [1, 2]], {"s": ("x\r\ny", "x\ny")}), False),
            ('s,n\n"say ""hi""",1\nb,2\n', None, ([[0, 1], [1, 2]], {"s": ('say "hi"', "b")}),
             False),
            ("a\n\x1c5\n\xa05\xa0\n", None, ([[5], [5]], {}), False),
            # float() reads these and np.loadtxt does not: the column stays numeric
            ("a\n1_000\n١٢\n", None, ([[1000], [12]], {}), True),
            # np.loadtxt reads these as inf, and the shared column rules reject it
            ("a\n1\n1e500\n", None, "non-finite value inf in column 'a', row 2", False),
            ("a\n1\ninFinitY\n", None, "non-finite value inf in column 'a', row 2", False),
            ("", None, "empty dataset", True),
            # np.loadtxt skips a blank line
            ("a\n1\n2\n\n", None, "line 4: expected 1 fields, got 0", True),
            ("a\n1\n2\n\r\n", None, "line 4: expected 1 fields, got 0", True),
            ("a,b\n1,2\n\n3,4\n", None, "line 3: expected 2 fields, got 0", True),
            # with usecols, np.loadtxt would drop the extra field
            ("a,b\n1,2\n3,4,5\n", None, "line 3: expected 2 fields, got 3", True),
            ("a,b,c\n1,2\n3,4\n", None, "line 2: expected 3 fields, got 2", True),
            # skiprows counts lines, not records
            ('"a\nb",c\nx,y\n', None, ([[0, 0]], {"a\nb": ("x",), "c": ("y",)}), True),
            ("a\n1\nx\n", None, ([[0], [1]], {"a": ("1", "x")}), True),
            # a clean layout with a bad cell or header: the shared column rules reject it
            ("a\nx\n \n", None, "missing value in column 'a', row 2", False),
            ("a,label\n1,0\n2,2\n", "label", "non-binary label '2'", False),
            ("a,label,label\n1,0,0\n", "label", "duplicate column names in header", False),
            ("label\n0\n1\n", "label", "empty dataset", False),
            # np.loadtxt has no field size limit; a field past csv's is left to csv.reader
            pytest.param(
                "a,b\ny,0\n" + "x" * 200_000 + ",1\n", "b",
                "field larger than field limit (131072)", True, id="long-text-field",
            ),
            pytest.param(
                "a,b\n1,0\n" + "0" * 200_000 + "1,1\n", "b",
                "field larger than field limit (131072)", True, id="long-numeric-field",
            ),
            pytest.param(
                'a,b\n1,0\n"1' + " \n" * 70_000 + '",1\n', "b",
                "field larger than field limit (131072)", True, id="long-field-over-short-lines",
            ),
            pytest.param(
                "a\na\x00\nb\n", None, ([[0], [1]], {"a": ("a\x00", "b")}), True,
                marks=pytest.mark.skipif(
                    sys.version_info < (3, 11), reason="csv.reader rejects NUL before Python 3.11"
                ),
            ),
        ],
    )
    def test_doubtful_file_loads_or_fails_as_the_row_wise_reader_has_it(
        self, tmp_path, monkeypatch, text, label, expected, row_wise
    ):
        calls = _row_wise_calls(monkeypatch)
        path = tmp_path / "trap.csv"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises((DataError, csv.Error), match=f"^{re.escape(expected)}$"):
                load_csv(path, label)
        else:
            d = load_csv(path, label)
            assert (d.values.tolist(), dict(d.categorical_levels)) == expected
        assert bool(calls) == row_wise


_PADDING = st.text(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000", max_size=2)
_FINITE = ("0", "1", "-2.5", "1e3", "1_000", "１２", "٣", "١٢", "-0", "5e-324", "1.7e308")
_NUMBERS = _FINITE + ("nan", "inf", "infinity")
_TOKENS = ("a", "a\x00", "a b", "x,y", 'say "hi"', "x\ny", "x\r\ny", "1e", "0x1", "")
_LABELS = ("0", "1") * 3 + ("1.0", "-0", "0e0", "yes", "no", "2", "nan", "")


@st.composite
def _padded(draw, cores):
    return draw(_PADDING) + draw(st.sampled_from(cores)) + draw(_PADDING)


@st.composite
def _csv_tables(draw):
    """The text of a CSV file: numeric, text and mixed columns, padded cells,
    maybe a label, LF or CRLF line ends, now and then a blank line, a
    repeated column name or a label column alone, and header cells that may
    span two lines."""
    n, m = draw(st.integers(0, 5)), draw(st.sampled_from([1, 2, 3] * 3 + [0]))
    columns = []
    for _ in range(m):
        # _FINITE holds only finite numbers, so some tables load
        pool = draw(st.sampled_from([_NUMBERS, _FINITE, _TOKENS, _NUMBERS + _TOKENS]))
        column = draw(st.lists(_padded(pool), min_size=n, max_size=n))
        if column and draw(st.booleans()):
            column[0] = draw(_padded(_FINITE))  # a number first, whatever follows
        columns.append(column)
    names = [f"c{j}" for j in range(m)]
    if m > 1 and draw(st.integers(0, 7)) == 7:
        names[-1] = names[0]
    header = [draw(st.sampled_from([f" {c} ", f"{c}\n", f"{c}\r\n"])) for c in names]
    if not m or draw(st.booleans()):
        at = draw(st.integers(0, m))
        header.insert(at, "label")
        columns.insert(at, draw(st.lists(_padded(_LABELS), min_size=n, max_size=n)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow(row)
        if draw(st.integers(0, 7)) == 7:
            out.write(end)
    return out.getvalue()


def _loaded(path, label, tokens):
    """load_csv's Dataset as comparable parts, or its error message."""
    try:
        d = load_csv(path, label, *tokens)
    except (DataError, csv.Error) as exc:  # csv.reader rejects NUL before Python 3.11
        return str(exc)
    labels = None if d.labels is None else d.labels.tolist()
    return d.values.tobytes(), d.values.shape, d.attribute_names, labels, d.categorical_levels


def _expected(path, label, tokens):
    """The oracle's Dataset as the same parts, or the message it must fail with."""
    try:
        values, names, labels, levels = csv_dataset(path, label, *tokens)
    except (CsvRejected, csv.Error) as exc:
        return str(exc)
    return values.tobytes(), values.shape, names, labels, levels


class TestLoadCsvAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        text=_csv_tables(),
        label=st.sampled_from([None, "label", "c0"]),
        tokens=st.sampled_from([("1", "0"), ("yes", "no")]),
    )
    @example(text="c0,label\r\n1,0\r\n\r\n2,1\r\n", label="label", tokens=("1", "0"))
    @example(text="c0\n1\n2\n\n", label=None, tokens=("1", "0"))
    @example(text='"c\n0",c1\r\n"x\r\ny",1\r\n"say ""hi""",2\r\n', label=None, tokens=("1", "0"))
    @example(text="c0,c1\n1,٣\nx,١٢\n", label=None, tokens=("1", "0"))
    @example(text='c0,label\n"a,b",yes\n"a\nb",no\n', label="label", tokens=("yes", "no"))
    def test_same_dataset_or_same_error(self, text, label, tokens):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_text(text, encoding="utf-8", newline="")
            assert _loaded(path, label, tokens) == _expected(path, label, tokens)


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
        assert np.array_equal(d.normalization, [[2.0, 6.0]])

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

    @settings(max_examples=200, deadline=None)
    @given(
        values=arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=8),
            elements=st.floats(-1e307, 1e307),
        ),
    )
    @example(values=np.array([[3.0, -1e300], [3.0, 1e300], [2.0, 5.0], [4.0, 1e307]]))
    def test_each_cell_follows_the_min_max_formula(self, values):
        # fit on the first half of the rows: the rest may fall outside its range and
        # clip, and over a tiny span a quotient may overflow to inf, which clips to 1
        fitted = values[: len(values) // 2]
        with np.errstate(over="ignore"):
            train = normalize_minmax(make_dataset(fitted))
            held = apply_normalization(make_dataset(values), train.normalization)
        state = train.normalization.tolist()
        assert state == [[min(c), max(c)] for c in fitted.T.tolist()]
        want = [
            [min(max((x - lo) / (hi - lo), 0.0), 1.0) if hi - lo > 0 else 0.0 for x in column]
            for (lo, hi), column in zip(state, values.T.tolist())
        ]
        assert held.values.T.tolist() == want

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
        train, test = split(d, 0.8, seed=3)
        assert train.n == 80 and test.n == 20
        assert int(train.labels.sum()) == 4
        assert int(test.labels.sum()) == 1

    def test_deterministic(self):
        labels = np.r_[np.ones(6, dtype=int), np.zeros(34, dtype=int)]
        d = make_dataset(np.random.default_rng(0).normal(size=(40, 3)), labels=labels)
        a_train, a_test = split(d, 0.8, seed=42)
        b_train, b_test = split(d, 0.8, seed=42)
        assert np.array_equal(a_train.values, b_train.values)
        assert np.array_equal(a_test.values, b_test.values)

    def test_partition_covers_source(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            n = int(rng.integers(10, 60))
            labels = np.zeros(n, dtype=int)
            labels[: max(2, n // 8)] = 1
            d = make_dataset(rng.normal(size=(n, 2)), labels=labels)
            train, test = split(d, float(rng.uniform(0.2, 0.9)), seed=seed)
            merged = np.vstack([train.values, test.values])
            assert sorted(map(tuple, merged)) == sorted(map(tuple, d.values))
            assert train.n + test.n == n

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
        train, test = split(d, fraction, seed=seed)
        for cls, size in ((1, n_out), (0, n_in)):
            in_train = int((train.labels == cls).sum())
            assert abs(in_train - fraction * size) <= 1
            assert 1 <= in_train <= size - 1
            assert in_train + int((test.labels == cls).sum()) == size

    def test_each_class_in_both_parts(self):
        labels = np.r_[np.ones(2, dtype=int), np.zeros(8, dtype=int)]
        d = make_dataset(np.arange(10)[:, None], labels=labels)
        train, test = split(d, 0.9, seed=0)
        assert 1 in train.labels and 1 in test.labels

    def test_requires_labels(self):
        with pytest.raises(DataError, match="labels"):
            split(make_dataset([[1.0], [2.0]]), 0.8, seed=0)

    def test_tiny_class_rejected(self):
        d = make_dataset([[1.0], [2.0], [3.0]], labels=np.array([1, 0, 0]))
        with pytest.raises(DataError, match="fewer than 2"):
            split(d, 0.8, seed=0)


def _labeled():
    rng = np.random.default_rng(0)
    return normalize_minmax(make_dataset(rng.random((12, 3)), labels=np.array([1, 1] + [0] * 10)))


def _forest():
    return iforest_fit(_labeled(), DetectorConfig(kind="iforest", contamination=0.2, n_trees=3))


# every container that holds arrays, built from a small labeled dataset
CONTAINERS = {
    "Dataset": _labeled,
    "DetectionResult": lambda: iforest_score(_forest(), _labeled()),
    "IsolationForestModel": _forest,
    "LofModel": lambda: lof_fit(
        _labeled(), DetectorConfig(kind="lof", contamination=0.2, k_neighbors=3)
    ),
    "PcaModel": lambda: pca_fit(_labeled(), 2),
}


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

    @pytest.mark.parametrize("container", sorted(CONTAINERS))
    def test_values_are_read_only(self, container):
        obj = CONTAINERS[container]()
        arrays = {
            f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), np.ndarray)
        }
        assert arrays
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr.flat[0] = 1


class TestAdoption:
    """A Dataset keeps an array uncopied only when it is read-only, owns its
    data, is C-contiguous and has the field's dtype."""

    def test_a_writeable_array_is_copied(self):
        arr = np.ones((3, 2))
        d = Dataset(values=arr, attribute_names=("a", "b"))
        assert arr.flags.writeable
        arr[0, 0] = 5.0
        assert d.values[0, 0] == 1.0

    def test_a_read_only_array_that_owns_its_data_is_adopted(self):
        arr = np.ones((3, 2))
        arr.setflags(write=False)
        assert Dataset(values=arr, attribute_names=("a", "b")).values is arr

    def test_a_read_only_view_is_copied(self):
        arr = np.ones((4, 2))[1:]  # C-contiguous, but its base stays alive
        arr.setflags(write=False)
        d = Dataset(values=arr, attribute_names=("a", "b"))
        assert d.values is not arr and d.values.base is None

    @pytest.mark.parametrize("producer", ["split", "normalize_minmax", "apply_normalization"])
    def test_a_producer_allocates_little_beyond_its_results(self, producer):
        """Each Dataset adopts the matrix its producer built, uncopied."""
        rng = np.random.default_rng(24)
        d = make_dataset(rng.normal(size=(16000, 53)), labels=rng.random(16000) < 0.05)
        train, test = split(d, 0.8, seed=0)
        state = normalize_minmax(train).normalization
        call = {
            "split": lambda: split(d, 0.8, seed=0),
            "normalize_minmax": lambda: (normalize_minmax(train),),
            "apply_normalization": lambda: (apply_normalization(test, state),),
        }[producer]
        call()  # first-call allocations of numpy are not the producer's
        tracemalloc.start()
        try:
            results = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * sum(r.values.nbytes for r in results)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Dataset(values=np.ones(3), attribute_names=("a",)),
         "values must be 2-D, got shape (3,)"),
        (lambda: make_dataset([[1.0], [2.0]], labels=[0, 1, 0]),
         "labels length (3,) does not match n=2"),
        (lambda: Dataset(values=[[0.5]], attribute_names=("a",), normalization=[(0.0, 1.0)] * 2),
         "normalization state has shape (2, 2) for m=1"),
        (lambda: apply_normalization(make_dataset([[1.0, 2.0]]), [(0.0, 1.0)] * 3),
         "normalization state has shape (3, 2) for m=2"),
        (lambda: Dataset(values=[[0.5]], attribute_names=("a",), normalization=[[np.nan, np.inf]]),
         "normalization state (nan, inf) of column 'a' is not a finite min <= max"),
        (lambda: apply_normalization(make_dataset([[2.0], [3.0], [4.0]]), [(5.0, 1.0)]),
         "normalization state (5.0, 1.0) of column 'a1' is not a finite min <= max"),
        (lambda: apply_normalization(make_dataset([[2.0], [3.0], [4.0]]), [(np.nan, 3.0)]),
         "normalization state (nan, 3.0) of column 'a1' is not a finite min <= max"),
        (lambda: apply_normalization(make_dataset([[1.0, 2.0]]), [(0.0, 1.0), (-np.inf, 3.0)]),
         "normalization state (-inf, 3.0) of column 'a2' is not a finite min <= max"),
        (lambda: split(make_dataset([[1.0], [2.0], [3.0], [4.0]], labels=[0, 1, 0, 1]), 1.0, 0),
         "train_fraction must be in (0, 1), got 1.0"),
    ],
    ids=["values-not-2d", "labels-length", "dataset-state-shape", "replayed-state-shape",
         "dataset-state-not-finite", "replayed-state-swapped", "replayed-state-nan",
         "replayed-state-infinite", "split-fraction"],
)
def test_rejects_bad_input_naming_it(call, message):
    with pytest.raises(DataError) as raised:
        call()
    assert str(raised.value) == message
