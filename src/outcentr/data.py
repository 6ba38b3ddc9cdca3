"""Tabular dataset loading, encoding, min-max scaling, and stratified splitting.

Every other module consumes the :class:`Dataset` container defined here. All
containers are immutable after construction (arrays are marked read-only), so
they are safe to share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Malformed input data or an inconsistent dataset operation."""


def freeze_fields(obj, *names, dtype=np.float64) -> None:
    """Replace each named field of a frozen dataclass with a read-only array copy.

    The copy is cast to ``dtype``; ``dtype=None`` keeps each field's own dtype.
    """
    for name in names:
        arr = np.array(getattr(obj, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def existing_file(path, what: str = "file", error: type[Exception] = DataError) -> Path:
    """``path`` as a Path, or ``error`` if it names no file; a directory is not a file."""
    path = Path(path)
    if not path.is_file():
        raise error(f"not a file: {path}" if path.exists() else f"no such {what}: {path}")
    return path


def is_integer_of_at_least(value, low: int) -> bool:
    """True for an int or numpy integer (bool excluded) that is >= low."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and value >= low


@dataclass(frozen=True)
class Dataset:
    """An n-by-m numeric matrix with named attributes and optional binary labels.

    Attributes:
        values: (n, m) matrix of finite floats, one row per record.
        attribute_names: m distinct column names, in column order.
        labels: optional (n,) array of 0/1 marks, 1 = outlier.
        normalization: per-attribute (min, max) pairs recorded by
            :func:`normalize_minmax`; ``None`` before scaling.
        categorical_levels: ((name, (level, ...)), ...) ordinal-encoding maps
            recorded by :func:`load_csv` for reporting.
    """

    values: np.ndarray
    attribute_names: tuple[str, ...]
    labels: np.ndarray | None = None
    normalization: tuple[tuple[float, float], ...] | None = None
    categorical_levels: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self):
        freeze_fields(self, "values")
        values = self.values
        if values.ndim != 2:
            raise DataError(f"values must be 2-D, got shape {values.shape}")
        n, m = values.shape
        if n < 1 or m < 1:
            raise DataError("empty dataset")
        names = tuple(str(a) for a in self.attribute_names)
        if len(names) != m:
            raise DataError(f"{len(names)} attribute names for {m} columns")
        if len(set(names)) != m:
            raise DataError("attribute names must be distinct")
        finite = np.isfinite(values)
        if not finite.all():
            j = int(np.flatnonzero(~finite.all(axis=0))[0])
            i = int(np.flatnonzero(~finite[:, j])[0])
            raise DataError(f"non-finite value {values[i, j]} in column {names[j]!r}, row {i + 1}")
        object.__setattr__(self, "attribute_names", names)
        if self.labels is not None:
            freeze_fields(self, "labels", dtype=np.int64)
            if self.labels.shape != (n,):
                raise DataError(f"labels length {self.labels.shape} does not match n={n}")
            if not np.isin(self.labels, (0, 1)).all():
                raise DataError("labels must be 0 or 1")
        if self.normalization is not None:
            state = tuple((float(lo), float(hi)) for lo, hi in self.normalization)
            if len(state) != m:
                raise DataError(f"normalization state has {len(state)} entries for m={m}")
            if values.min() < -1e-9 or values.max() > 1 + 1e-9:
                raise DataError("normalized dataset has cells outside [0, 1]")
            object.__setattr__(self, "normalization", state)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def index_of(self, name: str) -> int:
        try:
            return self.attribute_names.index(name)
        except ValueError:
            raise DataError(f"unknown attribute {name!r}") from None

    def take_rows(self, rows) -> Dataset:
        """New dataset restricted to the given row indices (order preserved)."""
        rows = np.asarray(rows, dtype=np.int64)
        return replace(
            self,
            values=self.values[rows],
            labels=None if self.labels is None else self.labels[rows],
        )


@dataclass(frozen=True)
class SplitPair:
    """A train/test partition of one dataset, tagged with the seed that made it."""

    train: Dataset
    test: Dataset
    seed: int


def encode_categoricals(raw) -> tuple[np.ndarray, tuple[str, ...]]:
    """Ordinal-encode a column of strings by first appearance.

    Each distinct string, compared exactly, maps to 0, 1, 2, ... in the order
    it first occurs. Returns the encoded column and the level list (index = code).
    """
    levels = tuple(dict.fromkeys(raw))
    codes = dict(zip(levels, map(float, range(len(levels)))))
    return np.fromiter(map(codes.__getitem__, raw), dtype=np.float64, count=len(raw)), levels


def _parse_label(token: str, positive: str, negative: str) -> int:
    token = token.strip()
    if token == positive:
        return 1
    if token == negative:
        return 0
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"non-binary label {token!r}") from None
    if value == 1.0:
        return 1
    if value == 0.0:
        return 0
    raise DataError(f"non-binary label {token!r}")


def _parse_labels(raw, positive: str, negative: str) -> np.ndarray:
    """Binary labels of a column of tokens; each distinct token is parsed once."""
    parsed = {t: _parse_label(t, positive, negative) for t in dict.fromkeys(raw)}
    return np.fromiter(map(parsed.__getitem__, raw), dtype=np.int64, count=len(raw))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(
    path,
    label_column: str | None = None,
    positive_token: str = "1",
    negative_token: str = "0",
) -> Dataset:
    """Load a comma-separated file into a Dataset.

    First row is the header; a leading UTF-8 byte-order mark, as Excel
    writes, is dropped. A column where every cell, stripped, parses with
    ``float()`` is kept numeric, and each of those numbers must be finite;
    any other column is ordinal-encoded by first appearance of its stripped
    tokens. Empty and whitespace-only cells are rejected wherever they sit
    (no imputation). When ``label_column`` is given, that column is removed
    from the attributes and stored as binary labels; its tokens must match
    the positive/negative tokens or the literals 1/0.

    A clean file is read by numpy's C text reader. Any other file is read
    row by row with ``csv.reader``, which gives the same Dataset and raises
    every error; see :func:`_load_clean_csv` for which files are clean.
    """
    args = (existing_file(path), label_column, positive_token, negative_token)
    return _load_clean_csv(*args) or _load_csv_rows(*args)


def _load_clean_csv(path, label_column, positive_token, negative_token) -> Dataset | None:
    """:func:`load_csv`'s Dataset read by ``np.loadtxt``, or None when in doubt.

    Given the open handle (a path would turn a quoted CRLF into LF),
    ``np.loadtxt`` splits and unquotes fields as ``csv.reader`` does. But it
    skips blank lines, reads the NUL that ``csv.reader`` rejects before
    Python 3.11, and counts ``skiprows`` in lines, not records. So a file with
    a blank line or a NUL, a header on more than one line, no data row, a
    first row of another width or a duplicate column name is left to the
    row-wise reader. One read with a structured dtype types each column by
    its first row: float64 where that cell, stripped, parses with ``float()``,
    else str objects, as for the label column. Without ``usecols`` every row
    must have the header's width. A ValueError (undecodable text, a number
    ``np.loadtxt`` rejects, a row of another width, a bad label, a non-finite
    value) or an empty text cell also returns None: the row-wise reader then
    names the fault, or reads the numbers that only ``float()`` accepts. So
    does a file where a field may be longer than ``csv.field_size_limit()``,
    which ``np.loadtxt`` does not enforce.
    """
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
            blank = ("\n\n", "\n\r", "\r\r") if "\r" in text else ("\n\n",)
            if text[:1] in "\r\n" or "\x00" in text or any(map(text.__contains__, blank)):
                return None
            del text
            fh.seek(0)
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader)]
            first = next(reader, None) if reader.line_num == 1 else None
            if first is None or len(first) != len(header) or len(set(header)) != len(header):
                return None
            numeric = [h != label_column and _is_number(c.strip()) for h, c in zip(header, first)]
            fh.seek(0)
            table = np.loadtxt(
                fh,
                dtype=[(str(j), np.float64 if num else object) for j, num in enumerate(numeric)],
                delimiter=",",
                quotechar='"',
                comments=None,
                skiprows=1,
                ndmin=1,
            )
            # csv.reader refuses a field longer than csv.field_size_limit(). No
            # record spans more lines than are left after one per other record
            # and the header, so the longest run of that many lines bounds
            # every field.
            fh.seek(0)
            ends = np.cumsum([0, *map(len, fh)])
            span = len(ends) - 1 - len(table)
            if (ends[span:] - ends[:-span]).max() > csv.field_size_limit():
                return None
        labels = None
        if label_column is not None:
            labels = _parse_labels(
                table[str(header.index(label_column))].tolist(), positive_token, negative_token
            )
        names = [name for name in header if name != label_column]
        values = np.empty((len(table), len(names)), dtype=np.float64)
        encodings = []
        for j, name in enumerate(names):
            field = str(header.index(name))
            if table.dtype[field] == object:
                column = list(map(str.strip, table[field].tolist()))
                if "" in column:
                    return None
                values[:, j], levels = encode_categoricals(column)
                encodings.append((name, levels))
            else:
                values[:, j] = table[field]
        del table  # every text cell's string: free them before Dataset copies the matrix
        return Dataset(
            values=values,
            attribute_names=tuple(names),
            labels=labels,
            categorical_levels=tuple(encodings),
        )
    except ValueError:
        return None


def _load_csv_rows(path, label_column, positive_token, negative_token) -> Dataset:
    """:func:`load_csv` with ``csv.reader``, row by row: the reader of any file and every error."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty dataset") from None
        header = [h.strip() for h in header]
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise DataError(
                    f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append(row)
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")

    n = len(rows)
    labels = None
    if label_column is not None:
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header")
        labels = _parse_labels(
            list(map(itemgetter(header.index(label_column)), rows)), positive_token, negative_token
        )

    names = [name for name in header if name != label_column]
    values = np.empty((n, len(names)), dtype=np.float64)
    encodings = []
    for j, name in enumerate(names):
        cell_of = itemgetter(header.index(name))
        try:
            # float() skips the whitespace strip() removes, U+001C-U+001F aside,
            # so a clean numeric column is parsed without stripping its cells
            values[:, j] = np.fromiter(map(float, map(cell_of, rows)), dtype=np.float64, count=n)
        except ValueError:
            column = list(map(str.strip, map(cell_of, rows)))
            if "" in column:
                raise DataError(f"missing value in column {name!r}, row {column.index('') + 1}")
            try:
                values[:, j] = np.fromiter(map(float, column), dtype=np.float64, count=n)
            except ValueError:
                values[:, j], levels = encode_categoricals(column)
                encodings.append((name, levels))

    del rows  # every cell's string: free them before Dataset copies the matrix
    return Dataset(
        values=values,
        attribute_names=tuple(names),
        labels=labels,
        categorical_levels=tuple(encodings),
    )


def write_csv(d: Dataset, path, label_column: str = "label") -> None:
    """Write a dataset to CSV (UTF-8, header row, '.' decimal point).

    Labels, when present, are appended as an extra integer column.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(d.attribute_names)
        rows = d.values.tolist()
        if d.labels is not None:
            if label_column in header:
                raise DataError(f"label column name {label_column!r} collides")
            header.append(label_column)
            rows = (row + [label] for row, label in zip(rows, d.labels.tolist()))
        writer.writerow(header)
        writer.writerows(rows)


def normalize_minmax(d: Dataset) -> Dataset:
    """Scale every column to [0, 1] by its own min and max.

    Constant columns map to all-zeros. The per-column (min, max) pairs are
    recorded on the result so the same map can be replayed on held-out data.
    This is :func:`apply_normalization` with the data's own state, whose
    clip changes nothing on the rows that state came from.
    """
    if d.normalization is not None:
        raise DataError("dataset is already normalized")
    return apply_normalization(
        d, tuple(zip(d.values.min(axis=0).tolist(), d.values.max(axis=0).tolist()))
    )


def apply_normalization(d: Dataset, state) -> Dataset:
    """Replay a recorded min-max map on new data, clipping results to [0, 1].

    Columns whose recorded span is zero map to all-zeros, matching
    :func:`normalize_minmax` on the original data.
    """
    state = tuple((float(lo), float(hi)) for lo, hi in state)
    if len(state) != d.m:
        raise DataError(f"normalization state has {len(state)} entries for m={d.m}")
    lows = np.array([lo for lo, _ in state])
    span = np.array([hi - lo for lo, hi in state])
    scaled = np.where(span > 0, (d.values - lows) / np.where(span > 0, span, 1.0), 0.0)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return replace(d, values=scaled, normalization=state)


def split(d: Dataset, train_fraction: float, seed: int) -> SplitPair:
    """Stratified shuffle split into train and test parts.

    Outlier and inlier rows are shuffled and divided separately so both parts
    keep the class ratio within one row, and each part receives at least one
    row of each class. Deterministic given the seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if d.labels is None:
        raise DataError("split requires labels")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(d.labels == cls)
        if idx.size < 2:
            raise DataError(f"class {cls} has fewer than 2 rows")
        perm = rng.permutation(idx)
        n_train = int(round(train_fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    train_rows = np.sort(np.concatenate(train_parts))
    test_rows = np.sort(np.concatenate(test_parts))
    return SplitPair(train=d.take_rows(train_rows), test=d.take_rows(test_rows), seed=seed)
