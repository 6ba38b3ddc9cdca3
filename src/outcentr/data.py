"""Tabular dataset loading, encoding, min-max scaling, and stratified splitting.

Every other module consumes the :class:`Dataset` container defined here;
:func:`split` hands back a plain (train, test) tuple of them. A Dataset is
immutable after construction (its arrays are marked read-only), so it is
safe to share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Malformed input data or an inconsistent dataset operation."""


def freeze_fields(obj, *names, dtype=np.float64) -> None:
    """Make each named field of a frozen dataclass a read-only array of ``dtype``.

    An ndarray that is already read-only, owns its data, is C-contiguous and
    has the target dtype is kept as it is: that is how a producer hands a
    fresh array over (:func:`frozen`), and such an array keeps no base array
    alive. Anything else, a caller's writeable array included, is copied
    (cast to ``dtype``; ``dtype=None`` keeps each field's own dtype) and the
    copy is marked read-only, so no array the caller can still write is shared.
    """
    for name in names:
        arr = getattr(obj, name)
        if not (
            type(arr) is np.ndarray
            and not arr.flags.writeable
            and arr.flags.owndata
            and arr.flags.c_contiguous
            and (dtype is None or arr.dtype == dtype)
        ):
            arr = np.array(arr, dtype=dtype)
            arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a fresh array read-only and return it, so that a container adopts it uncopied."""
    arr.setflags(write=False)
    return arr


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

    Its arrays are read-only. A given array that is already read-only,
    owns its data, is C-contiguous and has the field's dtype is kept as it
    is; any other is copied (:func:`freeze_fields`).

    Attributes:
        values: (n, m) matrix of finite floats, one row per record.
        attribute_names: m distinct column names, in column order.
        labels: optional (n,) array of 0/1 marks, 1 = outlier.
        normalization: (m, 2) array of per-column (min, max) recorded by
            :func:`normalize_minmax`; ``None`` before scaling.
        categorical_levels: ((name, (level, ...)), ...) ordinal-encoding maps
            recorded by :func:`load_csv` for reporting.
    """

    values: np.ndarray
    attribute_names: tuple[str, ...]
    labels: np.ndarray | None = None
    normalization: np.ndarray | None = None
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
        # NaN propagates through min and max, so both are finite only when every
        # cell is; the cell-wise mask is built only to name the first bad cell
        low, high = values.min(), values.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            finite = np.isfinite(values)
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
            freeze_fields(self, "normalization")
            _check_state(self.normalization, names)
            if low < -1e-9 or high > 1 + 1e-9:
                raise DataError("normalized dataset has cells outside [0, 1]")

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

    Two readers split the file into its header and columns: numpy's C text
    reader takes a clean file (:func:`_load_clean_csv`) and ``csv.reader``,
    row by row, any other (:func:`_load_csv_rows`). A reader raises only a
    layout error. The rules above then build the Dataset once, checked in
    this order: distinct header names, the label column present, the
    labels, each attribute column, finite values. So the Dataset and every
    other error are the same whichever reader split the file.
    """
    path = existing_file(path)
    header, columns = _load_clean_csv(path, label_column) or _load_csv_rows(path)
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")
    labels = None
    if label_column is not None:
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header")
        labels = _parse_labels(columns[header.index(label_column)], positive_token, negative_token)
    names = [name for name in header if name != label_column]
    values = np.empty((len(columns[0]) if columns else 0, len(names)))
    encodings = []
    for j, name in enumerate(names):
        values[:, j], levels = _column_values(columns[header.index(name)], name)
        if levels is not None:
            encodings.append((name, levels))
    # free every cell and the parsed table first: the Dataset's label copy and
    # checks then reuse their space instead of growing the heap
    del columns
    return Dataset(
        values=frozen(values),
        attribute_names=tuple(names),
        labels=labels,
        categorical_levels=tuple(encodings),
    )


def _column_values(column, name: str):
    """An attribute column as floats, and its levels when it is ordinal-encoded (else None).

    A float64 array the clean reader parsed is taken as it is; a column of
    raw cells goes through the numeric-or-categorical rule of :func:`load_csv`.
    """
    if isinstance(column, np.ndarray):
        return column, None
    try:
        # float() skips the whitespace strip() removes, U+001C-U+001F aside,
        # so a clean numeric column is parsed without stripping its cells
        return np.fromiter(map(float, column), dtype=np.float64, count=len(column)), None
    except ValueError:
        pass
    column = list(map(str.strip, column))
    if "" in column:
        raise DataError(f"missing value in column {name!r}, row {column.index('') + 1}")
    try:
        return np.fromiter(map(float, column), dtype=np.float64, count=len(column)), None
    except ValueError:
        return encode_categoricals(column)


def _load_clean_csv(path, label_column) -> tuple[list[str], list] | None:
    """:func:`load_csv`'s header and columns read by ``np.loadtxt``, or None when in doubt.

    Given the open handle (a path would turn a quoted CRLF into LF),
    ``np.loadtxt`` splits and unquotes fields as ``csv.reader`` does. But it
    skips blank lines, reads the NUL that ``csv.reader`` rejects before
    Python 3.11, and counts ``skiprows`` in lines, not records. So a file with
    a blank line or a NUL, a header on more than one line, no data row or a
    first row of another width is left to the row-wise reader. One read with
    a structured dtype types each column by its first row: a float64 array
    where that cell, stripped, parses with ``float()``, else a list of the
    raw str cells, as for the label column. Without ``usecols`` every row
    must have the header's width. A ValueError (undecodable text, a number
    ``np.loadtxt`` rejects, an empty numeric cell, a row of another width)
    also returns None: the row-wise reader then names the layout fault, or
    reads the cells as text for the column rules. So does a file where a
    field may be longer than ``csv.field_size_limit()``, which ``np.loadtxt``
    does not enforce. Every other fault is left to :func:`load_csv`'s rules.
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
            if first is None or len(first) != len(header):
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
    except ValueError:
        return None
    return header, [
        table[str(j)] if num else table[str(j)].tolist() for j, num in enumerate(numeric)
    ]


def _load_csv_rows(path) -> tuple[list[str], list]:
    """:func:`load_csv`'s header and columns read row by row with ``csv.reader``, from any file.

    Raises the layout errors: an empty file, a row of another width than the
    header, and ``csv.Error``. Each column is a tuple of raw str cells.
    """
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
    return header, list(zip(*rows)) or [()] * len(header)


def write_rows(path, header, rows) -> Path:
    """Write a header row, then ``rows``, as CSV; returns ``path`` as a Path.

    outcentr writes every CSV file here: UTF-8 without a byte-order mark and
    ``csv.writer``'s default dialect, so each record ends in CRLF.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_csv(d: Dataset, path) -> None:
    """Write a dataset to CSV (UTF-8, header row, '.' decimal point).

    Labels, when present, are appended as an extra integer column named
    ``label``; an attribute of that name raises before the file is opened.
    """
    header = list(d.attribute_names)
    rows = d.values.tolist()
    if d.labels is not None:
        if "label" in header:
            raise DataError("label column name 'label' collides")
        header.append("label")
        rows = (row + [label] for row, label in zip(rows, d.labels.tolist()))
    write_rows(path, header, rows)


def normalize_minmax(d: Dataset) -> Dataset:
    """Scale every column to [0, 1] by its own min and max.

    Constant columns map to all-zeros. The (m, 2) array of per-column
    (min, max) is recorded on the result so the same map can be replayed on
    held-out data. This is :func:`apply_normalization` with the data's own
    state, whose clip changes nothing on the rows that state came from.
    """
    if d.normalization is not None:
        raise DataError("dataset is already normalized")
    state = np.stack([d.values.min(axis=0), d.values.max(axis=0)], axis=1)
    return apply_normalization(d, frozen(state))


def apply_normalization(d: Dataset, state) -> Dataset:
    """Replay a recorded min-max map on new data, clipping results to [0, 1].

    ``state`` is an (m, 2) array of per-column (min, max), or a sequence of
    (min, max) pairs; a bound that is not finite, or a min above its max,
    raises a DataError naming the column. Columns whose recorded span is
    zero map to all-zeros, matching :func:`normalize_minmax` on the
    original data.
    """
    state = np.asarray(state, dtype=np.float64)
    _check_state(state, d.attribute_names)
    span = state[:, 1] - state[:, 0]
    scaled = d.values - state[:, 0]
    scaled /= np.where(span > 0, span, 1.0)
    scaled[:, ~(span > 0)] = 0.0  # a zero span maps its column to 0
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return replace(d, values=frozen(scaled), normalization=state)


def _check_state(state: np.ndarray, names: tuple[str, ...]) -> None:
    """Raise DataError unless ``state`` holds one finite (min, max) pair, min <= max, per name."""
    if state.shape != (len(names), 2):
        raise DataError(f"normalization state has shape {state.shape} for m={len(names)}")
    bad = np.flatnonzero(~np.isfinite(state).all(axis=1) | (state[:, 0] > state[:, 1]))
    if bad.size:
        low, high = state[bad[0]].tolist()
        raise DataError(
            f"normalization state ({low}, {high}) of column {names[bad[0]]!r}"
            " is not a finite min <= max"
        )


def split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified shuffle split into a (train, test) pair of datasets.

    Outlier and inlier rows are shuffled and divided separately so both parts
    keep the class ratio within one row, and each part receives at least one
    row of each class. Each part keeps the source's row order. Deterministic
    given the seed.
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
    halves = (np.sort(np.concatenate(parts)) for parts in (train_parts, test_parts))
    train, test = (
        replace(d, values=frozen(d.values[rows]), labels=frozen(d.labels[rows])) for rows in halves
    )
    return train, test
