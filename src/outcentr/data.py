"""Tabular dataset loading, encoding, min-max scaling, and stratified splitting.

Every other module consumes the :class:`Dataset` container defined here. All
containers are immutable after construction (arrays are marked read-only), so
they are safe to share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
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

    Each distinct string maps to 0, 1, 2, ... in the order it first occurs.
    Returns the encoded column and the level list (index = code).
    """
    codes = {}
    out = np.empty(len(raw), dtype=np.float64)
    for i, token in enumerate(raw):
        if token not in codes:
            codes[token] = len(codes)
        out[i] = codes[token]
    return out, tuple(codes)


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


def load_csv(
    path,
    label_column: str | None = None,
    positive_token: str = "1",
    negative_token: str = "0",
) -> Dataset:
    """Load a comma-separated file into a Dataset.

    First row is the header; a leading UTF-8 byte-order mark, as Excel
    writes, is dropped. A column where every cell parses as a number
    is kept numeric, and each of those numbers must be finite; any other
    column is ordinal-encoded by first appearance. Empty cells are rejected
    wherever they sit (no imputation). When ``label_column`` is given, that
    column is removed from the attributes and stored as binary labels; its
    values must match the positive/negative tokens or the literals 1/0.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty dataset") from None
        header = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append([cell.strip() for cell in row])
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")

    labels = None
    if label_column is not None:
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header")
        j = header.index(label_column)
        labels = np.array(
            [_parse_label(row[j], positive_token, negative_token) for row in rows],
            dtype=np.int64,
        )
        header = header[:j] + header[j + 1 :]
        rows = [row[:j] + row[j + 1 :] for row in rows]

    n, m = len(rows), len(header)
    values = np.empty((n, m), dtype=np.float64)
    encodings = []
    for j, name in enumerate(header):
        column = [row[j] for row in rows]
        if "" in column:
            raise DataError(f"missing value in column {name!r}, row {column.index('') + 1}")
        try:
            values[:, j] = np.fromiter(map(float, column), dtype=np.float64, count=n)
        except ValueError:
            values[:, j], levels = encode_categoricals(column)
            encodings.append((name, levels))

    return Dataset(
        values=values,
        attribute_names=tuple(header),
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
        if d.labels is not None:
            if label_column in header:
                raise DataError(f"label column name {label_column!r} collides")
            header.append(label_column)
        writer.writerow(header)
        for i in range(d.n):
            row = [repr(float(v)) for v in d.values[i]]
            if d.labels is not None:
                row.append(str(int(d.labels[i])))
            writer.writerow(row)


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
