"""Centroid-gap attribute ranking and top-t projection.

The reduction works on a normalized, labeled dataset: average the outlier
rows and the inlier rows into two class centroids, score each attribute by
the absolute gap between the centroids, rank attributes by that score, and
project the data onto the top-t attributes. Attributes whose class means
barely differ carry no outlier signal and are dropped.

A rank round-trips through a CSV export (:func:`export_rank` and
:func:`load_rank`), and :func:`rank_diff` compares two such exports.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, existing_file, freeze_fields

CLASS_TAGS = ("outlier", "inlier", "all")


@dataclass(frozen=True)
class Centroid:
    """Per-attribute mean of a set of rows.

    ``class_tag`` records which rows were averaged: "outlier", "inlier", or
    "all". On normalized data every entry lies in [0, 1].
    """

    values: np.ndarray
    source_count: int
    class_tag: str

    def __post_init__(self):
        freeze_fields(self, "values")
        if self.values.ndim != 1:
            raise ValueError("centroid must be a vector")
        if self.source_count < 1:
            raise ValueError("source_count must be >= 1")
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.class_tag!r}")

    @property
    def m(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class AttributeRank:
    """Attributes ordered by descending distinguishability score.

    ``entries`` is a permutation of the dataset's attributes as
    (name, score) pairs with non-increasing scores; ties are broken by
    ascending original column index. ``t`` is the selection cutoff: the
    first t entries are the selected attributes.
    """

    entries: tuple[tuple[str, float], ...]
    t: int

    def __post_init__(self):
        entries = tuple((str(n), float(s)) for n, s in self.entries)
        if not 1 <= self.t <= len(entries):
            raise ValueError(f"t={self.t} out of range for {len(entries)} attributes")
        scores = [s for _, s in entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("entries must be sorted by non-increasing score")
        object.__setattr__(self, "entries", entries)

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def selected(self) -> tuple[str, ...]:
        """Names of the top-t attributes, in rank order."""
        return tuple(name for name, _ in self.entries[: self.t])


@dataclass(frozen=True)
class AttributeScoreReport:
    """Per-attribute mean deviation of a row set from a class centroid.

    Reporting output for feature-importance inspection; not used for
    selection. ``absolute`` records whether deviations were averaged signed
    (the default) or as absolute values.
    """

    values: np.ndarray
    attribute_names: tuple[str, ...]
    class_tag: str
    absolute: bool = False

    def __post_init__(self):
        freeze_fields(self, "values")
        if self.values.ndim != 1 or len(self.attribute_names) != self.values.shape[0]:
            raise ValueError("score vector and attribute names disagree")
        if not np.isfinite(self.values).all():
            raise ValueError("attribute scores must be finite")


@dataclass(frozen=True)
class LabelPartition:
    """Row indices of the labeled outlier and inlier classes."""

    outlier_rows: np.ndarray
    inlier_rows: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "outlier_rows", "inlier_rows", dtype=np.int64)
        if np.intersect1d(self.outlier_rows, self.inlier_rows).size:
            raise ValueError("outlier and inlier rows overlap")


def partition_labels(d: Dataset) -> LabelPartition:
    """Split a labeled dataset's row indices by class.

    Warns (does not fail) when outliers are not the minority, since every
    useful configuration has far fewer outliers than inliers.
    """
    if d.labels is None:
        raise DataError("dataset has no labels")
    outlier_rows = np.flatnonzero(d.labels == 1)
    inlier_rows = np.flatnonzero(d.labels == 0)
    if outlier_rows.size >= inlier_rows.size:
        warnings.warn(
            f"outlier class ({outlier_rows.size}) is not smaller than the "
            f"inlier class ({inlier_rows.size})",
            stacklevel=2,
        )
    return LabelPartition(outlier_rows=outlier_rows, inlier_rows=inlier_rows)


def compute_centroid(d: Dataset, rows, class_tag: str = "all") -> Centroid:
    """Arithmetic mean of the given rows, one entry per attribute."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot compute a centroid of zero rows")
    return Centroid(
        values=d.values[rows].mean(axis=0),
        source_count=int(rows.size),
        class_tag=class_tag,
    )


def distinguishability_scores(c_out: Centroid, c_in: Centroid) -> np.ndarray:
    """Per-attribute absolute gap between the outlier and inlier centroids.

    On normalized data every score lies in [0, 1]; larger means the attribute
    separates the classes better.
    """
    if c_out.class_tag != "outlier" or c_in.class_tag != "inlier":
        raise ValueError(
            f"expected (outlier, inlier) centroids, got "
            f"({c_out.class_tag!r}, {c_in.class_tag!r})"
        )
    if c_out.m != c_in.m:
        raise ValueError(f"centroid lengths differ: {c_out.m} vs {c_in.m}")
    return np.abs(c_out.values - c_in.values)


def attribute_rank(scores, names, t: int) -> AttributeRank:
    """Order attributes by descending score, ties by original column index."""
    scores = np.asarray(scores, dtype=np.float64)
    names = tuple(names)
    if scores.shape != (len(names),):
        raise ValueError("scores and names have different lengths")
    order = np.argsort(-scores, kind="stable")
    entries = tuple((names[j], float(scores[j])) for j in order)
    return AttributeRank(entries=entries, t=t)


def attribute_scores(
    d: Dataset, rows, c: Centroid, absolute: bool = False
) -> AttributeScoreReport:
    """Mean deviation of the given rows from a class centroid, per attribute.

    Signed by default, so rows scored against their own centroid average to
    zero; ``absolute=True`` averages magnitudes instead.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot score an empty row set")
    if c.m != d.m:
        raise ValueError(f"centroid length {c.m} does not match m={d.m}")
    deviations = d.values[rows] - c.values
    if absolute:
        deviations = np.abs(deviations)
    return AttributeScoreReport(
        values=deviations.mean(axis=0),
        attribute_names=d.attribute_names,
        class_tag=c.class_tag,
        absolute=absolute,
    )


def top_t(m: int, t_fraction: float) -> int:
    """Selection cutoff: floor of t_fraction * m, never below 1."""
    if not 0.0 < t_fraction <= 1.0:
        raise ValueError(f"t_fraction must be in (0, 1], got {t_fraction}")
    # tiny epsilon so exact products like 0.1 * 290 do not floor one short
    return max(1, min(m, int(math.floor(t_fraction * m + 1e-9))))


def fit_reducer(
    train: Dataset,
    ratio: float = 1.0,
    t_fraction: float = 0.10,
    seed: int = 0,
) -> AttributeRank:
    """Rank attributes of a normalized, labeled training set.

    ``ratio`` is the fraction of labeled rows per class used for the
    centroids (1.0 = all labels); subsampling is uniform within each class
    and deterministic given the seed. A class reduced to a single row still
    yields a centroid (that row itself). The cutoff is
    t = max(1, floor(t_fraction * m)).
    """
    if train.normalization is None:
        raise DataError("fit_reducer requires a normalized dataset")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    part = partition_labels(train)
    if part.outlier_rows.size == 0 or part.inlier_rows.size == 0:
        raise DataError("both classes must have labeled rows")
    rng = np.random.default_rng(seed)
    sampled = []
    for rows in (part.outlier_rows, part.inlier_rows):
        if ratio < 1.0:
            size = max(1, int(round(ratio * rows.size)))
            rows = rng.choice(rows, size=size, replace=False)
        sampled.append(rows)
    c_out = compute_centroid(train, sampled[0], "outlier")
    c_in = compute_centroid(train, sampled[1], "inlier")
    scores = distinguishability_scores(c_out, c_in)
    return attribute_rank(scores, train.attribute_names, top_t(train.m, t_fraction))


def transform(d: Dataset, rank: AttributeRank) -> Dataset:
    """Project a dataset onto the rank's selected attributes.

    Keeps exactly the top-t columns in their original relative order; labels
    and any recorded normalization state for those columns carry through.
    """
    indices = sorted(d.index_of(name) for name in rank.selected)
    return Dataset(
        values=d.values[:, indices],
        attribute_names=tuple(d.attribute_names[j] for j in indices),
        labels=d.labels,
        normalization=(
            None
            if d.normalization is None
            else tuple(d.normalization[j] for j in indices)
        ),
        categorical_levels=tuple(
            (name, levels)
            for name, levels in d.categorical_levels
            if name in set(rank.selected)
        ),
    )


def export_rank(rank: AttributeRank, path) -> None:
    """Write a rank as CSV: rank, attribute, distinguishability_score, selected."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "attribute", "distinguishability_score", "selected"])
        for position, (name, score) in enumerate(rank.entries, start=1):
            writer.writerow([position, name, repr(score), int(position <= rank.t)])


def load_rank(path) -> AttributeRank:
    """Read an :func:`export_rank` CSV back; its 0/1 ``selected`` flags must mark a prefix.

    Every ``distinguishability_score`` must parse as a finite number.
    """
    path = existing_file(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["rank", "attribute", "distinguishability_score", "selected"]:
            raise DataError(f"{path} is not an attribute-rank export")
        entries, selected = [], []
        for row in reader:
            if len(row) != 4 or row[3] not in ("0", "1"):
                raise DataError(f"malformed rank row: {row!r}")
            try:
                score = float(row[2])
            except ValueError:
                score = math.nan
            if not math.isfinite(score):
                raise DataError(
                    f"{path}: row {reader.line_num}: distinguishability_score "
                    f"{row[2]!r} is not a finite number"
                )
            entries.append((row[1], score))
            selected.append(row[3] == "1")
    if not entries:
        raise DataError("empty rank export")
    t = sum(selected)
    if t == 0 or not all(selected[:t]):
        raise DataError(f"{path}: selected flags are not a non-empty prefix of 1s")
    return AttributeRank(entries=tuple(entries), t=t)


@dataclass(frozen=True)
class RankDiffEntry:
    """One attribute's position in two rank exports; None marks an absent side."""

    attribute: str
    rank_a: int | None
    rank_b: int | None
    score_a: float | None
    score_b: float | None
    rank_delta: int | None
    selected_a: bool | None
    selected_b: bool | None


@dataclass(frozen=True)
class RankDiff:
    """Join of two attribute-rank exports, largest rank movements first."""

    rank_a: AttributeRank
    rank_b: AttributeRank
    entries: tuple[RankDiffEntry, ...]


def rank_diff(path_a, path_b) -> RankDiff:
    """Diff two rank exports: per-attribute rank positions, scores, and deltas.

    Entries are sorted by absolute rank movement, descending; attributes
    present on only one side come last, marked absent on the other.
    """
    rank_a = load_rank(path_a)
    rank_b = load_rank(path_b)

    def positions(rank: AttributeRank):
        return {
            name: (pos, score, pos <= rank.t)
            for pos, (name, score) in enumerate(rank.entries, start=1)
        }

    in_a = positions(rank_a)
    in_b = positions(rank_b)
    entries = []
    for name in dict.fromkeys(list(in_a) + list(in_b)):
        a = in_a.get(name)
        b = in_b.get(name)
        entries.append(
            RankDiffEntry(
                attribute=name,
                rank_a=a[0] if a else None,
                rank_b=b[0] if b else None,
                score_a=a[1] if a else None,
                score_b=b[1] if b else None,
                rank_delta=(b[0] - a[0]) if a and b else None,
                selected_a=a[2] if a else None,
                selected_b=b[2] if b else None,
            )
        )
    entries.sort(
        key=lambda e: (e.rank_delta is None, -abs(e.rank_delta or 0), e.attribute)
    )
    return RankDiff(rank_a=rank_a, rank_b=rank_b, entries=tuple(entries))


def write_rank_diff_csv(diff: RankDiff, path) -> None:
    """Export a rank diff as CSV; absent sides are left empty."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["attribute", "rank_a", "rank_b", "score_a", "score_b",
             "rank_delta", "selected_a", "selected_b"]
        )
        for e in diff.entries:
            writer.writerow(
                [
                    e.attribute,
                    "" if e.rank_a is None else e.rank_a,
                    "" if e.rank_b is None else e.rank_b,
                    "" if e.score_a is None else repr(e.score_a),
                    "" if e.score_b is None else repr(e.score_b),
                    "" if e.rank_delta is None else e.rank_delta,
                    "" if e.selected_a is None else int(e.selected_a),
                    "" if e.selected_b is None else int(e.selected_b),
                ]
            )
