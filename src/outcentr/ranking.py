"""Centroid-gap attribute ranking and top-t projection.

The reduction works on a normalized, labeled dataset: average the outlier
rows and the inlier rows into two class centroids, score each attribute by
the absolute gap between the centroids, rank attributes by that score, and
project the data onto the top-t attributes. Attributes whose class means
barely differ carry no outlier signal and are dropped.

The centroid helpers take and return plain numpy arrays: row-index arrays
from :func:`partition_labels`, one value per attribute from
:func:`compute_centroid`, :func:`distinguishability_scores` and
:func:`attribute_scores`. A rank round-trips through a CSV export
(:func:`export_rank` and :func:`load_rank`), and :func:`rank_diff` compares
two such exports entry by entry.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, existing_file


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
        first_rank = {}
        for rank, (name, _) in enumerate(entries, start=1):
            if name in first_rank:
                raise DataError(
                    f"attribute {name!r} ranked twice: at rank {first_rank[name]} and {rank}"
                )
            first_rank[name] = rank
        object.__setattr__(self, "entries", entries)

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def selected(self) -> tuple[str, ...]:
        """Names of the top-t attributes, in rank order."""
        return tuple(name for name, _ in self.entries[: self.t])


def partition_labels(d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Split a labeled dataset's row indices by class: (outlier_rows, inlier_rows).

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
    return outlier_rows, inlier_rows


def compute_centroid(d: Dataset, rows) -> np.ndarray:
    """Arithmetic mean of the given rows, one entry per attribute."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot compute a centroid of zero rows")
    return d.values[rows].mean(axis=0)


def distinguishability_scores(c_out: np.ndarray, c_in: np.ndarray) -> np.ndarray:
    """Per-attribute absolute gap between the outlier and inlier centroids.

    On normalized data every score lies in [0, 1]; larger means the attribute
    separates the classes better.
    """
    if c_out.shape != c_in.shape:
        raise ValueError(f"centroid lengths differ: {c_out.size} vs {c_in.size}")
    return np.abs(c_out - c_in)


def attribute_rank(scores, names, t: int) -> AttributeRank:
    """Order attributes by descending score, ties by original column index."""
    scores = np.asarray(scores, dtype=np.float64)
    names = tuple(names)
    if scores.shape != (len(names),):
        raise ValueError("scores and names have different lengths")
    order = np.argsort(-scores, kind="stable")
    entries = tuple((names[j], float(scores[j])) for j in order)
    return AttributeRank(entries=entries, t=t)


def attribute_scores(d: Dataset, rows, centroid: np.ndarray, absolute: bool = False) -> np.ndarray:
    """Mean deviation of the given rows from a class centroid, per attribute.

    Signed by default, so rows scored against their own centroid average to
    zero; ``absolute=True`` averages magnitudes instead.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot score an empty row set")
    if centroid.shape != (d.m,):
        raise ValueError(f"centroid length {centroid.size} does not match m={d.m}")
    deviations = d.values[rows] - centroid
    if absolute:
        deviations = np.abs(deviations)
    return deviations.mean(axis=0)


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
    outlier_rows, inlier_rows = partition_labels(train)
    if outlier_rows.size == 0 or inlier_rows.size == 0:
        raise DataError("both classes must have labeled rows")
    rng = np.random.default_rng(seed)
    centroids = []
    for rows in (outlier_rows, inlier_rows):
        if ratio < 1.0:
            size = max(1, int(round(ratio * rows.size)))
            rows = rng.choice(rows, size=size, replace=False)
        centroids.append(compute_centroid(train, rows))
    scores = distinguishability_scores(*centroids)
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

    Every ``distinguishability_score`` must parse as a finite number, and no
    attribute may appear twice.
    """
    path = existing_file(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["rank", "attribute", "distinguishability_score", "selected"]:
            raise DataError(f"{path} is not an attribute-rank export")
        entries, selected, first_row = [], [], {}
        for row in reader:
            if len(row) != 4 or row[3] not in ("0", "1"):
                raise DataError(f"malformed rank row: {row!r}")
            if row[1] in first_row:
                raise DataError(
                    f"{path}: row {reader.line_num}: attribute {row[1]!r} "
                    f"already ranked on row {first_row[row[1]]}"
                )
            first_row[row[1]] = reader.line_num
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


def rank_diff(path_a, path_b) -> tuple[RankDiffEntry, ...]:
    """Diff two rank exports: per-attribute rank positions, scores, and deltas.

    Entries are sorted by absolute rank movement, descending; attributes
    present on only one side come last, marked absent on the other.
    """

    def positions(rank: AttributeRank):
        return {
            name: (pos, score, pos <= rank.t)
            for pos, (name, score) in enumerate(rank.entries, start=1)
        }

    in_a = positions(load_rank(path_a))
    in_b = positions(load_rank(path_b))
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
    return tuple(entries)


def write_rank_diff_csv(entries, path) -> None:
    """Export a rank diff as CSV; absent sides are left empty."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["attribute", "rank_a", "rank_b", "score_a", "score_b",
             "rank_delta", "selected_a", "selected_b"]
        )
        for e in entries:
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
