"""Isolation forest and local outlier factor, with contamination thresholds.

Both detectors emit continuous anomaly scores (higher = more anomalous) and
the threshold they are cut at: the (1 - contamination) quantile of a
reference set of scores. :class:`DetectionResult` derives the binary flags
from those two itself (score > threshold); no caller passes flags in.
Scores are a pure function of (data, config, seed). The isolation forest
scores any dataset against a fitted ensemble; LOF is transductive by nature
but can also score unseen rows against a fitted reference set for
train/test workflows.

The isolation forest is packed: every tree lives in one set of flat node
arrays. All trees grow together, level by level, with each level's
segment min/max, split and stable partition done by numpy calls across
every node of the level. A node's split attribute is drawn one at a time
and checked on the node's rows; only nodes whose draws keep landing on
constant attributes get a full-width scan. One generator per fit makes
the draws in a fixed level order. Scoring walks every (row, tree) pair of
a row block one level per step, so memory is bounded by the block, not by
rows x trees. Each level is seven numpy calls into buffers allocated before
the walk. The rows are split evenly among min(usable CPUs, blocks,
_MAX_WALK_THREADS) threads: the calling thread and a pool that lives only
for the call, so no thread is started on one CPU and none outlives a walk
into a forked child. Scores do not depend on the thread count.

LOF neighborhoods are exact, distance ties included, under the metric the
detector config names. LOF runs on the distinct training rows, each a point
weighted by its number of copies: a row repeated w times counts w times in
every k-distance, neighborhood and mean, so the results are those of the
expanded rows (Breunig et al. 2000) while the work grows with the number of
distinct rows. Without duplicates every weight is 1, and every sum runs over
the same terms in the same order as it would unweighted. Euclidean
candidates come from one matrix product per row block (the norm expansion
||q||^2 + ||r||^2 - 2 q.r), and only the candidates near each row's
k-distance have their distances recomputed from explicit differences.
Manhattan distances are summed one column at a time inside the same row
block. Neighbor lists are stored flat (CSR) and reduced with
``np.bincount``. A fitted :class:`LofModel` holds its training
:class:`~outcentr.data.Dataset` as the reference set, not a copy of its rows.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import DataError, Dataset, freeze_fields, is_integer_of_at_least

DETECTOR_KINDS = ("iforest", "lof")
DISTANCE_METRICS = ("euclidean", "manhattan")

_EULER_GAMMA = 0.5772156649015329
# duplicate rows give zero reachability distances; floor before inverting
_MIN_DISTANCE = 1e-12
# cells one row block holds at once (~2 MB of float64): LOF's selection values
# and Manhattan differences, the gathered columns of isolation-tree growth
_BLOCK_CELLS = 1 << 18
# gathered cells per tile of the exact Euclidean recheck (~512 KB)
_PAIR_TILE_CELLS = 1 << 16
# (row, tree) pairs an isolation-forest scoring block walks at once (~512 KB
# per array; 4x more ran about 1.5x slower, out of cache)
_PATH_BLOCK_PAIRS = 1 << 16
# threads that walk isolation-forest blocks at once, at most: each holds one
# block's buffers (~2 MB), so this bounds the walk's memory on many-core hosts
_MAX_WALK_THREADS = 8
# draws of one attribute per isolation-tree node before all columns are scanned
_ATTRIBUTE_DRAWS = 4


@dataclass(frozen=True)
class DetectorConfig:
    """Detector family plus its knobs.

    ``contamination`` is the assumed outlier fraction; it sets the score
    quantile used as the flagging threshold. ``n_trees``/``max_samples``
    apply to the isolation forest ("auto" resolves to min(256, n));
    ``k_neighbors`` and the distance ``metric`` (one of DISTANCE_METRICS)
    apply to LOF. Counts and the seed must be integers (numpy integers
    included, bool not).
    """

    kind: str
    contamination: float
    n_trees: int = 100
    max_samples: int | str = "auto"
    k_neighbors: int = 20
    seed: int = 0
    metric: str = "euclidean"

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise DataError(f"unknown detector kind {self.kind!r} (choose from {DETECTOR_KINDS})")
        if not 0.0 < self.contamination <= 0.5:
            raise DataError(f"contamination must be in (0, 0.5], got {self.contamination}")
        if not is_integer_of_at_least(self.n_trees, 1):
            raise DataError(f"n_trees must be an integer >= 1, got {self.n_trees!r}")
        if self.max_samples != "auto" and not is_integer_of_at_least(self.max_samples, 2):
            raise DataError(
                f"max_samples must be 'auto' or an integer >= 2, got {self.max_samples!r}"
            )
        if not is_integer_of_at_least(self.k_neighbors, 1):
            raise DataError(f"k_neighbors must be an integer >= 1, got {self.k_neighbors!r}")
        if not is_integer_of_at_least(self.seed, 0):
            raise DataError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.metric not in DISTANCE_METRICS:
            raise DataError(
                f"unknown distance metric {self.metric!r} (choose from {DISTANCE_METRICS})"
            )


@dataclass(frozen=True)
class DetectionResult:
    """Per-record anomaly scores, the realized threshold, and the flags they give.

    Flags are derived, not passed in: flags[i] == 1 exactly when
    scores[i] > threshold, so the number of flags is
    round(contamination * n) up to ties sitting on the threshold.
    """

    scores: np.ndarray
    threshold: float
    flags: np.ndarray = field(init=False)

    def __post_init__(self):
        freeze_fields(self, "scores")
        object.__setattr__(self, "flags", self.scores > self.threshold)
        freeze_fields(self, "flags", dtype=np.int64)


def _quantile_threshold(reference: np.ndarray, contamination: float) -> float:
    """The (1 - contamination) quantile of the reference scores: the flagging threshold."""
    return float(np.quantile(reference, 1.0 - contamination))


# ---------------------------------------------------------------------------
# isolation forest
# ---------------------------------------------------------------------------


def average_path_length(size: float) -> float:
    """Average unsuccessful-search depth of a binary search tree on ``size`` items.

    This is the standard normalizer c(n) for isolation-forest path lengths
    and the depth credit granted to truncated leaves.
    """
    if size <= 1:
        return 0.0
    if size == 2:
        return 1.0
    return 2.0 * (math.log(size - 1.0) + _EULER_GAMMA) - 2.0 * (size - 1.0) / size


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _height_limit(subsample_size: int) -> int:
    """Tree height limit ceil(log2(subsample_size)), at least 1."""
    return max(1, math.ceil(math.log2(subsample_size)))


@dataclass(frozen=True)
class _PackedForest:
    """Every tree of an isolation forest in one set of flat node arrays.

    Nodes are numbered level by level across all trees, so tree t's root is
    node ``roots[t]``. An internal node sends a row to ``left`` when the
    row's ``feature`` value is <= ``cut`` and to ``right`` (== left + 1)
    otherwise. A leaf has feature, left and right -1, and its ``leaf_value``
    is its depth + c(number of subsample rows it holds).
    """

    feature: np.ndarray
    cut: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray
    roots: np.ndarray
    subsample_size: int

    def __post_init__(self):
        freeze_fields(self, "feature", "cut", "left", "right", "leaf_value", "roots", dtype=None)

    def path_lengths(self, x: np.ndarray) -> np.ndarray:
        """Mean path length E[h(row)] over the trees, for every row of x.

        Rows are taken in blocks of about _PATH_BLOCK_PAIRS (row, tree)
        pairs, so no array spans all rows and trees at once. Every pair of a
        block steps down one level per iteration, height-limit iterations in
        all; a leaf steps to itself (cut +inf), so a pair that has reached
        its leaf stays there. Each row's sum runs over its own trees only, so
        the block size changes no result.

        The rows are split into W contiguous ranges of n/W rows (rounded),
        W = min(usable CPUs, number of blocks, _MAX_WALK_THREADS), and each
        range is walked in blocks as above. The calling thread walks the
        first range and a thread pool made for this call walks the rest;
        with W = 1 no thread is started. The calling thread allocates every
        range's buffers before any thread starts, and the walk itself
        allocates nothing of a block's size, which keeps the worker threads'
        malloc arenas small. Ranges write disjoint rows of the output, and the
        thread count changes no result. No pool outlives the call, so a
        process forked afterwards inherits no thread.
        """
        internal = self.feature >= 0
        feature = np.where(internal, self.feature, 0)
        cut = np.where(internal, self.cut, np.inf)
        child = np.where(internal, self.left, np.arange(internal.size))
        flat_x = np.ascontiguousarray(x, dtype=float).ravel()
        n, m = x.shape
        n_trees = self.roots.size
        per = max(1, _PATH_BLOCK_PAIRS // n_trees)
        workers = max(1, min(_usable_cpus(), -(-n // per), _MAX_WALK_THREADS))
        bounds = np.arange(workers + 1) * n // workers
        # the rows of the longest block: no range is longer than ceil(n / workers)
        offset = np.arange(0, min(per, -(-n // workers)) * m, m)[:, None]
        height = _height_limit(self.subsample_size)
        out = np.empty(n)

        def walk(first, stop, buffers):
            for start in range(first, stop, per):
                rows = min(per, stop - start)
                node, index, value, cut_at, right = (b[:rows] for b in buffers)
                block_offset = offset[:rows]
                block_x = flat_x[start * m :]  # a view: the block's rows start here
                node[...] = self.roots
                # mode="clip" writes straight into out= (mode="raise" buffers
                # it). No index is ever clipped: node ids are below the node
                # count, and every flat index is below rows * m <= block_x.size.
                for _ in range(height):
                    np.take(feature, node, out=index, mode="clip")
                    index += block_offset
                    np.take(block_x, index, out=value, mode="clip")
                    np.take(cut, node, out=cut_at, mode="clip")
                    np.greater(value, cut_at, out=right)
                    np.take(child, node, out=index, mode="clip")
                    np.add(index, right, out=node)
                np.take(self.leaf_value, node, out=value, mode="clip")
                np.sum(value, axis=1, out=out[start : start + rows])

        shape = (offset.shape[0], n_trees)
        buffers = [
            tuple(np.empty(shape, dtype) for dtype in (np.intp, np.intp, float, float, bool))
            for _ in range(workers)
        ]
        if workers == 1:
            walk(0, n, buffers[0])
        else:
            # imported here, not at the top: it adds about 10 ms to importing outcentr
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(workers - 1) as pool:
                futures = [
                    pool.submit(walk, bounds[i], bounds[i + 1], buffers[i])
                    for i in range(1, workers)
                ]
                walk(bounds[0], bounds[1], buffers[0])
                for future in futures:
                    future.result()
        out /= n_trees
        return out

    def score_samples(self, x: np.ndarray) -> np.ndarray:
        """Anomaly score 2^(-E[h(x)] / c(subsample_size)), strictly in (0, 1)."""
        return np.exp2(-self.path_lengths(x) / average_path_length(self.subsample_size))


@dataclass(frozen=True)
class IsolationForestModel(_PackedForest):
    """A fitted packed forest plus the training-score threshold for held-out flagging."""

    m: int
    config: DetectorConfig
    train_scores: np.ndarray
    threshold: float

    def __post_init__(self):
        super().__post_init__()
        freeze_fields(self, "train_scores")


def _segment_ranges(values: np.ndarray, counts: np.ndarray):
    """Min and max of each run of ``counts[i]`` consecutive values (every count >= 1)."""
    starts = np.cumsum(counts) - counts
    return np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)


def _varying_columns(x: np.ndarray, rows: np.ndarray, counts: np.ndarray):
    """(node, column) pairs, by node and then column, where x varies over the node's rows.

    ``rows`` holds flat offsets (row * m) into C-ordered x; node i owns
    ``counts[i]`` consecutive entries. Columns are scanned in blocks of
    about _BLOCK_CELLS gathered cells.
    """
    m = x.shape[1]
    width = max(1, _BLOCK_CELLS // rows.size)
    nodes, cols = [], []
    for c0 in range(0, m, width):
        block = x.ravel()[rows[:, None] + np.arange(c0, min(c0 + width, m))]
        lo, hi = _segment_ranges(block, counts)
        node, col = np.nonzero(hi > lo)
        nodes.append(node)
        cols.append(col + c0)
    nodes = np.concatenate(nodes)
    order = np.argsort(nodes, kind="stable")
    return nodes[order], np.concatenate(cols)[order]


def _draw_attributes(x: np.ndarray, rows: np.ndarray, counts: np.ndarray, rng) -> np.ndarray:
    """A split attribute per node, uniform over those that vary on its rows; -1 if none does.

    ``rows`` and ``counts`` are laid out as for _varying_columns. Each node
    draws one attribute and keeps it if it varies on the node's rows; the
    nodes whose draw was constant draw again, up to _ATTRIBUTE_DRAWS draws.
    Only the nodes still left have every column scanned, and they draw
    uniformly among their varying columns. A rejected draw leaves the next
    one uniform, so the result is exactly uniform over the varying columns
    without a full-width scan of every node.
    """
    feature = np.full(counts.size, -1)
    todo = np.arange(counts.size)
    for _ in range(_ATTRIBUTE_DRAWS):
        if not todo.size:
            return feature
        draw = rng.integers(x.shape[1], size=todo.size)
        lo, hi = _segment_ranges(x.ravel()[rows + np.repeat(draw, counts)], counts)
        varies = hi > lo
        feature[todo[varies]] = draw[varies]
        rows = rows[np.repeat(~varies, counts)]
        todo, counts = todo[~varies], counts[~varies]
    if todo.size:
        nodes, cols = _varying_columns(x, rows, counts)
        n_varying = np.bincount(nodes, minlength=todo.size)
        some = n_varying > 0
        pick = rng.integers(n_varying[some])
        feature[todo[some]] = cols[(np.cumsum(n_varying) - n_varying)[some] + pick]
    return feature


def _grow_forest(x: np.ndarray, samples: np.ndarray, rng: np.random.Generator) -> _PackedForest:
    """Grow one isolation tree on each row of ``samples`` (row indices into x).

    All trees grow together, one level per iteration. The rows of each node
    of the level sit consecutively in one array of flat offsets (row * m)
    into x. A node below the height limit with two or more rows takes an
    attribute from _draw_attributes and a cut uniform in [min, max) of that
    attribute over its rows; a stable partition then puts the rows that go
    left (value <= cut) ahead of the rest, so each child's rows are
    consecutive again. A node with one row, at the height limit, or whose
    rows are all identical is a leaf. Random draws come level by level: the
    attribute draws of the level's nodes, then one cut per splitting node,
    each in node order.
    """
    n_trees, psi = samples.shape
    height_limit = _height_limit(psi)
    leaf_credit = np.array([average_path_length(size) for size in range(psi + 1)])
    x = np.ascontiguousarray(x)
    rows, counts = samples.ravel() * x.shape[1], np.full(n_trees, psi)
    levels = []
    first = 0  # id of the level's first node
    for depth in range(height_limit + 1):
        feature = np.full(counts.size, -1)
        if depth < height_limit:
            live = counts > 1
            feature[live] = _draw_attributes(x, rows[np.repeat(live, counts)], counts[live], rng)
        split = feature >= 0
        n_split = int(split.sum())
        cut = np.zeros(counts.size)
        left = np.full(counts.size, -1)
        left[split] = first + counts.size + 2 * np.arange(n_split)
        leaf_value = np.where(split, 0.0, depth + leaf_credit[counts])
        if n_split:
            rows, counts = rows[np.repeat(split, counts)], counts[split]
            values = x.ravel()[rows + np.repeat(feature[split], counts)]
            lo, hi = _segment_ranges(values, counts)
            drawn = rng.uniform(lo, hi)
            drawn = np.where(drawn < hi, drawn, lo)  # rounding may land on hi
            cut[split] = drawn
            node = np.repeat(np.arange(n_split), counts)
            goes_right = values > drawn[node]
            rows = rows[np.argsort(2 * node + goes_right, kind="stable")]
            n_right = np.bincount(node[goes_right], minlength=n_split)
            counts = np.column_stack([counts - n_right, n_right]).ravel()
        levels.append((feature, cut, left, np.where(split, left + 1, -1), leaf_value))
        first += split.size
        if not n_split:
            break
    feature, cut, left, right, leaf_value = (np.concatenate(a) for a in zip(*levels))
    return _PackedForest(feature, cut, left, right, leaf_value, np.arange(n_trees), psi)


def iforest_fit(train: Dataset, cfg: DetectorConfig) -> IsolationForestModel:
    """Build an isolation forest on the training rows.

    Each tree grows on a uniform subsample of size min(max_samples, n)
    ("auto" = 256), splitting on a uniformly random attribute among those
    that vary on the node's rows, at a uniform random cut between that
    attribute's min and max there, down to height ceil(log2(subsample_size))
    or single-point (or all-duplicate) nodes. All trees grow together, level
    by level (_grow_forest), into flat node arrays. Scoring walks the
    (row, tree) pairs of a block of about _PATH_BLOCK_PAIRS pairs one level
    per step, so memory does not grow with rows x trees; the rows are
    split among min(usable CPUs, blocks, _MAX_WALK_THREADS) threads, each
    walking buffers the calling thread allocated (see
    _PackedForest.path_lengths). The
    (1 - contamination) quantile of the training scores is stored as the
    flagging threshold for held-out data.

    One generator, ``np.random.default_rng(cfg.seed)``, makes every draw, in
    this order: the subsample of each tree, in tree order; then, level by
    level, the attribute draws of that level's nodes (each round of draws in
    node order, then the picks of the fully scanned nodes) and their cuts,
    in node order. Results depend only on (data, config, seed); no block
    size or thread count changes them.
    """
    if cfg.kind != "iforest":
        raise DataError(f"config is for {cfg.kind!r}, not iforest")
    n = train.n
    if n < 2:
        raise DataError("isolation forest needs at least 2 rows")
    resolved = 256 if cfg.max_samples == "auto" else int(cfg.max_samples)
    psi = min(resolved, n)
    rng = np.random.default_rng(cfg.seed)
    samples = np.stack([rng.choice(n, size=psi, replace=False) for _ in range(cfg.n_trees)])
    forest = _grow_forest(train.values, samples, rng)
    train_scores = forest.score_samples(train.values)
    return IsolationForestModel(
        **vars(forest),
        m=train.m,
        config=cfg,
        train_scores=train_scores,
        threshold=_quantile_threshold(train_scores, cfg.contamination),
    )


def iforest_score(
    forest: IsolationForestModel, d: Dataset, transductive: bool = False
) -> DetectionResult:
    """Score a dataset against a fitted forest and flag outliers.

    By default the threshold is the (1 - contamination) quantile of the
    training scores (held-out flagging); in transductive mode it is taken
    from the scored set itself. Flags use strict ``score > threshold``.
    """
    if d.m != forest.m:
        raise DataError(f"dataset has m={d.m}, forest was fit on m={forest.m}")
    scores = forest.score_samples(d.values)
    if transductive:
        threshold = _quantile_threshold(scores, forest.config.contamination)
    else:
        threshold = forest.threshold
    return DetectionResult(scores=scores, threshold=threshold)


# ---------------------------------------------------------------------------
# local outlier factor
# ---------------------------------------------------------------------------


def _distance_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Manhattan distances between two row sets.

    Manhattan distance has no matrix-product form, so |a[:, j] - b[:, j]| is
    added into the block one column at a time, through one reused difference
    buffer of the block's size. The caller's row block bounds both.
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(out)
    for j in range(a.shape[1]):
        np.subtract(a[:, j, None], b[:, j], out=diff)
        out += np.abs(diff, out=diff)
    return out


def _pair_distances(query: np.ndarray, ref: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Exact Euclidean distances d(query[rows[i]], ref[cols[i]]) for each pair i.

    Each distance is summed from explicit differences. Pairs are gathered a
    tile at a time, so the gathered rows stay near _PAIR_TILE_CELLS cells.
    """
    per = max(1, _PAIR_TILE_CELLS // query.shape[1])
    out = np.empty(rows.size)
    for s in range(0, rows.size, per):
        diff = query[rows[s : s + per]] - ref[cols[s : s + per]]
        out[s : s + per] = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(out, out=out)


def _distinct_rows(x: np.ndarray):
    """Group the identical rows of x, in order of first appearance.

    Returns the index of each distinct row's first copy (ascending), the
    number of copies of each distinct row, and the distinct row of every row
    of x. Rows are merged only when they are equal in every byte. A key per
    row, the sum of the row times one fixed vector, is the same for identical
    rows, since every row is reduced the same way; only rows whose key
    repeats are compared byte by byte, so data without duplicates costs one
    pass and a sort of n keys.
    """
    n, m = x.shape
    key = (x * np.random.default_rng(0).uniform(1.0, 2.0, m)).sum(axis=1)
    _, key_group, key_count = np.unique(key, return_inverse=True, return_counts=True)
    suspects = np.flatnonzero(key_count[key_group.ravel()] > 1)
    label = np.arange(n)  # the first copy of each row
    if suspects.size:
        row_bytes = np.ascontiguousarray(x[suspects]).view(np.dtype((np.void, x.itemsize * m)))
        _, first, group = np.unique(row_bytes.ravel(), return_index=True, return_inverse=True)
        label[suspects] = suspects[first[group.ravel()]]
    is_first = label == np.arange(n)
    inverse = (np.cumsum(is_first) - 1)[label]
    return np.flatnonzero(is_first), np.bincount(inverse), inverse


def _take_rows(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """x[index] for an ascending row index; x itself, not a copy, when it takes every row."""
    return x if index.size == x.shape[0] else x[index]


def _row_kth(rows: np.ndarray, values: np.ndarray, copies: np.ndarray, n_rows: int, k: int):
    """k-th smallest of each row's entries, entry i counted ``copies[i]`` times.

    ``rows`` is ascending, and each row's copies add up to k or more. Each
    entry is laid ``copies[i]`` times into a table padded with +inf to the
    widest row of this call; with every count 1 that is one cell per entry,
    at most the width of the block the entries came from. A caller clips
    the counts at k, which bounds the table and changes no k-th value.
    """
    rows, values = np.repeat(rows, copies), np.repeat(values, copies)
    counts = np.bincount(rows, minlength=n_rows)
    table = np.full((n_rows, counts.max()), np.inf)
    table[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = values
    return np.partition(table, k - 1, axis=1)[:, k - 1]


class _Neighborhoods(NamedTuple):
    """Neighbor lists of every query row in CSR form.

    Row i owns the ``counts[i]`` consecutive entries of ``indices`` (reference
    rows, ascending), ``distances`` and ``weights`` (the copies of the
    reference row that the entry stands for); ``kdist[i]`` is its k-distance.
    """

    kdist: np.ndarray
    indices: np.ndarray
    distances: np.ndarray
    weights: np.ndarray
    counts: np.ndarray

    def row_mean(self, values: np.ndarray) -> np.ndarray:
        """Weighted mean of ``values`` (one per entry) over each row's entries.

        With every weight 1 the products are exact and both sums run over
        the same terms in the same order as an unweighted mean.
        """
        rows = np.repeat(np.arange(self.counts.size), self.counts)
        total = np.bincount(rows, weights=self.weights * values, minlength=self.counts.size)
        return total / np.bincount(rows, weights=self.weights, minlength=self.counts.size)


def _neighborhoods(
    query: np.ndarray, ref: np.ndarray, copies: np.ndarray, k: int, metric: str, exclude_self: bool
):
    """k-distances and CSR neighbor lists for every query row.

    Reference row j stands for ``copies[j]`` identical points. The
    k-distance of a row is the smallest distance within which those points
    number k or more, and its neighborhood is every reference row within it
    (distance ties included), weighted by its copies. With ``exclude_self``
    query row i is reference row i, one of whose copies is the row itself:
    that entry weighs one copy less. A lone copy weighs 0, which no sum or
    mean counts, and is set to +inf so that it is no candidate unless every
    reference row is one. Rows are taken in blocks of about _BLOCK_CELLS
    selection values, in two steps:

    1. Candidates. For Euclidean distance a block's selection values are
       ||r||^2 - 2 q.r from one matrix product; the query norm is constant
       along a row and is left out. The min(k, n_ref)-th smallest value
       comes from ``np.partition``, and every reference point within a
       rounding margin of it is a candidate. Every entry but a lone copy of
       the row itself (+inf) weighs at least 1, so that value bounds the
       k-distance. The margin, 4 (m + 2) eps (||q||^2 + max ||r||^2), covers
       the expansion's rounding error on a value and on the cut value plus
       the error of the exact distances, so every point that the exact
       distances put within the k-distance is a candidate, however far the
       data sit from the origin. Manhattan distance has no such expansion:
       its selection values are the exact distances from _distance_block,
       and there is no margin.
    2. Exact recheck. Candidate distances are recomputed from explicit
       differences (Euclidean only), so square roots are taken of candidates,
       never of a whole block. The k-distance is the k-th smallest of them,
       each counted min(weight, k) times (_row_kth), and every candidate
       within it is kept.
    """
    n_q, n_ref, m = query.shape[0], ref.shape[0], query.shape[1]
    block = max(1, _BLOCK_CELLS // n_ref)
    kth = min(k, n_ref) - 1
    euclidean = metric == "euclidean"
    if euclidean:
        # [q, 1] @ [-2 ref.T; ||r||^2] does the norm add inside the product
        ref_sq = np.einsum("ij,ij->i", ref, ref)
        ref_aug = np.vstack([-2.0 * ref.T, ref_sq])
        query_aug = np.hstack([query, np.ones((n_q, 1))])
        margin = 4 * (m + 2) * np.finfo(np.float64).eps * (
            np.einsum("ij,ij->i", query, query) + ref_sq.max()
        )
    else:
        margin = np.zeros(n_q)
    kdist = np.empty(n_q)
    indices, distances, weights, counts = [], [], [], []
    for start in range(0, n_q, block):
        stop = min(start + block, n_q)
        if euclidean:
            values = query_aug[start:stop] @ ref_aug
        else:
            values = _distance_block(query[start:stop], ref)
        if exclude_self:
            alone = np.flatnonzero(copies[start:stop] == 1)
            values[alone, alone + start] = np.inf
        cut = np.partition(values, kth, axis=1)[:, kth] + margin[start:stop]
        rows, cols = np.divmod(np.flatnonzero(values <= cut[:, None]), n_ref)
        weight = copies[cols]
        if exclude_self:
            weight = weight - (cols == rows + start)
        if euclidean:
            dist = _pair_distances(query[start:stop], ref, rows, cols)
        else:
            dist = values[rows, cols]
        kd = kdist[start:stop] = _row_kth(rows, dist, np.minimum(weight, k), stop - start, k)
        keep = dist <= kd[rows]
        indices.append(cols[keep])
        distances.append(dist[keep])
        weights.append(weight[keep])
        counts.append(np.bincount(rows[keep], minlength=stop - start))
    return _Neighborhoods(
        kdist, *(np.concatenate(a) for a in (indices, distances, weights, counts))
    )


def _local_reachability_density(nb: _Neighborhoods, kdist_ref: np.ndarray) -> np.ndarray:
    """1 / weighted mean reachability distance over each row's neighbors.

    reach(p, o) = max(kdist(o), d(p, o)); the mean is floored so duplicate
    rows (all-zero distances) yield a large finite density instead of a
    division by zero.
    """
    reach = np.maximum(nb.distances, kdist_ref[nb.indices])
    return 1.0 / np.maximum(nb.row_mean(reach), _MIN_DISTANCE)


@dataclass(frozen=True)
class LofModel:
    """LOF statistics of the training Dataset (``reference``, not a copy) for unseen rows.

    ``kdist``, ``lrd`` and ``train_scores`` hold one value per training row.
    ``distinct`` indexes the first copy of each distinct training row and
    ``copies`` counts its copies: the weighted points that scoring uses.
    """

    reference: Dataset
    distinct: np.ndarray
    copies: np.ndarray
    kdist: np.ndarray
    lrd: np.ndarray
    train_scores: np.ndarray
    threshold: float
    config: DetectorConfig

    def __post_init__(self):
        freeze_fields(self, "distinct", "copies", dtype=np.int64)
        freeze_fields(self, "kdist", "lrd", "train_scores")


def lof_fit_predict(d: Dataset, cfg: DetectorConfig) -> DetectionResult:
    """Transductive LOF: score and flag the rows of one dataset.

    The rows are their own reference set: the result holds the train scores
    and threshold of :func:`lof_fit` on ``d``. Scores are LOF values (about
    1 for inliers, well above 1 for outliers).
    """
    model = lof_fit(d, cfg)
    return DetectionResult(scores=model.train_scores, threshold=model.threshold)


def lof_fit(train: Dataset, cfg: DetectorConfig) -> LofModel:
    """Compute reference LOF statistics on training rows for held-out scoring.

    A row's LOF is the mean density of its neighbors (the other training
    rows) over its own. It is computed once per distinct row, with each
    distinct row weighted by its copies (_distinct_rows), and every copy
    gets that value. Distances follow ``cfg.metric``, here and in
    :func:`lof_score`. The stored threshold is the (1 - contamination)
    quantile of the training LOF values, one per training row.
    """
    if cfg.kind != "lof":
        raise DataError(f"config is for {cfg.kind!r}, not lof")
    k = cfg.k_neighbors
    if train.n <= k:
        raise DataError(f"LOF needs more rows than neighbors: n={train.n}, k={k}")
    distinct, copies, inverse = _distinct_rows(train.values)
    ref = _take_rows(train.values, distinct)
    nb = _neighborhoods(ref, ref, copies, k, cfg.metric, exclude_self=True)
    lrd = _local_reachability_density(nb, nb.kdist)
    lof = (nb.row_mean(lrd[nb.indices]) / lrd)[inverse]
    return LofModel(
        reference=train,
        distinct=distinct,
        copies=copies,
        kdist=nb.kdist[inverse],
        lrd=lrd[inverse],
        train_scores=lof,
        threshold=_quantile_threshold(lof, cfg.contamination),
        config=cfg,
    )


def lof_score(model: LofModel, d: Dataset) -> DetectionResult:
    """Score unseen rows against a fitted LOF reference, train-quantile threshold.

    Each query row is scored on its own against the distinct training rows,
    weighted by their copies; no training point is the query itself.
    """
    ref, cfg = model.reference, model.config
    if d.m != ref.m:
        raise DataError(f"dataset has m={d.m}, reference was fit on m={ref.m}")
    nb = _neighborhoods(
        d.values, _take_rows(ref.values, model.distinct), model.copies,
        cfg.k_neighbors, cfg.metric, exclude_self=False,
    )
    lrd = model.lrd[model.distinct]
    own_lrd = _local_reachability_density(nb, model.kdist[model.distinct])
    return DetectionResult(scores=nb.row_mean(lrd[nb.indices]) / own_lrd, threshold=model.threshold)
