"""Independent brute-force oracles used to cross-check the fast implementations.

Everything here is written from the textbook definitions with plain loops,
deliberately sharing no code with the package internals.
"""

import csv
import math

import numpy as np

LOF_DISTANCE_FLOOR = 1e-12


def pairwise_auc(scores, labels):
    """ROC AUC as the fraction of (positive, negative) pairs ranked correctly.

    Ties between a positive and a negative score count one half.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _dist(u, v, metric):
    if metric == "euclidean":
        return float(np.sqrt(((u - v) ** 2).sum()))
    return float(np.abs(u - v).sum())


def brute_force_lof(x, k, metric="euclidean", query=None):
    """LOF values computed point by point from the definition.

    Neighborhood of p = every other point within p's k-distance (ties
    included). reach(p, o) = max(kdist(o), d(p, o)). lrd = 1 / mean reach,
    with the same zero-distance floor the implementation contracts to.
    With ``query``, returns instead the LOF of each query row against x: the
    row is not a point of x, so its neighborhood is drawn from all of x, and
    x's points keep their own k-distances and densities.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    dist = [[_dist(x[i], x[j], metric) for j in range(n)] for i in range(n)]

    kdist = []
    neighborhoods = []
    for i in range(n):
        others = sorted(dist[i][j] for j in range(n) if j != i)
        kd = others[k - 1]
        kdist.append(kd)
        neighborhoods.append([j for j in range(n) if j != i and dist[i][j] <= kd])

    lrd = []
    for i in range(n):
        reach = [max(kdist[j], dist[i][j]) for j in neighborhoods[i]]
        lrd.append(1.0 / max(sum(reach) / len(reach), LOF_DISTANCE_FLOOR))

    lof = []
    for i in range(n):
        lof.append(sum(lrd[j] for j in neighborhoods[i]) / len(neighborhoods[i]) / lrd[i])
    if query is None:
        return np.array(lof)

    query_lof = []
    for q in np.asarray(query, dtype=float):
        d = [_dist(q, x[j], metric) for j in range(n)]
        kd = sorted(d)[k - 1]
        neighborhood = [j for j in range(n) if d[j] <= kd]
        reach = [max(kdist[j], d[j]) for j in neighborhood]
        own_lrd = 1.0 / max(sum(reach) / len(reach), LOF_DISTANCE_FLOOR)
        query_lof.append(sum(lrd[j] for j in neighborhood) / len(neighborhood) / own_lrd)
    return np.array(query_lof)


def dense_neighborhoods(query, ref, copies, k, exclude_self):
    """k-distances and neighbor lists from every query-reference distance.

    Reference row j stands for ``copies[j]`` points; with ``exclude_self``
    query row i is reference row i and one of its copies is the row itself.
    Every distance is summed from explicit differences in float64, one query
    row at a time. The k-distance is the first distance, in ascending order,
    at which the copies seen reach k; the neighbors are the reference rows
    with a copy left within it, in ascending order. Returns (kdist, indices,
    distances, weights, counts), the CSR lists laid out row after row.
    """
    ref = np.asarray(ref, dtype=float)
    kdist, indices, distances, weights, counts = [], [], [], [], []
    for i, q in enumerate(np.asarray(query, dtype=float)):
        diff = q - ref
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        weight = [int(c) - (exclude_self and j == i) for j, c in enumerate(copies)]
        seen = 0
        for j in sorted(range(len(ref)), key=lambda j: dist[j]):
            seen += weight[j]
            if seen >= k:
                kd = dist[j]
                break
        row = [j for j in range(len(ref)) if weight[j] > 0 and dist[j] <= kd]
        kdist.append(kd)
        indices += row
        distances += [dist[j] for j in row]
        weights += [weight[j] for j in row]
        counts.append(len(row))
    return tuple(np.array(a) for a in (kdist, indices, distances, weights, counts))


def generate_by_stacking(spec):
    """A synthetic dataset as a stack of informative and noise columns, permuted.

    The draws of outcentr.synth.generate, in its order: the outlier
    direction, the informative block, the noise block, a column permutation
    and a row permutation. The blocks are stacked side by side, the columns
    permuted, then the rows. Returns (values, labels, informative positions).
    """
    rng = np.random.default_rng(spec.seed)
    n, m, d_inf, n_out = spec.n, spec.m, spec.informative_count, spec.n_outliers
    direction = rng.standard_normal(d_inf)
    direction /= np.linalg.norm(direction)
    informative = rng.standard_normal((n, d_inf))
    informative[:n_out] += spec.separation * direction
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_out] = 1
    columns = np.hstack([informative, rng.standard_normal((n, m - d_inf))])
    col_perm = rng.permutation(m)
    row_perm = rng.permutation(n)
    positions = tuple(int(j) for j in np.flatnonzero(col_perm < d_inf))
    return columns[:, col_perm][row_perm], labels[row_perm], positions


def isolation_tree_path(feature, cut, child, root, point):
    """Nodes that ``point`` visits in one isolation tree, from ``root`` to its leaf.

    A node that is its own child is a leaf; at any other node the point goes
    to ``child`` when its value of that feature is <= the node's cut, and to
    ``child + 1`` otherwise.
    """
    path = [int(root)]
    while child[path[-1]] != path[-1]:
        node = path[-1]
        path.append(int(child[node] if point[feature[node]] <= cut[node] else child[node] + 1))
    return path


def isolation_path_lengths(forest, x):
    """Mean over trees of the leaf value each row of x reaches, one row and one tree at a time."""
    lengths = []
    for point in np.asarray(x, dtype=float):
        total = 0.0
        for root in forest.roots:
            leaf = isolation_tree_path(forest.feature, forest.cut, forest.child, root, point)[-1]
            total += forest.leaf_value[leaf]
        lengths.append(total / len(forest.roots))
    return np.array(lengths)


class CsvRejected(Exception):
    """A CSV file the loading rules reject; the message is the loader's."""


def _binary_label(token, positive, negative):
    if token == positive:
        return 1
    if token == negative:
        return 0
    try:
        value = float(token)
    except ValueError:
        raise CsvRejected(f"non-binary label {token!r}") from None
    if value == 1.0:
        return 1
    if value == 0.0:
        return 0
    raise CsvRejected(f"non-binary label {token!r}")


def csv_dataset(path, label_column=None, positive="1", negative="0"):
    """What loading a CSV file must give, applying the rules cell by cell.

    Every cell is stripped first. The first row names the columns, and each
    later row must have as many fields; a row that does not is named by the
    line of the file it ends on. The label column, when named, holds
    the positive/negative tokens or numbers equal to 1/0. An empty cell in an
    attribute column is a missing value. A column is numeric when float()
    accepts every cell; otherwise each distinct token gets the next code in
    order of first appearance. Values must be finite.

    Returns (values, names, labels, levels), or raises CsvRejected with the
    message of the first rule broken, checked in that order.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        # each row with the line it ends on; a quoted field may span lines
        table = [([cell.strip() for cell in row], reader.line_num) for row in reader]
    if not table:
        raise CsvRejected("empty dataset")
    header, body = table[0][0], [row for row, _ in table[1:]]
    for row, line in table[1:]:
        if len(row) != len(header):
            raise CsvRejected(f"line {line}: expected {len(header)} fields, got {len(row)}")
    if len(set(header)) != len(header):
        raise CsvRejected("duplicate column names in header")
    labels = None
    if label_column is not None:
        if label_column not in header:
            raise CsvRejected(f"label column {label_column!r} not in header")
        k = header.index(label_column)
        labels = [_binary_label(row[k], positive, negative) for row in body]
        header = header[:k] + header[k + 1 :]
        body = [row[:k] + row[k + 1 :] for row in body]

    columns, levels = [], []
    for j, name in enumerate(header):
        cells = [row[j] for row in body]
        for i, cell in enumerate(cells):
            if cell == "":
                raise CsvRejected(f"missing value in column {name!r}, row {i + 1}")
        try:
            column = [float(cell) for cell in cells]
        except ValueError:
            codes = {}
            for cell in cells:
                if cell not in codes:
                    codes[cell] = len(codes)
            column = [float(codes[cell]) for cell in cells]
            levels.append((name, tuple(codes)))
        columns.append(column)
    if not body or not header:
        raise CsvRejected("empty dataset")
    for name, column in zip(header, columns):
        for i, value in enumerate(column):
            if not math.isfinite(value):
                raise CsvRejected(f"non-finite value {value} in column {name!r}, row {i + 1}")
    values = np.array(columns, dtype=np.float64).T
    return values, tuple(header), labels, tuple(levels)
