"""Correctness checks on outputs captured at the layer boundaries.

Each check recomputes a result from its definition with code that shares
nothing with the program, or tests a property the method guarantees:

- precision, recall and F1 recounted from each cell's flags and labels;
- ROC AUC by direct comparison of every (outlier, inlier) score pair;
- LOF of a sample of scored rows from the definition of Breunig et al.
  (2000), k-distance ties included in the neighbourhood;
- PCA components orthonormal, explained variances equal to the top
  eigenvalues of ``np.linalg.eigh`` of the train covariance;
- GRP's mean ratio of projected to original squared distances near 1;
- iForest scores inside (0, 1) (Liu, Ting & Zhou 2008);
- the centroid-gap selection equal to the top-t gaps recomputed here;
- ``load_csv`` giving back exactly the table the benchmark wrote;
- on synthetic workloads with the paper's property: most informative
  columns recovered, and outcentr's median iForest F1 above none's.

Cell checks decide which cells failed; workload checks decide ``correct``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

LOF_FLOOR = 1e-12  # mean reachability floor the detector contracts to
LOF_SAMPLE_TOP = 2
LOF_SAMPLE_RANDOM = 4
GRP_PAIRS = 2000
GRP_SIGMAS = 6.0
RECOVERY_MIN = 0.5
DETECTOR_OF_SCORE = {"iforest_score": "iforest", "lof_score": "lof"}


@dataclass
class Verdict:
    cell_failures: dict = field(default_factory=dict)  # cell index -> [reason]
    workload_failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def fail_cell(self, index: int, reason: str) -> None:
        self.cell_failures.setdefault(index, []).append(reason)


# ---------------------------------------------------------------- metrics


def recount_prf1(flags, labels):
    flags = np.asarray(flags)
    labels = np.asarray(labels)
    tp = int(np.sum((flags == 1) & (labels == 1)))
    fp = int(np.sum((flags == 1) & (labels == 0)))
    fn = int(np.sum((flags == 0) & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def pairwise_auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return wins / (pos.size * neg.size)


# -------------------------------------------------------------------- LOF


class LofOracle:
    """LOF of query rows against a reference set, from the definition.

    Distances are taken from per-pair differences. Rows of the reference are
    computed lazily, so only the neighbourhoods a query reaches are paid for.
    """

    def __init__(self, reference: np.ndarray, k: int, metric: str):
        self.ref = np.asarray(reference, dtype=np.float64)
        self.k = k
        self.metric = metric
        self._kdist: dict[int, float] = {}
        self._lrd: dict[int, float] = {}

    def _distances(self, point: np.ndarray) -> np.ndarray:
        diff = self.ref - point
        manhattan = self.metric == "manhattan"
        terms = np.abs(diff) if manhattan else diff * diff
        # Summed in sorted order, a row's total depends only on the multiset
        # of its terms: two distances equal in exact arithmetic stay equal
        # whichever columns they differ in, so ties stay ties.
        total = np.sort(terms, axis=1).sum(axis=1)
        return total if manhattan else np.sqrt(total)

    def _neighbourhood(self, d: np.ndarray):
        kd = float(np.partition(d, self.k - 1)[self.k - 1])
        return kd, np.flatnonzero(d <= kd)

    def _ref_row(self, o: int):
        d = self._distances(self.ref[o])
        d[o] = np.inf  # a reference point is not its own neighbour
        return d

    def kdist(self, o: int) -> float:
        if o not in self._kdist:
            self._kdist[o] = self._neighbourhood(self._ref_row(o))[0]
        return self._kdist[o]

    def _lrd_of(self, d: np.ndarray, members: np.ndarray) -> float:
        kd = np.array([self.kdist(int(o)) for o in members])
        return 1.0 / max(float(np.maximum(kd, d[members]).mean()), LOF_FLOOR)

    def lrd(self, o: int) -> float:
        if o not in self._lrd:
            d = self._ref_row(o)
            kd, members = self._neighbourhood(d)
            self._kdist[o] = kd
            self._lrd[o] = self._lrd_of(d, members)
        return self._lrd[o]

    def lof(self, query: np.ndarray) -> float:
        d = self._distances(np.asarray(query, dtype=np.float64))
        members = self._neighbourhood(d)[1]
        lrd_q = self._lrd_of(d, members)
        return float(np.mean([self.lrd(int(o)) for o in members])) / lrd_q


def lof_sample(scores: np.ndarray, seed: int) -> list[int]:
    """Rows to recompute: the highest scores plus a seeded random few."""
    order = np.argsort(-scores, kind="stable")
    picked = [int(i) for i in order[:LOF_SAMPLE_TOP]]
    rng = np.random.default_rng(seed)
    rest = np.setdiff1d(np.arange(scores.size), picked)
    picked += [int(i) for i in rng.choice(rest, size=min(LOF_SAMPLE_RANDOM, rest.size), replace=False)]
    return picked


# --------------------------------------------------------------- reducers


def check_pca(train_values: np.ndarray, k: int, model) -> list[str]:
    x = np.asarray(train_values, dtype=np.float64)
    mean = x.mean(axis=0)
    centred = x - mean
    cov = centred.T @ centred / (x.shape[0] - 1)
    eigenvalues = np.linalg.eigh(cov)[0][::-1][:k]
    scale = max(float(eigenvalues[0]), 1e-300)
    comps = np.asarray(model.components)
    variance = np.asarray(model.explained_variance)
    problems = []
    if comps.shape != (k, x.shape[1]):
        return [f"pca components shape {comps.shape}, expected {(k, x.shape[1])}"]
    if not np.allclose(model.mean, mean, rtol=0, atol=1e-12):
        problems.append("pca mean differs from the train mean")
    gram_err = float(np.abs(comps @ comps.T - np.eye(k)).max())
    if gram_err > 1e-8:
        problems.append(f"pca components not orthonormal (max |CC^T-I| {gram_err:.2e})")
    var_err = float(np.abs(variance - np.clip(eigenvalues, 0, None)).max())
    if var_err > 1e-7 * scale + 1e-12:
        problems.append(f"pca explained variance off eigh by {var_err:.2e}")
    residual = float(np.abs(cov @ comps.T - comps.T * variance).max())
    if residual > 1e-6 * scale:
        problems.append(f"pca components are not eigenvectors (residual {residual:.2e})")
    return problems


def grp_distance_ratio(x: np.ndarray, y: np.ndarray, seed: int):
    """Mean projected/original squared-distance ratio over sampled pairs,
    and the tolerance it must meet.

    For a projection P with N(0, 1/k) entries and unit difference vectors u,
    the mean ratio is tr(P^T P S) with S the mean of u u^T, whose mean over P
    is 1 and whose standard deviation is sqrt(2 tr(S^2) / k). The tolerance
    is ``GRP_SIGMAS`` of those deviations.
    """
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    i = rng.integers(0, n, GRP_PAIRS)
    j = rng.integers(0, n, GRP_PAIRS)
    u = x[i] - x[j]
    v = y[i] - y[j]
    norms = (u * u).sum(axis=1)
    keep = norms > 0
    u, v, norms = u[keep], v[keep], norms[keep]
    ratio = float(((v * v).sum(axis=1) / norms).mean())
    unit = u / np.sqrt(norms)[:, None]
    s = unit.T @ unit / unit.shape[0]
    sd = math.sqrt(2.0 * float((s * s).sum()) / y.shape[1])
    return ratio, GRP_SIGMAS * sd, int(keep.sum())


def top_gap_problems(train, rank, t_fraction: float) -> list[str]:
    """The selected names must be the t largest centroid gaps (ties allowed)."""
    x = np.asarray(train.values)
    labels = np.asarray(train.labels)
    gap = np.abs(x[labels == 1].mean(axis=0) - x[labels == 0].mean(axis=0))
    t = max(1, math.floor(t_fraction * x.shape[1] + 1e-9))
    names = list(train.attribute_names)
    selected = [names.index(n) for n in rank.selected]
    if len(selected) != t or len(set(selected)) != t:
        return [f"selected {len(selected)} attributes, expected t={t}"]
    rest = np.setdiff1d(np.arange(x.shape[1]), selected)
    if rest.size and gap[selected].min() < gap[rest].max() - 1e-12:
        return ["selection is not the top-t centroid gaps"]
    return []


# ------------------------------------------------------------- the run


def check_csv(table, loaded) -> list[str]:
    problems = []
    if tuple(loaded.attribute_names) != table.header:
        problems.append("load_csv attribute names differ from the header written")
    if loaded.values.shape != table.values.shape or not np.array_equal(loaded.values, table.values):
        problems.append("load_csv matrix differs from the values written")
    if loaded.labels is None or not np.array_equal(loaded.labels, table.labels):
        problems.append("load_csv labels differ from the labels written")
    if tuple(loaded.categorical_levels) != table.levels:
        problems.append("load_csv category codes differ from first-appearance order")
    return problems


def check_run(events, cells, inputs, workload, seeds) -> Verdict:
    """Check one captured ``run_experiment`` call; ``cells`` is its report.

    Events are read in call order. Each pipeline seed makes one ``split``
    call; a reducer's checks apply to the detector cells that follow it.
    """
    verdict = Verdict()
    cfg = inputs.config
    if sum(ev.name == "split" for ev in events) != len(seeds):
        verdict.workload_failures.append(f"expected one split per seed {seeds}")
        return verdict
    seed_iter = iter(seeds)
    seed, informative, loaded = None, None, False
    outputs = []  # one per detector scoring call, in cell order
    for ev in events:
        if ev.name == "load_csv" and not loaded:
            loaded = True
            verdict.workload_failures += check_csv(inputs.table, ev.result)
        elif ev.name == "generate":
            dataset, informative = ev.result
            if inputs.generated is None or not np.array_equal(dataset.values, inputs.generated.values):
                verdict.workload_failures.append("generate is not deterministic for the seed")
        elif ev.name == "split":
            seed = next(seed_iter)
            reducer_problems = {"none": []}
            fitted = {}
        elif ev.name == "fit_reducer":
            train, rank = ev.args[0], ev.result
            reducer_problems["outcentr"] = top_gap_problems(train, rank, cfg.t_fraction)
            if informative is not None:
                chosen = {train.attribute_names.index(n) for n in rank.selected}
                recovered = len(chosen & set(informative)) / len(informative)
                verdict.notes.setdefault("recovery", []).append(round(recovered, 4))
                if workload.paper_property and recovered < RECOVERY_MIN:
                    verdict.workload_failures.append(
                        f"seed {seed}: top-t recovers {recovered:.0%} of informative columns"
                    )
        elif ev.name == "transform" and "transform" not in fitted:
            fitted["transform"] = True
            d, rank = ev.args[0], ev.args[1]
            cols = sorted(d.attribute_names.index(n) for n in rank.selected)
            if not np.array_equal(ev.result.values, d.values[:, cols]):
                reducer_problems.setdefault("outcentr", []).append(
                    "transform is not the projection onto the selected columns"
                )
        elif ev.name == "pca_fit":
            reducer_problems["pca"] = check_pca(ev.args[0].values, ev.args[1], ev.result)
        elif ev.name == "grp_transform" and "grp" not in reducer_problems:
            ratio, tol, pairs = grp_distance_ratio(ev.args[0].values, ev.result.values, seed)
            verdict.notes.setdefault("grp_ratio", []).append(round(ratio, 4))
            reducer_problems["grp"] = (
                [] if abs(ratio - 1.0) <= tol and pairs >= 10
                else [f"grp distance ratio {ratio:.3f} outside 1 +/- {tol:.3f}"]
            )
        elif ev.name == "iforest_fit":
            fitted["iforest"] = ev.result
        elif ev.name == "lof_fit":
            train_red, det_cfg, context = (list(ev.args) + [None, None])[:3]
            fitted["lof"] = (train_red.values, det_cfg.k_neighbors, getattr(context, "dist", "euclidean"))
        elif ev.name in DETECTOR_OF_SCORE:
            detector = DETECTOR_OF_SCORE[ev.name]
            outputs.append((seed, detector, ev.args[1], ev.result, fitted.get(detector), dict(reducer_problems)))

    if len(outputs) != len(cells):
        verdict.workload_failures.append(f"{len(outputs)} detector outputs for {len(cells)} cells")
        return verdict

    for index, (cell, out) in enumerate(zip(cells, outputs)):
        seed, detector, scored, result, fit, reducer_problems = out
        for reason in _cell_problems(cell, seed, detector, scored, result, fit):
            verdict.fail_cell(index, reason)
        for reason in reducer_problems.get(cell.reducer, ["reducer output not captured"]):
            verdict.fail_cell(index, reason)

    if workload.paper_property:
        _check_paper_property(cells, verdict)
    return verdict


def _cell_problems(cell, seed, detector, scored, result, fit) -> list[str]:
    problems = []
    if cell.detector != detector or cell.seed != seed:
        return [f"cell order: expected {detector}/seed {seed}"]
    scores = np.asarray(result.scores)
    flags = np.asarray(result.flags)
    labels = np.asarray(scored.labels)
    if not np.array_equal(flags, (scores > result.threshold).astype(flags.dtype)):
        problems.append("flags are not scores above the threshold")
    precision, recall, f1 = recount_prf1(flags, labels)
    for name, mine, theirs in (
        ("precision", precision, cell.precision),
        ("recall", recall, cell.recall),
        ("f1", f1, cell.f1),
    ):
        if abs(mine - theirs) > 1e-12:
            problems.append(f"{name} {theirs} recounts as {mine}")
    auc = pairwise_auc(scores, labels)
    if abs(auc - cell.auc) > 1e-9:
        problems.append(f"auc {cell.auc} recounts pairwise as {auc}")
    if detector == "iforest":
        train_scores = getattr(fit, "train_scores", np.array([0.5]))
        for what, s in (("test", scores), ("train", np.asarray(train_scores))):
            if not np.all((s > 0.0) & (s < 1.0)):
                problems.append(f"iforest {what} scores outside (0, 1)")
    elif fit is None:
        problems.append("lof reference not captured")
    else:
        reference, k, metric = fit
        oracle = LofOracle(reference, k, metric)
        for i in lof_sample(scores, seed):
            expected = oracle.lof(scored.values[i])
            if not math.isclose(scores[i], expected, rel_tol=1e-6, abs_tol=1e-9):
                problems.append(f"lof row {i}: {scores[i]!r} vs definition {expected!r}")
    return problems


def _check_paper_property(cells, verdict: Verdict) -> None:
    """OutCenTR lifts iForest F1 over the full feature set (median over seeds).

    LOF is left out of this property: at k=20 its F1 on the reduced data is
    often no better than at full width on single seeds (see README).
    """
    f1 = {
        reducer: statistics.median(c.f1 for c in cells if c.reducer == reducer and c.detector == "iforest")
        for reducer in ("none", "outcentr")
    }
    verdict.notes["iforest_median_f1"] = {r: round(v, 4) for r, v in f1.items()}
    if not f1["outcentr"] > f1["none"]:
        verdict.workload_failures.append(
            f"outcentr median iForest F1 {f1['outcentr']:.3f} does not beat none's {f1['none']:.3f}"
        )
