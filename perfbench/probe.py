"""Wrap the layer functions that ``outcentr.bench`` calls, from outside.

``run_experiment`` reaches every layer through names imported into the
``outcentr.bench`` namespace, so replacing those names for the length of a
``with Probe(...)`` block sees every layer call of the same run without
touching the program. A probe can capture each call's arguments and result
(for the correctness checks) and time each call (for the traced run).
Names that a later version of the program no longer imports are skipped.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

# name imported into outcentr.bench -> per-layer metric its time adds to
LAYERS = {
    "generate": "synth.generate_s",
    "load_csv": "data.load_csv_s",
    "split": "data.split_s",
    "normalize_minmax": "data.normalize_s",
    "apply_normalization": "data.normalize_s",
    "fit_reducer": "ranking.fit_reducer_s",
    "transform": "ranking.transform_s",
    "pca_fit": "baselines.pca_fit_s",
    "pca_transform": "baselines.pca_transform_s",
    "grp_transform": "baselines.grp_transform_s",
    "grp_model": "baselines.grp_transform_s",
    "lof_fit": "detectors.lof_fit_s",
    "lof_score": "detectors.lof_score_s",
    "lof_fit_predict": "detectors.lof_score_s",
    "iforest_fit": "detectors.iforest_fit_s",
    "iforest_score": "detectors.iforest_score_s",
    "confusion": "metrics.score_s",
    "prf1": "metrics.score_s",
    "roc_auc": "metrics.score_s",
}
LOF_CALLS = ("lof_fit", "lof_score")


@dataclass
class Event:
    name: str
    args: tuple
    result: object


def forest_nodes(model) -> int:
    """Node count read from a fitted forest's arrays (0 if the layout is unknown)."""
    trees = getattr(model, "trees", None)
    if trees is not None:
        return sum(len(getattr(t, "feature", ())) for t in trees)
    return len(getattr(model, "feature", ()))


class Probe:
    """Context manager that swaps the layer names in ``outcentr.bench``.

    ``capture`` keeps every call as an :class:`Event`; ``timing`` adds each
    call's wall time to ``seconds`` under its layer metric, and measures
    LOF's peak traced allocation and distance-pair count.
    """

    def __init__(self, bench_module, capture: bool = False, timing: bool = False):
        self.bench = bench_module
        self.capture = capture
        self.timing = timing
        self.events: list[Event] = []
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.lof_peak_mb = 0.0
        self._lof_ref_rows = 0
        self._saved: dict = {}

    def reset(self) -> None:
        """Start a new call's events, times and counts (the LOF peak is kept)."""
        self.events = []
        self.seconds = Counter()
        self.counts = Counter()

    def __enter__(self):
        for name, layer in LAYERS.items():
            original = getattr(self.bench, name, None)
            if original is not None:
                self._saved[name] = original
                setattr(self.bench, name, self._wrap(name, layer, original))
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(self.bench, name, original)
        self._saved.clear()
        return False

    def _wrap(self, name, layer, fn):
        lof = name in LOF_CALLS

        def wrapper(*args, **kwargs):
            trace_memory = self.timing and lof
            if trace_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if trace_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.lof_peak_mb = max(self.lof_peak_mb, peak / 2**20)
            if self.timing:
                self.seconds[layer] += elapsed
                self._count(name, args, result)
            if self.capture:
                self.events.append(Event(name, args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, result) -> None:
        if name == "lof_fit":
            self._lof_ref_rows = args[0].n
            self.counts["detectors.lof_pairs"] += args[0].n ** 2
        elif name == "lof_score":
            self.counts["detectors.lof_pairs"] += args[1].n * self._lof_ref_rows
        elif name == "iforest_fit":
            self.counts["detectors.iforest_nodes"] += forest_nodes(result)
