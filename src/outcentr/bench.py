"""Experiment driver: run the reducer-by-detector matrix and report results.

One run config describes a dataset source (CSV or synthetic), the reducers
and detectors to cross, and a list of seeds. Every seed gets its own
stratified split; all reducers in a cell share that split and the same
output dimensionality k, and nothing derived from test rows leaks into
fitting. Timings cover the detector fit and predict phases only, so reduced
and full runs compare detector cost at equal footing.
"""

from __future__ import annotations

import configparser
import csv
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .baselines import grp_model, grp_transform, pca_fit, pca_transform, save_model
from .data import (
    DISTANCE_METRICS,
    Context,
    DataError,
    Dataset,
    apply_normalization,
    load_csv,
    normalize_minmax,
    split,
)
from .detectors import (
    DetectorConfig,
    iforest_fit,
    iforest_score,
    lof_fit,
    lof_fit_predict,
    lof_score,
)
from .metrics import confusion, prf1, roc_auc
from .ranking import AttributeRank, export_rank, fit_reducer, load_rank, top_t, transform
from .synth import SynthSpec, generate

REDUCERS = ("none", "outcentr", "pca", "grp")
DETECTORS = ("iforest", "lof")


class ConfigError(ValueError):
    """Invalid run configuration (bad file, bad key, bad value)."""


class RunError(RuntimeError):
    """A pipeline failure, tagged with the experiment cell that raised it."""


def time_phase(action) -> float:
    """Monotonic wall-clock seconds spent executing ``action()``."""
    start = time.perf_counter()
    action()
    return max(time.perf_counter() - start, 1e-9)


def _timed(action):
    box = []
    seconds = time_phase(lambda: box.append(action()))
    return box[0], seconds


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs; normally parsed from an INI file."""

    source: str  # "csv" | "synth"
    dataset_name: str
    reducers: tuple[str, ...]
    detectors: tuple[str, ...]
    seeds: tuple[int, ...]
    csv_path: str | None = None
    label_column: str | None = None
    positive_token: str = "1"
    negative_token: str = "0"
    synth: SynthSpec | None = None
    t_fraction: float = 0.10
    split_fraction: float = 0.8
    output_dir: str = "results"
    transductive: bool = False
    label_budget: float = 1.0
    metric: str = "euclidean"
    n_trees: int = 100
    max_samples: int | str = "auto"
    k_neighbors: int = 20
    save_model_dir: str | None = None

    def __post_init__(self):
        if self.source not in ("csv", "synth"):
            raise ConfigError(f"source must be 'csv' or 'synth', got {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            raise ConfigError("csv source requires a csv path")
        if self.source == "csv" and not self.label_column:
            raise ConfigError("csv source requires a label column")
        if self.source == "synth" and self.synth is None:
            raise ConfigError("synth source requires n, m, and contamination")
        if not self.reducers:
            raise ConfigError("at least one reducer is required")
        if not self.detectors:
            raise ConfigError("at least one detector is required")
        for r in self.reducers:
            if r not in REDUCERS:
                raise ConfigError(f"unknown reducer {r!r} (choose from {REDUCERS})")
        for det in self.detectors:
            if det not in DETECTORS:
                raise ConfigError(f"unknown detector {det!r} (choose from {DETECTORS})")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not 0.0 < self.t_fraction <= 1.0:
            raise ConfigError(f"t_fraction must be in (0, 1], got {self.t_fraction}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split_fraction}")
        if not 0.0 < self.label_budget <= 1.0:
            raise ConfigError(f"label_budget must be in (0, 1], got {self.label_budget}")
        if self.metric not in DISTANCE_METRICS:
            raise ConfigError(f"metric must be one of {DISTANCE_METRICS}")


_SECTION_KEYS = {
    "data": {
        "source", "csv", "label", "positive_token", "negative_token", "name",
        "n", "m", "contamination", "n_informative", "separation",
    },
    "run": {
        "reducers", "detectors", "seeds", "t_fraction", "split", "output",
        "transductive", "label_budget", "metric",
    },
    "iforest": {"n_trees", "max_samples"},
    "lof": {"k_neighbors"},
}


def _parse_list(raw: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in raw.split(",") if item.strip())


def load_run_config(path) -> RunConfig:
    """Parse a run config file (flat ``key = value`` lines under [section] headers).

    Sections and keys outside the documented grammar are rejected so typos
    fail loudly instead of silently running defaults.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser[section]) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    if not parser.has_section("data") or not parser.has_section("run"):
        raise ConfigError("config needs [data] and [run] sections")

    data = parser["data"]
    run = parser["run"]
    try:
        source = data.get("source", "")
        synth = None
        csv_path = data.get("csv", fallback=None)
        label_column = data.get("label", fallback=None)
        if source == "synth":
            synth = SynthSpec(
                n=data.getint("n"),
                m=data.getint("m"),
                contamination=data.getfloat("contamination"),
                n_informative=data.getint("n_informative", fallback=None),
                separation=data.getfloat("separation", fallback=4.0),
            )
        name = data.get("name", fallback=None)
        if name is None:
            if source == "csv" and csv_path:
                name = Path(csv_path).stem
            elif synth is not None:
                name = f"synth-n{synth.n}-m{synth.m}-c{synth.contamination:g}"
            else:
                name = "dataset"
        return RunConfig(
            source=source,
            dataset_name=name,
            csv_path=csv_path,
            label_column=label_column,
            positive_token=data.get("positive_token", fallback="1"),
            negative_token=data.get("negative_token", fallback="0"),
            synth=synth,
            reducers=_parse_list(run.get("reducers", "")),
            detectors=_parse_list(run.get("detectors", "")),
            seeds=tuple(int(s) for s in _parse_list(run.get("seeds", ""))),
            t_fraction=run.getfloat("t_fraction", fallback=0.10),
            split_fraction=run.getfloat("split", fallback=0.8),
            output_dir=run.get("output", fallback="results"),
            transductive=run.getboolean("transductive", fallback=False),
            label_budget=run.getfloat("label_budget", fallback=1.0),
            metric=run.get("metric", fallback="euclidean"),
            n_trees=parser.getint("iforest", "n_trees", fallback=100),
            max_samples=_parse_max_samples(
                parser.get("iforest", "max_samples", fallback="auto")
            ),
            k_neighbors=parser.getint("lof", "k_neighbors", fallback=20),
        )
    except (ValueError, DataError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _parse_max_samples(raw: str) -> int | str:
    raw = raw.strip()
    return raw if raw == "auto" else int(raw)


@dataclass(frozen=True)
class CellResult:
    """Metrics and detector timings for one (dataset, reducer, detector, seed) cell."""

    dataset: str
    reducer: str
    detector: str
    seed: int
    k_used: int
    f1: float
    precision: float
    recall: float
    auc: float
    fit_seconds: float
    predict_seconds: float


@dataclass(frozen=True)
class ExperimentReport:
    """All cells of one experiment, in execution order."""

    cells: tuple[CellResult, ...]

    def median_rows(self):
        """Per-(dataset, reducer, detector) medians over seeds, in first-seen order."""
        groups: dict[tuple[str, str, str], list[CellResult]] = {}
        for cell in self.cells:
            groups.setdefault((cell.dataset, cell.reducer, cell.detector), []).append(cell)
        rows = []
        for (dataset, reducer, detector), cells in groups.items():
            rows.append(
                {
                    "dataset": dataset,
                    "reducer": reducer,
                    "detector": detector,
                    "seeds": len(cells),
                    "f1": statistics.median(c.f1 for c in cells),
                    "precision": statistics.median(c.precision for c in cells),
                    "recall": statistics.median(c.recall for c in cells),
                    "auc": statistics.median(c.auc for c in cells),
                    "fit_seconds": statistics.median(c.fit_seconds for c in cells),
                    "predict_seconds": statistics.median(c.predict_seconds for c in cells),
                }
            )
        return rows


def _load_source(cfg: RunConfig, seed: int, cache: dict) -> Dataset:
    if cfg.source == "csv":
        if "csv" not in cache:
            cache["csv"] = load_csv(
                cfg.csv_path,
                label_column=cfg.label_column,
                positive_token=cfg.positive_token,
                negative_token=cfg.negative_token,
            )
        return cache["csv"]
    dataset, _ = generate(replace(cfg.synth, seed=seed))
    return dataset


def _reduce(reducer, train, test, t, seed, cfg):
    """Fit one reducer on train, apply to both parts; returns (train', test', k, model)."""
    if reducer == "none":
        return train, test, train.m, None
    if reducer == "outcentr":
        rank = fit_reducer(train, ratio=cfg.label_budget, t_fraction=cfg.t_fraction, seed=seed)
        return transform(train, rank), transform(test, rank), rank.t, rank
    if reducer == "pca":
        k = min(t, train.n - 1)
        model = pca_fit(train, k)
        return pca_transform(model, train), pca_transform(model, test), k, model
    if reducer == "grp":
        return grp_transform(train, t, seed), grp_transform(test, t, seed), t, grp_model(train.m, t, seed)
    raise ConfigError(f"unknown reducer {reducer!r}")


def _detect(det_cfg, train_red, test_red, transductive, context):
    """Fit and score one detector; returns (DetectionResult, fit_s, predict_s).

    Inductive mode (default) thresholds test scores at the train-score
    quantile. Transductive mode mirrors fit-and-flag on the scored set: the
    forest keeps its train fit but thresholds on test scores, while LOF is
    recomputed on the test set alone (its fit phase is then empty).
    """
    if det_cfg.kind == "iforest":
        model, fit_s = _timed(lambda: iforest_fit(train_red, det_cfg))
        result, predict_s = _timed(
            lambda: iforest_score(model, test_red, transductive=transductive)
        )
    elif transductive:
        fit_s = 0.0
        result, predict_s = _timed(lambda: lof_fit_predict(test_red, det_cfg, context))
    else:
        model, fit_s = _timed(lambda: lof_fit(train_red, det_cfg, context))
        result, predict_s = _timed(lambda: lof_score(model, test_red))
    return result, fit_s, predict_s


def run_experiment(cfg: RunConfig) -> ExperimentReport:
    """Execute the configured reducer-by-detector matrix over all seeds.

    Per seed: load or generate the dataset, split stratified, min-max scale
    on train and replay on test, fit each reducer on train at the shared k,
    then fit each detector on the reduced train and score the reduced test.
    Contamination is the outlier ratio of the training labels (capped at
    0.5). Any failure is re-raised tagged with its cell.
    """
    context = Context(dist=cfg.metric)
    save_dir = Path(cfg.save_model_dir) if cfg.save_model_dir else None
    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    cache: dict = {}
    for seed in cfg.seeds:
        cell_id = f"dataset={cfg.dataset_name}, seed={seed}"
        try:
            data = _load_source(cfg, seed, cache)
            pair = split(data, cfg.split_fraction, seed)
            train = normalize_minmax(pair.train)
            test = apply_normalization(pair.test, train.normalization)
            contamination = min(float(train.labels.mean()), 0.5)
            t = top_t(train.m, cfg.t_fraction)
        except Exception as exc:
            raise RunError(f"cell ({cell_id}): {exc}") from exc
        for reducer in cfg.reducers:
            try:
                train_red, test_red, k_used, model = _reduce(
                    reducer, train, test, t, seed, cfg
                )
                if save_dir is not None and model is not None:
                    _save_reducer_model(save_dir, reducer, seed, model)
            except Exception as exc:
                raise RunError(f"cell ({cell_id}, reducer={reducer}): {exc}") from exc
            for detector in cfg.detectors:
                try:
                    det_cfg = DetectorConfig(
                        kind=detector,
                        contamination=contamination,
                        n_trees=cfg.n_trees,
                        max_samples=cfg.max_samples,
                        k_neighbors=cfg.k_neighbors,
                        seed=seed,
                    )
                    result, fit_s, predict_s = _detect(
                        det_cfg, train_red, test_red, cfg.transductive, context
                    )
                    counts = confusion(result.flags, test_red.labels)
                    scored = prf1(counts)
                    auc = roc_auc(result.scores, test_red.labels)
                except Exception as exc:
                    raise RunError(
                        f"cell ({cell_id}, reducer={reducer}, detector={detector}): {exc}"
                    ) from exc
                cells.append(
                    CellResult(
                        dataset=cfg.dataset_name,
                        reducer=reducer,
                        detector=detector,
                        seed=seed,
                        k_used=k_used,
                        f1=scored.f1,
                        precision=scored.precision,
                        recall=scored.recall,
                        auc=auc,
                        fit_seconds=fit_s,
                        predict_seconds=predict_s,
                    )
                )
    return ExperimentReport(cells=tuple(cells))


def _save_reducer_model(save_dir: Path, reducer: str, seed: int, model) -> None:
    if isinstance(model, AttributeRank):
        export_rank(model, save_dir / f"outcentr_seed{seed}.csv")
    else:
        save_model(model, save_dir / f"{reducer}_seed{seed}.txt")


_RESULT_COLUMNS = (
    "dataset", "reducer", "detector", "seed", "k_used",
    "f1", "precision", "recall", "auc", "fit_seconds", "predict_seconds",
)


def emit_report(report: ExperimentReport, out_dir) -> tuple[Path, Path, Path]:
    """Write results.csv, summary.md, and timings.csv into a directory.

    Refuses to write an empty report. summary.md groups by dataset, one row
    per detector/reducer pairing, with median F1 / Recall / Precision shown
    as percentages with two decimals.
    """
    if not report.cells:
        raise ValueError("empty report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results_path = out_dir / "results.csv"
    with results_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULT_COLUMNS)
        for c in report.cells:
            writer.writerow(
                [
                    c.dataset, c.reducer, c.detector, c.seed, c.k_used,
                    f"{c.f1:.10g}", f"{c.precision:.10g}", f"{c.recall:.10g}",
                    f"{c.auc:.10g}", f"{c.fit_seconds:.6f}", f"{c.predict_seconds:.6f}",
                ]
            )

    timings_path = out_dir / "timings.csv"
    with timings_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "reducer", "detector", "seed", "fit_seconds", "predict_seconds"])
        for c in report.cells:
            writer.writerow(
                [c.dataset, c.reducer, c.detector, c.seed,
                 f"{c.fit_seconds:.6f}", f"{c.predict_seconds:.6f}"]
            )

    summary_path = out_dir / "summary.md"
    lines = ["# Experiment summary", ""]
    rows = report.median_rows()
    for dataset in dict.fromkeys(r["dataset"] for r in rows):
        lines.append(f"## {dataset}")
        lines.append("")
        lines.append("| Model | F1 | Recall | Precision |")
        lines.append("|---|---|---|---|")
        for r in rows:
            if r["dataset"] != dataset:
                continue
            model = r["detector"] if r["reducer"] == "none" else f"{r['detector']} ({r['reducer']})"
            lines.append(
                f"| {model} | {100 * r['f1']:.2f}% | {100 * r['recall']:.2f}% "
                f"| {100 * r['precision']:.2f}% |"
            )
        lines.append("")
    summary_path.write_text("\n".join(lines), encoding="utf-8")
    return results_path, summary_path, timings_path


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
