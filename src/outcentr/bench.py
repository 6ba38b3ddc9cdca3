"""Experiment driver: run the reducer-by-detector matrix and report results.

One run config describes a dataset source (CSV or synthetic), the reducers
and detectors to cross, and a list of seeds. Every seed gets its own
stratified split; all reducers in a cell share that split and the same
output dimensionality k, and nothing derived from test rows leaks into
fitting. Timings cover the detector fit and predict phases only, so reduced
and full runs compare detector cost at equal footing.

Run configs and synth spec files are read by one INI reader, driven by a
table from (section, key) to dataclass field and parser. A key the file
leaves out is not passed on, so the defaults of :class:`RunConfig`,
:class:`SynthSpec` and :class:`DetectorConfig` are the only defaults.
"""

from __future__ import annotations

import configparser
import statistics
import time
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from pathlib import Path

from .baselines import grp_transform, pca_fit, pca_transform
from .data import (
    DataError,
    apply_normalization,
    existing_file,
    load_csv,
    normalize_minmax,
    split,
    write_rows,
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
from .ranking import export_rank, fit_reducer, top_t, transform
from .synth import SynthSpec, generate

REDUCERS = ("none", "outcentr", "pca", "grp")


class ConfigError(ValueError):
    """Invalid run configuration (bad file, bad key, bad value)."""


class RunError(RuntimeError):
    """A pipeline failure, tagged with the experiment cell that raised it."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs; normally parsed from an INI file.

    Construction builds every :class:`DetectorConfig` the run will use, so a
    bad detector setting or seed is a config error before any data is loaded.
    """

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
    metric: str = DetectorConfig.metric
    n_trees: int = DetectorConfig.n_trees
    max_samples: int | str = DetectorConfig.max_samples
    k_neighbors: int = DetectorConfig.k_neighbors
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
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not 0.0 < self.t_fraction <= 1.0:
            raise ConfigError(f"t_fraction must be in (0, 1], got {self.t_fraction}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split_fraction}")
        if not 0.0 < self.label_budget <= 1.0:
            raise ConfigError(f"label_budget must be in (0, 1], got {self.label_budget}")
        try:
            for kind in self.detectors:
                for seed in self.seeds:
                    # contamination comes from each split's labels; 0.5 is always valid
                    self.detector_config(kind, 0.5, seed)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc

    def detector_config(self, kind: str, contamination: float, seed: int) -> DetectorConfig:
        """The settings of one (detector, seed) cell of this run."""
        return DetectorConfig(
            kind=kind,
            contamination=contamination,
            n_trees=self.n_trees,
            max_samples=self.max_samples,
            k_neighbors=self.k_neighbors,
            seed=seed,
            metric=self.metric,
        )


def _parse_list(raw: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in raw.split(",") if item.strip())


def _parse_seeds(raw: str) -> tuple[int, ...]:
    return tuple(int(s) for s in _parse_list(raw))


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _parse_max_samples(raw: str) -> int | str:
    return raw if raw == "auto" else int(raw)


# SynthSpec field -> parser; each is also the key's name in [data] and [synth]
_SYNTH_KEYS = {
    "n": int, "m": int, "contamination": float, "n_informative": int, "separation": float,
}
# (section, key) -> (dataclass field, parser of the raw string)
_RUN_KEYS = {
    ("data", "source"): ("source", str),
    ("data", "csv"): ("csv_path", str),
    ("data", "label"): ("label_column", str),
    ("data", "positive_token"): ("positive_token", str),
    ("data", "negative_token"): ("negative_token", str),
    ("data", "name"): ("dataset_name", str),
    **{("data", key): (key, parse) for key, parse in _SYNTH_KEYS.items()},
    ("run", "reducers"): ("reducers", _parse_list),
    ("run", "detectors"): ("detectors", _parse_list),
    ("run", "seeds"): ("seeds", _parse_seeds),
    ("run", "t_fraction"): ("t_fraction", float),
    ("run", "split"): ("split_fraction", float),
    ("run", "output"): ("output_dir", str),
    ("run", "transductive"): ("transductive", _parse_bool),
    ("run", "label_budget"): ("label_budget", float),
    ("run", "metric"): ("metric", str),
    ("iforest", "n_trees"): ("n_trees", int),
    ("iforest", "max_samples"): ("max_samples", _parse_max_samples),
    ("lof", "k_neighbors"): ("k_neighbors", int),
}
_SPEC_KEYS = {
    **{("synth", key): (key, parse) for key, parse in _SYNTH_KEYS.items()},
    ("synth", "seed"): ("seed", int),
}


def _read_ini(path, keys) -> dict:
    """Parse an INI file against a key table; returns {field: value} for the keys it sets.

    ``keys`` maps (section, key) to (field, parser). Sections and keys
    outside the table are rejected, so typos fail loudly instead of silently
    running defaults, and so is a value its parser rejects. Keys the file
    leaves out are left out of the result.
    """
    path = existing_file(path, "config file", ConfigError)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8-sig")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for section in parser.sections():
        if section not in {s for s, _ in keys}:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(key for key in parser[section] if (section, key) not in keys)
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {unknown}")
    values = {}
    for (section, key), (field, parse) in keys.items():
        if parser.has_option(section, key):
            try:
                values[field] = parse(parser.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in [{section}]: {exc}") from exc
    return values


def _require(values: dict, keys, section: str, names) -> None:
    for key in names:
        if keys[section, key][0] not in values:
            raise ConfigError(f"missing required key {key!r} in [{section}]")


def _synth_spec(values: dict, keys, section: str) -> SynthSpec:
    _require(values, keys, section, ["n", "m", "contamination"])
    try:
        return SynthSpec(**values)
    except DataError as exc:
        raise ConfigError(f"bad synth spec: {exc}") from exc


def load_run_config(path) -> RunConfig:
    """Read a run config file (flat ``key = value`` lines under [section] headers).

    [data] source and [run] reducers, detectors and seeds are required, and
    so are n, m and contamination for a synth source. The display name
    defaults to the CSV file's stem or to ``synth-n..-m..-c..``.
    """
    values = _read_ini(path, _RUN_KEYS)
    _require(values, _RUN_KEYS, "data", ["source"])
    _require(values, _RUN_KEYS, "run", ["reducers", "detectors", "seeds"])
    synth = {key: values.pop(key) for key in _SYNTH_KEYS if key in values}
    if values["source"] == "synth":
        spec = values["synth"] = _synth_spec(synth, _RUN_KEYS, "data")
        name = f"synth-n{spec.n}-m{spec.m}-c{spec.contamination:g}"
    else:
        name = Path(values.get("csv_path", "dataset")).stem
    values.setdefault("dataset_name", name)
    return RunConfig(**values)


def load_synth_spec(path) -> SynthSpec:
    """Read a synth spec file: one [synth] section, n, m and contamination required."""
    return _synth_spec(_read_ini(path, _SPEC_KEYS), _SPEC_KEYS, "synth")


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


_MEDIANS = ("f1", "precision", "recall", "auc", "fit_seconds", "predict_seconds")


@dataclass(frozen=True)
class ExperimentReport:
    """All cells of one experiment, in execution order."""

    cells: tuple[CellResult, ...]

    def median_rows(self):
        """Per-(dataset, reducer, detector) medians over seeds, in first-seen order."""
        groups: dict[tuple[str, str, str], list[CellResult]] = {}
        for cell in self.cells:
            groups.setdefault((cell.dataset, cell.reducer, cell.detector), []).append(cell)
        return [
            {
                "dataset": dataset,
                "reducer": reducer,
                "detector": detector,
                "seeds": len(cells),
                **{name: statistics.median(getattr(c, name) for c in cells) for name in _MEDIANS},
            }
            for (dataset, reducer, detector), cells in groups.items()
        ]


def _reduce(reducer, train, test, t, seed, cfg):
    """Fit one reducer on train, apply to both parts; returns (train', test', rank).

    The reduced parts' width is the reducer's k. ``rank`` is the fitted
    :class:`AttributeRank` for outcentr and None otherwise.
    :class:`RunConfig` has checked the reducer's name.
    """
    if reducer == "none":
        return train, test, None
    if reducer == "outcentr":
        rank = fit_reducer(train, ratio=cfg.label_budget, t_fraction=cfg.t_fraction, seed=seed)
        return transform(train, rank), transform(test, rank), rank
    if reducer == "pca":
        model = pca_fit(train, min(t, train.n - 1))
        return pca_transform(model, train), pca_transform(model, test), None
    return grp_transform(train, t, seed), grp_transform(test, t, seed), None


def _detect(det_cfg, train_red, test_red, transductive):
    """Fit and score one detector; returns (DetectionResult, fit_s, predict_s).

    Inductive mode (default) thresholds test scores at the train-score
    quantile. Transductive mode mirrors fit-and-flag on the scored set: the
    forest keeps its train fit but thresholds on test scores, while LOF is
    recomputed on the test set alone (its fit phase is then empty).
    """
    start = time.perf_counter()
    if det_cfg.kind == "iforest":
        model = iforest_fit(train_red, det_cfg)
        fitted = time.perf_counter()
        result = iforest_score(model, test_red, transductive=transductive)
    elif transductive:
        fitted = start
        result = lof_fit_predict(test_red, det_cfg)
    else:
        model = lof_fit(train_red, det_cfg)
        fitted = time.perf_counter()
        result = lof_score(model, test_red)
    return result, fitted - start, time.perf_counter() - fitted


def run_experiment(cfg: RunConfig) -> ExperimentReport:
    """Execute the configured reducer-by-detector matrix over all seeds.

    Per seed: load or generate the dataset, split stratified, min-max scale
    on train and replay on test, fit each reducer on train at the shared k,
    then fit each detector on the reduced train and score the reduced test.
    Contamination is the outlier ratio of the training labels (capped at
    0.5). Any failure is re-raised tagged with its cell. With
    ``save_model_dir`` set, each seed's outcentr rank is exported there as
    ``outcentr_seed{seed}.csv``.

    Through its cells a seed holds the normalized train/test pair and one
    reduced pair. Each raw half lives only until its normalized half exists,
    and the source dataset only until its last split: a synthetic source is
    regenerated for every seed and dropped after that seed's split, while a
    CSV file is read once and kept until the last seed's split. No matrix of
    a seed outlives its cells.
    """
    save_dir = Path(cfg.save_model_dir) if cfg.save_model_dir else None
    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    data = None
    last = len(cfg.seeds) - 1
    for i, seed in enumerate(cfg.seeds):
        # the cell a failure is reported in: dataset, then reducer, then detector
        where = cell_id = f"dataset={cfg.dataset_name}, seed={seed}"
        try:
            if cfg.source == "synth":
                data, _ = generate(replace(cfg.synth, seed=seed))
            elif data is None:
                data = load_csv(
                    cfg.csv_path,
                    label_column=cfg.label_column,
                    positive_token=cfg.positive_token,
                    negative_token=cfg.negative_token,
                )
            train, test = split(data, cfg.split_fraction, seed)
            if cfg.source == "synth" or i == last:
                data = None  # no later seed splits this source
            # rebinding each name drops its raw half
            train = normalize_minmax(train)
            test = apply_normalization(test, train.normalization)
            contamination = min(float(train.labels.mean()), 0.5)
            t = top_t(train.m, cfg.t_fraction)
            for reducer in cfg.reducers:
                where = f"{cell_id}, reducer={reducer}"
                train_red, test_red, rank = _reduce(reducer, train, test, t, seed, cfg)
                if save_dir is not None and rank is not None:
                    export_rank(rank, save_dir / f"outcentr_seed{seed}.csv")
                for detector in cfg.detectors:
                    where = f"{cell_id}, reducer={reducer}, detector={detector}"
                    det_cfg = cfg.detector_config(detector, contamination, seed)
                    result, fit_s, predict_s = _detect(det_cfg, train_red, test_red, cfg.transductive)
                    cells.append(
                        CellResult(
                            cfg.dataset_name, reducer, detector, seed, train_red.m,
                            **vars(prf1(confusion(result.flags, test_red.labels))),
                            auc=roc_auc(result.scores, test_red.labels),
                            fit_seconds=fit_s, predict_seconds=predict_s,
                        )
                    )
            del train, test, train_red, test_red  # before the next seed's data exists
        except Exception as exc:
            raise RunError(f"cell ({where}): {exc}") from exc
    return ExperimentReport(cells=tuple(cells))


_RESULT_COLUMNS = tuple(f.name for f in fields(CellResult))


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

    rows = [
        [c.dataset, c.reducer, c.detector, c.seed, c.k_used,
         *(f"{v:.10g}" for v in (c.f1, c.precision, c.recall, c.auc)),
         f"{c.fit_seconds:.6f}", f"{c.predict_seconds:.6f}"]
        for c in report.cells
    ]
    results_path = write_rows(out_dir / "results.csv", _RESULT_COLUMNS, rows)
    timing = itemgetter(0, 1, 2, 3, 9, 10)  # dataset, reducer, detector, seed and the timings
    timings_path = write_rows(out_dir / "timings.csv", timing(_RESULT_COLUMNS), map(timing, rows))

    summary_path = out_dir / "summary.md"
    lines = ["# Experiment summary", ""]
    medians = report.median_rows()
    for dataset in dict.fromkeys(r["dataset"] for r in medians):
        lines.append(f"## {dataset}")
        lines.append("")
        lines.append("| Model | F1 | Recall | Precision |")
        lines.append("|---|---|---|---|")
        for r in medians:
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
