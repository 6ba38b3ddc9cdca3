"""Workload definitions and the seeded inputs each one runs on.

Every input is made here from the run's seed, with numpy only, so the
program under test receives nothing but generated data. CSV files are
written by this module's own writer, never by ``outcentr.write_csv``, so a
fault in the program's writer cannot hide a matching fault in its reader.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALL_REDUCERS = ("none", "outcentr", "pca", "grp")
BOTH_DETECTORS = ("iforest", "lof")
WORK_DIR = ".perfbench"


@dataclass(frozen=True)
class Workload:
    """One reducer x detector matrix over one kind of input.

    ``size`` holds the generator's parameters; ``tiny`` overrides some of
    them for the harness self-test.
    """

    name: str
    source: str  # "synth" | "csv"
    reducers: tuple[str, ...]
    detectors: tuple[str, ...]
    size: dict
    tiny: dict = field(default_factory=dict)
    # properties of the paper's method that must hold on this input
    paper_property: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's experiment matrix. Time is spread over LOF at full
        # width, the eigensolver behind PCA and iForest building.
        Workload(
            "paper", "synth", ALL_REDUCERS, BOTH_DETECTORS,
            size=dict(n=2000, m=100, contamination=0.05, n_informative=10, separation=4.0),
            tiny=dict(n=600, m=40, n_informative=4, separation=6.0),
            paper_property=True,
        ),
        # LOF's pairwise-distance kernel at 500 columns against the
        # m-independent neighbourhood work of the reduced cells. PCA is left
        # out: its eigensolver takes tens of seconds per fit at m=500.
        Workload(
            "wide", "synth", ("none", "outcentr", "grp"), BOTH_DETECTORS,
            size=dict(n=1000, m=500, contamination=0.05, n_informative=50, separation=8.0),
            tiny=dict(n=400, m=120, n_informative=12),
            paper_property=True,
        ),
        # CSV parsing is the largest single call (one parse feeds four
        # iForest cells); iForest only, because LOF is O(n^2).
        Workload(
            "tall-csv", "csv", ALL_REDUCERS, ("iforest",),
            size=dict(rows=20000, numeric=50, contamination=0.05, informative=6),
            tiny=dict(rows=1500),
        ),
        # Mostly binary attributes: after reduction rows collapse into a few
        # distinct values, so LOF's tie groups set its memory.
        Workload(
            "nvd-ties", "csv", ALL_REDUCERS, BOTH_DETECTORS,
            size=dict(rows=3000, binary=40, contamination=0.03, informative=4),
            tiny=dict(rows=600),
        ),
    )
}


def resolved_size(workload: Workload, tiny: bool) -> dict:
    return {**workload.size, **(workload.tiny if tiny else {})}


@dataclass
class CsvTable:
    """What the benchmark wrote: the exact matrix, labels and category codes
    that ``load_csv`` must give back."""

    header: tuple[str, ...]  # attribute columns, label excluded
    values: np.ndarray
    labels: np.ndarray
    levels: tuple[tuple[str, tuple[str, ...]], ...]
    label_column: str
    positive_token: str
    negative_token: str
    path: Path | None = None


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, name))])


# Column parameters (scales, rates, probabilities) come from this fixed
# generator, not from the run's seed: the seed redraws the values, while the
# amount of work (string lengths, tie-group sizes) stays the same.
def _structure(name: str) -> np.random.Generator:
    return np.random.default_rng(sum(map(ord, name)))


def _labels(rng, rows: int, contamination: float) -> np.ndarray:
    labels = np.zeros(rows, dtype=np.int64)
    labels[: max(2, int(round(contamination * rows)))] = 1
    return rng.permutation(labels)


def _categorical(rng, labels, levels, p_in, p_out=None):
    """Draw string levels per row; outliers may follow another distribution."""
    codes = rng.choice(len(levels), size=labels.size, p=p_in)
    if p_out is not None:
        out = labels == 1
        codes[out] = rng.choice(len(levels), size=int(out.sum()), p=p_out)
    return np.array(levels, dtype=object)[codes]


def make_tall(seed: int, rows: int, numeric: int, contamination: float, informative: int) -> tuple:
    """Network-traffic-like table: gaussian, heavy-tailed and count columns,
    plus three string columns that ``load_csv`` must ordinal-encode."""
    rng = _rng(seed, "tall-csv")
    fixed = _structure("tall-csv")
    labels = _labels(rng, rows, contamination)
    out = labels == 1
    informative_cols = set(rng.choice(numeric, size=informative, replace=False).tolist())
    columns, names = [], []
    for j in range(numeric):
        kind = j % 3
        shifted = j in informative_cols
        if kind == 0:
            loc, scale = fixed.uniform(-5, 5), fixed.uniform(0.5, 3.0)
            col = rng.normal(loc, scale, rows)
            if shifted:
                col[out] += 3.0 * scale
            col = np.round(col, 4)
        elif kind == 1:
            col = rng.lognormal(fixed.uniform(2, 6), 1.0, rows)
            if shifted:
                col[out] *= np.e ** 2
            col = np.round(col, 2)
        else:
            lam = fixed.uniform(1, 20)
            col = rng.poisson(lam, rows).astype(np.float64)
            if shifted:
                col[out] = rng.poisson(3 * lam, int(out.sum()))
        columns.append(col)
        names.append(f"f{j + 1:02d}")
    strings = {
        "protocol": _categorical(rng, labels, ("tcp", "udp", "icmp"), (0.7, 0.25, 0.05), (0.2, 0.2, 0.6)),
        "service": _categorical(
            rng, labels, ("http", "smtp", "ftp", "dns", "ssh", "telnet", "pop3", "irc"),
            (0.4, 0.15, 0.1, 0.15, 0.1, 0.03, 0.05, 0.02),
        ),
        "flag": _categorical(rng, labels, ("SF", "S0", "REJ", "RSTO"), (0.85, 0.07, 0.05, 0.03), (0.3, 0.5, 0.15, 0.05)),
    }
    # string columns sit near the front, as in the KDD-style files they mimic
    for position, (name, col) in zip((1, 2, 3), strings.items()):
        columns.insert(position, col)
        names.insert(position, name)
    return names, columns, labels, ("label", "attack", "normal")


# CWE identifiers, reference-tag and product flags in the style of NVD exports
_NVD_BINARY = tuple(
    [f"cwe_{c}" for c in (20, 22, 78, 79, 89, 94, 119, 125, 190, 200, 264, 269, 284, 287,
                          295, 310, 352, 362, 399, 400, 416, 434, 476, 502, 611, 787, 798, 862)]
    + ["ref_patch", "ref_advisory", "ref_exploit", "ref_mailing_list", "ref_vendor",
       "cpe_os", "cpe_app", "cpe_hw", "auth_required", "scope_changed", "user_interaction",
       "remote", "default_config", "public_poc"]
)


def make_nvd(seed: int, rows: int, binary: int, contamination: float, informative: int) -> tuple:
    """NVD-like table: sparse binary attributes, a few string columns and
    ~3% positives that are set on a handful of binary attributes."""
    rng = _rng(seed, "nvd-ties")
    fixed = _structure("nvd-ties")
    labels = _labels(rng, rows, contamination)
    out = labels == 1
    p_in = fixed.uniform(0.02, 0.3, binary)
    p_out = p_in.copy()
    informative_cols = rng.choice(binary, size=informative, replace=False)
    p_in[informative_cols] = fixed.uniform(0.05, 0.15, informative)
    p_out[informative_cols] = fixed.uniform(0.75, 0.95, informative)
    p = np.where(out[:, None], p_out[None, :], p_in[None, :])
    bits = (rng.random((rows, binary)) < p).astype(np.float64)
    names = list(_NVD_BINARY[:binary]) + [f"flag_{j}" for j in range(len(_NVD_BINARY), binary)]
    columns = [bits[:, j] for j in range(binary)]
    strings = {
        "attack_vector": _categorical(
            rng, labels, ("NETWORK", "ADJACENT_NETWORK", "LOCAL", "PHYSICAL"), (0.6, 0.1, 0.25, 0.05)
        ),
        "attack_complexity": _categorical(rng, labels, ("LOW", "HIGH"), (0.85, 0.15)),
        "base_severity": _categorical(
            rng, labels, ("LOW", "MEDIUM", "HIGH", "CRITICAL"), (0.1, 0.45, 0.35, 0.1)
        ),
    }
    for position, (name, col) in zip((0, 1, 2), strings.items()):
        columns.insert(position, col)
        names.insert(position, name)
    return names, columns, labels, ("exploited", "1", "0")


def _cell_text(col: np.ndarray) -> list[str]:
    if col.dtype == object:
        return list(col)
    if np.all(col == np.floor(col)) and np.abs(col).max() < 2**53:
        return [str(int(v)) for v in col.tolist()]
    return [repr(v) for v in col.tolist()]


def write_table(names, columns, labels, label_spec, path: Path) -> CsvTable:
    """Write the table as UTF-8 CSV; return what was written."""
    label_column, positive, negative = label_spec
    rows = labels.size
    text_cols = [_cell_text(col) for col in columns]
    label_text = [positive if y else negative for y in labels.tolist()]
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with tmp.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(list(names) + [label_column]) + "\n")
        fh.writelines(",".join(r) + "\n" for r in zip(*text_cols, label_text))
    os.replace(tmp, path)

    values = np.empty((rows, len(columns)))
    levels = []
    for j, col in enumerate(columns):
        if col.dtype == object:
            first = {}
            for token in col:
                first.setdefault(token, len(first))
            values[:, j] = [first[token] for token in col]
            levels.append((names[j], tuple(first)))
        else:
            values[:, j] = col
    return CsvTable(
        header=tuple(names), values=values, labels=labels.copy(), levels=tuple(levels),
        label_column=label_column, positive_token=positive, negative_token=negative, path=path,
    )


def csv_path(root: Path, name: str, seed: int, tiny: bool) -> Path:
    return root / WORK_DIR / f"{name}{'-tiny' if tiny else ''}-seed{seed}.csv"


@dataclass
class Inputs:
    """A ready-to-run configuration plus what the checks compare against."""

    config: object  # outcentr.bench.RunConfig
    table: CsvTable | None = None
    generated: object = None  # the synthetic Dataset, for synth workloads


def prepare(oc, name: str, seed: int, tiny: bool, root: Path) -> Inputs:
    """Generate the workload's inputs for ``seed`` and build its RunConfig."""
    from outcentr.bench import RunConfig

    workload = WORKLOADS[name]
    size = resolved_size(workload, tiny)
    common = dict(
        dataset_name=name,
        reducers=workload.reducers,
        detectors=workload.detectors,
        seeds=(seed,),
        output_dir=str(root / WORK_DIR / "results"),
    )
    if workload.source == "synth":
        spec = oc.SynthSpec(seed=seed, **size)
        dataset, _ = oc.generate(spec)
        cfg = RunConfig(source="synth", synth=spec, **common)
        return Inputs(config=cfg, generated=dataset)

    maker = make_tall if name == "tall-csv" else make_nvd
    names, columns, labels, label_spec = maker(seed, **size)
    path = csv_path(root, name, seed, tiny)
    path.parent.mkdir(exist_ok=True)
    table = write_table(names, columns, labels, label_spec, path)
    cfg = RunConfig(
        source="csv",
        csv_path=str(table.path),
        label_column=table.label_column,
        positive_token=table.positive_token,
        negative_token=table.negative_token,
        **common,
    )
    return Inputs(config=cfg, table=table)
