"""Labeled synthetic datasets with a known informative subspace.

Inliers are a unit-variance spherical Gaussian at the origin of the
informative subspace; outliers are the same Gaussian shifted along a seeded
random unit direction by ``separation`` (so separability is measured in
within-class standard deviations). The remaining attributes are pure noise,
identical across classes. Columns are shuffled so the informative positions
are non-trivial, and the true positions are returned alongside the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, frozen, is_integer_of_at_least, write_csv


@dataclass(frozen=True)
class SynthSpec:
    """Size, dimensionality, contamination, and separability of one dataset.

    ``n_informative`` defaults to max(2, m // 10), matching the 10% selection
    default so perfect recovery is attainable. Sizes and the seed must be
    integers (numpy integers included, bool not).
    """

    n: int
    m: int
    contamination: float
    n_informative: int | None = None
    separation: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if not (is_integer_of_at_least(self.n, 2) and is_integer_of_at_least(self.m, 1)):
            raise DataError(f"invalid grid size n={self.n!r}, m={self.m!r}")
        if not 0.0 < self.contamination < 1.0:
            raise DataError(f"contamination must be in (0, 1), got {self.contamination}")
        if self.contamination * self.n < 1.0:
            raise DataError(
                f"contamination {self.contamination} yields no outliers at n={self.n}"
            )
        if self.n_informative is not None and not (
            is_integer_of_at_least(self.n_informative, 1) and self.n_informative <= self.m
        ):
            raise DataError(
                f"n_informative must be an integer in [1, {self.m}], got {self.n_informative!r}"
            )
        if self.separation < 0.0:
            raise DataError("separation must be non-negative")
        if not is_integer_of_at_least(self.seed, 0):
            raise DataError(f"seed must be an integer >= 0, got {self.seed!r}")

    @property
    def informative_count(self) -> int:
        if self.n_informative is not None:
            return self.n_informative
        return min(self.m, max(2, self.m // 10))

    @property
    def n_outliers(self) -> int:
        return max(1, int(round(self.contamination * self.n)))


def generate(spec: SynthSpec) -> tuple[Dataset, tuple[int, ...]]:
    """Draw one dataset from the spec; returns (dataset, informative positions).

    Bit-identical for the same spec (one generator, fixed draw order). The
    returned dataset is raw (not yet normalized) with labels attached,
    attributes named a1..am in final column order.
    """
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n, spec.m
    d_inf = spec.informative_count
    n_out = spec.n_outliers
    n_in = n - n_out

    direction = rng.standard_normal(d_inf)
    direction /= np.linalg.norm(direction)
    center = spec.separation * direction

    informative = rng.standard_normal((n, d_inf))
    informative[:n_out] += center
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_out] = 1

    noise = rng.standard_normal((n, m - d_inf))

    # column j is column col_perm[j] of [informative, noise], row i is row
    # row_perm[i]: one column gather at a time, so no block-sized temporary
    col_perm = rng.permutation(m)
    row_perm = rng.permutation(n)
    values = np.empty((n, m))
    for j, source in enumerate(col_perm.tolist()):
        if source < d_inf:
            values[:, j] = informative[row_perm, source]
        else:
            values[:, j] = noise[row_perm, source - d_inf]
    informative_positions = tuple(int(j) for j in np.flatnonzero(col_perm < d_inf))

    names = tuple(f"a{j + 1}" for j in range(m))
    dataset = Dataset(values=frozen(values), attribute_names=names, labels=frozen(labels[row_perm]))
    return dataset, informative_positions


def save_synth(dataset: Dataset, informative: tuple[int, ...], out_dir) -> tuple[Path, Path]:
    """Write data.csv (labels in column ``label``) and informative.txt (one index per line)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "data.csv"
    sidecar_path = out_dir / "informative.txt"
    write_csv(dataset, data_path)
    sidecar_path.write_text(
        "".join(f"{j}\n" for j in informative), encoding="utf-8"
    )
    return data_path, sidecar_path
