"""Comparison reducers: principal component analysis and Gaussian random projection.

Both take a dataset to k output attributes. PCA eigendecomposes the sample
covariance with ``np.linalg.eigh``; GRP multiplies by a seeded random normal
matrix scaled so squared distances are preserved in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, freeze_fields


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA basis: training mean, k orthonormal components (rows),
    and their explained variances in non-increasing order."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "mean", "components", "explained_variance")
        k, m = self.components.shape
        if self.mean.shape != (m,) or self.explained_variance.shape != (k,):
            raise ValueError("inconsistent PCA model shapes")

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def m(self) -> int:
        return self.components.shape[1]


@dataclass(frozen=True)
class GrpModel:
    """Seeded k-by-m Gaussian projection matrix with entries N(0, 1/k)."""

    projection: np.ndarray
    seed: int

    def __post_init__(self):
        freeze_fields(self, "projection")

    @property
    def k(self) -> int:
        return self.projection.shape[0]

    @property
    def m(self) -> int:
        return self.projection.shape[1]


def pca_fit(train: Dataset, k: int) -> PcaModel:
    """Fit a k-component PCA basis on the training rows.

    Covariance uses the n-1 divisor and rounding-level negative variances are
    clipped to 0. Each component's largest-magnitude entry is made positive so
    repeated fits report identical bases.
    """
    n, m = train.n, train.m
    if n < 2:
        raise DataError("PCA needs at least 2 rows")
    if not 1 <= k <= min(n - 1, m):
        raise DataError(f"k={k} out of range for n={n}, m={m}")
    mean = train.values.mean(axis=0)
    centered = train.values - mean
    cov = centered.T @ centered / (n - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    components = eigenvectors[:, ::-1][:, :k].T.copy()
    variance = np.clip(eigenvalues[::-1][:k], 0.0, None)
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def pca_transform(model: PcaModel, d: Dataset) -> Dataset:
    """Project rows onto the fitted basis: (row - mean) @ components^T.

    Output attributes are named pc1..pck; labels carry through.
    """
    if d.m != model.m:
        raise DataError(f"dataset has m={d.m}, model expects m={model.m}")
    projected = (d.values - model.mean) @ model.components.T
    names = tuple(f"pc{j + 1}" for j in range(model.k))
    return Dataset(values=projected, attribute_names=names, labels=d.labels)


def grp_model(m: int, k: int, seed: int) -> GrpModel:
    """Draw the k-by-m projection matrix for the given seed, entries N(0, 1/k)."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((k, m)) / np.sqrt(k)
    return GrpModel(projection=projection, seed=seed)


def grp_transform(d: Dataset, k: int, seed: int) -> Dataset:
    """Gaussian random projection to k dimensions, deterministic per seed.

    The same (seed, k, m) triple always regenerates the same matrix, so
    train and test rows projected separately land in the same space. Output
    attributes are named rp1..rpk.
    """
    model = grp_model(d.m, k, seed)
    projected = d.values @ model.projection.T
    names = tuple(f"rp{j + 1}" for j in range(k))
    return Dataset(values=projected, attribute_names=names, labels=d.labels)


def save_model(model: PcaModel | GrpModel, path) -> None:
    """Serialize a reducer model as flat text, one vector per line."""
    path = Path(path)
    lines = []
    if isinstance(model, PcaModel):
        lines.append(f"pca {model.k} {model.m}")
        lines.append(" ".join(repr(float(x)) for x in model.mean))
        for row in model.components:
            lines.append(" ".join(repr(float(x)) for x in row))
        lines.append(" ".join(repr(float(x)) for x in model.explained_variance))
    elif isinstance(model, GrpModel):
        lines.append(f"grp {model.k} {model.m} {model.seed}")
        for row in model.projection:
            lines.append(" ".join(repr(float(x)) for x in row))
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path) -> PcaModel | GrpModel:
    """Read a model written by :func:`save_model`.

    A file whose vectors disagree with its header's k and m, or that holds a
    number that does not parse, raises :class:`DataError` naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    if not lines:
        raise DataError(f"{path} is empty")
    head = lines[0].split()
    kind = head[0] if head else ""
    if len(head) != {"pca": 3, "grp": 4}.get(kind):
        raise DataError(f"{path} is not a saved reducer model")
    try:
        k, m = int(head[1]), int(head[2])
        seed = int(head[3]) if kind == "grp" else None
        vectors = [np.array([float(x) for x in line.split()]) for line in lines[1:]]
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if k < 1 or m < 1:
        raise DataError(f"{path}: header gives k={k}, m={m}")
    lengths = [m] * (k + 1) + [k] if kind == "pca" else [m] * k
    if len(vectors) != len(lengths):
        raise DataError(f"{path}: expected {len(lengths)} vectors, got {len(vectors)}")
    for line, (vector, length) in enumerate(zip(vectors, lengths), start=2):
        if vector.size != length:
            raise DataError(f"{path}: line {line} holds {vector.size} numbers, expected {length}")
    if kind == "pca":
        return PcaModel(
            mean=vectors[0],
            components=np.vstack(vectors[1 : k + 1]),
            explained_variance=vectors[k + 1],
        )
    return GrpModel(projection=np.vstack(vectors), seed=seed)
