"""Comparison reducers: principal component analysis and Gaussian random projection.

Both take a dataset to k output attributes. PCA eigendecomposes the sample
covariance with ``np.linalg.eigh``; GRP multiplies by a seeded random normal
matrix scaled so squared distances are preserved in expectation, drawn
afresh from the seed on every call. Neither model is written to disk: the
runner's ``--save-model`` exports only the outcentr attribute rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, freeze_fields, frozen


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
    lead = components[np.arange(k), np.abs(components).argmax(axis=1)]
    components *= np.where(lead < 0, -1.0, 1.0)[:, None]
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def pca_transform(model: PcaModel, d: Dataset) -> Dataset:
    """Project rows onto the fitted basis: (row - mean) @ components^T.

    Output attributes are named pc1..pck; labels carry through.
    """
    if d.m != model.m:
        raise DataError(f"dataset has m={d.m}, model expects m={model.m}")
    projected = (d.values - model.mean) @ model.components.T
    names = tuple(f"pc{j + 1}" for j in range(model.k))
    return Dataset(values=frozen(projected), attribute_names=names, labels=d.labels)


def grp_transform(d: Dataset, k: int, seed: int) -> Dataset:
    """Gaussian random projection to k dimensions, deterministic per seed.

    The same (seed, k, m) triple always regenerates the same matrix, so
    train and test rows projected separately land in the same space. Output
    attributes are named rp1..rpk.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    projection = np.random.default_rng(seed).standard_normal((k, d.m)) / np.sqrt(k)
    projected = d.values @ projection.T
    names = tuple(f"rp{j + 1}" for j in range(k))
    return Dataset(values=frozen(projected), attribute_names=names, labels=d.labels)

