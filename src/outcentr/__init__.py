"""Outlier-centric feature reduction for high-dimensional, imbalanced data.

A small labeled sample per class gives two centroids; the per-attribute gap
between them ranks attributes by how well they distinguish outliers, and the
data is projected onto the top-ranked subset before detection. The package
also ships the surrounding experiment apparatus: isolation-forest and LOF
detectors, PCA and Gaussian-random-projection baselines, evaluation metrics,
a synthetic data generator, and a benchmark runner with a CLI.
"""

from .baselines import PcaModel, grp_transform, pca_fit, pca_transform
from .bench import (
    CellResult,
    ConfigError,
    ExperimentReport,
    RunConfig,
    RunError,
    emit_report,
    load_run_config,
    run_experiment,
)
from .data import (
    DataError,
    Dataset,
    apply_normalization,
    encode_categoricals,
    load_csv,
    normalize_minmax,
    split,
    write_csv,
)
from .detectors import (
    DetectionResult,
    DetectorConfig,
    IsolationForestModel,
    LofModel,
    iforest_fit,
    iforest_score,
    lof_fit,
    lof_fit_predict,
    lof_score,
)
from .metrics import Confusion, MetricSet, confusion, prf1, roc_auc
from .ranking import (
    AttributeRank,
    RankDiffEntry,
    attribute_rank,
    attribute_scores,
    compute_centroid,
    distinguishability_scores,
    export_rank,
    fit_reducer,
    load_rank,
    partition_labels,
    rank_diff,
    top_t,
    transform,
    write_rank_diff_csv,
)
from .synth import SynthSpec, generate, save_synth

__version__ = "0.1.0"
