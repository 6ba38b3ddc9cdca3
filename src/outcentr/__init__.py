"""Outlier-centric feature reduction for high-dimensional, imbalanced data.

A small labeled sample per class gives two centroids; the per-attribute gap
between them ranks attributes by how well they distinguish outliers, and the
data is projected onto the top-ranked subset before detection. The package
also ships the surrounding experiment apparatus: isolation-forest and LOF
detectors, PCA and Gaussian-random-projection baselines, evaluation metrics,
a synthetic data generator, and a benchmark runner with a CLI.
"""

from .baselines import (
    GrpModel,
    PcaModel,
    grp_model,
    grp_transform,
    load_model,
    pca_fit,
    pca_transform,
    save_model,
)
from .bench import (
    CellResult,
    ConfigError,
    ExperimentReport,
    RankDiff,
    RankDiffEntry,
    RunConfig,
    RunError,
    emit_report,
    load_run_config,
    rank_diff,
    run_experiment,
    time_phase,
    write_rank_diff_csv,
)
from .data import (
    Context,
    DataError,
    Dataset,
    SplitPair,
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
    write_detection_csv,
)
from .metrics import Confusion, MetricSet, confusion, prf1, roc_auc
from .ranking import (
    AttributeRank,
    AttributeScoreReport,
    Centroid,
    LabelPartition,
    attribute_rank,
    attribute_scores,
    compute_centroid,
    distinguishability_scores,
    export_rank,
    fit_reducer,
    load_rank,
    partition_labels,
    top_t,
    transform,
)
from .synth import SynthSpec, generate, save_synth

__version__ = "0.1.0"
