"""Explicit anatomical shape priors for multi-compartment heart segmentation.

Population shape statistics, Procrustes-aligned heatmap atlases, and
differentiable shape-aware losses with analytic gradients, plus the
volume I/O, metrics, synthetic phantoms, and micro-scale trainer needed
to exercise them end to end.
"""

from __future__ import annotations

from ._version import __version__
from .errors import (
    ArityMismatch,
    CardioPriorError,
    DegenerateConfiguration,
    DegenerateSpec,
    EmptyForeground,
    EmptySurface,
    GridMismatch,
    InsufficientLandmarks,
    InvalidAtlas,
    InvalidLabelValue,
    InvalidLossConfig,
    InvalidModel,
    InvalidParameter,
    InvalidReport,
    InvalidSpacing,
    InvalidStats,
    IoFailure,
    MalformedHeader,
    NoUsableStats,
    NonfiniteLoss,
    NotOneHot,
    ShapeMismatch,
    SizeMismatch,
    UnknownLoss,
    UnknownMode,
    UnsupportedElementType,
    UsageError,
    VanishingMass,
)
from .align import (
    HeatmapAtlas,
    LandmarkSet,
    RigidTransform,
    apply_transform,
    build_atlas,
    class_centroids,
    gpa_align,
    load_atlas,
    procrustes_fit,
    save_atlas,
)
from .losses import (
    GRADCHECK_LOSSES,
    LossConfig,
    LossEval,
    default_weights,
    gdice_ce,
    gradcheck,
    load_loss_config,
    moment_loss,
    relation_loss,
    softmax,
    total_loss,
    volume_loss,
)
from .metrics import (
    ClassMetrics,
    MetricsReport,
    evaluate_case,
    overlap,
    surface_distances,
    surface_voxels,
)
from .phantom import (
    BASE_INTENSITY,
    Jitter,
    PhantomSpec,
    canonical_compartments,
    canonical_volumes,
    degrade,
    generate,
)
from .preprocess import (
    FovSpec,
    embed_fov,
    foreground_centroid,
    resample,
    sample_at_world,
)
from .report import (
    aggregate_run,
    build_summary,
    reference_row,
    write_summary_csv,
    write_summary_md,
)
from .stats import (
    MASS_EPSILON,
    CaseDescriptor,
    ShapeStats,
    aggregate,
    case_descriptor,
    load_stats,
    relations,
    save_stats,
    soft_centroid,
    soft_mass,
    soft_second_moment,
    soft_volume,
)
from .trainer import (
    DEFAULT_EPOCHS,
    DEFAULT_STEP_SIZE,
    FeatureStack,
    MicroModel,
    TrainConfig,
    experiment_weights,
    feature_names,
    featurize,
    forward,
    init_model,
    load_model,
    predict,
    save_model,
    save_trace_csv,
    train,
    weight_gradcheck,
)
from .volume import (
    CLASS_NAMES,
    FOREGROUND_CLASSES,
    N_CLASSES,
    ProbVolume,
    Volume3,
    argmax_labels,
    one_hot,
    read_volume,
    voxel_center_grid,
    write_volume,
)

__all__ = [
    "__version__",
    # errors
    "CardioPriorError", "MalformedHeader", "SizeMismatch",
    "UnsupportedElementType", "InvalidLabelValue", "IoFailure",
    "InvalidSpacing", "EmptyForeground", "InsufficientLandmarks",
    "DegenerateConfiguration", "InvalidAtlas", "VanishingMass", "InvalidStats",
    "ShapeMismatch", "NotOneHot", "NoUsableStats", "UnknownLoss",
    "InvalidLossConfig", "EmptySurface", "DegenerateSpec", "UnknownMode",
    "GridMismatch", "ArityMismatch", "NonfiniteLoss", "InvalidModel", "InvalidReport",
    "InvalidParameter", "UsageError",
    # volume
    "CLASS_NAMES", "FOREGROUND_CLASSES", "N_CLASSES",
    "Volume3", "ProbVolume", "read_volume", "write_volume",
    "one_hot", "argmax_labels", "voxel_center_grid",
    # preprocess
    "FovSpec", "resample", "sample_at_world",
    "foreground_centroid", "embed_fov",
    # align
    "RigidTransform", "LandmarkSet", "class_centroids", "procrustes_fit",
    "apply_transform", "gpa_align", "HeatmapAtlas", "build_atlas",
    "save_atlas", "load_atlas",
    # stats
    "CaseDescriptor", "ShapeStats", "soft_mass", "soft_volume",
    "soft_centroid", "soft_second_moment", "relations", "case_descriptor",
    "aggregate", "save_stats", "load_stats", "MASS_EPSILON",
    # losses
    "LossConfig", "LossEval", "default_weights", "softmax", "gdice_ce",
    "volume_loss", "moment_loss", "relation_loss", "total_loss",
    "gradcheck", "GRADCHECK_LOSSES", "load_loss_config",
    # metrics
    "ClassMetrics", "MetricsReport", "overlap", "surface_voxels",
    "surface_distances", "evaluate_case",
    # phantom
    "PhantomSpec", "Jitter", "generate", "degrade",
    "canonical_compartments", "canonical_volumes", "BASE_INTENSITY",
    # trainer
    "FeatureStack", "MicroModel", "TrainConfig", "feature_names",
    "featurize", "forward", "init_model", "train", "predict",
    "save_model", "load_model", "save_trace_csv", "weight_gradcheck",
    "experiment_weights", "DEFAULT_STEP_SIZE", "DEFAULT_EPOCHS",
    # report
    "reference_row", "aggregate_run", "build_summary",
    "write_summary_csv", "write_summary_md",
]
