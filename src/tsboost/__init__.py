"""Boosted-oriented probabilistic clustering of time series."""

from .boost import BoostConfig, ClusterResult, run_boost
from .core import Dataset, harden, validate_membership
from .distance import (
    DistanceKind,
    distance_matrix,
    euclidean,
    penrose_shape,
    periodogram,
    periodogram_distance,
)
from .evaluate import (
    classic_rand,
    confusion_matrix,
    fuzzy_equivalence,
    fuzzy_rand,
    reference_partition,
)
from .fcm import FcmConfig, FcmResult, run_fcm
from .pdclust import bc_index, loss_beta, pd_probabilities
from .pspline import (
    LambdaCriterion,
    build_basis,
    difference_penalty,
    effective_dimension,
    fit_pspline,
    smooth_series,
)
from .simgen import SimConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BoostConfig",
    "ClusterResult",
    "Dataset",
    "DistanceKind",
    "FcmConfig",
    "FcmResult",
    "LambdaCriterion",
    "SimConfig",
    "bc_index",
    "build_basis",
    "classic_rand",
    "confusion_matrix",
    "difference_penalty",
    "distance_matrix",
    "effective_dimension",
    "euclidean",
    "fit_pspline",
    "fuzzy_equivalence",
    "fuzzy_rand",
    "generate",
    "harden",
    "loss_beta",
    "pd_probabilities",
    "penrose_shape",
    "periodogram",
    "periodogram_distance",
    "reference_partition",
    "run_boost",
    "run_fcm",
    "smooth_series",
    "validate_membership",
]
