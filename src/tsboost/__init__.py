"""Boosted-oriented probabilistic clustering of time series.

A name is public, in ``__all__``, only if the command-line interface or
one of the three runs (``run_boost``, ``run_fcm``, ``reference_partition``)
calls it, or if it is a configuration or result type. Test oracles live
with the tests.
"""

from .boost import BoostConfig, ClusterResult, run_boost
from .core import Dataset, harden, validate_membership
from .distance import DistanceKind, periodogram
from .evaluate import classic_rand, confusion_matrix, fuzzy_rand, reference_partition
from .fcm import FcmConfig, FcmResult, run_fcm
from .pdclust import bc_index
from .pspline import LambdaCriterion, build_basis, difference_penalty
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
    "fuzzy_rand",
    "generate",
    "harden",
    "periodogram",
    "reference_partition",
    "run_boost",
    "run_fcm",
    "validate_membership",
]
