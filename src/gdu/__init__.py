"""Gated domain units: kernel mean embedding ensembles for domain generalization."""

from .kernel import KernelConfig, gram, median_heuristic
from .rkhs import EmpiricalKme, kme_inner, kme_norm_sq, mmd_sq, rkhs_cosine
from .layer import GduLayer, LearningMachine, forward_batch, gate_matrix, init_layer
from .regularization import (
    RegConfig,
    omega_l1,
    omega_ols,
    omega_orth,
    omega_total,
)
from .training import (
    DatasetSplits,
    FeatureExtractor,
    GduModel,
    TrainConfig,
    TrainTrace,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
