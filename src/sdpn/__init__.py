"""Self-distillation prototype training for speaker embeddings at desk
scale: the training objective with covariance dimension regularizers,
cosine scoring with Z/T/S/AS cohort normalization, and EER/minDCF
evaluation — all in double-precision numpy with hand-derived,
finite-difference-verified gradients.
"""

from .losses import (
    DimRegLoss,
    LossValue,
    LossWeights,
    cross_entropy_loss,
    diversity_regularization,
    frobenius_reg_covariance_grad,
    frobenius_regularization,
    off_diagonal_regularization,
    sdpn_objective,
)
from .metrics import det_sweep, eer, evaluation_report, min_dcf
from .numerics import (
    finite_diff_gradient,
    frobenius_norm,
    l2_normalize,
    normalized_covariance,
    pairwise_min_distance,
    softmax,
)
from .scoring import asnorm, cohort_stats, cosine_score, snorm, tnorm, znorm

__version__ = "0.1.0"

__all__ = [
    "DimRegLoss", "LossValue", "LossWeights", "cross_entropy_loss",
    "diversity_regularization", "frobenius_reg_covariance_grad",
    "frobenius_regularization", "off_diagonal_regularization",
    "sdpn_objective", "det_sweep", "eer", "evaluation_report", "min_dcf",
    "finite_diff_gradient", "frobenius_norm", "l2_normalize",
    "normalized_covariance", "pairwise_min_distance", "softmax",
    "asnorm", "cohort_stats", "cosine_score", "snorm", "tnorm", "znorm",
    "__version__",
]
