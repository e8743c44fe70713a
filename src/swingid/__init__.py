"""Ambient swing-dynamics simulation and dynamic state matrix identification.

Pipeline: describe a grid (model), reduce it to its generators and build
the linearized dynamics, simulate ambient trajectories at 60 Hz (sim),
reconstruct the one-step matrix from samples (estimators) and map it back
to continuous time with error and spectral diagnostics (analysis).
"""

from .analysis import (BoundReport, SpectralReport, relative_error,
                       spectral_distance, spectrum, theorem1_bound,
                       to_continuous)
from .estimators import (CovariancePair, EstimationResult, covariances,
                         estimate_b, estimate_cml, estimate_lasso,
                         estimate_sparse_low_rank, estimate_tikhonov,
                         estimate_uml, fold_covariances, threshold_structure)
from .model import (ContinuousSystem, DiscreteSystem, GridModel, Line,
                    ValidationError, build_continuous, build_discrete,
                    build_laplacian, kron_reduce)
from .sim import (DT_BASE, Trajectory, default_burn_in, simulate, spawn_seeds,
                  steady_start, steady_trajectory, subsample)

__version__ = "0.2.0"

__all__ = [
    "BoundReport", "ContinuousSystem", "CovariancePair", "DiscreteSystem",
    "DT_BASE", "EstimationResult", "GridModel", "Line", "SpectralReport",
    "Trajectory", "ValidationError", "build_continuous", "build_discrete",
    "build_laplacian", "covariances", "default_burn_in", "estimate_b",
    "estimate_cml", "estimate_lasso", "estimate_sparse_low_rank",
    "estimate_tikhonov", "estimate_uml", "fold_covariances", "kron_reduce",
    "relative_error", "simulate", "spawn_seeds", "spectral_distance",
    "spectrum", "steady_start", "steady_trajectory", "subsample",
    "theorem1_bound", "threshold_structure", "to_continuous",
]
