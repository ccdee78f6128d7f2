"""Sublinear sparse recovery for Jacobi polynomial transforms."""

from .boxcar import BoxcarFilter, build_boxcar
from .jacobi import JacobiParams, compute_roots, compute_weights
from .ksparse import (
    QueryOracle,
    RawReads,
    ReductionConfig,
    SampleSchedule,
    SimulatedAccess,
    SparseApprox,
    recover,
)
from .onesparse import OneSparseResult, RecoveryError, solve_one_sparse
from .plan import TransformPlan, build_plan, load_plan, save_plan

__version__ = "0.1.0"

__all__ = [
    "JacobiParams",
    "compute_roots",
    "compute_weights",
    "TransformPlan",
    "build_plan",
    "save_plan",
    "load_plan",
    "BoxcarFilter",
    "build_boxcar",
    "QueryOracle",
    "RawReads",
    "ReductionConfig",
    "SampleSchedule",
    "SimulatedAccess",
    "SparseApprox",
    "recover",
    "OneSparseResult",
    "RecoveryError",
    "solve_one_sparse",
    "__version__",
]
