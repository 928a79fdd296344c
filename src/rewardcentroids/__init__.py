"""Reward centroids for generalizing demonstrated behavior in tabular MDPs."""

from .errors import DomainError, InfeasibleConstraintError, SolverError
from .geometry import BIRL, MCE, OPT, BehaviorModel, BoundedSetParams
from .mdp import (
    OccupancyMeasure,
    PolicyTable,
    RewardTable,
    TabularMdp,
    ValueFunctions,
)

__all__ = [
    "BIRL",
    "MCE",
    "OPT",
    "BehaviorModel",
    "BoundedSetParams",
    "DomainError",
    "InfeasibleConstraintError",
    "OccupancyMeasure",
    "PolicyTable",
    "RewardTable",
    "SolverError",
    "TabularMdp",
    "ValueFunctions",
]

__version__ = "0.1.0"
