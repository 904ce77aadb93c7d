"""Core model: trees, instances, placements, validation, bounds."""

from .arrays import FlatTree, flat_cache_stats, flat_tree, reset_flat_cache_stats
from .bounds import (
    big_item_lower_bound,
    lower_bound,
    subtree_lower_bound,
    volume_lower_bound,
)
from .errors import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    InvalidPlacementError,
    InvalidTreeError,
    NotBinaryTreeError,
    PolicyError,
    ReproError,
    SolverError,
)
from .instance import ProblemInstance, instance_fingerprint
from .placement import Assignment, Placement
from .policies import Policy
from .transform import (
    NodeMap,
    collapse_unary_chains,
    preprocess,
    prune_zero_demand,
)
from .tree import NO_PARENT, Tree, TreeBuilder
from .validation import check_placement, is_valid, placement_violations

__all__ = [
    "Tree",
    "TreeBuilder",
    "NO_PARENT",
    "FlatTree",
    "flat_tree",
    "flat_cache_stats",
    "reset_flat_cache_stats",
    "NodeMap",
    "preprocess",
    "prune_zero_demand",
    "collapse_unary_chains",
    "ProblemInstance",
    "instance_fingerprint",
    "Placement",
    "Assignment",
    "Policy",
    "check_placement",
    "is_valid",
    "placement_violations",
    "lower_bound",
    "volume_lower_bound",
    "big_item_lower_bound",
    "subtree_lower_bound",
    "ReproError",
    "InvalidTreeError",
    "InvalidInstanceError",
    "InvalidPlacementError",
    "InfeasibleInstanceError",
    "NotBinaryTreeError",
    "PolicyError",
    "SolverError",
]
