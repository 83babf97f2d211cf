"""The paper's contribution: priority-based load balancing.

* :mod:`repro.core.balancer` — assignment data model and balancer base.
* :mod:`repro.core.static` — the paper's mechanism: a static priority
  assignment derived from each rank's observed compute share.
* :mod:`repro.core.dynamic` — the paper's *future work*: an OS-level
  controller that re-assigns priorities during the run from observed
  waiting times.
* :mod:`repro.core.search` — exhaustive/greedy search over mappings and
  priorities (automating the paper's manual case A->B->C->D iteration).
* :mod:`repro.core.policy` — the :class:`Policy` protocol unifying the
  four balancing families behind one fingerprintable interface and one
  ``apply`` call (the zoo and the tournament live above, in
  :mod:`repro.policies`).

This package is the import surface: consumers outside ``core`` should
import these names from ``repro.core``, not from the submodules.
"""

from repro.core.balancer import PriorityAssignment, Balancer
from repro.core.static import StaticPriorityBalancer
from repro.core.dynamic import DynamicBalancer, DynamicBalancerConfig
from repro.core.policy import (
    POLICY_FAMILIES,
    PolicySpec,
    Policy,
    StaticPolicy,
    DynamicPolicy,
    AllocationPolicy,
    PlacementPolicy,
)
from repro.core.search import (
    SearchResult,
    SearchStats,
    exhaustive_priority_search,
    greedy_priority_search,
    joint_search,
    mapping_then_priority_search,
    candidate_assignments,
    candidate_mappings,
    candidate_placements,
    canonical_placement,
    placement_mapping,
    rank_pressures,
    paired_extremes_mapping,
    paired_adjacent_mapping,
    two_level_search,
)

__all__ = [
    "PriorityAssignment",
    "Balancer",
    "StaticPriorityBalancer",
    "DynamicBalancer",
    "DynamicBalancerConfig",
    "POLICY_FAMILIES",
    "PolicySpec",
    "Policy",
    "StaticPolicy",
    "DynamicPolicy",
    "AllocationPolicy",
    "PlacementPolicy",
    "SearchResult",
    "SearchStats",
    "exhaustive_priority_search",
    "greedy_priority_search",
    "joint_search",
    "mapping_then_priority_search",
    "candidate_assignments",
    "candidate_mappings",
    "candidate_placements",
    "canonical_placement",
    "placement_mapping",
    "rank_pressures",
    "paired_extremes_mapping",
    "paired_adjacent_mapping",
    "two_level_search",
]
