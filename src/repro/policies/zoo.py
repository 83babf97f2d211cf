"""The policy zoo: every balancing algorithm the tournament can score.

Static contenders (plan once from per-rank work, like the paper's hand
procedure) and dynamic ones (runtime controllers), all behind
:class:`~repro.core.Policy`:

``st``
    The unbalanced reference: no priority writes, every context at
    MEDIUM. At the priority level the paper's ST and case A coincide —
    this is the baseline every leaderboard improvement is measured
    against.
``paper-b`` / ``paper-c`` / ``paper-d``
    The paper's hand-tuned ladder generalised: when a core pair's work
    ratio reaches the case's trigger, the pair gets the case's exact
    priority shape — (5,6) for B, (4,6) for C, (3,6) for D (the
    MetBench table's assignments). The trigger grows with the gap
    (``gap_scale ** (gap - 0.5)``, the ratio at which the paper
    procedure's log rule rounds to that gap), encoding the paper's own
    lesson that a wide gap on a mild imbalance *reverses* it (MetBench
    case D). Below the trigger the pair stays at case A.
``propshare``
    The paper's full procedure as an algorithm: a graded gap
    proportional to the log of the pair's work ratio
    (:class:`~repro.core.StaticPriorityBalancer`), keeping the
    scenario's mapping (the tournament fixes the pairing; only
    priorities are the policy's to choose).
``lpt``
    Longest-processing-time heap greedy, after the EPLB pattern: keep
    core pairs in a max-heap keyed by projected finish time (work over
    the decode share ``2^gap / (2^gap + 1)``), pop the worst pair, move
    one priority step toward its heavier rank, keep the step only if
    the pair's projected finish strictly improved, re-push; freeze the
    pair otherwise. Converges to graded gaps up to 3 — it reaches the
    paper's D shape exactly when the imbalance is extreme enough to
    warrant it.
``hysteresis``
    The incumbent :class:`~repro.core.DynamicBalancer` behind the
    dynamic-policy protocol, behaviour unchanged: each run gets a fresh
    controller built from the same
    :class:`~repro.core.DynamicBalancerConfig`, whose canonical doc is
    the policy's fingerprint substrate.
``ilp-pair`` / ``ilp-spread`` / ``random-mapping``
    The **allocation family**: these choose the rank→core mapping and
    leave every priority at MEDIUM, so their leaderboard rows isolate
    what smart *placement* buys against smart *priorities* (the
    differential-evidence experiment the ROADMAP asks for). ``ilp-pair``
    pairs the highest decode-pressure rank with the lowest per core
    (:func:`~repro.core.paired_extremes_mapping` — the ILP-aware
    allocation rule, and the paper's own BT-MZ re-pairing when profiles
    are uniform); ``ilp-spread`` pairs like with like (the deliberate
    anti-pattern); ``random-mapping`` draws a seeded canonical mapping
    per cell (hash of the observations) — the control that separates
    "any re-pairing helps" from "this rule helps".
``locality-pack`` / ``bandwidth-spread`` / ``random-placement``
    The **placement family** for topology-bearing (v3) scenarios: they
    choose *which node* each rank lives on and leave priorities at
    MEDIUM. ``locality-pack`` co-locates each distant pair on one node
    (all exchanges become shared-memory); ``bandwidth-spread`` splits
    every pair across nodes (the contrast case); ``random-placement``
    draws a seeded canonical placement per cell — the lottery control.
    On single-chip cells all three are exact no-ops.

The registry maps names to zero-argument factories so ``repro
tournament`` and the scoring loop construct policies by name.
"""

from __future__ import annotations

import heapq
import math
import threading
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core import (
    AllocationPolicy,
    DynamicBalancer,
    DynamicBalancerConfig,
    DynamicPolicy,
    PlacementPolicy,
    Policy,
    PolicySpec,
    PriorityAssignment,
    StaticPolicy,
    StaticPriorityBalancer,
    candidate_mappings,
    candidate_placements,
    paired_adjacent_mapping,
    paired_extremes_mapping,
    placement_mapping,
    rank_pressures,
)
from repro.errors import ConfigurationError
from repro.machine.mapping import ProcessMapping
from repro.util.fingerprint import fingerprint_doc

__all__ = [
    "PaperCasePolicy",
    "ProportionalSharePolicy",
    "LptGreedyPolicy",
    "HysteresisPolicy",
    "IlpPairPolicy",
    "IlpSpreadPolicy",
    "RandomMappingPolicy",
    "LocalityPackPolicy",
    "BandwidthSpreadPolicy",
    "RandomPlacementPolicy",
    "register_policy",
    "get_policy",
    "policy_names",
    "all_policies",
    "DEFAULT_POLICIES",
    "ALLOCATION_POLICIES",
    "PLACEMENT_POLICIES",
]


def _full_pairs(mapping: ProcessMapping) -> List[Tuple[int, int]]:
    """Core pairs with both contexts mapped (singletons have no sibling
    to trade decode slots with, so no policy touches them)."""
    return [tuple(p) for p in mapping.core_pairs() if len(p) == 2]


class PaperCasePolicy(StaticPolicy):
    """One rung of the paper's ladder: a fixed per-pair priority shape.

    ``(base, base + gap)`` is installed on a pair exactly when the
    pair's work ratio reaches ``trigger_ratio``; otherwise the pair
    keeps the MEDIUM defaults (case A). All-or-nothing, like the hand
    assignments in the paper's tables.
    """

    def __init__(
        self,
        name: str,
        base_priority: int = 4,
        gap: int = 0,
        trigger_ratio: float = 1.25,
        description: str = "",
    ) -> None:
        if gap < 0 or not 1 <= base_priority <= 6 or base_priority + gap > 6:
            raise ConfigurationError(
                f"policy {name!r}: shape ({base_priority}, "
                f"{base_priority + gap}) leaves the OS range"
            )
        if trigger_ratio < 1.0:
            raise ConfigurationError(
                f"policy {name!r}: trigger_ratio must be >= 1, got {trigger_ratio}"
            )
        self.name = name
        self.base_priority = int(base_priority)
        self.gap = int(gap)
        self.trigger_ratio = float(trigger_ratio)
        self.description = description or (
            f"fixed pair shape ({base_priority}, {base_priority + gap}) "
            f"at work ratio >= {trigger_ratio:.2f}"
        )

    def spec(self) -> PolicySpec:
        return PolicySpec(
            name=self.name,
            family="static",
            params={
                "base_priority": self.base_priority,
                "gap": self.gap,
                "trigger_ratio": self.trigger_ratio,
            },
        )

    def plan(
        self, compute_seconds: Sequence[float], mapping: ProcessMapping
    ) -> PriorityAssignment:
        n = len(compute_seconds)
        if n != mapping.n_ranks:
            raise ConfigurationError(
                f"{n} observations for a {mapping.n_ranks}-rank mapping"
            )
        priorities: Dict[int, int] = {r: 4 for r in range(n)}
        if self.gap > 0:
            for a, b in _full_pairs(mapping):
                heavy, light = (
                    (a, b) if compute_seconds[a] >= compute_seconds[b] else (b, a)
                )
                wl = float(compute_seconds[light])
                wh = float(compute_seconds[heavy])
                ratio = float("inf") if wl <= 0 else wh / wl
                if ratio >= self.trigger_ratio:
                    priorities[light] = self.base_priority
                    priorities[heavy] = self.base_priority + self.gap
        return PriorityAssignment.build(mapping, priorities, label=self.name)


class ProportionalSharePolicy(StaticPolicy):
    """Graded gaps from per-rank load ratios (the paper procedure,
    mapping kept as given — the tournament's cells fix the pairing)."""

    name = "propshare"
    description = (
        "gap proportional to log(pair work ratio), bounded at 2 "
        "(the static planner with the scenario's own pairing)"
    )

    def __init__(
        self,
        base_priority: int = 4,
        max_gap: int = 2,
        balance_threshold: float = 0.8,
        gap_scale: float = 2.2,
    ) -> None:
        self._balancer = StaticPriorityBalancer(
            base_priority=base_priority,
            max_gap=max_gap,
            balance_threshold=balance_threshold,
            gap_scale=gap_scale,
            repair_mapping=False,
        )

    def spec(self) -> PolicySpec:
        b = self._balancer
        return PolicySpec(
            name=self.name,
            family="static",
            params={
                "base_priority": b.base_priority,
                "max_gap": b.max_gap,
                "balance_threshold": b.balance_threshold,
                "gap_scale": b.gap_scale,
            },
        )

    def plan(
        self, compute_seconds: Sequence[float], mapping: ProcessMapping
    ) -> PriorityAssignment:
        return self._balancer.plan(compute_seconds, mapping)


class LptGreedyPolicy(StaticPolicy):
    """Heap greedy over projected finish times (the EPLB/LPT idiom).

    Each core pair's projected finish is its slower rank's work over
    that rank's decode share at the current gap
    (``2^gap / (2^gap + 1)`` — the exponential decode law). A max-heap
    keyed by projected finish drives the greedy loop: always improve
    the currently-worst pair by one priority step toward its heavier
    rank, commit only strictly-improving steps, freeze the pair
    otherwise. Deterministic: heap ties break on pair index, rank ties
    on rank order.
    """

    name = "lpt"
    description = (
        "longest-processing-time heap greedy: one priority step at a "
        "time toward the worst pair's heavy rank while it helps"
    )

    def __init__(
        self,
        base_priority: int = 4,
        min_priority: int = 3,
        max_priority: int = 6,
        max_gap: int = 3,
    ) -> None:
        if not 1 <= min_priority <= base_priority <= max_priority <= 6:
            raise ConfigurationError(
                f"need 1 <= min({min_priority}) <= base({base_priority}) "
                f"<= max({max_priority}) <= 6"
            )
        if max_gap < 0 or max_gap > max_priority - min_priority:
            raise ConfigurationError(
                f"max_gap {max_gap} incompatible with priority bounds"
            )
        self.base_priority = int(base_priority)
        self.min_priority = int(min_priority)
        self.max_priority = int(max_priority)
        self.max_gap = int(max_gap)

    def spec(self) -> PolicySpec:
        return PolicySpec(
            name=self.name,
            family="static",
            params={
                "base_priority": self.base_priority,
                "min_priority": self.min_priority,
                "max_priority": self.max_priority,
                "max_gap": self.max_gap,
            },
        )

    @staticmethod
    def _share(gap: int) -> float:
        return 2.0**gap / (2.0**gap + 1.0)

    def plan(
        self, compute_seconds: Sequence[float], mapping: ProcessMapping
    ) -> PriorityAssignment:
        n = len(compute_seconds)
        if n != mapping.n_ranks:
            raise ConfigurationError(
                f"{n} observations for a {mapping.n_ranks}-rank mapping"
            )
        prios: Dict[int, int] = {r: self.base_priority for r in range(n)}
        pairs = _full_pairs(mapping)

        def finish(rank: int, sibling: int) -> float:
            return float(compute_seconds[rank]) / self._share(
                prios[rank] - prios[sibling]
            )

        def pair_finish(i: int) -> float:
            a, b = pairs[i]
            return max(finish(a, b), finish(b, a))

        heap = [(-pair_finish(i), i) for i in range(len(pairs))]
        heapq.heapify(heap)
        while heap:
            neg, i = heapq.heappop(heap)
            current = pair_finish(i)
            if -neg > current * (1.0 + 1e-12):
                # Stale entry from before another pair's update; re-key.
                heapq.heappush(heap, (-current, i))
                continue
            a, b = pairs[i]
            heavy, light = (a, b) if finish(a, b) >= finish(b, a) else (b, a)
            step = None
            if prios[heavy] - prios[light] < self.max_gap:
                if prios[heavy] < self.max_priority:
                    step = (heavy, prios[heavy] + 1)
                elif prios[light] > self.min_priority:
                    step = (light, prios[light] - 1)
            if step is not None:
                rank, value = step
                previous = prios[rank]
                prios[rank] = value
                improved = pair_finish(i)
                if improved < current * (1.0 - 1e-12):
                    heapq.heappush(heap, (-improved, i))
                    continue
                prios[rank] = previous
            # No improving step: the pair is done; drop it from the heap.
        return PriorityAssignment.build(mapping, prios, label=self.name)


class HysteresisPolicy(DynamicPolicy):
    """The incumbent :class:`~repro.core.DynamicBalancer`, retrofitted.

    Behaviour is unchanged: :meth:`controller` hands out a fresh
    ``DynamicBalancer(config)`` per run, exactly what callers built by
    hand before the protocol existed. The config's canonical doc is the
    policy's parameter set, so two differently-tuned hysteresis
    policies have different fingerprints.
    """

    name = "hysteresis"
    description = (
        "runtime feedback controller over window sync fractions "
        "(one priority step toward the bottleneck, with hysteresis)"
    )

    def __init__(self, config: DynamicBalancerConfig = None) -> None:
        self.config = config if config is not None else DynamicBalancerConfig()

    def spec(self) -> PolicySpec:
        return PolicySpec(
            name=self.name, family="dynamic", params=self.config.to_doc()
        )

    def controller(self) -> DynamicBalancer:
        return DynamicBalancer(self.config)


class IlpPairPolicy(AllocationPolicy):
    """Pair the most decode-hungry rank with the least, per core.

    The ILP-aware allocation rule from the related work, driven by
    :func:`~repro.core.rank_pressures` (observed work × the profile's
    decode appetite). With the uniform per-scenario profiles the corpora
    draw, it reduces to the paper's own BT-MZ move: heaviest with
    lightest, so the future priority boost (or the hardware's leftover
    decode slots) steals only from a rank with slack.
    """

    name = "ilp-pair"
    description = (
        "allocation: pair highest decode-pressure rank with lowest per "
        "core (ILP-aware placement; priorities stay MEDIUM)"
    )

    def spec(self) -> PolicySpec:
        return PolicySpec(name=self.name, family="allocation",
                          params={"rule": "extremes"})

    def plan_mapping(
        self,
        compute_seconds: Sequence[float],
        mapping: ProcessMapping,
        profiles=None,
    ) -> ProcessMapping:
        pressures = rank_pressures(compute_seconds, profiles or "hpc")
        return paired_extremes_mapping(pressures)


class IlpSpreadPolicy(AllocationPolicy):
    """Pair like with like — the deliberate anti-pattern.

    Adjacent ranks in pressure order share a core: two decode-hungry
    ranks fight for one core's slots while the light pair leaves theirs
    idle. Scored so the leaderboard shows the *spread* between the
    allocation rule and its inverse, not just "ilp-pair beats nothing".
    """

    name = "ilp-spread"
    description = (
        "allocation: pair similar decode-pressure ranks per core "
        "(the anti-pattern contrast to ilp-pair)"
    )

    def spec(self) -> PolicySpec:
        return PolicySpec(name=self.name, family="allocation",
                          params={"rule": "adjacent"})

    def plan_mapping(
        self,
        compute_seconds: Sequence[float],
        mapping: ProcessMapping,
        profiles=None,
    ) -> ProcessMapping:
        pressures = rank_pressures(compute_seconds, profiles or "hpc")
        return paired_adjacent_mapping(pressures)


class RandomMappingPolicy(AllocationPolicy):
    """The control: a seeded, observation-hashed canonical mapping.

    Deterministic — the choice is the sha256 of (seed, observations)
    modulo the canonical mapping classes for the rank count — but
    blind to which rank is heavy. If ``ilp-pair`` cannot beat this on a
    corpus, the pairing *rule* is doing nothing the re-pairing lottery
    would not.
    """

    name = "random-mapping"
    description = (
        "allocation control: seeded random canonical mapping per cell "
        "(blind re-pairing lottery)"
    )

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def spec(self) -> PolicySpec:
        return PolicySpec(
            name=self.name, family="allocation", params={"seed": self.seed}
        )

    def plan_mapping(
        self,
        compute_seconds: Sequence[float],
        mapping: ProcessMapping,
        profiles=None,
    ) -> ProcessMapping:
        # The smallest chip that holds every rank (never below the paper
        # chip's two cores), so cluster-sized cells get a mapping too.
        n_cores = max(2, math.ceil(mapping.n_ranks / 2))
        classes = candidate_mappings(mapping.n_ranks, n_cores=n_cores)
        digest = fingerprint_doc(
            {"seed": self.seed, "works": [float(w) for w in compute_seconds]}
        )
        return classes[int(digest[:12], 16) % len(classes)]


def _distant_pairs(n_ranks: int) -> List[Tuple[int, int]]:
    """The cluster corpus's involutive pairing: rank ``r`` with
    ``r + n/2`` — the distant-neighbour pattern
    :func:`~repro.workloads.generators.distant_pairs_programs` runs."""
    half = n_ranks // 2
    return [(r, r + half) for r in range(half)]


class LocalityPackPolicy(PlacementPolicy):
    """Co-locate each distant pair on one node — the locality move.

    The cluster corpus's workload exchanges with the rank half the ring
    away, so the identity layout puts every partner on a *different*
    node and every exchange on the wire. This policy packs partner
    pairs together (``cpus_per_node // 2`` pairs per node, in pair
    order), turning all of that traffic into shared-memory transfers —
    the placement analogue of the paper's BT-MZ re-pairing.
    """

    name = "locality-pack"
    description = (
        "placement: co-locate each distant pair on one node "
        "(all exchanges become shared-memory)"
    )

    def spec(self) -> PolicySpec:
        return PolicySpec(name=self.name, family="placement",
                          params={"rule": "pack-pairs"})

    def plan_placement(
        self,
        compute_seconds: Sequence[float],
        mapping: ProcessMapping,
        n_nodes: int,
        cpus_per_node: int = 4,
    ) -> ProcessMapping:
        n = mapping.n_ranks
        pairs_per_node = cpus_per_node // 2
        if n % 2 or pairs_per_node < 1 or n > n_nodes * cpus_per_node:
            return mapping
        planned: Dict[int, int] = {}
        for i, (a, b) in enumerate(_distant_pairs(n)):
            node = i // pairs_per_node
            base = node * cpus_per_node + (i % pairs_per_node) * 2
            planned[a] = base
            planned[b] = base + 1
        return ProcessMapping.from_dict(planned)


class BandwidthSpreadPolicy(PlacementPolicy):
    """Split every distant pair across nodes — the contrast case.

    Each pair's endpoints land on different nodes in a round-robin, so
    every exchange crosses the network but the traffic is spread evenly
    over the links. Scored so the leaderboard shows the *gap* between
    locality and its inverse, not just "locality beats the draw".
    """

    name = "bandwidth-spread"
    description = (
        "placement: split each distant pair across nodes, round-robin "
        "(every exchange crosses the network, load spread)"
    )

    def spec(self) -> PolicySpec:
        return PolicySpec(name=self.name, family="placement",
                          params={"rule": "split-pairs"})

    def plan_placement(
        self,
        compute_seconds: Sequence[float],
        mapping: ProcessMapping,
        n_nodes: int,
        cpus_per_node: int = 4,
    ) -> ProcessMapping:
        n = mapping.n_ranks
        if n % 2 or n_nodes < 2 or n > n_nodes * cpus_per_node:
            return mapping
        next_cpu = [node * cpus_per_node for node in range(n_nodes)]

        def place(rank: int, node: int) -> bool:
            if next_cpu[node] >= (node + 1) * cpus_per_node:
                return False
            planned[rank] = next_cpu[node]
            next_cpu[node] += 1
            return True

        planned: Dict[int, int] = {}
        for i, (a, b) in enumerate(_distant_pairs(n)):
            node_a = i % n_nodes
            node_b = (node_a + 1) % n_nodes
            # Capacity fallback: first node with room, partner anywhere else.
            if not place(a, node_a):
                for node in range(n_nodes):
                    if place(a, node):
                        node_a = node
                        break
            if next_cpu[node_b] >= (node_b + 1) * cpus_per_node or node_b == node_a:
                for node in range(n_nodes):
                    if node != node_a and place(b, node):
                        break
                else:
                    return mapping  # nowhere to split: keep the incumbent
            else:
                place(b, node_b)
        return ProcessMapping.from_dict(planned)


class RandomPlacementPolicy(PlacementPolicy):
    """The control: a seeded, observation-hashed canonical placement.

    Deterministic — the sha256 of (seed, observations) modulo the
    canonical placement classes — but blind to who talks to whom. If
    ``locality-pack`` cannot beat this, co-location is doing nothing a
    node-assignment lottery would not.
    """

    name = "random-placement"
    description = (
        "placement control: seeded random canonical placement per cell "
        "(blind node-assignment lottery)"
    )

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def spec(self) -> PolicySpec:
        return PolicySpec(
            name=self.name, family="placement", params={"seed": self.seed}
        )

    def plan_placement(
        self,
        compute_seconds: Sequence[float],
        mapping: ProcessMapping,
        n_nodes: int,
        cpus_per_node: int = 4,
    ) -> ProcessMapping:
        classes = candidate_placements(
            mapping.n_ranks, n_nodes, cpus_per_node
        )
        digest = fingerprint_doc(
            {"seed": self.seed, "works": [float(w) for w in compute_seconds]}
        )
        choice = classes[int(digest[:12], 16) % len(classes)]
        return placement_mapping(choice, cpus_per_node)


# -- the registry --------------------------------------------------------------

_LOCK = threading.Lock()
_FACTORIES: Dict[str, Callable[[], Policy]] = {}


def register_policy(
    name: str, factory: Callable[[], object], replace: bool = False
) -> None:
    """Add a policy factory to the zoo under ``name``."""
    with _LOCK:
        if not replace and name in _FACTORIES:
            raise ConfigurationError(f"policy {name!r} is already registered")
        _FACTORIES[name] = factory


def get_policy(name: str):
    """A fresh policy instance by zoo name."""
    with _LOCK:
        factory = _FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown policy {name!r} (registered: {', '.join(policy_names())})"
        )
    policy = factory()
    if policy.name != name:
        raise ConfigurationError(
            f"policy registered as {name!r} calls itself {policy.name!r}"
        )
    return policy


def policy_names() -> Tuple[str, ...]:
    with _LOCK:
        return tuple(sorted(_FACTORIES))


def all_policies():
    """Fresh instances of every registered policy, name-sorted."""
    return [get_policy(name) for name in policy_names()]


def _register_defaults() -> None:
    register_policy(
        "st",
        lambda: PaperCasePolicy(
            "st",
            gap=0,
            description=(
                "no priority writes: every context at MEDIUM "
                "(the paper's ST/case-A reference)"
            ),
        ),
    )
    # Triggers sit where the paper procedure's log rule first rounds to
    # the case's gap (gap_scale 2.2): a wide gap on a mild imbalance
    # reverses it — the documented MetBench case-D failure mode.
    register_policy(
        "paper-b", lambda: PaperCasePolicy("paper-b", 5, 1, 2.2**0.5)
    )
    register_policy(
        "paper-c", lambda: PaperCasePolicy("paper-c", 4, 2, 2.2**1.5)
    )
    register_policy(
        "paper-d", lambda: PaperCasePolicy("paper-d", 3, 3, 2.2**2.5)
    )
    register_policy("propshare", ProportionalSharePolicy)
    register_policy("lpt", LptGreedyPolicy)
    # The zoo's hysteresis entry observes on a fast cadence: the control
    # interval must sit well below a bottleneck episode (one SCF
    # iteration in the trap corpus, a few simulated seconds) or the
    # controller perpetually backs the *previous* iteration's bottleneck
    # — the same lag-ratio lesson as bench_ablation_dynamic.
    register_policy(
        "hysteresis",
        lambda: HysteresisPolicy(DynamicBalancerConfig(interval=0.25)),
    )
    register_policy("ilp-pair", IlpPairPolicy)
    register_policy("ilp-spread", IlpSpreadPolicy)
    register_policy("random-mapping", RandomMappingPolicy)
    register_policy("locality-pack", LocalityPackPolicy)
    register_policy("bandwidth-spread", BandwidthSpreadPolicy)
    register_policy("random-placement", RandomPlacementPolicy)


_register_defaults()

#: The tournament's default line-up: every priority built-in, ST
#: reference first. The allocation family is a separate axis
#: (``ALLOCATION_POLICIES``) so the incumbent default boards keep their
#: recorded fingerprints; the differential experiment runs the union.
DEFAULT_POLICIES = (
    "st",
    "paper-b",
    "paper-c",
    "paper-d",
    "propshare",
    "lpt",
    "hysteresis",
)

#: The thread-to-core allocation family: mapping planners that leave
#: every priority at MEDIUM (see ``repro.experiments.allocation`` for
#: the mapping-vs-priority differential experiment).
ALLOCATION_POLICIES = ("ilp-pair", "ilp-spread", "random-mapping")

#: The node-placement family: rank→node planners for topology-bearing
#: (v3) scenarios — locality vs spread vs the lottery control, scored
#: over the ``cluster`` corpus. Single-chip cells pass through them
#: unchanged, so adding these to a tournament never perturbs one.
PLACEMENT_POLICIES = ("locality-pack", "bandwidth-spread", "random-placement")
