"""The balancing-policy protocol: one typed interface over both families.

The paper's Section VIII names the missing piece — an OS algorithm that
*automatically* decides which rank deserves resources. This module is
the contract such algorithms implement so they can be judged head to
head (see :mod:`repro.policies` for the zoo and the tournament runner):

* a policy has a serialisable identity — :class:`PolicySpec`, name +
  canonical key-sorted params with a sha256 content address via
  :mod:`repro.util.fingerprint` — so tournament results can name the
  exact contender they scored;
* a **static** policy (:class:`StaticPolicy`) is a
  :class:`~repro.core.balancer.Balancer`: observations in, one
  up-front :class:`~repro.core.balancer.PriorityAssignment` out — the
  paper's mechanism (cases ST/A-D, the static planner);
* a **dynamic** policy (:class:`DynamicPolicy`) manufactures fresh
  runtime *controllers* (``interval`` attribute + ``on_tick(runtime,
  now)``, the ``MpiRuntime(controllers=...)`` hook) — the paper's
  future work, of which :class:`~repro.core.dynamic.DynamicBalancer`
  is the incumbent;
* an **allocation** policy (:class:`AllocationPolicy`) chooses the
  *mapping* instead of the priorities: observations in, one
  :class:`~repro.machine.mapping.ProcessMapping` out, priorities left
  at MEDIUM — the thread-to-core allocation family from the related
  work (ILP-aware scheduling), and the other half of the paper's
  manual tuning story the zoo can now score head-to-head against
  priority-only contenders;
* a **placement** policy (:class:`PlacementPolicy`) chooses the
  rank→*node* layout on a multi-node cluster (v3 scenarios carrying a
  :class:`~repro.cluster.TopologySpec`): observations plus the cluster
  shape in, one global-CPU mapping out, priorities left at MEDIUM —
  the paper's MareNostrum motivation made a scored axis, since on a
  cluster *which node* decides which messages cross the network.

This module lives in ``core`` (below ``scenarios``) on purpose: the
protocol speaks (works, mapping) like the rest of the core layer, and
the scenario-level plumbing — applying a policy to a
``ScenarioSpec``, running tournaments over seeded corpora — lives in
the upper :mod:`repro.policies` package.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.balancer import Balancer, PriorityAssignment
from repro.errors import ConfigurationError, ValidationError
from repro.machine.mapping import ProcessMapping
from repro.util.fingerprint import fingerprint_doc

__all__ = [
    "POLICY_FAMILIES",
    "PolicySpec",
    "Policy",
    "StaticPolicy",
    "DynamicPolicy",
    "AllocationPolicy",
    "PlacementPolicy",
]

#: The algorithm families the protocol distinguishes: ``static`` plans
#: priorities up front, ``dynamic`` adjusts them at runtime,
#: ``allocation`` plans the rank→core mapping (priorities untouched),
#: ``placement`` plans the rank→*node* layout on a cluster.
POLICY_FAMILIES = ("static", "dynamic", "allocation", "placement")

_ParamValue = Union[int, float, str, bool]
Plan = Tuple[Dict[str, object], Optional[Dict[str, object]]]


def _freeze_params(
    params: Union[Mapping[str, object], Tuple[Tuple[str, object], ...]],
) -> Tuple[Tuple[str, _ParamValue], ...]:
    """Canonical params form: key-sorted tuple of (name, scalar) pairs."""
    items = params.items() if isinstance(params, Mapping) else params
    frozen = []
    for key, value in items:
        if not isinstance(value, (int, float, str, bool)):
            raise ConfigurationError(
                f"policy param {key!r} must be a scalar, got {value!r}"
            )
        frozen.append((str(key), value))
    return tuple(sorted(frozen))


@dataclass(frozen=True)
class PolicySpec:
    """A policy's serialisable identity: name, family and parameters.

    The document form follows the ``ScenarioSpec`` conventions: a
    canonical key-sorted shape with ``params`` omitted when empty,
    strict :meth:`from_doc` (unknown fields raise), and a memoised
    sha256 :attr:`fingerprint` over the canonical JSON — the content
    address leaderboards pin so a scored policy can never be silently
    edited.
    """

    name: str
    family: str  # one of POLICY_FAMILIES
    params: Tuple[Tuple[str, _ParamValue], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_params(self.params))
        if not self.name:
            raise ConfigurationError("policy spec has no name")
        if self.family not in POLICY_FAMILIES:
            raise ConfigurationError(
                f"policy {self.name!r}: family must be one of "
                f"{POLICY_FAMILIES}, got {self.family!r}"
            )

    def params_dict(self) -> Dict[str, _ParamValue]:
        return dict(self.params)

    # -- serialisation ---------------------------------------------------------

    def to_doc(self) -> dict:
        doc: dict = {"name": self.name, "family": self.family}
        if self.params:
            doc["params"] = dict(self.params)
        return doc

    _REQUIRED = ("name", "family")
    _OPTIONAL = ("params",)

    @classmethod
    def from_doc(cls, doc: object) -> "PolicySpec":
        """Strict deserialisation: the exact inverse of :meth:`to_doc`."""
        if not isinstance(doc, dict):
            raise ValidationError(
                f"policy document must be a JSON object, got {doc!r}"
            )
        unknown = set(doc) - set(cls._REQUIRED) - set(cls._OPTIONAL)
        if unknown:
            raise ValidationError(f"unknown policy fields: {sorted(unknown)}")
        missing = [k for k in cls._REQUIRED if k not in doc]
        if missing:
            raise ValidationError(f"missing policy fields: {missing}")
        params = doc.get("params", {})
        if not isinstance(params, (dict, list, tuple)):
            raise ValidationError(f"policy params must be an object, got {params!r}")
        try:
            return cls(
                name=str(doc["name"]),
                family=str(doc["family"]),
                params=_freeze_params(params),
            )
        except ConfigurationError as exc:
            raise ValidationError(f"malformed policy document: {exc}") from exc

    @property
    def fingerprint(self) -> str:
        """sha256 over the canonical JSON form (memoised; the spec is frozen)."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint_doc(self.to_doc())
            object.__setattr__(self, "_fingerprint", cached)
        return cached


class Policy:
    """A balancing policy: a fingerprintable contender in the tournament.

    Subclasses derive from one of the four family bases, which
    implement :meth:`apply`, and implement :meth:`spec` so every
    parameterisation has a canonical identity.
    """

    #: Zoo name; also the leaderboard row label.
    name: str = ""
    #: One of :data:`POLICY_FAMILIES` — set by the family base class.
    family: str = ""
    description: str = ""

    @abstractmethod
    def spec(self) -> PolicySpec:
        """The serialisable identity of this exact parameterisation."""

    def apply(self, works, mapping, profiles=None, topology=None) -> Plan:
        """One cell's plan from per-rank whole-run ``works``.

        ``mapping`` is the incumbent layout, ``profiles`` the per-rank
        load profiles (or ``None``) and ``topology`` the cluster shape
        (``n_nodes``/``cpus_per_node``; ``None`` on one chip). Returns
        ``(changes, options)``: the scenario fields to replace — empty
        when the plan is a no-op, so the caller keeps the incumbent's
        bytes — and the engine options, or ``None``. Each family owns
        its no-op test.
        """
        raise ConfigurationError(
            f"policy {self.name!r} belongs to no known family "
            "(static, dynamic, allocation or placement)"
        )

    @property
    def fingerprint(self) -> str:
        return self.spec().fingerprint

    def describe(self) -> str:
        return f"[{self.family}] {self.name}: {self.description}"


class StaticPolicy(Policy, Balancer):
    """The up-front family: observations in, one assignment out.

    A static policy *is* a :class:`~repro.core.balancer.Balancer` —
    ``plan(compute_seconds, mapping)`` returns the
    :class:`~repro.core.balancer.PriorityAssignment` installed before
    launch, exactly like the paper's ``echo N > /proc/<pid>/
    hmt_priority`` procedure.
    """

    family = "static"

    @abstractmethod
    def plan(self, compute_seconds, mapping) -> PriorityAssignment:
        """See :meth:`repro.core.balancer.Balancer.plan`."""

    def apply(self, works, mapping, profiles=None, topology=None) -> Plan:
        """The assignment's priorities; an all-MEDIUM plan is a no-op."""
        assignment = self.plan(works, mapping)
        if all(p == 4 for _, p in assignment.priorities):
            return {}, None
        return {"priorities": assignment.priorities}, None


class DynamicPolicy(Policy):
    """The runtime family: a factory of fresh per-run controllers.

    :meth:`controller` must return a *new* controller object per call
    (controllers are stateful across a run); the returned object
    satisfies the ``MpiRuntime(controllers=...)`` protocol — an
    ``interval`` in simulated seconds plus ``on_tick(runtime, now)``.
    """

    family = "dynamic"

    @abstractmethod
    def controller(self):
        """A fresh runtime controller for one run."""

    def apply(self, works, mapping, profiles=None, topology=None) -> Plan:
        """No scenario change; a ``controllers`` factory for the engine."""
        return {}, {"controllers": lambda: [self.controller()]}


class AllocationPolicy(Policy):
    """The thread-to-core family: observations in, one mapping out.

    Where a static policy decides *how fast each context decodes*, an
    allocation policy decides *which ranks share a core* — the lever the
    paper fixed by hand (BT-MZ's heaviest-with-lightest re-pairing) and
    the related allocation-policy literature treats as primary. The
    planned mapping replaces the scenario's; priorities stay at MEDIUM,
    so a tournament row isolates exactly what smart placement buys
    without smart priorities.
    """

    family = "allocation"

    @abstractmethod
    def plan_mapping(
        self,
        compute_seconds: Sequence[float],
        mapping: ProcessMapping,
        profiles=None,
    ) -> ProcessMapping:
        """The mapping to install, from per-rank observed compute.

        ``mapping`` is the scenario's incumbent layout (for its rank
        count and as the fallback); the returned mapping must cover the
        same ranks. ``profiles`` optionally carries per-rank load
        profiles (:class:`~repro.smt.instructions.LoadProfile` or base
        profile names) so ILP-aware policies can weigh decode appetite,
        not just work.
        """

    def apply(self, works, mapping, profiles=None, topology=None) -> Plan:
        """The planned mapping; one in the incumbent's symmetry class
        (same :meth:`~repro.machine.mapping.ProcessMapping.canonical`
        form, see ``docs/mapping.md``) is a no-op."""
        planned = self.plan_mapping(works, mapping, profiles=profiles)
        if planned.canonical().rank_to_cpu == mapping.canonical().rank_to_cpu:
            return {}, None
        return {"mapping": planned.rank_to_cpu}, None


class PlacementPolicy(Policy):
    """The node-placement family: cluster shape in, global mapping out.

    Where an allocation policy decides *which ranks share a core* on one
    chip, a placement policy decides *which node each rank lives on* —
    the extrinsic-imbalance lever the paper's MareNostrum framing points
    at: co-located partners exchange over shared memory, separated ones
    over the network. The planned mapping is in global CPU ids (node
    ``k`` owns ``k*cpus_per_node ..``); priorities stay at MEDIUM so a
    tournament row isolates exactly what placement buys.

    Cluster placements must be compared by *exact* CPU assignment, not
    :meth:`~repro.machine.mapping.ProcessMapping.canonical` — canonical
    packs onto the lowest cores and would move ranks across nodes.
    """

    family = "placement"

    @abstractmethod
    def plan_placement(
        self,
        compute_seconds: Sequence[float],
        mapping: ProcessMapping,
        n_nodes: int,
        cpus_per_node: int = 4,
    ) -> ProcessMapping:
        """The global-CPU mapping to install on an ``n_nodes`` cluster.

        ``mapping`` is the scenario's incumbent layout (and the
        fallback when the policy's pattern does not apply — odd rank
        counts, insufficient capacity); the returned mapping must cover
        the same ranks within ``n_nodes * cpus_per_node`` global CPUs.
        """

    def apply(self, works, mapping, profiles=None, topology=None) -> Plan:
        """The planned global mapping; a no-op on one chip (no
        ``topology``) or when it matches the incumbent CPU for CPU."""
        if topology is None:
            return {}, None
        planned = self.plan_placement(
            works,
            mapping,
            n_nodes=topology.n_nodes,
            cpus_per_node=topology.cpus_per_node,
        )
        # Exact-CPU comparison on purpose: canonical() would repack
        # across node boundaries (see docs/cluster.md).
        if planned.rank_to_cpu == mapping.rank_to_cpu:
            return {}, None
        return {"mapping": planned.rank_to_cpu}, None
