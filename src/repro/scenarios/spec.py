"""The canonical, versioned description of one simulated run.

Every layer of the repo used to carry its own copy of "a workload with a
mapping, priorities and model knobs": the oracle's ``Scenario``, the
service's scenario-kind ``JobSpec`` and the experiment suites'
``ExperimentCase``. :class:`ScenarioSpec` is the one shape they all
share now — a frozen, hashable, strictly-validated value object with a
single canonical serialisation (:meth:`to_doc`/:meth:`from_doc`) and a
single sha256 content address (:attr:`fingerprint`, via
:mod:`repro.util.fingerprint`).

Wire-format stability
---------------------
The document form is **append-only versioned**. ``SPEC_VERSION`` names
the current schema; :meth:`from_doc` accepts version 1 and 2 documents
(and rejects any other version), while :meth:`to_doc` deliberately
omits ``spec_version`` for specs expressible in v1 — and omits
``params`` when empty — so the canonical JSON of every pre-existing
scenario is byte-identical to what the oracle layer recorded before
this module existed. Golden traces under ``tests/golden/`` and service
cache keys both hash this form; changing it is a recorded,
re-golden-ing event, not a refactor.

Version 2 adds **explicit mappings**: ``mapping`` may be a JSON object
``{"<rank>": cpu}`` instead of a preset name. Explicit docs carry
``spec_version: 2`` so a v1 reader rejects them loudly instead of
choking on the object. An explicit mapping that coincides with a preset
is *normalised to the preset name* at construction time — one physics,
one canonical document, one fingerprint — so the service cache and the
golden layer never see two addresses for the same run (the
deliberate-choice test lives in ``tests/scenarios/test_spec.py``; the
rationale in ``docs/mapping.md``).

Version 3 adds an optional **topology**: a serialised
:class:`~repro.cluster.TopologySpec` (``{n_nodes, network, params}``)
that retargets the scenario from the default single POWER5 chip to an
N-node cluster behind a network model. Only topology-bearing docs carry
``spec_version: 3``; topology-less specs keep their exact v1/v2 bytes
(explicit-mapping docs still say ``spec_version: 2``), so every
pre-existing golden, cache key and leaderboard fingerprint is
unchanged. Under a topology, explicit mappings address *global* CPUs
``0 .. 4*n_nodes - 1`` (node ``k`` owns ``4k..4k+3``); see
``docs/cluster.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.cluster.spec import TopologySpec
from repro.errors import ConfigurationError, MappingError, ValidationError
from repro.machine.mapping import ProcessMapping, paper_mapping
from repro.mpi.runtime import RuntimeConfig
from repro.smt.chip import ChipConfig
from repro.smt.instructions import BASE_PROFILES
from repro.util.fingerprint import fingerprint_doc
from repro.util.validation import check_choice, check_positive

__all__ = ["SPEC_VERSION", "KINDS", "MAPPINGS", "ScenarioSpec"]

#: Schema version of the document form. Bump only with a migration note
#: in CHANGES.md and re-recorded goldens. v1: mapping is a preset name.
#: v2: mapping may also be an explicit ``{"rank": cpu}`` object; such
#: docs carry ``spec_version: 2``. v3 (current): an optional
#: ``topology`` object retargets the run to a multi-node cluster; only
#: topology-bearing docs carry ``spec_version: 3``. Preset-mapping
#: single-chip docs keep the exact v1 bytes (and fingerprints),
#: explicit-mapping single-chip docs the exact v2 bytes.
SPEC_VERSION = 3

#: Workload families a spec may name (each maps to a program factory).
#: ``distant_pairs`` is the cluster-corpus family: compute + a pairwise
#: exchange with the rank half the ring away, so placement (not
#: priorities) decides whether partners talk over shared memory or the
#: network.
KINDS = ("barrier_loop", "metbench", "btmz", "siesta", "distant_pairs")

#: Named rank-to-CPU layouts. "identity" and the two paper re-pairings
#: are 4-rank; "st" is the papers' single-thread mode (2 ranks, one per
#: core, sibling contexts idle).
MAPPINGS = ("identity", "btmz", "siesta", "st")

#: Logical CPUs of the default (paper) chip every scenario engine
#: builds: explicit mappings are validated against this machine shape.
_N_CPUS = ChipConfig().n_cpus

#: The rank->cpu dict of each fixed-size preset ("identity" is handled
#: by shape, not by table — it exists at every rank count). The paper's
#: re-pairings come from their one definition in ``paper_mapping``.
_PRESET_DICTS = {
    "btmz": paper_mapping("btmz").as_dict(),
    "siesta": paper_mapping("siesta").as_dict(),
    "st": {0: 0, 1: 2},
}

_MappingValue = Union[str, Tuple[Tuple[int, int], ...]]


def _freeze_mapping(
    mapping: object,
    n_ranks: Optional[int] = None,
    n_cpus: int = _N_CPUS,
) -> _MappingValue:
    """Canonical mapping form: a preset name, or a rank-sorted tuple of
    ``(rank, cpu)`` pairs for explicit layouts.

    Explicit layouts are validated by :class:`ProcessMapping` (injective,
    contiguous ranks) plus the machine's CPU range (``n_cpus`` — the
    default chip's, or the topology's global count) and the spec's rank
    count, then **normalised to the preset name when they coincide with
    one** — a preset and its explicit spelling are one physics and must
    be one content address.
    """
    if isinstance(mapping, str):
        return mapping
    if isinstance(mapping, ProcessMapping):
        pairs = mapping.rank_to_cpu
    else:
        if isinstance(mapping, Mapping):
            items = mapping.items()
        else:
            items = tuple(mapping)
        try:
            pairs = tuple(sorted((int(r), int(c)) for r, c in items))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"explicit mapping must be rank->cpu pairs, got {mapping!r}"
            ) from exc
    ProcessMapping(pairs)  # validates: contiguous ranks, injective cpus
    if any(c >= n_cpus for _, c in pairs):
        raise ConfigurationError(
            f"explicit mapping names a cpu outside the machine's "
            f"0..{n_cpus - 1}: {dict(pairs)}"
        )
    if n_ranks is not None and len(pairs) != n_ranks:
        raise ConfigurationError(
            f"explicit mapping covers {len(pairs)} ranks for "
            f"{n_ranks} works"
        )
    if all(r == c for r, c in pairs):
        return "identity"
    as_dict = dict(pairs)
    for preset, table in _PRESET_DICTS.items():
        if as_dict == table:
            return preset
    return pairs

#: Extra workload knobs each kind accepts in ``params``. A "works"
#: parameter is a per-rank tuple the same length as ``works``; a "bytes"
#: parameter is an int >= 0.
_PARAM_SCHEMA: Dict[str, Dict[str, str]] = {
    "barrier_loop": {},
    "metbench": {},
    "btmz": {"init_factor": "number"},
    "siesta": {
        "init_works": "works",
        "final_works": "works",
        "jitter_sigma": "number",
        "rotate_prob": "probability",
        "workload_seed": "int",
        "allreduce_bytes": "bytes",
    },
    "distant_pairs": {"exchange_bytes": "bytes"},
}

#: ``params`` keys the siesta program factory cannot default.
_SIESTA_REQUIRED = ("init_works", "final_works")

_ParamValue = Union[int, float, Tuple[float, ...]]


def _freeze_params(
    params: Union[Mapping[str, object], Tuple[Tuple[str, object], ...]],
) -> Tuple[Tuple[str, _ParamValue], ...]:
    """Canonical params form: key-sorted tuple of pairs, lists tuple-ised."""
    items = params.items() if isinstance(params, Mapping) else params
    frozen = []
    for key, value in items:
        if isinstance(value, (list, tuple)):
            value = tuple(float(v) for v in value)
        frozen.append((str(key), value))
    return tuple(sorted(frozen))


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative, serialisable description of one simulated run.

    Everything that determines the physics is here — workload shape,
    per-rank work, mapping, static priorities, seed and workload-specific
    knobs — so a spec can be fingerprinted, persisted next to a golden
    trace, cached by the service, and replayed by a later revision of
    the simulator through any registered engine.
    """

    name: str
    kind: str  # one of KINDS
    works: Tuple[float, ...]
    iterations: int
    profile: str = "hpc"
    #: A preset name from ``MAPPINGS``, or an explicit rank->cpu layout
    #: (dict / ``ProcessMapping`` / pair tuple accepted at construction;
    #: canonicalised to a rank-sorted pair tuple, or to the preset name
    #: when the layout coincides with one).
    mapping: _MappingValue = "identity"
    #: rank -> OS-settable hardware priority; empty = defaults (MEDIUM).
    priorities: Tuple[Tuple[int, int], ...] = ()
    seed: int = 0
    #: Kind-specific workload knobs (see ``_PARAM_SCHEMA``), canonically
    #: key-sorted. Empty for every scenario the generator draws.
    params: Tuple[Tuple[str, _ParamValue], ...] = ()
    #: ``None`` = the default single chip (every pre-v3 scenario).
    #: A :class:`~repro.cluster.TopologySpec` (or its document form)
    #: retargets the run to that cluster: engines build their
    #: :class:`~repro.machine.system.System` with its nodes and network.
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "works", tuple(float(w) for w in self.works))
        object.__setattr__(
            self,
            "priorities",
            tuple((int(r), int(p)) for r, p in self.priorities),
        )
        object.__setattr__(self, "params", _freeze_params(self.params))
        if self.topology is not None and not isinstance(self.topology, TopologySpec):
            if not isinstance(self.topology, Mapping):
                raise ConfigurationError(
                    f"scenario {self.name!r}: topology must be a TopologySpec "
                    f"or its document form, got {self.topology!r}"
                )
            try:
                object.__setattr__(
                    self, "topology", TopologySpec.from_doc(self.topology)
                )
            except ValidationError as exc:
                raise ConfigurationError(
                    f"scenario {self.name!r}: invalid topology: {exc}"
                ) from exc
        machine_cpus = (
            self.topology.n_cpus if self.topology is not None else _N_CPUS
        )
        try:
            object.__setattr__(
                self,
                "mapping",
                _freeze_mapping(
                    self.mapping, n_ranks=len(self.works), n_cpus=machine_cpus
                ),
            )
        except MappingError as exc:
            raise ConfigurationError(
                f"scenario {self.name!r}: invalid explicit mapping: {exc}"
            ) from exc
        check_choice("scenario.kind", self.kind, KINDS)
        check_positive("scenario.iterations", self.iterations)
        if not self.works:
            raise ConfigurationError(f"scenario {self.name!r} has no works")
        if not all(0.0 <= w < math.inf for w in self.works):
            raise ConfigurationError(f"scenario {self.name!r}: works must be finite and >= 0")
        if len(self.works) > machine_cpus:
            raise ConfigurationError(
                f"scenario {self.name!r}: {len(self.works)} ranks exceed the "
                f"machine's {machine_cpus} CPUs"
            )
        if self.kind == "distant_pairs" and len(self.works) % 2:
            raise ConfigurationError(
                f"scenario {self.name!r}: distant_pairs needs an even rank "
                f"count, got {len(self.works)}"
            )
        if self.profile not in BASE_PROFILES:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown profile {self.profile!r}"
            )
        if isinstance(self.mapping, str):
            check_choice("scenario.mapping", self.mapping, MAPPINGS)
            if self.mapping in ("btmz", "siesta") and self.n_ranks != 4:
                raise ConfigurationError(
                    f"scenario {self.name!r}: mapping {self.mapping!r} needs "
                    f"4 ranks, got {self.n_ranks}"
                )
            if self.mapping == "st" and self.n_ranks != 2:
                raise ConfigurationError(
                    f"scenario {self.name!r}: mapping 'st' needs 2 ranks, "
                    f"got {self.n_ranks}"
                )
        seen = set()
        for rank, prio in self.priorities:
            if not 0 <= rank < self.n_ranks:
                raise ConfigurationError(
                    f"scenario {self.name!r}: priority names rank {rank} "
                    f"outside 0..{self.n_ranks - 1}"
                )
            if rank in seen:
                raise ConfigurationError(
                    f"scenario {self.name!r}: rank {rank} has two priorities"
                )
            seen.add(rank)
            if not 1 <= prio <= 6:
                raise ConfigurationError(
                    f"scenario {self.name!r}: rank {rank} priority {prio} "
                    "is not OS-settable (1-6)"
                )
        self._check_params()
        self._check_event_bound()

    def _check_params(self) -> None:
        schema = _PARAM_SCHEMA[self.kind]
        for key, value in self.params:
            shape = schema.get(key)
            if shape is None:
                raise ConfigurationError(
                    f"scenario {self.name!r}: kind {self.kind!r} does not "
                    f"accept param {key!r} (allowed: {sorted(schema) or '[]'})"
                )
            if shape == "works":
                if not isinstance(value, tuple) or len(value) != self.n_ranks:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: param {key!r} must be a "
                        f"{self.n_ranks}-long work tuple, got {value!r}"
                    )
                if not all(0.0 < w < math.inf for w in value):
                    raise ConfigurationError(
                        f"scenario {self.name!r}: param {key!r} has "
                        "non-positive or non-finite work"
                    )
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"scenario {self.name!r}: param {key!r} must be a "
                    f"number, got {value!r}"
                )
            elif shape == "probability" and not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"scenario {self.name!r}: param {key!r} must be in "
                    f"[0, 1], got {value!r}"
                )
            elif shape in ("int", "bytes") and not isinstance(value, int):
                raise ConfigurationError(
                    f"scenario {self.name!r}: param {key!r} must be an "
                    f"int, got {value!r}"
                )
            elif shape in ("number", "bytes") and not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"scenario {self.name!r}: param {key!r} must be finite "
                    f"and >= 0, got {value!r}"
                )
        if self.kind == "siesta":
            have = {k for k, _ in self.params}
            missing = [k for k in _SIESTA_REQUIRED if k not in have]
            if missing:
                raise ConfigurationError(
                    f"scenario {self.name!r}: siesta needs params {missing}"
                )

    def _check_event_bound(self) -> None:
        """Refuse a run that would certainly pass the runtime's event wall.

        Every iteration of every kind completes each rank compute of
        positive work (siesta's jittered works excepted) and releases one
        collective (btmz exchanges point to point only): a lower bound on
        the events a run processes. The last iteration is left out, so a
        run the runtime would finish is never refused here.
        """
        computes = 0 if self.kind == "siesta" else sum(w > 0.0 for w in self.works)
        per_iteration = computes + (self.kind != "btmz")
        limit = RuntimeConfig.max_events
        if (self.iterations - 1) * per_iteration > limit:
            raise ConfigurationError(
                f"scenario {self.name!r}: {self.iterations} iterations of "
                f"{per_iteration} events each exceed the runtime's "
                f"max_events={limit}"
            )

    # -- derived views ---------------------------------------------------------

    @property
    def n_ranks(self) -> int:
        return len(self.works)

    def params_dict(self) -> Dict[str, _ParamValue]:
        return dict(self.params)

    def param(self, key: str, default: _ParamValue = None):
        return self.params_dict().get(key, default)

    def mapping_obj(self) -> ProcessMapping:
        if not isinstance(self.mapping, str):
            return ProcessMapping(self.mapping)
        if self.mapping == "identity":
            return ProcessMapping.identity(self.n_ranks)
        if self.mapping == "st":
            # One rank per core: ranks 0/1 on the even context of cores 0/1.
            return ProcessMapping.from_dict({0: 0, 1: 2})
        return paper_mapping(self.mapping)

    def priority_dict(self) -> Optional[Dict[int, int]]:
        return dict(self.priorities) if self.priorities else None

    def programs(self):
        """Fresh (single-use) rank generator programs for one run."""
        if self.kind == "barrier_loop":
            from repro.workloads.generators import barrier_loop_programs

            return barrier_loop_programs(
                list(self.works), iterations=self.iterations, profile=self.profile
            )
        if self.kind == "metbench":
            from repro.workloads.metbench import metbench_programs

            return metbench_programs(
                list(self.works), iterations=self.iterations, load=self.profile
            )
        if self.kind == "btmz":
            from repro.workloads.bt_mz import BtMzConfig, bt_mz_programs

            init_factor = self.param("init_factor")
            if init_factor is None:
                return bt_mz_programs(
                    list(self.works),
                    iterations=self.iterations,
                    profile=self.profile,
                )
            return bt_mz_programs(
                config=BtMzConfig(
                    works=list(self.works),
                    iterations=self.iterations,
                    profile=self.profile,
                    init_factor=float(init_factor),
                )
            )
        if self.kind == "distant_pairs":
            from repro.workloads.generators import distant_pairs_programs

            return distant_pairs_programs(
                list(self.works),
                iterations=self.iterations,
                profile=self.profile,
                exchange_bytes=int(self.param("exchange_bytes", 65536)),
            )
        from repro.workloads.siesta import SiestaConfig, siesta_programs

        p = self.params_dict()
        cfg = SiestaConfig(
            mean_works=list(self.works),
            init_works=list(p["init_works"]),
            final_works=list(p["final_works"]),
            n_iterations=self.iterations,
            profile=self.profile,
            jitter_sigma=float(p.get("jitter_sigma", 0.30)),
            rotate_prob=float(p.get("rotate_prob", 0.35)),
            allreduce_bytes=int(p.get("allreduce_bytes", 64)),
            seed=int(p.get("workload_seed", 2008)),
        )
        return siesta_programs(cfg)

    # -- serialisation ---------------------------------------------------------

    def to_doc(self) -> dict:
        """The canonical document form fingerprints are computed over.

        ``params`` is omitted when empty, and ``spec_version`` when the
        spec is expressible in v1 (every preset-mapping single-chip
        spec), so pre-existing recorded scenarios keep their exact
        canonical bytes (and therefore their fingerprints).
        Explicit-mapping single-chip specs are a v2-only shape and carry
        the literal ``spec_version: 2`` — *not* the current
        ``SPEC_VERSION`` — so their bytes are frozen too. Only
        topology-bearing specs carry ``spec_version: 3``; a v1/v2 reader
        rejects them by version instead of choking on the object.
        """
        doc = {
            "name": self.name,
            "kind": self.kind,
            "works": list(self.works),
            "iterations": self.iterations,
            "profile": self.profile,
            "mapping": (
                self.mapping
                if isinstance(self.mapping, str)
                else {str(r): c for r, c in self.mapping}
            ),
            "priorities": [list(p) for p in self.priorities],
            "seed": self.seed,
        }
        if self.topology is not None:
            doc["topology"] = self.topology.to_doc()
            doc["spec_version"] = 3
        elif not isinstance(self.mapping, str):
            doc["spec_version"] = 2
        if self.params:
            doc["params"] = {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.params
            }
        return doc

    _REQUIRED = ("name", "kind", "works", "iterations")
    _OPTIONAL = ("profile", "mapping", "priorities", "seed", "params",
                 "spec_version", "topology")

    @classmethod
    def from_doc(cls, doc: object) -> "ScenarioSpec":
        """Strict deserialisation: the exact inverse of :meth:`to_doc`.

        Unlike the three lax ``from_doc`` s this class replaced, unknown
        fields, missing required fields, an unsupported ``spec_version``
        and uncoercible values all raise a typed
        :class:`~repro.errors.ValidationError` — a scenario document
        that round-trips is bit-identical to its source.
        """
        if not isinstance(doc, dict):
            raise ValidationError(
                f"scenario document must be a JSON object, got {doc!r}"
            )
        unknown = set(doc) - set(cls._REQUIRED) - set(cls._OPTIONAL)
        if unknown:
            raise ValidationError(
                f"unknown scenario fields: {sorted(unknown)}"
            )
        missing = [k for k in cls._REQUIRED if k not in doc]
        if missing:
            raise ValidationError(f"missing scenario fields: {missing}")
        version = doc.get("spec_version", SPEC_VERSION)
        if version not in (1, 2, SPEC_VERSION):
            raise ValidationError(
                f"unsupported spec_version {version!r} "
                f"(this build reads versions 1, 2 and {SPEC_VERSION})"
            )
        topology = doc.get("topology")
        if topology is not None:
            if version < 3:
                raise ValidationError(
                    "a topology needs spec_version 3, but the document "
                    f"claims version {version}"
                )
            topology = TopologySpec.from_doc(topology)
        machine_cpus = topology.n_cpus if topology is not None else _N_CPUS
        mapping = doc.get("mapping", "identity")
        if isinstance(mapping, str):
            if mapping not in MAPPINGS:
                raise ValidationError(
                    f"unknown mapping {mapping!r} "
                    f"(presets: {', '.join(MAPPINGS)})"
                )
        elif isinstance(mapping, dict):
            if version == 1:
                raise ValidationError(
                    "explicit mappings need spec_version 2, but the "
                    "document claims version 1"
                )
            try:
                mapping = {int(r): int(c) for r, c in mapping.items()}
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"explicit mapping keys/values must be integers: {exc}"
                ) from exc
            try:
                _freeze_mapping(mapping, n_cpus=machine_cpus)
            except (MappingError, ConfigurationError) as exc:
                raise ValidationError(
                    f"invalid explicit mapping: {exc}"
                ) from exc
        else:
            raise ValidationError(
                f"mapping must be a preset name or a rank->cpu object, "
                f"got {mapping!r}"
            )
        priorities = doc.get("priorities", ())
        if not isinstance(priorities, (list, tuple)) or any(
            not isinstance(p, (list, tuple)) or len(p) != 2 for p in priorities
        ):
            raise ValidationError(
                f"priorities must be [rank, priority] pairs, got {priorities!r}"
            )
        params = doc.get("params", {})
        if not isinstance(params, (dict, list, tuple)):
            raise ValidationError(
                f"params must be an object, got {params!r}"
            )
        try:
            return cls(
                name=str(doc["name"]),
                kind=str(doc["kind"]),
                works=tuple(float(w) for w in doc["works"]),
                iterations=int(doc["iterations"]),
                profile=str(doc.get("profile", "hpc")),
                mapping=mapping,
                priorities=tuple((int(r), int(p)) for r, p in priorities),
                seed=int(doc.get("seed", 0)),
                params=_freeze_params(params),
                topology=topology,
            )
        except ConfigurationError as exc:
            raise ValidationError(f"invalid scenario document: {exc}") from exc
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(
                f"malformed scenario document: {exc}"
            ) from exc

    @property
    def fingerprint(self) -> str:
        """sha256 over the canonical JSON form — the one content address
        shared by golden traces, the service cache and the oracle.

        Memoised: the spec is frozen, and the hash is taken once per
        spec even when the service fingerprints the job at submission
        and the engine stamps the result.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint_doc(self.to_doc())
            object.__setattr__(self, "_fingerprint", cached)
        return cached
