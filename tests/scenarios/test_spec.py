"""ScenarioSpec: validation, strict serialisation, fingerprint stability."""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.mpi.runtime import RuntimeConfig
from repro.scenarios import KINDS, MAPPINGS, ScenarioSpec
from repro.scenarios.generator import ScenarioGenerator
from repro.util.fingerprint import fingerprint_doc


def spec_for(kind: str, **overrides) -> ScenarioSpec:
    """A small valid spec of every workload kind (the property corpus)."""
    base = dict(
        name=f"t-{kind}",
        kind=kind,
        works=(1.0e9, 2.0e9, 1.5e9, 3.0e9),
        iterations=2,
        priorities=((0, 4), (1, 6), (2, 4), (3, 6)),
        seed=3,
    )
    if kind == "btmz":
        base["params"] = {"init_factor": 2.5}
    if kind == "siesta":
        base["params"] = {
            "init_works": (1e8, 2e8, 1.5e8, 3e8),
            "final_works": (2e8, 1e8, 2.5e8, 1e8),
            "jitter_sigma": 0.18,
            "rotate_prob": 0.25,
            "workload_seed": 2008,
        }
    base.update(overrides)
    return ScenarioSpec(**base)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_doc_round_trip_every_kind(self, kind):
        spec = spec_for(kind)
        doc = spec.to_doc()
        again = ScenarioSpec.from_doc(doc)
        assert again == spec
        assert again.fingerprint == spec.fingerprint
        # The canonical JSON itself round-trips byte-identically.
        assert json.dumps(again.to_doc(), sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_json_wire_round_trip(self, kind):
        spec = spec_for(kind)
        wire = json.dumps(spec.to_doc())
        assert ScenarioSpec.from_doc(json.loads(wire)) == spec

    @pytest.mark.parametrize("kind", KINDS)
    def test_programs_build_for_every_kind(self, kind):
        programs = spec_for(kind).programs()
        assert len(programs) == 4

    def test_fingerprint_matches_legacy_canonical_form(self):
        """The wire-format contract: sha256 over sort_keys json of the
        8 legacy keys, with params/spec_version absent at defaults —
        pre-existing golden and cache fingerprints must not move."""
        spec = spec_for("barrier_loop")
        doc = spec.to_doc()
        assert sorted(doc) == [
            "iterations", "kind", "mapping", "name",
            "priorities", "profile", "seed", "works",
        ]
        assert spec.fingerprint == fingerprint_doc(doc)

    def test_params_omitted_when_empty(self):
        assert "params" not in spec_for("metbench").to_doc()
        assert "params" in spec_for("siesta").to_doc()

    def test_fingerprint_is_content_addressed(self):
        a = spec_for("btmz")
        b = dataclasses.replace(a, params={"init_factor": 2.6})
        assert a.fingerprint != b.fingerprint


class TestStrictFromDoc:
    def test_unknown_field_rejected(self):
        doc = spec_for("metbench").to_doc()
        doc["workz"] = [1.0]
        with pytest.raises(ValidationError, match="workz"):
            ScenarioSpec.from_doc(doc)

    def test_missing_required_field_rejected(self):
        doc = spec_for("metbench").to_doc()
        del doc["works"]
        with pytest.raises(ValidationError, match="works"):
            ScenarioSpec.from_doc(doc)

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioSpec.from_doc(["not", "a", "dict"])

    def test_future_spec_version_rejected(self):
        doc = spec_for("metbench").to_doc()
        doc["spec_version"] = 99
        with pytest.raises(ValidationError, match="spec_version"):
            ScenarioSpec.from_doc(doc)

    def test_current_spec_version_accepted(self):
        doc = spec_for("metbench").to_doc()
        doc["spec_version"] = 1
        assert ScenarioSpec.from_doc(doc) == spec_for("metbench")

    def test_malformed_priorities_rejected(self):
        doc = spec_for("metbench").to_doc()
        doc["priorities"] = [[0, 4, 9]]
        with pytest.raises(ValidationError, match="priorities"):
            ScenarioSpec.from_doc(doc)

    def test_uncoercible_value_rejected(self):
        doc = spec_for("metbench").to_doc()
        doc["works"] = ["a lot", "even more"]
        with pytest.raises(ValidationError):
            ScenarioSpec.from_doc(doc)

    def test_validation_error_is_a_value_error(self):
        # Generic callers that caught ValueError keep working.
        with pytest.raises(ValueError):
            ScenarioSpec.from_doc({"name": "x"})


class TestValidation:
    def test_kind_and_mapping_choices(self):
        with pytest.raises(ConfigurationError):
            spec_for("quantum")
        with pytest.raises(ConfigurationError):
            spec_for("metbench", mapping="torus")
        assert set(MAPPINGS) >= {"identity", "btmz", "siesta", "st"}

    def test_paper_mappings_need_four_ranks(self):
        with pytest.raises(ConfigurationError):
            spec_for("metbench", works=(1e9, 2e9), mapping="btmz")

    def test_st_mapping_needs_two_ranks(self):
        with pytest.raises(ConfigurationError):
            spec_for("metbench", mapping="st")
        st = spec_for(
            "metbench", works=(1e9, 2e9), mapping="st",
            priorities=((0, 4), (1, 6)),
        )
        assert st.mapping_obj().as_dict() == {0: 0, 1: 2}

    def test_priority_rank_bounds_and_uniqueness(self):
        with pytest.raises(ConfigurationError):
            spec_for("metbench", priorities=((7, 4),))
        with pytest.raises(ConfigurationError):
            spec_for("metbench", priorities=((0, 4), (0, 5)))
        with pytest.raises(ConfigurationError):
            spec_for("metbench", priorities=((0, 7),))

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_for("metbench", params={"init_factor": 2.0})

    def test_siesta_requires_phase_works(self):
        with pytest.raises(ConfigurationError, match="init_works"):
            spec_for("siesta", params={"final_works": (1e8,) * 4})

    def test_siesta_phase_works_length_checked(self):
        params = dict(spec_for("siesta").params)
        params["init_works"] = (1e8, 2e8)
        with pytest.raises(ConfigurationError):
            spec_for("siesta", params=params)


BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), -1.0, -1]


class TestRankCountAgainstTheChip:
    """Every spec fits its machine: more ranks than the single chip has
    CPUs is rejected up front, not by an engine mid-run."""

    def test_more_ranks_than_chip_cpus_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="exceed the machine's 4 CPUs"):
            spec_for("barrier_loop", works=(1.0e9,) * 8, priorities=())

    def test_from_doc_raises_validation_error(self):
        doc = spec_for("barrier_loop").to_doc()
        doc["works"] = [1.0e9] * 8
        doc["priorities"] = []
        with pytest.raises(ValidationError, match="exceed the machine's"):
            ScenarioSpec.from_doc(doc)


class TestEventBound:
    """A spec whose run would certainly pass the runtime's event wall
    (``RuntimeConfig.max_events``) is rejected when it is built."""

    #: Certain events per iteration of ``spec_for(kind)``: one per rank
    #: compute (siesta's per-iteration works are drawn, so none are
    #: counted) plus one collective release (btmz has none).
    PER_ITERATION = {
        "barrier_loop": 5, "metbench": 5, "btmz": 4, "siesta": 1, "distant_pairs": 5,
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_bound_per_kind(self, kind):
        per = self.PER_ITERATION[kind]
        last = RuntimeConfig.max_events // per + 1
        assert (last - 1) * per <= RuntimeConfig.max_events < last * per
        spec_for(kind, iterations=last)
        with pytest.raises(ConfigurationError, match="max_events"):
            spec_for(kind, iterations=last + 1)
        doc = spec_for(kind).to_doc()
        doc["iterations"] = last + 1
        with pytest.raises(ValidationError, match="max_events"):
            ScenarioSpec.from_doc(doc)

    @pytest.mark.parametrize("iterations", [10**6, 10**9])
    def test_long_barrier_loop_rejected(self, iterations):
        doc = {"name": "long", "kind": "barrier_loop", "works": [1e9] * 4,
               "iterations": iterations, "mapping": "siesta"}
        with pytest.raises(ValidationError, match="max_events"):
            ScenarioSpec.from_doc(doc)

    def test_zero_work_ranks_are_not_counted(self):
        per = 2  # one computing rank and the barrier
        spec_for("barrier_loop", works=(1e9, 0.0, 0.0, 0.0),
                 iterations=RuntimeConfig.max_events // per + 1)

    def test_generated_corpora_still_accepted(self):
        for seed in range(8):
            for spec in ScenarioGenerator(seed).take(40):
                assert ScenarioSpec.from_doc(spec.to_doc()) == spec


class TestNonFiniteAndNegativeNumbers:
    @pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
    def test_works_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="works"):
            ScenarioSpec(name="x", kind="barrier_loop",
                         works=(1e9, bad, 1e9, 1e9), iterations=2)
        doc = spec_for("barrier_loop").to_doc()
        doc["works"][1] = bad
        with pytest.raises(ValidationError, match="works"):
            ScenarioSpec.from_doc(doc)

    def test_zero_work_still_accepted(self):
        spec_for("barrier_loop", works=(1e9, 0.0, 1e9, 1e9))

    def test_negative_workload_seed_still_accepted(self):
        # A seed is not a quantity: only the byte counts must be >= 0.
        params = dict(spec_for("siesta").params, workload_seed=-7)
        spec = spec_for("siesta", params=params)
        again = ScenarioSpec.from_doc(spec.to_doc())
        assert again == spec
        assert dict(again.params)["workload_seed"] == -7

    @pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
    @pytest.mark.parametrize("kind,key", [
        ("btmz", "init_factor"),
        ("siesta", "jitter_sigma"),
        ("siesta", "rotate_prob"),
        ("siesta", "init_works"),
        ("siesta", "allreduce_bytes"),
    ])
    def test_numeric_params_rejected(self, kind, key, bad):
        params = dict(spec_for(kind).params)
        params[key] = (1e8, bad, 1e8, 1e8) if key.endswith("_works") else bad
        with pytest.raises(ConfigurationError, match=key):
            spec_for(kind, params=params)
        doc = spec_for(kind).to_doc()
        doc["params"][key] = list(params[key]) if key.endswith("_works") else bad
        with pytest.raises(ValidationError, match=key):
            ScenarioSpec.from_doc(doc)


#: A swap of ranks 1 and 2 — explicit, and not any preset's table.
EXPLICIT = {0: 0, 1: 2, 2: 1, 3: 3}


class TestExplicitMappingsV2:
    """Spec version 2: the mapping axis opened to explicit layouts,
    with version-1 documents untouched byte-for-byte."""

    def test_v1_documents_parse_and_keep_their_bytes(self):
        # A pre-v2 document: no spec_version key, preset mapping.
        doc = {
            "name": "legacy", "kind": "metbench",
            "works": [1e9, 2e9, 1.5e9, 3e9], "iterations": 2,
            "profile": "hpc", "mapping": "btmz",
            "priorities": [[0, 4], [1, 6], [2, 4], [3, 6]], "seed": 3,
        }
        wire = json.dumps(doc, sort_keys=True)
        spec = ScenarioSpec.from_doc(json.loads(wire))
        # Re-serialising under v2 reproduces the v1 bytes exactly.
        assert json.dumps(spec.to_doc(), sort_keys=True) == wire
        assert "spec_version" not in spec.to_doc()

    def test_explicit_mapping_round_trips_as_v2(self):
        spec = spec_for("metbench", mapping=EXPLICIT)
        doc = spec.to_doc()
        assert doc["spec_version"] == 2
        assert doc["mapping"] == {"0": 0, "1": 2, "2": 1, "3": 3}
        again = ScenarioSpec.from_doc(json.loads(json.dumps(doc)))
        assert again == spec
        assert again.fingerprint == spec.fingerprint

    def test_construction_accepts_dict_pairs_and_process_mapping(self):
        from repro.machine.mapping import ProcessMapping

        by_dict = spec_for("metbench", mapping=EXPLICIT)
        by_pairs = spec_for("metbench", mapping=tuple(EXPLICIT.items()))
        by_obj = spec_for(
            "metbench", mapping=ProcessMapping.from_dict(EXPLICIT)
        )
        assert by_dict == by_pairs == by_obj
        assert by_dict.mapping_obj().as_dict() == EXPLICIT

    def test_explicit_spelling_of_a_preset_normalises_to_it(self):
        """One physics, one content address: the preset and its explicit
        spelling collapse to the same canonical doc and fingerprint."""
        for preset, table in (
            ("identity", {0: 0, 1: 1, 2: 2, 3: 3}),
            ("btmz", {0: 0, 1: 2, 2: 3, 3: 1}),
            ("siesta", {0: 2, 1: 0, 2: 1, 3: 3}),
        ):
            named = spec_for("metbench", mapping=preset)
            spelled = spec_for("metbench", mapping=table)
            assert spelled.mapping == preset
            assert spelled == named
            assert spelled.fingerprint == named.fingerprint
            assert "spec_version" not in spelled.to_doc()

    def test_unknown_mapping_name_rejected(self):
        doc = spec_for("metbench").to_doc()
        doc["mapping"] = "round-robin"
        with pytest.raises(ValidationError, match="round-robin"):
            ScenarioSpec.from_doc(doc)

    def test_duplicate_cpus_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_for("metbench", mapping={0: 0, 1: 0, 2: 1, 3: 2})
        doc = spec_for("metbench", mapping=EXPLICIT).to_doc()
        doc["mapping"] = {"0": 0, "1": 0, "2": 1, "3": 2}
        with pytest.raises(ValidationError, match="mapping"):
            ScenarioSpec.from_doc(doc)

    def test_non_contiguous_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_for("metbench", mapping={0: 0, 1: 2, 2: 1, 5: 3})
        doc = spec_for("metbench", mapping=EXPLICIT).to_doc()
        doc["mapping"] = {"0": 0, "1": 2, "2": 1, "5": 3}
        with pytest.raises(ValidationError, match="mapping"):
            ScenarioSpec.from_doc(doc)

    def test_cpu_outside_the_chip_rejected(self):
        with pytest.raises(ConfigurationError, match="outside"):
            spec_for("metbench", mapping={0: 0, 1: 1, 2: 2, 3: 9})

    def test_rank_count_must_match_works(self):
        with pytest.raises(ConfigurationError, match="ranks"):
            spec_for("metbench", mapping={0: 0, 1: 1})

    def test_explicit_mapping_under_version_1_rejected(self):
        doc = spec_for("metbench", mapping=EXPLICIT).to_doc()
        doc["spec_version"] = 1
        with pytest.raises(ValidationError, match="spec_version 2"):
            ScenarioSpec.from_doc(doc)

    def test_non_preset_mapping_changes_the_fingerprint(self):
        assert (
            spec_for("metbench", mapping=EXPLICIT).fingerprint
            != spec_for("metbench").fingerprint
        )

    def test_malformed_mapping_values_rejected(self):
        doc = spec_for("metbench").to_doc()
        doc["mapping"] = {"0": "zero"}
        doc["spec_version"] = 2
        with pytest.raises(ValidationError, match="integer"):
            ScenarioSpec.from_doc(doc)
        doc["mapping"] = [[0, 0]]
        with pytest.raises(ValidationError, match="preset name"):
            ScenarioSpec.from_doc(doc)


class TestClusterTopologyV3:
    """Spec version 3: the optional topology axis, with v1/v2 documents
    untouched byte-for-byte."""

    TOPOLOGY = {
        "n_nodes": 2,
        "network": "two-level-tree",
        "params": {"nodes_per_switch": 1},
    }

    def test_topology_round_trips_as_v3(self):
        spec = spec_for("barrier_loop", topology=self.TOPOLOGY)
        doc = spec.to_doc()
        assert doc["spec_version"] == 3
        assert doc["topology"] == self.TOPOLOGY
        again = ScenarioSpec.from_doc(json.loads(json.dumps(doc)))
        assert again == spec
        assert again.fingerprint == spec.fingerprint
        assert json.dumps(again.to_doc(), sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )

    def test_topology_less_specs_keep_their_exact_bytes(self):
        """Adding the axis must not move a single pre-v3 byte: preset
        docs still omit spec_version, explicit-mapping docs still say 2."""
        preset = spec_for("metbench").to_doc()
        assert "spec_version" not in preset
        assert "topology" not in preset
        explicit = spec_for("metbench", mapping=EXPLICIT).to_doc()
        assert explicit["spec_version"] == 2
        assert "topology" not in explicit

    def test_topology_under_version_2_rejected(self):
        doc = spec_for("barrier_loop", topology=self.TOPOLOGY).to_doc()
        doc["spec_version"] = 2
        with pytest.raises(ValidationError, match="spec_version 3"):
            ScenarioSpec.from_doc(doc)

    def test_one_node_topology_changes_the_fingerprint(self):
        """Even the digest-equivalent 1-node cluster is a distinct
        content address — equivalence is the oracle's law, not an
        identity of documents."""
        flat = spec_for("barrier_loop")
        one_node = spec_for("barrier_loop", topology={"n_nodes": 1})
        assert one_node.to_doc()["spec_version"] == 3
        assert one_node.fingerprint != flat.fingerprint

    def test_mapping_addresses_global_cpus(self):
        spec = spec_for(
            "barrier_loop",
            topology={"n_nodes": 2},
            mapping={0: 0, 1: 4, 2: 1, 3: 5},
        )
        assert spec.to_doc()["spec_version"] == 3
        assert spec.mapping_obj().as_dict() == {0: 0, 1: 4, 2: 1, 3: 5}

    def test_mapping_beyond_topology_cpus_rejected(self):
        with pytest.raises(ConfigurationError, match="outside"):
            spec_for(
                "barrier_loop",
                topology={"n_nodes": 2},
                mapping={0: 0, 1: 4, 2: 1, 3: 8},
            )

    def test_works_beyond_topology_cpus_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_for(
                "barrier_loop",
                works=tuple(float(w) for w in range(1, 6)),
                topology={"n_nodes": 1},
            )

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="topology"):
            spec_for("barrier_loop", topology={"n_nodes": 0})
        doc = spec_for("barrier_loop", topology=self.TOPOLOGY).to_doc()
        doc["topology"] = {"n_nodes": 2, "network": "hypercube"}
        with pytest.raises(ValidationError):
            ScenarioSpec.from_doc(doc)
