"""Canonical JSON: the one wire format every content address hashes."""

import json

import pytest

from repro.util.fingerprint import canonical_json, fingerprint_doc


class TestCanonicalJson:
    def test_finite_docs_keep_their_bytes(self):
        doc = {"b": [1.5, 2e-06, 250000000.0], "a": {"n": 3, "s": "x"}}
        assert canonical_json(doc) == json.dumps(doc, sort_keys=True)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_never_become_addresses(self, value):
        doc = {"params": {"inter_latency": value}}
        with pytest.raises(ValueError):
            canonical_json(doc)
        with pytest.raises(ValueError):
            fingerprint_doc(doc)
