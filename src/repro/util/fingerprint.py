"""One canonical-JSON sha256 fingerprint for the whole package.

Before this helper existed the repo grew four copies of the same three
lines (``json.dumps(doc, sort_keys=True)`` piped through sha256) — in
the scenario spec, the service job spec, the golden-trace layer and the
persisted throughput table. Content addresses only compose when every
layer hashes the same bytes for the same document, so the canonical form
lives here exactly once.

Canonical form: ``json.dumps(doc, sort_keys=True)`` with the default
separators, UTF-8 encoded. Changing either would silently invalidate
every persisted fingerprint (golden traces, service cache keys, saved
throughput tables) — treat this module as a wire format.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["canonical_json", "fingerprint_doc"]


def canonical_json(doc: object) -> str:
    """The canonical JSON serialisation fingerprints are computed over.

    Key order is fixed by ``sort_keys``; separators are json's defaults
    (kept for compatibility with fingerprints persisted before this
    helper existed). ``allow_nan=False``: a NaN or infinite value raises
    ``ValueError`` instead of becoming a non-JSON ``NaN``/``Infinity``
    token in a content address (finite documents serialise unchanged).
    """
    return json.dumps(doc, sort_keys=True, allow_nan=False)


def fingerprint_doc(doc: object) -> str:
    """sha256 hex digest of ``doc``'s canonical JSON form.

    Two documents share a fingerprint iff their canonical forms are
    byte-identical — the content-address contract behind golden traces,
    service result-cache keys and throughput-table invalidation.
    """
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
