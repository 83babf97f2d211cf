"""Every built-in policy's plan on every corpus, pinned cell by cell.

For each (policy, corpus, cell) the pin records the planned spec's
fingerprint, whether :func:`~repro.policies.apply_policy` handed back
the incumbent spec object itself, and the engine option keys. The
leaderboard golden scores only four policies on one corpus; this table
covers the rewrite and the no-op branch of all four families, so a
refactor of the planning path must reproduce it byte for byte.

Re-record (only for a deliberate planning change, with a CHANGES.md
note) with ``PYTHONPATH=src python -m tests.policies.test_plan_pins``.
"""

import json
from pathlib import Path

from repro.policies import (
    ALLOCATION_POLICIES,
    CORPORA,
    DEFAULT_POLICIES,
    PLACEMENT_POLICIES,
    apply_policy,
    get_policy,
    tournament_corpus,
)

PINS = Path(__file__).with_name("plan_pins.json")
N_CELLS = 8
SEED = 3
POLICIES = DEFAULT_POLICIES + ALLOCATION_POLICIES + PLACEMENT_POLICIES


def _short(fingerprint: str) -> str:
    return fingerprint[:16]


def plan_table() -> dict:
    """The pin document: input fingerprints per corpus, plans per policy."""
    corpora = {c: tournament_corpus(c, N_CELLS, SEED) for c in CORPORA}
    plans = {}
    for name in POLICIES:
        policy = get_policy(name)
        plans[name] = {}
        for corpus, specs in corpora.items():
            rows = []
            for spec in specs:
                planned, options = apply_policy(policy, spec)
                rows.append([
                    _short(planned.fingerprint),
                    planned is spec,
                    sorted(options or ()),
                ])
            plans[name][corpus] = rows
    return {
        "n": N_CELLS,
        "seed": SEED,
        "inputs": {
            c: [_short(s.fingerprint) for s in specs]
            for c, specs in corpora.items()
        },
        "plans": plans,
    }


class TestPlanPins:
    def test_every_policy_plan_matches_the_pins(self):
        pinned = json.loads(PINS.read_text())
        actual = plan_table()
        assert actual["inputs"] == pinned["inputs"]
        for name in POLICIES:
            for corpus in CORPORA:
                assert actual["plans"][name][corpus] == (
                    pinned["plans"][name][corpus]
                ), f"{name} x {corpus}"
        assert actual == pinned

    def test_pins_cover_both_branches_of_every_family(self):
        pinned = json.loads(PINS.read_text())
        seen = {}
        for name, by_corpus in pinned["plans"].items():
            family = get_policy(name).family
            for rows in by_corpus.values():
                for _, kept, options in rows:
                    seen.setdefault(family, set()).add((kept, bool(options)))
        assert seen == {
            "static": {(True, False), (False, False)},
            "allocation": {(True, False), (False, False)},
            "placement": {(True, False), (False, False)},
            "dynamic": {(True, True)},
        }


def _render(table: dict) -> str:
    """The pin document as JSON with one line per (policy, corpus)."""
    lines = ["{", f' "n": {table["n"]},', f' "seed": {table["seed"]},']
    lines.append(' "inputs": {')
    inputs = [f'  "{c}": {json.dumps(fps)}' for c, fps in table["inputs"].items()]
    lines.append(",\n".join(inputs))
    lines.append(" },")
    lines.append(' "plans": {')
    policies = []
    for name, by_corpus in table["plans"].items():
        rows = [f'   "{c}": {json.dumps(r)}' for c, r in by_corpus.items()]
        policies.append(f'  "{name}": {{\n' + ",\n".join(rows) + "\n  }")
    lines.append(",\n".join(policies))
    lines.append(" }")
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    PINS.write_text(_render(plan_table()))
    print(f"wrote {PINS}")
