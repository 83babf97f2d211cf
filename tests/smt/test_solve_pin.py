"""The analytic fixed point, pinned bit for bit over a full state grid.

Every solve of :class:`~repro.smt.analytic.AnalyticThroughputModel` on
the grid below — idle plus every base profile on both contexts, every
priority pair 0..7, seven external-traffic values — is packed as two
IEEE doubles and hashed. A rewrite of the solver must reproduce the
hash exactly; the spot entries (hex floats) name the state of a
mismatch when it does not.

The grid is also replayed on one model in reverse and in shuffled
order, and through :meth:`chip_ipc`: a solve must not depend on which
core states the model built its solve plans for first, nor on the path
that built them.

Re-record (only for a deliberate change to the model's physics, with a
CHANGES.md note) with ``PYTHONPATH=src python -m tests.smt.test_solve_pin``.
"""

import hashlib
import json
import random
import struct
from pathlib import Path

from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.instructions import BASE_PROFILES

PINS = Path(__file__).with_name("solve_pin.json")
LOADS = (None,) + tuple(sorted(BASE_PROFILES))
PRIORITIES = tuple(range(8))
TRAFFIC = (0.0, 1e-3, 7.5e-3, 0.02, 0.0625, 0.15, 0.4)
#: Every SPOT_STRIDE-th solve of the grid is kept as a spot entry.
SPOT_STRIDE = 887


def _grid():
    for a in LOADS:
        for b in LOADS:
            for pa in PRIORITIES:
                for pb in PRIORITIES:
                    for traffic in TRAFFIC:
                        yield a, b, pa, pb, traffic


def solve_table() -> dict:
    """The pin document: grid size, digest and spot entries."""
    model = AnalyticThroughputModel(core_cache_size=0, chip_cache_size=0)
    digest = hashlib.sha256()
    spots = []
    n = 0
    for a, b, pa, pb, traffic in _grid():
        xa, xb = model.core_ipc(
            BASE_PROFILES[a] if a else None,
            BASE_PROFILES[b] if b else None,
            pa,
            pb,
            external_traffic=traffic,
        )
        digest.update(struct.pack("<dd", xa, xb))
        if n % SPOT_STRIDE == 0:
            spots.append([a, b, pa, pb, traffic.hex(), xa.hex(), xb.hex()])
        n += 1
    return {"solves": n, "sha256": digest.hexdigest(), "spots": spots}


def _profile(name):
    return BASE_PROFILES[name] if name else None


def _core_solve(model, a, b, pa, pb, traffic):
    return model.core_ipc(_profile(a), _profile(b), pa, pb, external_traffic=traffic)


def _chip_solve(model, a, b, pa, pb, traffic):
    """A one-core chip has no external traffic: its three sweeps all
    solve the core alone, so the zero-traffic states go through
    :meth:`chip_ipc` and the rest through :meth:`core_ipc`."""
    if traffic:
        return _core_solve(model, a, b, pa, pb, traffic)
    ((xa, xb),) = model.chip_ipc(((_profile(a), _profile(b), pa, pb),))
    return xa, xb


def replay_digest(model, order, solve=_core_solve) -> str:
    """The pin digest of the grid, solved in ``order`` on ``model``."""
    grid = list(_grid())
    results = [None] * len(grid)
    for i in order:
        results[i] = solve(model, *grid[i])
    digest = hashlib.sha256()
    for xa, xb in results:
        digest.update(struct.pack("<dd", xa, xb))
    return digest.hexdigest()


class TestSolvePin:
    def test_grid_matches_the_recorded_solves(self):
        pinned = json.loads(PINS.read_text())
        actual = solve_table()
        for want, got in zip(pinned["spots"], actual["spots"]):
            assert got == want, f"state {want[:5]}"
        assert actual["solves"] == pinned["solves"] == 44800
        assert actual["sha256"] == pinned["sha256"]

    def test_spots_cover_idle_and_active_contexts(self):
        spots = json.loads(PINS.read_text())["spots"]
        assert 40 <= len(spots) <= 60
        assert any(s[0] is None for s in spots)
        assert any(float.fromhex(s[5]) > 0 and float.fromhex(s[6]) > 0 for s in spots)


class TestSolvePlanIndependence:
    def test_reverse_and_shuffled_order_on_one_warm_model(self):
        want = json.loads(PINS.read_text())["sha256"]
        model = AnalyticThroughputModel(core_cache_size=0, chip_cache_size=0)
        order = list(range(len(list(_grid()))))
        assert replay_digest(model, order) == want
        assert replay_digest(model, order[::-1]) == want
        random.Random(7).shuffle(order)
        assert replay_digest(model, order) == want

    def test_through_chip_ipc_with_caches_disabled(self):
        want = json.loads(PINS.read_text())["sha256"]
        model = AnalyticThroughputModel(core_cache_size=0, chip_cache_size=0)
        order = range(len(list(_grid())))
        assert replay_digest(model, order, _chip_solve) == want


def _render(table: dict) -> str:
    """The pin document as JSON with one line per spot entry."""
    rows = ",\n".join(f"  {json.dumps(s)}" for s in table["spots"])
    return (
        f'{{\n "solves": {table["solves"]},\n "sha256": "{table["sha256"]}",\n'
        f' "spots": [\n{rows}\n ]\n}}\n'
    )


if __name__ == "__main__":
    PINS.write_text(_render(solve_table()))
    print(f"wrote {PINS}")
