"""The allocation-axes experiment: which lever buys more, mapping or priority?

The paper tunes priorities on a fixed thread-to-core mapping; the
allocation-policy literature fixes priorities and tunes the mapping.
:func:`allocation_axes_table` runs both restrictions of the joint
(mapping × priority) search plus the joint optimum itself on one
workload, so the table answers the question the two communities argue
about — per axis, in seconds, against the same default configuration:

``default``
    Identity mapping, every context at MEDIUM — the ST reference.
``best mapping @ MEDIUM``
    The mapping axis alone: every symmetry-pruned canonical mapping
    (:func:`repro.core.candidate_mappings`), priorities untouched.
``best priority @ identity``
    The priority axis alone — the paper's procedure, automated
    (:func:`repro.core.exhaustive_priority_search` on the identity
    mapping).
``staged heuristic``
    :func:`repro.core.mapping_then_priority_search`: the decode-pressure
    pairing picks the mapping for free, then priorities are searched on
    it alone. How much of the joint optimum the cheap heuristic recovers.
``joint best``
    The full cross product (:func:`repro.core.joint_search`) — the upper
    bound both restrictions chase.

By construction ``joint best`` dominates both single-axis rows, so the
interesting numbers are the *gaps*: how far each restriction (and the
heuristic) lands from the joint optimum.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core import (
    exhaustive_priority_search,
    joint_search,
    mapping_then_priority_search,
)
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.scenarios import ScenarioSpec
from repro.util.tables import TextTable

__all__ = ["allocation_axes_table"]

#: The default experiment workload: the golden joint search's skewed
#: 4-rank MetBench profile (tests/golden/joint-search.golden.json).
DEFAULT_WORKS = (8.0e8, 2.4e9, 1.2e9, 2.0e9)


def _row(label: str, assignment, total_time: float, base_time: float):
    mapping = ",".join(f"{r}>{c}" for r, c in assignment.mapping.rank_to_cpu)
    prios = ",".join(str(p) for _, p in assignment.priorities)
    gain = (base_time - total_time) / base_time * 100.0
    return [label, mapping, prios, f"{total_time:.4f}", f"{gain:+.2f}"]


def allocation_axes_table(
    works: Sequence[float] = DEFAULT_WORKS,
    iterations: int = 2,
    profile: str = "hpc",
    levels: Tuple[int, ...] = (4, 5, 6),
    max_gap: int = 2,
    seed: int = 0,
    system: Optional[System] = None,
) -> TextTable:
    """Best-mapping vs best-priority vs joint-best on one workload."""
    spec = ScenarioSpec(
        name="allocation-axes",
        kind="metbench",
        works=tuple(float(w) for w in works),
        iterations=iterations,
        profile=profile,
        seed=seed,
    )
    if system is None:
        system = System(SystemConfig(seed=seed))
    identity = ProcessMapping.identity(spec.n_ranks)

    baseline = system.run(
        list(spec.programs()), mapping=identity, label="allocation.default"
    )
    base_time = baseline.total_time

    # The mapping axis alone: joint search with the priority dimension
    # collapsed to the single MEDIUM level.
    mapping_only = joint_search(
        system, spec.programs, n_ranks=spec.n_ranks, levels=(4,), max_gap=0,
        keep_top=1,
    )
    priority_only = exhaustive_priority_search(
        system, spec.programs, identity, levels=levels, max_gap=max_gap,
        keep_top=1,
    )
    staged = mapping_then_priority_search(
        system, spec.programs, spec.works, profiles=profile,
        levels=levels, max_gap=max_gap, keep_top=1,
    )
    joint = joint_search(
        system, spec.programs, n_ranks=spec.n_ranks, levels=levels,
        max_gap=max_gap, keep_top=1,
    )

    table = TextTable(
        ["configuration", "mapping", "priorities", "time [s]", "vs default %"],
        title=(
            f"allocation axes: mapping vs priority vs joint "
            f"({spec.n_ranks} ranks, levels {'/'.join(map(str, levels))})"
        ),
    )
    table.add_row(
        ["default (identity, MEDIUM)",
         ",".join(f"{r}>{r}" for r in range(spec.n_ranks)),
         ",".join("4" for _ in range(spec.n_ranks)),
         f"{base_time:.4f}", "+0.00"]
    )
    table.add_row(_row("best mapping @ MEDIUM",
                       mapping_only.best, mapping_only.best_time, base_time))
    table.add_row(_row("best priority @ identity",
                       priority_only.best, priority_only.best_time, base_time))
    table.add_row(_row("staged heuristic",
                       staged.best, staged.best_time, base_time))
    table.add_row(_row("joint best",
                       joint.best, joint.best_time, base_time))
    return table


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(allocation_axes_table().render())
