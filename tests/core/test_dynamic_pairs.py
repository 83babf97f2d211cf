"""The dynamic balancer derives its core pairs per run; reset clears them."""

from repro.core.dynamic import DynamicBalancer, DynamicBalancerConfig
from repro.machine.mapping import ProcessMapping, paired_mapping
from repro.workloads.generators import barrier_loop_programs

WORKS = [1e9, 6e9, 1e9, 6e9]
CONFIG = DynamicBalancerConfig(interval=0.25, threshold=0.1)


def _adjustments(system, balancer, mapping):
    system.run(
        barrier_loop_programs(WORKS, iterations=6),
        mapping,
        controllers=[balancer],
    )
    return list(balancer.adjustments)


def test_reset_rederives_pairs_for_the_next_run(system):
    # Identity pairs a light rank with a heavy one (the balancer acts);
    # the swapped layout pairs like with like. A reused balancer must
    # act on the layout it is running, exactly as a fresh one does.
    reused = DynamicBalancer(CONFIG)
    assert _adjustments(system, reused, ProcessMapping.identity(4))
    reused.reset()
    swapped = paired_mapping([(0, 2), (1, 3)])
    assert _adjustments(system, reused, swapped) == _adjustments(
        system, DynamicBalancer(CONFIG), swapped
    )
