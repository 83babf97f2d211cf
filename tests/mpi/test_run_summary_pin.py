"""A fluid run's summary, pinned byte for byte on every launch and retire path.

Each case pins the run's trace digest, ``repr(total_time)``,
``events_processed``, ``priority_history_len`` (every audited priority
write of the run, refused or-nop writes excepted) and
``final_priorities``. The cases cover:

* the first 12 ``ScenarioGenerator(3)`` draws through ``FluidEngine``
  (static priorities through the patched kernel's procfs);
* the standard kernel, whose user or-nop path ignores levels 5 and 6,
  with and without a timer tick that resets priorities mid-run;
* a 2-node machine;
* the dynamic balancer, whose controller writes priorities mid-run.

A change to how a run launches, installs its priorities or retires its
ranks must leave every value as it is.
"""

import pytest

from repro.core.dynamic import DynamicBalancer, DynamicBalancerConfig
from repro.machine.mapping import ProcessMapping
from repro.machine.system import System, SystemConfig
from repro.scenarios.engines import FluidEngine, trace_digest
from repro.scenarios.generator import ScenarioGenerator
from repro.workloads.generators import barrier_loop_programs, distant_pairs_programs

#: ScenarioGenerator(3) draw index -> (digest, repr(total_time),
#: events_processed, priority_history_len, final_priorities)
GENERATED = {
    0: (
        "174b7f440b704e464cdd0fad882296f3333e91265f1449dcb3940ed7b4756cd7",
        "7.1055356871073325", 34, 8, (2, 2, 2, 2),
    ),
    1: (
        "cd46c3309dec968bfee4e6f6c15fa6a7352f7b05172adbee92217b8adea53a29",
        "1.8219843518155794", 25, 12, (2, 2, 2, 2),
    ),
    2: (
        "96fe260fc3ec0b24bc49746f86ec5d0631834867a0c7000320262046b03b181a",
        "13.140168161722496", 18, 6, (2, 2, 4, 4),
    ),
    3: (
        "df61a4a33e95af690530bea35748f4fde4ac378f1161ff3c5f439eb7beef121e",
        "27.065006697038477", 18, 6, (2, 2, 4, 4),
    ),
    4: (
        "41a8d6472e9f829c0d5c92618d3767326983869ef7e678d82e35936a06634653",
        "4.8544669024485625", 28, 6, (2, 2, 4, 4),
    ),
    5: (
        "4d8be2cf8f8179ccf582b004bd3f9b6b91531b025e39423b060c3d56db672919",
        "85.21296943636571", 23, 4, (2, 2, 4, 4),
    ),
    6: (
        "50e5247e995ec6072cde08dcdcec2ed5261633ee430ebf9827dbac74080618cf",
        "39.42415415595005", 66, 12, (2, 2, 2, 2),
    ),
    7: (
        "8673cf59c9400d03983a1fe3781735c1d03e9fd11a93544ea74cee72ec4bfb71",
        "1.5757157856911523", 13, 6, (2, 2, 4, 4),
    ),
    8: (
        "0ca103a2e2df687111fc528bf63ea611445db7e1f6e808945847dd7444d955d3",
        "100.94526868702779", 66, 12, (2, 2, 2, 2),
    ),
    9: (
        "d76e4feb561808d5c2808dfee281940f1c39c8d003ccb943b88a7494baadfac7",
        "47.26260908359298", 23, 6, (2, 2, 4, 4),
    ),
    10: (
        "a352209a999ca2059a21cabff111a2bbdf74a6fdc73c0f37bec9ff74853bed72",
        "80.65987729531619", 12, 4, (2, 2, 4, 4),
    ),
    11: (
        "e2aa56639bc6b38fda8ea81f074083603ef6ff1c2a5daf461d6379abd90a9f6c",
        "3.8731344986735476", 23, 6, (2, 2, 4, 4),
    ),
}

#: case name -> the same five fields
CASES = {
    "dynamic": (
        "55d7ba5c48a526935a3324b16fa2dfa0577bb8fb86d6bc8b374ccdad7d57e913",
        "9.678214655145984", 68, 52, (2, 2, 2, 2),
    ),
    "standard": (
        "3eebad6a15718e1fa4cf8b8e1157aa88295335e06ecdd631d153dad19864677b",
        "2.3985975664740695", 15, 10, (2, 2, 2, 2),
    ),
    "standard-tick": (
        "a201f7fc1db76507b23d26cf7d3c9aec9eec42831441331fe1e7900beb6cfe93",
        "2.596588020565015", 5209, 11, (2, 2, 2, 2),
    ),
    "two-node": (
        "9aaa95b820b2cb24ca66d5127a89506e773e790770087a6cbc3d32e4a31d7c75",
        "4.364518795636363", 57, 18, (2, 2, 2, 4, 2, 2, 2, 4),
    ),
}


def _summary(run):
    return (
        trace_digest(run),
        repr(run.total_time),
        run.events_processed,
        run.priority_history_len,
        run.final_priorities,
    )


def _standard(tick_hz):
    system = System(SystemConfig(kernel="standard", tick_hz=tick_hz))
    return system.run(
        barrier_loop_programs([1e9, 2e9, 1.5e9, 3e9], iterations=3),
        ProcessMapping.identity(4),
        priorities={0: 4, 1: 6, 2: 3, 3: 5},
    )


def _two_node():
    system = System(SystemConfig(n_nodes=2))
    return system.run(
        distant_pairs_programs([1e9, 2e9, 1.5e9, 3e9, 2.5e9, 1e9], iterations=3),
        ProcessMapping(((0, 0), (1, 1), (2, 4), (3, 5), (4, 2), (5, 6))),
        priorities={0: 4, 1: 6, 2: 5, 3: 4, 4: 3, 5: 5},
    )


def _dynamic():
    dyn = DynamicBalancer(DynamicBalancerConfig(interval=0.25, threshold=0.1))
    run = System(SystemConfig()).run(
        barrier_loop_programs([1e9, 6e9, 1e9, 6e9], iterations=6),
        ProcessMapping.identity(4),
        controllers=[dyn],
    )
    assert dyn.adjustments, "the controller never wrote"
    return run


RUNS = {
    "standard": lambda: _standard(0.0),
    "standard-tick": lambda: _standard(250.0),
    "two-node": _two_node,
    "dynamic": _dynamic,
}


def test_generated_draws_match_their_pins():
    engine = FluidEngine()
    specs = ScenarioGenerator(3).take(len(GENERATED))
    got = {i: _summary(engine.run(spec).run) for i, spec in enumerate(specs)}
    assert got == GENERATED


@pytest.mark.parametrize("name", sorted(RUNS))
def test_case_matches_its_pin(name):
    assert _summary(RUNS[name]()) == CASES[name]
