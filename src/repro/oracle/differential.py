"""Differential cross-model conformance: one scenario, every engine.

The reproduction ships three ways of answering "how long does this MPI
application take on the balanced machine" — the registered execution
engines of :mod:`repro.scenarios` (``fluid``, ``cycle``, ``analytic``).
After PR 1's fast-path layer (memoized solves, incremental rates,
persisted tables) these paths can drift apart silently. This module
makes the drift measurable: :func:`check_conformance` pushes one
:class:`~repro.scenarios.ScenarioSpec` through **every engine in the
registry** and compares within declared tolerances, plus two *exact*
cross-checks (incremental-rates on/off trace digests and the
cache-equality model invariant). Register a fourth engine and it is
cross-checked against the incumbents with no oracle change.

The generator and the digest helper live in :mod:`repro.scenarios`;
this module re-exports them next to the conformance checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import OracleError, ValidationError
from repro.oracle.checker import verify_model, verify_run
from repro.scenarios.engines import fast_cycle_table, trace_digest
from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.registry import all_engines, get_engine
from repro.scenarios.spec import ScenarioSpec
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.throughput import ThroughputTable
from repro.util.validation import check_positive

__all__ = [
    "Tolerances",
    "ConformanceResult",
    "ClusterEquivalenceCheck",
    "FuzzReport",
    "trace_digest",
    "check_conformance",
    "check_cluster_equivalence",
    "fuzz",
    "fast_cycle_table",
]


# -- conformance ----------------------------------------------------------------


@dataclass(frozen=True)
class Tolerances:
    """Declared agreement bands between the engine classes.

    The analytic and cycle models sit at different abstraction levels;
    the regime-agreement tests (``tests/smt/test_model_agreement.py``)
    bound their IPC ratio to well under 3x across the priority gaps the
    experiments use, and the closed-form estimate ignores communication
    entirely — hence the asymmetric band on the estimate side.
    ``model_time_ratio`` applies to every trace-producing engine,
    ``estimate_lower``/``estimate_upper`` to every closed-form one.
    """

    #: Max total-time ratio between fluid and any trace-producing engine.
    model_time_ratio: float = 3.0
    #: Fluid total time must be >= estimate * lower (estimates are
    #: optimistic compute-only bounds) and <= estimate * upper.
    estimate_lower: float = 0.5
    estimate_upper: float = 4.0

    def __post_init__(self) -> None:
        check_positive("model_time_ratio", self.model_time_ratio)
        check_positive("estimate_lower", self.estimate_lower)
        check_positive("estimate_upper", self.estimate_upper)


@dataclass(frozen=True)
class ConformanceResult:
    """Everything :func:`check_conformance` measured for one scenario."""

    scenario: ScenarioSpec
    fluid_time: float
    cycle_time: float
    estimate_time: float
    incremental_digest_equal: bool
    disagreements: Tuple[str, ...] = ()
    #: Total time per registered engine, in registry (name) order.
    engine_times: Tuple[Tuple[str, float], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _engine_options(
    name: str,
    scenario: ScenarioSpec,
    table: Optional[ThroughputTable],
    model: Optional[AnalyticThroughputModel],
) -> Optional[dict]:
    """Steering knobs for the engines the oracle knows how to speed up."""
    if name == "cycle":
        return {"table": table if table is not None else fast_cycle_table(scenario.seed)}
    if name == "analytic" and model is not None:
        return {"model": model}
    return None


def check_conformance(
    scenario: ScenarioSpec,
    tolerances: Optional[Tolerances] = None,
    table: Optional[ThroughputTable] = None,
    model: Optional[AnalyticThroughputModel] = None,
    run_invariants: bool = True,
) -> ConformanceResult:
    """Run ``scenario`` through every registered engine and compare.

    Exact checks (any mismatch is a disagreement regardless of
    tolerances): incremental-rates on/off trace digests, and the run
    invariants over the fluid result. Tolerance checks, against the
    fluid reference: total time of every other trace-producing engine
    (``model_time_ratio`` band) and of every closed-form engine
    (``estimate_lower``/``estimate_upper`` band).
    """
    tol = tolerances or Tolerances()
    disagreements: List[str] = []

    fluid_engine = get_engine("fluid")
    label = f"oracle.{scenario.name}"
    fluid = fluid_engine.run(
        scenario, label=label, options={"incremental_rates": True}
    )
    full = fluid_engine.run(
        scenario, label=label, options={"incremental_rates": False}
    )
    digest_equal = fluid.digest == full.digest
    if not digest_equal:
        disagreements.append(
            "incremental_rates=True and =False produced different traces "
            f"(times {fluid.total_time} vs {full.total_time})"
        )

    if run_invariants:
        try:
            verify_run(fluid.run)
            verify_model(model or AnalyticThroughputModel())
        except Exception as exc:  # InvariantViolation, surfaced as text
            disagreements.append(f"invariant sweep failed: {exc}")

    times: Dict[str, float] = {"fluid": fluid.total_time}
    for engine in all_engines():
        if engine.name == "fluid":
            continue
        result = engine.run(
            scenario,
            label=f"{label}.{engine.name}",
            options=_engine_options(engine.name, scenario, table, model),
        )
        times[engine.name] = result.total_time
        if result.digest is not None:
            # Trace-producing engine: symmetric total-time ratio band.
            ratio = (
                fluid.total_time / result.total_time
                if result.total_time
                else float("inf")
            )
            if not (1.0 / tol.model_time_ratio <= ratio <= tol.model_time_ratio):
                disagreements.append(
                    f"fluid/{engine.name} total-time ratio {ratio:.3f} "
                    f"outside ±{tol.model_time_ratio}x (fluid "
                    f"{fluid.total_time:.4f}s, {engine.name} "
                    f"{result.total_time:.4f}s)"
                )
        else:
            # Closed-form engine: asymmetric band around the estimate.
            estimate = result.total_time
            if not (
                estimate * tol.estimate_lower
                <= fluid.total_time
                <= estimate * tol.estimate_upper
            ):
                disagreements.append(
                    f"fluid time {fluid.total_time:.4f}s outside "
                    f"[{tol.estimate_lower}, {tol.estimate_upper}]x of the "
                    f"{engine.name} closed-form estimate {estimate:.4f}s"
                )

    return ConformanceResult(
        scenario=scenario,
        fluid_time=fluid.total_time,
        cycle_time=times.get("cycle", 0.0),
        estimate_time=times.get("analytic", 0.0),
        incremental_digest_equal=digest_equal,
        disagreements=tuple(disagreements),
        engine_times=tuple(sorted(times.items())),
    )


# -- the 1-node cluster law -------------------------------------------------------


@dataclass(frozen=True)
class ClusterEquivalenceCheck:
    """Outcome of the 1-node cluster differential law for one scenario.

    The law: running a scenario on a 1-node cluster (the same chip
    behind a network nothing ever crosses) must be *bit-identical* to
    running it on the plain single-chip :class:`~repro.machine.system.System`
    — same trace digest, same total time. This is the anchor that lets
    every cluster result be trusted relative to the golden single-chip
    physics: the cluster path is the single-chip path plus topology,
    never a parallel reimplementation that can drift.
    """

    scenario: ScenarioSpec
    single_chip_digest: str
    cluster_digest: str
    single_chip_time: float
    cluster_time: float
    mismatches: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_cluster_equivalence(
    scenario: Optional[ScenarioSpec] = None,
    strict: bool = False,
) -> ClusterEquivalenceCheck:
    """Verify the 1-node cluster law on ``scenario`` (or a default).

    ``scenario`` must be a single-chip spec (no topology); the check
    derives its 1-node twin through the v3 wire format (``to_doc`` +
    a ``{"n_nodes": 1}`` topology + ``from_doc``), runs both through
    the fluid engine and demands digest identity, then cross-checks the
    analytic engine's closed-form times for exact equality as well.
    With ``strict=True`` a violation raises :class:`~repro.errors.OracleError`.
    """
    if scenario is None:
        scenario = ScenarioSpec(
            name="cluster-equivalence",
            kind="barrier_loop",
            works=(1.0e9, 3.0e9, 2.0e9, 4.0e9),
            iterations=2,
            priorities=((0, 4), (1, 6), (2, 4), (3, 5)),
        )
    if scenario.topology is not None:
        raise ValidationError(
            "check_cluster_equivalence needs a single-chip scenario; "
            f"{scenario.name!r} already carries a topology"
        )
    doc = scenario.to_doc()
    doc["topology"] = {"n_nodes": 1}
    doc["spec_version"] = 3
    one_node = ScenarioSpec.from_doc(doc)

    fluid = get_engine("fluid")
    label = f"oracle.cluster-eq.{scenario.name}"
    base = fluid.run(scenario, label=label)
    clustered = fluid.run(one_node, label=f"{label}.1node")

    mismatches: List[str] = []
    if base.digest != clustered.digest:
        mismatches.append(
            f"1-node cluster trace digest {str(clustered.digest)[:16]}... != "
            f"single-chip {str(base.digest)[:16]}..."
        )
    if base.total_time != clustered.total_time:
        mismatches.append(
            f"1-node cluster total time {clustered.total_time!r} != "
            f"single-chip {base.total_time!r}"
        )
    analytic = get_engine("analytic")
    est_base = analytic.run(scenario, label=label).total_time
    est_cluster = analytic.run(one_node, label=f"{label}.1node").total_time
    if est_base != est_cluster:
        mismatches.append(
            f"1-node analytic estimate {est_cluster!r} != "
            f"single-chip {est_base!r}"
        )

    outcome = ClusterEquivalenceCheck(
        scenario=scenario,
        single_chip_digest=str(base.digest),
        cluster_digest=str(clustered.digest),
        single_chip_time=base.total_time,
        cluster_time=clustered.total_time,
        mismatches=tuple(mismatches),
    )
    if strict and not outcome.ok:
        raise OracleError(
            f"1-node cluster law violated for {scenario.name!r}: "
            + "; ".join(outcome.mismatches)
        )
    return outcome


# -- randomized fuzzing ----------------------------------------------------------


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    budget: int
    seed: int
    checked: int = 0
    failures: List[ConformanceResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return (
                f"fuzz: {self.checked}/{self.budget} scenarios conform "
                f"(seed {self.seed})"
            )
        lines = [
            f"fuzz: {len(self.failures)} of {self.checked} scenarios "
            f"disagree (seed {self.seed}):"
        ]
        for res in self.failures:
            lines.append(f"  {res.scenario.name}:")
            lines += [f"    - {d}" for d in res.disagreements]
        return "\n".join(lines)


def fuzz(
    budget: int,
    seed: int = 0,
    tolerances: Optional[Tolerances] = None,
    stop_on_failure: bool = False,
) -> FuzzReport:
    """Run ``budget`` random scenarios through :func:`check_conformance`.

    One short-window cycle table and one analytic model are shared
    across the whole campaign, so repeated machine states are measured
    once (the fuzzer's priority/profile space is small; campaigns of
    hundreds of scenarios stay in minutes).
    """
    check_positive("budget", budget)
    gen = ScenarioGenerator(seed)
    table = fast_cycle_table(seed=0)
    model = AnalyticThroughputModel()
    report = FuzzReport(budget=int(budget), seed=int(seed))
    for _ in range(int(budget)):
        scenario = gen.draw()
        result = check_conformance(
            scenario, tolerances=tolerances, table=table, model=model
        )
        report.checked += 1
        if not result.ok:
            report.failures.append(result)
            if stop_on_failure:
                break
    return report
