"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``report [--fast]``
    The full paper-vs-measured report (all tables and figures).
``tables``
    The architectural Tables I-III, instantly.
``case <suite> <name> [--iterations N] [--width W] [--prv FILE]
      [--model analytic|cycle] [--table FILE]``
    Run one paper case (suite: metbench|btmz|siesta), print the
    characterisation table and the ASCII trace; optionally export a
    PARAVER ``.prv``. With ``--model cycle --table FILE``, pipeline
    measurements are loaded from/persisted to ``FILE``.
``profiles``
    The bundled load profiles and their model operating points.
``sweep [--profile P]``
    Victim/favoured throughput across priority gaps 0-4.
``cache info|clear [--table FILE] [--service URL]``
    Inspect or delete a persisted throughput table, and/or report a
    running ``repro serve`` instance's result-cache stats (entries,
    bytes, hit/miss/coalesced) from its ``/metrics`` endpoint.
``serve [--host H] [--port P] [--workers N] [--queue-depth D]
       [--cache-entries E] [--timeout S] [--table FILE] [--verbose]``
    The scenario-serving HTTP JSON API: ``POST /v1/jobs``,
    ``GET /v1/jobs/<id>``, ``GET /healthz``, ``GET /metrics``
    (see ``docs/service.md``).
``oracle record|check|fuzz``
    The invariant/conformance oracle layer. ``record`` writes the golden
    records under ``tests/golden/``: one ``*.golden.json`` per recording
    (input, expected doc and its kind — four traces, one joint search,
    one tournament leaderboard). ``check`` replays every record and
    compares the expected doc leaf by leaf, replays trace records again
    on the batch path, and prints one line per replay. ``fuzz`` pushes
    randomized scenarios through every registered execution engine
    (``--budget N --seed S``; failing scenarios are written as JSON for
    CI artifacts).
``tournament run|show|policies [--policies a,b,c] [--corpus C] [-n N]
           [--seed S] [--engine E] [--scalar] [--out FILE]``
    The balancing-policy tournament (see ``docs/policies.md``): score
    every registered (or named) policy over a seeded scenario corpus
    and print the ranked leaderboard (``run``, optionally persisting
    the artifact with ``--out``), render a saved artifact (``show
    FILE``), or list the policy zoo (``policies``).
``engines list``
    The registered scenario execution engines (name, batch strategy,
    physics axes, options, what each backend is), from the
    :mod:`repro.scenarios` registry.
``search joint [--works W,W,...] [--kind K] [--profile P] [--levels L,L,...]
       [--max-gap G] [--workers N] [--top K] [--seed S] [--no-prune]
       [--staged]``
    The joint (mapping × priority) configuration search
    (``docs/mapping.md``): enumerate symmetry-pruned thread-to-core
    mappings crossed with per-core priority combinations, simulate every
    candidate, and print the ranking against the default (identity
    mapping, all-MEDIUM) configuration. ``--staged`` swaps the mapping
    sweep for the decode-pressure pairing heuristic.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments.cases import btmz_suite, metbench_suite, siesta_suite
from repro.experiments.report import full_report
from repro.experiments.runner import run_case
from repro.experiments.table2 import decode_cycles_table
from repro.experiments.table3 import special_cases_table
from repro.machine.system import System, SystemConfig
from repro.smt.analytic import AnalyticThroughputModel
from repro.smt.instructions import BASE_PROFILES
from repro.smt.throughput import ThroughputTable
from repro.smt.priorities import PRIORITY_TABLE
from repro.trace.paraver import render_gantt, render_legend
from repro.trace.prv import render_pcf, render_prv
from repro.util.tables import TextTable

__all__ = ["main", "build_parser"]

_SUITES = {
    "metbench": lambda it: metbench_suite(iterations=it or 10),
    "btmz": lambda it: btmz_suite(iterations=it or 50),
    "siesta": lambda it: siesta_suite(n_iterations=it or 40),
}


def _cmd_report(args: argparse.Namespace) -> int:
    print(full_report(fast=args.fast))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    del args
    t1 = TextTable(
        ["Priority", "Level", "Privilege", "or-nop"],
        title="Table I: hardware thread priorities",
    )
    for prio in range(8):
        info = PRIORITY_TABLE[prio]
        t1.add_row([prio, info.label, info.privilege.label, info.or_nop_mnemonic or "-"])
    print(t1.render())
    print()
    print(decode_cycles_table().render())
    print()
    print(special_cases_table().render())
    return 0


def _cmd_case(args: argparse.Namespace) -> int:
    suite_factory = _SUITES.get(args.suite)
    if suite_factory is None:
        print(f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)}",
              file=sys.stderr)
        return 2
    suite = suite_factory(args.iterations)
    try:
        case = suite.case(args.name.upper())
    except Exception:
        names = [c.name for c in suite.cases]
        print(f"unknown case {args.name!r}; suite {args.suite} has {names}",
              file=sys.stderr)
        return 2
    system = System(
        SystemConfig(model=args.model, throughput_table_path=args.table)
    )
    result = run_case(system, suite, case)
    saved = system.save_throughput_table()
    if saved is not None:
        print(f"[cache] persisted {saved} throughput entries to {args.table}")
    prios = case.priorities or {r: 4 for r in range(case.n_ranks)}
    cores = {r: case.mapping.core_of(r) + 1 for r in range(case.n_ranks)}
    print(result.run.stats.as_table(prios, cores,
                                    label=f"{args.suite} case {case.name}").render())
    print()
    print(f"paper: {case.paper_exec_seconds:.2f}s / "
          f"{case.paper_imbalance_percent:.2f}%   "
          f"simulated: {result.measured_exec:.2f}s / "
          f"{result.measured_imbalance:.2f}%")
    print()
    print(render_gantt(result.run.trace, width=args.width))
    print(render_legend())
    if args.prv:
        with open(args.prv, "w") as fh:
            fh.write(render_prv(result.run.trace,
                                rank_to_cpu=case.mapping.as_dict()))
        pcf_path = args.prv.rsplit(".", 1)[0] + ".pcf"
        with open(pcf_path, "w") as fh:
            fh.write(render_pcf())
        print(f"\nwrote {args.prv} and {pcf_path}")
    return 0


def _cmd_profiles(args: argparse.Namespace) -> int:
    del args
    model = AnalyticThroughputModel()
    table = TextTable(
        ["profile", "mem%", "FPU%", "ILP", "solo IPC", "pair IPC", "pair tax"],
        title="Bundled load profiles (model operating points)",
    )
    for name in sorted(BASE_PROFILES):
        p = BASE_PROFILES[name]
        solo = model.core_ipc(p, None, 7, 0)[0]
        pair = model.core_ipc(p, p, 4, 4)[0]
        tax = (1 - pair / solo) * 100 if solo else 0.0
        table.add_row(
            [
                name,
                f"{p.memory_fraction * 100:.0f}",
                f"{p.fpu_fraction * 100:.0f}",
                f"{p.ilp:.1f}",
                f"{solo:.2f}",
                f"{pair:.2f}",
                f"{tax:.0f}%",
            ]
        )
    print(table.render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    profile = BASE_PROFILES.get(args.profile)
    if profile is None:
        print(f"unknown profile {args.profile!r}; see `repro profiles`",
              file=sys.stderr)
        return 2
    model = AnalyticThroughputModel()
    table = TextTable(
        ["gap", "priorities", "victim IPC", "favoured IPC", "victim slowdown"],
        title=f"Priority-gap sweep for profile {args.profile!r}",
    )
    eq = model.core_ipc(profile, profile, 4, 4)[0]
    for gap, (lo, hi) in {0: (4, 4), 1: (4, 5), 2: (4, 6), 3: (3, 6), 4: (2, 6)}.items():
        v, f = model.core_ipc(profile, profile, lo, hi)
        table.add_row(
            [gap, f"{lo} vs {hi}", f"{v:.3f}", f"{f:.3f}",
             f"{eq / v:.2f}x" if v else "inf"]
        )
    print(table.render())
    return 0


def _cache_table_info(path: str) -> int:
    probe = ThroughputTable()
    try:
        import json

        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        print(f"no table at {path}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"unreadable table {path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict) or doc.get("format") != ThroughputTable.FORMAT:
        print(f"{path} is not a throughput table file", file=sys.stderr)
        return 2
    table = TextTable(["field", "value"], title=f"throughput table {path}")
    table.add_row(["version", doc.get("version")])
    table.add_row(["fingerprint", str(doc.get("fingerprint"))[:16] + "..."])
    table.add_row(["warmup_cycles", doc.get("warmup_cycles")])
    table.add_row(["measure_cycles", doc.get("measure_cycles")])
    table.add_row(["seed", doc.get("seed")])
    table.add_row(["entries", len(doc.get("entries", ()))])
    matches = "yes" if doc.get("fingerprint") == probe.fingerprint else "no"
    table.add_row(["matches default config", matches])
    print(table.render())
    return 0


def _cache_service_info(url: str) -> int:
    """Render a running service's result-cache stats from /metrics."""
    import json
    import urllib.error
    import urllib.request

    endpoint = url.rstrip("/") + "/metrics"
    try:
        with urllib.request.urlopen(endpoint, timeout=10.0) as resp:
            doc = json.load(resp)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"cannot read {endpoint}: {exc}", file=sys.stderr)
        return 2
    cache = doc.get("cache", {})
    queue = doc.get("queue", {})
    table = TextTable(
        ["field", "value"], title=f"service result cache at {url}"
    )
    table.add_row(["entries", f"{cache.get('entries')} / {cache.get('max_entries')}"])
    table.add_row(["bytes", cache.get("bytes")])
    table.add_row(["hits", cache.get("hits")])
    table.add_row(["misses", cache.get("misses")])
    table.add_row(["hit rate", f"{cache.get('hit_rate', 0.0):.1%}"])
    table.add_row(["coalesced", cache.get("coalesced")])
    table.add_row(["inserts", cache.get("inserts")])
    table.add_row(["in flight", cache.get("in_flight")])
    table.add_row(["queue depth", f"{queue.get('depth')} / {queue.get('max_depth')}"])
    table.add_row(["jobs done", doc.get("jobs", {}).get("done")])
    print(table.render())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.table is None and args.service is None:
        print("cache: need --table FILE and/or --service URL", file=sys.stderr)
        return 2
    if args.action == "clear":
        if args.table is None:
            print("cache clear: needs --table FILE", file=sys.stderr)
            return 2
        if os.path.exists(args.table):
            os.remove(args.table)
            print(f"removed {args.table}")
        else:
            print(f"nothing to clear at {args.table}")
        return 0
    # info: report whichever sources were named, alongside each other.
    rc = 0
    if args.table is not None:
        rc = _cache_table_info(args.table)
    if args.service is not None:
        rc = max(rc, _cache_service_info(args.service))
    return rc


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.executor import ScenarioService, ServiceConfig
    from repro.service.server import serve

    service = ScenarioService(
        ServiceConfig(
            workers=args.workers,
            queue_depth=args.queue_depth,
            cache_entries=args.cache_entries,
            default_timeout_s=args.timeout if args.timeout > 0 else None,
            throughput_table_path=args.table,
        )
    )
    serve(service, host=args.host, port=args.port, quiet=not args.verbose)
    return 0


def _default_golden_dir() -> str:
    """``tests/golden`` next to the repo the package runs from, else cwd."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    candidate = os.path.join(here, "tests", "golden")
    if os.path.isdir(os.path.join(here, "tests")):
        return candidate
    return os.path.join(os.getcwd(), "tests", "golden")


def _cmd_oracle(args: argparse.Namespace) -> int:
    # Imported here: the oracle package pulls in the workload generators,
    # which `repro tables` etc. never need.
    from repro.errors import OracleError
    from repro.oracle import checker, differential, golden

    directory = args.dir or _default_golden_dir()
    if args.action == "record":
        paths = golden.record_all(directory)
        for p in paths:
            print(f"recorded {p}")
        return 0
    if args.action == "check":
        report = checker.verify_decode_law(strict=False)
        if not report.ok:
            print(report.summary(), file=sys.stderr)
            return 1
        try:
            checks = golden.check_all(directory, tolerance=args.tolerance,
                                      strict=False)
        except OracleError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        bad = 0
        for c in checks:
            status = "ok" if c.ok else "MISMATCH"
            label = "[batch] " if c.batch else ""
            print(f"{status:8s} {label}{os.path.basename(c.path)} ({c.kind}, "
                  f"replayed {c.replayed_digest[:16]}..., "
                  f"recorded {c.recorded_digest[:16]}...)")
            for m in c.mismatches:
                bad += 1
                print(f"         - {m}")
        cluster_eq = differential.check_cluster_equivalence(strict=False)
        status = "ok" if cluster_eq.ok else "MISMATCH"
        print(f"{status:8s} 1-node cluster law "
              f"(cluster {cluster_eq.cluster_digest[:16]}..., "
              f"single chip {cluster_eq.single_chip_digest[:16]}...)")
        for m in cluster_eq.mismatches:
            bad += 1
            print(f"         - {m}")
        if bad:
            print(f"{bad} golden mismatch(es)", file=sys.stderr)
            return 1
        print(f"{len(checks)} golden replay(s) match, trace records on the "
              "scalar and batch paths; decode law and the 1-node cluster "
              "law hold")
        return 0
    # fuzz
    report = differential.fuzz(args.budget, seed=args.seed)
    print(report.summary())
    if not report.ok and args.failures:
        import json

        doc = {
            "budget": report.budget,
            "seed": report.seed,
            "failures": [
                {
                    "scenario": res.scenario.to_doc(),
                    "fingerprint": res.scenario.fingerprint,
                    "disagreements": list(res.disagreements),
                    "fluid_time": res.fluid_time,
                    "cycle_time": res.cycle_time,
                    "estimate_time": res.estimate_time,
                }
                for res in report.failures
            ],
        }
        with open(args.failures, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote failing scenarios to {args.failures}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """Dump a telemetry snapshot — this process's default registry, or a
    running service's /metrics when --url is given."""
    from repro.telemetry import default_registry, render_prometheus

    if args.url is not None:
        import urllib.error
        import urllib.request

        fmt = "json" if args.format == "json" else "prometheus"
        endpoint = args.url.rstrip("/") + f"/metrics?format={fmt}"
        try:
            with urllib.request.urlopen(endpoint, timeout=10.0) as resp:
                body = resp.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as exc:
            print(f"cannot read {endpoint}: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(body if body.endswith("\n") else body + "\n")
        return 0

    reg = default_registry()
    if args.format == "prom":
        sys.stdout.write(render_prometheus(reg))
        return 0
    snapshot = reg.snapshot()
    if args.format == "json":
        import json

        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    table = TextTable(
        ["metric", "kind", "labels", "value"],
        title="process telemetry snapshot",
    )
    for name, doc in sorted(snapshot.items()):
        for sample in doc["samples"]:
            labels = ",".join(
                f"{k}={v}" for k, v in sample["labels"].items()
            ) or "-"
            if "value" in sample:
                value = sample["value"]
            else:
                value = f"count={sample['count']} sum={sample['sum']:.6g}"
            table.add_row([name, doc["kind"], labels, value])
    print(table.render())
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    del args
    from repro.scenarios import all_engines

    table = TextTable(
        ["engine", "batch", "axes", "options", "description"],
        title="Registered scenario execution engines",
    )
    for engine in all_engines():
        table.add_row(
            [
                engine.name,
                getattr(engine, "batch_strategy", "loop"),
                ",".join(getattr(engine, "axes", ())) or "-",
                ", ".join(engine.option_names) or "-",
                engine.description,
            ]
        )
    print(table.render())
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    # Imported here like the oracle: the policy subsystem drags in the
    # workload generators, which the architectural commands never need.
    from repro.errors import ConfigurationError, PersistenceError
    from repro.policies import (
        DEFAULT_POLICIES,
        Leaderboard,
        TournamentConfig,
        all_policies,
        run_tournament,
    )

    if args.action == "policies":
        axis_of = {"static": "priority", "dynamic": "priority",
                   "allocation": "mapping", "placement": "node"}
        table = TextTable(
            ["policy", "family", "axis", "fingerprint", "description"],
            title="The policy zoo (docs/policies.md)",
        )
        for policy in all_policies():
            table.add_row([
                policy.name,
                policy.family,
                axis_of.get(policy.family, "-"),
                policy.fingerprint[:12],
                policy.description,
            ])
        print(table.render())
        return 0

    if args.action == "show":
        if not args.path:
            print("tournament show: needs a leaderboard artifact path",
                  file=sys.stderr)
            return 2
        try:
            board = Leaderboard.load(args.path)
        except PersistenceError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(board.render())
        print(f"fingerprint {board.fingerprint}")
        return 0

    # run
    if args.policies:
        names = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    else:
        names = DEFAULT_POLICIES
    try:
        config = TournamentConfig(
            policies=names,
            corpus=args.corpus,
            n_scenarios=args.scenarios,
            seed=args.seed,
            engine=args.engine,
        )
        board = run_tournament(config, batch=not args.scalar)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(board.render())
    print(f"fingerprint {board.fingerprint}  "
          f"({len(board.scores)} policies x {config.n_scenarios} cells "
          f"in {board.wall_seconds:.2f}s)")
    if args.out:
        board.save(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_search_cluster(args: argparse.Namespace, works, levels) -> int:
    """The ``repro search cluster`` action: placement, then priorities."""
    from repro.core import candidate_placements, two_level_search
    from repro.errors import ConfigurationError, MappingError
    from repro.machine.mapping import ProcessMapping
    from repro.machine.system import System, SystemConfig
    from repro.workloads.generators import distant_pairs_programs

    n_ranks = len(works)

    def factory():
        return distant_pairs_programs(
            list(works),
            iterations=args.iterations,
            profile=args.profile,
            exchange_bytes=args.exchange_bytes,
        )

    try:
        system = System(SystemConfig(n_nodes=args.nodes))
        baseline = system.run(
            list(factory()),
            mapping=ProcessMapping.identity(n_ranks),
            label="search.cluster.baseline",
        )
        prune = not args.no_prune
        pruned = len(candidate_placements(n_ranks, args.nodes))
        total = len(
            candidate_placements(n_ranks, args.nodes, prune_symmetry=False)
        )
        result = two_level_search(
            system,
            factory,
            n_ranks=n_ranks,
            n_nodes=args.nodes,
            levels=levels,
            max_gap=args.max_gap,
            keep_top=args.top,
            workers=args.workers,
            prune_symmetry=prune,
        )
    except (ConfigurationError, MappingError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    _print_search_report(
        f"two-level (placement -> priority) search: {n_ranks} ranks "
        f"on {args.nodes} nodes",
        result,
        baseline.total_time,
        f"placements: {pruned} canonical of {total} "
        f"({'pruned' if prune else 'NOT pruned'}; "
        f"{total / pruned:.1f}x node-symmetry cut)",
    )
    return 0


def _print_search_report(title, result, baseline_time: float, space_note: str) -> None:
    """The ``repro search`` report: ranked table, search-space note, cost."""
    table = TextTable(
        ["#", "mapping", "priorities", "time [s]", "imb %", "vs default %"],
        title=title,
    )
    for place, (assignment, total_time, imbalance) in enumerate(
        result.entries, start=1
    ):
        mapping = ",".join(
            f"{r}>{c}" for r, c in assignment.mapping.rank_to_cpu
        )
        prios = ",".join(str(p) for _, p in assignment.priorities)
        gain = (baseline_time - total_time) / baseline_time * 100.0
        table.add_row([
            place, mapping, prios,
            f"{total_time:.4f}", f"{imbalance:.2f}", f"{gain:+.2f}",
        ])
    print(table.render())
    print(space_note)
    stats = result.stats
    print(
        f"evaluated {stats.evaluations} candidates "
        f"(workers {stats.workers}, model cache hit rate "
        f"{stats.hit_rate * 100.0:.1f}%); default config: "
        f"{baseline_time:.4f}s"
    )


def _cmd_search(args: argparse.Namespace) -> int:
    # Imported here like the oracle/tournament commands: the search and
    # workload layers are never needed by the architectural commands.
    from repro.core import (
        candidate_mappings,
        joint_search,
        mapping_then_priority_search,
    )
    from repro.errors import ConfigurationError, MappingError
    from repro.machine.mapping import ProcessMapping
    from repro.scenarios import ScenarioSpec

    try:
        works = tuple(float(w) for w in args.works.split(",") if w.strip())
        levels = tuple(int(l) for l in args.levels.split(",") if l.strip())
    except ValueError as exc:
        print(f"search {args.action}: {exc}", file=sys.stderr)
        return 2
    if args.action == "cluster":
        return _cmd_search_cluster(args, works, levels)
    try:
        spec = ScenarioSpec(
            name="search-joint",
            kind=args.kind,
            works=works,
            iterations=args.iterations,
            profile=args.profile,
            seed=args.seed,
        )
        system = System(SystemConfig(seed=args.seed))
        baseline = system.run(
            list(spec.programs()),
            mapping=ProcessMapping.identity(spec.n_ranks),
            label="search.baseline",
        )
        if args.staged:
            result = mapping_then_priority_search(
                system,
                spec.programs,
                works,
                profiles=args.profile,
                levels=levels,
                max_gap=args.max_gap,
                keep_top=args.top,
                workers=args.workers,
            )
            space_note = "staged: pressure-paired mapping, priorities searched"
        else:
            prune = not args.no_prune
            n_cores = system.config.chip.n_cores
            pruned = len(candidate_mappings(spec.n_ranks, n_cores))
            total = len(
                candidate_mappings(spec.n_ranks, n_cores, prune_symmetry=False)
            )
            result = joint_search(
                system,
                spec.programs,
                n_ranks=spec.n_ranks,
                levels=levels,
                max_gap=args.max_gap,
                keep_top=args.top,
                workers=args.workers,
                prune_symmetry=prune,
            )
            space_note = (
                f"mappings: {pruned} canonical of {total} "
                f"({'pruned' if prune else 'NOT pruned'}; "
                f"{total / pruned:.1f}x symmetry cut)"
            )
    except (ConfigurationError, MappingError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    _print_search_report(
        f"joint (mapping × priority) search over {len(works)} ranks",
        result,
        baseline.total_time,
        space_note,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Balancing HPC Applications Through "
        "Smart Allocation of Resources in MT Processors' (IPDPS 2008).",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="attach a stderr handler to the repro.* loggers at LEVEL "
        "(DEBUG, INFO, WARNING, ...); off by default",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="full paper-vs-measured report")
    p_report.add_argument("--fast", action="store_true",
                          help="reduced iteration counts")
    p_report.set_defaults(func=_cmd_report)

    p_tables = sub.add_parser("tables", help="architectural Tables I-III")
    p_tables.set_defaults(func=_cmd_tables)

    p_case = sub.add_parser("case", help="run one paper case")
    p_case.add_argument("suite", choices=sorted(_SUITES))
    p_case.add_argument("name", help="case name: ST, A, B, C or D")
    p_case.add_argument("--iterations", type=int, default=None)
    p_case.add_argument("--width", type=int, default=90, help="trace width")
    p_case.add_argument("--prv", default=None,
                        help="export a PARAVER .prv to this path")
    p_case.add_argument("--model", choices=("analytic", "cycle"),
                        default="analytic", help="throughput model")
    p_case.add_argument("--table", default=None,
                        help="persisted throughput table (cycle model only)")
    p_case.set_defaults(func=_cmd_case)

    p_prof = sub.add_parser("profiles", help="bundled load profiles")
    p_prof.set_defaults(func=_cmd_profiles)

    p_sweep = sub.add_parser("sweep", help="priority-gap operating points")
    p_sweep.add_argument("--profile", default="hpc")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cache = sub.add_parser(
        "cache", help="persisted throughput tables / service result cache"
    )
    p_cache.add_argument("action", choices=("info", "clear"))
    p_cache.add_argument("--table", default=None,
                         help="path of the persisted throughput table")
    p_cache.add_argument("--service", default=None,
                         help="base URL of a running `repro serve` "
                         "(reports its result-cache stats)")
    p_cache.set_defaults(func=_cmd_cache)

    p_serve = sub.add_parser(
        "serve", help="scenario-serving HTTP JSON API (docs/service.md)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="0 picks a free port")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="simulation worker threads")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="admission bound before 429 backpressure")
    p_serve.add_argument("--cache-entries", type=int, default=1024,
                         help="result-cache LRU capacity")
    p_serve.add_argument("--timeout", type=float, default=300.0,
                         help="default per-attempt seconds; 0 disables")
    p_serve.add_argument("--table", default=None,
                         help="shared persistent throughput table for "
                         "model=cycle jobs")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_serve.set_defaults(func=_cmd_serve)

    p_oracle = sub.add_parser(
        "oracle", help="invariant / conformance / golden-trace oracle"
    )
    p_oracle.add_argument("action", choices=("record", "check", "fuzz"))
    p_oracle.add_argument("--dir", default=None,
                          help="golden-record directory (default tests/golden)")
    p_oracle.add_argument("--tolerance", type=float, default=0.0,
                          help="relative metric tolerance for check "
                          "(0 = bit-exact trace digests)")
    p_oracle.add_argument("--budget", type=int, default=100,
                          help="fuzz: number of random scenarios")
    p_oracle.add_argument("--seed", type=int, default=0,
                          help="fuzz: scenario-generator seed")
    p_oracle.add_argument("--failures", default=None,
                          help="fuzz: write failing scenarios to this JSON "
                          "path (CI artifact)")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_search = sub.add_parser(
        "search",
        help="joint (mapping × priority) and cluster placement search",
    )
    p_search.add_argument("action", choices=("joint", "cluster"))
    p_search.add_argument("--works", default="8e8,2.4e9,1.2e9,2e9",
                          metavar="W,W,...",
                          help="per-rank work in instructions "
                               "(default: a skewed 4-rank profile)")
    p_search.add_argument("--kind", default="metbench",
                          choices=("barrier_loop", "metbench", "btmz",
                                   "siesta"),
                          help="workload family (default: metbench)")
    p_search.add_argument("--profile", default="hpc",
                          help="load profile name (default: hpc)")
    p_search.add_argument("--iterations", type=int, default=2)
    p_search.add_argument("--levels", default="3,4,5,6", metavar="L,L,...",
                          help="priority levels to search (default: 3,4,5,6)")
    p_search.add_argument("--max-gap", type=int, default=2,
                          help="max per-core priority gap (default: 2)")
    p_search.add_argument("--workers", type=int, default=1,
                          help="process-pool width (default: serial)")
    p_search.add_argument("--top", type=int, default=10,
                          help="ranking rows to keep/print (default: 10)")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--nodes", type=int, default=2,
                          help="cluster node count for the cluster action "
                               "(default: 2)")
    p_search.add_argument("--exchange-bytes", type=int, default=16_000_000,
                          help="per-iteration sendrecv payload for the "
                               "cluster action's distant-pairs workload "
                               "(default: 16 MB)")
    p_search.add_argument("--no-prune", action="store_true",
                          help="disable symmetry pruning of the mapping "
                               "or placement axis (same best physics, "
                               "strictly more simulation)")
    p_search.add_argument("--staged", action="store_true",
                          help="mapping_then_priority heuristic: pick the "
                               "mapping from decode pressure, search "
                               "priorities only")
    p_search.set_defaults(func=_cmd_search)

    p_engines = sub.add_parser(
        "engines", help="registered scenario execution engines"
    )
    p_engines.add_argument("action", choices=("list",))
    p_engines.set_defaults(func=_cmd_engines)

    p_tour = sub.add_parser(
        "tournament",
        help="balancing-policy tournaments over seeded scenario corpora "
        "(docs/policies.md)",
    )
    p_tour.add_argument("action", choices=("run", "show", "policies"))
    p_tour.add_argument("path", nargs="?", default=None,
                        help="show: the leaderboard artifact to render")
    p_tour.add_argument("--policies", default=None, metavar="A,B,C",
                        help="comma-separated policy names "
                        "(default: the seven priority built-ins, "
                        "DEFAULT_POLICIES)")
    p_tour.add_argument("--corpus", default="mixed",
                        choices=("fuzz", "siesta", "mixed", "metbtmz",
                                 "cluster"),
                        help="scenario corpus (default mixed; metbtmz is "
                        "the MetBench/BT-MZ allocation-differential mix, "
                        "cluster the 2-node distant-neighbour set the "
                        "placement family is scored on)")
    p_tour.add_argument("-n", "--scenarios", type=int, default=50,
                        help="corpus size (default 50)")
    p_tour.add_argument("--seed", type=int, default=0,
                        help="corpus seed (default 0)")
    p_tour.add_argument("--engine", default="fluid",
                        help="execution engine (default fluid; dynamic "
                        "policies need its controllers hook)")
    p_tour.add_argument("--scalar", action="store_true",
                        help="scalar per-cell runs instead of run_batch "
                        "(same leaderboard fingerprint, slower)")
    p_tour.add_argument("--out", default=None,
                        help="run: also write the leaderboard artifact "
                        "to this path")
    p_tour.set_defaults(func=_cmd_tournament)

    p_tele = sub.add_parser(
        "telemetry",
        help="dump a telemetry snapshot (docs/observability.md)",
    )
    p_tele.add_argument(
        "--format", choices=("table", "json", "prom"), default="table",
        help="table (default), json snapshot, or Prometheus text",
    )
    p_tele.add_argument(
        "--url", default=None,
        help="base URL of a running `repro serve`; reads its /metrics "
        "instead of this process's registry",
    )
    p_tele.set_defaults(func=_cmd_telemetry)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.telemetry import configure_logging

        configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
