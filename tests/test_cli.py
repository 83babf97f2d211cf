"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in (["tables"], ["profiles"], ["sweep"], ["report", "--fast"]):
            args = parser.parse_args(cmd)
            assert callable(args.func)


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Table III" in out

    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "hpc" in out and "dft" in out and "spin" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--profile", "hpc"]) == 0
        out = capsys.readouterr().out
        assert "victim" in out and "4 vs 6" in out

    def test_sweep_unknown_profile(self, capsys):
        assert main(["sweep", "--profile", "gpu"]) == 2

    def test_case(self, capsys):
        assert main(["case", "metbench", "a", "--iterations", "2", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "metbench case A" in out
        assert "paper: 81.64s" in out
        assert "P4" in out

    def test_case_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["case", "lu", "A"])

    def test_case_unknown_name(self, capsys):
        assert main(["case", "metbench", "Q"]) == 2

    def test_case_prv_export(self, tmp_path, capsys):
        prv = tmp_path / "trace.prv"
        assert (
            main(
                ["case", "metbench", "a", "--iterations", "2", "--prv", str(prv)]
            )
            == 0
        )
        content = prv.read_text()
        assert content.startswith("#Paraver")
        assert (tmp_path / "trace.pcf").exists()


class TestCacheCommand:
    def test_case_cycle_persists_table(self, tmp_path, capsys):
        path = str(tmp_path / "table.json")
        rc = main(["case", "metbench", "a", "--iterations", "1",
                   "--width", "40", "--model", "cycle", "--table", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "persisted" in out

        assert main(["cache", "info", "--table", path]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out
        assert "entries" in out

        assert main(["cache", "clear", "--table", path]) == 0
        assert main(["cache", "info", "--table", path]) == 2

    def test_cache_info_missing(self, tmp_path):
        assert main(["cache", "info", "--table", str(tmp_path / "no.json")]) == 2

    def test_cache_clear_missing_is_ok(self, tmp_path, capsys):
        assert main(["cache", "clear", "--table", str(tmp_path / "no.json")]) == 0
        assert "nothing to clear" in capsys.readouterr().out

    def test_cache_info_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["cache", "info", "--table", str(bad)]) == 2

    def test_cache_needs_a_source(self, capsys):
        assert main(["cache", "info"]) == 2
        assert "--table" in capsys.readouterr().err

    def test_cache_clear_needs_table(self, capsys):
        assert main(["cache", "clear", "--service", "http://localhost:1"]) == 2

    def test_cache_info_unreachable_service(self, capsys):
        # Port 1 is never listening; the fetch fails cleanly with rc 2.
        assert main(["cache", "info", "--service", "http://127.0.0.1:1"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_knows_serve(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "3", "--queue-depth", "9"]
        )
        assert callable(args.func)
        assert args.workers == 3 and args.queue_depth == 9

    def test_serve_and_cache_info_service_round_trip(self, capsys):
        """`repro cache info --service` against a live in-process server."""
        import threading

        from repro.service.executor import ScenarioService, ServiceConfig
        from repro.service.server import make_server

        service = ScenarioService(ServiceConfig(workers=1))
        server = make_server(service, host="127.0.0.1", port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            rc = main(["cache", "info", "--service", f"http://{host}:{port}"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "service result cache" in out
            assert "coalesced" in out and "bytes" in out
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()


class TestTournamentCommand:
    def test_policies_catalogue(self, capsys):
        assert main(["tournament", "policies"]) == 0
        out = capsys.readouterr().out
        for name in ("st", "paper-b", "paper-c", "paper-d", "propshare",
                     "lpt", "hysteresis"):
            assert name in out

    def test_run_and_show_round_trip(self, tmp_path, capsys):
        out_path = str(tmp_path / "board.json")
        rc = main([
            "tournament", "run",
            "--policies", "st,propshare,hysteresis",
            "--corpus", "mixed", "-n", "4", "--seed", "11",
            "--out", out_path,
        ])
        run_out = capsys.readouterr().out
        assert rc == 0
        assert "hysteresis" in run_out and "fingerprint" in run_out

        assert main(["tournament", "show", out_path]) == 0
        show_out = capsys.readouterr().out
        assert "propshare" in show_out
        # The artifact's fingerprint is the run's fingerprint.
        fingerprint = run_out.split("fingerprint ")[1].split()[0]
        assert fingerprint in show_out

    def test_run_is_deterministic_across_invocations(self, capsys):
        argv = ["tournament", "run", "--policies", "st,propshare",
                "--corpus", "fuzz", "-n", "4", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert (first.split("fingerprint ")[1].split()[0]
                == second.split("fingerprint ")[1].split()[0])

    def test_scalar_flag_keeps_the_fingerprint(self, capsys):
        argv = ["tournament", "run", "--policies", "st,propshare",
                "--corpus", "fuzz", "-n", "3", "--seed", "3"]
        assert main(argv) == 0
        batched = capsys.readouterr().out
        assert main(argv + ["--scalar"]) == 0
        scalar = capsys.readouterr().out
        assert (batched.split("fingerprint ")[1].split()[0]
                == scalar.split("fingerprint ")[1].split()[0])

    def test_unknown_policy(self, capsys):
        rc = main(["tournament", "run", "--policies", "zeus", "-n", "2"])
        assert rc == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_show_needs_a_path(self, capsys):
        assert main(["tournament", "show"]) == 2
        assert "artifact path" in capsys.readouterr().err

    def test_show_missing_artifact(self, tmp_path, capsys):
        assert main(["tournament", "show", str(tmp_path / "no.json")]) == 2


class TestEnginesCommand:
    def test_list_shows_axes_column(self, capsys):
        assert main(["engines", "list"]) == 0
        out = capsys.readouterr().out
        assert "axes" in out
        # The fluid engine searches all three axes; the others at least
        # the static two.
        assert "priority,mapping,dynamic" in out
        assert "priority,mapping" in out


class TestTournamentAxisColumn:
    def test_policies_catalogue_has_axis_and_allocation_rows(self, capsys):
        assert main(["tournament", "policies"]) == 0
        out = capsys.readouterr().out
        assert "axis" in out
        for name in ("ilp-pair", "ilp-spread", "random-mapping"):
            assert name in out
        assert "mapping" in out

    def test_metbtmz_corpus_accepted(self, capsys):
        assert (
            main(
                ["tournament", "run", "--corpus", "metbtmz", "-n", "2",
                 "--policies", "st,propshare,ilp-pair"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mapping vs priority" in out


class TestSearchCommand:
    ARGS = [
        "search", "joint", "--works", "8e8,2.4e9,1.2e9,2e9",
        "--levels", "4,5", "--max-gap", "1", "--iterations", "2",
    ]

    def test_joint_reports_ranking_and_stats(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "mapping" in out and "priorities" in out
        assert "vs default" in out
        assert "evaluated" in out
        assert "symmetry cut" in out  # the pruning note

    def test_staged_heuristic_flag(self, capsys):
        assert main(self.ARGS + ["--staged"]) == 0
        out = capsys.readouterr().out
        assert "staged" in out

    def test_no_prune_expands_the_space(self, capsys):
        small = ["search", "joint", "--works", "1e9,2e9", "--levels", "4",
                 "--max-gap", "0", "--iterations", "2"]
        assert main(small) == 0
        pruned_out = capsys.readouterr().out
        assert main(small + ["--no-prune"]) == 0
        unpruned_out = capsys.readouterr().out
        assert pruned_out != unpruned_out

    def test_top_truncates_the_table(self, capsys):
        assert main(self.ARGS + ["--top", "1"]) == 0
        out = capsys.readouterr().out
        # Exactly one ranked row: "  1 " appears, "  2 " does not.
        lines = [l for l in out.splitlines() if l.strip().startswith(("1 ", "2 "))]
        assert len(lines) == 1

    def test_bad_works_rejected(self, capsys):
        assert main(["search", "joint", "--works", "fast,slow"]) == 2

    def test_too_many_ranks_rejected(self, capsys):
        assert (
            main(["search", "joint", "--works", "1e9,1e9,1e9,1e9,1e9"]) == 2
        )

    def test_cluster_bad_level_rejected(self, capsys):
        """The two-level stage shares the joint search's priority
        grammar, level check included: a clean usage error, not a
        traceback from the hardware priority gate."""
        args = ["search", "cluster", "--works", "1e9,2e9,1e9,2e9",
                "--nodes", "2", "--levels", "4,9", "--iterations", "1"]
        assert main(args) == 2
        assert "OS-settable" in capsys.readouterr().err
