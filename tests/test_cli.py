"""Tests for the command-line harness (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("table2", "fig2", "fig3", "fig4", "fig5", "fig6",
                    "fig7", "headline", "solve"):
            args = parser.parse_args(
                [cmd] + (["dir"] if cmd == "solve" else [])
            )
            assert args.command == cmd

    def test_fig2_degree_list(self):
        args = build_parser().parse_args(["fig2", "--degrees", "3", "7"])
        assert args.degrees == [3.0, 7.0]

    def test_serve_store_and_jobs_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--store-path", "runs/jobs",
             "--drain-timeout", "3"])
        assert args.store_path == "runs/jobs"
        assert args.drain_timeout == 3.0
        args = parser.parse_args(["jobs", "ls", "runs/jobs"])
        assert args.jobs_command == "ls"
        args = parser.parse_args(
            ["jobs", "gc", "runs/jobs", "--older-than", "60"])
        assert args.jobs_command == "gc" and args.older_than == 60.0

    def test_metrics_format_text_accepted(self):
        args = build_parser().parse_args(
            ["--metrics-format", "text", "headline"])
        assert args.metrics_format == "text"


class TestCommands:
    def test_table2(self, capsys):
        main(["table2", "--bio-scale", "0.05", "--scale", "0.003",
              "--rameau-scale", "0.0015", "--seed", "1"])
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "dmela-scere" in out

    def test_fig2_tiny(self, capsys):
        main(["fig2", "--degrees", "3", "--iters", "4", "--seed", "2"])
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "bp-approx" in out

    def test_solve_roundtrip(self, tmp_path, capsys):
        from repro.generators.io import save_alignment_problem
        from repro.generators.synthetic import powerlaw_alignment_instance

        inst = powerlaw_alignment_instance(n=25, expected_degree=3, seed=0)
        directory = str(tmp_path / "prob")
        save_alignment_problem(directory, inst.problem)
        out_file = str(tmp_path / "matching.txt")
        main(["solve", directory, "--method", "bp", "--iters", "4",
              "--output", out_file])
        out = capsys.readouterr().out
        assert "objective=" in out
        pairs = np.loadtxt(out_file, dtype=int, ndmin=2)
        assert pairs.shape[1] == 2

    def test_solve_mr(self, tmp_path, capsys):
        from repro.generators.io import save_alignment_problem
        from repro.generators.synthetic import powerlaw_alignment_instance

        inst = powerlaw_alignment_instance(n=20, expected_degree=3, seed=1)
        directory = str(tmp_path / "prob")
        save_alignment_problem(directory, inst.problem)
        main(["solve", directory, "--method", "mr", "--iters", "3",
              "--matcher", "exact"])
        assert "klau-mr" in capsys.readouterr().out

    def test_generate_then_solve_with_report(self, tmp_path, capsys):
        directory = str(tmp_path / "gen")
        ref_file = str(tmp_path / "ref.txt")
        main(["generate", "synthetic", directory, "--n", "30",
              "--degree", "3", "--seed", "4", "--reference", ref_file])
        out = capsys.readouterr().out
        assert "wrote" in out
        ref = np.loadtxt(ref_file, dtype=int, ndmin=2)
        assert ref.shape == (30, 2)
        main(["solve", directory, "--iters", "5", "--report"])
        out = capsys.readouterr().out
        assert "edge correctness" in out

    def test_generate_named_family(self, tmp_path, capsys):
        directory = str(tmp_path / "bio")
        main(["generate", "dmela-scere", directory, "--scale", "0.02",
              "--seed", "1"])
        out = capsys.readouterr().out
        assert "dmela-scere" in out

    def test_capture_and_simulate(self, tmp_path, capsys):
        directory = str(tmp_path / "prob")
        main(["generate", "synthetic", directory, "--n", "40",
              "--degree", "3", "--seed", "8"])
        capsys.readouterr()
        traces = str(tmp_path / "traces.json")
        main(["capture", directory, traces, "--method", "bp",
              "--iters", "3", "--batch", "4"])
        out = capsys.readouterr().out
        assert "captured 3 iteration traces" in out
        main(["simulate", traces, "--threads", "1", "10", "40"])
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "p=" not in out  # table uses a threads column

    def test_solve_exact_warm_matcher(self, tmp_path, capsys):
        """MR's exact matcher warm-starts by itself; the old
        ``exact-warm`` kind is no longer a choice."""
        from repro.generators.io import save_alignment_problem
        from repro.generators.synthetic import powerlaw_alignment_instance

        inst = powerlaw_alignment_instance(n=20, expected_degree=3, seed=6)
        directory = str(tmp_path / "prob")
        save_alignment_problem(directory, inst.problem)
        main(["solve", directory, "--method", "mr", "--iters", "3",
              "--matcher", "exact"])
        assert "objective=" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["solve", directory, "--method", "mr", "--iters", "3",
                  "--matcher", "exact-warm"])

    def test_solve_suitor_matcher(self, tmp_path, capsys):
        from repro.generators.io import save_alignment_problem
        from repro.generators.synthetic import powerlaw_alignment_instance

        inst = powerlaw_alignment_instance(n=20, expected_degree=3, seed=2)
        directory = str(tmp_path / "prob")
        save_alignment_problem(directory, inst.problem)
        main(["solve", directory, "--iters", "3", "--matcher", "suitor"])
        assert "objective=" in capsys.readouterr().out

    def test_metrics_out_text_has_quantiles(self, tmp_path, capsys):
        from repro.generators.io import save_alignment_problem
        from repro.generators.synthetic import powerlaw_alignment_instance

        inst = powerlaw_alignment_instance(n=20, expected_degree=3, seed=7)
        directory = str(tmp_path / "prob")
        save_alignment_problem(directory, inst.problem)
        metrics = str(tmp_path / "metrics.txt")
        main(["--metrics-out", metrics, "--metrics-format", "text",
              "solve", directory, "--iters", "3"])
        capsys.readouterr()
        text = open(metrics, encoding="utf-8").read()
        assert "p50=" in text and "p95=" in text and "p99=" in text

    def test_jobs_ls_and_gc(self, tmp_path, capsys):
        from repro.generators.synthetic import powerlaw_alignment_instance
        from repro.serve import ServeConfig, SqliteJobStore, problem_to_wire

        store_path = str(tmp_path / "store")
        cfg = ServeConfig(port=0, workers=1, store="sqlite",
                          store_path=store_path)
        store = SqliteJobStore(cfg)
        try:
            inst = powerlaw_alignment_instance(n=20, expected_degree=3,
                                               seed=8)
            doc = {"method": "bp",
                   "config": {"n_iter": 3, "matcher": "approx"},
                   "problem": problem_to_wire(inst.problem)}
            job = store.submit(doc, "default")
            assert job.wait_terminal(30.0)
        finally:
            store.shutdown()
        main(["jobs", "ls", store_path])
        out = capsys.readouterr().out
        assert job.id in out and "done" in out
        main(["jobs", "gc", store_path])
        assert "deleted 1" in capsys.readouterr().out
        main(["jobs", "ls", store_path])
        assert "no journaled jobs" in capsys.readouterr().out
