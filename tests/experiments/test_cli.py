"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_lint_is_no_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == 2

    def test_validate_fidelity_takes_a_leading_option(self, capsys):
        """Dispatched before parsing: argparse.REMAINDER would refuse the
        leading ``--list``."""
        from repro.mesoscale.validate import VALIDATION_SCENARIOS

        assert main(["validate-fidelity", "--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == sorted(VALIDATION_SCENARIOS)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "bogus"])

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "clirs", "--seed", "4"])
        assert args.scheme == "clirs"
        assert args.seed == 4

    @pytest.mark.parametrize("command", ["sweep", "figure", "compare"])
    def test_exec_flags_parse(self, command):
        parser = build_parser()
        positional = {
            "sweep": ["sweep", "utilization", "0.5"],
            "figure": ["figure", "fig6"],
            "compare": ["compare"],
        }[command]
        args = parser.parse_args(
            positional + ["--jobs", "4", "--resume", "--run-dir", "runs/x"]
        )
        assert args.jobs == 4
        assert args.resume is True
        assert args.run_dir == "runs/x"

    @pytest.mark.parametrize("command", ["sweep", "figure", "compare"])
    def test_exec_flags_default_to_serial(self, command):
        parser = build_parser()
        positional = {
            "sweep": ["sweep", "utilization", "0.5"],
            "figure": ["figure", "fig6"],
            "compare": ["compare"],
        }[command]
        args = parser.parse_args(positional)
        assert args.jobs == 1
        assert args.resume is False
        assert args.run_dir == ""


class TestCommands:
    def test_topology_command(self, capsys):
        assert main(["topology", "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "8-ary fat-tree" in out
        assert "hosts: 128" in out

    def test_run_command_tiny(self, capsys):
        code = main(
            [
                "run",
                "clirs",
                "--requests",
                "300",
                "--clients",
                "8",
                "--servers",
                "6",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency ms" in out
        assert "scheme=clirs" in out

    def test_plan_command(self, capsys):
        code = main(
            [
                "plan",
                "--scheme",
                "netrs-ilp",
                "--clients",
                "8",
                "--servers",
                "6",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RSP[ilp]" in out
        assert "operator" in out

    def test_figure_command_smallest(self, capsys):
        code = main(
            [
                "figure",
                "fig6",
                "--requests",
                "300",
                "--clients",
                "8",
                "--servers",
                "6",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "latency reduction" in out

    @pytest.mark.parametrize(
        "options, expected",
        [
            (
                [
                    "--requests", "600", "--clients", "16", "--servers", "8",
                    "--utilization", "0.5", "--skew", "0.8",
                    "--faults", "server-down@0.02:server#0;server-up@0.06:server#0",
                    "--request-timeout", "0.02", "--max-retries", "5",
                    "--write-fraction", "0.2", "--write-quorum", "2",
                    "--read-quorum", "2",
                    "--churn-schedule",
                    "node-leave@0.03:server#1;node-join@0.06:server#1",
                    "--fidelity", "flow", "--vector-batch", "64",
                ],
                lambda: ExperimentConfig.small(
                    seed=3,
                    total_requests=600,
                    n_clients=16,
                    n_servers=8,
                    utilization=0.5,
                    demand_skew=0.8,
                    fault_schedule="server-down@0.02:server#0;server-up@0.06:server#0",
                    request_timeout=0.02,
                    max_retries=5,
                    write_fraction=0.2,
                    write_quorum=2,
                    read_quorum=2,
                    churn_schedule="node-leave@0.03:server#1;node-join@0.06:server#1",
                    fidelity="flow",
                    vector_batch=64,
                ),
            ),
            (
                ["--profile", "paper", "--fidelity", "flow", "--shards", "2"],
                lambda: ExperimentConfig.paper(seed=3, fidelity="flow", shards=2),
            ),
        ],
        ids=["small", "paper-shards"],
    )
    def test_figure_command_forwards_every_run_option(
        self, monkeypatch, options, expected
    ):
        """``netrs figure`` builds its base config from every common run
        option, as ``run`` and ``sweep`` do."""
        from repro.experiments import figures

        bases = []

        def capture(base, **kwargs):
            bases.append(base)
            raise RuntimeError("captured")

        monkeypatch.setattr(figures, "run_sweep", capture)
        with pytest.raises(RuntimeError, match="captured"):
            main(["figure", "fig4", "--seed", "3"] + options)
        assert bases == [expected()]

    def test_compare_command(self, capsys):
        code = main(
            [
                "compare",
                "--schemes",
                "clirs",
                "netrs-tor",
                "--requests",
                "300",
                "--clients",
                "8",
                "--servers",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheme comparison" in out


class TestAnalysisCommands:
    def test_factors_command(self, capsys):
        code = main(
            [
                "factors",
                "--schemes",
                "clirs",
                "--requests",
                "300",
                "--clients",
                "8",
                "--servers",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "feedback age at selection" in out
        assert "latency breakdown" in out

    def test_trace_command(self, tmp_path, capsys):
        output = tmp_path / "trace.csv"
        code = main(
            [
                "trace",
                "netrs-tor",
                "--output",
                str(output),
                "--requests",
                "300",
                "--clients",
                "8",
                "--servers",
                "6",
            ]
        )
        assert code == 0
        content = output.read_text()
        assert content.startswith("request_id,")
        assert content.count("\n") == 301  # header + one row per request

    def test_figure_markdown_mode(self, capsys):
        code = main(
            [
                "figure",
                "fig6",
                "--markdown",
                "--requests",
                "300",
                "--clients",
                "8",
                "--servers",
                "6",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("## Fig. 6")

    def test_verify_command_tiny(self, capsys):
        code = main(
            [
                "verify",
                "--requests",
                "400",
                "--clients",
                "8",
                "--servers",
                "6",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        # At toy scale some trend claims may legitimately fail; the command
        # must still render every verdict and exit 0/1 accordingly.
        assert "claims reproduced" in out
        assert out.count("[") >= 7
        assert code in (0, 1)

    def test_sweep_command_parallel_matches_serial(self, tmp_path, capsys):
        argv = [
            "sweep",
            "utilization",
            "0.4",
            "0.9",
            "--schemes",
            "clirs",
            "--requests",
            "300",
            "--clients",
            "8",
            "--servers",
            "6",
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(argv + ["--jobs", "2", "--run-dir", str(tmp_path / "run")])
            == 0
        )
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        # The ledger spooled both jobs; --resume replays without re-running.
        assert (tmp_path / "run" / "ledger.jsonl").exists()
        assert (
            main(argv + ["--resume", "--run-dir", str(tmp_path / "run")]) == 0
        )
        assert capsys.readouterr().out == serial_out

    def test_sweep_command(self, capsys):
        code = main(
            [
                "sweep",
                "utilization",
                "0.4",
                "0.9",
                "--schemes",
                "clirs",
                "--requests",
                "300",
                "--clients",
                "8",
                "--servers",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep of utilization" in out
        assert "0.4" in out and "0.9" in out

    def test_sweep_group_granularity_reads_numbers_as_integers(self, capsys):
        """``2`` is two hosts per group, not the string ``'2'`` (which the
        plan rejects): the field takes ``'rack'``, ``'host'`` or an int."""
        code = main(
            [
                "sweep",
                "group_granularity",
                "rack",
                "2",
                "host",
                "--schemes",
                "netrs-ilp",
                "--requests",
                "300",
                "--clients",
                "8",
                "--servers",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        rows = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert {"rack", "2", "host"} <= rows

    @pytest.mark.parametrize("name", ["arrival_rate", "validate", "workload_mode"])
    def test_sweep_of_a_name_that_is_no_field_is_refused(self, capsys, name):
        """A typo, a method or a field the model no longer has is named in a
        ConfigurationError before any job runs, not a TypeError."""
        with pytest.raises(ConfigurationError, match=f"unknown config field '{name}'"):
            main(["sweep", name, "1", "--schemes", "clirs", "--requests", "300"])
        assert capsys.readouterr().out == ""



@pytest.mark.slow
def test_figure_reproduces_the_committed_fig4(capsys):
    """``make figures`` writes ``benchmarks/results/`` from this command; the
    committed table must still be what it prints (the title line aside)."""
    assert main(["figure", "fig4", "--seed", "1", "--requests", "6000"]) == 0
    printed = capsys.readouterr().out.splitlines()
    results = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"
    committed = (results / "fig4.txt").read_text(encoding="utf-8").splitlines()
    assert printed[1:] == committed[1:]
