"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import experiment_ids

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1-frb1"])
        args2 = build_parser().parse_args(
            ["run", "fig7-speed", "--replications", "2", "--requests", "10", "20"]
        )
        assert args.experiment == "table1-frb1"
        assert args2.replications == 2
        assert args2.requests == [10, 20]

    def test_performance_flag_defaults(self):
        args = build_parser().parse_args(["run", "fig10-facs-vs-scc"])
        assert args.executor == "serial"
        assert args.workers is None

    def test_performance_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "fig10-facs-vs-scc", "--executor", "process", "--workers", "4"]
        )
        assert args.executor == "process"
        assert args.workers == 4

    def test_workers_without_process_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig7-speed", "--workers", "4"])

    def test_unknown_executor_and_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig7-speed", "--executor", "gpu"])
        # Inference has one engine, so there is no --engine flag to pass.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig7-speed", "--engine", "compiled"])


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in experiment_ids():
            assert experiment_id in output

    def test_run_table1(self, capsys):
        assert main(["run", "table1-frb1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_run_table2(self, capsys):
        assert main(["run", "table2-frb2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_run_membership_figures(self, capsys):
        assert main(["run", "fig5-flc1-mf"]) == 0
        assert "Fig. 5(a)" in capsys.readouterr().out
        assert main(["run", "fig6-flc2-mf"]) == 0
        assert "Fig. 6(d)" in capsys.readouterr().out

    def test_run_small_figure_sweep(self, capsys):
        code = main(
            ["run", "fig7-speed", "--replications", "1", "--requests", "10", "40"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 7" in output and "legend:" in output

    def test_one_request_count_renders_the_table_alone(self, capsys):
        # One point draws no line: each figure prints its table (title,
        # header, rule and one row) and no plot.
        for figure, title in (
            ("fig7-speed", "Figure 7"),
            ("fig8-angle", "Figure 8"),
            ("fig9-distance", "Figure 9"),
            ("fig10-facs-vs-scc", "Figure 10"),
        ):
            code = main(["run", figure, "--replications", "1", "--requests", "10"])
            assert code == 0
            output = capsys.readouterr().out
            assert output.startswith(f"{title} — ")
            assert "legend:" not in output and "crossover" not in output
            assert len([line for line in output.splitlines() if line.strip()]) == 4

    @pytest.mark.parametrize(
        "argv, title",
        [
            (["abl-defuzz", "--replications", "1", "--requests", "10"], "ablation-defuzzifier"),
            (["abl-threshold", "--replications", "1", "--requests", "10"], "ablation-threshold"),
            (["abl-baselines", "--replications", "1", "--requests", "10"], "ablation-baselines"),
            (["net-integration"], "7-cell network"),
        ],
        ids=["abl-defuzz", "abl-threshold", "abl-baselines", "net-integration"],
    )
    def test_ablations_and_network_integration_run(self, capsys, argv, title):
        assert main(["run", *argv]) == 0
        assert capsys.readouterr().out.startswith(title)

    def test_ablation_keeps_its_own_requests_unless_given(self, capsys):
        assert main(["run", "abl-threshold", "--replications", "1"]) == 0
        default_rows = capsys.readouterr().out
        assert main(["run", "abl-threshold", "--replications", "1", "--requests", "15"]) == 0
        given_rows = capsys.readouterr().out
        assert "      15 |" in given_rows and "      15 |" not in default_rows

    def test_ablation_rejects_executor_flags(self):
        with pytest.raises(SystemExit, match="takes no --executor"):
            main(["run", "abl-defuzz", "--executor", "thread"])

    def test_network_integration_rejects_shaping_flags(self):
        for flags in (["--replications", "2"], ["--requests", "10"], ["--stream"]):
            with pytest.raises(SystemExit):
                main(["run", "net-integration", *flags])

    @pytest.mark.parametrize(
        "experiment, flags",
        [
            ("surface-flc1", "--replications 3 --requests 10 --executor thread --workers 2"),
            ("table1-frb1", "--replications 7"),
        ],
    )
    def test_artifacts_and_surfaces_reject_sweep_flags(self, experiment, flags):
        named = ", ".join(flag for flag in flags.split() if flag.startswith("--"))
        with pytest.raises(SystemExit, match=f"takes no {named}:"):
            main(["run", experiment, *flags.split()])

    def test_a_closed_stdout_pipe_exits_without_a_traceback(self):
        # The reader closes its end before the run writes anything, so the
        # write always meets a closed pipe.
        read, write = os.pipe()
        os.close(read)
        try:
            finished = subprocess.run(
                [sys.executable, "-m", "repro", "run", "table1-frb1"],
                stdout=write,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                timeout=120,
            )
        finally:
            os.close(write)
        assert finished.returncode != 0
        assert b"Traceback" not in finished.stderr
        assert b"BrokenPipeError" not in finished.stderr

    def test_process_executor_matches_serial(self, capsys):
        base = [
            "run",
            "fig10-facs-vs-scc",
            "--replications",
            "1",
            "--requests",
            "10",
            "25",
        ]
        assert main(base) == 0
        serial_output = capsys.readouterr().out
        assert main(base + ["--executor", "process", "--workers", "2"]) == 0
        parallel_output = capsys.readouterr().out
        assert parallel_output == serial_output


class TestNetworkSweepCommand:
    def test_defaults_parse(self):
        args = build_parser().parse_args(["network-sweep"])
        assert args.rates == [0.01, 0.02, 0.03, 0.04, 0.05]
        assert args.replications == 3
        assert args.executor == "serial"
        assert args.controllers == ["FACS", "SCC", "CS"]

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "network-sweep",
                "--rates",
                "0.02",
                "0.04",
                "--replications",
                "2",
                "--duration",
                "300",
                "--controllers",
                "FACS",
                "CS",
                "--executor",
                "thread",
                "--workers",
                "2",
            ]
        )
        assert args.rates == [0.02, 0.04]
        assert args.controllers == ["FACS", "CS"]
        assert args.executor == "thread"
        assert args.workers == 2

    def test_unknown_controller_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["network-sweep", "--controllers", "Oracle"])

    def test_workers_without_pool_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["network-sweep", "--workers", "4"])

    def test_small_sweep_runs(self, capsys):
        code = main(
            [
                "network-sweep",
                "--rates",
                "0.02",
                "0.04",
                "--replications",
                "1",
                "--duration",
                "150",
                "--controllers",
                "FACS",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "FACS — multi-cell QoS vs offered load" in output
        assert "Dropping probability vs offered load" in output

    def test_thread_executor_matches_serial(self, capsys):
        base = [
            "network-sweep",
            "--rates",
            "0.03",
            "--replications",
            "1",
            "--duration",
            "150",
            "--controllers",
            "FACS",
            "SCC",
        ]
        assert main(base) == 0
        serial_output = capsys.readouterr().out
        assert main(base + ["--executor", "thread", "--workers", "2"]) == 0
        threaded_output = capsys.readouterr().out
        assert threaded_output == serial_output

    def test_run_net_sweep_experiment_id(self, capsys):
        assert main(["run", "net-sweep", "--replications", "1"]) == 0
        assert "multi-cell QoS" in capsys.readouterr().out

    def test_run_surface_experiments(self, capsys):
        assert main(["run", "surface-flc1"]) == 0
        assert "FLC1 correction value" in capsys.readouterr().out
        assert main(["run", "surface-flc2"]) == 0
        assert "FLC2 accept/reject score" in capsys.readouterr().out
