"""Tests for the experiment harnesses and the command-line interface."""

import re

import pytest

from repro.experiments import (
    format_panel,
    format_table1,
    run_panel,
    run_row,
    select_specs,
)
from repro.experiments.table1 import Table1Row
from repro.generators.iscas import SUITE


class TestTable1Harness:
    def test_select_specs_tiers(self):
        smoke = select_specs("smoke")
        paper = select_specs("paper")
        assert {s.name for s in smoke} < {s.name for s in paper}
        assert len(paper) == len(SUITE)

    def test_select_specs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TIER", "smoke")
        assert [s.name for s in select_specs()] == [
            s.name for s in select_specs("smoke")
        ]

    def test_select_specs_bad_tier(self):
        with pytest.raises(ValueError, match="tier"):
            select_specs("galaxy")

    def test_run_row_smallest(self):
        spec = next(s for s in SUITE if s.name == "c432eq")
        row = run_row(spec)
        assert row.feasible
        assert row.area_saving_percent > 0
        assert row.tilos_seconds > 0
        assert row.n_gates > 100

    def test_format_table1(self):
        rows = [
            Table1Row(
                name="demo",
                n_gates=10,
                paper_gates=12,
                delay_spec=0.4,
                feasible=True,
                area_saving_percent=5.0,
                paper_saving_percent=4.0,
                tilos_seconds=0.1,
                minflo_extra_seconds=0.2,
                minflo_iterations=7,
                area_ratio_vs_min=1.5,
            ),
            Table1Row(
                name="bad",
                n_gates=10,
                paper_gates=12,
                delay_spec=0.4,
                feasible=False,
                area_saving_percent=float("nan"),
                paper_saving_percent=4.0,
                tilos_seconds=0.1,
                minflo_extra_seconds=float("nan"),
                minflo_iterations=0,
                area_ratio_vs_min=float("nan"),
            ),
        ]
        text = format_table1(rows)
        assert "demo" in text
        assert "5.0" in text
        assert "--" in text  # infeasible row rendered with placeholders


class TestFigure7Harness:
    def test_run_panel_small(self):
        curve = run_panel("c17", ratios=[0.6, 1.0])
        assert len(curve.points) == 2
        text = format_panel(curve)
        assert "c17" in text
        assert "T/Dmin" in text


class TestCli:
    def test_suite_listing(self, capsys):
        from repro.__main__ import main

        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "c6288eq" in out

    def test_stats(self, capsys):
        from repro.__main__ import main

        assert main(["stats", "c17"]) == 0
        out = capsys.readouterr().out
        assert "6 gates" in out
        assert "NAND2" in out

    def test_size_command(self, capsys, tmp_path):
        from repro.__main__ import main

        out_file = tmp_path / "sizes.txt"
        code = main(
            ["size", "c17", "--spec", "0.6", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        lines = out_file.read_text().splitlines()
        assert len(lines) == 6  # one per gate
        out = capsys.readouterr().out
        assert "area saved over TILOS" in out

    def test_size_phase_stats_is_a_span_view(self, capsys):
        """``--phase-stats`` groups the run's spans by name: one row
        per phase with its call count, the TILOS bumps, the D-phase
        solves per backend and the W-phase sweeps."""
        from repro.__main__ import main

        assert main(["size", "c17", "--spec", "0.6", "--phase-stats"]) == 0
        out = capsys.readouterr().out
        iterations = int(re.search(r"(\d+) iterations,", out).group(1))
        rows = {
            line.split()[0]: line.split()
            for line in out.splitlines()
            if line.startswith(("tilos.seed", "minflo"))
        }
        assert list(rows) == [
            "tilos.seed", "minflo.timing", "minflo.balance",
            "minflo.d_phase", "minflo.w_phase", "minflo",
        ]
        assert rows["tilos.seed"][1] == rows["minflo"][1] == "1"
        assert rows["minflo.timing"][1] == str(2 * iterations)
        for name in ("minflo.balance", "minflo.d_phase", "minflo.w_phase"):
            assert rows[name][1] == str(iterations)
        assert "bumps, timing cone" in out
        # c17's LPs are small: every solve is network simplex.
        assert f"LP solves: networkx {iterations}" in out
        assert "SMP sweeps" in out

    def test_size_infeasible_spec(self, capsys):
        from repro.__main__ import main

        code = main(["size", "c17", "--spec", "0.01"])
        assert code == 1
        assert "delay floor" in capsys.readouterr().out

    def test_size_bench_file(self, capsys, tmp_path, c17):
        from repro.__main__ import main
        from repro.circuit import save_bench

        path = save_bench(c17, tmp_path / "mine.bench")
        assert main(["size", str(path), "--spec", "0.7"]) == 0

    def test_size_wires_flag(self, capsys):
        from repro.__main__ import main

        assert main(["size", "c17", "--spec", "0.6", "--wires"]) == 0

    def test_unknown_circuit_exit_code(self, capsys):
        from repro.__main__ import main

        assert main(["size", "nosuchckt", "--spec", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'nosuchckt'" in err
        assert "c432eq" in err  # the message lists the known names

    def test_unknown_circuit_stats_exit_code(self, capsys):
        from repro.__main__ import main

        assert main(["stats", "nosuchckt"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_nonpositive_spec_exit_code(self, capsys):
        from repro.__main__ import main

        for bad in ("0", "-0.4"):
            assert main(["size", "c17", "--spec", bad]) == 2
            assert "positive fraction" in capsys.readouterr().err

    def test_bad_backend_exit_code(self, capsys):
        from repro.__main__ import main

        assert main(["size", "c17", "--spec", "0.6",
                     "--flow-backend", "warp-drive"]) == 2
        assert "unknown flow backend" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["ssp", "ssp-legacy", "cplex"])
    @pytest.mark.parametrize("command", [
        ["size", "c17", "--spec", "0.6"],
        ["campaign", "run", "--circuits", "c17", "--no-cache"],
        ["table1", "--tier", "smoke"],
    ])
    def test_unknown_backend_is_a_usage_error(self, capsys, command, name):
        """Rejected while parsing: exit 2, an error line and no work
        (every command prints to stdout once it starts sizing)."""
        from repro.__main__ import main

        assert main([*command, "--flow-backend", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown flow backend {name!r}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [
        ["campaign", "run", "--circuits", "c17", "--no-cache",
         "--kind", "wphase"],
        ["campaign", "run", "--circuits", "c17", "--no-cache", "--batch"],
        ["campaign", "resume", "runs/none", "--batch"],
        ["serve", "--batch-drain", "2"],
        ["size", "c17", "--spec", "0.6", "--kernel", "scalar"],
        ["campaign", "run", "--circuits", "c17", "--warm-corpus"],
        ["campaign", "resume", "runs/none", "--warm-corpus"],
        ["serve", "--warm-corpus"],
        ["size", "c17", "--spec", "0.6", "--flow-stats"],
        ["campaign", "run", "--circuits", "c17", "--no-cache",
         "--kind", "sizing"],
    ])
    def test_removed_options_are_usage_errors(self, capsys, command):
        """The batched ``wphase`` kind, the engine selectors, the
        warm-corpus switch, the flow-solver totals and the job-kind
        selector are gone: asking for them is a parse-time usage
        error, before any solve."""
        from repro.__main__ import main

        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert ("unrecognized arguments" in captured.err
                or "invalid choice: 'wphase'" in captured.err)

    def test_suite_json(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["suite", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["name"] for e in entries} == {s.name for s in SUITE}
        assert all("delay_spec" in e and "tier" in e for e in entries)

    def test_stats_json(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["stats", "c17", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["name"] == "c17"
        assert info["n_gates"] == 6
        assert info["cells"]["NAND2"] == 6
