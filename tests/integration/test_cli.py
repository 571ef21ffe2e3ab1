"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "doom3"])

    def test_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "swim", "--machine", "alpha"])


class TestCommands:
    def test_list(self):
        code, out = run_cli("list")
        assert code == 0
        for bench in ("BZIP2", "SWIM", "WUPWISE"):
            assert bench in out
        assert out.count("RBR") >= 7  # method column populated

    def test_analyze_regular(self):
        code, out = run_cli("analyze", "swim")
        assert code == 0
        assert "Input(TS)" in out
        assert "Context variables" in out
        assert "=> CBR" in out

    def test_analyze_irregular(self):
        code, out = run_cli("analyze", "bzip2")
        assert code == 0
        assert "CBR inapplicable" in out
        assert "=> RBR" in out

    def test_tune_with_restricted_flags(self):
        code, out = run_cli(
            "tune", "swim", "--machine", "pentium4",
            "--flags", "schedule-insns", "gcse",
        )
        assert code == 0
        assert "method   : CBR" in out
        assert "schedule-insns" in out
        assert "% vs -O3 on ref" in out

    def test_tune_rejects_unknown_flag(self):
        code, _ = run_cli(
            "tune", "swim", "--flags", "fast-math-but-wrong",
        )
        assert code == 2

    def test_tune_with_alternate_search(self):
        code, out = run_cli(
            "tune", "swim", "--machine", "pentium4", "--search", "be",
            "--flags", "schedule-insns", "gcse",
        )
        assert code == 0
        assert "search   : BE" in out

    def test_consistency(self):
        code, out = run_cli(
            "consistency", "swim", "--samples", "3",
        )
        assert code == 0
        assert "SWIM" in out
        assert "w=160" in out

    def test_fig7_single_benchmark(self):
        code, out = run_cli(
            "fig7", "--machine", "pentium4", "--benchmarks", "swim",
            "--exec-tier", "1",
        )
        assert code == 0
        assert "CBR*" in out  # the consultant's choice is starred
        assert "WHL" in out
