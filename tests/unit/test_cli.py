"""Unit tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_stationary_point(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--cc", "0.3", "--cd", "1.2")
        assert code == 0
        assert "2.500" in out  # SA factor
        assert "2.300" in out  # DA factor (Thm 3)
        assert "DA" in out

    def test_mobile_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--cc", "0.5", "--cd", "2.0", "--mobile"
        )
        assert code == 0
        assert "inf" in out  # SA not competitive

    def test_infeasible_point_reports_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--cc", "2.0", "--cd", "1.0")
        assert code == 1
        assert "error" in err


class TestCompare:
    def test_inline_schedule(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--schedule", "r5 r5 w1 r5",
            "--algorithms", "SA,DA",
        )
        assert code == 0
        assert "SA" in out and "DA" in out and "exact" in out

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("r5 r5\nw1 r5\n")
        code, out, _ = run_cli(capsys, "compare", "--trace", str(path))
        assert code == 0
        assert "4 requests" in out

    def test_missing_input_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compare")
        assert code == 2
        assert "schedule" in err

    def test_custom_scheme(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--schedule", "r1",
            "--scheme", "1,2,3",
        )
        assert code == 0
        assert "[1, 2, 3]" in out


class TestRegions:
    def test_theoretical_map(self, capsys):
        code, out, _ = run_cli(capsys, "regions", "--steps", "5")
        assert code == 0
        assert "Figure 1 (theory)" in out
        assert "D" in out and "S" in out

    def test_mobile_map(self, capsys):
        code, out, _ = run_cli(capsys, "regions", "--mobile", "--steps", "4")
        assert code == 0
        assert "Figure 2" in out
        # No SA region anywhere in the mobile map's grid rows.
        grid_rows = [line for line in out.splitlines() if "|" in line]
        assert grid_rows
        assert all("S" not in row for row in grid_rows)

    def test_empirical_map(self, capsys):
        code, out, _ = run_cli(
            capsys, "regions", "--empirical", "--steps", "3"
        )
        assert code == 0
        assert "measured" in out


class TestSimulate:
    def test_da_protocol(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--schedule", "r5 w1 r5", "--protocol", "DA"
        )
        assert code == 0
        assert "control messages" in out
        assert "priced cost" in out

    def test_seeded_workload_is_reproducible(self, capsys):
        seeded = (
            "simulate", "--seed", "11", "--processors", "4",
            "--length", "40", "--protocol", "DA",
        )
        code_a, out_a, _ = run_cli(capsys, *seeded)
        code_b, out_b, _ = run_cli(capsys, *seeded)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_different_seeds_differ(self, capsys):
        base = ("simulate", "--processors", "4", "--length", "40")
        _, out_a, _ = run_cli(capsys, *base, "--seed", "11")
        _, out_b, _ = run_cli(capsys, *base, "--seed", "12")
        assert out_a != out_b

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("r3 w1 r3 r2\n")
        code, out, _ = run_cli(
            capsys, "simulate", "--trace", str(path), "--protocol", "SA"
        )
        assert code == 0
        assert "control messages" in out


class TestClusterCLI:
    def test_run_check_parity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cluster", "run", "--protocol", "DA", "--nodes", "3",
            "--seed", "7", "--length", "30", "--write-fraction", "0.25",
            "--check-parity",
        )
        assert code == 0
        assert "parity OK" in out
        assert "node" in out  # the per-node metrics table

    def test_run_check_parity_with_delay(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cluster", "run", "--protocol", "SA", "--nodes", "3",
            "--seed", "3", "--length", "20", "--delay-ms", "1",
            "--check-parity",
        )
        assert code == 0
        assert "with injected delays" in out

    def test_bench_reports_throughput(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cluster", "bench", "--protocol", "DA", "--nodes", "3",
            "--count", "30", "--rate", "500", "--seed", "2",
        )
        assert code == 0
        assert "req/s" in out
        assert "p95" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "x"])
    def test_delay_ms_must_be_finite_and_non_negative(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "run", "--length", "5", "--delay-ms", value])
        assert excinfo.value.code == 2
        assert "expected a finite non-negative number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rate_must_be_finite(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "bench", "--count", "5", "--rate", value])
        assert excinfo.value.code == 2
        assert "expected a finite non-negative number" in capsys.readouterr().err


class TestWorkload:
    def test_stdout_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "workload", "--kind", "uniform", "--length", "12"
        )
        assert code == 0
        assert len(out.split()) == 12

    def test_file_output_roundtrips(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        code, out, _ = run_cli(
            capsys,
            "workload", "--kind", "markov", "--length", "30",
            "--out", str(path),
        )
        assert code == 0
        from repro.workloads import trace

        assert len(trace.load(path)) == 30

    def test_mobile_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "workload", "--kind", "mobile", "--length", "10"
        )
        assert code == 0
        assert len(out.split()) == 10


class TestExpected:
    def test_table_and_crossover(self, capsys):
        code, out, _ = run_cli(
            capsys, "expected", "--cc", "0.1", "--cd", "0.6", "--n", "6"
        )
        assert code == 0
        assert "write fraction" in out
        assert "crossover" in out


class TestDescribe:
    def test_inline_schedule(self, capsys):
        code, out, _ = run_cli(
            capsys, "describe", "--schedule", "r5 r5 r5 w1 r5"
        )
        assert code == 0
        assert "write-free segments" in out

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("r5 w1 r5\n")
        code, out, _ = run_cli(capsys, "describe", "--trace", str(path))
        assert code == 0
        assert "3 requests" in out

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "describe")
        assert code == 2


class TestCalibrate:
    def test_wired_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate")
        assert code == 0
        assert "SC(" in out
        assert "recommendation" in out

    def test_wireless_tariff(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--tariff")
        assert code == 0
        assert "MC(" in out
        assert "dynamic allocation" in out

    def test_big_object_lands_in_da_region(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate",
            "--object-bytes", "1000000", "--bandwidth", "1000",
        )
        assert code == 0
        assert "DA" in out


SWEEP_GOLDEN = """\
Sweep of c_d over 2 points (SC model, 2 x 6-request uniform schedules per point, seed 3)
  c_d  DA max ratio  SA max ratio  DA mean cost  SA mean cost
-----  ------------  ------------  ------------  ------------
0.500         1.408         1.175        12.800        10.750
1.000         1.106         1.149        10.400        10.600
"""


class TestSweep:
    GRID = (
        "sweep", "--parameter", "c_d", "--values", "0.5,1.0",
        "--processors", "4", "--length", "6", "--schedules", "2",
        "--seed", "3",
    )

    def test_golden_output_on_tiny_grid(self, capsys):
        code, out, _ = run_cli(capsys, *self.GRID)
        assert code == 0
        assert out == SWEEP_GOLDEN

    def test_parallel_run_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.GRID, "--workers", "2", "--chunksize", "2"
        )
        assert code == 0
        assert out == SWEEP_GOLDEN

    def test_cache_dir_reruns_match_golden(self, capsys, tmp_path):
        argv = self.GRID + ("--cache-dir", str(tmp_path / "cache"))
        first_code, first_out, _ = run_cli(capsys, *argv)
        second_code, second_out, _ = run_cli(capsys, *argv)
        assert first_code == second_code == 0
        assert first_out == second_out == SWEEP_GOLDEN

    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, *self.GRID, "--csv", str(path))
        assert code == 0
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("c_d,")
        assert "SA" in header and "DA" in header

    def test_write_fraction_parameter(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--parameter", "write_fraction",
            "--values", "0.0,0.5", "--processors", "3", "--length", "5",
            "--schedules", "1",
        )
        assert code == 0
        assert "write_fraction" in out

    def test_unknown_parameter_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--parameter", "bogus", "--values", "1.0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "write_fraction" in err  # the valid choices are listed

    def test_zero_workers_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.GRID + ("--workers", "0"))
        assert excinfo.value.code == 2
        assert "expected a positive integer, got 0" in capsys.readouterr().err

    def test_negative_workers_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.GRID + ("--workers", "-3"))
        assert excinfo.value.code == 2

    def test_malformed_values_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--parameter", "c_d", "--values", "0.5,oops"])
        assert excinfo.value.code == 2
        assert "comma-separated" in capsys.readouterr().err


class TestAvailability:
    def test_rowa_table_and_best_quorums(self, capsys):
        code, out, _ = run_cli(
            capsys, "availability", "--p", "0.9", "--n", "5",
            "--write-fraction", "0.1",
        )
        assert code == 0
        assert "ROWA" in out
        assert "majority quorum" in out
        assert "best quorums" in out
        assert "r=2" in out  # read-heavy mix prefers small read quorums


class TestBench:
    def test_smoke_run_with_json_report(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "bench.json"
        code, out, _ = run_cli(
            capsys, "bench", "--smoke", "--out", str(out_path)
        )
        assert code == 0
        assert "SA" in out and "DA" in out and "DP" in out
        report = json.loads(out_path.read_text())
        assert report["config"]["smoke"] is True
        assert set(report["algorithms"]) == {"SA", "DA"}
        for entry in report["algorithms"].values():
            assert entry["costs_match"]
            assert entry["kernel_requests_per_second"] > 0
            assert entry["generate_seconds"] > 0
            # The end-to-end kernel time is exactly its two layers.
            assert entry["kernel_seconds"] == (
                entry["compile_seconds"] + entry["evaluate_seconds"]
            )
        assert "compile" in out and "evaluate" in out
        assert report["dp"]["seconds"] >= 0

    def test_check_flag_passes_on_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--smoke", "--check")
        assert code == 0
        assert "check PASSED" in out
