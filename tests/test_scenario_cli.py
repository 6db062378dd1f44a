"""End-to-end tests for scenario runs and the command-line interface."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from sqgkit.cli import main
from sqgkit.errors import ConstraintViolation
from sqgkit.fileio import ScenarioConfig, parse_config, read_field_csv, read_field_csv_time
from sqgkit.scenario import RESIDUAL_TOL, builtin_scenarios, run_builtin, run_scenario
from sqgkit.spectral import GridSpec


def _config(tmp_path, **overrides):
    base = dict(solution="theta1", kappa=0.001, alpha=0.001,
                grid=GridSpec(32, 32), t_end=0.5, dt=0.01,
                outdir=str(tmp_path / "out"), outputs=("csv", "report"))
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRunScenario:
    def test_exact_solution_runs_all_checks(self, tmp_path):
        result = run_scenario(_config(tmp_path, snapshot_times=(0.25,)))
        assert result.exit_code == 0
        names = {c.check for c in result.checks}
        assert names == {"residual_linf", "correlation_dev", "solver_rel_l2",
                         "decay_rate_rel_err"}
        assert all(c.status == "pass" for c in result.checks)
        for path in result.artifacts:
            assert os.path.exists(path)

    def test_report_file_round_trips_values(self, tmp_path):
        result = run_scenario(_config(tmp_path))
        lines = open(result.report_path).read().splitlines()
        assert lines[0] == "check,subject,time,value,threshold,status"
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        match = [c for c in result.checks if c.check == row["check"]
                 and f"{c.time:.17g}" == row["time"]]
        assert match and float(row["value"]) == match[0].value

    def test_csv_artifacts_carry_their_time(self, tmp_path):
        result = run_scenario(_config(tmp_path, snapshot_times=(0.25,)))
        csvs = sorted(p for p in result.artifacts if p.endswith(".csv")
                      and "report" not in p)
        times = sorted(read_field_csv_time(p) for p in csvs)
        assert times == [0.0, 0.25, 0.5]
        f = read_field_csv(csvs[0])
        assert f.grid == GridSpec(32, 32)

    def test_close_snapshot_times_get_their_own_files(self, tmp_path):
        # Both times print as 0.1 with {:g}; the second keeps all 17 digits.
        cfg = parse_config(f"solution = theta1\nkappa = 0.001\nalpha = 0.001\ngrid = 16\n"
                           f"t_end = 0.5\ndt = 0.01\nsnapshots = 0.1, 0.1000001\n"
                           f"mode = exact\noutputs = csv\noutdir = {tmp_path / 'out'}\n")
        result = run_scenario(cfg)
        names = [os.path.basename(p) for p in result.artifacts]
        assert names == ["theta1_t0.csv", "theta1_t0.1.csv",
                         "theta1_t0.10000009999999999.csv", "theta1_t0.5.csv"]
        assert [read_field_csv_time(p) for p in result.artifacts] == [0.0, 0.1, 0.1000001, 0.5]

    def test_unidirectional_check_rows_appear(self, tmp_path):
        cfg = parse_config(textwrap.dedent(f"""
            solution = theta3
            kappa = 0.01
            alpha = 0.5
            grid = 32
            t_end = 0.2
            dt = 0.005
            outputs = report
            outdir = {tmp_path / 'uni'}
        """))
        result = run_scenario(cfg)
        assert result.exit_code == 0
        assert any(c.check == "unidirectional_offray" for c in result.checks)

    def test_datum_defaults_to_simulate_with_info_row(self, tmp_path):
        cfg = _config(tmp_path, solution="con-2", kappa=0.01, alpha=0.4,
                      t_end=0.1, dt=0.005)
        result = run_scenario(cfg)
        assert result.exit_code == 0
        rows = {c.check: c for c in result.checks}
        assert rows["correlation_final"].status == "info"
        # con-2 has no lookalike solution object, so no validation row.
        assert "validation_rejected" not in rows

    def test_datum_with_unmet_correlation_requirement_fails(self, tmp_path):
        # Over a very short horizon the pattern has barely moved, so a
        # requirement of < 0.9 must fail and surface as exit code 1.
        cfg = _config(tmp_path, solution="con-1", kappa=0.01, alpha=0.4,
                      t_end=0.05, dt=0.005, require_correlation_below=0.9)
        result = run_scenario(cfg)
        assert result.exit_code == 1
        rows = {c.check: c for c in result.checks}
        assert rows["correlation_final"].status == "fail"
        assert rows["correlation_final"].value > 0.99
        assert rows["validation_rejected"].status == "pass"

    def test_exact_mode_on_datum_is_rejected(self, tmp_path):
        cfg = _config(tmp_path, solution="con-3", mode="exact", t_end=0.0, dt=None)
        with pytest.raises(ConstraintViolation, match="exact"):
            run_scenario(cfg)

    def test_explicit_solution_object(self, tmp_path):
        cfg = parse_config(textwrap.dedent(f"""
            kappa = 0.02
            alpha = 0.3
            grid = 32
            t_end = 0.2
            dt = 0.005
            outputs = report
            outdir = {tmp_path / 'custom'}
            [solution]
            family = eigenmode
            n = 2
            m = 1
            c2 = 0.7
            c3 = -0.1
        """))
        result = run_scenario(cfg)
        assert result.exit_code == 0
        assert any(c.check == "solver_rel_l2" for c in result.checks)


    @pytest.mark.parametrize("section", [
        "family = unidirectional\nn = 1\nm = 2\nmodes = 0:1.0:0.0",
        "family = unidirectional\nn = 1\nm = 2\nmodes = 1:0:0",
        "family = eigenmode\nn = 2\nm = 1\nk = 3",
    ], ids=["mean-only", "zero-unidirectional", "zero-eigenmode"])
    @pytest.mark.parametrize("mode", ["exact", "both"])
    def test_zero_and_mean_only_solutions_pass(self, tmp_path, section, mode):
        cfg = parse_config(f"kappa = 0.01\nalpha = 0.5\ngrid = 32\nt_end = 0.5\n"
                           f"dt = 0.05\nsnapshots = 0.25\nmode = {mode}\n"
                           f"outputs = report\noutdir = {tmp_path}\n[solution]\n{section}\n")
        result = run_scenario(cfg)
        assert result.exit_code == 0
        assert all(c.status == "pass" for c in result.checks)


class TestBuiltinScenarios:
    def test_names(self):
        assert builtin_scenarios() == ("figure1", "constantin-negative")

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_builtin("figure2")

    def test_figure1_writes_six_images_and_passes(self, tmp_path):
        result = run_builtin("figure1", outdir=str(tmp_path / "fig"))
        assert result.exit_code == 0
        ppms = [p for p in result.artifacts if p.endswith(".ppm")]
        assert len(ppms) == 6
        expected = {f"{name}_t{t}.ppm"
                    for name in ("theta1", "theta2", "theta3") for t in (0, 100)}
        assert {os.path.basename(p) for p in ppms} == expected
        for p in result.artifacts:
            assert os.path.exists(p)
        assert all(c.status == "pass" for c in result.checks)


class TestCli:
    def test_eval_then_render_reproduces_the_image(self, tmp_path):
        csv = tmp_path / "f.csv"
        ppm_a = tmp_path / "a.ppm"
        ppm_b = tmp_path / "b.ppm"
        assert main(["eval", "--solution", "theta1", "--grid", "32",
                     "--csv", str(csv), "--ppm", str(ppm_a)]) == 0
        # The CSV is value-exact, so rendering it must give identical bytes.
        assert main(["render", "--input", str(csv), "--output", str(ppm_b)]) == 0
        assert ppm_a.read_bytes() == ppm_b.read_bytes()

    def test_eval_datum_at_time_zero_works(self, tmp_path):
        out = tmp_path / "c2.csv"
        assert main(["eval", "--solution", "con-2", "--csv", str(out)]) == 0
        assert out.exists()

    def test_verify_passes_for_theta2(self, capsys):
        code = main(["verify", "--solution", "theta2", "--kappa", "1", "--alpha",
                     "0.75", "--times", "0,1,10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and out.count("t = ") == 3
        assert f"tolerance {RESIDUAL_TOL:g}" in out   # the scenario's residual gate

    def test_verify_rejects_con1(self, capsys):
        assert main(["verify", "--solution", "con-1"]) == 1
        out = capsys.readouterr().out
        assert "NOT an exact solution" in out
        assert "2 != 1" in out

    def test_simulate_from_flags(self, tmp_path):
        outdir = tmp_path / "run"
        code = main(["simulate", "--solution", "theta1", "--kappa", "0.001",
                     "--alpha", "0.001", "--grid", "32", "--t-end", "0.5",
                     "--dt", "0.01", "--snapshots", "0.25",
                     "--outputs", "report", "--outdir", str(outdir)])
        assert code == 0
        assert (outdir / "report.csv").exists()

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(textwrap.dedent(f"""
            solution = theta1
            kappa = 0.001
            alpha = 0.001
            grid = 32
            t_end = 0.2
            dt = 0.01
            outputs = report
            outdir = {tmp_path / 'from-file'}
        """))
        flag_dir = tmp_path / "from-flag"
        code = main(["simulate", "--config", str(cfg), "--outdir", str(flag_dir)])
        assert code == 0
        assert (flag_dir / "report.csv").exists()
        assert not (tmp_path / "from-file").exists()

    def test_scenario_runs_a_config_file(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("solution = theta1\nkappa = 0.001\nalpha = 0.001\n"
                       "grid = 32\nt_end = 0.2\ndt = 0.01\noutputs = report\n")
        code = main(["scenario", str(cfg), "--outdir", str(tmp_path / "s-out")])
        assert code == 0
        assert (tmp_path / "s-out" / "report.csv").exists()

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_module_entry_point(self, tmp_path):
        # The same CLI must work as an installed module invocation.
        proc = subprocess.run(
            [sys.executable, "-m", "sqgkit.cli", "verify", "--solution", "theta1"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
