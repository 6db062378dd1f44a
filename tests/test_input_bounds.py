"""CLI overrides of a file that ends in a section, and the bounds on grid
extents, contour levels and step counts (tested by rejection only; the
command lines that exceed them are rows of ``test_exit_codes``)."""

import numpy as np
import pytest

from sqgkit.cli import main
from sqgkit.errors import ConstraintViolation, DomainError
from sqgkit.fileio import parse_config, render_contour
from sqgkit.integrator import SolverParams
from sqgkit.spectral import GridSpec, PhysicalField

_SECTION_LAST = ("kappa = 0.01\nalpha = 0.5\ngrid = 16\nt_end = 0.1\ndt = 0.01\n"
                 "mode = exact\noutputs = report\noutdir = elsewhere\n"
                 "[solution]\nfamily = unidirectional\nn = 1\nm = 2\nmodes = 1:0.5:0.2\n")


class TestOverridesBeforeTheFirstSection:
    @pytest.mark.parametrize("command", ["scenario", "simulate"])
    def test_outdir_flag_on_a_file_ending_in_a_section(self, command, tmp_path, capsys):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(_SECTION_LAST)
        outdir = tmp_path / "d"
        argv = ([command, str(cfg)] if command == "scenario"
                else [command, "--config", str(cfg)]) + ["--outdir", str(outdir)]
        assert main(argv) == 0, capsys.readouterr().err
        assert (outdir / "report.csv").is_file()
        assert not (tmp_path / "elsewhere").exists()

    def test_flags_still_win_over_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(_SECTION_LAST)
        assert main(["simulate", "--config", str(cfg), "--outdir", str(tmp_path / "d"),
                     "--t-end", "0.2", "--dt", "0.05"]) == 0
        rows = (tmp_path / "d" / "report.csv").read_text().splitlines()
        assert rows[-1].split(",")[2] == "0.20000000000000001"


class TestRejection:
    _HEAD = "solution = theta1\nkappa = 0.1\nalpha = 0.5\n"

    @pytest.mark.parametrize("body, key", [
        ("grid = 16384\nt_end = 0\n", "grid"),
        ("grid = 16x16384\nt_end = 0\n", "grid"),
        ("grid = 16\nt_end = 0\nlevels = 1000000000\n", "levels"),
        ("grid = 16\nt_end = 1\ndt = 1e-300\n", "steps"),
        ("grid = 16\nt_end = 1e300\ndt = 1e-300\n", "steps"),
    ])
    def test_parse_config(self, body, key):
        with pytest.raises(ConstraintViolation, match=key):
            parse_config(self._HEAD + body)

    def test_grid_spec(self):
        with pytest.raises(ValueError, match="8192"):
            GridSpec(16384, 16)

    @pytest.mark.parametrize("dt, t_end", [(1e-300, 1.0), (1e-8, 1.0), (1e-300, 1e300)])
    def test_solver_params(self, dt, t_end):
        with pytest.raises(DomainError, match="steps"):
            SolverParams(kappa=0.1, alpha=0.5, dt=dt, t_end=t_end)

    def test_render_contour(self, tmp_path):
        f = PhysicalField(GridSpec(4, 4), np.ones((4, 4)))
        with pytest.raises(ValueError, match="4096"):
            render_contour(f, tmp_path / "x.ppm", levels=10**9)
        assert not (tmp_path / "x.ppm").exists()

