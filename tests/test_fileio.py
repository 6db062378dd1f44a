"""Tests for config parsing, field CSV round trips, and PPM rendering."""

import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sqgkit.errors import ConstraintViolation, FormatError, ParseError, UnknownKey
from sqgkit.fileio import (
    _lines,
    parse_config,
    read_field_csv,
    read_field_csv_time,
    render_contour,
    write_field_csv,
)
from sqgkit.solutions import EigenmodeSolution, UnidirectionalSolution
from sqgkit.spectral import GridSpec, PhysicalField

MINIMAL = """
solution = theta1
kappa = 0.001
alpha = 0.001
grid = 64
t_end = 10
dt = 0.01
"""


class TestParseConfig:
    def test_minimal_builtin_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.solution == "theta1"
        assert cfg.kappa == 0.001 and cfg.alpha == 0.001
        assert cfg.grid == GridSpec(64, 64)
        assert cfg.t_end == 10.0 and cfg.dt == 0.01
        assert cfg.outputs == ("csv", "ppm", "report")
        assert cfg.mode == "auto" and cfg.dealias is True
        assert cfg.name == "theta1"

    def test_full_config_with_comments(self):
        cfg = parse_config(textwrap.dedent("""
            # a full scenario
            solution = theta3
            kappa = 0.5       # trailing comment
            alpha = 0.25
            grid = 64x32
            t_end = 2
            dt = 0.005
            snapshots = 1.5, 0.5, 1.0
            dealias = false
            outdir = out/run1
            outputs = report, csv
            levels = 11
            mode = both
            name = myrun
            require_correlation_below = 0.9
        """))
        assert cfg.grid == GridSpec(64, 32)
        assert cfg.snapshot_times == (0.5, 1.0, 1.5)
        assert cfg.dealias is False
        assert cfg.outdir == "out/run1"
        assert cfg.outputs == ("report", "csv")
        assert cfg.levels == 11 and cfg.mode == "both" and cfg.name == "myrun"
        assert cfg.require_correlation_below == 0.9

    def test_last_assignment_wins(self):
        cfg = parse_config(MINIMAL + "\nkappa = 1.0\n")
        assert cfg.kappa == 1.0

    def test_pgm_is_an_alias_for_ppm(self):
        cfg = parse_config(MINIMAL + "\noutputs = pgm\n")
        assert cfg.outputs == ("ppm",)

    def test_t_end_zero_needs_no_dt(self):
        text = "solution = con-2\nkappa = 1\nalpha = 0\ngrid = 32\nt_end = 0\n"
        assert parse_config(text).dt is None

    def test_explicit_eigenmode_section(self):
        cfg = parse_config(textwrap.dedent("""
            kappa = 0.01
            alpha = 0.5
            grid = 64
            t_end = 0
            [solution]
            family = eigenmode
            n = 4
            m = 3
            k = 5
            c1 = 1.0
            c5 = 0.25
        """))
        sol = cfg.solution
        assert isinstance(sol, EigenmodeSolution)
        assert (sol.n, sol.m, sol.k, sol.c1, sol.c5) == (4, 3, 5, 1.0, 0.25)
        assert sol.kappa == 0.01 and sol.alpha == 0.5
        assert cfg.name == "custom"

    def test_explicit_unidirectional_section(self):
        cfg = parse_config(textwrap.dedent("""
            kappa = 0.01
            alpha = 0.5
            grid = 64
            t_end = 0
            [solution]
            family = unidirectional
            n = 1
            m = -2
            modes = 1:0.5:0, 3:0:1.25
        """))
        sol = cfg.solution
        assert isinstance(sol, UnidirectionalSolution)
        assert sol.modes == ((1, 0.5, 0.0), (3, 0.0, 1.25))

    def test_missing_required_keys(self):
        with pytest.raises(ParseError) as exc:
            parse_config("kappa = 1\n")
        joined = str(exc.value)
        for key in ("alpha", "grid", "t_end", "solution"):
            assert key in joined

    def test_missing_dt_with_positive_t_end(self):
        text = "solution = theta1\nkappa = 1\nalpha = 0\ngrid = 32\nt_end = 1\n"
        with pytest.raises(ParseError, match="dt"):
            parse_config(text)

    def test_malformed_line_reports_its_number(self):
        with pytest.raises(ParseError) as exc:
            parse_config(MINIMAL + "\nthis is not an assignment\n")
        assert any(isinstance(loc, int) for loc, _ in exc.value.issues)
        assert "key = value" in str(exc.value)

    def test_unknown_key(self):
        with pytest.raises(UnknownKey, match="kapa"):
            parse_config(MINIMAL + "\nkapa = 2\n")

    @pytest.mark.parametrize("line,fragment", [
        ("kappa = 0", "kappa"),
        ("kappa = -3", "kappa"),
        ("alpha = 1.0", "alpha"),
        ("alpha = -0.2", "alpha"),
        ("grid = 13", "grid"),
        ("levels = 1", "levels"),
        ("mode = sideways", "mode"),
        ("outputs = csv, svg", "svg"),
        ("snapshots = 5, 20", "snapshots"),
    ])
    def test_semantic_violations(self, line, fragment):
        with pytest.raises(ConstraintViolation, match=fragment):
            parse_config(MINIMAL + "\n" + line + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "0.5, nan"])
    def test_non_finite_snapshots(self, value):
        with pytest.raises(ConstraintViolation, match="snapshots"):
            parse_config(MINIMAL + f"\nsnapshots = {value}\n")

    def test_unknown_builtin_name(self):
        with pytest.raises(ConstraintViolation, match="theta9"):
            parse_config(MINIMAL.replace("theta1", "theta9"))

    def test_invalid_explicit_solution(self):
        with pytest.raises(ConstraintViolation, match="2 != 1"):
            parse_config(textwrap.dedent("""
                kappa = 0.001
                alpha = 0.4
                grid = 64
                t_end = 0
                [solution]
                family = eigenmode
                n = 1
                m = 1
                k = 1
                c1 = 1
                c8 = 1
            """))

    @pytest.mark.parametrize("lines, issues", [
        ("family = eigenmode\nn = 1\nm = 0\nc1 = x\n", [(9, "c1 must be a number, got 'x'")]),
        ("family = unidirectional\nn = 0\nm = 0\nmodes = 1:1:0, x\n",
         [(9, "modes entries must be k:a:b, got 'x'")]),
        ("family = unidirectional\nm = 2\nmodes = 1:1:0\n", [(6, "missing required key: n")]),
    ])
    def test_a_bad_or_missing_section_key_is_its_only_issue(self, lines, issues):
        # The section is not validated, so n*m = 0 or n = m = 0 adds nothing.
        with pytest.raises(ParseError) as exc:
            parse_config("kappa = 0.001\nalpha = 0.4\ngrid = 64\nt_end = 0\n[solution]\n" + lines)
        assert exc.value.issues == issues

    @pytest.mark.parametrize("lines, error, issue", [
        ("family = eigenmode\nn = 1\nc1 = 1\nfamily = eigenmode\n",
         ParseError, "missing required key: m"),
        ("family = circle\nn = 1\nm = 1\nfamily = circle\n",
         ConstraintViolation, "family must be eigenmode or unidirectional, got 'circle'"),
        ("n = 1\nfamily = eigenmode\nm = 1\nk = 1\nc1 = 1\nc6 = 1\nn = 1\n",
         ConstraintViolation, "invalid solution: constraint n^2+m^2 = k^2 violated: 2 != 1"),
    ])
    def test_a_section_issue_is_at_its_first_keys_first_entry(self, lines, error, issue):
        # The section's first key is given again on its last line.
        with pytest.raises(error) as exc:
            parse_config("kappa = 0.001\nalpha = 0.4\ngrid = 64\nt_end = 0\n[solution]\n" + lines)
        assert exc.value.issues == [(6, issue)]

    def test_all_issues_are_collected(self):
        # One malformed line plus two semantic problems: the strongest
        # category (ParseError) is raised, carrying everything it found.
        bad = MINIMAL + "\nnot-an-assignment\nkappa = -1\nlevels = 0\n"
        with pytest.raises(ParseError) as exc:
            parse_config(bad)
        messages = "; ".join(m for _, m in exc.value.issues)
        assert "key = value" in messages
        assert "kappa" in messages and "levels" in messages

    def test_solution_name_and_section_conflict(self):
        with pytest.raises(ConstraintViolation, match="not both"):
            parse_config(MINIMAL + "\n[solution]\nfamily = eigenmode\nn = 2\nm = 1\nc1 = 1\n")


class TestFieldCsv:
    def test_round_trip_is_bit_exact(self, tmp_path, grid32):
        rng = np.random.default_rng(42)
        f = PhysicalField(grid32, 10.0 ** rng.uniform(-8, 8, grid32.shape)
                          * rng.choice([-1, 1], grid32.shape))
        path = tmp_path / "field.csv"
        write_field_csv(f, path, t=1.25)
        back = read_field_csv(path)
        assert back.grid == grid32
        assert np.array_equal(back.values, f.values)   # exact, not approximate
        assert read_field_csv_time(path) == 1.25

    def test_rectangular_grid(self, tmp_path):
        g = GridSpec(16, 8)
        f = PhysicalField(g, np.arange(g.size, dtype=float).reshape(g.shape))
        write_field_csv(f, tmp_path / "r.csv", t=0.0)
        back = read_field_csv(tmp_path / "r.csv")
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_header_contents(self, tmp_path):
        g = GridSpec(8, 4)
        write_field_csv(PhysicalField(g, np.zeros(g.shape)), tmp_path / "h.csv", t=2.0)
        first = (tmp_path / "h.csv").read_text().splitlines()[0]
        assert first == "# 8,4,2"

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(FormatError, match="header"):
            read_field_csv(p)

    def test_wrong_row_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# 4,4,0\n" + "0,0,0,0\n" * 3)
        with pytest.raises(FormatError, match="rows"):
            read_field_csv(p)

    def test_wrong_column_count_names_the_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# 4,4,0\n0,0,0,0\n0,0,0\n0,0,0,0\n0,0,0,0\n")
        with pytest.raises(FormatError, match="row 2"):
            read_field_csv(p)

    def test_non_numeric_entry(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# 4,4,0\n0,0,0,0\n0,zero,0,0\n0,0,0,0\n0,0,0,0\n")
        with pytest.raises(FormatError, match="row 2"):
            read_field_csv(p)

    @pytest.mark.parametrize("entry", ["nan", "-inf", "1e999"])
    def test_non_finite_entry(self, tmp_path, entry):
        p = tmp_path / "bad.csv"
        p.write_text(f"# 4,4,0\n0,0,0,0\n0,{entry},0,0\n0,0,0,0\n0,0,0,0\n")
        with pytest.raises(FormatError, match="finite"):
            read_field_csv(p)


    def test_rows_are_format_17g_text(self, tmp_path):
        # Signed zero, subnormals, the extremes and integral values print as
        # format(v, ".17g") does, one comma-separated row per grid row.
        g = GridSpec(4, 4)
        values = np.array([[-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308],
                           [0.0, 3.0, -2.0, 1e16],
                           [-1e308, 2.2250738585072014e-308, 0.1, -7.0],
                           [1.0 / 3.0, 123456789.0, -5e-324, 2.0**53]])
        path = tmp_path / "pin.csv"
        write_field_csv(PhysicalField(g, values), path, t=0.5)
        expected = "# 4,4,0.5\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in values.tolist())
        assert path.read_text() == expected
        assert expected.splitlines()[1] == "-0,4.9406564584124654e-324,7.4169128616906696e-309,1e+308"
        assert np.array_equal(read_field_csv(path).values.view(np.uint64), values.view(np.uint64))

    def test_row_count_is_reported_before_a_bad_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# 4,4,0\n0,0,0,0\n0,zero,0\n0,0,0,0\n")
        with pytest.raises(FormatError, match="expected 4 data rows, found 3"):
            read_field_csv(p)

    def test_first_bad_row_is_reported(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# 4,4,0\n0,0,0,0\n0,zero,0,0\n0,0,0\n0,0,0,0\n")
        with pytest.raises(FormatError, match="row 2: could not convert") as exc:
            read_field_csv(p)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_header_grid_is_not_allocated_before_the_row_count(self, tmp_path):
        # A header naming a huge grid over two rows fails on the row count.
        p = tmp_path / "bad.csv"
        p.write_text("# 100000,100000,0\n0,0\n0,0\n")
        with pytest.raises(FormatError, match="expected 100000 data rows, found 2"):
            read_field_csv(p)

    @pytest.mark.parametrize("brk", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_lines_break_where_splitlines_does(self, brk, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text(f"# 4,4,0\n1,2{brk}3,4\n\n5,\t6,7,8{brk}\n9 ,10{brk}", encoding="utf-8",
                     newline="")
        with open(p, encoding="utf-8") as fh, open(p, encoding="utf-8") as whole:
            assert list(_lines(fh, p)) == whole.read().splitlines()

    def test_crlf_and_blank_lines(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"# 4,4,0\r\n\r\n1,2,3,4\r\n  \r\n5,6,7,8\r\n"
                      b"9,10,11,12\r\n13,14,15,16\r\n\r\n")
        assert np.array_equal(read_field_csv(p).values, np.arange(1.0, 17.0).reshape(4, 4))


class TestRenderContour:
    def _render_bytes(self, f, path, levels=21):
        render_contour(f, path, levels=levels)
        return path.read_bytes()

    def test_header_and_size(self, tmp_path, grid32):
        f = PhysicalField.from_function(grid32, lambda x, y: np.sin(x))
        data = self._render_bytes(f, tmp_path / "f.ppm")
        assert data.startswith(b"P6\n32 32\n255\n")
        assert len(data) == len(b"P6\n32 32\n255\n") + 3 * grid32.size

    def test_rendering_is_deterministic(self, tmp_path, grid32):
        f = PhysicalField.from_function(grid32, lambda x, y: np.sin(2 * x) * np.sin(y))
        a = self._render_bytes(f, tmp_path / "a.ppm")
        b = self._render_bytes(f, tmp_path / "b.ppm")
        assert a == b

    def test_scaling_invariance(self, tmp_path, grid32):
        # Autoscaling by max |f| means f and 3.7 f produce identical bytes.
        f = PhysicalField.from_function(grid32, lambda x, y: np.sin(x) + 0.2 * np.cos(3 * y))
        g = PhysicalField(grid32, 3.7 * f.values)
        assert (self._render_bytes(f, tmp_path / "a.ppm")
                == self._render_bytes(g, tmp_path / "b.ppm"))

    def test_zero_field_is_uniform_white(self, tmp_path, grid32):
        f = PhysicalField(grid32, np.zeros(grid32.shape))
        data = self._render_bytes(f, tmp_path / "z.ppm")
        body = data.split(b"\n", 3)[3]
        assert body == b"\xff\xff\xff" * grid32.size

    def test_extremes_map_to_red_and_blue(self, tmp_path):
        g = GridSpec(4, 4)
        vals = np.zeros(g.shape)
        vals[0, 0] = 1.0    # hottest band
        vals[0, 1] = -1.0   # coldest band
        data = self._render_bytes(PhysicalField(g, vals), tmp_path / "e.ppm")
        body = data.split(b"\n", 3)[3]
        hot = body[0:3]
        cold = body[3:6]
        assert hot[0] > hot[2]      # red-dominant
        assert cold[2] > cold[0]    # blue-dominant

    def test_levels_below_two_rejected(self, tmp_path, grid32):
        f = PhysicalField(grid32, np.zeros(grid32.shape))
        with pytest.raises(ValueError):
            render_contour(f, tmp_path / "x.ppm", levels=1)
