"""One scenario pipeline: figure1 and the solver check through ``run_scenario``,
one grid parser, one CSV header reader, one rate rule, flags that reach
``parse_config`` as pairs, and key lists that name the key table's keys."""

import dataclasses
import pathlib
import re

import pytest

from sqgkit import cli, fileio
from sqgkit.cli import main
from sqgkit.errors import ConfigError, ConstraintViolation, FormatError
from sqgkit.fileio import (_TOP_KEYS, ScenarioConfig, parse_config, parse_grid, read_field_csv,
                           read_field_csv_time, render_contour)
from sqgkit.integrator import SolverParams
from sqgkit.scenario import run_builtin, run_scenario
from sqgkit.solutions import (_FAMILIES, EigenmodeSolution, builtin_samples, eval_theta,
                              validate)
from sqgkit.spectral import GridSpec
from sqgkit.verify import solver_vs_exact


@pytest.fixture(scope="module")
def figure1(tmp_path_factory):
    return run_builtin("figure1", outdir=str(tmp_path_factory.mktemp("figure1")))


class TestFigure1:
    def test_checks(self, figure1):
        expected = []
        for name in ("theta1", "theta2"):
            expected += [("residual_linf", name, 0.0), ("residual_linf", name, 100.0),
                         ("correlation_dev", name, 100.0)]
        for t in (0.0, 100.0):
            expected += [("residual_linf", "theta3", t), ("unidirectional_offray", "theta3", t)]
        assert [(c.check, c.subject, c.time) for c in figure1.checks] == expected
        assert all(c.passed for c in figure1.checks)
        assert figure1.exit_code == 0
        with open(figure1.report_path, encoding="utf-8") as fh:
            assert len(fh.read().splitlines()) == 1 + len(expected)

    def test_images_are_the_directly_rendered_fields(self, figure1, tmp_path):
        grid = GridSpec(256, 256)
        samples = builtin_samples()
        ppms = [p for p in figure1.artifacts if p.endswith(".ppm")]
        assert len(ppms) == 6
        for path in ppms:
            name, _, t = path.rsplit("/", 1)[-1][:-len(".ppm")].partition("_t")
            direct = tmp_path / "direct.ppm"
            sol = samples[name].solution(0.001, 0.001)
            render_contour(eval_theta(sol, float(t), grid), direct, levels=21)
            with open(path, "rb") as fh:
                assert fh.read() == direct.read_bytes()


class TestSolverError:
    @pytest.mark.parametrize("name", ["theta1", "theta3"])
    def test_report_value_is_the_series_maximum(self, name, tmp_path):
        grid = GridSpec(32, 32)
        config = ScenarioConfig(solution=name, kappa=0.01, alpha=0.5, grid=grid, t_end=0.5,
                                dt=0.01, snapshot_times=(0.25,), outdir=str(tmp_path),
                                outputs=("report",), mode="both")
        rows = [c for c in run_scenario(config).checks if c.check == "solver_rel_l2"]
        params = SolverParams(kappa=0.01, alpha=0.5, dt=0.01, t_end=0.5,
                              snapshot_times=(0.0, 0.25, 0.5))
        series = solver_vs_exact(builtin_samples()[name].solution(0.01, 0.5), params, grid)
        assert len(rows) == 1
        assert rows[0].value == max(err for _, err in series)


class TestGridText:
    @pytest.mark.parametrize("text, shape", [("64", (64, 64)), ("64x32", (64, 32)),
                                             ("16X8", (16, 8))])
    def test_parses(self, text, shape):
        grid = parse_grid(text)
        assert (grid.n_x, grid.n_y) == shape

    @pytest.mark.parametrize("text", ["64x32x16", "13", "abc", "", "64x"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_grid(text)

    def test_parse_config_rejects_three_parts(self):
        with pytest.raises(ConstraintViolation, match="expected N or NXxNY"):
            parse_config("solution = theta1\nkappa = 0.1\nalpha = 0.5\n"
                         "grid = 64x32x16\nt_end = 0\n")


class TestCsvHeader:
    def test_time_reader_shares_the_header_checks(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# 3,4,1.5\n")
        with pytest.raises(FormatError, match="bad header"):
            read_field_csv_time(path)

    @pytest.mark.parametrize("data", [b"# 4,4,0\n\xff\xfe,1\n", b"\xff 4,4,0\n"])
    def test_non_utf8_file_is_a_format_error(self, data, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="UTF-8"):
            read_field_csv(path)
        if data.startswith(b"\xff"):
            with pytest.raises(FormatError, match="UTF-8"):
                read_field_csv_time(path)


class TestOverflowingRate:
    def test_non_finite_decay_rate_is_a_violation(self):
        sol = builtin_samples()["theta1"].solution(1e308, 0.9)
        assert [v.code for v in validate(sol).violations] == ["rate"]


class TestConfigKeys:
    def test_flags_reach_parse_config_as_pairs_in_key_order(self, monkeypatch):
        values = ("theta1", "0.1", "0.5", "0.01", "1.0", "32", "0.5", "true", "out", "report",
                  "5", "both", "x", "0.5")
        assert len(values) == len(_TOP_KEYS)
        argv = ["simulate"]
        for key, value in reversed(list(zip(_TOP_KEYS, values))):   # order on the line is moot
            argv += ["--" + key.replace("_", "-"), value]
        calls = []

        def fake_parse_config(*args):
            calls.append(args)
            raise ConfigError("stop")

        monkeypatch.setattr(cli, "parse_config", fake_parse_config)
        assert main(argv) == 2
        assert calls == [("", list(zip(_TOP_KEYS, values)))]

    def test_the_docs_list_the_keys_in_table_order(self):
        block = re.search(r"^Top-level keys.*?::\n\n(.*?)\n\n", fileio.__doc__, re.M | re.S)[1]
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("### Config files", 1)[1]
        rows = section.split("\n###", 1)[0]
        assert re.findall(r"^    ([a-z_]+)", block, re.M) == list(_TOP_KEYS)
        assert re.findall(r"^\| `([a-z_]+)` \|", rows, re.M) == list(_TOP_KEYS)

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_the_docs_list_each_familys_keys_in_field_order(self, family):
        keys = [f.name for f in dataclasses.fields(_FAMILIES[family])
                if f.name not in ("kappa", "alpha")]
        block = re.search(r"^``\[solution\]`` keys.*?::\n\n(.*?)\n\n", fileio.__doc__,
                          re.M | re.S)[1]
        entry = re.search(rf"^    {family} +(.*?)(?=^    \w|\Z)", block, re.M | re.S)[1]
        listed = re.sub(r"\([^)]*\)", "", " ".join(entry.split())).split(",")
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("### The `[solution]` section", 1)[1]
        table = section.split(f"`family = {family}`", 1)[1].split("\n\n", 2)[1]
        assert [key.strip() for key in listed] == keys
        assert re.findall(r"^\| `(\w+)` \|", table, re.M) == keys


class TestHugeWavenumber:
    def test_is_a_rate_violation_not_an_overflow(self):
        sol = EigenmodeSolution(n=10**200, m=1, kappa=0.1, alpha=0.5, c1=1.0)
        assert [v.code for v in validate(sol).violations] == ["rate"]

    def test_config_is_rejected(self):
        with pytest.raises(ConstraintViolation, match="decay rate"):
            parse_config(f"kappa = 0.1\nalpha = 0.5\ngrid = 16\nt_end = 0\n[solution]\n"
                         f"family = eigenmode\nn = {10**200}\nm = 1\nc1 = 1\n")
