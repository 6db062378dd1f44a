"""Command-line flags override config keys as values, not as config text.

``parse_config(text, overrides)`` applies ``(key, value)`` pairs after the
file's entries.  The file keeps its own line numbers, an issue with a flag is
located by the flag, a ``#`` in a flag value is part of it, and a line break
in one is an error.  The command lines these reject are rows of
``test_exit_codes``.
"""

import pytest

from sqgkit.cli import main
from sqgkit.errors import ConstraintViolation, ParseError, UnknownKey
from sqgkit.fileio import parse_config

_CONFIG = "kappa = 0.01\nalpha = 0.5\ngrid = 16\nt_end = 0\n"
_RUN = ["simulate", "--solution", "theta1", "--kappa", "0.01", "--alpha", "0.5",
        "--grid", "16", "--t-end", "0", "--outputs", "report,csv"]


class TestParseConfig:
    def test_an_override_wins_over_the_file(self):
        config = parse_config(_CONFIG + "solution = theta1\n", [("kappa", " 0.02 ")])
        assert config.kappa == 0.02

    def test_a_hash_is_part_of_an_override_value(self):
        config = parse_config(_CONFIG, [("solution", "theta1"), ("name", "a#b"),
                                        ("outdir", "runs#2")])
        assert (config.name, config.outdir) == ("a#b", "runs#2")

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85",
                                     "\u2028"])
    def test_a_line_break_in_an_override_is_a_parse_error_at_its_flag(self, brk):
        with pytest.raises(ParseError) as info:
            parse_config(_CONFIG, [("solution", "theta1"), ("name", f"run{brk}kappa = 7")])
        assert [loc for loc, _ in info.value.issues] == ["--name"]
        assert "line break" in str(info.value)

    def test_an_override_issue_names_its_flag_after_the_file_issues(self):
        with pytest.raises(ConstraintViolation) as info:
            parse_config(_CONFIG + "levels = 1\n", [("solution", "theta1"), ("t_end", "-1")])
        assert [loc for loc, _ in info.value.issues] == [5, "--t-end"]

    def test_an_unknown_override_key_names_its_flag(self):
        with pytest.raises(UnknownKey, match="--no-such: unknown key 'no_such'"):
            parse_config(_CONFIG + "solution = theta1\n", [("no_such", "1")])


class TestFlagValues:
    def test_outdir_with_a_hash_is_written_as_given(self, tmp_path):
        outdir = tmp_path / "runs#2"
        assert main([*_RUN, "--outdir", str(outdir), "--name", "a#b"]) == 0
        assert sorted(p.name for p in outdir.iterdir()) == ["a#b_t0.csv", "report.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs#2"]

    def test_scenario_outdir_with_a_hash_is_written_as_given(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(_CONFIG + "solution = theta1\noutputs = report\n")
        assert main(["scenario", str(path), "--outdir", str(tmp_path / "runs#2")]) == 0
        assert [p.name for p in (tmp_path / "runs#2").iterdir()] == ["report.csv"]

    @pytest.mark.parametrize("flags", [["--dealias", "yes"], ["--dealias", "OFF"],
                                       ["--mode", "BOTH"]])
    def test_flag_values_read_as_file_values(self, flags, tmp_path):
        assert main([*_RUN, "--outdir", str(tmp_path / "o"), *flags]) == 0
