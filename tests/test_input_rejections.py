"""Config values that used to pass vacuously or write where they should not:
a scenario ``name`` that would add a field to ``report.csv`` or leave
``outdir``, and a NUL byte in ``name`` or ``outdir``.  Each is a typed config
error located at its line; the command lines that carry them are rows of
``test_exit_codes``."""

import os

import pytest

from sqgkit.cli import main
from sqgkit.errors import ConstraintViolation
from sqgkit.fileio import parse_config

_CONFIG = "solution = theta1\nkappa = 0.01\nalpha = 0.5\ngrid = 16\nt_end = 0\n"
_BAD_NAMES = ["a,b", "../x", "a/b"] + ([f"a{os.altsep}b"] if os.altsep else [])


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_config_name_with_a_separator_is_rejected(name):
    with pytest.raises(ConstraintViolation) as info:
        parse_config(_CONFIG + f"name = {name}\n")
    assert [loc for loc, _ in info.value.issues] == [6]
    assert "name must not contain" in str(info.value)


@pytest.mark.parametrize("key", ["name", "outdir"])
def test_nul_byte_in_a_path_key_is_rejected(key):
    with pytest.raises(ConstraintViolation) as info:
        parse_config(_CONFIG + f"{key} = a\0b\n")
    assert [loc for loc, _ in info.value.issues] == [6]
    assert f"{key} must not contain" in str(info.value) and "NUL" in str(info.value)


def test_plain_name_still_parses_and_names_the_artifacts(tmp_path, capsys):
    assert parse_config(_CONFIG + "name = myrun\n").name == "myrun"
    outdir = tmp_path / "o"
    assert main(["simulate", "--solution", "theta1", "--kappa", "0.01", "--alpha", "0.5",
                 "--grid", "16", "--t-end", "0", "--outputs", "report,csv",
                 "--outdir", str(outdir), "--name", "myrun"]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == ["myrun_t0.csv", "report.csv"]
    rows = (outdir / "report.csv").read_text().splitlines()
    assert all(len(row.split(",")) == 6 for row in rows)
    assert rows[1].startswith("residual_linf,myrun,")
