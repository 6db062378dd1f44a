"""Inputs that used to pass vacuously or write where they should not:
``sqg verify`` with no times, and a scenario ``name`` that would add a field
to ``report.csv`` or leave ``outdir``.  Each is a typed config error, exit
code 2 on the command line, with no traceback."""

import os

import pytest

from sqgkit.cli import main
from sqgkit.errors import ConstraintViolation
from sqgkit.fileio import parse_config

_CONFIG = "solution = theta1\nkappa = 0.01\nalpha = 0.5\ngrid = 16\nt_end = 0\n"
_BAD_NAMES = ["a,b", "../x", "a/b"] + ([f"a{os.altsep}b"] if os.altsep else [])


@pytest.mark.parametrize("times", ["", " , ", ","])
def test_verify_without_times_is_a_config_error(times, capsys):
    assert main(["verify", "--solution", "theta1", "--grid", "16", "--times", times]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: ") and "no times given" in err
    assert "Traceback" not in err and "PASS" not in out


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_config_name_with_a_separator_is_rejected(name):
    with pytest.raises(ConstraintViolation) as info:
        parse_config(_CONFIG + f"name = {name}\n")
    assert [loc for loc, _ in info.value.issues] == [6]
    assert "name must not contain" in str(info.value)


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_name_flag_with_a_separator_exits_2_and_writes_nothing(name, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--solution", "theta1", "--kappa", "0.01", "--alpha", "0.5",
                 "--grid", "16", "--t-end", "0", "--outputs", "report,csv",
                 "--outdir", "o", "--name", name])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: --name: ") and "name must not contain" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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
