"""Config inputs that used to end in a traceback, exit 3 or a stray directory:
a config file that is not UTF-8 text, a directory given as a file, a NUL byte
in ``name`` or ``outdir``, an empty ``outdir``, and a mode or correlation
requirement or a grid the solution cannot take.  Each is a config error, exit
code 2, and all but the first two are rejected before anything is created."""

import pytest

from sqgkit.cli import main
from sqgkit.errors import ConstraintViolation
from sqgkit.fileio import parse_config

_CONFIG = b"solution = theta1\nkappa = 0.01\nalpha = 0.5\ngrid = 16\nt_end = 0\n"


def _config_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("command", [["simulate", "--config"], ["scenario"]])
def test_config_that_is_not_utf8_exits_2(command, tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_bytes(b"\xff\xfe")
    assert main(command + [str(cfg)]) == 2
    _config_error(capsys, "not UTF-8", str(cfg))


@pytest.mark.parametrize("command", [["simulate", "--config", "{dir}"], ["scenario", "{dir}"],
                                     ["render", "--input", "{dir}", "--output", "{out}"]])
def test_directory_for_an_input_file_exits_2(command, tmp_path, capsys):
    folder = tmp_path / "d"
    folder.mkdir()
    out = tmp_path / "x.ppm"
    assert main([arg.format(dir=folder, out=out) for arg in command]) == 2
    _config_error(capsys, str(folder))
    assert not out.exists()


@pytest.mark.parametrize("key", ["name", "outdir"])
def test_nul_byte_in_a_path_key_is_rejected(key):
    with pytest.raises(ConstraintViolation) as info:
        parse_config((_CONFIG + f"{key} = a\0b\n".encode()).decode())
    assert [loc for loc, _ in info.value.issues] == [6]
    assert f"{key} must not contain" in str(info.value) and "NUL" in str(info.value)


@pytest.mark.parametrize("line", [b"name = a\x00b\noutdir = o\n", b"outdir = o\x00d\n"],
                         ids=["name", "outdir"])
def test_nul_byte_exits_2_and_creates_nothing(line, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "f.cfg"
    cfg.write_bytes(_CONFIG + b"outputs = report,csv\n" + line)
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    assert main(["scenario", str(cfg)]) == 2
    _config_error(capsys, "NUL byte")
    assert list(run.iterdir()) == []


_FLAGS = ["--kappa", "0.01", "--alpha", "0.5", "--grid", "16", "--t-end", "0"]


@pytest.mark.parametrize("line,argv,where", [
    (b"outdir =\n", ["scenario", "{cfg}"], "line 6: outdir must not be empty"),
    (b"", ["simulate", "--config", "{cfg}", "--outdir", ""], "--outdir: outdir must not be empty"),
    (b"outdir = o\n", ["scenario", "{cfg}", "--outdir", ""], "--outdir: outdir must not be empty"),
    (b"", ["scenario", "figure1", "--outdir", ""], "outdir must not be empty"),
    (b"", ["scenario", "constantin-negative", "--outdir", ""], "outdir must not be empty"),
], ids=["file", "simulate-flag", "scenario-flag", "figure1-flag", "constantin-negative-flag"])
def test_empty_outdir_exits_2_and_creates_nothing(line, argv, where, tmp_path, capsys,
                                                  monkeypatch):
    cfg = tmp_path / "f.cfg"
    cfg.write_bytes(_CONFIG + line)
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    assert main([arg.format(cfg=cfg) for arg in argv]) == 2
    _config_error(capsys, where)
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("extra,needle", [
    (["--solution", "con-1", "--mode", "exact"], "requires an exact solution"),
    (["--solution", "theta1", "--require-correlation-below", "0.5"], "require_correlation_below"),
    (["--solution", "theta3", "--grid", "4", "--mode", "exact"], "resolves modes up to"),
], ids=["exact-mode-on-datum", "correlation-on-exact", "grid-too-coarse"])
def test_run_check_exits_2_before_outdir_is_made(extra, needle, tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["simulate", *_FLAGS, *extra, "--outdir", str(out)]) == 2
    _config_error(capsys, needle)
    assert not out.exists()
