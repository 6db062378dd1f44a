"""Property: any config text or command line ends in a documented exit code.

Generated configs (a valid base with generated lines that override or break
it) go through ``parse_config`` (a ``ConfigError`` or a config, nothing
else) and through ``sqg scenario``; generated flags, after a valid set, go
through every subcommand.  Each run must return 0, 1, 2 or 3 with no
uncaught exception and no traceback on stderr.  Every generated flag is a
well-formed ``--flag=value`` or ``--flag value``, whatever the value starts
with, so a command line that exits 2 does so from a reader, with
``config error: ``, never from argparse with ``usage: ``; and the two forms
give the same exit code, stdout and stderr.
Grids are tiny and a valid schedule has at most 50 steps (t_end <= 0.1,
dt >= 0.002).
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sqgkit import cli
from sqgkit.cli import main
from sqgkit.errors import ConfigError
from sqgkit.fileio import ScenarioConfig, parse_config

_NUMBERS = ["0", "1", "-1", "0.5", "nan", "inf", "-inf", "-1e3", "-.5e-3", "1e308", "1e-300",
            "abc", ""]
_VALUES = {
    "solution": ["theta1", "theta2", "theta3", "con-1", "con-2", "nope", ""],
    "kappa": ["0.01", "0.5", *_NUMBERS],
    "alpha": ["0", "0.3", "0.99", *_NUMBERS],
    "grid": ["4", "8", "16", "16x8", "8x16", "6", "3", "16x8x4", "16384", "0", "-8", "x", ""],
    "t_end": ["0", "0.02", "0.1", "-1", "nan", "1e300", "abc"],
    "dt": ["0.002", "0.01", "0.05", "0", "-0.01", "1e-300", "nan", "abc"],
    "snapshots": ["0.01", "0.05, 0.02", "0.5", "nan", "x", ""],
    "dealias": ["true", "false", "maybe"],
    "outputs": ["report", "csv", "ppm", "csv, ppm, report", "pgm", "svg", ""],
    "levels": ["2", "5", "1", "0", "1000000000", "x"],
    "mode": ["auto", "exact", "simulate", "both", "fast"],
    "name": ["run", "a b", ""],
    "require_correlation_below": ["0.5", "0", "2", "nan"],
}
_SECTION = {
    "family": ["eigenmode", "unidirectional", "other", ""],
    "n": ["1", "2", "0", "-3", "x", "100000"],
    "m": ["1", "0", "2", "x"],
    "k": ["1", "5", "0", "x"],
    "modes": ["1:1:0", "1:0.5:0.2, 2:0:1", "0:1:0", "1:0:0", "1:1", "a:b:c", "1:1:0, 1:0:1"],
    **{f"c{i}": ["0", "1", "-0.5", "nan", "x"] for i in range(1, 9)},
}


def _lines(values: dict, max_size: int):
    line = st.sampled_from(sorted(values)).flatmap(
        lambda key: st.sampled_from(values[key]).map(lambda v: f"{key} = {v}"))
    return st.lists(line | st.sampled_from(["# comment", "", "garbage", "[other]"]),
                    max_size=max_size)


# Valid bases; the generated lines override or break them.
_BASE = "kappa = 0.05\nalpha = 0.3\ngrid = 16\nt_end = 0.1\ndt = 0.01\noutputs = report"
_SOLUTIONS = ["solution = theta1", "solution = theta3", "solution = con-1",
              "[solution]\nfamily = unidirectional\nn = 1\nm = 2\nmodes = 1:0.5:0.2",
              "[solution]\nfamily = eigenmode\nn = 4\nm = 3\nk = 5\nc1 = 1\nc5 = 0.5"]

_CONFIGS = st.builds(
    lambda solution, top, section: "\n".join(
        [_BASE, *top, solution, *(section if solution.startswith("[") else [])]) + "\n",
    st.sampled_from(_SOLUTIONS), _lines(_VALUES, 4), _lines(_SECTION, 3))

# Valid flags per subcommand; generated flags come after them and win.
_SUBCOMMANDS = {
    "eval": (["--solution=theta2", "--grid=16"],
             ["solution", "kappa", "alpha", "time", "grid", "levels"]),
    "simulate": (["--solution=theta1", "--kappa=0.05", "--alpha=0.3", "--grid=16",
                  "--t-end=0.1", "--dt=0.01", "--outputs=report"],
                 [k for k in _VALUES if k != "outdir"]),
    "verify": (["--solution=theta3", "--grid=16", "--times=0,1"],
               ["solution", "kappa", "alpha", "grid", "times", "tol"]),
    "render": ([], ["levels"]),
}


def _flags(keys):
    """``(flag, value, spaced)`` triples: a flag, its value and whether the
    value follows as the next argument rather than after ``=``."""
    triple = st.sampled_from(keys).flatmap(
        lambda key: st.tuples(st.just("--" + key.replace("_", "-")),
                              st.sampled_from(_VALUES.get(key, _NUMBERS)), st.booleans()))
    return st.lists(triple, max_size=4)


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-property")
    (path / "good.csv").write_text("# 4,4,0.5\n" + "1,0,-1,0\n" * 4)
    (path / "bad.csv").write_text("# 4,4,0\n1,2\nnan,0,0,0\n")
    return path


_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture,
                                            HealthCheck.too_slow])


@_SETTINGS
@given(text=_CONFIGS)
def test_generated_configs(text, workdir):
    try:
        config = parse_config(text)
    except ConfigError:
        config = None
    assert config is None or isinstance(config, ScenarioConfig)
    path = workdir / "x.cfg"
    path.write_text(text)
    code, _, err = _run(["scenario", str(path), "--outdir", str(workdir / "scenario")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert (code == 2) if config is None else True


@_SETTINGS
@given(command=st.sampled_from(sorted(_SUBCOMMANDS)), data=st.data())
def test_generated_command_lines(command, data, workdir):
    base, keys = _SUBCOMMANDS[command]
    flags = data.draw(_flags(keys))
    tail = []
    if command == "eval":
        tail = ["--csv", str(workdir / "e.csv"), "--ppm", str(workdir / "e.ppm")]
    elif command == "simulate":
        tail = ["--outdir", str(workdir / "sim")]
    elif command == "render":
        tail = ["--input", str(workdir / data.draw(st.sampled_from(
            ["good.csv", "bad.csv", "missing.csv"]))), "--output", str(workdir / "r.ppm")]
    joined = [f"{flag}={value}" for flag, value, _ in flags]
    drawn = [arg for flag, value, spaced in flags
             for arg in ([flag, value] if spaced else [f"{flag}={value}"])]
    code, out, err = _run([command, *base, *joined, *tail])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert code != 2 or err.startswith("config error: "), err
    assert _run([command, *base, *drawn, *tail]) == (code, out, err)


def test_every_flag_but_help_takes_one_value():
    """The rule by which ``cli`` joins ``--flag -value`` into ``--flag=-value``."""
    parser = cli._build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    for sub in commands.values():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                assert action.option_strings == ["-h", "--help"]
            elif action.option_strings:
                assert action.nargs is None and all(
                    flag.startswith("--") for flag in action.option_strings), action
