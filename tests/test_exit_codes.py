"""The exit-code contract of ``sqg``, one row per rejected command line.

A rejection exits 2 with a message that starts ``config error: `` (a bad
flag, config value or input file), 2 with argparse's ``usage: `` (a command
line argparse cannot parse), or 3 with ``runtime error: `` (a blowup), as
``CONTRACT`` says.  In every case stderr holds no traceback and the row's
fragment, nothing is created (the runner works in an empty directory that
holds only the row's inputs), every input keeps its bytes (a directory stays
one) and nothing is printed on stdout.  A programming error is not a
rejection: it propagates out of ``main``.
"""

import os

import pytest

from sqgkit import cli
from sqgkit.cli import main

pytestmark = pytest.mark.filterwarnings(   # the blowup rows take steps meant to blow up
    "ignore::sqgkit.errors.StabilityWarning")

# kind: (exit code, how stderr starts)
CONTRACT = {"config": (2, "config error: "), "usage": (2, "usage: "),
            "runtime": (3, "runtime error: ")}

_DIR = None   # an input that is an empty directory, not a file
_CFG = b"solution = theta1\nkappa = 0.01\nalpha = 0.5\ngrid = 16\nt_end = 0\n"
_BAD_C1 = (b"kappa = 0.01\nalpha = 0.5\ngrid = 16\nt_end = 0\n"
           b"[solution]\nfamily = eigenmode\nn = 1\nm = 1\nk = 1\nc1 = abc\n")
_SECTION = b"kappa = 0.01\nalpha = 0.5\ngrid = 16\nt_end = 0\n[solution]\n"   # to line 5
_CSV = b"# 4,4,0.5\n" + b"1,0,-1,0\n" * 4
_RENDER = ["render", "--input", "x.csv", "--output", "x.ppm"]
_EVAL = ["eval", "--solution", "theta1", "--grid", "16"]
_VERIFY = ["verify", "--solution", "theta1"]
_SIMULATE = ["simulate", "--kappa", "0.01", "--alpha", "0.5", "--grid", "16", "--t-end", "0",
             "--outdir", "o"]
_RUN = [*_SIMULATE, "--solution", "theta1", "--outputs", "report,csv"]
_BOUNDS = ["simulate", "--solution", "theta1", "--kappa", "0.1", "--alpha", "0.5",
           "--outdir", "o"]
_CORRELATION = ["--require-correlation-below", "0.5", "--outputs", "csv,report",
                "--outdir", "o"]
_BLOWUP = ["simulate", "--solution", "con-1", "--kappa", "0.001", "--outdir", "o"]
_BAD_NAMES = ["a,b", "../x", "a/b"] + ([f"a{os.altsep}b"] if os.altsep else [])
_KNOWN = "known: theta1, theta2, theta3, con-1, con-2, con-3"
# A bad value and the one message that simulate, eval and verify each give for it.
_SAME_TEXT = [
    (["--kappa", "-1"], "--kappa: kappa must be finite and > 0, got -1.0"),
    (["--kappa", "abc"], "--kappa: kappa must be a number, got 'abc'"),
    (["--solution", "theta9"], f"--solution: unknown builtin solution 'theta9'; {_KNOWN}"),
    (["--kappa", "-inf"], "--kappa: kappa must be finite and > 0, got -inf")]

# (id, kind, argv, inputs {path: bytes, or _DIR}, a fragment of stderr)
ROWS = [
    # usage
    ("no-subcommand", "usage", [], {}, "the following arguments are required: command"),
    ("unknown-flag", "usage", ["simulate", "--no-such-flag"], {},
     "unrecognized arguments: --no-such-flag"),
    # eval
    ("eval-no-output", "config", ["eval", "--solution", "theta1"], {},
     "eval: give at least one of --csv/--ppm"),
    ("eval-unknown-solution", "config", ["eval", "--solution", "theta9", "--csv", "x.csv"], {},
     f"--solution: unknown builtin solution 'theta9'; {_KNOWN}"),
    ("eval-datum-after-0", "config",
     ["eval", "--solution", "con-2", "--time", "1.0", "--csv", "x.csv"], {},
     "--time: con-2 is not an exact solution; only t = 0 can be evaluated in closed form "
     "(use 'sqg simulate')"),
    ("eval-csv-directory", "config", [*_EVAL, "--csv", "d", "--ppm", "y.ppm"], {"d": _DIR},
     "--csv: 'd' is a directory"),
    ("eval-csv-no-parent", "config", [*_EVAL, "--csv", "missing/x.csv"], {},
     "--csv: no directory 'missing'"),
    ("eval-ppm-directory", "config", [*_EVAL, "--csv", "x.csv", "--ppm", "d"], {"d": _DIR},
     "--ppm: 'd' is a directory"),
    ("eval-ppm-no-parent", "config", [*_EVAL, "--csv", "x.csv", "--ppm", "missing/y.ppm"], {},
     "--ppm: no directory 'missing'"),
    *[(f"eval-ppm-{ppm}", "config", [*_EVAL, "--csv", "x.csv", "--ppm", ppm], {},
       f"--ppm: {ppm!r} would overwrite the --csv file") for ppm in ("x.csv", "./x.csv")],
    ("eval-grid-three-parts", "config",
     ["eval", "--solution", "theta1", "--grid", "64x32x16", "--csv", "x.csv"], {},
     "--grid: bad grid '64x32x16'"),
    ("eval-grid-extent", "config",
     ["eval", "--solution", "theta1", "--grid", "16384", "--csv", "x.csv"], {},
     "--grid: bad grid '16384': n_x must be <= 8192"),
    ("eval-datum-parameters", "config",
     ["eval", "--solution", "con-2", "--kappa", "-1", "--alpha", "5", "--grid", "16",
      "--csv", "x.csv"], {},
     "--kappa: kappa must be finite and > 0, got -1.0; --alpha: alpha must lie in [0, 1), "
     "got 5.0"),
    ("eval-every-issue", "config",
     ["eval", "--solution", "theta9", "--kappa", "abc", "--grid", "13", "--time", "nan",
      "--levels", "1", "--csv", "x.csv"], {},
     f"config error: --kappa: kappa must be a number, got 'abc'; --solution: unknown builtin "
     f"solution 'theta9'; {_KNOWN}; --grid: bad grid '13': n_x must be an even integer >= 4, "
     f"got 13; --time: time must be finite, got nan; --levels: levels must lie in [2, 4096], "
     f"got 1\n"),
    ("eval-levels-1", "config", [*_EVAL, "--levels", "1", "--csv", "x.csv", "--ppm", "x.ppm"],
     {}, "--levels: levels must lie in [2, 4096], got 1"),
    ("eval-levels-huge", "config", [*_EVAL, "--levels", "1000000000", "--csv", "x.csv"], {},
     "--levels: levels must lie in [2, 4096], got 1000000000"),
    ("eval-levels-abc", "config", [*_EVAL, "--levels", "abc", "--csv", "x.csv"], {},
     "--levels: levels must be an integer, got 'abc'"),
    *[(f"eval-time-{t}", "config", [*_EVAL, f"--time={t}", "--csv", "x.csv"], {},
       f"--time: time must be finite, got {t}") for t in ("nan", "inf", "-inf")],
    # one bad value, one text from every subcommand
    *[(f"{name}{flags[0]}-{flags[1]}", "config", [*argv, *flags], {},
       f"config error: {message}\n")
      for flags, message in _SAME_TEXT
      for name, argv in (("simulate", _RUN), ("eval", [*_EVAL, "--csv", "x.csv"]),
                         ("verify", _VERIFY))],
    # verify
    ("verify-no-closed-form", "config", ["verify", "--solution", "con-2"], {},
     "--solution: con-2 has no closed-form solution object"),
    ("verify-grid-odd", "config", [*_VERIFY, "--grid", "13"], {}, "--grid: bad grid '13'"),
    ("verify-grid-three-parts", "config", [*_VERIFY, "--grid", "64x32x16"], {},
     "--grid: bad grid '64x32x16'"),
    ("verify-grid-extent", "config", [*_VERIFY, "--grid", "16x16384"], {},
     "--grid: bad grid '16x16384': n_y must be <= 8192"),
    ("verify-grid-too-coarse", "config", ["verify", "--solution", "theta2", "--grid", "8"], {},
     "resolves modes up to"),
    ("verify-alpha-nan", "config", [*_VERIFY, "--alpha", "nan"], {},
     "--alpha: alpha must lie in [0, 1), got nan"),
    ("verify-rate-overflow", "config", [*_VERIFY, "--kappa", "1e308", "--alpha", "0.9"], {},
     "decay rate"),
    ("verify-tol-nan", "config", [*_VERIFY, "--tol", "nan"], {},
     "--tol: tol must be finite, got nan"),
    ("verify-tol-abc", "config", [*_VERIFY, "--tol", "abc"], {},
     "--tol: tol must be a number, got 'abc'"),
    *[(f"verify-times-{i}", "config", [*_VERIFY, "--grid", "16", "--times", times], {},
       f"--times: times must name at least one time, got {times!r}")
      for i, times in enumerate(["", " , ", ","])],
    *[(f"verify-times-{times}", "config", [*_VERIFY, "--times", times], {},
       f"--times: times must {rule}") for times, rule in [
           ("abc", "be a number, got 'abc'"), ("0,nan", "be finite, got nan"),
           ("inf", "be finite, got inf")]],
    ("verify-times--inf", "config", [*_VERIFY, "--times", "-inf"], {},
     "config error: --times: times must be finite, got -inf\n"),
    # render
    ("render-missing-input", "config", _RENDER, {}, "No such file or directory: 'x.csv'"),
    ("render-input-directory", "config", _RENDER, {"x.csv": _DIR},
     "Is a directory: 'x.csv'"),
    ("render-levels-1", "config", [*_RENDER, "--levels", "1"], {"x.csv": _CSV},
     "--levels: levels must lie in [2, 4096], got 1"),
    ("render-levels-huge", "config", [*_RENDER, "--levels", "1000000000"], {"x.csv": _CSV},
     "--levels: levels must lie in [2, 4096], got 1000000000"),
    ("render-levels-abc", "config", [*_RENDER, "--levels", "abc"], {"x.csv": _CSV},
     "--levels: levels must be an integer, got 'abc'"),
    ("render-nan-value", "config", _RENDER,
     {"x.csv": b"# 4,4,0\n0,0,0,0\n0,nan,0,0\n0,0,0,0\n0,0,0,0\n"},
     "x.csv: field values must all be finite"),
    ("render-not-utf8", "config", _RENDER, {"x.csv": b"# 4,4,0\n" + b"\xff,0,0,0\n" * 4},
     "x.csv: not UTF-8 text"),
    ("render-extent-in-header", "config", _RENDER,
     {"x.csv": b"# 16384,4,0\n0\n0\n0\n0\n"}, "x.csv: bad header: n_x must be <= 8192"),
    *[(f"render-header-t-{t}", "config", _RENDER,
       {"x.csv": f"# 4,4,{t}\n".encode() + b"1,0,-1,0\n" * 4}, "bad header: t must be finite")
      for t in ("nan", "inf", "-inf", "1e999")],
    *[(f"render-output-{output}", "config", [*_RENDER, "--output", output], {"x.csv": _CSV},
       f"--output: {output!r} would overwrite the input") for output in ("x.csv", "./x.csv")],
    ("render-output-directory", "config", [*_RENDER, "--output", "d"], {"x.csv": _CSV, "d": _DIR},
     "--output: 'd' is a directory"),
    ("render-output-no-parent", "config", [*_RENDER, "--output", "missing/r.ppm"],
     {"x.csv": _CSV}, "--output: no directory 'missing'"),
    # simulate and scenario: config files
    ("simulate-config-not-utf8", "config", ["simulate", "--config", "f.cfg"],
     {"f.cfg": b"\xff\xfe"}, "f.cfg: not UTF-8 text"),
    ("scenario-config-not-utf8", "config", ["scenario", "f.cfg"], {"f.cfg": b"\xff\xfe"},
     "f.cfg: not UTF-8 text"),
    ("simulate-config-directory", "config", ["simulate", "--config", "d"], {"d": _DIR},
     "Is a directory: 'd'"),
    ("scenario-config-directory", "config", ["scenario", "d"], {"d": _DIR},
     "Is a directory: 'd'"),
    ("scenario-unknown-target", "config", ["scenario", "no-such-scenario.cfg"], {},
     "No such file or directory: 'no-such-scenario.cfg'"),
    ("simulate-config-kappa", "config", ["simulate", "--config", "f.cfg"],
     {"f.cfg": b"solution = theta1\nkappa = -1\nalpha = 0.5\ngrid = 32\nt_end = 0\n"},
     "line 2: kappa must be finite and > 0"),
    ("scenario-config-steps", "config", ["scenario", "f.cfg"],
     {"f.cfg": b"solution = theta1\nkappa = 0.1\nalpha = 0.5\ngrid = 16\nt_end = 1\n"
               b"dt = 1e-300\noutdir = o\n"},
     "line 6: t_end / dt = 1e+300 exceeds 10000000 steps"),
    ("simulate-line-numbers", "config",
     ["simulate", "--config", "f.cfg", "--outdir", "o", "--name", "r", "--outputs", "report"],
     {"f.cfg": _BAD_C1}, "line 10: c1 must be a number"),
    ("scenario-line-numbers", "config", ["scenario", "f.cfg", "--outdir", "o"],
     {"f.cfg": _BAD_C1}, "line 10: c1 must be a number"),
    # [solution] keys: the fields of the family's class
    *[(f"section-{name}", "config", ["scenario", "f.cfg"], {"f.cfg": _SECTION + lines},
       f"config error: {message}\n") for name, lines, message in [
          ("other-family-k", b"family = unidirectional\nn = 1\nm = 2\nmodes = 1:1:0\nk = 5\n",
           "line 10: unknown key 'k' in [solution]"),
          ("other-family-modes", b"family = eigenmode\nn = 1\nm = 1\nc1 = 1\nmodes = 1:1:0\n",
           "line 10: unknown key 'modes' in [solution]"),
          ("no-n", b"family = eigenmode\nm = 1\nc1 = 1\n", "line 6: missing required key: n")]],
    *[(f"scenario-nul-{key}", "config", ["scenario", "f.cfg"],
       {"f.cfg": _CFG + b"outputs = report,csv\n" + line}, "NUL byte")
      for key, line in (("name", b"name = a\x00b\noutdir = o\n"),
                        ("outdir", b"outdir = o\x00d\n"))],
    # empty outdir
    ("outdir-empty-in-file", "config", ["scenario", "f.cfg"], {"f.cfg": _CFG + b"outdir =\n"},
     "line 6: outdir must not be empty"),
    ("outdir-empty-simulate-flag", "config", ["simulate", "--config", "f.cfg", "--outdir", ""],
     {"f.cfg": _CFG}, "--outdir: outdir must not be empty"),
    ("outdir-empty-scenario-flag", "config", ["scenario", "f.cfg", "--outdir", ""],
     {"f.cfg": _CFG + b"outdir = o\n"}, "--outdir: outdir must not be empty"),
    *[(f"outdir-empty-{name}", "config", ["scenario", name, "--outdir", ""], {},
       "outdir: outdir must not be empty") for name in ("figure1", "constantin-negative")],
    # an outdir that is a file, or lies under one
    *[(f"outdir-{name}-{outdir}", "config", [*argv, "--outdir", outdir],
       {**inputs, "afile": b"x\n"}, f"outdir: {outdir!r}{where} is not a directory")
      for name, argv, inputs in (("scenario", ["scenario", "f.cfg"], {"f.cfg": _CFG}),
                                 ("simulate", _RUN, {}), ("figure1", ["scenario", "figure1"], {}))
      for outdir, where in (("afile", ""), ("afile/sub", " lies under 'afile', which"))],
    # simulate: flags
    ("flag-line-break", "config", [*_RUN, "--kappa", "0.05", "--name", "run\nkappa = 7"], {},
     "--name: name must not contain a line break"),
    *[(f"flag-name-{name}", "config", [*_RUN, "--name", name], {},
       "--name: name must not contain") for name in _BAD_NAMES],
    *[(f"flag{flags[0]}-{flags[1]}", "config", [*_RUN, *flags], {}, fragment)
      for flags, fragment in [
          (["--t-end", "nan"], "--t-end: t_end must be finite"),
          (["--levels", "abc"], "--levels: levels must be an integer"),
          (["--levels", "1"], "--levels: levels must lie in [2, 4096], got 1"),
          (["--levels", "1000000000"], "--levels: levels must lie in [2, 4096]"),
          (["--dealias", "maybe"], "--dealias: dealias must be true/false"),
          (["--mode", "sideways"], "--mode: mode must be one of"),
          (["--require-correlation-below", "0"],
           "--require-correlation-below: require_correlation_below must be finite and > 0")]],
    ("flag-snapshots-nan", "config",
     ["simulate", "--solution", "theta1", "--kappa", "0.001", "--alpha", "0.001", "--grid", "32",
      "--t-end", "0.5", "--dt", "0.01", "--snapshots", "nan", "--outputs", "report",
      "--outdir", "o"], {}, "--snapshots: snapshots (nan,) must lie in [0, 0.5]"),
    ("flag-grid-extent", "config", [*_BOUNDS, "--grid", "16384", "--t-end", "0"], {},
     "--grid: bad grid '16384'"),
    ("flag-too-many-steps", "config",
     [*_BOUNDS, "--grid", "16", "--t-end", "1", "--dt", "1e-300"], {},
     "--dt: t_end / dt = 1e+300 exceeds 10000000 steps"),
    ("flag-dt-above-t-end", "config",
     [*_BOUNDS, "--grid", "16", "--t-end", "0.2", "--dt", "0.5"], {},
     "--dt: dt = 0.5 exceeds t_end = 0.2"),
    ("flag-rate-overflow", "config",
     ["simulate", "--solution", "theta1", "--kappa", "1e308", "--alpha", "0.9", "--grid", "16",
      "--dt", "1", "--t-end", "1", "--outdir", "o"], {}, "decay rate"),
    # simulate: checks a run makes before it writes
    ("exact-mode-on-datum", "config",
     [*_SIMULATE, "--solution", "con-1", "--mode", "exact"], {},
     "mode = exact requires an exact solution"),
    ("correlation-on-exact", "config",
     [*_SIMULATE, "--solution", "theta1", "--require-correlation-below", "0.5"], {},
     "require_correlation_below needs a non-exact datum"),
    ("grid-too-coarse", "config",
     [*_SIMULATE, "--solution", "theta3", "--grid", "4", "--mode", "exact"], {},
     "resolves modes up to"),
    ("correlation-on-datum-at-0", "config",
     ["simulate", "--solution", "con-1", "--kappa", "0.001", "--alpha", "0.4", "--grid", "16",
      "--t-end", "0", *_CORRELATION], {}, "require_correlation_below"),
    *[(f"correlation-on-theta1-{mode}", "config",
       ["simulate", "--solution", "theta1", "--kappa", "0.001", "--alpha", "0.001",
        "--grid", "16", "--t-end", "1", "--dt", "0.1", "--mode", mode, *_CORRELATION], {},
       "require_correlation_below") for mode in ("auto", "exact")],
    # runtime
    ("blowup", "runtime",
     [*_BLOWUP, "--alpha", "0.4", "--grid", "64", "--t-end", "50", "--dt", "5",
      "--outputs", "report"], {}, "blew up"),
    ("blowup-with-fields", "runtime",
     [*_BLOWUP, "--alpha", "0", "--grid", "32", "--t-end", "40", "--dt", "2",
      "--outputs", "csv,report"], {}, "blew up"),
]


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.mark.parametrize("kind,argv,inputs,fragment", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_a_rejection_keeps_the_contract(kind, argv, inputs, fragment, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.chdir(tmp_path)
    for path, data in inputs.items():
        if data is _DIR:
            (tmp_path / path).mkdir()
        else:
            (tmp_path / path).write_bytes(data)
    code, start = CONTRACT[kind]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.startswith(start), err
    assert "Traceback" not in err
    assert _tree(tmp_path) == sorted(inputs)
    for path, data in inputs.items():   # every input is left as it was given
        if data is _DIR:
            assert (tmp_path / path).is_dir()
        else:
            assert (tmp_path / path).read_bytes() == data
    assert fragment in err
    assert out == ""


def test_a_programming_error_is_a_traceback(monkeypatch):
    def broken(path):
        raise KeyError("a bug, not a bad input")

    monkeypatch.setattr(cli, "read_field_csv", broken)
    with pytest.raises(KeyError, match="a bug"):
        main(["render", "--input", "x.csv", "--output", "x.ppm"])
