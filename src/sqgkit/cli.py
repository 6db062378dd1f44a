"""Command-line interface.

Subcommands::

    sqg eval      evaluate a builtin solution at one time, write CSV/PPM
    sqg simulate  run the solver from flags and/or a config file
    sqg verify    residual-check a builtin solution over a set of times
    sqg render    render a field CSV to a PPM contour image
    sqg scenario  run a builtin scenario (figure1, constantin-negative) or a
                  config file

``simulate`` has a flag per top-level config key (``--t-end`` for ``t_end``);
flags reach :func:`~sqgkit.fileio.parse_config` as values that win over the
config file's.  The other subcommands hand their values' text to ``fileio``'s
readers too, so every subcommand reports all issues of its values together,
each at its flag, and no output may name another path of its command line.
Every flag but ``--help`` takes a value, after ``=`` or as the next
argument alike, also one that starts with ``-`` (``--kappa -inf``).
Exit codes: 0 success, 1 verification failure, 2 usage/config error (a bad
parameter, from every subcommand), 3 runtime error (blowup, I/O failure).  :func:`main` alone turns
a typed error into exit 2 or 3: every exit-2 message starts ``config error: ``
and every exit-3 message ``runtime error: ``.  A programming error is a
traceback, not an exit code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import (ConfigError, DomainError, FormatError, InvalidSolution, SqgError,
                     UnderResolved)
from .fileio import (_TOP_KEYS, ScenarioConfig, _flag, _read_flags, parse_config, read_field_csv,
                     read_field_csv_time, render_contour, write_field_csv)
from .scenario import RESIDUAL_TOL, builtin_scenarios, run_builtin, run_scenario
from .solutions import _HARD_CODES, builtin_samples, eval_theta, validate
from .verify import residual

__all__ = ["main"]


def _config_text(path) -> str:
    """The text of the config file at ``path``.

    Raises:
        ConfigError: The file is not UTF-8 text.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError([(path, f"not UTF-8 text: {exc}")]) from exc


def _require_output(flag: str, path: str, what: str = "", taken: str | None = None) -> None:
    """Reject an output path that is a directory, whose directory does not
    exist or that names the file at ``taken``, another path of the command
    line (``what``), before any output is written."""
    if os.path.isdir(path):
        raise ConfigError([(flag, f"{path!r} is a directory")])
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError([(flag, f"no directory {parent!r} to write {path!r} in")])
    if taken:
        try:
            same = os.path.samefile(path, taken)
        except OSError:   # a file that does not exist yet
            same = os.path.realpath(path) == os.path.realpath(taken)
        if same:
            raise ConfigError([(flag, f"{path!r} would overwrite {what}")])


def _cmd_eval(args) -> int:
    if not args.csv and not args.ppm:
        raise ConfigError([("eval", "give at least one of --csv/--ppm")])
    vars(args).update(_read_flags(vars(args)))
    if args.csv:
        _require_output("--csv", args.csv)
    if args.ppm:
        _require_output("--ppm", args.ppm, "the --csv file", args.csv)
    sample = builtin_samples()[args.solution]
    if sample.exact:
        field = eval_theta(sample.solution(args.kappa, args.alpha), args.time, args.grid)
    elif args.time == 0.0:
        field = sample.initial_field(args.grid)
    else:
        raise ConfigError([("--time", f"{args.solution} is not an exact solution; only t = 0 "
                                      "can be evaluated in closed form (use 'sqg simulate')")])
    if args.csv:
        write_field_csv(field, args.csv, t=args.time)
        print(f"wrote {args.csv}")
    if args.ppm:
        render_contour(field, args.ppm, levels=args.levels)
        print(f"wrote {args.ppm}")
    return 0


def _cmd_simulate(args) -> int:
    text = _config_text(args.config) if args.config else ""
    overrides = [(key, getattr(args, key)) for key in _TOP_KEYS if getattr(args, key) is not None]
    result = run_scenario(parse_config(text, overrides))
    _print_checks(result)
    return result.exit_code


def _cmd_verify(args) -> int:
    vars(args).update(_read_flags(vars(args)))
    sol = builtin_samples()[args.solution].solution(args.kappa, args.alpha)
    if sol is None:
        raise ConfigError([("--solution", f"{args.solution} has no closed-form solution object")])
    report = validate(sol)
    if any(v.code in _HARD_CODES for v in report.violations):
        raise InvalidSolution(report)   # a bad parameter, not a failed check
    if not report.ok:
        print(f"{args.solution}: NOT an exact solution:")
        for v in report.violations:
            print(f"  - {v.message}")
        return 1
    worst = 0.0
    for t in args.times:
        rep = residual(sol, t, args.grid)
        worst = max(worst, rep.l_inf)
        print(f"t = {t:g}: residual l_inf = {rep.l_inf:.3e}, l2 = {rep.l2:.3e}, "
              f"advection l_inf = {rep.nonlinear_linf:.3e}")
    ok = worst <= args.tol
    print(f"max residual l_inf = {worst:.3e} "
          f"({'<=' if ok else '>'} tolerance {args.tol:g}): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_render(args) -> int:
    vars(args).update(_read_flags(vars(args)))
    _require_output("--output", args.output, "the input", args.input)
    field = read_field_csv(args.input)
    t = read_field_csv_time(args.input)   # before the output is written
    render_contour(field, args.output, levels=args.levels)
    print(f"wrote {args.output} ({field.grid.n_x}x{field.grid.n_y}, t = {t:g})")
    return 0


def _cmd_scenario(args) -> int:
    if args.target in builtin_scenarios():
        result = run_builtin(args.target, outdir=args.outdir)
    else:
        overrides = [] if args.outdir is None else [("outdir", args.outdir)]
        result = run_scenario(parse_config(_config_text(args.target), overrides))
    _print_checks(result)
    return result.exit_code


def _print_checks(result) -> None:
    for c in result.checks:
        t = "" if c.time is None else f" t={c.time:g}"
        print(f"{c.check} {c.subject}{t}: {c.value:.6g} {c.threshold} [{c.status}]")
    print(f"artifacts in {result.outdir} ({len(result.artifacts)} files); "
          f"exit {result.exit_code}")


@functools.lru_cache(maxsize=1)   # built once per process; parse_args does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqg",
        description="Spectral toolkit for the dissipative surface "
                    "quasi-geostrophic equation on the 2-pi torus.")
    sub = parser.add_subparsers(dest="command", required=True)

    # A value is text, its default too: the command reads it by _read_flags.
    sample = argparse.ArgumentParser(add_help=False)   # the flags of eval and verify
    sample.add_argument("--solution", required=True)
    sample.add_argument("--kappa", default="0.001")
    sample.add_argument("--alpha", default="0.001")
    sample.add_argument("--grid", default="64")
    levels = str(ScenarioConfig.levels)

    p = sub.add_parser("eval", parents=[sample], help="evaluate a builtin solution at one time")
    p.add_argument("--time", default="0")
    p.add_argument("--csv", help="output field CSV path")
    p.add_argument("--ppm", help="output contour image path")
    p.add_argument("--levels", default=levels)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="run the solver (flags and/or --config)")
    p.add_argument("--config", help="config file; flags override its values")
    for key in _TOP_KEYS:   # values are read by parse_config, as in a file
        p.add_argument(_flag(key))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", parents=[sample], help="residual-check a builtin solution")
    p.add_argument("--times", default="0,1,10")
    p.add_argument("--tol", default=str(RESIDUAL_TOL))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="render a field CSV to a PPM image")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--levels", default=levels)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("scenario", help="run a builtin scenario or config file")
    p.add_argument("target", help="builtin name (figure1, constantin-negative) "
                                  "or a config file path")
    p.add_argument("--outdir")
    p.set_defaults(func=_cmd_scenario)

    return parser


def _joined(argv: list) -> list:
    """``argv`` with each ``--flag value`` whose value starts with one ``-``
    written ``--flag=value``: argparse would take ``-inf`` or ``-1e3`` for a
    flag of its own, and every flag of sqg but ``--help`` takes a value."""
    joined: list = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        if (flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)
                and arg.startswith("-") and not arg.startswith("--") and arg != "-"):
            joined[-1] = flag + "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    """Entry point; returns the process exit code (see module docstring)."""
    try:
        args = _build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:   # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DomainError, FormatError, InvalidSolution, UnderResolved,
            FileNotFoundError, IsADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SqgError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
