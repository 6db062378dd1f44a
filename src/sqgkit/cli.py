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
config file's, and an error in one names the flag.  Exit codes: 0 success,
1 verification failure, 2 usage/config error (a bad parameter, from every
subcommand), 3 runtime error (blowup, I/O failure).  :func:`main` alone turns
a typed error into exit 2 or 3: every exit-2 message starts ``config error: ``
and every exit-3 message ``runtime error: ``.  A programming error is a
traceback, not an exit code.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .errors import (ConfigError, DomainError, FormatError, InvalidSolution, SqgError,
                     UnderResolved)
from .fileio import (_TOP_KEYS, _check_levels, _flag, parse_config, parse_grid, read_field_csv,
                     read_field_csv_time, render_contour, write_field_csv)
from .integrator import parameter_issues
from .scenario import RESIDUAL_TOL, builtin_scenarios, run_builtin, run_scenario
from .solutions import _HARD_CODES, builtin_samples, eval_theta, validate
from .spectral import GridSpec
from .verify import residual

__all__ = ["main"]


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file; flags override its values")
    for key in _TOP_KEYS:   # values are checked by parse_config, as in a file
        p.add_argument(_flag(key))


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


def _parse_grid(text: str) -> GridSpec:
    try:
        return parse_grid(text)
    except ValueError as exc:
        raise ConfigError([("grid", f"bad grid {text!r}: {exc}")]) from exc


def _require_levels(levels: int) -> None:
    try:
        _check_levels(levels)
    except ValueError as exc:
        raise ConfigError([("levels", str(exc))]) from exc


def _sample(name: str):
    samples = builtin_samples()
    if name not in samples:
        raise ConfigError([("solution", f"unknown solution {name!r}; known: "
                                        f"{', '.join(samples)}")])
    return samples[name]


def _require_output(flag: str, path: str) -> None:
    """Reject an output path that is a directory or whose directory does not
    exist, before either output is written."""
    if os.path.isdir(path):
        raise ConfigError([(flag, f"{path!r} is a directory")])
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError([(flag, f"no directory {parent!r} to write {path!r} in")])


def _cmd_eval(args) -> int:
    if not args.csv and not args.ppm:
        raise ConfigError([("eval", "give at least one of --csv/--ppm")])
    for flag, path in (("--csv", args.csv), ("--ppm", args.ppm)):
        if path:
            _require_output(flag, path)
    _require_levels(args.levels)   # before the CSV is written
    if not math.isfinite(args.time):
        raise ConfigError([("time", f"time must be finite, got {args.time}")])
    issues = parameter_issues(kappa=args.kappa, alpha=args.alpha)
    if issues:   # also for a datum that has no closed form
        raise ConfigError(issues)
    sample = _sample(args.solution)
    grid = _parse_grid(args.grid)
    if sample.exact:
        field = eval_theta(sample.solution(args.kappa, args.alpha), args.time, grid)
    elif args.time == 0.0:
        field = sample.initial_field(grid)
    else:
        raise ConfigError([("time", f"{args.solution} is not an exact solution; only t = 0 "
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
    sol = _sample(args.solution).solution(args.kappa, args.alpha)
    if sol is None:
        raise ConfigError([("solution", f"{args.solution} has no closed-form solution object")])
    report = validate(sol)
    if any(v.code in _HARD_CODES for v in report.violations):
        raise InvalidSolution(report)   # a bad parameter, not a failed check
    if not report.ok:
        print(f"{args.solution}: NOT an exact solution:")
        for v in report.violations:
            print(f"  - {v.message}")
        return 1
    grid = _parse_grid(args.grid)
    if not math.isfinite(args.tol):   # a NaN tolerance would read as a failure
        raise ConfigError([("tol", f"tol must be finite, got {args.tol}")])
    try:
        times = [float(t) for t in args.times.split(",") if t.strip()]
        if not times or not all(map(math.isfinite, times)):   # either would read as a pass
            raise ValueError("times must be finite" if times else "no times given")
    except ValueError as exc:
        raise ConfigError([("times", f"bad times {args.times!r}: {exc}")]) from exc
    worst = 0.0
    for t in times:
        rep = residual(sol, t, grid)
        worst = max(worst, rep.l_inf)
        print(f"t = {t:g}: residual l_inf = {rep.l_inf:.3e}, l2 = {rep.l2:.3e}, "
              f"advection l_inf = {rep.nonlinear_linf:.3e}")
    ok = worst <= args.tol
    print(f"max residual l_inf = {worst:.3e} "
          f"({'<=' if ok else '>'} tolerance {args.tol:g}): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_render(args) -> int:
    _require_levels(args.levels)
    field = read_field_csv(args.input)
    render_contour(field, args.output, levels=args.levels)
    t = read_field_csv_time(args.input)
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

    p = sub.add_parser("eval", help="evaluate a builtin solution at one time")
    p.add_argument("--solution", required=True)
    p.add_argument("--kappa", type=float, default=0.001)
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--time", type=float, default=0.0)
    p.add_argument("--grid", default="64")
    p.add_argument("--csv", help="output field CSV path")
    p.add_argument("--ppm", help="output contour image path")
    p.add_argument("--levels", type=int, default=21)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="run the solver (flags and/or --config)")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="residual-check a builtin solution")
    p.add_argument("--solution", required=True)
    p.add_argument("--kappa", type=float, default=0.001)
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--grid", default="64")
    p.add_argument("--times", default="0,1,10")
    p.add_argument("--tol", type=float, default=RESIDUAL_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="render a field CSV to a PPM image")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--levels", type=int, default=21)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("scenario", help="run a builtin scenario or config file")
    p.add_argument("target", help="builtin name (figure1, constantin-negative) "
                                  "or a config file path")
    p.add_argument("--outdir")
    p.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code (see module docstring)."""
    try:
        args = _build_parser().parse_args(argv)
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
