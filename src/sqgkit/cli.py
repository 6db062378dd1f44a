"""Command-line interface.

Subcommands::

    sqg eval      evaluate a builtin solution at one time, write CSV/PPM
    sqg simulate  run the solver from flags and/or a config file
    sqg verify    residual-check a builtin solution over a set of times
    sqg render    render a field CSV to a PPM contour image
    sqg scenario  run a builtin scenario (figure1, constantin-negative) or a
                  config file

Flags mirror config keys; when both a config file and flags are given, flags
win.  Exit codes: 0 success, 1 verification failure, 2 usage/config error
(a bad parameter, from every subcommand), 3 runtime error (blowup, I/O
failure).
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ConfigError, FormatError, InvalidSolution, SqgError, UnderResolved
from .fileio import (_TOP_KEYS, parse_config, parse_grid, read_field_csv, read_field_csv_time,
                     render_contour, write_field_csv)
from .scenario import builtin_scenarios, run_builtin, run_scenario
from .solutions import builtin_samples, validate
from .spectral import GridSpec
from .verify import _HARD_CODES, residual

__all__ = ["main"]


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file; flags override its values")
    p.add_argument("--solution", help="builtin solution or datum name")
    p.add_argument("--kappa", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--grid", help='resolution, e.g. "64" or "64x32"')
    p.add_argument("--snapshots", help="comma-separated snapshot times")
    p.add_argument("--dealias", choices=["true", "false"])
    p.add_argument("--outdir")
    p.add_argument("--outputs", help="comma list from {csv, ppm, report}")
    p.add_argument("--levels", type=int)
    p.add_argument("--mode", choices=["auto", "exact", "simulate", "both"])
    p.add_argument("--name")
    p.add_argument("--require-correlation-below", dest="require_correlation_below",
                   type=float)


def _merged_config(args) -> str:
    """File text (if any) plus one override line per given flag; last wins."""
    parts = []
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            parts.append(fh.read())
    for key, value in vars(args).items():   # parser order, not the hash-seeded set order
        if key in _TOP_KEYS and value is not None:
            parts.append(f"{key} = {value}")
    return "\n".join(parts) + "\n"


def _parse_grid(text: str) -> GridSpec:
    try:
        return parse_grid(text)
    except ValueError as exc:
        raise ConfigError([("grid", f"bad grid {text!r}: {exc}")]) from exc


def _check_levels(levels: int) -> None:
    if levels < 2:
        raise ConfigError([("levels", f"levels must be >= 2, got {levels}")])


def _cmd_eval(args) -> int:
    if not args.csv and not args.ppm:
        print("eval: give at least one of --csv/--ppm", file=sys.stderr)
        return 2
    _check_levels(args.levels)   # before the CSV is written
    if not math.isfinite(args.time):
        raise ConfigError([("time", f"time must be finite, got {args.time}")])
    samples = builtin_samples()
    if args.solution not in samples:
        print(f"eval: unknown solution {args.solution!r}; known: "
              f"{', '.join(samples)}", file=sys.stderr)
        return 2
    sample = samples[args.solution]
    grid = _parse_grid(args.grid)
    if sample.exact:
        from .solutions import eval_theta
        field = eval_theta(sample.solution(args.kappa, args.alpha), args.time, grid)
    elif args.time == 0.0:
        field = sample.initial_field(grid)
    else:
        print(f"eval: {args.solution} is not an exact solution; only t = 0 "
              "can be evaluated in closed form (use 'sqg simulate')", file=sys.stderr)
        return 2
    if args.csv:
        write_field_csv(field, args.csv, t=args.time)
        print(f"wrote {args.csv}")
    if args.ppm:
        render_contour(field, args.ppm, levels=args.levels)
        print(f"wrote {args.ppm}")
    return 0


def _cmd_simulate(args) -> int:
    config = parse_config(_merged_config(args))
    result = run_scenario(config)
    _print_checks(result)
    return result.exit_code


def _cmd_verify(args) -> int:
    samples = builtin_samples()
    if args.solution not in samples:
        print(f"verify: unknown solution {args.solution!r}", file=sys.stderr)
        return 2
    sample = samples[args.solution]
    sol = sample.solution(args.kappa, args.alpha)
    if sol is None:
        print(f"verify: {args.solution} has no closed-form solution object",
              file=sys.stderr)
        return 2
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
        if not all(map(math.isfinite, times)):   # a NaN residual would read as a pass
            raise ValueError("times must be finite")
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
    _check_levels(args.levels)
    field = read_field_csv(args.input)
    render_contour(field, args.output, levels=args.levels)
    t = read_field_csv_time(args.input)
    print(f"wrote {args.output} ({field.grid.n_x}x{field.grid.n_y}, t = {t:g})")
    return 0


def _cmd_scenario(args) -> int:
    if args.target in builtin_scenarios():
        result = run_builtin(args.target, outdir=args.outdir)
    else:
        with open(args.target, "r", encoding="utf-8") as fh:
            text = fh.read()
        if args.outdir:
            text += f"\noutdir = {args.outdir}\n"
        result = run_scenario(parse_config(text))
    _print_checks(result)
    return result.exit_code


def _print_checks(result) -> None:
    for c in result.checks:
        t = "" if c.time is None else f" t={c.time:g}"
        print(f"{c.check} {c.subject}{t}: {c.value:.6g} {c.threshold} [{c.status}]")
    print(f"artifacts in {result.outdir} ({len(result.artifacts)} files); "
          f"exit {result.exit_code}")


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
    p.add_argument("--tol", type=float, default=1e-10)
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
    except (ConfigError, FormatError, InvalidSolution, UnderResolved, FileNotFoundError,
            KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SqgError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
