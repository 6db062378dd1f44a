"""Config-driven scenario execution: evaluate, simulate, check, emit artifacts.

A scenario takes one solution (or initial datum), runs the analytic evaluator
and/or the solver over a snapshot schedule, writes the configured artifacts
(field CSVs, PPM contour images, a ``report.csv`` of every check), and maps
the check outcomes onto the process exit code: 0 only when every configured
tolerance holds.

``mode`` selects the engines.  For exact solutions ``exact`` runs the analytic
evaluator only, ``both`` (the ``auto`` default) also runs the solver and
compares it against the closed form, and ``simulate`` runs the solver alone;
non-exact data always run in ``simulate`` mode.  The solver runs once, when
the mode is not ``exact`` and t_end > 0.  ``simulate`` writes its records, as
``{name}_sim_t*`` for an exact solution and ``{name}_t*`` for a datum (at
t_end = 0 the initial field alone); the others write the closed form.

A run takes three steps, so a failed config check, a grid too coarse for the
solution or a blowup leaves no ``outdir``:

1. the closed-form rows for every time, which need no field: the
   ``residual_linf`` of all times comes from one validated pass;
2. the one solver call;
3. ``outdir`` is made, and one pass over the times builds each closed-form
   θ(t) at most once, writes it or the solver's record, and adds to the
   solver error; the solver's trailing rows and ``report.csv`` follow.

Report rows have columns ``check,subject,time,value,threshold,status`` with
all floats at 17 significant digits, so identical configs produce
byte-identical reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import verify
from .errors import ConfigError, ConstraintViolation
from .fileio import ScenarioConfig, _read_outdir, render_contour, write_field_csv
from .integrator import SolverParams, simulate
from .solutions import _waves, builtin_samples, eval_theta, validate
from .spectral import GridSpec

__all__ = [
    "CheckResult",
    "ScenarioResult",
    "run_scenario",
    "builtin_scenarios",
    "run_builtin",
    "RESIDUAL_TOL",
    "CORRELATION_TOL",
    "UNIDIRECTIONAL_TOL",
    "DECAY_TOL",
    "SOLVER_TOL",
]

RESIDUAL_TOL = 1e-10        # residual sup norm; amplitudes up to ~20 on 256^2, ~50 on 64^2
CORRELATION_TOL = 1e-10     # |pattern correlation - 1| for fixed-pattern solutions
UNIDIRECTIONAL_TOL = 1e-12  # off-ray energy fraction for unidirectional solutions
DECAY_TOL = 1e-6            # relative error of the fitted decay rate
SOLVER_TOL = 1e-8           # relative L2 solver-vs-exact error at dt = 0.01


@dataclass(frozen=True)
class CheckResult:
    """One verified quantity; ``passed`` is None for purely informational rows."""

    check: str
    subject: str
    time: float | None
    value: float
    threshold: str
    passed: bool | None

    @property
    def status(self) -> str:
        if self.passed is None:
            return "info"
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run."""

    exit_code: int
    checks: tuple
    artifacts: tuple
    outdir: str
    report_path: str | None


def _single_eigenvalue(sol) -> float | None:
    """Squared wavenumber magnitude if the solution decays at a single rate."""
    rates = {p * p + q * q for p, q, _, _ in _waves(sol)}
    return float(rates.pop()) if len(rates) == 1 else None


def _time_tag(t: float) -> str:
    """``t`` in an artifact name: ``{t:g}`` where that reads back as ``t``,
    else all 17 digits, so two snapshot times never share a file."""
    short = f"{t:g}"
    return short if float(short) == t else f"{t:.17g}"


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Execute one scenario and write its artifacts.

    Returns:
        A :class:`ScenarioResult`; ``exit_code`` is 0 iff every configured
        check passed its tolerance.

    Raises:
        ConstraintViolation: If the mode is incompatible with the solution
            kind (``exact`` on a non-exact datum), or if
            ``require_correlation_below`` is set on a run that makes no
            ``correlation_final`` row (an exact solution, or t_end = 0).
        ConfigError: ``outdir`` is a file or lies under one.
        BlowupDetected: Propagated from the solver.
    """
    checks, artifacts = _run(config)
    return _finish(config.outdir, checks, artifacts, "report" in config.outputs)


def _finish(outdir: str, checks: list, artifacts: list, report: bool) -> ScenarioResult:
    """Write ``report.csv`` (if ``report``) and map the checks onto the exit code."""
    report_path = None
    if report:
        report_path = os.path.join(outdir, "report.csv")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write("check,subject,time,value,threshold,status\n")
            for c in checks:
                t = "" if c.time is None else f"{c.time:.17g}"
                fh.write(f"{c.check},{c.subject},{t},{c.value:.17g},{c.threshold},{c.status}\n")
        artifacts.append(report_path)
    failed = any(c.passed is False for c in checks)
    return ScenarioResult(exit_code=1 if failed else 0, checks=tuple(checks),
                          artifacts=tuple(artifacts), outdir=outdir,
                          report_path=report_path)


def _require_outdir(outdir: str) -> None:
    """Reject an ``outdir`` that is not a directory or lies under a file: the
    nearest of it and its parents that exists must be a directory."""
    path = outdir
    while path and not os.path.exists(path):   # False under a file too
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        where = "" if path == outdir else f" lies under {path!r}, which"
        raise ConfigError([("outdir", f"{outdir!r}{where} is not a directory")])


def _run(config: ScenarioConfig) -> tuple[list, list]:
    """Run one config and write its field artifacts; returns ``(checks, artifacts)``."""
    checks: list[CheckResult] = []

    if isinstance(config.solution, str):
        sample = builtin_samples()[config.solution]
        exact = sample.exact
        sol = sample.solution(config.kappa, config.alpha)
    else:
        exact, sol = True, config.solution

    mode = config.mode
    if mode == "auto":
        mode = "both" if exact else "simulate"
    if not exact and mode != "simulate":
        raise ConstraintViolation(
            f"mode = {mode} requires an exact solution; {config.name or 'datum'} is not one")
    # Only a simulated non-exact datum gets the correlation_final row it gates.
    if config.require_correlation_below is not None and (exact or config.t_end == 0.0):
        raise ConstraintViolation(
            "require_correlation_below needs a non-exact datum simulated to t_end > 0; "
            f"{config.name or 'this run'} is {'exact' if exact else 'not simulated'}")

    _require_outdir(config.outdir)
    name = config.name or "field"
    times = sorted({0.0, float(config.t_end), *config.snapshot_times})
    params = None
    if mode != "exact" and config.t_end > 0.0:
        params = SolverParams(kappa=config.kappa, alpha=config.alpha, dt=config.dt,
                              t_end=config.t_end, dealias=config.dealias,
                              snapshot_times=tuple(times))

    # 1. The closed-form rows.  They are quadratic forms of the fixed patterns
    # (``verify._Grams``), so they need no θ(t) but the initial field, and a
    # grid too coarse for the solution raises here, before anything is written.
    if exact:
        single_e = _single_eigenvalue(sol)
        initial = eval_theta(sol, 0.0, config.grid)
        nonzero = initial.values.any()   # a zero field has no off-ray fraction
        linf = verify._residual_linf(sol, times, config.grid)
        grams = verify._grams(sol, config.grid)
        for t, l_inf in zip(times, linf):
            checks.append(CheckResult("residual_linf", name, t, l_inf,
                                      f"<={RESIDUAL_TOL:g}", l_inf <= RESIDUAL_TOL))
            # A zero or mean-only field has no pattern to correlate.
            if single_e and t > 0.0:
                dev = abs(grams.correlation(t) - 1.0)
                checks.append(CheckResult("correlation_dev", name, t, dev,
                                          f"<={CORRELATION_TOL:g}", dev <= CORRELATION_TOL))
            if grams.off_ray is not None and nonzero:
                off = grams.off_ray_fraction(t)
                checks.append(CheckResult("unidirectional_offray", name, t, off,
                                          f"<={UNIDIRECTIONAL_TOL:g}",
                                          off <= UNIDIRECTIONAL_TOL))
    else:
        initial = sample.initial_field(config.grid)
        if sol is not None:
            # Show that validation genuinely rejects the lookalike solution form.
            rejected = len(validate(sol).violations)
            checks.append(CheckResult("validation_rejected", name, None, float(rejected),
                                      ">=1", rejected >= 1))

    # 2. The one march; a blowup raises here, before anything is written.
    traj = None if params is None else simulate(initial, params)

    # 3. One pass over the times.  ``mode = simulate`` writes the march's
    # records (at t_end = 0 the initial field alone), the others the closed
    # form; θ(t) is built at most once, to be written or compared, or both.
    os.makedirs(config.outdir, exist_ok=True)
    writes = not {"csv", "ppm"}.isdisjoint(config.outputs)
    prefix = f"{name}_sim" if exact and mode == "simulate" else name
    artifacts: list[str] = []
    worst = 0.0
    for i, t in enumerate(times):
        record = initial if traj is None else traj.snapshots[i].field
        closed = None
        if exact and (traj is not None or writes and mode != "simulate"):
            closed = initial if t == 0.0 else eval_theta(sol, t, config.grid)
        field = record if mode == "simulate" else closed
        base = os.path.join(config.outdir, f"{prefix}_t{_time_tag(t)}")
        if "csv" in config.outputs:
            write_field_csv(field, base + ".csv", t=t)
            artifacts.append(base + ".csv")
        if "ppm" in config.outputs:
            render_contour(field, base + ".ppm", levels=config.levels)
            artifacts.append(base + ".ppm")
        if closed is not None and traj is not None:
            worst = max(worst, verify._relative_error(record, closed))
    if traj is None:
        return checks, artifacts
    if exact:
        checks.append(CheckResult("solver_rel_l2", name, config.t_end, worst,
                                  f"<={SOLVER_TOL:g}", worst <= SOLVER_TOL))
        if single_e and len(traj.snapshots) >= 3:
            fit = verify.decay_rate_fit(traj, single_e, config.kappa, config.alpha)
            checks.append(CheckResult("decay_rate_rel_err", name, config.t_end,
                                      fit.relative_error, f"<={DECAY_TOL:g}",
                                      fit.relative_error <= DECAY_TOL))
    else:
        corr = verify.pattern_correlation(traj.final.field, traj.snapshots[0].field)
        thr = config.require_correlation_below
        checks.append(CheckResult("correlation_final", name, config.t_end, corr,
                                  "" if thr is None else f"<{thr:g}",
                                  None if thr is None else corr < thr))
    return checks, artifacts


# --------------------------------------------------------------------------
# canned scenarios
# --------------------------------------------------------------------------

def run_builtin(scenario: str, outdir: str | None = None) -> ScenarioResult:
    """Run a named builtin scenario.

    ``figure1`` runs the three sample solutions θ₁, θ₂, θ₃ through the
    ``mode = exact`` scenario with κ = α = 0.001 on a 256² grid to t = 100.
    It renders each at t = 0 and t = 100 (six PPM images) and writes one
    report: the residual at both times, that the θ₁/θ₂ patterns are exactly
    preserved, and that θ₃ stays unidirectional.

    ``constantin-negative`` evolves the ``sin x sin y + cos y`` datum
    (α = 0.4, κ = 0.001) to t = 5 and checks that the pattern correlation
    with the initial field drops below 0.999 — the sharp contrast with the
    quasi-stationary family.

    Raises:
        KeyError: Unknown scenario name.
        ConfigError: ``outdir`` is not a valid config value (None means the
            scenario's default), is a file or lies under one.
    """
    if outdir is not None:   # read as a config file's: "" is an error, not the default
        _read_outdir("outdir", outdir)
    if scenario == "figure1":
        outdir = outdir or "figure1-out"
        checks, artifacts = [], []
        for key in ("theta1", "theta2", "theta3"):
            config = ScenarioConfig(
                solution=key, kappa=0.001, alpha=0.001, grid=GridSpec(256, 256),
                t_end=100.0, outdir=outdir, outputs=("ppm",), mode="exact", name=key)
            part_checks, part_artifacts = _run(config)
            checks += part_checks
            artifacts += part_artifacts
        return _finish(outdir, checks, artifacts, report=True)
    if scenario == "constantin-negative":
        config = ScenarioConfig(
            solution="con-1", kappa=0.001, alpha=0.4, grid=GridSpec(128, 128),
            t_end=5.0, dt=0.005, outdir=outdir or "constantin-out",
            outputs=("csv", "report"), name="constantin-negative",
            require_correlation_below=0.999)
        return run_scenario(config)
    raise KeyError(f"unknown builtin scenario {scenario!r}; "
                   f"known: {', '.join(builtin_scenarios())}")


def builtin_scenarios() -> tuple[str, ...]:
    return ("figure1", "constantin-negative")
