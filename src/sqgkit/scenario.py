"""Config-driven scenario execution: evaluate, simulate, check, emit artifacts.

A scenario takes one solution (or initial datum), runs the analytic evaluator
and/or the solver over a snapshot schedule, writes the configured artifacts
(field CSVs, PPM contour images, a ``report.csv`` of every check), and maps
the check outcomes onto the process exit code: 0 only when every configured
tolerance holds.

``mode`` selects the engines: for exact solutions ``exact`` runs the analytic
evaluator only, ``both`` (the ``auto`` default) additionally runs the solver
and compares it against the closed form, ``simulate`` runs the solver without
emitting the analytic fields.  Non-exact data always run in ``simulate`` mode.

Report rows have columns ``check,subject,time,value,threshold,status`` with
all floats at 17 significant digits, so identical configs produce
byte-identical reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import verify
from .errors import ConstraintViolation
from .fileio import ScenarioConfig, render_contour, write_field_csv
from .integrator import SolverParams, simulate
from .solutions import UnidirectionalSolution, _waves, builtin_samples, eval_theta, validate
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

RESIDUAL_TOL = 1e-10        # residual sup norm, grids up to 256^2
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


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Execute one scenario and write its artifacts.

    Returns:
        A :class:`ScenarioResult`; ``exit_code`` is 0 iff every configured
        check passed its tolerance.

    Raises:
        ConstraintViolation: If the mode is incompatible with the solution
            kind (``exact`` on a non-exact datum).
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


def _run(config: ScenarioConfig) -> tuple[list, list]:
    """Run one config and write its field artifacts; returns ``(checks, artifacts)``."""
    os.makedirs(config.outdir, exist_ok=True)
    artifacts: list[str] = []
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

    name = config.name or "field"
    times = sorted({0.0, float(config.t_end), *config.snapshot_times})
    params = None
    if mode != "exact" and config.t_end > 0.0:
        params = SolverParams(kappa=config.kappa, alpha=config.alpha, dt=config.dt,
                              t_end=config.t_end, dealias=config.dealias,
                              snapshot_times=tuple(times))

    def emit(field, t, prefix=name):
        base = os.path.join(config.outdir, f"{prefix}_t{t:g}")
        if "csv" in config.outputs:
            write_field_csv(field, base + ".csv", t=t)
            artifacts.append(base + ".csv")
        if "ppm" in config.outputs:
            render_contour(field, base + ".ppm", levels=config.levels)
            artifacts.append(base + ".ppm")

    if exact:
        single_e = _single_eigenvalue(sol)
        theta0 = eval_theta(sol, 0.0, config.grid)
        for t in times:
            field = theta0 if t == 0.0 else eval_theta(sol, t, config.grid)
            if mode in ("exact", "both"):
                emit(field, t)
            rep = verify.residual(sol, t, config.grid)
            checks.append(CheckResult("residual_linf", name, t, rep.l_inf,
                                      f"<={RESIDUAL_TOL:g}", rep.l_inf <= RESIDUAL_TOL))
            # A zero or mean-only field has no pattern to correlate.
            if single_e and t > 0.0:
                dev = abs(verify.pattern_correlation(field, theta0) - 1.0)
                checks.append(CheckResult("correlation_dev", name, t, dev,
                                          f"<={CORRELATION_TOL:g}", dev <= CORRELATION_TOL))
            if isinstance(sol, UnidirectionalSolution) and theta0.values.any():
                off = verify.unidirectionality_check(field, sol.n, sol.m)
                checks.append(CheckResult("unidirectional_offray", name, t, off,
                                          f"<={UNIDIRECTIONAL_TOL:g}",
                                          off <= UNIDIRECTIONAL_TOL))
        if params is not None:
            traj, series = verify._solver_error(sol, theta0, params)
            if mode == "simulate":
                for snap in traj.snapshots:
                    emit(snap.field, snap.t, prefix=f"{name}_sim")
            worst = max(err for _, err in series)
            checks.append(CheckResult("solver_rel_l2", name, config.t_end, worst,
                                      f"<={SOLVER_TOL:g}", worst <= SOLVER_TOL))
            if single_e and len(traj.snapshots) >= 3:
                fit = verify.decay_rate_fit(traj, single_e, config.kappa, config.alpha)
                checks.append(CheckResult("decay_rate_rel_err", name, config.t_end,
                                          fit.relative_error, f"<={DECAY_TOL:g}",
                                          fit.relative_error <= DECAY_TOL))
    else:
        datum = sample.initial_field(config.grid)
        if sol is not None:
            # Show that validation genuinely rejects the lookalike solution form.
            report = validate(sol)
            checks.append(CheckResult("validation_rejected", name, None,
                                      float(len(report.violations)), ">=1",
                                      len(report.violations) >= 1))
        if params is not None:
            traj = simulate(datum, params)
            for snap in traj.snapshots:
                emit(snap.field, snap.t)
            corr = verify.pattern_correlation(traj.final.field, traj.snapshots[0].field)
            if config.require_correlation_below is not None:
                thr = config.require_correlation_below
                checks.append(CheckResult("correlation_final", name, config.t_end, corr,
                                          f"<{thr:g}", corr < thr))
            else:
                checks.append(CheckResult("correlation_final", name, config.t_end,
                                          corr, "", None))
        else:
            emit(datum, 0.0)
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
    """
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
