"""Pseudo-spectral time evolution of the dissipative SQG equation.

The equation splits into a stiff diagonal part (the fractional dissipation)
and the advection term.  Steps use an integrating-factor RK4 (IFRK4): with
``E(s) = exp(-κ |k|^(2α) s)`` applied as a diagonal multiplier, the classical
RK4 stages act on the transformed variable, so the linear part is integrated
*exactly* and the whole scheme is fourth order in the nonlinearity.  On any
initial datum whose advection term vanishes — every exact solution implemented
in :mod:`sqgkit.solutions` — the solver therefore reproduces the analytic
decay to round-off, which the verification module exploits as a sharp test.
``_march``, behind both :func:`step` and :func:`simulate`, is the one
stepping path: decay factors, landing on target times and the blowup guard.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BlowupDetected, DomainError, StabilityWarning
from .spectral import (GridSpec, PhysicalField, SpectralField, _advection_width,
                       _frac_laplacian_multiplier, _full_spectrum, _half_spectrum,
                       _mirror_sum, _nonlinear_hat, _to_coefficients, _to_values,
                       _velocity_hats, _Workspace, _workspace)

__all__ = ["SolverParams", "parameter_issues", "Snapshot", "Trajectory", "step", "simulate",
           "CFL_CONSTANT", "BLOWUP_FACTOR", "MAX_STEPS"]

CFL_CONSTANT = 0.5
BLOWUP_FACTOR = 1e6
MAX_STEPS = 10**7   # ⌈t_end/dt⌉; at 64², 10⁷ steps already take about ten hours


@dataclass(frozen=True)
class SolverParams:
    """Parameters of one run, checked by :func:`parameter_issues`.

    Args:
        kappa: Dissipation coefficient, > 0.
        alpha: Fractional Laplacian exponent in [0, 1).
        dt: Time step, > 0 and <= t_end when t_end > 0, with at most
            ``MAX_STEPS`` steps to t_end.
        t_end: Final time, >= 0.
        dealias: Apply the 2/3 rule around the advection products (default on).
        snapshot_times: Optional times in [0, t_end] at which to record fields;
            0 and t_end are always recorded.  The march lands on each snapshot
            time exactly (a shortened step, never interpolation).
    """

    kappa: float
    alpha: float
    dt: float
    t_end: float
    dealias: bool = True
    snapshot_times: tuple = ()

    def __post_init__(self):
        times = tuple(sorted(float(t) for t in self.snapshot_times))
        issues = parameter_issues(self.kappa, self.alpha, self.dt, self.t_end, times)
        if issues:
            raise DomainError("; ".join(message for _, message in issues))
        object.__setattr__(self, "snapshot_times", times)


def parameter_issues(kappa=None, alpha=None, dt=None, t_end=None,
                     snapshot_times=()) -> list[tuple[str, str]]:
    """``(key, message)`` for each parameter of a run outside its domain.

    The one statement of the domain: κ > 0, 0 <= α < 1, dt > 0, t_end >= 0,
    each finite; dt <= t_end when t_end > 0, at most ``MAX_STEPS`` steps to
    t_end, and every snapshot time in [0, t_end].  A parameter given as None
    is not checked, and NaN lies outside every range.  The dt/t_end and
    snapshot rules need both ends valid; they report under ``dt`` and
    ``snapshots``.
    """
    issues = []
    if kappa is not None and not 0.0 < kappa < math.inf:
        issues.append(("kappa", f"kappa must be finite and > 0, got {kappa}"))
    if alpha is not None and not 0.0 <= alpha < 1.0:
        issues.append(("alpha", f"alpha must lie in [0, 1), got {alpha}"))
    dt_ok = dt is not None and 0.0 < dt < math.inf
    if dt is not None and not dt_ok:
        issues.append(("dt", f"dt must be finite and > 0, got {dt}"))
    if t_end is None:
        return issues
    if not 0.0 <= t_end < math.inf:
        issues.append(("t_end", f"t_end must be finite and >= 0, got {t_end}"))
        return issues
    if dt_ok and t_end > 0.0 and dt > t_end:
        issues.append(("dt", f"dt = {dt} exceeds t_end = {t_end}"))
    elif dt_ok and t_end / dt > MAX_STEPS:   # ⌈x⌉ > N iff x > N; inf compares too
        issues.append(("dt", f"t_end / dt = {t_end / dt:.3g} exceeds {MAX_STEPS} steps"))
    if not all(0.0 <= t <= t_end for t in snapshot_times):
        issues.append(("snapshots", f"snapshots {snapshot_times} must lie in [0, {t_end}]"))
    return issues


@dataclass(frozen=True)
class Snapshot:
    """One recorded state with its diagnostics."""

    t: float
    field: PhysicalField
    l2: float
    l_inf: float
    mean: float


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered snapshots of one simulation on a shared grid."""

    grid: GridSpec
    snapshots: tuple

    @property
    def times(self) -> tuple:
        return tuple(s.t for s in self.snapshots)

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]

    def field_at(self, t: float) -> PhysicalField:
        """Return the recorded field at time ``t`` (exact match required)."""
        for s in self.snapshots:
            if s.t == t:
                return s.field
        raise KeyError(f"no snapshot at t = {t!r}; recorded times: {self.times}")


def _symbol(grid: GridSpec, kappa: float, alpha: float) -> np.ndarray:
    """Dissipation symbol κ (kx² + ky²)^α (κ itself at k = 0 when α = 0), half spectrum.

    A product that overflows is inf, silently: its decay factor e^(-inf·dt) = 0
    is the right one.
    """
    with np.errstate(over="ignore"):
        return kappa * _frac_laplacian_multiplier(grid.n_x, grid.n_y, alpha)


class _StepWork(NamedTuple):
    """Work arrays of IFRK4 steps on one grid, built once per run.

    Each is an ``(n_y, _advection_width)`` complex array.  ``c``, ``he`` and
    ``fe`` take a step's input and decay factors on those columns, so every
    operand of a step's arithmetic is C-contiguous and complex: numpy copies
    a strided or real operand of a ufunc into a buffer of up to 8192 values,
    all of a stage array at 128².
    """

    advection: _Workspace
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    n4: np.ndarray
    x: np.ndarray
    c: np.ndarray
    he: np.ndarray
    fe: np.ndarray


def _step_work(grid: GridSpec, dealias: bool) -> _StepWork:
    shape = (grid.n_y, _advection_width(grid, dealias))
    return _StepWork(_workspace(grid, dealias),
                     *(np.empty(shape, dtype=complex) for _ in range(8)))


def _ifrk4_step(c: np.ndarray, h: float, half_e: np.ndarray, full_e: np.ndarray,
                grid: GridSpec, dealias: bool, work: _StepWork) -> np.ndarray:
    """One IFRK4 step of dθ̂/dt = -N(θ̂) - sym·θ̂ with N the advection term.

    ``c`` and the result are half spectra, and the result is a new array.  N
    reads and writes only the leading ``_advection_width`` columns, so the
    stages run on those columns, in ``work``.  Every stage term is 0 in the
    columns the 2/3 rule drops, so there the step is ``full_e * c``.  Each
    operation is the one the textbook form

        n1 = -N(c),  n2 = -N(E½(c + h/2 n1)),  n3 = -N(E½c + h/2 n2),
        n4 = -N(E c + h E½ n3),  E c + h/6 (E n1 + 2E½ (n2 + n3) + n4)

    performs, in the same order, so the result is the same bit for bit: a
    real factor enters a product as the complex value numpy casts it to.
    """
    width = _advection_width(grid, dealias)
    ws, n1, n2, n3, n4, x, cw, he, fe = work
    np.copyto(cw, c[:, :width])
    np.copyto(he, half_e[:, :width])
    np.copyto(fe, full_e[:, :width])

    def stage(theta, n):   # n = -N(theta)
        _nonlinear_hat(theta, grid, dealias, n, ws)
        np.negative(n, out=n)

    stage(cw, n1)
    np.multiply(0.5 * h, n1, out=x)
    np.add(cw, x, out=x)
    stage(np.multiply(he, x, out=x), n2)
    # n3 and n4 hold the h-scaled term of their stage input until the stage fills them.
    np.multiply(he, cw, out=x)
    stage(np.add(x, np.multiply(0.5 * h, n2, out=n3), out=x), n3)
    np.multiply(fe, cw, out=x)
    np.multiply(he, n3, out=n4)
    stage(np.add(x, np.multiply(h, n4, out=n4), out=x), n4)
    # E n1 + 2E½ (n2 + n3) + n4, summed into n1; E½ + E½ is 2.0·E½ exactly.
    np.multiply(fe, n1, out=n1)
    np.add(n2, n3, out=n2)
    np.multiply(np.add(he, he, out=n3), n2, out=n2)
    np.add(n1, n2, out=n1)
    np.add(n1, n4, out=n1)
    np.multiply(h / 6.0, n1, out=n1)
    result = np.empty(c.shape, dtype=complex)
    np.copyto(result, full_e)
    np.multiply(result, c, out=result)
    # E c + the sum on the stage columns, added in contiguous x.
    np.copyto(x, result[:, :width])
    result[:, :width] = np.add(x, n1, out=x)
    return result


def _max_speed(c: np.ndarray, grid: GridSpec) -> float:
    u_hat, v_hat = _velocity_hats(c, grid)
    u = _to_values(u_hat, grid)
    v = _to_values(v_hat, grid)
    return float(np.sqrt(np.max(u * u + v * v)))


def _check_cfl(c: np.ndarray, grid: GridSpec, dt: float, t: float,
               already_warned: bool) -> bool:
    """Warn (once per run) when dt exceeds the advective stability estimate."""
    u_max = _max_speed(c, grid)
    if u_max <= 0.0:
        return already_warned
    k_max = math.hypot(grid.n_x / 2.0, grid.n_y / 2.0)
    allowed = CFL_CONSTANT / (u_max * k_max)
    if dt > allowed and not already_warned:
        warnings.warn(
            f"dt = {dt:g} exceeds the stability estimate {allowed:.3e} "
            f"(= {CFL_CONSTANT}/(max|u|*max|k|)) at t = {t:g}; "
            "the run may be inaccurate or unstable",
            StabilityWarning, stacklevel=3)
        return True
    return already_warned


def step(state: SpectralField, params: SolverParams) -> SpectralField:
    """Advance one time step of length ``params.dt``: a :func:`_march` to ``dt``.

    The diagonal dissipation is integrated exactly by the integrating factor;
    since the stage combination collapses to the plain multiplier
    ``exp(-κ|k|^(2α) dt)`` when the advection term vanishes, a single step on
    an eigenfunction datum matches the analytic decay to a few ulp.

    Raises:
        BlowupDetected: If the result is non-finite or its sup norm exceeds
            ``BLOWUP_FACTOR`` times the input's.
    """
    grid = state.grid
    (_, c), = _march(_half_spectrum(state.coefficients, grid), params, grid, (params.dt,))
    return SpectralField(grid, _full_spectrum(c, grid))


def _guard_blowup(c: np.ndarray, grid: GridSpec, t: float, linf0: float,
                  c0: np.ndarray | None = None) -> None:
    """Raise unless the half spectrum ``c`` is finite and within the sup-norm limit.

    sup|θ| <= Σ|ĉ| over the full spectrum (1e-9 covers the round-off), so only
    a state whose bound reaches the limit is inverted: the guard raises on
    exactly the steps a transform of every state would.  Given the initial
    half spectrum ``c0``, ``linf0`` is its floor max|ĉ0| <= sup|θ0|, and ``c0``
    is inverted for sup|θ0| only when the bound reaches the limit on it.
    """
    finite = bool(np.all(np.isfinite(c)))
    if finite and _mirror_sum(np.abs(c)) * (1.0 + 1e-9) <= BLOWUP_FACTOR * linf0:
        return
    if c0 is not None:
        return _guard_blowup(c, grid, t, float(np.max(np.abs(_to_values(c0, grid)))))
    if not finite:
        raise BlowupDetected(t, "non-finite coefficients")
    linf = float(np.max(np.abs(_to_values(c, grid))))
    if linf > BLOWUP_FACTOR * linf0:
        raise BlowupDetected(t, f"sup norm {linf:.3e} exceeds {BLOWUP_FACTOR:g} x initial {linf0:.3e}")


def _march(c: np.ndarray, params: SolverParams, grid: GridSpec, targets,
           linf0: float | None = None):
    """Advance the half spectrum ``c`` from t = 0; yield ``(t, c)`` on landing at each target.

    The one stepping path.  Each segment up to the next ascending target takes
    full ``dt`` steps, then one shortened step if the remainder exceeds 1e-9·dt.
    :func:`_guard_blowup` checks every step against ``linf0`` = sup|θ(0)|; when
    it is None, ``c`` is inverted for it only if the floor max|ĉ| trips.
    """
    sym = _symbol(grid, params.kappa, params.alpha)
    half_e = np.exp(-0.5 * params.dt * sym)
    full_e = half_e * half_e
    work = _step_work(grid, params.dealias)
    c0, floor = (c, float(np.max(np.abs(c)))) if linf0 is None else (None, linf0)
    for t, target in zip((0.0, *targets), targets):
        n_full = int(math.floor((target - t) / params.dt + 1e-9))
        remainder = target - t - n_full * params.dt
        for i in range(n_full):
            c = _ifrk4_step(c, params.dt, half_e, full_e, grid, params.dealias, work)
            _guard_blowup(c, grid, t + (i + 1) * params.dt, floor, c0)
        if remainder > 1e-9 * params.dt:
            he = np.exp(-0.5 * remainder * sym)
            c = _ifrk4_step(c, remainder, he, he * he, grid, params.dealias, work)
            _guard_blowup(c, grid, target, floor, c0)
        yield target, c


def _record(snapshots: list, t: float, c: np.ndarray, grid: GridSpec) -> None:
    field = PhysicalField._owning(grid, _to_values(c, grid))
    snapshots.append(Snapshot(t=t, field=field, l2=field.l2_norm(),
                              l_inf=field.linf_norm(), mean=field.mean()))


def simulate(initial: PhysicalField, params: SolverParams) -> Trajectory:
    """March from ``t = 0`` to ``t_end`` and record the snapshot schedule.

    :func:`_march`, the one stepping path, lands on each snapshot time exactly
    and guards every step; here each landing is recorded.  The stability
    estimate is checked at the start and at every snapshot; violations raise
    :class:`StabilityWarning` (a warning, not an error — the blowup guard is
    the hard failure).

    Raises:
        BlowupDetected: With the time of failure, if the state becomes
            non-finite or exceeds ``BLOWUP_FACTOR`` times the initial sup norm.
    """
    grid = initial.grid
    c = _to_coefficients(initial.values, grid)
    linf0 = float(np.max(np.abs(initial.values)))
    targets = sorted({0.0, float(params.t_end), *params.snapshot_times})
    snapshots: list[Snapshot] = []
    _record(snapshots, 0.0, c, grid)
    warned = _check_cfl(c, grid, params.dt, 0.0, already_warned=False)
    for t, c in _march(c, params, grid, targets[1:], linf0):
        _record(snapshots, t, c, grid)
        warned = _check_cfl(c, grid, params.dt, t, warned)
    return Trajectory(grid, tuple(snapshots))
