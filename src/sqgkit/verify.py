"""Quantitative checks of every property the exact solutions are claimed to have.

The central object is the discrete residual of the SQG equation

    r = ∂θ/∂t + u·∇θ + κ (-Δ)^α θ,

assembled with the *analytic* time derivative (so the residual isolates the
spatial operators) and the spectral advection/dissipation terms.  For a valid
solution of either family the residual is round-off; for a constraint-breaking
candidate the advection term survives and the report flags it.

On a grid θ(t) = Σ_r e^(-r t) P_r (see :mod:`sqgkit.solutions`), so the
residual is factorised: its linear part is Σ_r e^(-r t) L_r and its bilinear
advection term Σ_{i<=j} e^(-(r_i + r_j) t) N_ij.  Every ``L_r`` and ``N_ij``
goes through the spectral operators once per (solution, grid); after the
first time a residual is two weighted sums and three norms, with no FFT.

Also here: decay-rate fits against κ·E^α, the pattern-correlation and
unidirectionality metrics that operationalize "the flow pattern does not
change", and solver-versus-exact error tracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import solutions as _sol
from .errors import DegenerateFit, DomainError, InvalidSolution, UnderResolved, ZeroField
from .integrator import SolverParams, Trajectory, simulate
from .solutions import ValidationReport, validate
from .spectral import (GridSpec, PhysicalField, _frac_laplacian_multiplier, _multipliers,
                       _to_coefficients, _to_values, _velocity_hats)

__all__ = [
    "ResidualReport",
    "DecayFit",
    "residual",
    "decay_rate_fit",
    "pattern_correlation",
    "unidirectionality_check",
    "solver_vs_exact",
    "max_mode",
]


@dataclass(frozen=True)
class ResidualReport:
    """Norms of the discrete PDE residual at one time.

    ``nonlinear_linf`` is the sup norm of the advection term alone: ~0 for
    every exact solution, order one for candidates that merely look like one.
    """

    t: float
    l_inf: float
    l2: float
    nonlinear_linf: float
    grid: GridSpec


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay rate of log ||θ(t)||₂ against the analytic rate."""

    fitted_rate: float
    expected_rate: float
    relative_error: float
    sample_times: tuple


def max_mode(sol) -> tuple[int, int]:
    """Largest active integer wavenumber of ``sol`` per axis."""
    waves = _sol._waves(sol)
    return (max((abs(p) for p, _, _, _ in waves), default=0),
            max((abs(q) for _, q, _, _ in waves), default=0))


# Validation codes that make pointwise evaluation itself meaningless.  The
# Pythagorean coupling constraint is deliberately NOT among them: a
# constraint-breaking candidate still defines a perfectly good field, and the
# residual report is exactly the tool that exposes its non-exactness.
_HARD_CODES = frozenset({"kappa", "alpha", "rate", "nm_zero", "k_zero", "modes_dup",
                         "nonfinite"})


def _residual_terms(sol, grid: GridSpec) -> tuple[tuple, tuple]:
    """``(linear, advection)``: the residual of ``sol`` on ``grid`` as rate-weighted terms.

    With θ(t) = Σ_r e^(-r t) P_r on the grid (``solutions._grid_patterns``),
    the rest of the residual is linear in the patterns and the advection term
    is bilinear, so

        ∂θ/∂t + κ(-Δ)^α θ = Σ_r e^(-r t) L_r,              L_r = κ(-Δ)^α P_r - r P_r,
        u·∇θ = Σ_{i<=j} e^(-(r_i + r_j) t) N_ij,    N_ij = dealias(u_i·∇P_j + u_j·∇P_i),

    with ``N_ii = dealias(u_i·∇P_i)`` and ``u_i`` the velocity of the
    dealiased ``P_i``.  ``linear`` holds ``(r, L_r)`` and ``advection``
    ``(r_i + r_j, N_ij)``, each term a read-only array of node values.  The
    terms are kept beside the patterns in their one-entry cache, so a
    residual at a new time costs no transform, and the terms are dropped
    with the patterns when another (solution, grid) pair is evaluated.
    """
    entry = _sol._grid_data(sol, grid.n_x, grid.n_y)
    terms = entry.get("residual")
    if terms is None:
        patterns = entry["patterns"]
        dealias = _multipliers(grid.n_x, grid.n_y, grid.n_x // 2 + 1).dealias
        coefs = [_to_coefficients(pattern, grid) for _, pattern in patterns]
        sums = _advection_sums(coefs, grid)
        advection = []
        for i, j in list(sums):
            total_hat = _to_coefficients(sums.pop((i, j)), grid)
            total_hat *= dealias
            advection.append((patterns[i][0] + patterns[j][0], _to_values(total_hat, grid)))
            del total_hat
        # Built last, so no advection work array is alive beside them.
        dissip = sol.kappa * _frac_laplacian_multiplier(grid.n_x, grid.n_y, sol.alpha)
        linear = []
        for rate, pattern in patterns:
            term = _to_values(dissip * coefs.pop(0), grid)
            term -= rate * pattern
            linear.append((rate, term))
        for _, term in linear + advection:
            term.setflags(write=False)
        terms = entry["residual"] = (tuple(linear), tuple(advection))
    return terms


def _advection_sums(coefs: list, grid: GridSpec) -> dict:
    """``u_i·∇P_j + u_j·∇P_i`` (``u_i·∇P_i`` for ``i = j``) per pair ``(i, j)``, ``i <= j``.

    ``coefs`` are the half spectra of the patterns; the velocity and the
    gradients are taken of their dealiased parts.  Each ordered pair is added
    in place into the sum of its unordered pair.  ``∇P_j`` is transformed
    anew for every ``i``, so besides ``coefs`` and the sums only ``u_i``,
    ``v_i`` and one product are alive at a time.
    """
    table = _multipliers(grid.n_x, grid.n_y, grid.n_x // 2 + 1)

    def dealiased_values(coef, multiplier):
        hat = coef * multiplier
        hat *= table.dealias
        return _to_values(hat, grid)

    sums: dict[tuple[int, int], np.ndarray] = {}
    for i, coef_i in enumerate(coefs):
        u_hat, v_hat = _velocity_hats(coef_i * table.dealias, grid)
        u = _to_values(u_hat, grid)
        v = _to_values(v_hat, grid)
        del u_hat, v_hat
        for j, coef_j in enumerate(coefs):
            pair = (min(i, j), max(i, j))
            product = dealiased_values(coef_j, table.ikx)
            product *= u
            if pair in sums:
                sums[pair] += product
            else:
                sums[pair] = product
            product = dealiased_values(coef_j, table.iky)
            product *= v
            sums[pair] += product
            del product
    return sums


def residual(sol, t: float, grid: GridSpec, kappa: float | None = None,
             alpha: float | None = None) -> ResidualReport:
    """Assemble the discrete SQG residual of ``sol`` at time ``t``.

    Args:
        sol: Solution (or candidate) from :mod:`sqgkit.solutions`.
        t: Evaluation time.
        grid: Grid for the spectral operators; must resolve every active mode
            with a margin of at least 2x (i.e. ``4 * max_mode <= n``).
        kappa, alpha: Optional overrides of the solution's own parameters,
            convenient for parameter sweeps.

    Returns:
        Norms of ∂θ/∂t + u·∇θ + κ(-Δ)^α θ; all below 1e-10 for valid
        solutions on grids up to 256².

    Raises:
        InvalidSolution: For violations that break evaluation itself (bad
            κ/α, zero direction, duplicate modes).  A broken coupling
            constraint does *not* raise — it shows up as a large
            ``nonlinear_linf``.
        UnderResolved: If the grid margin check fails.
    """
    sol = _sol.with_parameters(sol, kappa, alpha)
    report = validate(sol)
    hard = [v for v in report.violations if v.code in _HARD_CODES]
    if hard:
        raise InvalidSolution(ValidationReport(tuple(hard), report.notes))
    mx, my = max_mode(sol)
    if 4 * mx > grid.n_x or 4 * my > grid.n_y:
        raise UnderResolved(
            f"grid {grid.n_x}x{grid.n_y} resolves modes up to "
            f"({grid.n_x // 4}, {grid.n_y // 4}) with 2x margin; "
            f"solution needs ({mx}, {my})")

    linear, advection = _residual_terms(sol, grid)
    work = np.empty(grid.shape)
    nonlin = np.zeros(grid.shape)
    for rate, term in advection:
        nonlin += np.multiply(math.exp(-rate * t), term, out=work)
    nonlinear_linf = float(np.max(np.abs(nonlin)))
    resid = nonlin
    for rate, term in linear:
        resid += np.multiply(math.exp(-rate * t), term, out=work)
    l_inf = float(np.max(np.abs(resid)))
    l2 = float(np.sqrt(np.sum(resid**2) * grid.cell_area))
    return ResidualReport(t=float(t), l_inf=l_inf, l2=l2,
                          nonlinear_linf=nonlinear_linf, grid=grid)


def decay_rate_fit(traj: Trajectory, expected_eigenvalue: float, kappa: float,
                   alpha: float) -> DecayFit:
    """Fit the decay rate of ``log ||θ(t)||₂`` over a trajectory.

    For a single-eigenvalue solution the norm is exactly
    ``exp(-κ E^α t) ||θ(0)||₂``, so the least-squares slope recovers
    ``κ E^α`` to round-off.

    Args:
        traj: Trajectory with at least 3 snapshots of nonzero norm.
        expected_eigenvalue: The squared wavenumber magnitude E = n² + m².
        kappa, alpha: Parameters defining the expected rate κ·E^α.

    Raises:
        DegenerateFit: Fewer than 3 snapshots, zero time spread, or a norm
            underflowing 1e-300.
    """
    times = np.array([s.t for s in traj.snapshots], dtype=float)
    norms = np.array([s.l2 for s in traj.snapshots], dtype=float)
    if len(times) < 3:
        raise DegenerateFit(f"need at least 3 snapshots, got {len(times)}")
    if np.any(norms < 1e-300):
        raise DegenerateFit("L2 norm underflow: extend the snapshot window or "
                            "rescale the initial datum")
    if times[-1] - times[0] <= 0.0:
        raise DegenerateFit("snapshot times have zero spread")
    slope = np.polyfit(times, np.log(norms), 1)[0]
    fitted = -float(slope)
    expected = kappa * float(expected_eigenvalue)**alpha
    rel = abs(fitted - expected) / abs(expected)
    return DecayFit(fitted_rate=fitted, expected_rate=expected,
                    relative_error=rel, sample_times=tuple(times))


def pattern_correlation(a: PhysicalField, b: PhysicalField) -> float:
    """L2 inner product of the mean-removed, unit-normalized fields.

    Equals 1 exactly when ``a`` and ``b`` are positive scalar multiples of
    each other — the operational meaning of "the flow pattern is unchanged",
    since proportional mean-free fields share every level set.

    Raises:
        ValueError: If the fields live on different grids.
        ZeroField: If either mean-removed field has norm below 1e-300.
    """
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")
    da = a.values - a.values.mean()
    db = b.values - b.values.mean()
    na = float(np.sqrt(np.sum(da * da)))
    nb = float(np.sqrt(np.sum(db * db)))
    if na < 1e-300 or nb < 1e-300:
        raise ZeroField("pattern correlation of an (effectively) zero field")
    corr = float(np.sum(da * db)) / (na * nb)
    return min(1.0, max(-1.0, corr))


def unidirectionality_check(f: PhysicalField, n: int, m: int) -> float:
    """Fraction of spectral energy off the ray through ``(n, m)``.

    A wavevector ``(kx, ky)`` lies on the ray iff ``kx·m - ky·n = 0`` (the
    mean mode counts as on-ray).  Returns 0 for perfectly unidirectional
    fields; the ``sin x sin y`` checkerboard against ``(1, 1)`` gives exactly
    0.5 (half its energy sits on the perpendicular diagonal).

    Raises:
        DomainError: If ``n = m = 0``.
        ZeroField: If the field carries no spectral energy.
    """
    n, m = int(n), int(m)
    if n == 0 and m == 0:
        raise DomainError("direction (n, m) must be nonzero")
    grid = f.grid
    energy = np.abs(_to_coefficients(f.values, grid))**2
    # The half spectrum stands for the full one: columns 1 … n_x/2 - 1 also
    # stand for their mirror images (-kx, -ky), which carry the same energy.
    mirrored = energy[:, 1:-1]
    total = float(energy.sum() + mirrored.sum())
    if total < 1e-300:
        raise ZeroField("unidirectionality check of an (effectively) zero field")
    table = _multipliers(grid.n_x, grid.n_y, energy.shape[-1])
    off_ray = table.kx * m != table.ky * n   # exact: small-integer float arithmetic
    # The ray test is odd in k, so a mirror image gets its original's verdict,
    # except on the ky = -n_y/2 row: there the mirror of (kx, ky) is stored
    # as (-kx, -n_y/2), not (-kx, n_y/2), and is tested under that label.
    mirror_off = off_ray[:, 1:-1].copy()
    nyq = grid.n_y // 2
    mirror_off[nyq] = -table.kx[0, 1:-1] * m != table.ky[nyq, 0] * n
    off = np.sum(energy, where=off_ray) + np.sum(mirrored, where=mirror_off)
    return float(off) / total


def solver_vs_exact(sol, params: SolverParams, grid: GridSpec) -> list[tuple[float, float]]:
    """Relative L2 error of the solver against the exact solution over time.

    Runs :func:`sqgkit.integrator.simulate` from ``eval_theta(sol, 0)`` and
    compares each snapshot against ``eval_theta(sol, t)``.

    Returns:
        List of ``(t, relative_l2_error)`` pairs, one per snapshot.

    Raises:
        InvalidSolution: If ``sol`` does not validate (this check requires a
            genuinely exact reference).
    """
    report = validate(sol)
    if not report.ok:
        raise InvalidSolution(report)
    return _solver_error(sol, _sol.eval_theta(sol, 0.0, grid), params)[1]


def _solver_error(sol, initial: PhysicalField, params: SolverParams) -> tuple[Trajectory, list]:
    """``(trajectory, series)``: the solver run from ``initial = θ(0)`` of the
    valid ``sol``, and its :func:`solver_vs_exact` series."""
    grid = initial.grid
    traj = simulate(initial, params)
    series = []
    for snap in traj.snapshots:
        exact = _sol.eval_theta(sol, snap.t, grid)
        diff = snap.field.values - exact.values
        err = float(np.sqrt(np.sum(diff**2) * grid.cell_area))
        series.append((snap.t, err / max(exact.l2_norm(), 1e-300)))
    return traj, series
