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
first time a residual is one weighted sum into a buffer and its norms, with
no FFT.  The ``residual_linf`` rows of a run are one such pass
(``_residual_linf``): one validation and one sum buffer for all its times,
and the sup norm alone at each.
The same factorisation makes the pattern-correlation and off-ray checks of
θ(t) quadratic forms in the weights e^(-r t) (see :class:`_Grams`).

Also here: decay-rate fits against κ·E^α, the pattern-correlation and
unidirectionality metrics that operationalize "the flow pattern does not
change", and solver-versus-exact error tracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import solutions as _sol
from .errors import DegenerateFit, DomainError, InvalidSolution, UnderResolved, ZeroField
from .integrator import SolverParams, Trajectory, simulate
from .solutions import _HARD_CODES, ValidationReport, validate
from .spectral import (GridSpec, PhysicalField, _advect, _dealiased,
                       _frac_laplacian_multiplier, _mirror_sum, _to_coefficients,
                       _to_cut_spectrum, _to_nodes, _to_values, _velocity_nodes, _workspace)

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
    with the patterns when another (solution, grid) pair is evaluated.  The
    pattern spectra also give the entry's :class:`_Grams`.

    The pair sums come from the advection kernel of :mod:`sqgkit.spectral`
    on spectra cut by its 2/3 rule (``_dealiased``): each ``u_i`` is
    inverted once, and each ordered pair ``(i, j)`` adds ``u_i·∇P_j`` into
    the sum of its unordered pair.
    """
    entry = _sol._grid_data(sol, grid.n_x, grid.n_y)
    terms = entry.get("residual")
    if terms is None:
        patterns = entry["patterns"]
        coefs = [_to_coefficients(pattern, grid) for _, pattern in patterns]
        entry["grams"] = _pattern_grams(tuple(rate for rate, _ in patterns), coefs, grid,
                                        _sol._direction(sol))
        # Made after the pattern spectra and before the terms the build keeps,
        # so its memory is reused by the next build instead of faulted in
        # anew.  Made before the spectra, it no longer fit the memory the last
        # build freed: about 740 minor faults per 256² exact-check op.
        ws = _workspace(grid, True)
        sums: dict[tuple[int, int], np.ndarray] = {}
        for i, coef_i in enumerate(coefs):
            _velocity_nodes(_dealiased(coef_i, grid, ws.theta, ws.mask), grid, ws)
            for j, coef_j in enumerate(coefs):
                b = _dealiased(coef_j, grid, ws.theta, ws.mask)
                pair = (min(i, j), max(i, j))
                if pair in sums:
                    _advect(b, grid, ws, acc=sums[pair])
                else:   # each sum keeps the product array it is written into
                    if sums:
                        ws = ws._replace(product=np.empty(grid.shape))
                    sums[pair] = _advect(b, grid, ws)
        advection = []
        for (i, j), total in sums.items():
            # The term overwrites its sum, which the forward transform has read.
            _to_cut_spectrum(total, ws, ws.theta)
            advection.append((patterns[i][0] + patterns[j][0],
                              _to_nodes(ws.theta, grid, ws, total)))
        del ws, sums
        # Built last, so no advection work array is alive beside them.
        mult = _frac_laplacian_multiplier(grid.n_x, grid.n_y, sol.alpha)
        linear = []
        with np.errstate(over="ignore", invalid="ignore"):
            dissip = sol.kappa * mult
            # κ|k|^(2α) overflows only off the waves, whose rates are finite,
            # so there ĉ is round-off and κ·(|k|^(2α)·ĉ) stays finite.
            huge = np.isinf(dissip)
            for rate, pattern in patterns:
                coef = coefs.pop(0)
                hat = dissip * coef
                hat[huge] = sol.kappa * (mult[huge] * coef[huge])
                term = _to_values(hat, grid)
                term -= rate * pattern
                linear.append((rate, term))
        for _, term in linear + advection:
            term.setflags(write=False)
        terms = entry["residual"] = (tuple(linear), tuple(advection))
    return terms


class _Grams(NamedTuple):
    """Quadratic diagnostics of θ(t) = Σ_r e^(-r t) P_r as ``k × k`` matrices.

    With the weights ``w_r = e^(-r t)`` (up to a common factor, see
    ``_weights``), a quadratic quantity of θ(t) is
    ``w·G·w`` for the matching Gram matrix ``G``, so a check at a new time
    costs ``O(k²)`` scalars and no field.  ``centred[i, j]`` is
    ``⟨P_i - mean P_i, P_j - mean P_j⟩`` summed over the nodes; ``total`` and
    ``off_ray`` are ``Σ Re(ĉ_i conj ĉ_j)`` over the full spectrum and over
    its part off the ray of ``_off_ray`` (``None`` without a direction).  All
    three share one power-of-two scale (see ``_pattern_grams``).
    """

    rates: tuple
    centred: np.ndarray
    total: np.ndarray
    off_ray: np.ndarray | None

    def _weights(self, t: float) -> np.ndarray:
        # Both checks are invariant under a positive scale of θ(t), so the
        # weights are taken relative to the slowest rate: e^(-r t) may
        # underflow, but the largest weight is 1.
        t, low = _sol._finite_time(t), min(self.rates, default=0.0)
        return np.array([_sol._decay(rate - low, t) for rate in self.rates])

    def correlation(self, t: float) -> float:
        """:func:`pattern_correlation` of θ(t) against θ(0)."""
        w, g = self._weights(t), self.centred
        return _correlation(float(w @ g.sum(axis=1)), math.sqrt(max(w @ g @ w, 0.0)),
                            math.sqrt(max(g.sum(), 0.0)))

    def off_ray_fraction(self, t: float) -> float:
        """:func:`unidirectionality_check` of θ(t) along the Gram's direction."""
        w = self._weights(t)
        total = float(w @ self.total @ w)
        if total < 1e-300:
            raise ZeroField("unidirectionality check of an (effectively) zero field")
        return float(w @ self.off_ray @ w) / total


def _pattern_grams(rates: tuple, coefs: list, grid: GridSpec,
                   direction: tuple[int, int] | None = None) -> _Grams:
    """The :class:`_Grams` of the patterns with half spectra ``coefs`` (Parseval).

    The mean mode is left out of every sum before it is added, so a large
    mean does not cancel against the centred part; it is on every ray.  The
    spectra are first scaled by one power of two that brings their largest
    part into [0.5, 1), so the products of tiny amplitudes do not underflow;
    every check is a ratio of the sums, so the scale moves no bit of it.
    """
    top = max((float(np.max(np.abs(part))) for c in coefs for part in (c.real, c.imag)),
              default=0.0)
    shift = -math.frexp(top)[1]   # ldexp by -e: 2^-e alone overflows for a subnormal top
    parts = [(np.ldexp(c.real, shift), np.ldexp(c.imag, shift)) for c in coefs]
    k = len(coefs)
    centred, total, off = np.zeros((k, k)), np.zeros((k, k)), np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            cross = parts[i][0] * parts[j][0]
            cross += parts[i][1] * parts[j][1]   # Re(ĉ_i conj ĉ_j)
            mean = cross[0, 0]
            cross[0, 0] = 0.0
            wave = _mirror_sum(cross)
            centred[i, j] = centred[j, i] = grid.size * wave
            total[i, j] = total[j, i] = wave + mean
            if direction is not None:
                off[i, j] = off[j, i] = _mirror_sum(cross, grid, _off_ray(*direction))
    return _Grams(rates, centred, total, off if direction is not None else None)


def _grams(sol, grid: GridSpec) -> _Grams:
    """The :class:`_Grams` of ``sol`` on ``grid``, kept with its residual terms."""
    _residual_terms(sol, grid)
    return _sol._grid_data(sol, grid.n_x, grid.n_y)["grams"]


def residual(sol, t: float, grid: GridSpec, kappa: float | None = None,
             alpha: float | None = None) -> ResidualReport:
    """Assemble the discrete SQG residual of ``sol`` at time ``t``.

    One call validates, sums the weighted residual terms into a new buffer
    and takes three norms of it.  The scenario's ``residual_linf`` rows come
    from ``_residual_linf`` instead, which validates once for all its times
    and takes the sup norm alone; both sum by ``_residual_into``, so each
    row is bit for bit this ``l_inf``.

    Args:
        sol: Solution (or candidate) from :mod:`sqgkit.solutions`.
        t: Evaluation time.
        grid: Grid for the spectral operators; must resolve every active mode
            with a margin of at least 2x (i.e. ``4 * max_mode <= n``).
        kappa, alpha: Optional overrides of the solution's own parameters,
            convenient for parameter sweeps.

    Returns:
        Norms of ∂θ/∂t + u·∇θ + κ(-Δ)^α θ; for valid solutions round-off that grows as
        amplitude², below 1e-10 for coefficients up to about 20 on 256² and 50 on 64².

    Raises:
        InvalidSolution: For violations that break evaluation itself (bad
            κ/α, zero direction, duplicate modes).  A broken coupling
            constraint does *not* raise — it shows up as a large
            ``nonlinear_linf``.
        UnderResolved: If the grid margin check fails.
        DomainError: If ``t`` is not finite or a decay weight ``e^(-rate t)``
            overflows (a large negative ``t``).
    """
    sol = _resolved(_sol.with_parameters(sol, kappa, alpha), grid)
    resid, work = np.empty(grid.shape), np.empty(grid.shape)
    nonlinear_linf = _residual_into(_residual_terms(sol, grid), _sol._finite_time(t), resid,
                                    work, nonlinear=True)
    l_inf = float(np.max(np.abs(resid, out=work)))
    with np.errstate(over="ignore"):
        l2 = float(np.sqrt(np.sum(np.square(resid, out=work)) * grid.cell_area))
    if math.isinf(l2) and math.isfinite(l_inf):   # the squares overflowed
        l2 = l_inf * float(np.sqrt(np.sum((resid / l_inf)**2) * grid.cell_area))
    return ResidualReport(t=float(t), l_inf=l_inf, l2=l2,
                          nonlinear_linf=nonlinear_linf, grid=grid)


def _residual_linf(sol, times, grid: GridSpec) -> list[float]:
    """``[residual(sol, t, grid).l_inf for t in times]``, bit for bit, in one pass.

    The solution is validated and its grid margin checked once, raising what
    :func:`residual` raises, and every time is summed into one buffer by the
    summation of :func:`residual`, which then takes only the sup norm.
    """
    sol = _resolved(sol, grid)
    terms = _residual_terms(sol, grid)
    resid, work = np.empty(grid.shape), np.empty(grid.shape)
    linf = []
    for t in times:
        _residual_into(terms, _sol._finite_time(t), resid, work)
        linf.append(float(np.max(np.abs(resid, out=work))))
    return linf


def _resolved(sol, grid: GridSpec):
    """``sol``, once it validates and ``grid`` resolves it with the margin of :func:`residual`."""
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
    return sol


def _residual_into(terms: tuple, t: float, resid: np.ndarray, work: np.ndarray,
                   nonlinear: bool = False) -> float | None:
    """Write the residual at ``t`` of the ``(linear, advection)`` terms into ``resid``.

    The advection terms are summed first; with ``nonlinear`` the sup norm of
    that partial sum is returned, else None.  ``work`` holds each weighted
    term before it is added.  The first term is written into ``resid``, not
    added to zeros: only the sign of a zero can differ, which no norm sees.
    A pair's rate r_i + r_j may overflow to inf, and inf·0 is NaN: at t = 0
    every weight is 1 (``_decay``).
    """
    linear, advection = terms
    for k, (rate, term) in enumerate(advection):
        if k:
            resid += np.multiply(_sol._decay(rate, t), term, out=work)
        else:
            np.multiply(_sol._decay(rate, t), term, out=resid)
    if not advection:   # no wave at all
        resid.fill(0.0)
    nonlinear_linf = float(np.max(np.abs(resid, out=work))) if nonlinear else None
    for rate, term in linear:
        resid += np.multiply(_sol._decay(rate, t), term, out=work)
    return nonlinear_linf


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
    return _correlation(float(np.sum(da * db)), na, nb)


def _correlation(dot: float, na: float, nb: float) -> float:
    """``dot / (na nb)`` clipped to [-1, 1]; ZeroField for a norm below 1e-300."""
    if na < 1e-300 or nb < 1e-300:
        raise ZeroField("pattern correlation of an (effectively) zero field")
    corr = dot / (na * nb)
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
    energy = np.abs(_to_coefficients(f.values, f.grid))**2
    total = _mirror_sum(energy)
    if total < 1e-300:
        raise ZeroField("unidirectionality check of an (effectively) zero field")
    return _mirror_sum(energy, f.grid, _off_ray(n, m)) / total


def _off_ray(n: int, m: int):
    """The predicate of :func:`spectral._mirror_sum` that holds off the ray
    through ``(n, m)``: ``kx·m != ky·n``, exact in small-integer float arithmetic."""
    return lambda kx, ky: kx * m != ky * n


def solver_vs_exact(sol, params: SolverParams, grid: GridSpec) -> list[tuple[float, float]]:
    """Relative L2 error of the solver against the exact solution over time.

    Runs :func:`sqgkit.integrator.simulate` from ``eval_theta(sol, 0)`` and
    compares each snapshot against ``eval_theta(sol, t)``.

    Returns:
        List of ``(t, relative_l2_error)`` pairs, one per snapshot.

    Raises:
        InvalidSolution: If ``sol`` does not validate (this check requires a
            genuinely exact reference).
        DomainError: If ``params`` has another κ or α than ``sol``, so the
            two would solve different equations.
    """
    _sol._require_valid(sol)
    if (params.kappa, params.alpha) != (sol.kappa, sol.alpha):
        raise DomainError(f"solver kappa, alpha = {params.kappa}, {params.alpha} differ from "
                          f"the solution's {sol.kappa}, {sol.alpha}")
    traj = simulate(_sol.eval_theta(sol, 0.0, grid), params)
    return [(snap.t, _relative_error(snap.field, _sol.eval_theta(sol, snap.t, grid)))
            for snap in traj.snapshots]


def _relative_error(field: PhysicalField, exact: PhysicalField) -> float:
    """Relative L2 distance of ``field`` from the closed form ``exact``."""
    diff = field.values - exact.values
    err = float(np.sqrt(np.sum(diff**2) * field.grid.cell_area))
    return err / max(exact.l2_norm(), 1e-300)
