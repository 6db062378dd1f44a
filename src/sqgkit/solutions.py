"""Closed-form quasi-stationary solutions of the dissipative SQG equation.

Two families are implemented.  Writing ``E = n² + m²``:

* :class:`EigenmodeSolution` — a fixed-pattern combination of Laplacian
  eigenfunctions,

      θ(x, y, t) = e^(-κ E^α t) (c₁ sin nx sin my + c₂ cos nx sin my
                                 + c₃ sin nx cos my + c₄ cos nx cos my)
                 + e^(-κ |k|^(2α) t) (c₅ sin kx + c₆ sin ky
                                      + c₇ cos kx + c₈ cos ky),

  subject to the coupling constraint ``n² + m² = k²`` whenever both
  coefficient groups are active (so the whole field remains a single
  Laplacian eigenfunction and the advection term cancels identically).

* :class:`UnidirectionalSolution` — a superposition along one direction,

      θ(x, y, t) = Σ_k e^(-κ (n²k² + m²k²)^α t)
                       (a_k cos(k(nx + my)) + b_k sin(k(nx + my))),

  constant along the parallel lines ``nx + my = const``; each mode decays at
  its own rate but the level sets stay parallel to their initial form.

Both families are exact for one reason: every wave in the field has the same
``|k|²`` as every other wave or is parallel to it, so ``u·∇θ`` vanishes and
each wave decays by ``e^(-κ |k|^(2α) t)``.  The evaluators use exactly that:
either family expands into one list of real plane waves
``a cos(px + qy) + b sin(px + qy)`` (the eigenmode products by the
product-to-sum identities), and θ, the velocity (through
``(-Δ)^(-1/2) wave = wave / |k|``) and ``∂θ/∂t = -Σ κ |k|^(2α) wave`` are each
written once over that list, so every claim about these solutions can be
checked against the discrete operators to round-off.

On a fixed grid the waves that share a decay rate ``rate = κ |k|^(2α)`` keep
one spatial pattern, so

    θ(t) = Σ_rate e^(-rate t) P_rate,    ∂θ/∂t = -Σ_rate rate e^(-rate t) P_rate,

with ``P_rate`` the sum of that rate's waves at ``t = 0``.  The grid
evaluators and the residual build the ``P_rate`` once per (solution, grid)
and only rescale them at each new time; the arbitrary-point evaluators sum
the waves directly.

Every sum of waves goes through :func:`_wave_sum`, which takes the
trigonometry of a wave from ``P = p·x`` and ``Q = q·y`` alone,

    a cos(P + Q) + b sin(P + Q) = cos Q · (a cos P + b sin P) + sin Q · (b cos P - a sin P),

plus an exact TwoSum term that puts the wave at the rounded phase
``fl(P + Q)`` a direct ``np.cos(p*x + q*y)`` would use.  On a grid ``x`` is
one row and ``y`` one column, so a pattern costs cos and sin of
``n_x + n_y`` values per wave; the elementwise rest runs in blocks of rows,
and a pattern build holds its one full-grid result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from .errors import DomainError, InvalidSolution
from .integrator import parameter_issues
from .spectral import GridSpec, PhysicalField, _node_axes

__all__ = [
    "EigenmodeSolution",
    "UnidirectionalSolution",
    "Violation",
    "ValidationReport",
    "validate",
    "eval_theta",
    "eval_velocity",
    "eval_dtheta_dt",
    "theta_at",
    "dtheta_dt_at",
    "BuiltinSample",
    "builtin_samples",
]

Solution = Union["EigenmodeSolution", "UnidirectionalSolution"]


@dataclass(frozen=True)
class EigenmodeSolution:
    """Fixed-pattern eigenfunction solution (see module docstring).

    ``c1..c4`` multiply the ``(n, m)`` double-trig group, ``c5..c8`` the
    axis-aligned ``k`` group in the order ``sin kx, sin ky, cos kx, cos ky``.
    """

    n: int
    m: int
    kappa: float
    alpha: float
    k: int = 0
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0
    c5: float = 0.0
    c6: float = 0.0
    c7: float = 0.0
    c8: float = 0.0

    @property
    def group_a_active(self) -> bool:
        return abs(self.c1) + abs(self.c2) + abs(self.c3) + abs(self.c4) != 0.0

    @property
    def group_b_active(self) -> bool:
        return abs(self.c5) + abs(self.c6) + abs(self.c7) + abs(self.c8) != 0.0


@dataclass(frozen=True)
class UnidirectionalSolution:
    """Solution depending on space only through ``n x + m y``.

    Args:
        n, m: Direction integers, not both zero.
        kappa: Dissipation coefficient, > 0.
        alpha: Fractional dissipation exponent in [0, 1).
        modes: Sequence of ``(k, a_k, b_k)`` triples with pairwise distinct
            integer ``k``; the ``k = 0`` entry is a mean offset.
    """

    n: int
    m: int
    kappa: float
    alpha: float
    modes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        normalized = tuple((int(k), float(a), float(b)) for k, a, b in self.modes)
        object.__setattr__(self, "modes", normalized)


# Each family's class by name: its fields but κ and α are its [solution] keys.
_FAMILIES = {"eigenmode": EigenmodeSolution, "unidirectional": UnidirectionalSolution}


@dataclass(frozen=True)
class Violation:
    """One violated solution invariant; ``code`` is stable, ``message`` is for humans."""

    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: every violated invariant, plus advisory notes."""

    violations: tuple = ()
    notes: tuple = ()

    @property
    def ok(self) -> bool:
        """True iff the candidate is an exact solution (no violations)."""
        return not self.violations

    def messages(self) -> list[str]:
        return [v.message for v in self.violations]


_CONSTRAINT_NOTE = (
    "coupling constraint interpreted as: (|c1|+|c2|+|c3|+|c4|) * (|c5|+|c6|+|c7|+|c8|)"
    " != 0 requires n^2 + m^2 = k^2")


def _check_common(sol: Solution, out: list) -> None:
    issues = parameter_issues(kappa=sol.kappa, alpha=sol.alpha)
    out.extend(Violation(key, message) for key, message in issues)
    if not issues:
        try:
            rate = max((_rate(sol, p, q) for p, q, _, _ in _waves(sol)), default=0.0)
        except OverflowError:   # |k|² beyond the largest double
            rate = math.inf
        if not math.isfinite(rate):
            out.append(Violation("rate", f"decay rate kappa*|k|^(2*alpha) must be "
                                         f"finite, got {rate}"))


def validate(sol: Solution) -> ValidationReport:
    """Check every invariant of a candidate solution.

    Validation is total: it never raises, it reports.  An empty violation list
    certifies that the candidate is an exact solution of the dissipative SQG
    equation; the notes record interpretation choices and benign flags.
    """
    violations: list[Violation] = []
    notes: list[str] = []
    if isinstance(sol, EigenmodeSolution):
        _check_common(sol, violations)
        coeffs = (sol.c1, sol.c2, sol.c3, sol.c4, sol.c5, sol.c6, sol.c7, sol.c8)
        if not all(np.isfinite(c) for c in coeffs):
            violations.append(Violation("nonfinite", "coefficients must be finite"))
        if sol.n * sol.m == 0:
            violations.append(Violation("nm_zero", f"n*m must be nonzero, got n={sol.n}, m={sol.m}"))
        notes.append(_CONSTRAINT_NOTE)
        if sol.group_a_active and sol.group_b_active:
            e_a = sol.n * sol.n + sol.m * sol.m
            e_b = sol.k * sol.k
            if e_a != e_b:
                violations.append(Violation(
                    "constraint",
                    f"constraint n^2+m^2 = k^2 violated: {e_a} != {e_b}"))
        if sol.group_b_active and sol.k == 0:
            violations.append(Violation("k_zero", "k must be nonzero when c5..c8 are active"))
    elif isinstance(sol, UnidirectionalSolution):
        _check_common(sol, violations)
        if abs(sol.n) + abs(sol.m) == 0:
            violations.append(Violation("nm_zero", "direction (n, m) must be nonzero"))
        ks = [k for k, _, _ in sol.modes]
        if len(ks) != len(set(ks)):
            dupes = sorted({k for k in ks if ks.count(k) > 1})
            violations.append(Violation("modes_dup", f"duplicate mode wavenumbers: {dupes}"))
        if not all(np.isfinite(a) and np.isfinite(b) for _, a, b in sol.modes):
            violations.append(Violation("nonfinite", "mode amplitudes must be finite"))
        if any(k == 0 and (a != 0.0 or b != 0.0) for k, a, b in sol.modes):
            notes.append("k = 0 mode present: a mean offset, constant in time for "
                         "alpha > 0 and decaying as exp(-kappa t) for alpha = 0")
        notes.append("finite mode list: the summability condition sum |k| (a_k^2 + b_k^2) "
                     "< inf holds trivially")
    else:
        raise TypeError(f"not a solution type: {type(sol).__name__}")
    return ValidationReport(tuple(violations), tuple(notes))


# Validation codes that make pointwise evaluation itself meaningless.  The
# Pythagorean coupling constraint is deliberately NOT among them: a
# constraint-breaking candidate still defines a perfectly good field, and the
# residual report is exactly the tool that exposes its non-exactness.
_HARD_CODES = frozenset({"kappa", "alpha", "rate", "nm_zero", "k_zero", "modes_dup",
                         "nonfinite"})


def _require_valid(sol: Solution) -> None:
    report = validate(sol)
    if not report.ok:
        raise InvalidSolution(report)


def _direction(sol: Solution) -> tuple[int, int] | None:
    """The direction ``(n, m)`` of every wave of ``sol``, or None for a family without one."""
    return (sol.n, sol.m) if isinstance(sol, UnidirectionalSolution) else None


# --------------------------------------------------------------------------
# the plane-wave expansion behind every evaluator (arbitrary evaluation
# points; used by the grid API and by quadrature oracles)
# --------------------------------------------------------------------------

def _waves(sol: Solution) -> list[tuple[int, int, float, float]]:
    """Expand ``sol`` into real plane waves ``(p, q, a, b)``.

    Each wave is ``a cos(px + qy) + b sin(px + qy)`` at ``t = 0``.  Every wave
    of an active eigenmode group is listed, even one whose own amplitudes
    vanish, so the wavenumbers a grid must resolve follow the group;
    unidirectional modes with ``a = b = 0`` are left out.
    """
    if isinstance(sol, EigenmodeSolution):
        waves = []
        if sol.group_a_active:
            # Product to sum: sin nx sin my = (cos(nx - my) - cos(nx + my)) / 2,
            # cos nx sin my = (sin(nx + my) - sin(nx - my)) / 2, and so on.
            waves += [(sol.n, sol.m, 0.5 * (sol.c4 - sol.c1), 0.5 * (sol.c2 + sol.c3)),
                      (sol.n, -sol.m, 0.5 * (sol.c4 + sol.c1), 0.5 * (sol.c3 - sol.c2))]
        if sol.group_b_active:
            waves += [(sol.k, 0, sol.c7, sol.c5), (0, sol.k, sol.c8, sol.c6)]
        return waves
    if isinstance(sol, UnidirectionalSolution):
        return [(k * sol.n, k * sol.m, a, b) for k, a, b in sol.modes if a != 0.0 or b != 0.0]
    raise TypeError(f"not a solution type: {type(sol).__name__}")


def _rate(sol: Solution, p: int, q: int) -> float:
    """Decay rate ``κ E^α`` of the wave ``(p, q)``, ``E = p² + q²``.

    ``0.0**0.0 == 1`` keeps the mean decaying as ``e^(-κt)`` for ``α = 0`` and
    constant for ``α > 0``.
    """
    return sol.kappa * float(p * p + q * q)**sol.alpha


def _finite_time(t: float) -> float:
    """``t``, checked where it enters an evaluator: a solution with no wave
    takes no decay weight, so :func:`_decay` cannot be the check.

    Raises:
        DomainError: ``t`` is not finite (inf would give a zero weight, or
            NaN at rate 0).
    """
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    return t


def _decay(rate: float, t: float) -> float:
    """The weight ``e^(-rate t)`` at a finite ``t`` (:func:`_finite_time`),
    exactly 1 at ``t = 0`` whatever the rate.

    Raises:
        DomainError: The weight overflows a double, as it does for a large
            negative ``t``.
    """
    if not t:
        return 1.0
    try:
        weight = math.exp(-rate * t)
    except OverflowError:
        weight = math.inf
    if weight == math.inf:
        raise DomainError(f"time t = {t!r} is out of range: the decay weight "
                          f"exp(-{rate!r} * t) overflows")
    return weight


def _waves_at(sol: Solution, t: float) -> list[tuple[int, int, float, float]]:
    """``_waves(sol)`` at time ``t``: every amplitude times ``e^(-rate t)``."""
    decayed = []
    for p, q, a, b in _waves(sol):
        decay = _decay(_rate(sol, p, q), t)
        decayed.append((p, q, decay * a, decay * b))
    return decayed


# Values per block of the wave sum.  Larger blocks are faster, because a
# numpy call costs about 1.6 µs before any work and an in-place pass over 8192
# values about 2.3 µs more (2 vCPUs, numpy 2.4.6).  At 12288 the eight block
# arrays take 768 KiB, and a 512² pattern build holds under 3 MiB with its
# 2 MiB result.
_WAVE_BLOCK_VALUES = 12288


def _wave_sum(waves, x, y) -> np.ndarray:
    """``Σ a cos(px + qy) + b sin(px + qy)`` over ``waves``, added in list order.

    A wave takes its trigonometry from ``P = p·x`` and ``Q = q·y`` alone:
    with ``A = a cos P + b sin P`` and ``B = b cos P - a sin P``,

        a cos(P + Q) + b sin(P + Q) = cos Q · A + sin Q · B.

    The direct sum evaluates at the rounded phase ``φ = fl(P + Q)``, and
    ``e = P + Q - φ`` (exact by TwoSum) is up to half an ulp of ``φ``: at
    ``|φ| ≈ 10`` several ulps of a unit amplitude.  So ``e`` enters through
    the derivative in ``φ``, and each wave adds

        ((sin Q · A - cos Q · B) · e + cos Q · A) + sin Q · B,

    which is ``a cos φ + b sin φ`` up to ``O(e²)`` (below 1e-28 for
    ``|φ| < 10⁴``).  Without the ``e`` term θ3 at 32² is 1.35e-15 off
    ``np.sin(x + y) + np.sin(2x + 2y)``.  A wave along an axis (``p = 0`` or
    ``q = 0``) has ``e = 0`` and is ``a cos φ + b sin φ`` of one 1-D phase.

    On a grid ``x`` is a row ``(1, n_x)`` and ``y`` a column ``(n_y, 1)``, so
    the trigonometry costs ``O(n_x + n_y)`` per wave.  The fifteen
    elementwise passes of a wave run over blocks of about
    ``_WAVE_BLOCK_VALUES`` values along the first axis, in eight block
    arrays: the tables of ``x`` and ``y`` are copied out to the block's
    shape first, because a numpy operation on two whole arrays is 2-4 times
    faster per value than one that broadcasts a row or a column.  So the
    call holds the sum and 768 KiB.  Any other ``x`` and ``y`` that broadcast
    take the same steps, the tables of an operand that spans the first axis
    made per block, and every value has the bits it has on the grid.  An
    operand axis of stride 0, as in the meshes of ``GridSpec.nodes()``,
    repeats one slice and is read as that slice, so a mesh costs what a row
    and a column do.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    x, y = (v[tuple(slice(None, 1) if stride == 0 else slice(None) for stride in v.strides)]
            for v in (x, y))
    acc = out.reshape(out.shape or (1,))   # a view with a first axis to block over
    x = x.reshape((1,) * (acc.ndim - x.ndim) + x.shape)
    y = y.reshape((1,) * (acc.ndim - y.ndim) + y.shape)
    step = max(1, _WAVE_BLOCK_VALUES // max(1, math.prod(acc.shape[1:])))
    blocks = [slice(start, start + step) for start in range(0, len(acc), step)]
    work = np.empty((8, min(step, len(acc))) + acc.shape[1:])
    for p, q, a, b in waves:
        if p == 0 or q == 0:
            k, axis = (p, x) if q == 0 else (q, y)
            along = _per_block(axis, lambda v: _amplitudes(k, v, a, b)[1])
            for rows in blocks:
                acc[rows] += along(rows)
            continue
        x_tables = _per_block(x, lambda v: _amplitudes(p, v, a, b))
        y_tables = _per_block(y, lambda v: _trig(q, v))
        for rows in blocks:
            block = acc[rows]
            P, A, B, Q, cos_q, sin_q, w, d = work[:, :len(block)]
            # The x tables stay in their arrays while they hold for the next
            # block; the y arrays are used up by each block.
            if rows.start == 0 or len(x) > 1:
                for buf, table in zip((P, A, B), x_tables(rows)):
                    np.copyto(buf, table)
            for buf, table in zip((Q, cos_q, sin_q), y_tables(rows)):
                np.copyto(buf, table)
            # TwoSum: P + Q = φ + e exactly, e into w.
            np.add(P, Q, out=w)
            np.subtract(w, P, out=d)
            w -= d
            Q -= d
            np.subtract(P, w, out=w)
            w += Q
            # ((sin Q·A - cos Q·B)·e + cos Q·A) + sin Q·B, into Q.
            np.multiply(sin_q, A, out=Q)
            Q -= np.multiply(cos_q, B, out=d)
            Q *= w
            cos_q *= A
            Q += cos_q
            sin_q *= B
            Q += sin_q
            block += Q
    return out


def _per_block(v: np.ndarray, make):
    """``rows -> make(v[rows])``, made once when ``v`` does not span the first axis."""
    if len(v) == 1:
        tables = make(v)
        return lambda rows: tables
    return lambda rows: make(v[rows])


def _amplitudes(k: int, v: np.ndarray, a: float, b: float) -> tuple:
    """``(K, a cos K + b sin K, b cos K - a sin K)`` for ``K = k·v``."""
    K = np.multiply(k, v)
    cos_k, sin_k = np.cos(K), np.sin(K)
    return K, a * cos_k + b * sin_k, b * cos_k - a * sin_k


def _trig(k: int, v: np.ndarray) -> tuple:
    """``(K, cos K, sin K)`` for ``K = k·v``."""
    K = np.multiply(k, v)
    return K, np.cos(K), np.sin(K)


def _theta_at(sol: Solution, t: float, x, y):
    return _wave_sum(_waves_at(sol, t), x, y)[()]   # a NumPy scalar at a single point


def _velocity_at(sol: Solution, t: float, x, y):
    # psi = wave / |k|, so (u, v) = (d_y psi, -d_x psi): the wave (p, q, a, b)
    # gives u the amplitudes (q b, -q a) / |k| and v (-p b, p a) / |k|.  The
    # mean has no stream function (zero-mode convention).
    waves = [(p, q, a, b, math.sqrt(p * p + q * q))
             for p, q, a, b in _waves_at(sol, t) if p or q]
    u = _wave_sum([(p, q, q * b / k, -q * a / k) for p, q, a, b, k in waves], x, y)
    v = _wave_sum([(p, q, -p * b / k, p * a / k) for p, q, a, b, k in waves], x, y)
    return u[()], v[()]


def _dtheta_dt_at(sol: Solution, t: float, x, y):
    waves = [(p, q, -_rate(sol, p, q) * a, -_rate(sol, p, q) * b)
             for p, q, a, b in _waves_at(sol, t)]
    return _wave_sum(waves, x, y)[()]


def theta_at(sol: Solution, t: float, x, y):
    """Evaluate θ at arbitrary points (validates first).  Arrays broadcast."""
    _require_valid(sol)
    return _theta_at(sol, _finite_time(t), x, y)


def dtheta_dt_at(sol: Solution, t: float, x, y):
    """Evaluate the closed-form time derivative at arbitrary points."""
    _require_valid(sol)
    return _dtheta_dt_at(sol, _finite_time(t), x, y)


# --------------------------------------------------------------------------
# grid evaluation (the primary path)
# --------------------------------------------------------------------------

# The grid data of the last (solution, n_x, n_y) only: its pattern table
# under "patterns", and what other modules derive from the patterns (the
# residual terms of ``verify``).  It is emptied before the next table is
# built, so two tables never coexist and derived data never outlives its
# patterns.  functools' lru_cache(maxsize=1) keeps the old entry until the new
# one is stored; with it, a run of 512² evaluations of changing solutions
# peaked about 2 MB higher in RSS.
_GRID_DATA: dict = {}


def _grid_data(sol: Solution, n_x: int, n_y: int) -> dict:
    """The cache entry of ``sol`` on an ``n_x × n_y`` grid (see ``_grid_patterns``)."""
    key = (sol, n_x, n_y)
    entry = _GRID_DATA.get(key)
    if entry is None:
        _GRID_DATA.clear()
        groups: dict[float, list] = {}
        for p, q, a, b in _waves(sol):
            groups.setdefault(_rate(sol, p, q), []).append((p, q, a, b))
        x, y = _node_axes(n_x, n_y)
        table = []
        for rate, waves in groups.items():
            pattern = _wave_sum(waves, x, y)
            pattern.setflags(write=False)
            table.append((rate, pattern))
        entry = _GRID_DATA[key] = {"patterns": tuple(table)}
    return entry


def _grid_patterns(sol: Solution, n_x: int, n_y: int) -> tuple:
    """``(rate, pattern)`` per distinct decay rate of ``sol`` on an ``n_x × n_y`` grid.

    Each pattern is the sum of that rate's waves at ``t = 0`` at the grid
    nodes, added in ``_waves`` order, and is read-only.  The table of the
    last (solution, grid) pair is kept, so a run of evaluations at new times
    costs no trigonometry after the first.
    """
    return _grid_data(sol, n_x, n_y)["patterns"]


def _on_grid(sol: Solution, t: float, grid: GridSpec, d_dt: bool = False) -> np.ndarray:
    """θ(·, t), or ∂θ/∂t with ``d_dt``, at the nodes: ``Σ w(rate) · pattern``.

    ``w = e^(-rate t)`` for θ and ``-rate e^(-rate t)`` for ∂θ/∂t.  No
    validation: the residual evaluates constraint-breaking candidates too.
    """
    out = np.zeros(grid.shape)
    work = None
    for i, (rate, pattern) in enumerate(_grid_patterns(sol, grid.n_x, grid.n_y)):
        weight = _decay(rate, t)
        if d_dt:
            weight *= -rate
        if i == 0:
            np.multiply(pattern, weight, out=out)
            out += 0.0   # as the sum from 0.0 does: -0.0 becomes +0.0
        else:
            work = np.multiply(pattern, weight, out=work)
            out += work
    return out


def eval_theta(sol: Solution, t: float, grid: GridSpec) -> PhysicalField:
    """Evaluate θ(·, t) at the grid nodes.

    At ``t = 0`` the decay factors are exactly 1, so the returned field is the
    bare trigonometric pattern.

    Raises:
        InvalidSolution: If :func:`validate` reports any violation.
        DomainError: If ``t`` is not finite or a decay weight ``e^(-rate t)``
            overflows (a large negative ``t``).
    """
    _require_valid(sol)
    return PhysicalField._owning(grid, _on_grid(sol, _finite_time(t), grid))


def eval_velocity(sol: Solution, t: float, grid: GridSpec) -> tuple[PhysicalField, PhysicalField]:
    """Evaluate the analytic velocity ``(u, v)`` at the grid nodes.

    Uses the eigenfunction identity ``(-Δ)^(-1/2) wave = wave / |k|`` per
    plane wave, then differentiates the closed form — no transforms
    are involved, which makes this an independent oracle for the spectral
    velocity path.

    Raises:
        InvalidSolution: If validation fails.
        DomainError: If ``t`` is not finite or a decay weight ``e^(-rate t)`` overflows.
    """
    _require_valid(sol)
    u, v = _velocity_at(sol, _finite_time(t), *_node_axes(grid.n_x, grid.n_y))
    return PhysicalField._owning(grid, u), PhysicalField._owning(grid, v)


def eval_dtheta_dt(sol: Solution, t: float, grid: GridSpec) -> PhysicalField:
    """Evaluate the analytic ∂θ/∂t = -κ Σ_waves |k|^(2α) wave at the grid nodes.

    Raises:
        InvalidSolution: If validation fails.
        DomainError: If ``t`` is not finite or a decay weight ``e^(-rate t)`` overflows.
    """
    _require_valid(sol)
    return PhysicalField._owning(grid, _on_grid(sol, _finite_time(t), grid, d_dt=True))


# --------------------------------------------------------------------------
# named samples
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BuiltinSample:
    """A named sample: either an exact solution family member or a plain datum.

    Attributes:
        name: Lookup key.
        exact: True when the sample is an exact solution; False for the
            "not-exact" initial data, which evolve with genuinely changing
            patterns.
        description: Human-readable summary of the field.
        solution: ``solution(kappa, alpha)`` builds the solution object with
            the requested parameters, or returns None when the sample has no
            single-solution form.  For ``con-1`` the returned object is
            deliberately the constraint-violating candidate, so validation
            demonstrably rejects it.
    """

    name: str
    exact: bool
    description: str
    _factory: Callable[[float, float], Solution | None]
    _datum: Callable

    def solution(self, kappa: float, alpha: float) -> Solution | None:
        return self._factory(kappa, alpha)

    def initial_field(self, grid: GridSpec) -> PhysicalField:
        """The sample's field at ``t = 0`` on the given grid."""
        return PhysicalField.from_function(grid, self._datum)


def _theta1(kappa, alpha):
    return EigenmodeSolution(n=2, m=1, kappa=kappa, alpha=alpha, c1=1.0, c4=0.5)


def _theta2(kappa, alpha):
    return EigenmodeSolution(n=4, m=3, k=5, kappa=kappa, alpha=alpha,
                             c1=1.0, c4=0.5, c5=0.5, c6=1.0)


def _theta3(kappa, alpha):
    return UnidirectionalSolution(n=1, m=1, kappa=kappa, alpha=alpha,
                                  modes=((1, 0.0, 1.0), (2, 0.0, 1.0)))


def _con1_candidate(kappa, alpha):
    # sin x sin y + cos y as a single eigenmode candidate: both groups active
    # with n = m = k = 1, so the coupling constraint fails (2 != 1).
    return EigenmodeSolution(n=1, m=1, k=1, kappa=kappa, alpha=alpha, c1=1.0, c8=1.0)


def builtin_samples() -> dict[str, BuiltinSample]:
    """Named samples: the three exact solutions and three non-exact initial data.

    Returns:
        Mapping from name to :class:`BuiltinSample`, in a stable order:
        ``theta1``, ``theta2``, ``theta3`` (exact), then ``con-1``, ``con-2``,
        ``con-3`` (classic test data that violate the eigenfunction structure
        and therefore evolve non-trivially).
    """
    return {
        "theta1": BuiltinSample(
            "theta1", True, "sin 2x sin y + 1/2 cos 2x cos y (decay rate kappa*5^alpha)",
            _theta1,
            lambda X, Y: np.sin(2 * X) * np.sin(Y) + 0.5 * np.cos(2 * X) * np.cos(Y)),
        "theta2": BuiltinSample(
            "theta2", True,
            "sin 4x sin 3y + 1/2 cos 4x cos 3y + 1/2 sin 5x + sin 5y "
            "(decay rate kappa*25^alpha)",
            _theta2,
            lambda X, Y: (np.sin(4 * X) * np.sin(3 * Y) + 0.5 * np.cos(4 * X) * np.cos(3 * Y)
                          + 0.5 * np.sin(5 * X) + np.sin(5 * Y))),
        "theta3": BuiltinSample(
            "theta3", True, "sin(x+y) + sin(2x+2y) (unidirectional, two decay rates)",
            _theta3,
            lambda X, Y: np.sin(X + Y) + np.sin(2 * X + 2 * Y)),
        "con-1": BuiltinSample(
            "con-1", False, "sin x sin y + cos y (mixes eigenvalues 2 and 1)",
            _con1_candidate,
            lambda X, Y: np.sin(X) * np.sin(Y) + np.cos(Y)),
        "con-2": BuiltinSample(
            "con-2", False, "-cos 2x cos y + sin x sin y (mixes eigenvalues 5 and 2)",
            lambda kappa, alpha: None,
            lambda X, Y: -np.cos(2 * X) * np.cos(Y) + np.sin(X) * np.sin(Y)),
        "con-3": BuiltinSample(
            "con-3", False, "cos 2x cos y + sin x sin y + cos 2x sin 3y",
            lambda kappa, alpha: None,
            lambda X, Y: (np.cos(2 * X) * np.cos(Y) + np.sin(X) * np.sin(Y)
                          + np.cos(2 * X) * np.sin(3 * Y))),
    }


def with_parameters(sol: Solution, kappa: float | None = None,
                    alpha: float | None = None) -> Solution:
    """Copy of ``sol`` with ``kappa`` and/or ``alpha`` replaced."""
    updates = {}
    if kappa is not None:
        updates["kappa"] = float(kappa)
    if alpha is not None:
        updates["alpha"] = float(alpha)
    return replace(sol, **updates) if updates else sol
