"""The amplitude–dissipation scaling law, as a bit-exact oracle for the march.

If φ solves dissipative SQG with κ/A, then θ(x, t) = A·φ(x, A·t) solves it
with κ: u is linear in θ, so every term of the equation carries A².  For the
solver this reads

    simulate(A·θ0, κ, dt, T)  =  A · simulate(θ0, κ/A, A·dt, A·T),

snapshot by snapshot, with the snapshot at t on the left at A·t on the right.
For A = 2^j every operation of the march scales exactly (the decay factors,
the advection stages, the landings and the relative blowup guard), so the two
sides agree bit for bit, times included.  So amplitude is not an axis apart
from κ: large data with κ are small data with κ/A, run for longer.

Each run lands on a snapshot at T/3 and on T with a shortened step.  The step
is dt = 0.01/max(A, 1) (con-1 at A = 64 and dt = 0.01 blows up), and every
run takes six steps.
"""

import warnings

import numpy as np
import pytest

from sqgkit.errors import StabilityWarning
from sqgkit.integrator import SolverParams, simulate
from sqgkit.solutions import builtin_samples
from sqgkit.spectral import GridSpec, PhysicalField

KAPPA, ALPHA = 0.01, 0.25
GRIDS = [GridSpec(16, 16), GridSpec(32, 16), GridSpec(64, 64)]
EXPONENTS = [-6, -3, -1, 1, 2, 6]


def _band_limited(grid):
    """A seeded random real field with |kx|, |ky| <= 3, the same on every grid."""
    rng = np.random.default_rng(7)
    waves = [(p, q, *rng.standard_normal(2)) for p in range(4) for q in range(-3, 4)
             if (p, q) > (0, 0)]
    X, Y = grid.nodes()
    return PhysicalField(grid, sum(a * np.cos(p * X + q * Y) + b * np.sin(p * X + q * Y)
                                   for p, q, a, b in waves))


DATA = {**{name: builtin_samples()[name].initial_field for name in ("con-1", "con-2", "con-3")},
        "band-limited": _band_limited}


def _both_sides(datum, grid, amplitude, dealias):
    """``(θ, φ)``: the march of A·θ0 with κ, and of θ0 with κ/A for A times as long."""
    theta0 = DATA[datum](grid)
    dt = 0.01 / max(amplitude, 1.0)
    t_end = 5.5 * dt   # 1 + 1 steps to T/3 = 1⅚ dt, then 3 + 1 to T
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        theta = simulate(PhysicalField(grid, amplitude * theta0.values),
                         SolverParams(KAPPA, ALPHA, dt, t_end, dealias, (t_end / 3,)))
        phi = simulate(theta0, SolverParams(KAPPA / amplitude, ALPHA, amplitude * dt,
                                            amplitude * t_end, dealias,
                                            (amplitude * t_end / 3,)))
    return theta, phi


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "aliased"])
@pytest.mark.parametrize("j", EXPONENTS)
@pytest.mark.parametrize("datum", sorted(DATA))
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.n_x}x{g.n_y}")
def test_a_power_of_two_scales_the_march_bit_for_bit(grid, datum, j, dealias):
    amplitude = 2.0 ** j
    theta, phi = _both_sides(datum, grid, amplitude, dealias)
    assert len(theta.snapshots) == len(phi.snapshots) == 3
    for left, right in zip(theta.snapshots, phi.snapshots):
        assert amplitude * left.t == right.t
        np.testing.assert_array_equal(_bits(left.field.values),
                                      _bits(amplitude * right.field.values))


@pytest.mark.parametrize("datum", sorted(DATA))
def test_another_amplitude_holds_to_round_off(datum):
    # A = 3 rounds 3·θ0, κ/3, 3·dt and the landings.  At 64² the sides differ
    # by 3e-16 to 9e-16 of the field's sup norm at every snapshot; the bound
    # is ten times that.
    theta, phi = _both_sides(datum, GRIDS[-1], 3.0, True)
    for left, right in zip(theta.snapshots, phi.snapshots):
        assert abs(3.0 * left.t - right.t) <= 1e-15 * right.t
        scale = np.max(np.abs(left.field.values))
        assert np.max(np.abs(left.field.values - 3.0 * right.field.values)) <= 1e-14 * scale
