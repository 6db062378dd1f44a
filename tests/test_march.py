"""The one march behind ``step`` and ``simulate``: its step schedule, its
landings, and a public step that is a one-step simulation bit for bit."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from sqgkit import integrator
from sqgkit.errors import StabilityWarning
from sqgkit.integrator import SolverParams, simulate, step
from sqgkit.solutions import builtin_samples
from sqgkit.spectral import GridSpec, _to_coefficients, forward_transform, inverse_transform

GRID = GridSpec(16, 16)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _documented_schedule(targets, dt):
    """Step lengths per segment, in exact arithmetic: full ``dt`` steps, then
    one step for the remainder only when it exceeds 1e-9·dt."""
    segments = []
    for t, target in zip([0.0, *targets], targets):
        span = Fraction(target) - Fraction(t)
        n_full = math.floor(span / Fraction(dt) + Fraction(1e-9))
        remainder = span - n_full * Fraction(dt)
        tail = [float(remainder)] if remainder > Fraction(1e-9) * Fraction(dt) else []
        segments.append([dt] * n_full + tail)
    return segments


@pytest.fixture
def step_lengths(monkeypatch):
    """The ``h`` of every ``_ifrk4_step`` call, in call order."""
    lengths = []
    original = integrator._ifrk4_step

    def recorded(*args):
        lengths.append(args[1])
        return original(*args)

    monkeypatch.setattr(integrator, "_ifrk4_step", recorded)
    return lengths


def _schedules():
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(6):
        dt = float(rng.uniform(0.003, 0.02))
        t_end = dt * float(rng.uniform(1.0, 9.0))
        cases.append((dt, t_end, tuple(float(s) for s in rng.uniform(0.0, t_end, 3))))
    # A snapshot within 1e-9·dt of the one before it takes no step at all, and
    # a dt of 0.03 does not divide the segments of 0.1.
    cases.append((0.01, 0.05, (0.02, 0.02 + 2e-13, 0.03 + 4e-12)))
    cases.append((0.03, 0.2, (0.1,)))
    # The floor's 1e-9 slack: 0.3/0.1 is 2.9999999999999996 in floats.
    cases.append((0.1, 0.3, ()))
    return cases


class TestSchedule:
    @pytest.mark.parametrize("dt,t_end,snapshots", _schedules())
    def test_step_lengths_follow_the_documented_schedule(self, dt, t_end, snapshots,
                                                          step_lengths):
        params = SolverParams(kappa=0.001, alpha=0.4, dt=dt, t_end=t_end,
                              snapshot_times=snapshots)
        targets = sorted({t_end, *params.snapshot_times} - {0.0})
        c = _to_coefficients(builtin_samples()["con-1"].initial_field(GRID).values, GRID)
        landed = []
        for t, _ in integrator._march(c, params, GRID, targets):
            landed.append((t, len(step_lengths)))
        assert [t for t, _ in landed] == targets
        want = _documented_schedule(targets, dt)
        starts = [0] + [n for _, n in landed[:-1]]
        got = [step_lengths[a:b] for a, (_, b) in zip(starts, landed)]
        assert [len(g) for g in got] == [len(w) for w in want]
        for g, w in zip(got, want):
            assert g[:-1] == w[:-1]
            assert g[-1:] == pytest.approx(w[-1:], rel=0, abs=1e-12 * max(t_end, 1.0))

    def test_simulate_steps_like_the_march(self, step_lengths):
        dt, t_end, snapshots = _schedules()[-3]
        params = SolverParams(kappa=0.001, alpha=0.4, dt=dt, t_end=t_end,
                              snapshot_times=snapshots)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            traj = simulate(builtin_samples()["con-1"].initial_field(GRID), params)
        assert traj.times == (0.0, *sorted({t_end, *params.snapshot_times}))
        want = [h for segment in _documented_schedule(traj.times[1:], dt) for h in segment]
        assert step_lengths == pytest.approx(want, rel=0, abs=1e-12)


class TestStepIsOneMarch:
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("datum", ["con-1", "con-2", "con-3"])
    def test_public_step_matches_a_one_step_simulation(self, datum, dealias):
        grid = GridSpec(32, 32)
        f = builtin_samples()[datum].initial_field(grid)
        params = SolverParams(kappa=0.002, alpha=0.3, dt=0.004, t_end=0.004, dealias=dealias)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            got = inverse_transform(step(forward_transform(f), params))
            want = simulate(f, params).final.field
        assert_array_equal(_bits(got.values), _bits(want.values))
