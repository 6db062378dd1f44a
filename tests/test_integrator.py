"""Tests for the exponential integrator and its guards."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fft_passes
from sqgkit.errors import BlowupDetected, DomainError, StabilityWarning
from sqgkit.integrator import Snapshot, SolverParams, Trajectory, simulate, step
from sqgkit.solutions import builtin_samples, eval_theta
from sqgkit import integrator
from sqgkit.spectral import GridSpec, PhysicalField, SpectralField, forward_transform


def _theta1(kappa, alpha):
    return builtin_samples()["theta1"].solution(kappa, alpha)


class TestSolverParams:
    def test_snapshot_times_are_sorted(self):
        p = SolverParams(kappa=1.0, alpha=0.5, dt=0.1, t_end=1.0,
                         snapshot_times=(0.7, 0.2, 0.5))
        assert p.snapshot_times == (0.2, 0.5, 0.7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kappa=0.0, alpha=0.5, dt=0.1, t_end=1.0),
            dict(kappa=-2.0, alpha=0.5, dt=0.1, t_end=1.0),
            dict(kappa=1.0, alpha=1.0, dt=0.1, t_end=1.0),
            dict(kappa=1.0, alpha=-0.5, dt=0.1, t_end=1.0),
            dict(kappa=1.0, alpha=0.5, dt=0.0, t_end=1.0),
            dict(kappa=1.0, alpha=0.5, dt=-0.1, t_end=1.0),
            dict(kappa=1.0, alpha=0.5, dt=0.5, t_end=0.2),
            dict(kappa=1.0, alpha=0.5, dt=0.1, t_end=-1.0),
            dict(kappa=1.0, alpha=0.5, dt=0.1, t_end=1.0, snapshot_times=(1.5,)),
            dict(kappa=1.0, alpha=0.5, dt=0.1, t_end=1.0, snapshot_times=(-0.1,)),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(DomainError):
            SolverParams(**kwargs)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_snapshot_times(self, t):
        with pytest.raises(DomainError, match="snapshot"):
            SolverParams(kappa=1.0, alpha=0.5, dt=0.1, t_end=1.0, snapshot_times=(0.5, t))


class TestStep:
    def test_eigenmode_decays_at_the_exponential_rate(self, grid64):
        # For an exact solution the nonlinear term vanishes, so a single step
        # must reproduce exp(-kappa E^alpha dt) on every active coefficient.
        kappa, alpha, dt = 0.4, 0.6, 0.05
        c0 = forward_transform(eval_theta(_theta1(kappa, alpha), 0.0, grid64))
        params = SolverParams(kappa=kappa, alpha=alpha, dt=dt, t_end=dt)
        c1 = step(c0, params)
        expected = np.exp(-kappa * 5.0**alpha * dt) * c0.coefficients
        assert np.abs(c1.coefficients - expected).max() < 1e-14

    def test_zero_state_is_a_fixed_point(self, grid32):
        from sqgkit.spectral import SpectralField
        params = SolverParams(kappa=0.5, alpha=0.5, dt=0.1, t_end=0.1)
        out = step(SpectralField.zeros(grid32), params)
        assert np.abs(out.coefficients).max() == 0.0


class TestSimulate:
    def test_tracks_exact_solution(self, grid64):
        sol = _theta1(0.001, 0.001)
        initial = eval_theta(sol, 0.0, grid64)
        traj = simulate(initial, SolverParams(kappa=0.001, alpha=0.001, dt=0.01, t_end=2.0))
        exact = eval_theta(sol, 2.0, grid64)
        err = np.abs(traj.final.field.values - exact.values).max()
        assert err < 1e-10

    def test_t_end_zero_records_only_the_initial_state(self, grid32):
        rng = np.random.default_rng(3)
        initial = PhysicalField(grid32, rng.standard_normal(grid32.shape))
        traj = simulate(initial, SolverParams(kappa=1.0, alpha=0.5, dt=0.001, t_end=0.0))
        assert traj.times == (0.0,)
        assert_allclose(traj.final.field.values, initial.values, atol=1e-13)

    @pytest.mark.filterwarnings("ignore::sqgkit.errors.StabilityWarning")
    def test_lands_exactly_on_snapshot_times(self, grid64):
        # 0.35 is not a multiple of dt = 0.2: the march must shorten a step.
        # The advisory warning is moot here -- advection of an eigenmode
        # field is identically zero, the coarse step stays accurate.
        sol = _theta1(0.05, 0.25)
        initial = eval_theta(sol, 0.0, grid64)
        traj = simulate(initial, SolverParams(
            kappa=0.05, alpha=0.25, dt=0.2, t_end=1.0, snapshot_times=(0.35, 0.5)))
        assert traj.times == (0.0, 0.35, 0.5, 1.0)
        for t in (0.35, 0.5, 1.0):
            exact = eval_theta(sol, t, grid64)
            assert np.abs(traj.field_at(t).values - exact.values).max() < 1e-10

    def test_snapshot_diagnostics_match_field_norms(self, grid64):
        initial = builtin_samples()["con-2"].initial_field(grid64)
        traj = simulate(initial, SolverParams(
            kappa=0.01, alpha=0.4, dt=0.008, t_end=0.2, snapshot_times=(0.1,)))
        for snap in traj.snapshots:
            assert snap.l2 == snap.field.l2_norm()
            assert snap.l_inf == snap.field.linf_norm()
            assert snap.mean == snap.field.mean()

    def test_mean_is_conserved_for_positive_alpha(self, grid64):
        # con-1 carries no mean; add a constant offset and check it survives
        # (the dissipation symbol vanishes at k = 0 for alpha > 0).
        base = builtin_samples()["con-1"].initial_field(grid64)
        initial = PhysicalField(grid64, base.values + 0.5)
        traj = simulate(initial, SolverParams(kappa=0.1, alpha=0.4, dt=0.008, t_end=1.0))
        assert abs(traj.final.mean - 0.5) < 1e-13

    @pytest.mark.filterwarnings("ignore::sqgkit.errors.StabilityWarning")
    def test_l2_norm_does_not_grow(self, grid64):
        initial = builtin_samples()["con-1"].initial_field(grid64)
        traj = simulate(initial, SolverParams(
            kappa=0.05, alpha=0.4, dt=0.02, t_end=1.0,
            snapshot_times=tuple(0.1 * i for i in range(1, 10))))
        norms = [s.l2 for s in traj.snapshots]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-10

    @pytest.mark.filterwarnings("ignore::sqgkit.errors.StabilityWarning")
    def test_fourth_order_convergence(self, grid64):
        # Errors against a fine-dt reference must shrink ~16x per halving.
        # The coarse steps intentionally exceed the advisory CFL estimate.
        initial = builtin_samples()["con-1"].initial_field(grid64)

        def run(dt):
            params = SolverParams(kappa=0.001, alpha=0.4, dt=dt, t_end=0.5)
            return simulate(initial, params).final.field.values

        ref = run(0.003125)
        errs = [np.abs(run(dt) - ref).max() for dt in (0.05, 0.025, 0.0125)]
        rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(rates) > 3.5

    def test_field_at_unknown_time_raises(self, grid32):
        initial = PhysicalField(grid32, np.zeros(grid32.shape))
        traj = simulate(initial, SolverParams(kappa=1.0, alpha=0.5, dt=0.1, t_end=0.0))
        with pytest.raises(KeyError):
            traj.field_at(0.123)


class TestGuards:
    def test_cfl_violation_warns_once(self, grid64):
        initial = builtin_samples()["con-1"].initial_field(grid64)
        params = SolverParams(kappa=0.001, alpha=0.4, dt=0.05, t_end=0.1)
        with pytest.warns(StabilityWarning, match="stability estimate") as record:
            simulate(initial, params)
        assert len(record) == 1

    def test_comfortable_step_does_not_warn(self, grid32):
        import warnings
        initial = builtin_samples()["con-1"].initial_field(grid32)
        params = SolverParams(kappa=0.001, alpha=0.4, dt=0.002, t_end=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error", StabilityWarning)
            simulate(initial, params)

    def test_blowup_raises_with_time_attached(self, grid64):
        initial = builtin_samples()["con-1"].initial_field(grid64)
        params = SolverParams(kappa=0.001, alpha=0.4, dt=5.0, t_end=50.0)
        with pytest.warns(StabilityWarning):
            with pytest.raises(BlowupDetected) as exc:
                simulate(initial, params)
        assert exc.value.t > 0.0


class TestBlowupGuard:
    def test_blowup_time_is_pinned(self, grid64):
        # The guard inverts only when the bound sup|theta| <= sum|c| trips, and
        # must raise on the same step as inverting every state: t = 10 here.
        initial = builtin_samples()["con-1"].initial_field(grid64)
        params = SolverParams(kappa=0.001, alpha=0.4, dt=5.0, t_end=50.0)
        with pytest.warns(StabilityWarning):
            with pytest.raises(BlowupDetected, match="sup norm") as exc:
                simulate(initial, params)
        assert exc.value.t == 10.0

    def test_nan_coefficient_is_non_finite(self, grid32):
        c = forward_transform(builtin_samples()["con-1"].initial_field(grid32)).coefficients
        c[2, 3] = np.nan
        params = SolverParams(kappa=0.001, alpha=0.4, dt=0.01, t_end=0.01)
        with pytest.raises(BlowupDetected, match="non-finite coefficients"):
            step(SpectralField(grid32, c), params)

    def test_tripped_bound_alone_does_not_raise(self, grid32):
        # Modes of unrelated phases keep sup|theta| well below sum|c|, so the
        # bound trips first and only the inverse transform decides.
        half = np.zeros((32, 17), dtype=complex)
        half[0, 1:9] = 0.5 * np.exp(2j * np.pi * np.random.default_rng(3).random(8))
        linf = np.abs(np.fft.irfft2(half, s=grid32.shape, norm="forward")).max()
        bound = 2 * np.abs(half).sum()
        assert linf < 0.9 * bound
        integrator._guard_blowup(half, grid32, 1.0, 1.01 * linf / integrator.BLOWUP_FACTOR)
        with pytest.raises(BlowupDetected, match="sup norm"):
            integrator._guard_blowup(half, grid32, 1.0, 0.99 * linf / integrator.BLOWUP_FACTOR)

    def test_field_that_attains_the_bound_raises(self, grid32):
        # cos x + ... + cos 8x peaks at x = 0 with sup|theta| = 8 = sum|c| over
        # the full spectrum: each interior column stands for two coefficients.
        half = np.zeros((32, 17), dtype=complex)
        half[0, 1:9] = 0.5
        with pytest.raises(BlowupDetected, match="sup norm"):
            integrator._guard_blowup(half, grid32, 1.0, 7.9 / integrator.BLOWUP_FACTOR)

    def test_public_step_raises_exactly_when_the_exact_guard_does(self, grid32):
        # step tests the bound against max|c0| <= sup|theta0| first and
        # inverts its input only when that trips; the verdict must be the
        # guard's verdict with the exact sup norm of the input.
        base = builtin_samples()["con-1"].initial_field(grid32).values
        outcomes = set()
        for amplitude in (1.0, 10.0, 30.0, 100.0):
            for dt in (0.5, 1.0, 5.0):
                state = forward_transform(PhysicalField(grid32, amplitude * base))
                params = SolverParams(kappa=0.001, alpha=0.4, dt=dt, t_end=dt)
                c0 = integrator._half_spectrum(state.coefficients, grid32)
                sym = integrator._symbol(grid32, params.kappa, params.alpha)
                half_e = np.exp(-0.5 * dt * sym)
                c = integrator._ifrk4_step(c0, dt, half_e, half_e * half_e, grid32, True,
                                           integrator._step_work(grid32, True))
                linf0 = np.abs(integrator._to_values(c0, grid32)).max()
                try:
                    integrator._guard_blowup(c, grid32, dt, linf0)
                    expected = None
                except BlowupDetected as exc:
                    expected = str(exc)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", StabilityWarning)
                    try:
                        step(state, params)
                        got = None
                    except BlowupDetected as exc:
                        got = str(exc)
                assert got == expected, (amplitude, dt)
                outcomes.add(expected is None)
        assert outcomes == {True, False}


class TestTransformBudget:
    # Every transform is a real 2-D one: a real x-pass paired with a complex
    # y-pass over at most n_x//2 + 1 columns (``fft_passes.transforms``
    # checks the pairs).
    def test_solver_uses_only_real_transforms(self, grid32, monkeypatch):
        # A silent fallback to full complex transforms would still pass every
        # accuracy test; count the calls instead.
        calls = fft_passes.install(monkeypatch)
        per_step = []
        original_step = integrator._ifrk4_step
        width = integrator._advection_width(grid32, True)

        def counted_step(*args):
            before = len(calls)
            out = original_step(*args)
            stage_calls = calls[before:]
            done = fft_passes.transforms(stage_calls, grid32)
            per_step.append((done.count("inverse"), done.count("forward")))
            # The kernel's y-passes read only the columns the 2/3 rule keeps.
            assert all(c.shape[1] <= width for c in stage_calls if c.name in ("fft", "ifft"))
            return out

        monkeypatch.setattr(integrator, "_ifrk4_step", counted_step)
        initial = builtin_samples()["con-1"].initial_field(grid32)
        params = SolverParams(kappa=0.001, alpha=0.4, dt=0.002, t_end=0.01,
                              snapshot_times=(0.005,))
        traj = simulate(initial, params)
        assert {c.name for c in calls} == {"rfft", "irfft", "fft", "ifft"}
        assert per_step == [(16, 4)] * 6          # 2 full + 1 short step per segment
        # One forward transform of the datum, then per snapshot one inverse for
        # the record and two for the CFL check; the guard adds none.
        done = fft_passes.transforms(calls, grid32)
        assert done.count("forward") == 4 * len(per_step) + 1
        assert done.count("inverse") == 16 * len(per_step) + 3 * len(traj.snapshots)
        assert len(done) == 20 * len(per_step) + 1 + 3 * len(traj.snapshots)

    def test_public_step_uses_only_the_stage_transforms(self, grid32, monkeypatch):
        # The guard's floor max|c0| <= sup|theta0| spares the inverse transform
        # of the input, so a public step costs what a step inside simulate does.
        state = forward_transform(builtin_samples()["con-1"].initial_field(grid32))
        params = SolverParams(kappa=0.001, alpha=0.4, dt=0.002, t_end=0.002)
        calls = fft_passes.install(monkeypatch)
        step(state, params)
        assert {c.name for c in calls} == {"rfft", "irfft", "fft", "ifft"}
        done = fft_passes.transforms(calls, grid32)
        assert (done.count("inverse"), done.count("forward")) == (16, 4)
        assert len(calls) == 40
