"""Tests for residual assembly, decay fitting and the pattern diagnostics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sqgkit.errors import (
    DegenerateFit,
    DomainError,
    InvalidSolution,
    UnderResolved,
    ZeroField,
)
from sqgkit.integrator import SolverParams, simulate
from sqgkit.solutions import (
    EigenmodeSolution,
    UnidirectionalSolution,
    _dtheta_dt_at,
    _theta_at,
    builtin_samples,
    eval_theta,
)
from sqgkit.spectral import GridSpec, PhysicalField
from sqgkit.verify import (
    decay_rate_fit,
    max_mode,
    pattern_correlation,
    residual,
    solver_vs_exact,
    unidirectionality_check,
)

from oracles import full_complex_advection, random_eigenmode, random_unidirectional


class TestResidual:
    def test_theta1_is_exact(self, grid64):
        sol = builtin_samples()["theta1"].solution(0.001, 0.001)
        rep = residual(sol, 1.0, grid64)
        assert rep.l_inf < 1e-12
        assert rep.l2 < 1e-12
        assert rep.nonlinear_linf < 1e-12
        assert rep.t == 1.0 and rep.grid == grid64

    def test_parameter_overrides_are_used(self, grid64):
        sol = builtin_samples()["theta1"].solution(0.001, 0.001)
        rep = residual(sol, 0.5, grid64, kappa=1.0, alpha=0.75)
        assert rep.l_inf < 1e-11

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 10.0])
    def test_randomized_solutions_are_exact(self, grid64, t):
        rng = np.random.default_rng(606)
        for _ in range(10):
            for maker in (random_eigenmode, random_unidirectional):
                sol = maker(rng, rng.uniform(0.001, 1.0), rng.uniform(0.0, 0.99))
                rep = residual(sol, t, grid64)
                assert rep.l_inf < 1e-10, sol

    def test_constraint_breaking_candidate_reports_instead_of_raising(self, grid64):
        # The whole point of the residual is to expose near-miss candidates:
        # sin x sin y + cos y leaves the advection term
        # (1/sqrt(2) - 1) cos x sin^2 y standing.
        candidate = builtin_samples()["con-1"].solution(0.001, 0.4)
        rep = residual(candidate, 0.0, grid64)
        assert_allclose(rep.nonlinear_linf, 1 - 1 / np.sqrt(2), rtol=1e-10)
        assert rep.l_inf > 0.29  # the residual is order one, not round-off

    def test_hard_violations_raise(self, grid64):
        sol = builtin_samples()["theta1"].solution(-1.0, 0.5)
        with pytest.raises(InvalidSolution):
            residual(sol, 0.0, grid64)

    def test_under_resolved_grid_is_refused(self):
        sol = EigenmodeSolution(n=8, m=1, kappa=0.01, alpha=0.5, c1=1.0)
        with pytest.raises(UnderResolved):
            residual(sol, 0.0, GridSpec(16, 16))
        assert residual(sol, 0.0, GridSpec(32, 32)).l_inf < 1e-11

    def test_max_mode(self):
        sol = EigenmodeSolution(n=4, m=3, k=5, kappa=1.0, alpha=0.5, c1=1.0, c5=1.0)
        assert max_mode(sol) == (5, 5)
        uni = UnidirectionalSolution(n=2, m=-1, kappa=1.0, alpha=0.5,
                                     modes=((3, 1.0, 0.0),))
        assert max_mode(uni) == (6, 3)


class TestDecayRateFit:
    def test_recovers_the_exact_rate(self, grid64):
        kappa, alpha = 0.02, 0.35
        sol = builtin_samples()["theta1"].solution(kappa, alpha)
        traj = simulate(eval_theta(sol, 0.0, grid64),
                        SolverParams(kappa=kappa, alpha=alpha, dt=0.01, t_end=2.0,
                                     snapshot_times=(0.5, 1.0, 1.5)))
        fit = decay_rate_fit(traj, 5.0, kappa, alpha)
        assert fit.expected_rate == kappa * 5.0**alpha
        assert fit.relative_error < 1e-9
        assert fit.sample_times == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_needs_three_snapshots(self, grid32):
        sol = builtin_samples()["theta1"].solution(0.01, 0.5)
        traj = simulate(eval_theta(sol, 0.0, grid32),
                        SolverParams(kappa=0.01, alpha=0.5, dt=0.01, t_end=0.1))
        with pytest.raises(DegenerateFit):
            decay_rate_fit(traj, 5.0, 0.01, 0.5)  # only t = 0 and t_end

    def test_underflowed_norm_is_degenerate(self, grid32):
        from sqgkit.integrator import Snapshot, Trajectory
        zero = PhysicalField(grid32, np.zeros(grid32.shape))
        snaps = tuple(Snapshot(t=float(t), field=zero, l2=0.0, l_inf=0.0, mean=0.0)
                      for t in range(4))
        with pytest.raises(DegenerateFit, match="underflow"):
            decay_rate_fit(Trajectory(grid32, snaps), 5.0, 0.01, 0.5)

    def test_zero_time_spread_is_degenerate(self, grid32):
        from sqgkit.integrator import Snapshot, Trajectory
        one = PhysicalField(grid32, np.ones(grid32.shape))
        snaps = tuple(Snapshot(t=0.0, field=one, l2=1.0, l_inf=1.0, mean=1.0)
                      for _ in range(3))
        with pytest.raises(DegenerateFit, match="spread"):
            decay_rate_fit(Trajectory(grid32, snaps), 5.0, 0.01, 0.5)


class TestPatternCorrelation:
    def test_scalar_multiple_is_exactly_one(self, grid32):
        rng = np.random.default_rng(12)
        vals = rng.standard_normal(grid32.shape)
        a = PhysicalField(grid32, vals)
        b = PhysicalField(grid32, 0.037 * vals)
        assert pattern_correlation(a, b) == 1.0

    def test_negated_field_gives_minus_one(self, grid32):
        rng = np.random.default_rng(12)
        vals = rng.standard_normal(grid32.shape)
        assert pattern_correlation(PhysicalField(grid32, vals),
                                   PhysicalField(grid32, -2.0 * vals)) == -1.0

    def test_mean_offset_is_ignored(self, grid32):
        x, y = grid32.nodes()
        a = PhysicalField(grid32, np.sin(x))
        b = PhysicalField(grid32, np.sin(x) + 5.0)
        assert pattern_correlation(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_patterns(self, grid32):
        x, y = grid32.nodes()
        a = PhysicalField(grid32, np.sin(x))
        b = PhysicalField(grid32, np.cos(x))
        assert abs(pattern_correlation(a, b)) < 1e-14

    def test_grid_mismatch(self):
        a = PhysicalField(GridSpec(16, 16), np.ones((16, 16)))
        b = PhysicalField(GridSpec(32, 32), np.ones((32, 32)))
        with pytest.raises(ValueError):
            pattern_correlation(a, b)

    def test_constant_field_is_zero_after_mean_removal(self, grid32):
        a = PhysicalField(grid32, np.full(grid32.shape, 2.0))
        b = PhysicalField(grid32, np.full(grid32.shape, 2.0))
        with pytest.raises(ZeroField):
            pattern_correlation(a, b)


class TestUnidirectionality:
    def test_theta3_is_on_ray(self, grid64):
        # Off-ray bins hold only FFT round-off, so the energy fraction is
        # ~(1e-16)^2, far below the 1e-12 operational threshold.
        f = builtin_samples()["theta3"].initial_field(grid64)
        assert unidirectionality_check(f, 1, 1) < 1e-25

    def test_checkerboard_against_diagonal_is_exactly_half(self, grid64):
        # sin x sin y splits into e^{i(x+y)}-type modes at (1,1), (-1,-1)
        # (on-ray) and (1,-1), (-1,1) (off-ray), with equal weight.
        f = PhysicalField.from_function(grid64, lambda x, y: np.sin(x) * np.sin(y))
        assert unidirectionality_check(f, 1, 1) == 0.5

    def test_perpendicular_direction_sees_all_energy(self, grid32):
        f = PhysicalField.from_function(grid32, lambda x, y: np.sin(x))
        assert unidirectionality_check(f, 1, 0) == 0.0
        assert unidirectionality_check(f, 0, 1) == pytest.approx(1.0)

    def test_direction_scaling_is_irrelevant(self, grid64):
        f = builtin_samples()["theta3"].initial_field(grid64)
        assert unidirectionality_check(f, 2, 2) < 1e-25

    def test_zero_direction_rejected(self, grid32):
        f = PhysicalField.from_function(grid32, lambda x, y: np.sin(x))
        with pytest.raises(DomainError):
            unidirectionality_check(f, 0, 0)

    def test_zero_field_rejected(self, grid32):
        f = PhysicalField(grid32, np.zeros(grid32.shape))
        with pytest.raises(ZeroField):
            unidirectionality_check(f, 1, 1)


class TestSolverVsExact:
    def test_series_times_and_smallness(self, grid64):
        sol = builtin_samples()["theta1"].solution(0.001, 0.001)
        params = SolverParams(kappa=0.001, alpha=0.001, dt=0.01, t_end=1.0,
                              snapshot_times=(0.5,))
        series = solver_vs_exact(sol, params, grid64)
        assert [t for t, _ in series] == [0.0, 0.5, 1.0]
        assert series[0][1] < 1e-14          # t = 0 differs only by the FFT round trip
        assert all(err < 1e-10 for _, err in series)

    def test_rejects_invalid_solution(self, grid64):
        candidate = builtin_samples()["con-1"].solution(0.001, 0.4)
        params = SolverParams(kappa=0.001, alpha=0.4, dt=0.01, t_end=0.1)
        with pytest.raises(InvalidSolution):
            solver_vs_exact(candidate, params, grid64)


def _full_complex_residual(sol, t, grid):
    """(l_inf, l2, nonlinear_linf) of the residual assembled on full complex spectra."""
    x, y = grid.nodes()
    coef = np.fft.fft2(_theta_at(sol, t, x, y)) / grid.size
    nonlin = full_complex_advection(coef)
    kx, ky = grid.wavenumbers()
    dissip = sol.kappa * (kx * kx + ky * ky) ** sol.alpha * coef
    resid = _dtheta_dt_at(sol, t, x, y) + (np.fft.ifft2(nonlin + dissip) * grid.size).real
    return (np.abs(resid).max(), np.sqrt(np.sum(resid**2) * grid.cell_area),
            np.abs(np.fft.ifft2(nonlin) * grid.size).max())


class TestHalfSpectrumDiagnostics:
    @pytest.mark.parametrize("name", ["theta1", "theta2", "theta3", "con-1"])
    def test_residual_matches_the_full_complex_assembly(self, name, grid64):
        sol = builtin_samples()[name].solution(0.3, 0.6)
        rep = residual(sol, 0.7, grid64)
        ref = _full_complex_residual(sol, 0.7, grid64)
        got = (rep.l_inf, rep.l2, rep.nonlinear_linf)
        assert_allclose(got, ref, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 0), (2, -1), (0, 3)])
    def test_unidirectionality_matches_the_full_spectrum_fraction(self, n, m):
        g = GridSpec(48, 32)
        f = PhysicalField(g, np.random.default_rng(8).standard_normal(g.shape))
        energy = np.abs(np.fft.fft2(f.values) / g.size) ** 2
        kx, ky = g.wavenumbers()
        expected = energy[kx * m - ky * n != 0].sum() / energy.sum()
        assert unidirectionality_check(f, n, m) == pytest.approx(expected, rel=1e-13)

    def test_unidirectionality_classifies_mirrors_on_the_ky_nyquist_row(self):
        # At the nodes cos(64x - 128y) = (-1)^j cos 64x: both its modes,
        # (64, -128) and its mirror (-64, -128), sit on the ky = -n_y/2 row,
        # and only the first lies on the ray through (1, -2).
        g = GridSpec(256, 256)
        f = PhysicalField.from_function(g, lambda x, y: np.cos(64 * x - 128 * y))
        assert unidirectionality_check(f, 1, -2) == pytest.approx(0.5, rel=1e-13)
        assert unidirectionality_check(f, 1, 0) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("n,m", [(1, -2), (3, 1)])
    def test_unidirectionality_matches_the_full_spectrum_fraction_at_256(self, n, m):
        g = GridSpec(256, 256)
        x, y = g.nodes()
        values = np.random.default_rng(9).standard_normal(g.shape)
        values += 50.0 * np.cos(n * x + m * y) + 30.0 * np.sin(2 * n * x + 2 * m * y)
        f = PhysicalField(g, values)
        energy = np.abs(np.fft.fft2(f.values) / g.size) ** 2
        kx, ky = g.wavenumbers()
        expected = energy[kx * m - ky * n != 0].sum() / energy.sum()
        assert 0.0 < expected < 0.1
        assert unidirectionality_check(f, n, m) == pytest.approx(expected, rel=1e-13)
