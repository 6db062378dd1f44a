"""Tests for the closed-form solution families and the builtin samples."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sqgkit.errors import DomainError, InvalidSolution
from sqgkit import solutions
from sqgkit.solutions import (
    EigenmodeSolution,
    UnidirectionalSolution,
    builtin_samples,
    dtheta_dt_at,
    eval_dtheta_dt,
    eval_theta,
    eval_velocity,
    theta_at,
    validate,
    with_parameters,
)
from sqgkit import verify
from sqgkit.verify import residual
from sqgkit.spectral import GridSpec, forward_transform, inverse_transform, velocity_from_theta

from oracles import random_eigenmode, random_unidirectional


def _theta1(kappa=0.001, alpha=0.001):
    return EigenmodeSolution(n=2, m=1, kappa=kappa, alpha=alpha, c1=1.0, c4=0.5)


class TestValidation:
    def test_theta2_parameters_are_accepted(self):
        sol = EigenmodeSolution(n=4, m=3, k=5, kappa=0.5, alpha=0.25,
                                c1=1.0, c4=0.5, c5=0.5, c6=1.0)
        report = validate(sol)
        assert report.ok
        assert report.violations == ()

    def test_coupling_constraint_rejected_with_both_energies(self):
        # sin x sin y + cos y as one eigenmode: n = m = k = 1 mixes the
        # eigenvalues 2 and 1, which the constraint must catch.
        sol = EigenmodeSolution(n=1, m=1, k=1, kappa=0.001, alpha=0.4, c1=1.0, c8=1.0)
        report = validate(sol)
        assert not report.ok
        assert [v.code for v in report.violations] == ["constraint"]
        assert "2 != 1" in report.violations[0].message

    def test_constraint_is_vacuous_when_one_group_is_silent(self):
        # k inconsistent with (n, m), but c5..c8 all vanish, so no coupling.
        sol = EigenmodeSolution(n=2, m=1, k=7, kappa=1.0, alpha=0.0, c2=1.0)
        assert validate(sol).ok

    def test_constraint_interpretation_is_recorded_as_note(self):
        report = validate(_theta1())
        assert any("n^2 + m^2 = k^2" in note for note in report.notes)

    def test_k_zero_with_active_group_b(self):
        sol = EigenmodeSolution(n=1, m=1, k=0, kappa=1.0, alpha=0.5, c5=1.0)
        codes = [v.code for v in validate(sol).violations]
        assert "k_zero" in codes

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan])
    def test_kappa_must_be_positive(self, kappa):
        report = validate(_theta1(kappa=kappa))
        assert [v.code for v in report.violations] == ["kappa"]

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 2.5, np.inf])
    def test_alpha_range_is_half_open(self, alpha):
        report = validate(_theta1(alpha=alpha))
        assert [v.code for v in report.violations] == ["alpha"]

    def test_alpha_zero_is_allowed(self):
        assert validate(_theta1(alpha=0.0)).ok

    def test_nm_zero_eigenmode(self):
        sol = EigenmodeSolution(n=0, m=3, kappa=1.0, alpha=0.5, c1=1.0)
        assert [v.code for v in validate(sol).violations] == ["nm_zero"]

    def test_nonfinite_coefficient(self):
        sol = EigenmodeSolution(n=2, m=1, kappa=1.0, alpha=0.5, c1=np.inf)
        assert "nonfinite" in [v.code for v in validate(sol).violations]

    def test_unidirectional_duplicate_modes(self):
        sol = UnidirectionalSolution(n=1, m=1, kappa=1.0, alpha=0.5,
                                     modes=((2, 1.0, 0.0), (2, 0.0, 1.0)))
        report = validate(sol)
        assert [v.code for v in report.violations] == ["modes_dup"]
        assert "2" in report.violations[0].message

    def test_unidirectional_zero_direction(self):
        sol = UnidirectionalSolution(n=0, m=0, kappa=1.0, alpha=0.5, modes=((1, 1.0, 0.0),))
        assert "nm_zero" in [v.code for v in validate(sol).violations]

    def test_unidirectional_mean_mode_is_flagged_not_rejected(self):
        sol = UnidirectionalSolution(n=1, m=0, kappa=1.0, alpha=0.5,
                                     modes=((0, 0.5, 0.0), (1, 1.0, 0.0)))
        report = validate(sol)
        assert report.ok
        assert any("k = 0" in note for note in report.notes)

    def test_eval_raises_on_invalid(self, grid32):
        sol = _theta1(kappa=-1.0)
        with pytest.raises(InvalidSolution) as exc:
            eval_theta(sol, 0.0, grid32)
        assert "kappa" in str(exc.value)

    def test_randomized_solutions_are_valid(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            assert validate(random_eigenmode(rng, 0.01, 0.3)).ok
            assert validate(random_unidirectional(rng, 0.01, 0.3)).ok


class TestThetaValues:
    def test_theta1_at_a_known_node(self, grid32):
        # At (x, y) = (pi/4, pi/2): sin(pi/2) sin(pi/2) = 1, cos term = 0.
        f = eval_theta(_theta1(), 0.0, GridSpec(8, 8))
        assert_allclose(f.values[2, 1], 1.0, atol=1e-15)

    def test_initial_pattern_theta3(self, grid32):
        sol = UnidirectionalSolution(n=1, m=1, kappa=0.001, alpha=0.001,
                                     modes=((1, 0.0, 1.0), (2, 0.0, 1.0)))
        x, y = grid32.nodes()
        assert_allclose(eval_theta(sol, 0.0, grid32).values,
                        np.sin(x + y) + np.sin(2 * x + 2 * y), atol=1e-15)

    def test_decay_is_a_scalar_factor(self, grid32):
        sol = _theta1(kappa=0.7, alpha=0.3)
        t = 2.5
        factor = np.exp(-0.7 * 5.0**0.3 * t)
        assert_allclose(eval_theta(sol, t, grid32).values,
                        factor * eval_theta(sol, 0.0, grid32).values, rtol=1e-14)

    def test_two_group_solution_decays_at_one_rate(self, grid32):
        sol = EigenmodeSolution(n=4, m=3, k=5, kappa=0.2, alpha=0.6,
                                c1=1.0, c4=0.5, c5=0.5, c6=1.0)
        factor = np.exp(-0.2 * 25.0**0.6 * 3.0)
        # atol covers nodes where the two groups nearly cancel at t = 0.
        assert_allclose(eval_theta(sol, 3.0, grid32).values,
                        factor * eval_theta(sol, 0.0, grid32).values,
                        rtol=1e-13, atol=1e-16)

    def test_eigenmode_matches_the_product_form(self, grid32):
        # Every coefficient of both groups against the literal c1..c8 formula,
        # with negative n, m and k among the random draws.
        rng = np.random.default_rng(31)
        sols = [EigenmodeSolution(n=4, m=-3, k=-5, kappa=0.3, alpha=0.4,
                                  c1=0.7, c2=-1.1, c3=0.4, c4=1.3,
                                  c5=-0.6, c6=0.9, c7=1.7, c8=-0.2)]
        sols += [random_eigenmode(rng, 0.3, 0.4) for _ in range(12)]
        x, y = grid32.nodes()
        t = 1.5
        for sol in sols:
            nx, my, kx, ky = sol.n * x, sol.m * y, sol.k * x, sol.k * y
            decay_a = np.exp(-sol.kappa * float(sol.n**2 + sol.m**2)**sol.alpha * t)
            decay_b = np.exp(-sol.kappa * float(sol.k**2)**sol.alpha * t)
            expected = (decay_a * (sol.c1 * np.sin(nx) * np.sin(my)
                                   + sol.c2 * np.cos(nx) * np.sin(my)
                                   + sol.c3 * np.sin(nx) * np.cos(my)
                                   + sol.c4 * np.cos(nx) * np.cos(my))
                        + decay_b * (sol.c5 * np.sin(kx) + sol.c6 * np.sin(ky)
                                     + sol.c7 * np.cos(kx) + sol.c8 * np.cos(ky)))
            assert_allclose(eval_theta(sol, t, grid32).values, expected, atol=1e-13)

    def test_pointwise_matches_grid_eval(self, grid32):
        sol = _theta1(kappa=0.1, alpha=0.5)
        x, y = grid32.nodes()
        assert_allclose(theta_at(sol, 1.0, x, y), eval_theta(sol, 1.0, grid32).values)

    def test_unidirectional_constant_along_rays(self, grid64):
        # phi = x + y is constant along (i+1, j-1) node shifts, so theta
        # must agree on those diagonals.
        sol = UnidirectionalSolution(n=1, m=1, kappa=0.01, alpha=0.5,
                                     modes=((1, 0.3, 1.0), (3, -0.4, 0.2)))
        vals = eval_theta(sol, 0.7, grid64).values
        shifted = np.roll(np.roll(vals, -1, axis=1), 1, axis=0)
        assert_allclose(vals, shifted, atol=1e-15)


class TestVelocity:
    def test_pure_sine_column(self, grid32):
        # theta = c5 sin kx has stream function (c5/k) sin kx, so
        # u = 0 and v = -(c5/k) * k cos kx = -c5 cos kx, times the decay.
        sol = EigenmodeSolution(n=1, m=1, k=3, kappa=0.4, alpha=0.25, c5=1.2)
        u, v = eval_velocity(sol, 0.8, grid32)
        x, y = grid32.nodes()
        decay = np.exp(-0.4 * 9.0**0.25 * 0.8)
        assert_allclose(u.values, 0.0, atol=1e-15)
        assert_allclose(v.values, -1.2 * decay * np.cos(3 * x), atol=1e-14)

    @pytest.mark.parametrize("name", ["theta1", "theta2", "theta3"])
    def test_builtin_velocity_matches_spectral_path(self, name, grid64):
        sol = builtin_samples()[name].solution(kappa=0.05, alpha=0.7)
        u, v = eval_velocity(sol, 0.5, grid64)
        theta_hat = forward_transform(eval_theta(sol, 0.5, grid64))
        u_hat, v_hat = velocity_from_theta(theta_hat)
        assert_allclose(u.values, inverse_transform(u_hat).values, atol=1e-12)
        assert_allclose(v.values, inverse_transform(v_hat).values, atol=1e-12)

    def test_random_solutions_velocity_matches_spectral_path(self, grid64):
        rng = np.random.default_rng(404)
        for maker in (random_eigenmode, random_unidirectional):
            sol = maker(rng, 0.02, 0.45)
            u, v = eval_velocity(sol, 1.3, grid64)
            theta_hat = forward_transform(eval_theta(sol, 1.3, grid64))
            u_hat, v_hat = velocity_from_theta(theta_hat)
            assert_allclose(u.values, inverse_transform(u_hat).values, atol=1e-12)
            assert_allclose(v.values, inverse_transform(v_hat).values, atol=1e-12)


class TestTimeDerivative:
    def test_single_rate(self, grid32):
        sol = _theta1(kappa=0.3, alpha=0.6)
        rate = 0.3 * 5.0**0.6
        assert_allclose(eval_dtheta_dt(sol, 1.5, grid32).values,
                        -rate * eval_theta(sol, 1.5, grid32).values, rtol=1e-14)

    def test_matches_finite_difference_in_time(self, grid32):
        rng = np.random.default_rng(77)
        sol = random_unidirectional(rng, 0.8, 0.35)
        x, y = grid32.nodes()
        h = 1e-5
        fd = (theta_at(sol, 1.0 + h, x, y) - theta_at(sol, 1.0 - h, x, y)) / (2 * h)
        exact = dtheta_dt_at(sol, 1.0, x, y)
        assert_allclose(exact, fd, atol=1e-8)

    def test_scales_linearly_in_kappa_at_t_zero(self, grid32):
        a = eval_dtheta_dt(_theta1(kappa=0.2, alpha=0.5), 0.0, grid32).values
        b = eval_dtheta_dt(_theta1(kappa=0.4, alpha=0.5), 0.0, grid32).values
        assert_allclose(b, 2 * a, rtol=1e-15)


def _distinct_rates(sol):
    """``sol`` with every unidirectional mode whose |k| repeats an earlier one dropped."""
    seen = set()
    modes = []
    for k, a, b in sol.modes:
        if abs(k) not in seen:
            seen.add(abs(k))
            modes.append((k, a, b))
    return UnidirectionalSolution(n=sol.n, m=sol.m, kappa=sol.kappa, alpha=sol.alpha,
                                  modes=tuple(modes))


class TestGridPatterns:
    """The grid evaluators sum one cached pattern per decay rate."""

    def test_t0_is_bitwise_the_point_sum(self, grid64):
        # With each rate's waves contiguous and only the first rate holding
        # more than one wave, the pattern sum adds the waves in the same order.
        rng = np.random.default_rng(2024)
        x, y = grid64.nodes()
        sols = [random_eigenmode(rng, 0.01, 0.4) for _ in range(10)]
        sols += [_distinct_rates(random_unidirectional(rng, 0.01, 0.4)) for _ in range(10)]
        for sol in sols:
            grid_values = eval_theta(sol, 0.0, grid64).values
            point_values = solutions._theta_at(sol, 0.0, x, y)
            assert np.array_equal(grid_values.view(np.uint64), point_values.view(np.uint64))

    def test_non_adjacent_opposite_modes_agree_to_round_off(self, grid64):
        # k = 1 and k = -1 share a decay rate but are not neighbours in the
        # wave list, so their pattern adds the waves in another order.
        sol = UnidirectionalSolution(n=1, m=2, kappa=0.05, alpha=0.6,
                                     modes=((1, 0.7, -1.2), (2, 0.4, 0.9), (-1, -0.3, 1.6)))
        assert len(solutions._grid_patterns(sol, 64, 64)) == 2
        x, y = grid64.nodes()
        for t in (0.0, 0.9, 7.0):
            theta = solutions._theta_at(sol, t, x, y)
            dtheta = solutions._dtheta_dt_at(sol, t, x, y)
            assert np.abs(eval_theta(sol, t, grid64).values - theta).max() \
                <= 1e-15 * np.abs(theta).max()
            assert np.abs(eval_dtheta_dt(sol, t, grid64).values - dtheta).max() \
                <= 1e-15 * np.abs(dtheta).max()

    def test_patterns_are_read_only(self, grid32):
        sol = builtin_samples()["theta3"].solution(0.01, 0.5)
        table = solutions._grid_patterns(sol, 32, 32)
        assert [rate for rate, _ in table] == [0.01 * 2.0**0.5, 0.01 * 8.0**0.5]
        for _, pattern in table:
            assert not pattern.flags.writeable
            with pytest.raises(ValueError):
                pattern[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["theta2", "theta3"])
    def test_new_time_costs_no_trigonometry(self, name, grid64, monkeypatch):
        sol = builtin_samples()[name].solution(0.01, 0.5)
        eval_theta(sol, 0.0, grid64)
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "cos", counted(np.cos))
        monkeypatch.setattr(np, "sin", counted(np.sin))
        eval_theta(sol, 1.5, grid64)
        eval_dtheta_dt(sol, 2.5, grid64)
        assert residual(sol, 3.5, grid64).l_inf < 1e-12
        assert calls == []
        # The counters do count: a solution not in the table is built with them.
        eval_theta(with_parameters(sol, kappa=0.02), 1.5, grid64)
        assert calls


class TestBuiltinSamples:
    def test_names_and_order(self):
        samples = builtin_samples()
        assert list(samples) == ["theta1", "theta2", "theta3", "con-1", "con-2", "con-3"]
        assert [s.exact for s in samples.values()] == [True, True, True, False, False, False]

    def test_theta2_construction(self):
        sol = builtin_samples()["theta2"].solution(0.001, 0.001)
        assert (sol.n, sol.m, sol.k) == (4, 3, 5)
        assert (sol.c1, sol.c4, sol.c5, sol.c6) == (1.0, 0.5, 0.5, 1.0)
        assert (sol.c2, sol.c3, sol.c7, sol.c8) == (0.0, 0.0, 0.0, 0.0)
        assert validate(sol).ok

    def test_exact_samples_initial_field_matches_solution(self, grid32):
        for name in ("theta1", "theta2", "theta3"):
            sample = builtin_samples()[name]
            sol = sample.solution(0.01, 0.5)
            assert_allclose(sample.initial_field(grid32).values,
                            eval_theta(sol, 0.0, grid32).values, atol=1e-15)

    def test_con1_candidate_is_rejected(self):
        candidate = builtin_samples()["con-1"].solution(0.001, 0.4)
        report = validate(candidate)
        assert not report.ok
        assert "2 != 1" in report.violations[0].message

    def test_con2_and_con3_have_no_solution_form(self):
        samples = builtin_samples()
        assert samples["con-2"].solution(0.001, 0.4) is None
        assert samples["con-3"].solution(0.001, 0.4) is None

    def test_con_fields(self, grid32):
        x, y = grid32.nodes()
        samples = builtin_samples()
        assert_allclose(samples["con-1"].initial_field(grid32).values,
                        np.sin(x) * np.sin(y) + np.cos(y))
        assert_allclose(samples["con-2"].initial_field(grid32).values,
                        -np.cos(2 * x) * np.cos(y) + np.sin(x) * np.sin(y))
        assert_allclose(samples["con-3"].initial_field(grid32).values,
                        np.cos(2 * x) * np.cos(y) + np.sin(x) * np.sin(y)
                        + np.cos(2 * x) * np.sin(3 * y))


_GRID16 = GridSpec(16, 16)
# Each evaluator of a solution at a time t, as a function of (sol, t).
_AT_TIME = {
    "eval_theta": lambda sol, t: eval_theta(sol, t, _GRID16),
    "eval_velocity": lambda sol, t: eval_velocity(sol, t, _GRID16),
    "eval_dtheta_dt": lambda sol, t: eval_dtheta_dt(sol, t, _GRID16),
    "theta_at": lambda sol, t: theta_at(sol, t, 0.5, 1.5),
    "dtheta_dt_at": lambda sol, t: dtheta_dt_at(sol, t, 0.5, 1.5),
    "residual": lambda sol, t: residual(sol, t, _GRID16),
    "_residual_linf": lambda sol, t: verify._residual_linf(sol, [0.0, t], _GRID16),
    "_Grams.correlation": lambda sol, t: verify._grams(sol, _GRID16).correlation(t),
}


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("evaluator", sorted(_AT_TIME))
def test_a_non_finite_time_is_a_domain_error(evaluator, t):
    # theta1, and two solutions with no wave at all, which take no decay weight.
    for sol in (builtin_samples()["theta1"].solution(0.001, 0.001),
                EigenmodeSolution(n=1, m=1, kappa=0.1, alpha=0.5),
                UnidirectionalSolution(n=1, m=1, kappa=0.1, alpha=0.5, modes=((1, 0.0, 0.0),))):
        with pytest.raises(DomainError, match=r"^t must be finite, got (nan|inf|-inf)$"):
            _AT_TIME[evaluator](sol, t)


class TestWithParameters:
    def test_replaces_only_what_is_asked(self):
        sol = _theta1(kappa=0.1, alpha=0.2)
        out = with_parameters(sol, kappa=0.9)
        assert out.kappa == 0.9 and out.alpha == 0.2
        assert out.c1 == sol.c1 and out.n == sol.n

    def test_works_for_unidirectional(self):
        sol = UnidirectionalSolution(n=1, m=2, kappa=0.1, alpha=0.2, modes=((1, 1.0, 0.0),))
        out = with_parameters(sol, alpha=0.75)
        assert out.alpha == 0.75 and out.kappa == 0.1 and out.modes == sol.modes
