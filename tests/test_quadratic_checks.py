"""Quadratic checks of exact solutions from pattern Gram matrices, and the
column-cut inverse transforms of the residual build."""

import numpy as np
import pytest

from sqgkit import scenario, solutions, verify
from sqgkit.fileio import parse_config
from sqgkit.solutions import UnidirectionalSolution, builtin_samples
from sqgkit.spectral import GridSpec, _to_coefficients

from oracles import full_width_residual_terms, random_eigenmode, random_unidirectional
from test_residual_terms import _CASES

_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def _random_solutions(count=60, seed=20):
    """Random valid solutions of both families; unidirectional ones have 1 to 3 rates."""
    rng = np.random.default_rng(seed)
    sols = []
    for i in range(count):
        kappa, alpha = float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.0, 0.9))
        make = random_eigenmode if i % 2 else random_unidirectional
        sol = make(rng, kappa, alpha)
        if any(p or q for p, q, _, _ in solutions._waves(sol)):   # not zero or mean-only
            sols.append(sol)
    return sols


_SOLUTIONS = _random_solutions()


def _times(sol):
    """t = 0 and times at which the fastest wave has decayed by e^-0.25, e^-1, e^-2.

    The node-space reference centres θ(t) by subtracting its mean, which
    loses about ε·|mean| per node; once the waves decay far below a mean
    offset that loss, not the Gram form, sets the difference.
    """
    r_max = max(solutions._rate(sol, p, q) for p, q, _, _ in solutions._waves(sol))
    return (0.0, 0.25 / r_max, 1.0 / r_max, 2.0 / r_max)


def test_the_random_solutions_cover_one_to_three_rates():
    grid = GridSpec(64, 64)
    assert {len(verify._grams(sol, grid).rates) for sol in _SOLUTIONS} == {1, 2, 3}


@pytest.mark.parametrize("index", range(len(_SOLUTIONS)))
def test_gram_correlation_matches_the_field_correlation(index):
    sol, grid = _SOLUTIONS[index], GridSpec(64, 64)
    theta0 = solutions.eval_theta(sol, 0.0, grid)
    grams = verify._grams(sol, grid)
    for t in _times(sol):
        field = solutions.eval_theta(sol, t, grid)
        assert abs(grams.correlation(t) - verify.pattern_correlation(field, theta0)) <= 1e-14


@pytest.mark.parametrize("index", range(len(_SOLUTIONS)))
def test_gram_off_ray_fraction_matches_the_field_check(index):
    sol, grid = _SOLUTIONS[index], GridSpec(64, 64)
    patterns = solutions._grid_patterns(sol, grid.n_x, grid.n_y)
    coefs = [_to_coefficients(pattern, grid) for _, pattern in patterns]
    # No wave of these solutions lies on the ray through (1, 7) except, for
    # an eigenmode, (1, 7) itself, so some energy is off the ray in every case.
    grams = verify._pattern_grams(tuple(r for r, _ in patterns), coefs, grid, (1, 7))
    for t in _times(sol):
        field = solutions.eval_theta(sol, t, grid)
        expected = verify.unidirectionality_check(field, 1, 7)
        assert expected > 1e-6
        assert grams.off_ray_fraction(t) == pytest.approx(expected, rel=1e-12, abs=0.0)
    if isinstance(sol, UnidirectionalSolution):
        own = verify._grams(sol, grid)
        for t in _times(sol):
            assert 0.0 <= own.off_ray_fraction(t) <= 1e-12


def test_gram_off_ray_fraction_on_the_nyquist_row():
    # cos(x + 4y) on 8×8 against its own ray (1, 4): the wave is stored at
    # (1, -4) on the ky = -n_y/2 row, off the ray, and its mirror under the
    # label (-1, -4), on it (see unidirectionality_check).
    grid = GridSpec(8, 8)
    sol = UnidirectionalSolution(n=1, m=4, kappa=0.1, alpha=0.5, modes=((1, 1.0, 0.0),))
    field = solutions.eval_theta(sol, 0.3, grid)
    expected = verify.unidirectionality_check(field, 1, 4)
    assert expected == pytest.approx(0.5, rel=1e-15)
    assert verify._grams(sol, grid).off_ray_fraction(0.3) == pytest.approx(expected, rel=1e-15)


def test_eigenmode_grams_have_no_off_ray_matrix():
    grams = verify._grams(builtin_samples()["theta2"].solution(0.1, 0.5), GridSpec(64, 64))
    assert grams.off_ray is None and grams.centred.shape == (1, 1)


_REPORT_ONLY = {
    "theta1": "solution = theta1\n",
    "theta3": "solution = theta3\n",
    "uni-3-rates": "[solution]\nfamily = unidirectional\nn = 1\nm = 2\n"
                   "modes = 1:0.7:-0.2, -1:0.3:0.5, 2:0.4:0.9, -3:-0.3:0.6\n",
}


@pytest.mark.parametrize("name", sorted(_REPORT_ONLY))
def test_report_only_scenario_makes_no_transform_after_the_build(name, tmp_path, monkeypatch):
    head = (f"kappa = 0.05\nalpha = 0.5\ngrid = 32\nt_end = 2\ndt = 0.01\n"
            f"snapshots = 0.3, 0.9, 1.5\nmode = exact\noutputs = report\n"
            f"outdir = {tmp_path}\n")
    text = _REPORT_ONLY[name]
    config = parse_config(text + head if text.startswith("solution") else head + text)
    events, theta_times = [], []

    def record(label, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            events.append(label)
            return out
        return wrapped

    for fft in _FFT_NAMES:
        monkeypatch.setattr(np.fft, fft, record("fft", getattr(np.fft, fft)))
    monkeypatch.setattr(verify, "_residual_terms", record("built", verify._residual_terms))
    original_eval = scenario.eval_theta

    def eval_theta(sol, t, grid):
        theta_times.append(t)
        return original_eval(sol, t, grid)

    monkeypatch.setattr(scenario, "eval_theta", eval_theta)
    solutions._GRID_DATA.clear()
    result = scenario.run_scenario(config)

    assert result.exit_code == 0
    quadratic = "correlation_dev" if name == "theta1" else "unidirectional_offray"
    assert sum(c.check == quadratic for c in result.checks) >= 4
    assert "fft" in events and "built" in events
    assert "fft" not in events[events.index("built"):]
    assert theta_times == [0.0]


@pytest.mark.parametrize("shape", [(64, 64), (48, 32), (32, 48), (34, 20), (16, 16)])
@pytest.mark.parametrize("name", sorted(_CASES))
def test_column_cut_terms_equal_the_full_width_build_bit_for_bit(name, shape):
    grid = GridSpec(*shape)
    solutions._GRID_DATA.clear()
    linear, advection = verify._residual_terms(_CASES[name], grid)
    ref_linear, ref_advection = full_width_residual_terms(_CASES[name], grid)
    assert len(linear) == len(ref_linear) and len(advection) == len(ref_advection)
    for (rate, term), (ref_rate, ref_term) in zip(linear + advection,
                                                  ref_linear + ref_advection):
        assert rate == ref_rate
        assert np.array_equal(term, ref_term)


@pytest.mark.parametrize("name, check", [("theta1", "correlation_dev"),
                                         ("theta3", "unidirectional_offray")])
def test_checks_of_a_field_decayed_below_the_smallest_double(name, check, tmp_path):
    # κ = 50 decays every wave of these solutions by e^-8000 or more by t = 100.
    config = parse_config(f"solution = {name}\nkappa = 50\nalpha = 0.3\ngrid = 16\n"
                          f"t_end = 100\ndt = 0.01\nmode = exact\noutputs = report\n"
                          f"outdir = {tmp_path}\n")
    result = scenario.run_scenario(config)
    assert result.exit_code == 0
    assert [c.passed for c in result.checks if c.check == check and c.time == 100.0] == [True]


def test_grams_where_every_weight_underflows():
    grid, t = GridSpec(16, 16), 100.0
    theta1 = verify._grams(builtin_samples()["theta1"].solution(50.0, 0.3), grid)
    theta3 = verify._grams(builtin_samples()["theta3"].solution(50.0, 0.3), grid)
    assert all(np.exp(-rate * t) == 0.0 for rate in theta1.rates + theta3.rates)
    assert theta1.correlation(t) == pytest.approx(1.0, abs=1e-15)
    # sin(x+y) outlives sin(2x+2y): θ(t) is ∝ sin(x+y), orthogonal to the other half of θ(0).
    assert theta3.correlation(t) == pytest.approx(2.0**-0.5, abs=1e-15)
    assert theta3.off_ray_fraction(t) <= 1e-30
