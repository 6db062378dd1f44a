"""The factorised residual: terms built once per (solution, grid), rescaled per time."""

import gc
import math
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import fft_passes
from sqgkit import solutions, verify
from sqgkit.solutions import EigenmodeSolution, UnidirectionalSolution, builtin_samples
from sqgkit.spectral import GridSpec

from oracles import direct_residual, residual_atol

_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

_CASES = {
    **{name: builtin_samples()[name].solution(0.3, 0.6)
       for name in ("theta1", "theta2", "theta3", "con-1")},
    # Three decay rates: k = 1 and k = -1 share one.
    "uni-3-rates": UnidirectionalSolution(
        n=1, m=2, kappa=0.2, alpha=0.7,
        modes=((1, 0.7, -0.2), (-1, 0.3, 0.5), (2, 0.4, 0.9), (-3, -0.3, 0.6))),
    # n² + m² = 5 != k² = 4: the advection term of the two groups survives.
    "eigen-breaking": EigenmodeSolution(n=1, m=2, k=2, kappa=0.1, alpha=0.5,
                                        c1=1.0, c3=0.4, c5=0.8, c8=-0.6),
    # The mean is its own rate group for α > 0 and shares the waves' rate at α = 0.
    **{f"mean-waves-alpha{alpha}": UnidirectionalSolution(
        n=2, m=-1, kappa=0.3, alpha=alpha,
        modes=((0, 1.3, 0.0), (1, 0.5, -0.7), (-2, 0.2, 0.4)))
       for alpha in (0.0, 0.5)},
}


def _norms(rep):
    return (rep.l_inf, rep.l2, rep.nonlinear_linf)


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the ``numpy.fft`` functions called while the test runs."""
    calls = []

    def counter(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for name in _FFT_NAMES:
        monkeypatch.setattr(np.fft, name, counter(name, getattr(np.fft, name)))
    return calls


class TestAgainstDirectAssembly:
    @pytest.mark.parametrize("override", [{}, {"kappa": 0.7, "alpha": 0.35}],
                             ids=["own", "override"])
    @pytest.mark.parametrize("t", [0.0, 0.37, 12.5])
    @pytest.mark.parametrize("name", list(_CASES))
    def test_matches_the_per_time_assembly(self, name, t, override, grid64):
        sol = _CASES[name]
        got = _norms(verify.residual(sol, t, grid64, **override))
        assert_allclose(got, direct_residual(sol, t, grid64, **override),
                        rtol=1e-12, atol=residual_atol(sol, **override))

    def test_breaking_candidates_stay_order_one(self, grid64):
        for name in ("con-1", "eigen-breaking"):
            assert verify.residual(_CASES[name], 0.0, grid64).l_inf > 0.1

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_candidates_match(self, data):
        grid = GridSpec(64, 64)
        kappa = data.draw(st.floats(1e-3, 1.0))
        alpha = data.draw(st.floats(0.0, 0.99))
        nonzero = st.integers(-6, 6).filter(bool)
        coef = st.floats(-2.0, 2.0)
        if data.draw(st.booleans()):
            # Any k: the coupling constraint may hold or break.
            c = data.draw(st.lists(coef, min_size=8, max_size=8))
            sol = EigenmodeSolution(n=data.draw(nonzero), m=data.draw(nonzero),
                                    k=data.draw(st.integers(-8, 8).filter(bool)),
                                    kappa=kappa, alpha=alpha,
                                    **{f"c{i + 1}": v for i, v in enumerate(c)})
        else:
            n, m = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                             .filter(lambda nm: nm != (0, 0)))
            ks = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True))
            sol = UnidirectionalSolution(n=n, m=m, kappa=kappa, alpha=alpha,
                                         modes=tuple((k, data.draw(coef), data.draw(coef))
                                                     for k in ks))
        t = data.draw(st.floats(0.0, 20.0))
        assert_allclose(_norms(verify.residual(sol, t, grid)), direct_residual(sol, t, grid),
                        rtol=1e-12, atol=residual_atol(sol))


class TestTermCache:
    def test_first_call_for_one_rate_makes_at_most_8_transforms(self, grid64, monkeypatch):
        # Counted as 2-D real transforms: an rfft2/irfft2 call, or the
        # advection kernel's pair of 1-D passes (``fft_passes.transforms``).
        sol = builtin_samples()["theta1"].solution(0.01, 0.5)
        solutions._GRID_DATA.clear()
        calls = fft_passes.install(monkeypatch)
        verify.residual(sol, 0.25, grid64)
        assert 0 < len(fft_passes.transforms(calls, grid64)) <= 8
        assert {c.name for c in calls} == {"rfft2", "irfft2", "rfft", "irfft", "fft", "ifft"}

    @pytest.mark.parametrize("name", ["theta1", "theta3", "uni-3-rates"])
    def test_new_time_makes_no_transform(self, name, grid64, fft_calls):
        sol = _CASES[name]
        verify.residual(sol, 0.0, grid64)
        assert fft_calls
        fft_calls.clear()
        for t in (0.4, 3.0, 11.0):
            verify.residual(sol, t, grid64)
        assert fft_calls == []

    def test_one_read_only_table_and_the_same_results(self, grid64):
        a = builtin_samples()["theta3"].solution(0.02, 0.4)
        b = _CASES["eigen-breaking"]
        verify.residual(a, 0.0, grid64)
        verify.residual(b, 0.0, grid64)
        linear, advection = solutions._GRID_DATA[(b, 64, 64)]["residual"]
        gone = weakref.ref(advection[0][1])
        del linear, advection
        # Evaluating another solution drops b's terms with its patterns.
        solutions.eval_theta(a, 0.0, grid64)
        gc.collect()
        assert gone() is None
        warm = [verify.residual(a, t, grid64) for t in (0.0, 0.6, 9.0)]
        assert list(solutions._GRID_DATA) == [(a, 64, 64)]
        linear, advection = solutions._GRID_DATA[(a, 64, 64)]["residual"]
        assert len(linear) == 2 and len(advection) == 3   # two rates, three pairs
        for _, term in linear + advection:
            assert not term.flags.writeable
            with pytest.raises(ValueError):
                term[0, 0] = 1.0
        solutions._GRID_DATA.clear()
        cold = [verify.residual(a, t, grid64) for t in (0.0, 0.6, 9.0)]
        assert warm == cold


class TestHugeKappa:
    def test_overflowing_dissipation_gives_a_finite_failing_row(self, tmp_path):
        # The wave's rate, 1e308, is finite, but κ|k|^(2α) overflows on the
        # grid's higher modes, where the pattern's spectrum is round-off.
        (tmp_path / "huge.cfg").write_text(
            "kappa = 1e308\nalpha = 0.3\ngrid = 16\nt_end = 1\ndt = 0.1\nmode = exact\n"
            "outputs = report\noutdir = out\n"
            "[solution]\nfamily = unidirectional\nn = 1\nm = 0\nmodes = 1:0.5:0.2\n")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "sqgkit.cli", "scenario",
             "huge.cfg"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.stderr == ""
        assert proc.returncode == 1, proc.stdout
        rows = [line.split(",") for line in
                (tmp_path / "out" / "report.csv").read_text().splitlines()[1:]]
        residuals = {row[2]: (float(row[3]), row[5]) for row in rows if row[0] == "residual_linf"}
        assert set(residuals) == {"0", "1"}
        assert all(math.isfinite(value) for value, _ in residuals.values())
        assert residuals["0"][1] == "fail" and residuals["0"][0] > 1e-10
        assert residuals["1"] == (0.0, "pass")

    def test_norms_are_finite_without_a_warning(self):
        sol = UnidirectionalSolution(n=1, m=0, kappa=1e308, alpha=0.3, modes=((1, 0.5, 0.2),))
        grid = GridSpec(16, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify.residual(sol, 0.0, grid)
        assert all(math.isfinite(x) for x in (rep.l_inf, rep.l2, rep.nonlinear_linf))
        # The squares of a residual this large overflow; its l2 norm does not.
        assert rep.l_inf > 1e200
        assert rep.l_inf * math.sqrt(grid.cell_area) <= rep.l2 <= 2 * math.pi * rep.l_inf
