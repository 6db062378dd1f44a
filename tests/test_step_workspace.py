"""The IFRK4 step on its work arrays: bit identity with the allocating step,
its allocation budget, no aliasing of returned arrays, and a huge κ."""

import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from oracles import reference_ifrk4_step, reference_nonlinear_hat
from sqgkit import integrator
from sqgkit.errors import StabilityWarning
from sqgkit.integrator import SolverParams, simulate, step
from sqgkit.solutions import builtin_samples
from sqgkit.spectral import (GridSpec, PhysicalField, forward_transform, nonlinear_term,
                             _full_spectrum, _half_spectrum, _nonlinear_hat, _to_coefficients,
                             _workspace)

GRIDS = [(32, 32), (64, 64), (48, 32), (32, 48), (128, 128)]
DATA = ["con-1", "con-2", "con-3"]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _factors(grid, dt, kappa=0.001, alpha=0.4):
    half_e = np.exp(-0.5 * dt * integrator._symbol(grid, kappa, alpha))
    return half_e, half_e * half_e


def _random_field(grid, seed):
    """A random real field whose spectrum falls off like |k|^-2, up to the Nyquist modes."""
    rng = np.random.default_rng(seed)
    kx, ky = grid.wavenumbers()
    amp = 1.0 / (1.0 + kx * kx + ky * ky)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    values = np.fft.ifft2(amp * noise).real
    return PhysicalField(grid, values / np.max(np.abs(values)))


class TestBitIdentity:
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("datum", DATA)
    @pytest.mark.parametrize("shape", GRIDS)
    def test_every_snapshot_matches_the_allocating_step(self, shape, datum, dealias,
                                                        monkeypatch):
        grid = GridSpec(*shape)
        initial = builtin_samples()[datum].initial_field(grid)
        # Two full-step segments, each closed by a shortened step.
        params = SolverParams(kappa=0.001, alpha=0.4, dt=0.005, t_end=0.05,
                              dealias=dealias, snapshot_times=(0.0233,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            got = simulate(initial, params)
            monkeypatch.setattr(integrator, "_ifrk4_step",
                                lambda *args: reference_ifrk4_step(*args[:6]))
            want = simulate(initial, params)
        assert got.times == want.times
        for a, b in zip(got.snapshots, want.snapshots):
            assert_array_equal(_bits(a.field.values), _bits(b.field.values))

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("shape", GRIDS)
    def test_nonlinear_term_matches_the_allocating_term(self, shape, dealias):
        grid = GridSpec(*shape)
        fields = [builtin_samples()[d].initial_field(grid) for d in DATA]
        for f in fields + [_random_field(grid, seed) for seed in range(3)]:
            s = forward_transform(f)
            want = reference_nonlinear_hat(_half_spectrum(s.coefficients, grid), grid, dealias)
            assert_array_equal(nonlinear_term(s, dealias).coefficients,
                               _full_spectrum(want, grid))

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("shape", [(32, 32), (48, 32), (64, 64)])
    def test_public_step_matches_the_allocating_step(self, shape, dealias):
        grid = GridSpec(*shape)
        params = SolverParams(kappa=0.002, alpha=0.3, dt=0.004, t_end=0.004, dealias=dealias)
        half_e, full_e = _factors(grid, params.dt, params.kappa, params.alpha)
        for f in [builtin_samples()["con-2"].initial_field(grid), _random_field(grid, 7)]:
            state = forward_transform(f)
            c0 = _half_spectrum(state.coefficients, grid)
            want = reference_ifrk4_step(c0, params.dt, half_e, full_e, grid, dealias)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StabilityWarning)
                got = step(state, params)
            assert_array_equal(got.coefficients, _full_spectrum(want, grid))


class TestAllocationBudget:
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_warm_step_peak_is_its_result(self, n, dealias):
        # Every operand is a contiguous complex work array, so numpy copies
        # none into a buffer (a strided or real one would take one as large
        # as the stage columns at 128²); the kernel's transforms make no node
        # array.
        grid = GridSpec(n, n)
        c = _to_coefficients(builtin_samples()["con-2"].initial_field(grid).values, grid)
        half_e, full_e = _factors(grid, 0.005)
        work = integrator._step_work(grid, dealias)
        integrator._ifrk4_step(c, 0.005, half_e, full_e, grid, dealias, work)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = integrator._ifrk4_step(c, 0.005, half_e, full_e, grid, dealias, work)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= result.nbytes + 4096, peak - result.nbytes

    @pytest.mark.parametrize("dealias", [True, False])
    def test_second_step_keeps_nothing_but_its_result(self, dealias):
        grid = GridSpec(64, 64)
        c = _to_coefficients(builtin_samples()["con-1"].initial_field(grid).values, grid)
        half_e, full_e = _factors(grid, 0.005)
        work = integrator._step_work(grid, dealias)
        arrays = [a for a in (*work.advection, *work[1:]) if a is not None]
        addresses = [a.__array_interface__["data"][0] for a in arrays]
        integrator._ifrk4_step(c, 0.005, half_e, full_e, grid, dealias, work)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = integrator._ifrk4_step(c, 0.005, half_e, full_e, grid, dealias, work)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert [a.__array_interface__["data"][0] for a in arrays] == addresses
        assert kept <= result.nbytes + 4096

    def test_simulate_builds_its_work_arrays_once(self, monkeypatch):
        grid = GridSpec(32, 32)
        built = []
        original = integrator._step_work

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(integrator, "_step_work", counted)
        params = SolverParams(kappa=0.001, alpha=0.4, dt=0.005, t_end=0.05,
                              snapshot_times=(0.0233,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            simulate(builtin_samples()["con-1"].initial_field(grid), params)
        assert built == [(grid, True)]

    def test_concurrent_steps_share_no_array(self):
        grid = GridSpec(64, 64)
        half_e, full_e = _factors(grid, 0.005)
        states = [_to_coefficients(_random_field(grid, seed).values, grid) for seed in range(6)]
        want = [(_bits(reference_ifrk4_step(c, 0.005, half_e, full_e, grid, True)),
                 reference_nonlinear_hat(c, grid, True)) for c in states]
        wrong = [0] * len(states)

        def run(i):
            try:
                for _ in range(20):
                    c = integrator._ifrk4_step(states[i], 0.005, half_e, full_e, grid, True,
                                               integrator._step_work(grid, True))
                    n = _nonlinear_hat(states[i], grid, True, np.zeros_like(states[i]),
                                       _workspace(grid, True))
                    wrong[i] += not (np.array_equal(_bits(c), want[i][0])
                                     and np.array_equal(n, want[i][1]))
            except Exception:   # a thread's exception would otherwise pass unseen
                wrong[i] = -1

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(states))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [0] * len(states)


class TestNoAliasing:
    @pytest.mark.parametrize("dealias", [True, False])
    def test_later_calls_leave_returned_arrays_alone(self, dealias):
        grid = GridSpec(32, 32)
        params = SolverParams(kappa=0.001, alpha=0.4, dt=0.005, t_end=0.005, dealias=dealias)
        half_e, full_e = _factors(grid, params.dt)
        states = [forward_transform(builtin_samples()[d].initial_field(grid)) for d in DATA]

        def half(s):
            return _half_spectrum(s.coefficients, grid)

        calls = {
            "nonlinear_term": lambda s: nonlinear_term(s, dealias).coefficients,
            "step": lambda s: step(s, params).coefficients,
            "_nonlinear_hat": lambda s: _nonlinear_hat(half(s), grid, dealias,
                                                       np.zeros_like(half(s)),
                                                       _workspace(grid, dealias)),
            "_ifrk4_step": lambda s: integrator._ifrk4_step(
                half(s), params.dt, half_e, full_e, grid, dealias,
                integrator._step_work(grid, dealias)),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            for name, call in calls.items():
                first = call(states[0])
                copy = first.copy()
                for s in states[1:]:
                    for other in calls.values():
                        other(s)
                assert_array_equal(_bits(first), _bits(copy)), name


class TestHugeKappa:
    def test_overflowing_symbol_is_inf_without_a_warning(self):
        grid = GridSpec(16, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sym = integrator._symbol(grid, 1e308, 0.3)
            half_e = np.exp(-0.5 * 0.01 * sym)
        assert np.isinf(sym).any()
        assert np.all(half_e[np.isinf(sym)] == 0.0)

    def test_simulate_cli_prints_nothing_on_stderr(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "sqgkit.cli", "simulate",
             "--solution", "con-1", "--kappa", "1e308", "--alpha", "0.3", "--grid", "16",
             "--t-end", "0.1", "--dt", "0.01", "--outputs", "report"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
