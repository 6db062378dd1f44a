"""The advection kernel's transforms as explicit 1-D passes through its
workspace: the pass buffer's dropped columns stay zero, the expanded
multipliers belong to one workspace, a warm kernel call makes no node array,
and the step and the residual terms keep the bits of the kernel that
inverted each cut spectrum by ``irfft2`` into a new array."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from oracles import reference_ifrk4_step, reference_residual_terms
from sqgkit import integrator, solutions, verify
from sqgkit.errors import StabilityWarning
from sqgkit.solutions import EigenmodeSolution, UnidirectionalSolution, builtin_samples
from sqgkit.spectral import (GridSpec, PhysicalField, _advection_width, _multipliers,
                             _nonlinear_hat, _to_coefficients, _workspace)

DATA = ["con-1", "con-2", "con-3"]

SOLUTIONS = {
    **{name: builtin_samples()[name].solution(0.3, 0.6) for name in ("theta1", "theta3")},
    "uni-3-rates": UnidirectionalSolution(
        n=1, m=2, kappa=0.2, alpha=0.7,
        modes=((1, 0.7, -0.2), (-1, 0.3, 0.5), (2, 0.4, 0.9), (-3, -0.3, 0.6))),
    # n² + m² = 5 != k² = 4: the advection term of the two groups survives.
    "eigen-breaking": EigenmodeSolution(n=1, m=2, k=2, kappa=0.1, alpha=0.5,
                                        c1=1.0, c3=0.4, c5=0.8, c8=-0.6),
}


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _factors(grid, dt, kappa=0.001, alpha=0.4):
    half_e = np.exp(-0.5 * dt * integrator._symbol(grid, kappa, alpha))
    return half_e, half_e * half_e


def _random_half_spectrum(grid, seed):
    """The half spectrum of a random real field with a |k|^-2 fall-off."""
    rng = np.random.default_rng(seed)
    kx, ky = grid.wavenumbers()
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    values = np.fft.ifft2(noise / (1.0 + kx * kx + ky * ky)).real
    return _to_coefficients(PhysicalField(grid, values / np.max(np.abs(values))).values, grid)


def _dropped_columns_are_zero(ws, grid):
    width = ws.theta.shape[1]
    tail = ws.half[:, width:]
    assert tail.shape == (grid.n_y, grid.n_x // 2 + 1 - width)
    assert not _bits(tail).any()   # +0.0 in both parts, not merely == 0


class TestPassBuffer:
    @pytest.mark.parametrize("shape", [(64, 64), (48, 32), (32, 48)])
    def test_dropped_columns_are_zero_after_a_solver_stage(self, shape):
        grid = GridSpec(*shape)
        work = integrator._step_work(grid, True)
        _dropped_columns_are_zero(work.advection, grid)
        c = _random_half_spectrum(grid, 1)
        _nonlinear_hat(c, grid, True, work.n1, work.advection)
        _dropped_columns_are_zero(work.advection, grid)
        half_e, full_e = _factors(grid, 0.005)
        integrator._ifrk4_step(c, 0.005, half_e, full_e, grid, True, work)
        _dropped_columns_are_zero(work.advection, grid)

    @pytest.mark.parametrize("shape", [(64, 64), (48, 32)])
    @pytest.mark.parametrize("name", sorted(SOLUTIONS))
    def test_dropped_columns_are_zero_after_a_residual_build(self, name, shape, monkeypatch):
        grid = GridSpec(*shape)
        made = []

        def workspace(*args):
            made.append(_workspace(*args))
            return made[-1]

        monkeypatch.setattr(verify, "_workspace", workspace)
        solutions._GRID_DATA.clear()
        verify._residual_terms(SOLUTIONS[name], grid)
        solutions._GRID_DATA.clear()
        assert len(made) == 1
        _dropped_columns_are_zero(made[0], grid)


class TestMultipliers:
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("shape", [(32, 32), (48, 32)])
    def test_expanded_complex_copies_of_the_table(self, shape, dealias):
        grid = GridSpec(*shape)
        width = _advection_width(grid, dealias)
        table = _multipliers(grid.n_x, grid.n_y, width)
        ws = _workspace(grid, dealias)
        expected = {"ikx": table.ikx, "iky": table.iky, "inv_k": table.inv_k,
                    "mask": table.dealias if dealias else None}
        for name, multiplier in expected.items():
            got = getattr(ws, name)
            if multiplier is None:
                assert got is None
                continue
            assert got.shape == (grid.n_y, width) and got.dtype == complex
            assert got.flags.c_contiguous and not got.flags.writeable
            assert_array_equal(got, np.broadcast_to(multiplier, got.shape))
            assert not np.shares_memory(got, multiplier)

    def test_each_workspace_holds_its_own(self):
        # Per run, not a process-wide cache: a cache kept for a grid no op
        # uses counts in the process's peak memory.
        grid = GridSpec(32, 32)
        a, b = _workspace(grid, True), _workspace(grid, True)
        for x, y in zip(a, b):
            assert not np.shares_memory(x, y)


class TestNoNodeArrays:
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("n", [64, 128])
    def test_warm_kernel_call_allocates_less_than_a_node_array(self, n, dealias):
        grid = GridSpec(n, n)
        c = _random_half_spectrum(grid, 2)
        ws = _workspace(grid, dealias)
        out = np.empty(ws.theta.shape, dtype=complex)
        _nonlinear_hat(c, grid, dealias, out, ws)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _nonlinear_hat(c, grid, dealias, out, ws)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < grid.size * 8, peak


class TestBitIdentity:
    @pytest.mark.parametrize("datum", DATA)
    def test_step_at_256_matches_the_allocating_step(self, datum):
        grid = GridSpec(256, 256)
        c = _to_coefficients(builtin_samples()[datum].initial_field(grid).values, grid)
        half_e, full_e = _factors(grid, 0.002)
        work = integrator._step_work(grid, True)
        for _ in range(2):   # the second step runs on a used workspace
            got = integrator._ifrk4_step(c, 0.002, half_e, full_e, grid, True, work)
            want = reference_ifrk4_step(c, 0.002, half_e, full_e, grid, True)
            assert_array_equal(_bits(got), _bits(want))
            c = got

    @pytest.mark.parametrize("seed", range(3))
    def test_undealiased_step_on_48x32_matches_the_allocating_step(self, seed):
        grid = GridSpec(48, 32)
        c = _random_half_spectrum(grid, seed)
        half_e, full_e = _factors(grid, 0.004)
        work = integrator._step_work(grid, False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            for _ in range(2):
                got = integrator._ifrk4_step(c, 0.004, half_e, full_e, grid, False, work)
                want = reference_ifrk4_step(c, 0.004, half_e, full_e, grid, False)
                assert_array_equal(_bits(got), _bits(want))
                c = got

    @pytest.mark.parametrize("shape", [(64, 64), (48, 32), (32, 48), (34, 20)])
    @pytest.mark.parametrize("name", sorted(SOLUTIONS))
    def test_residual_terms_match_the_allocating_kernel(self, name, shape):
        grid = GridSpec(*shape)
        solutions._GRID_DATA.clear()
        linear, advection = verify._residual_terms(SOLUTIONS[name], grid)
        ref_linear, ref_advection = reference_residual_terms(SOLUTIONS[name], grid)
        solutions._GRID_DATA.clear()
        assert len(linear) == len(ref_linear) and len(advection) == len(ref_advection)
        for (rate, term), (ref_rate, ref_term) in zip(linear + advection,
                                                      ref_linear + ref_advection):
            assert rate == ref_rate
            assert_array_equal(_bits(term), _bits(ref_term))
