"""The advection kernel's transforms as explicit 1-D passes through its
workspace: the pass buffer's dropped columns stay zero, also when a pass
raises, the residual builds of a thread on a grid share one kept workspace,
and a march runs without it, the expanded multipliers belong to one
workspace, a warm kernel call makes no node array, and the step and the
residual terms keep the bits of the kernel that inverted each cut spectrum
into a new array.  The one-off transforms make the same passes and keep the
bits of numpy's ``irfft2`` and ``rfft2``."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from oracles import reference_ifrk4_step, reference_residual_terms
from sqgkit import integrator, scenario, solutions, verify
from sqgkit.cli import main
from sqgkit.errors import StabilityWarning
from sqgkit.integrator import simulate
from sqgkit.solutions import EigenmodeSolution, UnidirectionalSolution, builtin_samples
from sqgkit.spectral import (GridSpec, PhysicalField, _advection_width, _multipliers,
                             _nonlinear_hat, _to_coefficients, _to_cut_spectrum, _to_values,
                             _workspace)

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


def _kept(grid):
    return verify._kernel_workspace(grid, threading.get_ident())


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
    def test_dropped_columns_are_zero_after_a_residual_build(self, name, shape):
        # The kept workspace, after this build and after another solution's
        # build on the same grid, which reuses it.
        grid = GridSpec(*shape)
        second = SOLUTIONS["theta3" if name == "theta1" else "theta1"]
        for sol in (SOLUTIONS[name], second):
            solutions._GRID_DATA.clear()
            verify._residual_terms(sol, grid)
            _dropped_columns_are_zero(_kept(grid), grid)
        solutions._GRID_DATA.clear()

    def test_a_raising_pass_leaves_the_dropped_columns_zero(self):
        # A floating-point error is raised after the pass has written them.
        grid = GridSpec(32, 32)
        ws = _workspace(grid, True)
        values = np.zeros(grid.shape)
        values[:, :2] = (np.inf, -np.inf)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            _to_cut_spectrum(values, ws.half, ws.theta, ws.mask)
        _dropped_columns_are_zero(ws, grid)


class TestKeptWorkspace:
    def test_builds_on_one_grid_share_one_workspace(self, monkeypatch):
        made = []

        def workspace(*args):
            made.append(_workspace(*args))
            return made[-1]

        monkeypatch.setattr(verify, "_workspace", workspace)
        verify._kernel_workspace.cache_clear()
        grid, other = GridSpec(64, 64), GridSpec(48, 32)
        try:
            for sol in (SOLUTIONS["theta1"], SOLUTIONS["uni-3-rates"]):
                solutions._GRID_DATA.clear()
                linear, advection = verify._residual_terms(sol, grid)
                # No kept term is an array of the workspace the next build writes.
                assert not any(np.shares_memory(term, array) for _, term in linear + advection
                               for array in made[0] if array is not None)
            kept = _kept(grid)
            assert kept.theta is made[0].theta and len(made) == 1
            assert kept.product is None   # every pair sum gets its own
            solutions._GRID_DATA.clear()
            verify._residual_terms(SOLUTIONS["theta1"], other)
            assert _kept(other).theta is made[1].theta and len(made) == 2
            assert verify._kernel_workspace.cache_info().currsize == 1
        finally:
            solutions._GRID_DATA.clear()
            verify._kernel_workspace.cache_clear()

    def test_concurrent_builds_on_one_grid_keep_their_terms(self):
        # The FFTs write the kept workspace without the GIL, so a build in
        # one thread must not use the workspace kept by another's.
        grid = GridSpec(64, 64)
        names = sorted(SOLUTIONS)

        def terms(name):
            solutions._GRID_DATA.clear()
            linear, advection = verify._residual_terms(SOLUTIONS[name], grid)
            return [term.copy() for _, term in linear + advection]

        want = {name: terms(name) for name in names}
        wrong = dict.fromkeys(names, 0)

        def run(name):
            try:
                for _ in range(10):
                    # Another thread's build has most likely replaced the
                    # one-entry pattern cache, so this builds again.
                    linear, advection = verify._residual_terms(SOLUTIONS[name], grid)
                    got = [term for _, term in linear + advection]
                    wrong[name] += not (len(got) == len(want[name]) and all(
                        np.array_equal(a, b) for a, b in zip(got, want[name])))
            except Exception:   # a thread's exception would otherwise pass unseen
                wrong[name] = -1

        threads = [threading.Thread(target=run, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            solutions._GRID_DATA.clear()
        assert not any(t.is_alive() for t in threads)
        assert wrong == dict.fromkeys(names, 0)

    def test_a_march_runs_without_the_kept_workspace(self, tmp_path, monkeypatch):
        # mode = both builds the residual rows, then marches: the march's own
        # workspace does not sit beside the kept one.
        kept = []

        def march(*args, **kwargs):
            kept.append(verify._kernel_workspace.cache_info().currsize)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(scenario, "simulate", march)
        cfg = tmp_path / "both.cfg"
        cfg.write_text(f"outdir = {tmp_path / 'out'}\nsolution = theta1\nkappa = 0.01\n"
                       "alpha = 0.5\ngrid = 16\nt_end = 0.02\ndt = 0.01\nmode = both\n"
                       "outputs = report\n")
        solutions._GRID_DATA.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            assert main(["scenario", str(cfg)]) == 0
        assert kept == [0]
        assert [row.split(",")[0] for row in (tmp_path / "out" / "report.csv").read_text()
                .splitlines()].count("residual_linf") == 2


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


class TestOneOffTransforms:
    # ``_to_values`` and ``_to_coefficients`` make the kernel's passes through a
    # new half spectrum; numpy's own 2-D transforms are the oracle.  So every
    # reference above that is built from them carries numpy's bits too.
    SHAPES = [(16, 16), (32, 16), (64, 64), (256, 256), (512, 512)]

    @staticmethod
    def _wide(grid, seed):
        """Random real values twice the grid's extent along each axis."""
        return np.random.default_rng(seed).standard_normal((2 * grid.n_y, 2 * grid.n_x))

    @pytest.mark.parametrize("kind", ["full", "cut", "strided"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_is_rfft2_bit_for_bit(self, shape, kind):
        grid = GridSpec(*shape)
        wide = self._wide(grid, 1)
        values = {"full": wide[:grid.n_y, :grid.n_x].copy(),     # C-contiguous
                  "cut": wide[:grid.n_y, :grid.n_x],             # rows strided
                  "strided": wide[::2, ::2]}[kind]
        want = np.fft.rfft2(values, s=grid.shape, norm="forward")
        got = _to_coefficients(values, grid)
        assert got.shape == (grid.n_y, grid.n_x // 2 + 1)
        assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("kind", ["full", "cut", "strided"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_inverse_is_irfft2_bit_for_bit(self, shape, kind):
        grid = GridSpec(*shape)
        full = np.fft.fft2(self._wide(grid, 2)[:grid.n_y, :grid.n_x], norm="forward")
        half = full[:, :grid.n_x // 2 + 1]
        coef = {"full": half.copy(),
                "cut": half[:, :grid.n_x // 3 + 1].copy(),   # irfft2 pads the rest with 0
                "strided": half}[kind]                        # a view of the full spectrum
        want = np.fft.irfft2(coef, s=grid.shape, norm="forward")
        got = _to_values(coef, grid)
        assert got.shape == grid.shape
        assert_array_equal(_bits(got), _bits(want))
