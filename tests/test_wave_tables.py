"""The plane-wave sum from 1-D trig tables, its memory, and the bounds around it.

``solutions._wave_sum`` takes each wave's trigonometry from ``p·x`` and
``q·y`` alone and restores the rounded phase of the direct sum with an exact
TwoSum term.  It must stay within round-off of that direct sum (kept as
``tests/oracles.py`` ``reference_wave_sum``), give every point the bits it has
on the grid, read a node mesh as its row and column, and build a pattern
holding one full-grid array.  Also here: the forward transforms always get
an ``out``, and a decay weight that overflows is a ``DomainError`` naming
the time, exit code 2 on the command line.
"""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import reference_wave_sum
from sqgkit import solutions
from sqgkit.errors import DomainError
from sqgkit.fileio import parse_config
from sqgkit.integrator import SolverParams, simulate
from sqgkit.scenario import run_scenario
from sqgkit.spectral import GridSpec, _node_axes, _node_mesh
from sqgkit.verify import residual

EPS = np.finfo(float).eps
GRIDS = [(32, 32), (48, 32), (256, 256), (8, 512), (512, 8)]


def _random_waves(rng, n_x, n_y, amplitude, count):
    return [(int(rng.integers(-(n_x // 4), n_x // 4 + 1)),
             int(rng.integers(-(n_y // 4), n_y // 4 + 1)),
             float(rng.uniform(-amplitude, amplitude)),
             float(rng.uniform(-amplitude, amplitude))) for _ in range(count)]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("n_x,n_y", GRIDS)
@pytest.mark.parametrize("amplitude", [2.0, 1e3])
def test_table_sum_is_the_direct_sum_to_round_off(n_x, n_y, amplitude):
    # Both sums evaluate every wave at the same rounded phase fl(p·x + q·y);
    # they differ only by roundings of terms no larger than |a| + |b|, each
    # at most eps/2 of its term (libm's cos and sin are within an ulp).  The
    # direct sum rounds 3 such terms per wave and the table sum about 9, so
    # first order gives at most about 6·eps·(|a| + |b|) per wave in the worst
    # case, and these independent roundings keep the largest difference seen
    # under 2·eps·Σ(|a| + |b|).  4·eps·Σ(|a| + |b|) sits between; leaving the
    # phase term out costs up to half an ulp of |φ| per unit amplitude, 8·eps
    # and more once |φ| ≥ 16, which these wavenumbers reach.
    x, y = _node_axes(n_x, n_y)
    rng = np.random.default_rng([n_x, n_y, int(amplitude)])
    for count in (1, 2, 5):
        waves = _random_waves(rng, n_x, n_y, amplitude, count)
        bound = 4 * EPS * sum(abs(a) + abs(b) for _, _, a, b in waves)
        got = solutions._wave_sum(waves, x, y)
        assert got.shape == (n_y, n_x)
        assert np.max(np.abs(got - reference_wave_sum(waves, x, y))) <= bound


def test_the_phase_term_is_needed():
    # θ3 at 32² against the direct sum at the rounded phase: without the
    # TwoSum term the table sum is 1.35e-15 off.
    sol = solutions.builtin_samples()["theta3"].solution(1e-3, 0.5)
    X, Y = _node_mesh(32, 32)
    pattern = solutions._wave_sum(solutions._waves(sol), *_node_axes(32, 32))
    np.testing.assert_allclose(pattern, np.sin(X + Y) + np.sin(2 * X + 2 * Y),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_x,n_y", GRIDS)
def test_points_have_the_bits_of_the_grid(n_x, n_y):
    # Meshes larger than one block make their tables block by block; a
    # transposed pair puts the operand that spans the blocks in y.
    rng = np.random.default_rng([n_x, n_y])
    waves = _random_waves(rng, n_x, n_y, 2.0, 4) + [(0, 3, 0.5, -1.0), (2, 0, 1.5, 0.25)]
    x, y = _node_axes(n_x, n_y)
    X, Y = _node_mesh(n_x, n_y)
    grid = solutions._wave_sum(waves, x, y)
    assert np.array_equal(_bits(solutions._wave_sum(waves, X, Y)), _bits(grid))
    assert np.array_equal(_bits(solutions._wave_sum(waves, y.T, x.T)),
                          _bits(solutions._wave_sum(waves, Y.T, X.T)))
    for i, j in zip(rng.integers(0, n_y, 20), rng.integers(0, n_x, 20)):
        point = solutions._wave_sum(waves, X[i, j], Y[i, j])
        assert point.shape == ()
        assert _bits(point) == _bits(grid[i, j])


def test_point_evaluators_have_the_bits_of_the_grid_evaluators():
    grid = GridSpec(64, 32)
    X, Y = grid.nodes()
    for name in ("theta1", "theta2", "theta3"):
        sol = solutions.builtin_samples()[name].solution(5e-3, 0.4)
        theta = solutions.eval_theta(sol, 0.0, grid).values
        assert np.array_equal(_bits(solutions.theta_at(sol, 0.0, X, Y)), _bits(theta))
        value = solutions.theta_at(sol, 0.0, X[5, 7], Y[5, 7])
        assert np.ndim(value) == 0 and _bits(value) == _bits(theta[5, 7])
        u, v = solutions.eval_velocity(sol, 1.5, grid)
        u_at, v_at = solutions._velocity_at(sol, 1.5, X, Y)
        assert np.array_equal(_bits(u_at), _bits(u.values))
        assert np.array_equal(_bits(v_at), _bits(v.values))


@pytest.mark.parametrize("n_x,n_y", [(64, 32), (256, 256)])
def test_a_mesh_costs_what_a_row_and_a_column_do(n_x, n_y, monkeypatch):
    # The meshes of GridSpec.nodes() repeat one row or column with a zero
    # stride; each such axis is read as that slice, so no trig table spans
    # the mesh and the values keep their bits.
    sizes = []

    def recording(make):
        def call(k, v, *args):
            sizes.append(np.size(v))
            return make(k, v, *args)
        return call

    for name in ("_trig", "_amplitudes"):
        monkeypatch.setattr(solutions, name, recording(getattr(solutions, name)))
    grid = GridSpec(n_x, n_y)
    X, Y = grid.nodes()
    x, y = _node_axes(n_x, n_y)
    for name in ("theta1", "theta2", "theta3"):
        sol = solutions.builtin_samples()[name].solution(5e-3, 0.4)
        for evaluate in (solutions.theta_at, solutions._velocity_at, solutions._dtheta_dt_at):
            assert np.array_equal(_bits(evaluate(sol, 0.7, X, Y)), _bits(evaluate(sol, 0.7, x, y)))
    assert sizes and max(sizes) <= max(n_x, n_y)


@pytest.mark.parametrize("name", ["theta1", "theta2", "theta3"])
def test_cold_pattern_build_holds_one_field(name):
    # At 512² a field is 2 MiB.  The direct sum held three while it built a
    # pattern (6 MiB); the table sum holds the pattern and 768 KiB of blocks.
    # Patterns already built stay in the table.
    sol = solutions.builtin_samples()[name].solution(5e-3, 0.4)
    field = 512 * 512 * 8
    solutions._GRID_DATA.clear()
    tracemalloc.start()
    try:
        patterns = solutions._grid_patterns(sol, 512, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        solutions._GRID_DATA.clear()
    assert peak <= 3 * 2**20 + field * (len(patterns) - 1)


def _record_forward_passes(monkeypatch):
    """Whether each forward pass (``rfft``, then ``fft``) got an ``out``, in call order."""
    calls = []

    def recording(fft_pass):
        def call(*args, out=None, **kwargs):
            calls.append(out is not None)
            return fft_pass(*args, out=out, **kwargs)
        return call

    for name in ("rfft", "fft"):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
    return calls


def test_every_forward_transform_of_an_exact_run_gets_an_out(tmp_path, monkeypatch):
    calls = _record_forward_passes(monkeypatch)
    solutions._GRID_DATA.clear()
    config = parse_config("solution = theta3\nkappa = 0.01\nalpha = 0.4\ngrid = 32\n"
                          "t_end = 1\ndt = 0.01\nsnapshots = 0.5\nmode = exact\n"
                          f"outputs = report\noutdir = {tmp_path}\n")
    assert run_scenario(config).exit_code == 0
    solutions._GRID_DATA.clear()
    assert calls and all(calls)


def test_every_forward_transform_of_a_simulate_run_gets_an_out(monkeypatch):
    calls = _record_forward_passes(monkeypatch)
    initial = solutions.builtin_samples()["con-2"].initial_field(GridSpec(32, 32))
    simulate(initial, SolverParams(kappa=0.01, alpha=0.4, dt=0.01, t_end=0.05))
    assert calls and all(calls)


class TestDecayOverflow:
    def test_eval_theta_names_the_time(self):
        sol = solutions.builtin_samples()["theta1"].solution(1.0, 0.3)
        with pytest.raises(DomainError, match="t = -800"):
            solutions.eval_theta(sol, -800.0, GridSpec(8, 8))
        with pytest.raises(DomainError, match="t = -800"):
            solutions.theta_at(sol, -800.0, 0.5, 0.5)

    def test_residual_names_the_time(self):
        sol = solutions.builtin_samples()["theta1"].solution(1.0, 0.3)
        with pytest.raises(DomainError, match="t = -800"):
            residual(sol, -800.0, GridSpec(16, 16))

    def test_a_moderate_negative_time_still_evaluates(self):
        sol = solutions.builtin_samples()["theta1"].solution(1.0, 0.3)
        field = solutions.eval_theta(sol, -1.0, GridSpec(8, 8))
        assert np.all(np.isfinite(field.values)) and field.linf_norm() > 1.0

    @pytest.mark.parametrize("argv", [
        ["eval", "--solution", "theta1", "--kappa", "1", "--alpha", "0.3", "--time", "-800",
         "--grid", "8", "--csv", "b.csv"],
        ["verify", "--solution", "theta1", "--kappa", "1", "--alpha", "0.3", "--times=-800",
         "--grid", "16"],
    ])
    def test_cli_exits_2_without_a_traceback(self, argv, tmp_path):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "sqgkit.cli", *argv],
                              cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "t = -800" in proc.stderr
        assert not (tmp_path / "b.csv").exists()

    def test_cli_still_writes_a_field_at_minus_one(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "sqgkit.cli", "eval", "--solution", "theta1",
             "--kappa", "1", "--alpha", "0.3", "--time", "-1", "--grid", "8", "--csv", "b.csv"],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "b.csv").exists()
