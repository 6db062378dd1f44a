"""The memory of a grid evaluation and of a contour render, and their bits.

``solutions._on_grid`` writes the first weighted pattern into its result and
puts later ones through one work array; ``fileio.render_contour`` bands and
writes a block of rows at a time.  Both must keep the bits of the plain
forms kept here and in ``tests/oracles.py``.
"""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import reference_render_contour
from sqgkit import solutions
from sqgkit.fileio import render_contour
from sqgkit.spectral import GridSpec, PhysicalField


def _traced_peak(fn, *args):
    fn(*args)   # warm: caches are not the call's own memory
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sum_from_zero(table, t, shape, d_dt):
    out = np.zeros(shape)
    for rate, pattern in table:
        weight = math.exp(-rate * t)
        out += (-rate * weight if d_dt else weight) * pattern
    return out


@pytest.mark.parametrize("rates", [1, 3])
def test_on_grid_is_the_sum_from_zero_bit_for_bit(rates, monkeypatch):
    # Signed zeros in the patterns: 0.0 + -0.0 is +0.0, and so must the sum be.
    rng = np.random.default_rng(rates)
    grid = GridSpec(8, 6)
    table = []
    for i in range(rates):
        pattern = rng.standard_normal(grid.shape)
        pattern[i, :4] = -0.0
        pattern[i + 1, :2] = 0.0
        table.append((0.3 * (i + 1), pattern))
    monkeypatch.setattr(solutions, "_grid_patterns", lambda sol, n_x, n_y: tuple(table))
    for t in (0.0, 0.7, 40.0):
        for d_dt in (False, True):
            got = solutions._on_grid(None, t, grid, d_dt)
            want = _sum_from_zero(table, t, grid.shape, d_dt)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_single_rate_evaluation_holds_one_field():
    sol = solutions.builtin_samples()["theta1"].solution(5e-3, 0.4)
    grid = GridSpec(512, 512)
    assert _traced_peak(solutions.eval_theta, sol, 3.0, grid) <= 2.5 * 2**20


@pytest.mark.parametrize("shape, levels", [((8192, 8), 21), ((512, 512), 4096),
                                           ((512, 512), 2), ((6, 4), 21)])
@pytest.mark.parametrize("kind", ["random", "zero"])
def test_render_in_row_blocks_matches_the_whole_gather(shape, levels, kind, tmp_path):
    grid = GridSpec(*shape)
    values = (np.random.default_rng(levels).standard_normal(grid.shape)
              if kind == "random" else np.zeros(grid.shape))
    f = PhysicalField(grid, values)
    render_contour(f, tmp_path / "new.ppm", levels=levels)
    reference_render_contour(f, tmp_path / "old.ppm", levels=levels)
    assert (tmp_path / "new.ppm").read_bytes() == (tmp_path / "old.ppm").read_bytes()


def test_render_peak_at_512(tmp_path):
    sol = solutions.builtin_samples()["theta2"].solution(5e-3, 0.4)
    f = solutions.eval_theta(sol, 3.0, GridSpec(512, 512))
    assert _traced_peak(render_contour, f, tmp_path / "f.ppm") <= 1.5 * 2**20
