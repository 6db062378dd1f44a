"""The grid layouts ``spectral`` owns: the half-spectrum sum, the 2/3 cut and
the node meshes.

``spectral._mirror_sum`` must be the plain sum of the ``_full_spectrum``
expansion, over every mode or over those a predicate on the modes' own
integer labels holds for; the densities here are small integers, so both
sums are exact and must agree to the bit.  ``_dealiased`` is the one 2/3
cut, and ``GridSpec.nodes()`` returns read-only views of the node row and
column that cost no per-grid memory.
"""

import tracemalloc

import numpy as np
import pytest

from sqgkit.spectral import (GridSpec, _advection_width, _dealiased, _full_spectrum,
                             _mirror_sum, _multipliers, _node_axes, _workspace)
from sqgkit.verify import _off_ray

GRIDS = [(8, 6), (16, 16), (48, 32), (32, 48)]
DIRECTIONS = [(1, 0), (0, 1), (1, 1), (2, -1), (3, 4)]


def _density(grid, seed):
    rng = np.random.default_rng([grid.n_x, grid.n_y, seed])
    return rng.integers(0, 1000, size=(grid.n_y, grid.n_x // 2 + 1)).astype(float)


def _full_sum(density, grid, where=None):
    full = _full_spectrum(density.astype(complex), grid).real
    if where is None:
        return float(full.sum())
    kx, ky = grid.wavenumbers()
    return float(full[where(kx, ky)].sum())


@pytest.mark.parametrize("n_x,n_y", GRIDS)
def test_mirror_sum_is_the_full_spectrum_sum(n_x, n_y):
    grid = GridSpec(n_x, n_y)
    for seed in range(3):
        density = _density(grid, seed)
        assert _mirror_sum(density) == _full_sum(density, grid)


@pytest.mark.parametrize("n_x,n_y", GRIDS)
@pytest.mark.parametrize("n,m", DIRECTIONS)
def test_off_ray_mirror_sum_is_the_full_spectrum_sum(n_x, n_y, n, m):
    grid = GridSpec(n_x, n_y)
    density = _density(grid, 7)
    where = _off_ray(n, m)
    assert _mirror_sum(density, grid, where) == _full_sum(density, grid, where)


@pytest.mark.parametrize("n_x,n_y", GRIDS)
def test_mirror_sum_judges_every_mode_at_its_own_label(n_x, n_y):
    # Predicates that are not odd in k tell a mirror image from its original,
    # and the last one holds on the ky = -n_y/2 row only.
    grid = GridSpec(n_x, n_y)
    density = _density(grid, 11)
    for where in (lambda kx, ky: ky < 0, lambda kx, ky: kx > ky,
                  lambda kx, ky: (kx < 0) & (ky == -(n_y // 2))):
        assert _mirror_sum(density, grid, where) == _full_sum(density, grid, where)


def test_mirror_sum_of_the_nyquist_row_counts_its_mirror_images_there():
    grid = GridSpec(16, 16)
    density = np.zeros((16, 9))
    density[8, 3] = 1.0   # (3, -8), whose mirror image is stored as (-3, -8)
    assert _mirror_sum(density, grid, lambda kx, ky: kx == -3) == 1.0
    assert _mirror_sum(density, grid, lambda kx, ky: ky == -8) == 2.0


@pytest.mark.parametrize("n_x,n_y", GRIDS)
def test_dealiased_is_the_masked_leading_columns(n_x, n_y):
    grid = GridSpec(n_x, n_y)
    rng = np.random.default_rng([n_x, n_y])
    shape = (n_y, n_x // 2 + 1)
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    width = _advection_width(grid, True)
    expected = coef[:, :width] * _multipliers(n_x, n_y, width).dealias
    out = np.empty((n_y, width), dtype=complex)
    assert _dealiased(coef, grid, out, _workspace(grid, True).mask) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n_x,n_y", GRIDS)
def test_nodes_are_read_only_views_of_the_node_axes(n_x, n_y):
    grid = GridSpec(n_x, n_y)
    X, Y = grid.nodes()
    x, y = _node_axes(n_x, n_y)
    MX, MY = np.meshgrid(x[0], y[:, 0])
    assert X.shape == Y.shape == grid.shape
    assert np.array_equal(X.view(np.uint64), MX.view(np.uint64))
    assert np.array_equal(Y.view(np.uint64), MY.view(np.uint64))
    assert not X.flags.writeable and not Y.flags.writeable
    assert np.shares_memory(X, x) and np.shares_memory(Y, y)


def test_nodes_take_no_per_grid_memory():
    _node_axes.cache_clear()   # a cold build of the axes is counted too
    tracemalloc.start()
    try:
        X, Y = GridSpec(512, 512).nodes()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.shape == (512, 512)
    assert kept < 64 * 1024 and peak < 64 * 1024
