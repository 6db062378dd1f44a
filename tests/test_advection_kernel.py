"""The advection kernel u(a)·∇b of two different fields: against the trig
oracle, its polarisation identity, and the bits of its accumulating path."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import TrigPoly
from sqgkit.spectral import (GridSpec, _advect, _advection_width, _multipliers,
                             _to_coefficients, _to_values, _velocity_nodes, _workspace)

SHAPES = [(64, 64), (48, 32)]


def _cut(poly, grid, dealias):
    """The spectrum of ``poly`` as the kernel's callers give it: cut, and masked with the 2/3 rule."""
    width = _advection_width(grid, dealias)
    coef = _to_coefficients(poly.value(*grid.nodes()), grid)[:, :width]
    if dealias:
        coef = coef * _multipliers(grid.n_x, grid.n_y, width).dealias
    return coef


def _pair(seed):
    # kmax 5 keeps every mode inside the 2/3 cutoff of both grids.
    rng = np.random.default_rng(seed)
    return TrigPoly.random(rng, n_modes=4, kmax=5), TrigPoly.random(rng, n_modes=4, kmax=5)


def _kernel(a, b, grid, dealias):
    ws = _workspace(grid, dealias)
    _velocity_nodes(a, grid, ws)
    return _advect(b, ws).copy()


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_matches_the_trig_oracle_for_different_fields(seed, shape, dealias):
    grid = GridSpec(*shape)
    a, b = _pair(seed)
    x, y = grid.nodes()
    u, v = a.velocity(x, y)
    got = _kernel(_cut(a, grid, dealias), _cut(b, grid, dealias), grid, dealias)
    assert_allclose(got, u * b.dx(x, y) + v * b.dy(x, y), rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_polarisation_identity(seed, shape):
    # N(a + b) - N(a) - N(b) = B(a, b) + B(b, a) for the bilinear B(a, b) = u(a)·∇b.
    grid = GridSpec(*shape)
    a, b = (_cut(poly, grid, True) for poly in _pair(seed))
    lhs = _kernel(a + b, a + b, grid, True) - _kernel(a, a, grid, True) - _kernel(b, b, grid, True)
    rhs = _kernel(a, b, grid, True) + _kernel(b, a, grid, True)
    assert np.max(np.abs(rhs)) > 1.0
    assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_accumulating_path_is_the_hand_written_sum_bit_for_bit(shape, dealias):
    grid = GridSpec(*shape)
    a, b = (_cut(poly, grid, dealias) for poly in _pair(11))
    table = _multipliers(grid.n_x, grid.n_y, a.shape[-1])
    ws = _workspace(grid, dealias)
    _velocity_nodes(a, grid, ws)
    u, v = ws.u_nodes.copy(), ws.v_nodes.copy()
    written = _advect(b, ws).copy()
    acc = np.random.default_rng(3).standard_normal(grid.shape)
    by_hand = acc.copy()
    assert _advect(b, ws, acc=acc) is acc
    by_hand += u * _to_values(b * table.ikx, grid)
    by_hand += v * _to_values(b * table.iky, grid)
    assert_array_equal(acc.view(np.uint64), by_hand.view(np.uint64))
    # Written without acc: the same two products, summed once.
    bx, by = _to_values(b * table.ikx, grid), _to_values(b * table.iky, grid)
    assert_array_equal(written.view(np.uint64), (u * bx + v * by).view(np.uint64))
