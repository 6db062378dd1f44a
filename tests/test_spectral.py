"""Tests for grids, transforms and the spectral operators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sqgkit.errors import DomainError, SymmetryViolation
from sqgkit.spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    forward_transform,
    fractional_laplacian,
    inv_sqrt_laplacian,
    inverse_transform,
    nonlinear_term,
    velocity_from_theta,
    _frac_laplacian_multiplier,
    _full_spectrum,
    _half_spectrum,
)

from oracles import TrigPoly, full_complex_advection


class TestGridSpec:
    def test_basic_properties(self):
        g = GridSpec(64, 32)
        assert g.shape == (32, 64)
        assert g.size == 2048
        assert_allclose(g.cell_area, (2 * np.pi / 64) * (2 * np.pi / 32))

    def test_nodes_cover_half_open_box(self):
        g = GridSpec(8, 4)
        x, y = g.nodes()
        assert x.shape == (4, 8)
        assert x[0, 0] == 0.0 and y[0, 0] == 0.0
        assert x.max() < 2 * np.pi and y.max() < 2 * np.pi
        assert_allclose(x[0, 1], 2 * np.pi / 8)
        assert_allclose(y[1, 0], 2 * np.pi / 4)

    def test_wavenumbers_are_fft_ordered_integers(self):
        g = GridSpec(8, 8)
        kx, ky = g.wavenumbers()
        assert kx[0, :4].tolist() == [0, 1, 2, 3]
        assert kx[0, 4:].tolist() == [-4, -3, -2, -1]
        assert ky[:, 0].tolist() == kx[0, :].tolist()
        assert np.array_equal(kx, np.round(kx))  # exact integers

    @pytest.mark.parametrize("nx,ny", [(7, 8), (8, 7), (2, 8), (8, 2), (0, 4), (-8, 8)])
    def test_rejects_odd_tiny_or_nonpositive(self, nx, ny):
        with pytest.raises(ValueError):
            GridSpec(nx, ny)


class TestFields:
    def test_physical_field_from_function(self, grid32):
        f = PhysicalField.from_function(grid32, lambda x, y: np.sin(x) * np.cos(y))
        x, y = grid32.nodes()
        assert_allclose(f.values, np.sin(x) * np.cos(y))

    def test_physical_field_rejects_nonfinite(self, grid32):
        bad = np.zeros(grid32.shape)
        bad[3, 5] = np.inf
        with pytest.raises(ValueError):
            PhysicalField(grid32, bad)

    def test_physical_field_rejects_wrong_shape(self, grid32):
        with pytest.raises(ValueError):
            PhysicalField(grid32, np.zeros((3, 3)))

    def test_norms_of_constant_field(self):
        g = GridSpec(16, 16)
        f = PhysicalField(g, np.full(g.shape, 2.0))
        # L2 with quadrature weights: sqrt(4 * 4pi^2) = 4pi.
        assert_allclose(f.l2_norm(), 4 * np.pi)
        assert f.linf_norm() == 2.0
        assert f.mean() == 2.0

    def test_spectral_coefficient_lookup_and_bounds(self, grid32):
        s = SpectralField.zeros(grid32)
        assert s.coefficient(5, -7) == 0
        with pytest.raises(DomainError):
            s.coefficient(16, 0)  # +nx/2 is not representable, only -nx/2
        with pytest.raises(DomainError):
            s.coefficient(0, 17)


class TestTransforms:
    def test_sin_x_coefficients(self):
        g = GridSpec(8, 8)
        f = PhysicalField.from_function(g, lambda x, y: np.sin(x))
        s = forward_transform(f)
        assert_allclose(s.coefficient(1, 0), -0.5j, atol=1e-15)
        assert_allclose(s.coefficient(-1, 0), 0.5j, atol=1e-15)
        assert abs(s.coefficient(1, 1)) < 1e-15
        assert abs(s.coefficient(0, 0)) < 1e-15

    def test_cos_product_splits_into_four_modes(self):
        g = GridSpec(16, 16)
        f = PhysicalField.from_function(g, lambda x, y: np.cos(2 * x) * np.cos(y))
        s = forward_transform(f)
        for sx in (2, -2):
            for sy in (1, -1):
                assert_allclose(s.coefficient(sx, sy), 0.25, atol=1e-15)

    def test_round_trip_is_near_exact(self):
        rng = np.random.default_rng(7)
        for g in (GridSpec(32, 32), GridSpec(48, 32), GridSpec(16, 64)):
            f = PhysicalField(g, rng.standard_normal(g.shape))
            back = inverse_transform(forward_transform(f))
            assert np.abs(back.values - f.values).max() < 1e-12

    def test_inverse_rejects_non_hermitian_coefficients(self, grid32):
        c = np.zeros(grid32.shape, dtype=complex)
        c[0, 3] = 1.0  # no conjugate partner at (-3, 0)
        with pytest.raises(SymmetryViolation):
            inverse_transform(SpectralField(grid32, c))

    def test_mean_mode_survives(self, grid32):
        f = PhysicalField(grid32, np.full(grid32.shape, 1.5))
        s = forward_transform(f)
        assert_allclose(s.coefficient(0, 0), 1.5, atol=1e-15)


class TestFractionalLaplacian:
    def test_single_mode_eigenvalue(self):
        g = GridSpec(32, 32)
        f = PhysicalField.from_function(g, lambda x, y: np.sin(2 * x + 2 * y))
        out = inverse_transform(fractional_laplacian(forward_transform(f), 0.5))
        assert_allclose(out.values, np.sqrt(8.0) * f.values, rtol=1e-13, atol=1e-13)

    def test_alpha_zero_is_identity_including_mean(self, grid32):
        rng = np.random.default_rng(11)
        f = PhysicalField(grid32, rng.standard_normal(grid32.shape) + 1.0)
        out = inverse_transform(fractional_laplacian(forward_transform(f), 0.0))
        assert_allclose(out.values, f.values, atol=1e-12)

    def test_positive_alpha_kills_mean(self, grid32):
        f = PhysicalField(grid32, np.full(grid32.shape, 3.0))
        out = fractional_laplacian(forward_transform(f), 0.7)
        assert abs(out.coefficient(0, 0)) == 0.0

    def test_half_power_composed_twice_is_laplacian(self, grid32):
        poly = TrigPoly.random(np.random.default_rng(23), n_modes=5, kmax=5)
        x, y = grid32.nodes()
        f = forward_transform(PhysicalField(grid32, poly.value(x, y)))
        once = fractional_laplacian(fractional_laplacian(f, 0.5), 0.5)
        expected = poly.laplacian_neg().value(x, y)
        assert_allclose(inverse_transform(once).values, expected, rtol=1e-10, atol=1e-11)

    @pytest.mark.parametrize("alpha", [-0.2, 1.0, 1.3])
    def test_alpha_out_of_range(self, grid32, alpha):
        s = SpectralField.zeros(grid32)
        with pytest.raises(DomainError):
            fractional_laplacian(s, alpha)


class TestInvSqrtLaplacian:
    @pytest.mark.parametrize(
        "func,expected",
        [
            (lambda x, y: np.sin(x), lambda x, y: np.sin(x)),
            (lambda x, y: np.sin(2 * x), lambda x, y: np.sin(2 * x) / 2),
            (
                lambda x, y: np.sin(2 * x) * np.sin(y),
                lambda x, y: np.sin(2 * x) * np.sin(y) / np.sqrt(5.0),
            ),
        ],
    )
    def test_known_eigenfunctions(self, grid32, func, expected):
        f = PhysicalField.from_function(grid32, func)
        out = inverse_transform(inv_sqrt_laplacian(forward_transform(f)))
        assert_allclose(out.values, PhysicalField.from_function(grid32, expected).values,
                        atol=1e-14)

    def test_matches_trig_oracle(self, grid64):
        poly = TrigPoly.random(np.random.default_rng(5), n_modes=6, kmax=7)
        x, y = grid64.nodes()
        f = forward_transform(PhysicalField(grid64, poly.value(x, y)))
        out = inverse_transform(inv_sqrt_laplacian(f))
        assert_allclose(out.values, poly.inv_sqrt_laplacian().value(x, y), atol=1e-12)

    def test_mean_mode_is_annihilated(self, grid32):
        f = PhysicalField(grid32, np.full(grid32.shape, 5.0))
        out = inv_sqrt_laplacian(forward_transform(f))
        assert np.abs(out.coefficients).max() < 1e-15


class TestVelocity:
    def test_sin_x_gives_minus_cos_x_in_v(self, grid32):
        theta = forward_transform(PhysicalField.from_function(grid32, lambda x, y: np.sin(x)))
        u, v = velocity_from_theta(theta)
        x, y = grid32.nodes()
        assert_allclose(inverse_transform(u).values, 0.0, atol=1e-14)
        assert_allclose(inverse_transform(v).values, -np.cos(x), atol=1e-14)

    def test_cos_y_gives_minus_sin_y_in_u(self, grid32):
        theta = forward_transform(PhysicalField.from_function(grid32, lambda x, y: np.cos(y)))
        u, v = velocity_from_theta(theta)
        x, y = grid32.nodes()
        assert_allclose(inverse_transform(u).values, -np.sin(y), atol=1e-14)
        assert_allclose(inverse_transform(v).values, 0.0, atol=1e-14)

    def test_matches_trig_oracle(self, grid64):
        rng = np.random.default_rng(31)
        poly = TrigPoly.random(rng, n_modes=5, kmax=6)
        x, y = grid64.nodes()
        theta = forward_transform(PhysicalField(grid64, poly.value(x, y)))
        u_hat, v_hat = velocity_from_theta(theta)
        u_ref, v_ref = poly.velocity(x, y)
        assert_allclose(inverse_transform(u_hat).values, u_ref, atol=1e-12)
        assert_allclose(inverse_transform(v_hat).values, v_ref, atol=1e-12)

    def test_divergence_is_bitwise_zero(self):
        # The mantissa-truncation trick makes kx*u_hat and ky*v_hat exact
        # products, so the divergence cancels in floating point exactly --
        # not just to rounding.  Check several grids and random fields.
        rng = np.random.default_rng(97)
        for g in (GridSpec(32, 32), GridSpec(64, 64), GridSpec(48, 32)):
            theta = forward_transform(PhysicalField(g, rng.standard_normal(g.shape)))
            u, v = velocity_from_theta(theta)
            kx, ky = g.wavenumbers()
            div = 1j * kx * u.coefficients + 1j * ky * v.coefficients
            assert np.abs(div).max() == 0.0


class TestNonlinearTerm:
    def test_zero_for_single_eigenvalue_field(self, grid64):
        f = PhysicalField.from_function(
            grid64, lambda x, y: np.sin(2 * x) * np.sin(y) + 0.5 * np.cos(2 * x) * np.cos(y)
        )
        out = nonlinear_term(forward_transform(f))
        assert np.abs(inverse_transform(out).values).max() < 1e-13

    def test_closed_form_two_eigenvalue_field(self, grid32):
        # theta = sin x + cos 2y: psi = sin x + cos(2y)/2, u = -sin 2y,
        # v = -cos x, and u.grad(theta) reduces to cos x sin 2y.
        f = PhysicalField.from_function(grid32, lambda x, y: np.sin(x) + np.cos(2 * y))
        out = inverse_transform(nonlinear_term(forward_transform(f)))
        x, y = grid32.nodes()
        assert_allclose(out.values, np.cos(x) * np.sin(2 * y), atol=1e-13)

    def test_cross_term_of_candidate_field(self, grid64):
        # theta = sin x sin y + cos y: the surviving advection term is
        # (1/sqrt(2) - 1) cos x sin^2 y.
        f = PhysicalField.from_function(
            grid64, lambda x, y: np.sin(x) * np.sin(y) + np.cos(y)
        )
        out = inverse_transform(nonlinear_term(forward_transform(f)))
        x, y = grid64.nodes()
        expected = (1 / np.sqrt(2) - 1) * np.cos(x) * np.sin(y) ** 2
        assert_allclose(out.values, expected, atol=1e-12)
        assert_allclose(np.abs(out.values).max(), 1 - 1 / np.sqrt(2), rtol=1e-12)

    @pytest.mark.parametrize("dealias", [True, False])
    def test_matches_pointwise_oracle(self, grid64, dealias):
        # kmax 5 keeps every product mode at or below 10, inside the 2/3
        # cutoff of a 64-grid, so dealiasing must not change the answer.
        rng = np.random.default_rng(13)
        poly = TrigPoly.random(rng, n_modes=4, kmax=5)
        x, y = grid64.nodes()
        theta = forward_transform(PhysicalField(grid64, poly.value(x, y)))
        out = inverse_transform(nonlinear_term(theta, dealias=dealias))
        assert_allclose(out.values, poly.advection(x, y), atol=1e-12)

    def test_dealias_removes_modes_beyond_cutoff(self, grid32):
        # Products of modes near the cutoff land beyond it; with the 2/3
        # rule those coefficients must come back identically zero.
        f = PhysicalField.from_function(
            grid32, lambda x, y: np.sin(10 * x) + np.cos(9 * x + y)
        )
        out = nonlinear_term(forward_transform(f), dealias=True)
        kx, ky = grid32.wavenumbers()
        beyond = (np.abs(kx) > 32 // 3) | (np.abs(ky) > 32 // 3)
        assert np.abs(out.coefficients[beyond]).max() == 0.0

    def test_zero_field_maps_to_zero(self, grid32):
        out = nonlinear_term(SpectralField.zeros(grid32))
        assert np.abs(out.coefficients).max() == 0.0


class TestHalfSpectrumCore:
    @pytest.mark.parametrize("nx,ny", [(32, 32), (64, 64), (48, 32)])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_nonlinear_term_matches_full_complex_reference(self, nx, ny, dealias):
        g = GridSpec(nx, ny)
        rng = np.random.default_rng(nx + ny)
        theta = forward_transform(PhysicalField(g, rng.standard_normal(g.shape)))
        ref = full_complex_advection(theta.coefficients, dealias=dealias)
        out = nonlinear_term(theta, dealias=dealias).coefficients
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("nx,ny", [(4, 4), (32, 32), (48, 32), (16, 64)])
    def test_hermitian_expansion_rebuilds_the_full_array_bit_for_bit(self, nx, ny):
        g = GridSpec(nx, ny)
        rng = np.random.default_rng(5)
        full = forward_transform(PhysicalField(g, rng.standard_normal(g.shape))).coefficients
        rebuilt = _full_spectrum(_half_spectrum(full, g), g)
        assert rebuilt.shape == full.shape
        assert np.array_equal(rebuilt.view(np.uint64), full.view(np.uint64))

    def test_hermitian_expansion_agrees_with_the_complex_fft(self):
        g = GridSpec(48, 32)
        values = np.random.default_rng(6).standard_normal(g.shape)
        full = forward_transform(PhysicalField(g, values)).coefficients
        assert_allclose(full, np.fft.fft2(values) / g.size, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 0.37, 0.5, 0.99])
    def test_cached_fractional_multiplier_is_the_half_of_the_public_one(self, alpha):
        # The cache keeps the leading n_x//2 + 1 columns only; the solver's
        # symbol and the public operator must see the same numbers bit for bit.
        g = GridSpec(48, 32)
        s = forward_transform(PhysicalField(g, np.random.default_rng(7).standard_normal(g.shape)))
        full = fractional_laplacian(s, alpha).coefficients
        half = _frac_laplacian_multiplier(g.n_x, g.n_y, alpha) * _half_spectrum(s.coefficients, g)
        assert _frac_laplacian_multiplier(g.n_x, g.n_y, alpha).shape == (32, 25)
        assert np.array_equal(_half_spectrum(full, g).view(np.uint64), half.view(np.uint64))


class TestVelocityIsHermitian:
    # The odd derivatives of a real field have no real part on the ky = -n_y/2
    # row and the kx = -n_x/2 column, so the velocity must vanish there for
    # its spectra to invert to real fields.
    @pytest.mark.parametrize("n_x, n_y", [(8, 8), (48, 32)])
    def test_velocity_inverts_on_a_random_field(self, n_x, n_y):
        g = GridSpec(n_x, n_y)
        rng = np.random.default_rng(n_x * n_y)
        theta = forward_transform(PhysicalField(g, rng.standard_normal(g.shape)))
        u, v = velocity_from_theta(theta)
        assert u.symmetry_defect() < 1e-15 and v.symmetry_defect() < 1e-15
        inverse_transform(u)
        inverse_transform(v)
        kx, ky = g.wavenumbers()
        div = 1j * kx * u.coefficients + 1j * ky * v.coefficients
        assert np.abs(div).max() == 0.0
