"""Fourier representation of scalar fields on the 2π-periodic torus.

This module owns the discrete transform pair and the spectral operators the
dissipative SQG equation is assembled from:

* the fractional Laplacian ``(-Δ)^α`` as the multiplier ``(kx² + ky²)^α``,
* the inverse half Laplacian ``(-Δ)^(-1/2)`` (Riesz stream function),
* the perpendicular-gradient velocity ``u = (∂y, -∂x) (-Δ)^(-1/2) θ``,
* the dealiased pseudo-spectral advection term ``u · ∇θ``.

Conventions
-----------
Physical values live on the uniform nodes ``x_i = 2πi/n_x``, ``y_j = 2πj/n_y``
and are stored row-major with ``j`` (the y index) outermost, i.e. as arrays of
shape ``(n_y, n_x)``.  Spectral coefficients follow

    θ(x, y) = Σ_k c_k exp(i (k_x x + k_y y)),

with integer wavenumbers ``k_x ∈ {-n_x/2, …, n_x/2 - 1}`` stored in FFT order
and the ``1/(n_x n_y)`` normalization carried by the forward transform, so a
coefficient is directly comparable to a trigonometric amplitude (``sin x``
has coefficients ``∓i/2`` at ``k_x = ±1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SymmetryViolation

__all__ = [
    "GridSpec",
    "PhysicalField",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "fractional_laplacian",
    "inv_sqrt_laplacian",
    "velocity_from_theta",
    "nonlinear_term",
]


# --------------------------------------------------------------------------
# grid bookkeeping (cached per resolution; arrays are shared and read-only)
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _node_mesh(n_x: int, n_y: int):
    x = 2.0 * np.pi * np.arange(n_x) / n_x
    y = 2.0 * np.pi * np.arange(n_y) / n_y
    X, Y = np.meshgrid(x, y)
    X.setflags(write=False)
    Y.setflags(write=False)
    return X, Y


@lru_cache(maxsize=None)
def _wavenumber_mesh(n_x: int, n_y: int):
    kx = np.fft.fftfreq(n_x, 1.0 / n_x)
    ky = np.fft.fftfreq(n_y, 1.0 / n_y)
    KX, KY = np.meshgrid(kx, ky)
    KX.setflags(write=False)
    KY.setflags(write=False)
    return KX, KY


@lru_cache(maxsize=None)
def _k_squared(n_x: int, n_y: int):
    KX, KY = _wavenumber_mesh(n_x, n_y)
    K2 = KX * KX + KY * KY
    K2.setflags(write=False)
    return K2


@lru_cache(maxsize=None)
def _inv_sqrt_multiplier(n_x: int, n_y: int):
    K2 = _k_squared(n_x, n_y)
    mult = np.zeros_like(K2)
    nz = K2 > 0.0
    mult[nz] = K2[nz] ** -0.5
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=None)
def _dealias_mask(n_x: int, n_y: int):
    # 2/3 rule: zero every coefficient with |kx| > n_x/3 or |ky| > n_y/3.
    KX, KY = _wavenumber_mesh(n_x, n_y)
    mask = (np.abs(KX) <= n_x / 3.0) & (np.abs(KY) <= n_y / 3.0)
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=32)
def _frac_laplacian_multiplier(n_x: int, n_y: int, alpha: float):
    # numpy gives 0.0**0.0 == 1.0 and 0.0**alpha == 0.0 for alpha > 0, which is
    # exactly the zero-mode convention: (-Δ)^0 is the identity (mean included),
    # (-Δ)^α annihilates the mean for α > 0.
    mult = _k_squared(n_x, n_y) ** alpha
    mult.setflags(write=False)
    return mult


@dataclass(frozen=True)
class GridSpec:
    """The discrete 2π-periodic torus: ``n_x × n_y`` uniform nodes.

    Both extents must be even and at least 4.  Nodes sit at
    ``x_i = 2πi/n_x`` and ``y_j = 2πj/n_y``; integer wavenumbers run over
    ``{-n/2, …, n/2 - 1}`` per axis.
    """

    n_x: int
    n_y: int

    def __post_init__(self):
        for name, n in (("n_x", self.n_x), ("n_y", self.n_y)):
            if not isinstance(n, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n < 4 or n % 2 != 0:
                raise ValueError(f"{name} must be an even integer >= 4, got {n}")
        object.__setattr__(self, "n_x", int(self.n_x))
        object.__setattr__(self, "n_y", int(self.n_y))

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape ``(n_y, n_x)`` of fields on this grid (y index outermost)."""
        return (self.n_y, self.n_x)

    @property
    def size(self) -> int:
        return self.n_x * self.n_y

    @property
    def cell_area(self) -> float:
        """Quadrature weight ``(2π/n_x)(2π/n_y)`` of one node."""
        return (2.0 * np.pi / self.n_x) * (2.0 * np.pi / self.n_y)

    def nodes(self):
        """Return read-only meshes ``(X, Y)`` of node coordinates, shape ``(n_y, n_x)``."""
        return _node_mesh(self.n_x, self.n_y)

    def wavenumbers(self):
        """Return read-only integer wavenumber meshes ``(KX, KY)`` in FFT order."""
        return _wavenumber_mesh(self.n_x, self.n_y)


@dataclass(frozen=True)
class PhysicalField:
    """A real scalar field sampled at the grid nodes.

    Args:
        grid: The grid the samples live on.
        values: Real node values, shape ``(n_y, n_x)`` (a flat array of length
            ``n_x * n_y`` in row-major j-outer order is also accepted).

    Raises:
        ValueError: If the value count does not match the grid or any entry
            is non-finite.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.size != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} values for a {self.grid.n_x}x{self.grid.n_y} "
                f"grid, got {vals.size}")
        vals = vals.reshape(self.grid.shape).copy()
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "PhysicalField":
        """Sample ``fn(X, Y)`` at the grid nodes."""
        X, Y = grid.nodes()
        return cls(grid, np.broadcast_to(fn(X, Y), grid.shape))

    def l2_norm(self) -> float:
        """Quadrature-weighted L2 norm over the torus."""
        return float(np.sqrt(np.sum(self.values**2) * self.grid.cell_area))

    def linf_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def mean(self) -> float:
        return float(np.mean(self.values))


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a real field, in FFT storage order.

    Coefficients use the convention stated in the module docstring; the array
    shape is ``(n_y, n_x)`` with ``coefficients[j, i]`` belonging to the
    wavenumber pair ``(kx[i], ky[j])`` of :meth:`GridSpec.wavenumbers`.
    """

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=complex)
        if coef.size != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} coefficients for a "
                f"{self.grid.n_x}x{self.grid.n_y} grid, got {coef.size}")
        object.__setattr__(self, "coefficients", coef.reshape(self.grid.shape).copy())

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SpectralField":
        return cls(grid, np.zeros(grid.shape, dtype=complex))

    def coefficient(self, k_x: int, k_y: int) -> complex:
        """Return the coefficient of ``exp(i(k_x x + k_y y))``.

        Raises:
            DomainError: If the wavenumber is outside the representable range.
        """
        if not (-self.grid.n_x // 2 <= k_x < self.grid.n_x // 2):
            raise DomainError(f"k_x = {k_x} not representable on n_x = {self.grid.n_x}")
        if not (-self.grid.n_y // 2 <= k_y < self.grid.n_y // 2):
            raise DomainError(f"k_y = {k_y} not representable on n_y = {self.grid.n_y}")
        return complex(self.coefficients[k_y % self.grid.n_y, k_x % self.grid.n_x])

    def symmetry_defect(self) -> float:
        """Max absolute deviation from Hermitian symmetry c(-k) = conj(c(k))."""
        c = self.coefficients
        flipped = np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1))
        return float(np.max(np.abs(c - np.conj(flipped))))


# --------------------------------------------------------------------------
# transforms
# --------------------------------------------------------------------------

def forward_transform(f: PhysicalField) -> SpectralField:
    """Forward FFT with the ``1/(n_x n_y)`` normalization.

    Args:
        f: Real field on its grid.

    Returns:
        The spectral representation; ``inverse_transform`` is its exact inverse
        up to round-off (< 1e-12 per node).
    """
    coef = np.fft.fft2(f.values) / f.grid.size
    return SpectralField(f.grid, coef)


def inverse_transform(s: SpectralField) -> PhysicalField:
    """Inverse FFT back to real node values.

    The imaginary residue left after inversion is discarded; it is required to
    be negligible (below ``max(1e-10, 1e-13 * max|Re|)``), which holds for any
    field whose Hermitian-symmetry defect passes the 1e-8 gate below.

    Raises:
        SymmetryViolation: If the Hermitian-symmetry defect exceeds
            ``1e-8 * max(1, max|c|)``, or the imaginary residue survives
            symmetrization — both signal a corrupted field.
    """
    defect = s.symmetry_defect()
    scale = float(np.max(np.abs(s.coefficients))) if s.grid.size else 0.0
    if defect > 1e-8 * max(1.0, scale):
        raise SymmetryViolation(
            f"Hermitian symmetry defect {defect:.3e} exceeds tolerance "
            f"{1e-8 * max(1.0, scale):.3e}")
    values = np.fft.ifft2(s.coefficients) * s.grid.size
    real = values.real
    imag_max = float(np.max(np.abs(values.imag)))
    if imag_max > max(1e-10, 1e-13 * float(np.max(np.abs(real)))):
        raise SymmetryViolation(
            f"imaginary residue {imag_max:.3e} after symmetrization")
    return PhysicalField(s.grid, real.copy())


def _to_values(coef: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Internal unchecked inverse transform returning a bare real array."""
    return (np.fft.ifft2(coef) * grid.size).real


def _to_coefficients(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    return np.fft.fft2(values) / grid.size


# --------------------------------------------------------------------------
# diagonal operators
# --------------------------------------------------------------------------

def fractional_laplacian(s: SpectralField, alpha: float) -> SpectralField:
    """Apply ``(-Δ)^α`` as the Fourier multiplier ``(kx² + ky²)^α``.

    The zero mode is annihilated for ``alpha > 0`` and preserved for
    ``alpha = 0`` (the ``(-Δ)^0 = Id`` convention, so ``α = 0`` dissipation is
    the plain damping ``κθ``).

    Args:
        s: Input field.
        alpha: Fractional exponent, ``0 <= alpha < 1``.

    Raises:
        DomainError: If ``alpha`` is outside ``[0, 1)``.
    """
    alpha = float(alpha)
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    mult = _frac_laplacian_multiplier(s.grid.n_x, s.grid.n_y, alpha)
    return SpectralField(s.grid, mult * s.coefficients)


def inv_sqrt_laplacian(s: SpectralField) -> SpectralField:
    """Apply ``(-Δ)^(-1/2)``: multiply by ``(kx² + ky²)^(-1/2)``, zero mode → 0.

    This is the Riesz stream-function map; the zero mode is sent to 0 so the
    stream function is always mean-free.
    """
    mult = _inv_sqrt_multiplier(s.grid.n_x, s.grid.n_y)
    return SpectralField(s.grid, mult * s.coefficients)


# --------------------------------------------------------------------------
# velocity and advection
# --------------------------------------------------------------------------

def _split_bits(grid: GridSpec) -> int:
    # Smallest s with 2^s >= max representable |k| (= max(n_x, n_y)/2).
    return max(1, math.ceil(math.log2(max(grid.n_x, grid.n_y) // 2)))


def _truncate_mantissa(z: np.ndarray, bits: int) -> np.ndarray:
    """Drop the low ``bits`` mantissa bits of both components of ``z``.

    Veltkamp splitting: after truncation a product with any integer of
    magnitude <= 2^bits is exact in double precision.  Applying this to the
    stream function before differentiation makes ``kx*(ky*ψ)`` and
    ``ky*(kx*ψ)`` round identically, so the discrete divergence of the
    velocity cancels coefficient-by-coefficient to exactly zero, independent
    of evaluation order downstream.  The relative perturbation is below
    2^(bits-52) (~1e-14 for grids up to 512²), far inside every tolerance
    used by this package.
    """
    factor = float(2**bits) + 1.0
    re = z.real
    im = z.imag
    t = factor * re
    hi_re = t - (t - re)
    t = factor * im
    hi_im = t - (t - im)
    return hi_re + 1j * hi_im


def velocity_from_theta(s: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Velocity ``(u, v) = (∂y ψ, -∂x ψ)`` with ``ψ = (-Δ)^(-1/2) θ``.

    Derivatives are the diagonal multipliers ``i k_y`` and ``-i k_x``.  The
    returned pair is exactly divergence-free in spectral space:
    ``i kx û + i ky v̂`` is the all-zero coefficient array, bit for bit (see
    ``_truncate_mantissa``).
    """
    u, v = _velocity_hats(s.coefficients, s.grid)
    return SpectralField(s.grid, u), SpectralField(s.grid, v)


def _velocity_hats(coef: np.ndarray, grid: GridSpec):
    """Coefficients of ``(u, v)`` for the given θ coefficients (internal fast path)."""
    KX, KY = grid.wavenumbers()
    psi = _inv_sqrt_multiplier(grid.n_x, grid.n_y) * coef
    psi = _truncate_mantissa(psi, _split_bits(grid))
    return 1j * KY * psi, -1j * KX * psi


def _nonlinear_hat(coef: np.ndarray, grid: GridSpec, dealias: bool) -> np.ndarray:
    """Coefficients of u·∇θ for the given θ coefficients (internal fast path)."""
    KX, KY = grid.wavenumbers()
    if dealias:
        coef = coef * _dealias_mask(grid.n_x, grid.n_y)
    u_hat, v_hat = _velocity_hats(coef, grid)
    tx_hat = 1j * KX * coef
    ty_hat = 1j * KY * coef
    u = _to_values(u_hat, grid)
    v = _to_values(v_hat, grid)
    tx = _to_values(tx_hat, grid)
    ty = _to_values(ty_hat, grid)
    result = _to_coefficients(u * tx + v * ty, grid)
    if dealias:
        result = result * _dealias_mask(grid.n_x, grid.n_y)
    return result


def nonlinear_term(s: SpectralField, dealias: bool = True) -> SpectralField:
    """Pseudo-spectral advection term ``u · ∇θ``.

    The velocity and both gradient components are transformed to physical
    space, multiplied pointwise, and transformed back.  With ``dealias`` on,
    coefficients with ``|k_x| > n_x/3`` or ``|k_y| > n_y/3`` are zeroed both
    before the products and on the result (the 2/3 rule), which removes the
    quadratic aliasing error.

    For any field supported on wavevectors of a single squared magnitude the
    result vanishes to round-off — the mechanism behind every quasi-stationary
    solution this package implements.
    """
    return SpectralField(s.grid, _nonlinear_hat(s.coefficients, s.grid, bool(dealias)))
