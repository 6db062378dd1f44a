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

Storage layouts
---------------
The public :class:`SpectralField` and :meth:`GridSpec.wavenumbers` use the
full ``(n_y, n_x)`` FFT order.  Every operator works on the half spectrum: the
leading ``n_x//2 + 1`` columns of that array, as ``rfft2`` returns them.  The
last of those columns is the Nyquist column, and it keeps ``k_x = -n_x/2``.
The other half is the Hermitian mirror ``c(-k) = conj(c(k))``; a public
operator reads only the half of its input and rebuilds the other half of its
result by exact mirroring.  One cached table per grid, in the half layout,
holds the multipliers ``i·kx``, ``i·ky``, ``|k|^-1``, the 2/3 mask and
``|k|²``, and a cut spectrum reads views of its leading columns.  ``i·kx``
and ``i·ky`` are 0 at their Nyquist wavenumbers, which is what taking the
real part of a full complex transform amounts to.

Other modules read the half layout only through :func:`_mirror_sum`, a density
summed over the full spectrum (the blowup bound ``sup|θ| <= Σ|c_k|``, the
Parseval checks), and :func:`_dealiased`, the 2/3 rule's cut.

The advection kernel
--------------------
One kernel forms every dealiased product ``u(a)·∇b`` at the nodes:
:func:`_velocity_nodes` inverts ``u(a)`` and ``v(a)``, then each
:func:`_advect` call inverts ``∂x b`` and ``∂y b`` and returns
``u·∂x b + v·∂y b``, or adds those two products, in that order, into a given
array.  The solver's term is ``a = b = θ`` (:func:`_nonlinear_hat`); the
residual keeps one velocity per pattern and advects every pattern with it.
With the 2/3 rule on, spectra are cut to the ``n_x//3 + 1`` columns it keeps.
Each 2-D transform of the kernel is two explicit 1-D passes through the
workspace's half spectrum, whose columns past the cut are kept zero
(:func:`_to_nodes`, :func:`_to_cut_spectrum`): the y-passes run over the kept
columns only, and the x-passes write straight into the workspace's node or
spectrum arrays.  Each pass gets the input and scaling it gets inside
``irfft2``/``rfft2``, so the bits are theirs.  Every spectrum, node array
and multiplier (expanded to the cut's shape, the 2/3 mask as complex 1 and
0) lives in a :class:`_Workspace`, which a solver run builds once, so a
kernel call makes no array; only numpy's ufunc buffer for a strided operand
is allocated and freed inside a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    "MAX_EXTENT",
]

MAX_EXTENT = 8192   # nodes per axis: a 8192² field is 0.5 GB, so a larger one is a typo


# --------------------------------------------------------------------------
# grid bookkeeping (cached per resolution; arrays are shared and read-only)
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _node_axes(n_x: int, n_y: int):
    """The node coordinates as a row ``x`` of shape ``(1, n_x)`` and a column
    ``y`` of shape ``(n_y, 1)``; they broadcast to :func:`_node_mesh`."""
    x = 2.0 * np.pi * np.arange(n_x) / n_x
    y = 2.0 * np.pi * np.arange(n_y) / n_y
    x.setflags(write=False)
    y.setflags(write=False)
    return x[np.newaxis, :], y[:, np.newaxis]


def _node_mesh(n_x: int, n_y: int):
    """Read-only ``(n_y, n_x)`` views of :func:`_node_axes`, bit for bit ``np.meshgrid``."""
    x, y = _node_axes(n_x, n_y)
    return np.broadcast_to(x, (n_y, n_x)), np.broadcast_to(y, (n_y, n_x))


class _Multipliers(NamedTuple):
    """The Fourier multipliers of one grid, indexed like its half-spectrum arrays.

    ``kx``, ``ikx`` are rows ``(1, cols)`` and ``ky``, ``iky`` columns
    ``(n_y, 1)`` that broadcast against a coefficient array; the rest are
    ``(n_y, cols)`` arrays.
    """

    kx: np.ndarray        # integer wavenumbers, FFT order
    ky: np.ndarray
    ikx: np.ndarray       # i·kx and i·ky: the derivatives ∂x and ∂y
    iky: np.ndarray
    inv_k: np.ndarray     # |k|^-1, with 0 at k = 0: (-Δ)^(-1/2)
    dealias: np.ndarray   # 2/3 rule: True where |kx| <= n_x/3 and |ky| <= n_y/3
    k2: np.ndarray        # |k|² = kx² + ky²: -Δ


@lru_cache(maxsize=None)
def _multipliers(n_x: int, n_y: int, cols: int) -> _Multipliers:
    """The multiplier table for coefficient arrays with ``cols`` leading half-spectrum columns.

    It is built once per grid for the whole half spectrum (``cols =
    n_x//2 + 1``), whose last column keeps ``kx = -n_x/2``; the 2/3 rule's
    cut is views of its leading columns.  A derivative ``i·k`` is 0 at its
    own Nyquist wavenumber ``-n/2``: that mode is its own mirror image, so
    its odd derivative has no real part (a full complex transform drops it
    when it takes the real part of the inverse).  All arrays are read-only.
    """
    if cols != n_x // 2 + 1:
        return _Multipliers(*(a[:, :cols] for a in _multipliers(n_x, n_y, n_x // 2 + 1)))
    kx = np.fft.fftfreq(n_x, 1.0 / n_x)[None, :cols]
    ky = np.fft.fftfreq(n_y, 1.0 / n_y)[:, None]
    k2 = kx * kx + ky * ky
    inv_k = np.zeros_like(k2)
    nz = k2 > 0.0
    inv_k[nz] = k2[nz] ** -0.5
    dealias = (np.abs(kx) <= n_x / 3.0) & (np.abs(ky) <= n_y / 3.0)
    table = _Multipliers(kx, ky, np.where(kx == -n_x / 2, 0j, 1j * kx),
                         np.where(ky == -n_y / 2, 0j, 1j * ky), inv_k, dealias, k2)
    for a in table:
        a.setflags(write=False)
    return table


@lru_cache(maxsize=32)
def _frac_laplacian_multiplier(n_x: int, n_y: int, alpha: float):
    # numpy gives 0.0**0.0 == 1.0 and 0.0**alpha == 0.0 for alpha > 0, which is
    # exactly the zero-mode convention: (-Δ)^0 is the identity (mean included),
    # (-Δ)^α annihilates the mean for α > 0.  fractional_laplacian calls this
    # uncached: entries cached before a residual build leave its arrays at the
    # heap top, which malloc returns to the system and faults back each time.
    mult = _multipliers(n_x, n_y, n_x // 2 + 1).k2 ** alpha
    mult.setflags(write=False)
    return mult


@dataclass(frozen=True)
class GridSpec:
    """The discrete 2π-periodic torus: ``n_x × n_y`` uniform nodes.

    Both extents must be even, at least 4 and at most ``MAX_EXTENT``.  Nodes sit at
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
            if n > MAX_EXTENT:
                raise ValueError(f"{name} must be <= {MAX_EXTENT}, got {n}")
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
        """Return read-only meshes ``(X, Y)`` of node coordinates, shape ``(n_y, n_x)``:
        views of the cached node row and column, so they take no per-grid memory."""
        return _node_mesh(self.n_x, self.n_y)

    def wavenumbers(self):
        """Return read-only integer wavenumber meshes ``(KX, KY)`` in FFT order."""
        kx, ky = (np.fft.fftfreq(n, 1.0 / n) for n in (self.n_x, self.n_y))
        return np.broadcast_to(kx, self.shape), np.broadcast_to(ky[:, None], self.shape)


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
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", _checked_values(self.grid, values))

    @classmethod
    def _owning(cls, grid: GridSpec, values: np.ndarray) -> "PhysicalField":
        """A field that keeps ``values`` itself, for an array nothing else holds;
        checked as the constructor checks."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", _checked_values(grid, values))
        return field

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


def _checked_values(grid: GridSpec, values) -> np.ndarray:
    """``values`` as a float array of ``grid.shape``; a C-contiguous float
    array is kept, not copied.

    Raises:
        ValueError: The value count does not match the grid, or an entry is
            not finite.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size != grid.size:
        raise ValueError(
            f"expected {grid.size} values for a {grid.n_x}x{grid.n_y} grid, got {vals.size}")
    vals = vals.reshape(grid.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("field values must all be finite")
    return vals


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
        The spectral representation in full FFT order: the half spectrum
        expanded by exact Hermitian mirroring.  ``inverse_transform`` is its
        exact inverse up to round-off (< 1e-12 per node).
    """
    return SpectralField(f.grid, _full_spectrum(_to_coefficients(f.values, f.grid), f.grid))


def inverse_transform(s: SpectralField) -> PhysicalField:
    """Inverse FFT back to real node values.

    Only the half spectrum is read; the other half is its Hermitian mirror,
    which the symmetry gate below requires up to round-off.

    Raises:
        SymmetryViolation: If the Hermitian-symmetry defect exceeds
            ``1e-8 * max(1, max|c|)``, which signals a corrupted field.
    """
    defect = s.symmetry_defect()
    scale = float(np.max(np.abs(s.coefficients))) if s.grid.size else 0.0
    if defect > 1e-8 * max(1.0, scale):
        raise SymmetryViolation(
            f"Hermitian symmetry defect {defect:.3e} exceeds tolerance "
            f"{1e-8 * max(1.0, scale):.3e}")
    values = _to_values(_half_spectrum(s.coefficients, s.grid), s.grid)
    return PhysicalField._owning(s.grid, values)


def _to_values(coef: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Internal unchecked inverse transform of a half spectrum to a new real array.

    For one-off inversions: a record, the blowup guard, the CFL check, a
    residual term.  ``coef`` may hold only leading columns of the half
    spectrum (``irfft2`` takes the missing ones as 0), but numpy's ``irfft``
    is slow on such a short input and ``irfft2`` drops its ``out``, so the
    advection kernel inverts with :func:`_to_nodes` instead.
    """
    return np.fft.irfft2(coef, s=grid.shape, norm="forward")


def _to_coefficients(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Internal forward transform of real values to a new half spectrum.

    The new half spectrum is passed to ``rfft2`` as ``out``: given none,
    numpy's ``rfft2`` runs its axis-0 pass out of place, into one more new
    array.  The bits are the same; at 256² the traced peak halves (1.0 to
    0.5 MiB) and the median time goes from 0.66 to 0.58 ms (2 vCPUs, numpy
    2.4.6).  The advection kernel transforms into its workspace with
    :func:`_to_cut_spectrum` instead.
    """
    out = np.empty((grid.n_y, grid.n_x // 2 + 1), dtype=complex)
    return np.fft.rfft2(values, s=grid.shape, norm="forward", out=out)


def _half_spectrum(coef: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The leading ``n_x//2 + 1`` columns of a full FFT-order coefficient array (a view)."""
    return coef[:, :grid.n_x // 2 + 1]


def _full_spectrum(half: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Expand a half spectrum to full FFT order by exact Hermitian mirroring.

    Column ``kx < 0`` is the conjugate of column ``-kx`` with ``ky`` negated;
    the kept columns are copied unchanged, so slicing the result with
    :func:`_half_spectrum` gives ``half`` back bit for bit.
    """
    cols = half.shape[-1]
    full = np.empty(grid.shape, dtype=complex)
    full[:, :cols] = half
    mirror = np.roll(half[::-1, cols - 2:0:-1], 1, axis=0)   # rows ky -> -ky
    np.conjugate(mirror, out=full[:, cols:])
    return full


def _mirror_sum(density: np.ndarray, grid: GridSpec | None = None, where=None) -> float:
    """Sum of a half-spectrum density over the full spectrum.

    Columns ``1 … n_x/2 - 1`` also stand for their mirror images; the
    ``kx = 0`` and Nyquist columns count once.  With ``where`` (and ``grid``),
    a predicate on broadcasting wavenumber arrays ``(kx, ky)``, only the modes
    it holds for count, each judged at its stored label: the mirror of
    ``(kx, ky)`` is ``(-kx, -ky)``, or ``(-kx, -n_y/2)`` on that row.
    """
    if where is None:
        return float(density.sum() + density[:, 1:-1].sum())
    table = _multipliers(grid.n_x, grid.n_y, density.shape[-1])
    mirror_ky = -table.ky
    mirror_ky[grid.n_y // 2] = table.ky[grid.n_y // 2]
    return float(np.sum(density, where=where(table.kx, table.ky))
                 + np.sum(density[:, 1:-1], where=where(-table.kx[:, 1:-1], mirror_ky)))


def _dealiased(coef: np.ndarray, grid: GridSpec, out: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
    """The 2/3 rule's cut of a half spectrum: its leading ``n_x//3 + 1``
    columns times the mask, written into ``out``.

    ``mask`` is a workspace's complex copy of the mask.
    """
    return np.multiply(coef[:, :_advection_width(grid, True)], mask, out=out)


# --------------------------------------------------------------------------
# diagonal operators
# --------------------------------------------------------------------------

def fractional_laplacian(s: SpectralField, alpha: float) -> SpectralField:
    """Apply ``(-Δ)^α`` as the Fourier multiplier ``(kx² + ky²)^α``.

    The zero mode is annihilated for ``alpha > 0`` and preserved for
    ``alpha = 0`` (the ``(-Δ)^0 = Id`` convention, so ``α = 0`` dissipation is
    the plain damping ``κθ``).  Only the half spectrum of ``s`` is read; the
    result is its Hermitian completion.

    Args:
        s: Input field.
        alpha: Fractional exponent, ``0 <= alpha < 1``.

    Raises:
        DomainError: If ``alpha`` is outside ``[0, 1)``.
    """
    alpha = float(alpha)
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    grid = s.grid
    mult = _frac_laplacian_multiplier.__wrapped__(grid.n_x, grid.n_y, alpha)
    return SpectralField(grid, _full_spectrum(mult * _half_spectrum(s.coefficients, grid), grid))


def inv_sqrt_laplacian(s: SpectralField) -> SpectralField:
    """Apply ``(-Δ)^(-1/2)``: multiply by ``(kx² + ky²)^(-1/2)``, zero mode → 0.

    This is the Riesz stream-function map; the zero mode is sent to 0 so the
    stream function is always mean-free.  Only the half spectrum of ``s`` is
    read; the result is its Hermitian completion.
    """
    grid = s.grid
    mult = _multipliers(grid.n_x, grid.n_y, grid.n_x // 2 + 1).inv_k
    return SpectralField(grid, _full_spectrum(mult * _half_spectrum(s.coefficients, grid), grid))


# --------------------------------------------------------------------------
# velocity and advection
# --------------------------------------------------------------------------

def _split_bits(grid: GridSpec) -> int:
    # Smallest s with 2^s >= max representable |k| (= max(n_x, n_y)/2).
    return max(1, math.ceil(math.log2(max(grid.n_x, grid.n_y) // 2)))


def _truncate_mantissa(z: np.ndarray, bits: int, scratch: np.ndarray | None = None) -> None:
    """Drop the low ``bits`` mantissa bits of both components of ``z``, in place.

    Veltkamp splitting: after truncation a product with any integer of
    magnitude <= 2^bits is exact in double precision.  Applying this to the
    stream function before differentiation makes ``kx*(ky*ψ)`` and
    ``ky*(kx*ψ)`` round identically, so the discrete divergence of the
    velocity cancels coefficient-by-coefficient to exactly zero, independent
    of evaluation order downstream.  The relative perturbation is below
    2^(bits-52) (~1e-14 for grids up to 512²), far inside every tolerance
    used by this package.

    ``z`` must be C-contiguous; ``scratch``, an array of its shape and dtype,
    holds the split point ``(2^bits + 1)·z`` (a new array without it).
    """
    x = z.view(np.float64)   # real and imaginary parts, interleaved
    t = np.multiply(float(2**bits) + 1.0, x,
                    out=None if scratch is None else scratch.view(np.float64))
    np.subtract(t, x, out=x)
    np.subtract(t, x, out=x)   # t - (t - x)


def velocity_from_theta(s: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Velocity ``(u, v) = (∂y ψ, -∂x ψ)`` with ``ψ = (-Δ)^(-1/2) θ``.

    Derivatives are the diagonal multipliers ``i k_y`` and ``-i k_x``.  The
    returned pair is exactly divergence-free in spectral space:
    ``i kx û + i ky v̂`` is the all-zero coefficient array, bit for bit (see
    ``_truncate_mantissa``).  It is Hermitian, so it inverts to real fields:
    ψ is zeroed on the ``ky = -n_y/2`` row and the ``kx = -n_x/2`` column,
    where an odd derivative of a real field has no real part, and the half
    spectrum's velocity is mirrored to the full array.
    """
    grid = s.grid
    coef = _half_spectrum(s.coefficients, grid).copy()
    coef[grid.n_y // 2] = 0.0
    coef[:, -1] = 0.0
    u, v = _velocity_hats(coef, grid)
    return (SpectralField(grid, _full_spectrum(u, grid)),
            SpectralField(grid, _full_spectrum(v, grid)))


def _velocity_hats(coef: np.ndarray, grid: GridSpec, out: tuple | None = None,
                   table: _Multipliers | _Workspace | None = None):
    """Coefficients of ``(u, v)`` for a half spectrum of θ, or its leading columns.

    ``out``, if given, is ``(ψ̂, û, v̂)``: C-contiguous arrays shaped like
    ``coef`` that receive the stream function and the velocity, so the call
    allocates nothing.  ``table`` holds ``inv_k``, ``ikx`` and ``iky`` for
    ``coef``'s columns (a :class:`_Workspace` has them expanded to its
    shape); without it the grid's cached table is read.
    """
    if table is None:
        table = _multipliers(grid.n_x, grid.n_y, coef.shape[-1])
    psi, u, v = (None, None, None) if out is None else out
    psi = np.multiply(table.inv_k, coef, out=psi)
    _truncate_mantissa(psi, _split_bits(grid), scratch=u)
    u = np.multiply(psi, table.iky, out=u)
    v = np.multiply(psi, table.ikx, out=v)
    np.negative(v, out=v)
    return u, v


def _advection_width(grid: GridSpec, dealias: bool) -> int:
    """Leading half-spectrum columns the advection term reads and writes.

    The 2/3 rule keeps ``|kx| <= n_x/3``, the first ``n_x//3 + 1`` columns;
    without it the term uses the whole half spectrum.
    """
    return grid.n_x // 3 + 1 if dealias else grid.n_x // 2 + 1


class _Workspace(NamedTuple):
    """Work arrays and multipliers of the advection kernel on one grid.

    Spectra and multipliers have the ``_advection_width`` leading columns;
    node arrays the grid's shape.  ``half`` is a whole half spectrum that
    both 1-D passes of a transform go through; its columns past the width
    are 0 between kernel calls.  The multipliers are the grid's table
    expanded to the cut's shape as complex arrays, so no multiply broadcasts
    a row or casts to complex; ``mask``, the 2/3 rule's, is None without it.
    """

    theta: np.ndarray      # θ̂ with the 2/3 rule applied
    psi: np.ndarray        # ψ̂, truncated in place; then ∂x b̂ and ∂y b̂
    u: np.ndarray          # û, and the truncation's scratch before that
    v: np.ndarray          # v̂
    u_nodes: np.ndarray    # node values of u(a) and v(a)
    v_nodes: np.ndarray
    nodes: np.ndarray      # node values of ∂y b, and of ∂x b when adding into an array
    product: np.ndarray    # node values of ∂x b, then u·∂x b, then u·∇b
    half: np.ndarray       # the passes' half spectrum
    ikx: np.ndarray        # i·kx, i·ky, |k|^-1 and the 2/3 mask, read-only
    iky: np.ndarray
    inv_k: np.ndarray
    mask: np.ndarray | None


def _workspace(grid: GridSpec, dealias: bool) -> _Workspace:
    """New work arrays for the advection kernel on ``grid``; one caller uses them."""
    width = _advection_width(grid, dealias)
    shape = (grid.n_y, width)
    spectra = [np.empty(shape, dtype=complex) for _ in range(4)]
    nodes = [np.empty(grid.shape) for _ in range(4)]
    half = np.zeros((grid.n_y, grid.n_x // 2 + 1), dtype=complex)
    table = _multipliers(grid.n_x, grid.n_y, width)

    def expanded(multiplier):
        full = np.empty(shape, dtype=complex)
        full[...] = multiplier
        full.setflags(write=False)
        return full

    mask = expanded(table.dealias) if dealias else None
    return _Workspace(*spectra, *nodes, half, expanded(table.ikx), expanded(table.iky),
                      expanded(table.inv_k), mask)


def _to_nodes(cut: np.ndarray, grid: GridSpec, ws: _Workspace, out: np.ndarray) -> np.ndarray:
    """Node values of the cut half spectrum ``cut``, written into ``out``.

    The y-pass runs over the kept columns, into ``ws.half``, whose other
    columns are 0; the x-pass inverts that whole half spectrum into ``out``.
    ``irfft2`` makes the same two passes, with the short input padded by
    ``irfft``, so the bits are the same.
    """
    width = cut.shape[-1]
    np.fft.ifft(cut, axis=0, norm="forward", out=ws.half[:, :width])
    return np.fft.irfft(ws.half, n=grid.n_x, axis=1, norm="forward", out=out)


def _to_cut_spectrum(values: np.ndarray, ws: _Workspace, out: np.ndarray) -> np.ndarray:
    """The leading ``out.shape[-1]`` columns of the half spectrum of ``values``,
    times ``ws.mask`` if the workspace has one, written into ``out``.

    The x-pass writes the whole half spectrum into ``ws.half``; the y-pass
    runs over the kept columns only, then the others are reset to 0.  These
    are ``rfft2``'s passes, so the kept columns carry its bits.
    """
    width = out.shape[-1]
    np.fft.rfft(values, axis=1, norm="forward", out=ws.half)
    np.fft.fft(ws.half[:, :width], axis=0, norm="forward", out=out)
    ws.half[:, width:] = 0.0
    if ws.mask is not None:
        np.multiply(out, ws.mask, out=out)
    return out


def _velocity_nodes(a: np.ndarray, grid: GridSpec, ws: _Workspace) -> None:
    """Write the node values of ``u(a)`` and ``v(a)`` into ``ws`` for a cut spectrum ``a``."""
    u_hat, v_hat = _velocity_hats(a, grid, out=(ws.psi, ws.u, ws.v), table=ws)
    _to_nodes(u_hat, grid, ws, ws.u_nodes)
    _to_nodes(v_hat, grid, ws, ws.v_nodes)


def _advect(b: np.ndarray, grid: GridSpec, ws: _Workspace,
            acc: np.ndarray | None = None) -> np.ndarray:
    """Node values of ``u·∂x b + v·∂y b`` with the velocity of :func:`_velocity_nodes`.

    ``b`` is a spectrum cut like the velocity's.  Without ``acc`` the result
    is written into ``ws.product``; with it, ``u·∂x b`` and then ``v·∂y b``
    are added into ``acc`` in place.  Either way the array is returned.
    """
    nodes = _to_nodes(np.multiply(b, ws.ikx, out=ws.psi), grid, ws,
                      ws.product if acc is None else ws.nodes)
    if acc is None:
        acc = np.multiply(ws.u_nodes, nodes, out=nodes)
    else:
        acc += np.multiply(ws.u_nodes, nodes, out=nodes)
    nodes = _to_nodes(np.multiply(b, ws.iky, out=ws.psi), grid, ws, ws.nodes)
    acc += np.multiply(ws.v_nodes, nodes, out=nodes)
    return acc


def _nonlinear_hat(coef: np.ndarray, grid: GridSpec, dealias: bool, out: np.ndarray,
                   work: _Workspace) -> np.ndarray:
    """Half-spectrum coefficients of u·∇θ for the half-spectrum θ coefficients ``coef``.

    Only the leading ``_advection_width(grid, dealias)`` columns of ``coef``
    are read, so ``coef`` may be cut to them, and only those columns of the
    result can be nonzero: they are written into the leading columns of
    ``out`` (a half spectrum, or those columns of one), which is returned.
    Every intermediate lives in the :func:`_workspace` ``work``, so a call
    makes no array.
    """
    width = _advection_width(grid, dealias)
    theta = _dealiased(coef, grid, work.theta, work.mask) if dealias else coef[:, :width]
    _velocity_nodes(theta, grid, work)
    _to_cut_spectrum(_advect(theta, grid, work), work, out[:, :width])
    return out


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
    grid, dealias = s.grid, bool(dealias)
    out = np.zeros((grid.n_y, grid.n_x // 2 + 1), dtype=complex)
    _nonlinear_hat(_half_spectrum(s.coefficients, grid), grid, dealias, out,
                   _workspace(grid, dealias))
    return SpectralField(grid, _full_spectrum(out, grid))
