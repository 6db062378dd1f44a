"""Independent closed-form oracles used to validate the spectral machinery.

The ``TrigPoly`` oracle is computed from trigonometric identities evaluated
pointwise with plain numpy -- no FFTs, no code under test.  A ``TrigPoly`` is
a finite sum

    f(x, y) = sum_j  a_j cos(p_j x + q_j y) + b_j sin(p_j x + q_j y)

for integer mode vectors (p_j, q_j).  Derivatives, the inverse square-root
Laplacian and the advection term u . grad f (with u = (d/dy, -d/dx) applied
to the inverse square-root Laplacian of f) all have exact closed forms on
this class, which makes it a convenient independent check for the FFT-based
implementation.

Three spectral references sit beside them: the advection term on the full
complex spectrum, the residual assembled afresh at each time, and the
residual's terms built on the whole half spectrum.  The allocating IFRK4 step
and advection term that the workspace-based ones replaced are kept too, as
the bit-identity reference of the solver, and so are the residual's terms
built with the kernel whose every inverse ``irfft2`` returned a new array.

The plane-wave sum with trigonometry at every point, which the sum from
1-D trig tables replaced, is kept as the reference of ``_wave_sum``.

The artifact writers the block-formatting CSV writer and the 3-byte-gather
renderer replaced are kept as their byte-identity references: one ``str``
template per row, and a ``(levels, 3)`` colour-table gather.

The module also provides seeded factories for randomized-but-valid solution
objects, shared between the property tests and the acceptance suite.
"""

import math

import numpy as np

from sqgkit import solutions
from sqgkit.fileio import _check_levels, _colormap_lut
from sqgkit.solutions import EigenmodeSolution, UnidirectionalSolution
from sqgkit.spectral import (_frac_laplacian_multiplier, _multipliers, _nonlinear_hat,
                             _split_bits, _to_coefficients, _to_values, _velocity_hats,
                             _workspace)


class TrigPoly:
    """A finite trigonometric polynomial with integer wavevectors.

    Args:
        modes: iterable of ``(p, q, a, b)`` tuples contributing
            ``a*cos(p*x + q*y) + b*sin(p*x + q*y)``.
    """

    def __init__(self, modes):
        self.modes = [(int(p), int(q), float(a), float(b)) for p, q, a, b in modes]

    def value(self, x, y):
        out = np.zeros(np.broadcast(x, y).shape)
        for p, q, a, b in self.modes:
            phase = p * x + q * y
            out += a * np.cos(phase) + b * np.sin(phase)
        return out

    def dx(self, x, y):
        out = np.zeros(np.broadcast(x, y).shape)
        for p, q, a, b in self.modes:
            phase = p * x + q * y
            out += p * (-a * np.sin(phase) + b * np.cos(phase))
        return out

    def dy(self, x, y):
        out = np.zeros(np.broadcast(x, y).shape)
        for p, q, a, b in self.modes:
            phase = p * x + q * y
            out += q * (-a * np.sin(phase) + b * np.cos(phase))
        return out

    def laplacian_neg(self):
        """Return -Laplacian of self, again a TrigPoly."""
        return TrigPoly(
            [(p, q, (p * p + q * q) * a, (p * p + q * q) * b) for p, q, a, b in self.modes]
        )

    def inv_sqrt_laplacian(self):
        """Return (-Laplacian)^(-1/2) of self; the (0, 0) mode is dropped."""
        scaled = []
        for p, q, a, b in self.modes:
            e = p * p + q * q
            if e == 0:
                continue
            scaled.append((p, q, a / np.sqrt(e), b / np.sqrt(e)))
        return TrigPoly(scaled)

    def velocity(self, x, y):
        """Perpendicular gradient of the stream function, (psi_y, -psi_x)."""
        psi = self.inv_sqrt_laplacian()
        return psi.dy(x, y), -psi.dx(x, y)

    def advection(self, x, y):
        u, v = self.velocity(x, y)
        return u * self.dx(x, y) + v * self.dy(x, y)

    def max_wavenumber(self):
        return max(max(abs(p), abs(q)) for p, q, a, b in self.modes)

    @staticmethod
    def random(rng, n_modes=4, kmax=5):
        """Draw a random polynomial with distinct nonzero wavevectors."""
        chosen = set()
        while len(chosen) < n_modes:
            p = int(rng.integers(-kmax, kmax + 1))
            q = int(rng.integers(-kmax, kmax + 1))
            if (p, q) != (0, 0):
                chosen.add((p, q))
        return TrigPoly(
            [(p, q, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for p, q in chosen]
        )


def full_complex_advection(coef, dealias=True):
    """Coefficients of u . grad theta on the full complex spectrum.

    The reference algorithm: full FFT-order coefficients (1/(n_x n_y)
    normalization) in, full ``fft2``/``ifft2`` transforms of every factor,
    the 2/3 rule before the products and on the result, and the same
    mantissa truncation of the stream function as the package.
    """
    n_y, n_x = coef.shape
    kx, ky = np.meshgrid(np.fft.fftfreq(n_x, 1.0 / n_x), np.fft.fftfreq(n_y, 1.0 / n_y))
    k2 = kx * kx + ky * ky
    inv_k = np.where(k2 > 0, k2, 1.0) ** -0.5 * (k2 > 0)
    mask = (np.abs(kx) <= n_x / 3.0) & (np.abs(ky) <= n_y / 3.0) if dealias else 1.0
    coef = coef * mask
    psi = inv_k * coef
    factor = 2.0 ** max(1, int(np.ceil(np.log2(max(n_x, n_y) // 2)))) + 1.0
    t_re, t_im = factor * psi.real, factor * psi.imag
    psi = (t_re - (t_re - psi.real)) + 1j * (t_im - (t_im - psi.imag))

    def values(c):
        return (np.fft.ifft2(c) * c.size).real

    prod = (values(1j * ky * psi) * values(1j * kx * coef)
            + values(-1j * kx * psi) * values(1j * ky * coef))
    return np.fft.fft2(prod) / prod.size * mask


def direct_residual(sol, t, grid, kappa=None, alpha=None):
    """(l_inf, l2, nonlinear_linf) of the residual assembled afresh at time ``t``.

    The per-time assembly the factorised ``verify.residual`` replaces: θ(t)
    and ∂θ/∂t from the grid patterns, one forward transform of θ, one
    dealiased advection term and the dissipation, summed in spectral space.
    No validation or resolution check.
    """
    sol = solutions.with_parameters(sol, kappa, alpha)
    theta = solutions._on_grid(sol, t, grid)
    dtheta_dt = solutions._on_grid(sol, t, grid, d_dt=True)
    coef = _to_coefficients(theta, grid)
    nonlin_hat = _nonlinear_hat(coef, grid, True, np.zeros_like(coef), _workspace(grid, True))
    dissip_hat = sol.kappa * _frac_laplacian_multiplier(grid.n_x, grid.n_y, sol.alpha) * coef
    resid = dtheta_dt + _to_values(nonlin_hat + dissip_hat, grid)
    return (float(np.max(np.abs(resid))),
            float(np.sqrt(np.sum(resid**2) * grid.cell_area)),
            float(np.max(np.abs(_to_values(nonlin_hat, grid)))))


def residual_atol(sol, kappa=None, alpha=None):
    """The ``atol`` between ``verify.residual`` and :func:`direct_residual`:
    1e-14, or more for fields whose residual round-off is larger.

    For an exact solution both assemblies leave round-off, and it differs
    between them: it scales with ``|u|·|∇θ|`` in the advection products and
    with ``rate·|θ|`` in the linear terms, bounded here by the wave amplitudes.
    """
    sol = solutions.with_parameters(sol, kappa, alpha)
    waves = solutions._waves(sol)
    amp = sum(abs(a) + abs(b) for _, _, a, b in waves)
    kmax = max((math.hypot(p, q) for p, q, _, _ in waves), default=0.0)
    rmax = max((solutions._rate(sol, p, q) for p, q, _, _ in waves), default=0.0)
    return max(1e-14, 4e-15 * (amp * amp * kmax + rmax * amp))


def full_width_residual_terms(sol, grid):
    """``(linear, advection)`` as ``verify._residual_terms`` gives them, built on the
    whole half spectrum: every dealiased spectrum is inverted at its full
    ``n_x//2 + 1`` columns.  No cache: the patterns are read, the terms are new.
    """
    patterns = solutions._grid_patterns(sol, grid.n_x, grid.n_y)
    table = _multipliers(grid.n_x, grid.n_y, grid.n_x // 2 + 1)
    coefs = [_to_coefficients(pattern, grid) for _, pattern in patterns]

    def dealiased_values(coef, multiplier):
        hat = coef * multiplier
        hat *= table.dealias
        return _to_values(hat, grid)

    sums = {}
    for i, coef_i in enumerate(coefs):
        u_hat, v_hat = _velocity_hats(coef_i * table.dealias, grid)
        u, v = _to_values(u_hat, grid), _to_values(v_hat, grid)
        for j, coef_j in enumerate(coefs):
            pair = (min(i, j), max(i, j))
            product = dealiased_values(coef_j, table.ikx) * u
            sums[pair] = sums[pair] + product if pair in sums else product
            sums[pair] += dealiased_values(coef_j, table.iky) * v
    advection = []
    for (i, j), total in sums.items():
        total_hat = _to_coefficients(total, grid)
        total_hat *= table.dealias
        advection.append((patterns[i][0] + patterns[j][0], _to_values(total_hat, grid)))
    dissip = sol.kappa * _frac_laplacian_multiplier(grid.n_x, grid.n_y, sol.alpha)
    linear = []
    for (rate, pattern), coef in zip(patterns, coefs):
        term = _to_values(dissip * coef, grid)
        term -= rate * pattern
        linear.append((rate, term))
    return tuple(linear), tuple(advection)


def reference_residual_terms(sol, grid):
    """``(linear, advection)`` as ``verify._residual_terms`` gives them, built on
    the 2/3 rule's cut with the advection kernel that each inverse ``irfft2``
    of a cut spectrum returns as a new node array, and the sum's ``rfft2``.

    Each velocity is inverted once, each ordered pair ``(i, j)`` adds
    ``u_i·∂x P_j`` and then ``v_i·∂y P_j`` into the sum of its unordered pair,
    and the first such pair writes ``u_i·∂x P_j + v_i·∂y P_j``.  No cache and
    no huge-κ branch.
    """
    patterns = solutions._grid_patterns(sol, grid.n_x, grid.n_y)
    coefs = [_to_coefficients(pattern, grid) for _, pattern in patterns]
    width = grid.n_x // 3 + 1
    table = _multipliers(grid.n_x, grid.n_y, width)
    cuts = [coef[:, :width] * table.dealias for coef in coefs]
    sums = {}
    for i, a in enumerate(cuts):
        u_hat, v_hat = _reference_velocity_hats(a, grid)
        u, v = _to_values(u_hat, grid), _to_values(v_hat, grid)
        for j, b in enumerate(cuts):
            pair = (min(i, j), max(i, j))
            bx, by = _to_values(b * table.ikx, grid), _to_values(b * table.iky, grid)
            if pair in sums:
                sums[pair] += u * bx
                sums[pair] += v * by
            else:
                sums[pair] = u * bx + v * by
    advection = []
    for (i, j), total in sums.items():
        total_hat = _to_coefficients(total, grid)[:, :width] * table.dealias
        advection.append((patterns[i][0] + patterns[j][0], _to_values(total_hat, grid)))
    dissip = sol.kappa * _frac_laplacian_multiplier(grid.n_x, grid.n_y, sol.alpha)
    linear = []
    for (rate, pattern), coef in zip(patterns, coefs):
        term = _to_values(dissip * coef, grid)
        term -= rate * pattern
        linear.append((rate, term))
    return tuple(linear), tuple(advection)


def _reference_truncate_mantissa(z, bits):
    x = np.ascontiguousarray(z).view(np.float64)   # real and imaginary parts, interleaved
    t = (float(2**bits) + 1.0) * x
    t -= t - x
    return t.view(complex)


def _reference_velocity_hats(coef, grid):
    table = _multipliers(grid.n_x, grid.n_y, coef.shape[-1])
    psi = _reference_truncate_mantissa(table.inv_k * coef, _split_bits(grid))
    v = psi * table.ikx
    np.negative(v, out=v)
    return psi * table.iky, v


def reference_nonlinear_hat(coef, grid, dealias):
    """The advection term with a new array per intermediate, on the whole half spectrum."""
    table = _multipliers(grid.n_x, grid.n_y, coef.shape[-1])
    if dealias:
        coef = coef * table.dealias
    u_hat, v_hat = _reference_velocity_hats(coef, grid)
    adv = _to_values(u_hat, grid)
    adv *= _to_values(coef * table.ikx, grid)
    v = _to_values(v_hat, grid)
    v *= _to_values(coef * table.iky, grid)
    adv += v
    result = _to_coefficients(adv, grid)
    if dealias:
        result *= table.dealias
    return result


def reference_ifrk4_step(c, h, half_e, full_e, grid, dealias):
    """One IFRK4 step written as its textbook formula, on the whole half spectrum."""
    n1 = -reference_nonlinear_hat(c, grid, dealias)
    n2 = -reference_nonlinear_hat(half_e * (c + (0.5 * h) * n1), grid, dealias)
    n3 = -reference_nonlinear_hat(half_e * c + (0.5 * h) * n2, grid, dealias)
    n4 = -reference_nonlinear_hat(full_e * c + h * (half_e * n3), grid, dealias)
    return full_e * c + (h / 6.0) * (full_e * n1 + 2.0 * half_e * (n2 + n3) + n4)


def reference_wave_sum(waves, x, y):
    """``Σ a cos(px + qy) + b sin(px + qy)`` with libm's cos and sin at every
    point, at the rounded phase ``fl(p·x + q·y)``, added in list order: the
    direct sum that ``solutions._wave_sum`` replaced."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    phase = np.empty_like(out)
    trig = np.empty_like(out)
    for p, q, a, b in waves:
        np.multiply(p, x, out=phase)
        phase += np.multiply(q, y, out=trig)
        np.cos(phase, out=trig)
        trig *= a
        np.sin(phase, out=phase)
        phase *= b
        trig += phase
        out += trig
    return out


def reference_write_field_csv(f, path, t=0.0):
    """The field CSV written one ``str`` template per row, in text mode."""
    line = ",".join(["%.17g"] * f.grid.n_x) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {f.grid.n_x},{f.grid.n_y},{t:.17g}\n")
        for row in f.values:
            fh.write(line % tuple(row.tolist()))


def reference_render_contour(f, path, levels=21):
    """The contour PPM with each pixel's colour gathered as a row of the table."""
    levels = int(levels)
    _check_levels(levels)
    vmax = float(np.max(np.abs(f.values)))
    scaled = f.values / vmax if vmax > 0.0 else np.zeros_like(f.values)
    bands = np.floor((scaled + 1.0) * 0.5 * levels).astype(int)
    np.clip(bands, 0, levels - 1, out=bands)
    pixels = _colormap_lut(levels)[bands]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{f.grid.n_x} {f.grid.n_y}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


# (n, m, k) with n^2 + m^2 = k^2, used when both coefficient groups are live.
PYTHAGOREAN = (
    (3, 4, 5),
    (4, 3, 5),
    (6, 8, 10),
    (8, 6, 10),
    (5, 12, 13),
    (12, 5, 13),
    (9, 12, 15),
)


def _spread_coeffs(rng, count):
    c = rng.uniform(-2.0, 2.0, size=count)
    if np.abs(c).max() < 0.3:
        c[int(rng.integers(count))] = 1.0
    return [float(v) for v in c]


def random_eigenmode(rng, kappa, alpha):
    """A random valid eigenmode-family solution.

    Three styles are drawn with equal weight: only the (n, m) group active,
    only the single-wavenumber group active, or both (in which case (n, m, k)
    is a scaled Pythagorean pair so the coupling constraint holds).  Mode
    magnitudes stay at or below 15 so a 64x64 grid resolves everything with
    the usual factor-of-four margin.
    """
    style = rng.choice(["a_only", "b_only", "both"])
    sx = int(rng.choice([-1, 1]))
    sy = int(rng.choice([-1, 1]))
    if style == "both":
        n, m, k = PYTHAGOREAN[int(rng.integers(len(PYTHAGOREAN)))]
        c = _spread_coeffs(rng, 8)
        return EigenmodeSolution(
            n=sx * n, m=sy * m, k=int(rng.choice([-1, 1])) * k,
            kappa=kappa, alpha=alpha,
            c1=c[0], c2=c[1], c3=c[2], c4=c[3],
            c5=c[4], c6=c[5], c7=c[6], c8=c[7],
        )
    if style == "a_only":
        n = sx * int(rng.integers(1, 13))
        m = sy * int(rng.integers(1, 13))
        c = _spread_coeffs(rng, 4)
        return EigenmodeSolution(
            n=n, m=m, kappa=kappa, alpha=alpha,
            c1=c[0], c2=c[1], c3=c[2], c4=c[3],
        )
    # b_only: n, m must still be nonzero, but their coefficients are all zero
    # so only the k-group appears in the field.
    c = _spread_coeffs(rng, 4)
    return EigenmodeSolution(
        n=sx * int(rng.integers(1, 13)),
        m=sy * int(rng.integers(1, 13)),
        k=int(rng.choice([-1, 1])) * int(rng.integers(1, 13)),
        kappa=kappa, alpha=alpha,
        c5=c[0], c6=c[1], c7=c[2], c8=c[3],
    )


def random_unidirectional(rng, kappa, alpha, allow_mean=True):
    """A random valid unidirectional solution with modes resolvable at 64^2."""
    n = m = 0
    while n == 0 and m == 0:
        n = int(rng.integers(-3, 4))
        m = int(rng.integers(-3, 4))
    count = int(rng.integers(1, 4))
    ks = rng.choice(np.arange(-4, 5), size=count, replace=False)
    if not allow_mean:
        ks = [k for k in ks if k != 0] or [1]
    modes = [
        (int(k), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for k in ks
    ]
    return UnidirectionalSolution(n=n, m=m, kappa=kappa, alpha=alpha, modes=modes)
