"""Periodic grids, field containers, and Fourier collocation calculus.

Everything downstream works on a uniform periodic grid with a power-of-two
number of samples.  Derivatives are spectral, integrals are the periodic
rectangle rule (spectrally accurate for smooth integrands), and the weighted
Sobolev-type norm used throughout is

    ||(v, w)||_X = ( integral of v^2 + (dv/dx)^2 + w^2 )^(1/2).

Spin configurations whose transverse component m1 + i*m2 winds through an odd
multiple of pi over one period are not periodic but antiperiodic.  Such fields
are tagged with ``phase_sector = 1`` and differentiated by first removing a
half-integer twist, so that single dark solitons (phase jump pi) live on the
grid at spectral accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Guard on 1 - v^2 (equivalently |m1 + i m2|^2).  Below this the hydrodynamic
#: variables lose meaning and operations raise :class:`VacuumBreakdown`.
VACUUM_GUARD = 1e-6


class VacuumBreakdown(RuntimeError):
    """The transverse spin component (or 1 - v^2) dropped below the guard."""


def _check_vacuum(one_minus_v2: np.ndarray) -> None:
    if float(one_minus_v2.min()) < VACUUM_GUARD:
        raise VacuumBreakdown("1 - v^2 fell below the vacuum guard during evaluation")


def _frozen_array(values, shape=None, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    if shape is not None and out.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("array contains non-finite entries")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with samples x_min + j*dx, j = 0..n-1.

    The period is n*dx.  n must be even (the transform conventions assume a
    Nyquist bin); powers of two are fastest but not required.
    """

    n: int
    dx: float
    x_min: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n: must be an even integer >= 4, got {self.n}")
        if not (np.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError(f"dx: must be finite and positive, got {self.dx}")
        if not np.isfinite(self.x_min):
            raise ValueError(f"x_min: must be finite, got {self.x_min}")

    @property
    def period(self) -> float:
        return self.n * self.dx

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen_array(self.x_min + self.dx * np.arange(self.n))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Full FFT wavenumbers 2*pi*fftfreq, matching ``np.fft.fft`` layout."""
        return _frozen_array(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx))

    @cached_property
    def rfft_wavenumbers(self) -> np.ndarray:
        return _frozen_array(2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx))

    # The spectral multipliers below are built once per grid and shared by
    # every derivative, right-hand side and filter in the package.

    @cached_property
    def ik(self) -> np.ndarray:
        """i*k on the rfft layout, with the Nyquist bin zeroed: that mode has
        no well-defined odd derivative on the grid."""
        ik = 1j * self.rfft_wavenumbers
        ik[-1] = 0.0
        return _frozen_array(ik, dtype=complex)

    @cached_property
    def k2(self) -> np.ndarray:
        """k^2 on the rfft layout."""
        k = self.rfft_wavenumbers
        return _frozen_array(k * k)

    @cached_property
    def ik_k2(self) -> np.ndarray:
        """(i*k, -k^2) as one (2, n//2 + 1) array: a single product with an
        rfft spectrum gives the spectra of the first and second derivative."""
        return _frozen_array(np.stack((self.ik, -self.k2)), dtype=complex)

    @cached_property
    def rfft_pairing(self) -> np.ndarray:
        """Parseval weights on the rfft layout: for real f, g with rfft
        spectra F, G, integrate(f g) = Re sum_k w_k conj(F_k) G_k, with
        w = 2 dx/n, halved at the DC and Nyquist bins."""
        w = np.full(self.n // 2 + 1, 2.0 * self.dx / self.n)
        w[[0, -1]] *= 0.5
        return _frozen_array(w)

    @cached_property
    def lowpass(self) -> np.ndarray:
        """Two-thirds-rule mask on the rfft layout: 1 up to index n//3, else 0."""
        return _frozen_array(np.arange(self.n // 2 + 1) <= self.n // 3)

    @cached_property
    def sector_multipliers(self) -> tuple:
        """(twist, i*kk, kk^2) on the full fft layout, indexed by phase sector.

        Sector 0 has no twist (None) and kk = k with the Nyquist bin of i*kk
        zeroed.  Sector 1 holds antiperiodic fields: the twist is
        exp(i*pi*(x - x_min)/period) and kk = k + pi/period.
        """
        k = self.wavenumbers
        ik = 1j * k
        ik[self.n // 2] = 0.0
        shift = np.pi / self.period
        kk = k + shift
        twist = np.exp(1j * shift * (self.x - self.x_min))
        return ((None, _frozen_array(ik, dtype=complex), _frozen_array(k * k)),
                (_frozen_array(twist, dtype=complex), _frozen_array(1j * kk, dtype=complex),
                 _frozen_array(kk * kk)))

    def periodic_offset(self, x, center: float) -> np.ndarray:
        """Signed displacement x - center wrapped into [-period/2, period/2).

        Equal bit for bit to np.mod(x - center + period/2, period) - period/2.
        For a = x - center + period/2 in (-period, 2 period) the remainder is
        a + period, a or a - period; the last is exact there (Sterbenz), so
        one add or subtract in place rounds as np.mod does, at a third of
        its cost.
        """
        period = self.period
        half = 0.5 * period
        a = np.asarray(x, dtype=float) - center + half
        if np.ndim(a) == 0 or not (-period < a.min() and a.max() < 2.0 * period):
            return np.mod(a, period) - half
        np.add(a, period, out=a, where=a < 0.0)
        np.subtract(a, period, out=a, where=a >= period)
        a -= half
        return a

    @classmethod
    def centered(cls, n: int, dx: float) -> "Grid":
        """Grid of n points symmetric about the origin."""
        return cls(n=n, dx=dx, x_min=-0.5 * n * dx)


@dataclass(frozen=True, eq=False)
class RealField:
    """A real scalar field sampled on a grid.  Values are finite and read-only."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, (self.grid.n,)))


def _require_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError("fields live on different grids")


@dataclass(frozen=True, eq=False)
class HydroState:
    """Hydrodynamic pair (v, w) with the non-vacuum constraint max|v| < 1."""

    grid: Grid
    v: RealField
    w: RealField

    def __post_init__(self) -> None:
        _require_same_grid(self.grid, self.v.grid)
        _require_same_grid(self.grid, self.w.grid)
        vmax = float(np.max(np.abs(self.v.values)))
        if vmax >= 1.0:
            raise ValueError(f"non-vacuum constraint violated: max|v| = {vmax} >= 1")

    @classmethod
    def from_arrays(cls, grid: Grid, v, w) -> "HydroState":
        return cls(grid, RealField(grid, v), RealField(grid, w))

    def vacuum_margin(self) -> float:
        """min(1 - v^2), the distance to vacuum breakdown."""
        return float(np.min(1.0 - self.v.values ** 2))


@dataclass(frozen=True, eq=False)
class SpinState:
    """Unit spin field m : grid -> S^2, stored as an (n, 3) array.

    ``phase_sector`` records the parity of the phase winding of m1 + i*m2
    over one period: 0 for periodic transverse components, 1 for antiperiodic
    ones (odd multiples of pi, the sector of a single dark soliton).  The
    sector is preserved by the flow, which is linear in m1 + i*m2 with
    periodic coefficients.
    """

    grid: Grid
    m: np.ndarray
    phase_sector: int = 0

    def __post_init__(self) -> None:
        m = _frozen_array(self.m, (self.grid.n, 3))
        norms = np.sqrt(np.sum(m * m, axis=1))
        err = float(np.max(np.abs(norms - 1.0)))
        if err > 1e-12:
            raise ValueError(f"spin field is not unit-length: max deviation {err:.3e}")
        object.__setattr__(self, "m", m)
        if self.phase_sector not in (0, 1):
            raise ValueError(f"phase_sector must be 0 or 1, got {self.phase_sector}")

    @classmethod
    def from_components(cls, grid: Grid, m1, m2, m3, phase_sector: int = 0) -> "SpinState":
        return cls(grid, np.stack([np.asarray(m1, dtype=float),
                                   np.asarray(m2, dtype=float),
                                   np.asarray(m3, dtype=float)], axis=1), phase_sector)

    @property
    def transverse(self) -> np.ndarray:
        """m1 + i*m2 as a complex array."""
        return self.m[:, 0] + 1j * self.m[:, 1]


# ---------------------------------------------------------------------------
# spectral calculus on raw arrays
# ---------------------------------------------------------------------------

def _derivative_multiplier(ik: np.ndarray, k2: np.ndarray, order: int) -> np.ndarray:
    """(i*k)^order from the cached i*k and k^2 of one layout."""
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    if order == 1:
        return ik
    mult = -k2 if order < 4 else (-k2) ** (order // 2)
    return mult * ik if order % 2 else mult


def deriv_array(values: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    """Fourier collocation derivative of a real sample array."""
    mult = _derivative_multiplier(grid.ik, grid.k2, order)
    return np.fft.irfft(mult * np.fft.rfft(values), n=grid.n)


def complex_deriv_array(values: np.ndarray, grid: Grid, order: int = 1,
                        phase_sector: int = 0) -> np.ndarray:
    """Derivative of a complex array, periodic or antiperiodic.

    In sector 1 the array satisfies f(x + period) = -f(x); it is untwisted by
    exp(-i*pi*(x - x_min)/period), differentiated with wavenumbers shifted by
    pi/period, and re-twisted.
    """
    if phase_sector not in (0, 1):
        raise ValueError(f"phase_sector must be 0 or 1, got {phase_sector}")
    twist, ik, k2 = grid.sector_multipliers[phase_sector]
    mult = _derivative_multiplier(ik, k2, order)
    vals = np.asarray(values, dtype=complex)
    if twist is None:
        return np.fft.ifft(mult * np.fft.fft(vals))
    return twist * np.fft.ifft(mult * np.fft.fft(vals / twist))


def antiderivative_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral antiderivative of the mean-free part, itself mean-free."""
    vhat = np.fft.rfft(values)
    k = grid.rfft_wavenumbers.copy()
    k[0] = 1.0  # avoid divide-by-zero; the mean is dropped below
    out = vhat / (1j * k)
    out[0] = 0.0
    return np.fft.irfft(out, n=grid.n)


def lowpass_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Projection onto the modes kept by the two-thirds rule."""
    return np.fft.irfft(grid.lowpass * np.fft.rfft(values), n=grid.n)


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Periodic rectangle rule, exact for band-limited integrands."""
    return float(np.sum(values) * grid.dx)


def spin_derivative(s: SpinState, order: int = 1) -> np.ndarray:
    """Componentwise derivative of a spin field, honouring its phase sector.

    The transverse pair (m1, m2) is differentiated as m1 + i*m2 in the
    state's sector; m3 is always periodic.  Returns an (n, 3) array.
    """
    dmc = complex_deriv_array(s.transverse, s.grid, order, s.phase_sector)
    dm3 = deriv_array(s.m[:, 2], s.grid, order)
    return np.stack([dmc.real, dmc.imag, dm3], axis=1)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def x_norm_arrays(v: np.ndarray, w: np.ndarray, grid: Grid, weight=1.0) -> float:
    """x_norm of raw arrays (v, w), with no check on max|v|; ``weight``
    multiplies the density pointwise."""
    dv = deriv_array(v, grid, 1)
    return math.sqrt(max(integrate((v ** 2 + dv ** 2 + w ** 2) * weight, grid), 0.0))


def x_norm(s: HydroState) -> float:
    """The energy-space norm ( int v^2 + (dx v)^2 + w^2 )^(1/2)."""
    return x_norm_arrays(s.v.values, s.w.values, s.grid)


def window_norm(s: HydroState, center: float, half_width: float) -> float:
    """x_norm restricted to the periodic window |x - center| <= half_width.

    Each point is weighted by clip((half_width - |x - center|)/dx + 1/2, 0, 1),
    a linear ramp one cell wide at each edge, so the norm is continuous in
    the center and the width.
    """
    if half_width <= 0.0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    offs = s.grid.periodic_offset(s.grid.x, center)
    weight = np.clip((half_width - np.abs(offs)) / s.grid.dx + 0.5, 0.0, 1.0)
    return x_norm_arrays(s.v.values, s.w.values, s.grid, weight)
