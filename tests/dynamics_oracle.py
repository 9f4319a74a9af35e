"""Reference implementations of the hydro right-hand side and the RK4 steps,
one transform and one temporary per operation, and of the skew operator J.

``ll_lab.dynamics`` computes the same arithmetic with batched transforms
and buffered stage sums, and the tests assert that both give the same bits.
Its hydro RK4 carries the rfft spectrum of the state, as ``_rk4_spectral``
does; against the physical-space ``_rk4_hydro`` that moves only rounding, so
those two are compared to a bound.  The spin right-hand side here spells out
its transforms on the grid's cached multipliers, so the spin tests do not run
the derivative functions that ``ll_lab.dynamics`` calls.
"""

import numpy as np

from ll_lab.dynamics import _check_vacuum
from ll_lab.grid import RealField


def _hll_rhs_arrays(v, w, grid):
    ik, k2 = grid.ik, grid.k2
    vhat = np.fft.rfft(v)
    dv = np.fft.irfft(ik * vhat, n=grid.n)
    d2v = np.fft.irfft(-k2 * vhat, n=grid.n)
    om = 1.0 - v * v
    _check_vacuum(om)
    g = d2v / om + v * dv * dv / (om * om) + v * (w * w - 1.0)
    vdot = np.fft.irfft(ik * np.fft.rfft((v * v - 1.0) * w), n=grid.n)
    wdot = np.fft.irfft(ik * np.fft.rfft(g), n=grid.n)
    return vdot, wdot


def _rk4_hydro(v, w, grid, dt):
    k1v, k1w = _hll_rhs_arrays(v, w, grid)
    k2v, k2w = _hll_rhs_arrays(v + 0.5 * dt * k1v, w + 0.5 * dt * k1w, grid)
    k3v, k3w = _hll_rhs_arrays(v + 0.5 * dt * k2v, w + 0.5 * dt * k2w, grid)
    k4v, k4w = _hll_rhs_arrays(v + dt * k3v, w + dt * k3w, grid)
    sixth = dt / 6.0
    return (v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
            w + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w))


def _spectral_rhs(vhat, what, grid):
    """Spectra of (dv/dt, dw/dt) from the spectra of (v, w), with the
    arithmetic of ``_hll_rhs_arrays``."""
    ik, k2 = grid.ik, grid.k2
    v = np.fft.irfft(vhat, n=grid.n)
    w = np.fft.irfft(what, n=grid.n)
    dv = np.fft.irfft(ik * vhat, n=grid.n)
    d2v = np.fft.irfft(-k2 * vhat, n=grid.n)
    om = 1.0 - v * v
    _check_vacuum(om)
    g = d2v / om + v * dv * dv / (om * om) + v * (w * w - 1.0)
    return ik * np.fft.rfft((v * v - 1.0) * w), ik * np.fft.rfft(g)


def _rk4_spectral(vhat, what, grid, dt):
    k1v, k1w = _spectral_rhs(vhat, what, grid)
    k2v, k2w = _spectral_rhs(vhat + 0.5 * dt * k1v, what + 0.5 * dt * k1w, grid)
    k3v, k3w = _spectral_rhs(vhat + 0.5 * dt * k2v, what + 0.5 * dt * k2w, grid)
    k4v, k4w = _spectral_rhs(vhat + dt * k3v, what + dt * k3w, grid)
    sixth = dt / 6.0
    return (vhat + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
            what + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w))


def _spin_heff(m, grid, sector):
    """m'' - m3 e3, with m'' from transforms written out here: the complex
    fft of m1 + i*m2, twisted in sector 1, and the rfft of m3."""
    mc = m[:, 0] + 1j * m[:, 1]
    twist, _ikk, kk2 = grid.sector_multipliers[sector]
    if twist is None:
        d2c = np.fft.ifft(-kk2 * np.fft.fft(mc))
    else:
        d2c = twist * np.fft.ifft(-kk2 * np.fft.fft(mc / twist))
    d2r = np.fft.irfft(-grid.k2 * np.fft.rfft(m[:, 2]), n=grid.n)
    heff = np.empty_like(m)
    heff[:, 0] = d2c.real
    heff[:, 1] = d2c.imag
    heff[:, 2] = d2r - m[:, 2]
    return heff


def _spin_rhs_arrays(m, grid, sector):
    """-m x (m'' - m3 e3)."""
    return -np.cross(m, _spin_heff(m, grid, sector))


def traveling_wave_residual(m, grid, sector, c):
    """Sup norm of -c*m' + m x (m'' - m3 e3), with m' from the same
    transforms as m''."""
    mc = m[:, 0] + 1j * m[:, 1]
    twist, ikk, _kk2 = grid.sector_multipliers[sector]
    if twist is None:
        d1c = np.fft.ifft(ikk * np.fft.fft(mc))
    else:
        d1c = twist * np.fft.ifft(ikk * np.fft.fft(mc / twist))
    d1r = np.fft.irfft(grid.ik * np.fft.rfft(m[:, 2]), n=grid.n)
    d1 = np.stack([d1c.real, d1c.imag, d1r], axis=1)
    return float(np.max(np.abs(-c * d1 + np.cross(m, _spin_heff(m, grid, sector)))))


def _rk4_spin(m, grid, sector, dt):
    k1 = _spin_rhs_arrays(m, grid, sector)
    k2 = _spin_rhs_arrays(m + 0.5 * dt * k1, grid, sector)
    k3 = _spin_rhs_arrays(m + 0.5 * dt * k2, grid, sector)
    k4 = _spin_rhs_arrays(m + dt * k3, grid, sector)
    out = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out /= np.sqrt(np.sum(out * out, axis=1))[:, None]
    return out


def apply_J(pair):
    """Skew operator J(f1, f2) = (f2', f1')."""
    f1, f2 = pair
    grid = f1.grid
    d2 = np.fft.irfft(grid.ik * np.fft.rfft(f2.values), n=grid.n)
    d1 = np.fft.irfft(grid.ik * np.fft.rfft(f1.values), n=grid.n)
    return RealField(grid, d2), RealField(grid, d1)
