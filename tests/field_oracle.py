"""Reference implementations the tests compare ``ll_lab`` against: a
periodic translation by Fourier phase ramp and the closed-form x-derivative
of the hydrodynamic soliton profile."""

import numpy as np

from ll_lab.solitons import soliton_nu


def shift_array(values: np.ndarray, grid, delta: float) -> np.ndarray:
    """Periodic translation f(x) -> f(x - delta) by Fourier phase ramp."""
    phase = np.exp(-1j * grid.rfft_wavenumbers * delta)
    return np.fft.irfft(phase * np.fft.rfft(values), n=grid.n)


def soliton_hydro_derivative(c: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Analytic x-derivative of the hydrodynamic profile."""
    nu = soliton_nu(c)
    x = np.asarray(x, dtype=float)
    v = nu / np.cosh(nu * x)
    dv = -nu * v * np.tanh(nu * x)
    dw = c * dv * (1.0 + v * v) / (1.0 - v * v) ** 2
    return dv, dw
