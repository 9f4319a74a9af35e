"""Reference evaluation of the modulation conditions: F, the exact Jacobian
J and eps in one call, one soliton at a time.

``ll_lab.modulation`` splits the same arithmetic into a residual pass over
all solitons at once and a Jacobian pass it runs only before a Newton
step; the tests assert that both give the same F, J and eps to rounding.
``_conditions`` and the per-soliton jet it reads are kept here as they
were written; ``_Lookup`` serves the cache's interpolated chi, its
spectral derivative and its slope in c to them, through the per-mode
``shifted`` translation they call.  ``grad_EP`` writes out the first
variations grad E and grad P, whose central difference the closed-form
Hessian ``hessian_apply`` is checked against.
"""

from typing import NamedTuple

import numpy as np

from ll_lab.dynamics import FieldPair
from ll_lab.grid import Grid, HydroState, RealField, deriv_array
from ll_lab.modulation import ChiCache, ModulationError
from ll_lab.solitons import soliton_nu


class ProfileJet(NamedTuple):
    q: np.ndarray       # Q_c
    dx: np.ndarray      # Q_c'
    dxx: np.ndarray     # Q_c''
    dc: np.ndarray      # dQ_c/dc at fixed x
    dcdx: np.ndarray    # dQ_c'/dc at fixed x


def soliton_hydro_jet(c: float, x) -> ProfileJet:
    nu = soliton_nu(c)
    x = np.asarray(x, dtype=float)
    y = nu * x
    v = nu / np.cosh(y)
    t = np.tanh(y)
    om = 1.0 - v * v
    w = c * v / om
    dv = -nu * v * t
    dw = c * dv * (1.0 + v * v) / om ** 2
    g = (1.0 + v * v) / (om * om)
    dg = 2.0 * v * (3.0 + v * v) / om ** 3   # dg/dv
    d2v = v * (nu * nu - 2.0 * v * v)
    d2w = c * (g * d2v + dg * dv * dv)
    cv = -c * v * (1.0 - y * t) / (nu * nu)
    cw = v / om + c * g * cv
    cdv = (c / nu) * v * (2.0 * t + y * (2.0 * v * v / (nu * nu) - 1.0))
    cdw = g * dv + c * g * cdv + c * dg * dv * cv
    return ProfileJet(np.stack([v, w]), np.stack([dv, dw]), np.stack([d2v, d2w]),
                      np.stack([cv, cw]), np.stack([cdv, cdw]))


def _sum_profile_arrays(speeds, centers, signs, grid: Grid):
    jets = [soliton_hydro_jet(c, grid.periodic_offset(grid.x, a))
            for c, a in zip(speeds, centers)]
    total = np.zeros((2, grid.n))
    for s, jet in zip(signs, jets):
        total += s * jet.q
    return total, jets


def _guarded_sum(speeds, centers, signs, grid: Grid, speed_margin: float):
    if np.any(np.diff(speeds) <= 0.0):
        raise ModulationError(f"ordering lost: speeds {speeds.tolist()} are not increasing")
    if np.any(np.abs(speeds) >= 1.0 - speed_margin) or np.any(np.abs(speeds) <= speed_margin):
        raise ModulationError(
            f"speed out of range: speeds {speeds.tolist()} left "
            f"[{speed_margin}, {1.0 - speed_margin}] in magnitude")
    return _sum_profile_arrays(speeds, centers, signs, grid)


class _Mode(NamedTuple):
    grid: Grid
    center: float
    spectrum: np.ndarray

    def shifted(self, center: float) -> np.ndarray:
        phase = np.exp(-1j * self.grid.rfft_wavenumbers * (center - self.center))
        return np.fft.irfft(phase * self.spectrum, n=self.grid.n)


class _Lookup:
    def __init__(self, cache: ChiCache):
        self.cache = cache

    def mode_for(self, c: float) -> _Mode:
        """The six rows (chi, chi', d chi/dc) of the cache's mode at c."""
        hat, slope = self.cache.mode_for(c)
        spectrum = np.concatenate([hat, self.cache.grid.ik * hat, slope])
        return _Mode(self.cache.grid, self.cache.center, spectrum)


def conditions(params: np.ndarray, state: np.ndarray, grid: Grid, signs: np.ndarray,
               chi: ChiCache, speed_margin: float):
    """(F, J, eps) at params, evaluated by the reference ``_conditions``."""
    return _conditions(params, state, grid, signs, _Lookup(chi), speed_margin)


def _conditions(params: np.ndarray, state: np.ndarray, grid: Grid,
                signs: np.ndarray, chi: ChiCache,
                speed_margin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The conditions F, their exact Jacobian J (formulas in
    :func:`_modulate_raw`) and eps, at p = params for the state (v, w)
    given as a (2, n) array."""
    nsol = len(signs)
    speeds = params[:nsol]
    centers = params[nsol:]
    total, jets = _guarded_sum(speeds, centers, signs, grid, speed_margin)
    eps = state - total

    # the six fields of each soliton paired with eps:
    # Q_j', chi_j, dQ_j'/dc, Q_j'', chi_j', d chi_j/dc
    fields = np.empty((nsol, 6, 2, grid.n))
    for j, jet in enumerate(jets):
        chi_rows = chi.mode_for(speeds[j]).shifted(centers[j]).reshape(3, 2, grid.n)
        fields[j, 0] = jet.dx
        fields[j, 1] = chi_rows[0]
        fields[j, 2] = jet.dcdx
        fields[j, 3] = jet.dxx
        fields[j, 4:] = chi_rows[1:]
    pairs = (fields.reshape(nsol, 6, -1) @ eps.reshape(-1)) * (grid.dx * signs[:, None])
    f = pairs[:, :2].reshape(-1)
    # d eps/d c_k, d eps/d a_k
    cols = np.concatenate([-signs[:, None, None] * np.stack([jet.dc for jet in jets]),
                           signs[:, None, None] * fields[:, 0]])
    jac = (fields[:, :2].reshape(2 * nsol, -1) @ cols.reshape(2 * nsol, -1).T) * grid.dx
    jac *= np.repeat(signs, 2)[:, None]
    j = np.arange(nsol)
    jac[2 * j, j] += pairs[:, 2]
    jac[2 * j, nsol + j] -= pairs[:, 3]
    jac[2 * j + 1, nsol + j] -= pairs[:, 4]
    jac[2 * j + 1, j] += pairs[:, 5]
    return f, jac, eps


def exact_newton(params: np.ndarray, state: np.ndarray, grid: Grid, signs: np.ndarray,
                 chi: ChiCache, iters: int = 8) -> np.ndarray:
    """Plain Newton on the conditions with the exact Jacobian at every step
    and no damping, from params until max|F| stops falling or reaches
    1e-13: the decomposition a carried Jacobian approximates."""
    from ll_lab.modulation import _jacobian, _residual

    p = np.asarray(params, dtype=float)
    f, eps, point = _residual(p, state, grid, signs, chi)
    for _ in range(iters):
        if np.max(np.abs(f)) <= 1e-13:
            break
        trial = p - np.linalg.solve(_jacobian(point, eps, grid, signs), f)
        f_new, eps_new, point_new = _residual(trial, state, grid, signs, chi)
        if np.max(np.abs(f_new)) >= np.max(np.abs(f)):
            break
        p, f, eps, point = trial, f_new, eps_new, point_new
    return p


def grad_EP(state: HydroState) -> tuple[FieldPair, FieldPair]:
    """(grad E, grad P) at the state, as field pairs.

    grad E = ( -d/dx( v'/(1-v^2) ) + v (v')^2/(1-v^2)^2 - v w^2 + v,
               (1-v^2) w ),
    grad P = ( w, v ).
    """
    grid = state.grid
    v = state.v.values
    w = state.w.values
    om = 1.0 - v * v
    dv = deriv_array(v, grid, 1)
    ge1 = (-deriv_array(dv / om, grid, 1) + v * dv * dv / (om * om)
           - v * w * w + v)
    ge2 = om * w
    gradE = (RealField(grid, ge1), RealField(grid, ge2))
    gradP = (RealField(grid, w), RealField(grid, v))
    return gradE, gradP
