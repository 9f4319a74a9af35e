"""Dark solitons of the easy-plane Landau-Lifshitz line, in both frames.

For every speed 0 < |c| < 1, with nu = sqrt(1 - c^2), the travelling-wave
profile is

    u_c(x) = ( c*sech(nu*x), tanh(nu*x), nu*sech(nu*x) )

in the spin frame, and (v_c, w_c) = (nu*sech(nu*x), c*v_c/(1 - v_c^2)) in the
hydrodynamic frame.  Closed forms for the invariants:

    E(Q_c) = 2*nu,        P(Q_c) = 2*arctan(nu/c)   (same sign as c).

Each soliton carries a transverse phase winding of pi*sign(c), so a single
profile is antiperiodic in m1 + i*m2 and is sampled into phase sector 1;
``reconstruct_spin`` detects the sector of arbitrary hydrodynamic data from
the total winding integral of w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import rhs_spin
from .grid import (
    Grid,
    HydroState,
    SpinState,
    _check_vacuum,
    antiderivative_array,
    complex_deriv_array,
    integrate,
    spin_derivative,
)


def _check_speed(c: float) -> float:
    c = float(c)
    if not (0.0 < abs(c) < 1.0):
        raise ValueError(f"soliton speed must satisfy 0 < |c| < 1, got {c}")
    return c


def soliton_nu(c: float) -> float:
    """Amplitude parameter nu = sqrt(1 - c^2)."""
    c = _check_speed(c)
    return math.sqrt(1.0 - c * c)


def soliton_spin(c: float, x) -> np.ndarray:
    """Travelling-wave spin profile u_c(x); output shape is x.shape + (3,)."""
    nu = soliton_nu(c)
    x = np.asarray(x, dtype=float)
    sech = 1.0 / np.cosh(nu * x)
    return np.stack([c * sech, np.tanh(nu * x), nu * sech], axis=-1)


def soliton_hydro(c: float, x) -> np.ndarray:
    """Hydrodynamic profile (v_c, w_c) at the points x, as the Q of
    :func:`soliton_hydro_jet` in one (2,) + x.shape array."""
    return soliton_hydro_jet(c, np.ravel(x)).q.reshape((2,) + np.shape(x))


@dataclass(frozen=True, eq=False)
class ProfileJet:
    """The hydrodynamic profile Q_c at the points x and the derivatives the
    modulation Newton Jacobian needs, each a stacked (v, w) array with the
    pair on the second-to-last axis: c of shape (N, 1) and x of shape (N, n)
    give N profiles as (N, 2, n) arrays.

    Q and Q' are evaluated by :func:`soliton_hydro_jet`.  Q'', dQ/dc and
    dQ'/dc reuse its intermediates (y = nu x, v, t = tanh(y), om = 1 - v^2)
    and are computed when first read, so a caller that needs only Q and Q'
    pays for nothing more.  With g = (1 + v^2)/om^2 and dnu/dc = -c/nu:

        v'' = v (nu^2 - 2 v^2),
        w'' = c (g v'' + 2 v (3 + v^2) v'^2 / om^3),
        dv/dc = -c v (1 - y t)/nu^2,  dw/dc = v/om + c g dv/dc,
        dv'/dc = (c/nu) v (2 t + y (2 v^2/nu^2 - 1)),
        dw'/dc = g v' + c g dv'/dc + 2 c v (3 + v^2) v' dv/dc / om^3.
    """

    c: np.ndarray
    nu: np.ndarray
    y: np.ndarray
    v: np.ndarray
    t: np.ndarray
    om: np.ndarray
    q: np.ndarray       # Q_c
    dx: np.ndarray      # Q_c'

    @cached_property
    def _c_jet(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Q'', dQ/dc, dQ'/dc), evaluated together from the intermediates."""
        c, nu, y, v, t, om = self.c, self.nu, self.y, self.v, self.t, self.om
        dv = self.dx[..., 0, :]
        vv = v * v
        nu2 = nu * nu
        om2 = om * om
        g = (1.0 + vv) / om2
        dg = 2.0 * v * (3.0 + vv) / (om2 * om)   # dg/dv
        cg = c * g
        # each row is written into its place in one (3, ..., 2, n) array
        out = np.empty((3,) + self.q.shape)
        d2v = np.multiply(v, nu2 - 2.0 * vv, out=out[0, ..., 0, :])
        np.multiply(c, g * d2v + dg * dv * dv, out=out[0, ..., 1, :])
        cv = np.divide(-c * v * (1.0 - y * t), nu2, out=out[1, ..., 0, :])
        np.add(v / om, cg * cv, out=out[1, ..., 1, :])
        cdv = np.multiply((c / nu) * v, 2.0 * t + y * (2.0 * vv / nu2 - 1.0),
                          out=out[2, ..., 0, :])
        np.add(g * dv + cg * cdv, c * dg * dv * cv, out=out[2, ..., 1, :])
        return out[0], out[1], out[2]

    @property
    def dxx(self) -> np.ndarray:
        """Q_c''."""
        return self._c_jet[0]

    @property
    def dc(self) -> np.ndarray:
        """dQ_c/dc at fixed x."""
        return self._c_jet[1]

    @property
    def dcdx(self) -> np.ndarray:
        """dQ_c'/dc at fixed x."""
        return self._c_jet[2]


def soliton_hydro_jet(c, x) -> ProfileJet:
    """Q_c and Q_c' at the points x from one cosh and one tanh of nu*x, as a
    :class:`ProfileJet` that supplies the remaining derivatives on demand.
    x needs a last (grid) axis, and c is a speed or an array that
    broadcasts against x; :func:`soliton_hydro` takes any x.

    Q is the closed form v = nu sech(nu x), w = c v/(1 - v^2), and Q' is
    evaluated with the same operations as v' = -nu v tanh(nu x),
    w' = c v' (1 + v^2)/(1 - v^2)^2.
    """
    c = np.asarray(c, dtype=float)
    if not np.all((0.0 < np.abs(c)) & (np.abs(c) < 1.0)):
        raise ValueError(f"soliton speed must satisfy 0 < |c| < 1, got {c.tolist()}")
    nu = np.sqrt(1.0 - c * c)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise ValueError("x needs a last (grid) axis, got a 0-d x")
    y = nu * x
    # Q and Q' are written into their places in (..., 2, n) arrays
    q = np.empty(y.shape[:-1] + (2,) + y.shape[-1:])
    dx = np.empty_like(q)
    v = np.divide(nu, np.cosh(y), out=q[..., 0, :])
    t = np.tanh(y)
    om = 1.0 - v * v
    np.divide(c * v, om, out=q[..., 1, :])
    dv = np.multiply(-nu * v, t, out=dx[..., 0, :])
    np.divide(c * dv * (1.0 + v * v), om ** 2, out=dx[..., 1, :])
    return ProfileJet(c, nu, y, v, t, om, q, dx)


def soliton_energy(c: float) -> float:
    """E(Q_c) = 2*sqrt(1 - c^2)."""
    return 2.0 * soliton_nu(c)


def soliton_momentum(c: float) -> float:
    """P(Q_c) = 2*arctan(nu/c), odd in c and valued in (-pi, pi)."""
    return 2.0 * math.atan(soliton_nu(c) / _check_speed(c))


@dataclass(frozen=True)
class SolitonParams:
    """One soliton: speed c, center a, and sign s in {+1, -1}.

    The sign flips the profile pointwise, (v, w) -> (-v, -w); it does not
    change speed, energy, or momentum of the single soliton.
    """

    c: float
    a: float
    s: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < abs(self.c) < 1.0:
            raise ValueError(f"c: must satisfy 0 < |c| < 1, got {self.c}")
        if not np.isfinite(self.a):
            raise ValueError(f"a: must be finite, got {self.a}")
        if self.s not in (1, -1):
            raise ValueError(f"s: must be +1 or -1, got {self.s}")


@dataclass(frozen=True)
class MultiSolitonConfig:
    """An ordered N-soliton configuration with a guaranteed separation.

    Speeds must be strictly increasing and consecutive centers at least
    ``min_separation`` apart, the well-ordered regime in which superposition
    and modulation tracking are meaningful.
    """

    params: tuple[SolitonParams, ...]
    min_separation: float

    def __post_init__(self) -> None:
        params = tuple(self.params)
        object.__setattr__(self, "params", params)
        if len(params) < 1:
            raise ValueError("params: need at least one soliton")
        if self.min_separation <= 0.0:
            raise ValueError(f"min_separation: must be positive, got {self.min_separation}")
        cs = [p.c for p in params]
        if any(c2 <= c1 for c1, c2 in zip(cs, cs[1:])):
            raise ValueError(f"params: speeds must be strictly increasing, got {cs}")
        avals = [p.a for p in params]
        for a1, a2 in zip(avals, avals[1:]):
            if a2 - a1 < self.min_separation:
                raise ValueError(
                    f"params: centers {a1} and {a2} closer than "
                    f"min_separation {self.min_separation}")

    @property
    def n_solitons(self) -> int:
        return len(self.params)

    @cached_property
    def speeds(self) -> np.ndarray:
        return np.array([p.c for p in self.params])

    @cached_property
    def centers(self) -> np.ndarray:
        return np.array([p.a for p in self.params])

    @cached_property
    def signs(self) -> np.ndarray:
        return np.array([p.s for p in self.params])


def _sum_profile_arrays(speeds: np.ndarray, centers: np.ndarray, signs: np.ndarray,
                        grid: Grid) -> tuple[np.ndarray, ProfileJet]:
    """Pointwise sum of hydrodynamic profiles as a (2, n) array, centers
    wrapped periodically, with the jet of all N profiles as one
    :class:`ProfileJet` over (N, n)."""
    jet = soliton_hydro_jet(speeds[:, None], grid.periodic_offset(grid.x, centers[:, None]))
    return np.sum(signs[:, None, None] * jet.q, axis=0), jet


def multi_soliton_sum(config: MultiSolitonConfig, grid: Grid) -> HydroState:
    """Superposed hydrodynamic state V = sum_j s_j v_{c_j}(x - a_j), same for W.

    Raises ValueError if the summed amplitudes violate max|V| < 1 (the state
    constructor enforces it).
    """
    total, _ = _sum_profile_arrays(config.speeds, config.centers, config.signs, grid)
    return HydroState.from_arrays(grid, total[0], total[1])


def soliton_spin_state(c: float, a: float, grid: Grid) -> SpinState:
    """Single travelling wave sampled in the spin frame, phase sector 1.

    The transverse component c*sech + i*tanh of one dark soliton crosses the
    periodic seam antiperiodically, so the sample lands in sector 1 with
    seam mismatch of order exp(-nu * distance from a to the seam).
    """
    u = soliton_spin(c, grid.x - a)
    norms = np.sqrt(np.sum(u * u, axis=1))
    return SpinState(grid, u / norms[:, None], phase_sector=1)


# ---------------------------------------------------------------------------
# frame changes
# ---------------------------------------------------------------------------

def reconstruct_spin(state: HydroState) -> SpinState:
    """Lift (v, w) to a spin field m with m3 = v and transverse phase theta,
    d(theta)/dx = w, fixed by theta = 0 at the grid point nearest x = 0.

    The total winding T = int w dx is rounded to the nearest multiple of pi;
    the half-integer part sets the phase sector and the residual T - k*pi is
    removed by a localized winding correction supported where the state has
    the least mass, so the lift is exact for states whose winding is an
    honest multiple of pi and changes the data by at most the residual
    otherwise.
    """
    grid = state.grid
    v = state.v.values
    w = state.w.values
    _check_vacuum(1.0 - v * v)

    total = integrate(w, grid)
    n_half = int(round(total / math.pi))
    sector = n_half & 1
    residual = total - n_half * math.pi

    w_used = w
    if abs(residual) > 1e-12 * (1.0 + abs(total)):
        # place the correction bump at the minimum of a smoothed mass density
        mass = v * v + w * w
        sigma_smooth = grid.period / 8.0
        k = grid.rfft_wavenumbers
        smoothed = np.fft.irfft(np.fft.rfft(mass) * np.exp(-0.5 * (k * sigma_smooth) ** 2),
                                n=grid.n)
        x_far = float(grid.x[int(np.argmin(smoothed))])
        offs = grid.periodic_offset(grid.x, x_far)
        sigma_b = grid.period / 16.0
        bump = np.exp(-0.5 * (offs / sigma_b) ** 2)
        bump /= integrate(bump, grid)
        w_used = w - residual * bump

    mean = integrate(w_used, grid) / grid.period
    theta = antiderivative_array(w_used - mean, grid)
    theta += (n_half * math.pi) * (grid.x - grid.x_min) / grid.period

    j0 = int(np.argmin(np.abs(grid.periodic_offset(grid.x, 0.0))))
    theta = theta - theta[j0]

    rho = np.sqrt(1.0 - v * v)
    return SpinState.from_components(grid, rho * np.cos(theta), rho * np.sin(theta), v,
                                     phase_sector=sector)


def extract_hydro(state: SpinState) -> HydroState:
    """Project a spin field to (v, w) = (m3, d(arg(m1 + i m2))/dx).

    The phase derivative is computed branch-free as
    Im(conj(mc) * d(mc)/dx) / |mc|^2 with the sector-aware derivative.
    Raises :class:`VacuumBreakdown` when the transverse component is too
    small for w to be meaningful (for instance m3 identically 1).
    """
    mc = state.transverse
    rho2 = np.abs(mc) ** 2
    _check_vacuum(rho2)
    dmc = complex_deriv_array(mc, state.grid, 1, state.phase_sector)
    w = np.imag(np.conj(mc) * dmc) / rho2
    return HydroState.from_arrays(state.grid, state.m[:, 2], w)


def as_hydro(state) -> HydroState:
    """The hydrodynamic view of a state of either frame: a HydroState as it
    is, a SpinState through :func:`extract_hydro`."""
    if isinstance(state, HydroState):
        return state
    if isinstance(state, SpinState):
        return extract_hydro(state)
    raise TypeError(f"expected a HydroState or a SpinState, got {type(state).__name__}")


def traveling_wave_residual(state: SpinState, c: float) -> float:
    """Sup norm of -c*m' - dm/dt (:func:`rhs_spin`), zero on an exact profile."""
    res = -c * spin_derivative(state, 1) - rhs_spin(state)
    return float(np.max(np.abs(res)))


def winding_number(state: HydroState) -> float:
    """Total transverse winding int w dx in units of pi."""
    return integrate(state.w.values, state.grid) / math.pi
