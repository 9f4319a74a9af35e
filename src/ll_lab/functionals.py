"""Conserved quantities, localized momentum, and virial diagnostics.

Energy and momentum in the hydrodynamic frame:

    E = 1/2 int ( (v')^2/(1-v^2) + (1-v^2) w^2 + v^2 )
    P = int v w

The localized momentum I(t) weights the momentum density by a smoothed step
Phi(x - b(t) - y0) with Phi(x) = (1 + tanh(nu*x/16))/2, evaluated at the
position b(t) + y0 that the caller passes for the time at hand.  Along a
path b moving at speed b', its exact time derivative along the flow is

    dI/dt = 1/2 int Phi' * ( v^2 + w^2 - 2 b' v w - 3 v^2 w^2
                             + (3 - v^2)/(1-v^2)^2 (v')^2 )
          + 1/2 int Phi''' * log(1 - v^2),

which is sign-definite up to the Phi''' remainder because |Phi'''| is
controlled by (nu^2/64) Phi'.  The virial quantity U = int x v w (x measured
from the domain midpoint) obeys, for data supported away from the periodic
seam,

    dU/dt = -<(L+B) s, s> - <(L+B) s, x d/dx s>,

whose linear part equals int ( 3/2 (v')^2 + 1/2 v^2 + 1/2 w^2 ) and hence
dominates 1/4 ||s||_X^2 for small data.  All weighted assemblies use x (a
periodic sawtooth) strictly as a pointwise weight; only smooth fields are
ever differentiated, so the identities hold on the grid to rounding for
seam-centered band-limited data.  The virial functionals do not look at
the seam: :func:`seam_norm` measures the mass there, and every table that
records U records it next to U.

These are functionals of one state.  Their series along a run are the
named diagnostics columns that :mod:`ll_lab.scenarios` records and writes.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import FieldPair, apply_B, apply_L
from .grid import (
    Grid,
    HydroState,
    SpinState,
    _check_vacuum,
    deriv_array,
    integrate,
    spin_derivative,
    window_norm,
)


def energy_hydro(state: HydroState) -> float:
    """E = 1/2 int ( (v')^2/(1-v^2) + (1-v^2) w^2 + v^2 )."""
    v = state.v.values
    w = state.w.values
    om = 1.0 - v * v
    _check_vacuum(om)
    dv = deriv_array(v, state.grid, 1)
    dens = dv * dv / om + om * w * w + v * v
    return 0.5 * integrate(dens, state.grid)


def energy_spin(state: SpinState) -> float:
    """E = 1/2 int ( |m'|^2 + m3^2 ), equal to the hydrodynamic energy."""
    d1 = spin_derivative(state, 1)
    dens = np.sum(d1 * d1, axis=1) + state.m[:, 2] ** 2
    return 0.5 * integrate(dens, state.grid)


def momentum(state: HydroState) -> float:
    """P = int v w."""
    return integrate(state.v.values * state.w.values, state.grid)


# ---------------------------------------------------------------------------
# the smoothed step and localized momentum
# ---------------------------------------------------------------------------

def _check_nu(nu: float) -> float:
    nu = float(nu)
    if not (0.0 < nu <= 1.0):
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    return nu


def phi_bump(x, nu: float) -> np.ndarray:
    """Smoothed step Phi(x) = (1 + tanh(nu*x/16))/2."""
    nu = _check_nu(nu)
    return 0.5 * (1.0 + np.tanh(nu * np.asarray(x, dtype=float) / 16.0))


def phi_bump_d1(x, nu: float) -> np.ndarray:
    """Phi'(x) = (nu/32) sech^2(nu*x/16), everywhere positive."""
    nu = _check_nu(nu)
    s = nu * np.asarray(x, dtype=float) / 16.0
    return (nu / 32.0) / np.cosh(s) ** 2


def phi_bump_d3(x, nu: float) -> np.ndarray:
    """Phi'''(x); satisfies |Phi'''| <= (nu^2/64) Phi' pointwise."""
    nu = _check_nu(nu)
    s = nu * np.asarray(x, dtype=float) / 16.0
    sech2 = 1.0 / np.cosh(s) ** 2
    tanh2 = np.tanh(s) ** 2
    return -(nu ** 3 / 4096.0) * sech2 * (sech2 - 2.0 * tanh2)


def _step_offsets(grid: Grid, center: float) -> np.ndarray:
    """Offsets x - center wrapped periodically; the step is cut at the
    antipode of the center, the natural periodic truncation."""
    if not math.isfinite(center):
        raise ValueError(f"step center must be finite, got {center}")
    return grid.periodic_offset(grid.x, center)


def localized_momentum(state: HydroState, center: float, nu: float) -> float:
    """I = int v w Phi(x - center), with the step at center = b(t) + y0."""
    xi = _step_offsets(state.grid, center)
    dens = state.v.values * state.w.values * phi_bump(xi, nu)
    return integrate(dens, state.grid)


def localized_momentum_rate(state: HydroState, center: float, nu: float,
                            center_speed: float) -> float:
    """Exact dI/dt along the flow, with the step at center = b(t) + y0 and
    the path moving at speed b'(t) = center_speed."""
    grid = state.grid
    v = state.v.values
    w = state.w.values
    om = 1.0 - v * v
    _check_vacuum(om)
    dv = deriv_array(v, grid, 1)
    xi = _step_offsets(grid, center)
    d1 = phi_bump_d1(xi, nu)
    d3 = phi_bump_d3(xi, nu)
    bracket = (v * v + w * w - 2.0 * float(center_speed) * v * w
               - 3.0 * v * v * w * w + (3.0 - v * v) / (om * om) * dv * dv)
    return 0.5 * integrate(d1 * bracket + d3 * np.log(om), grid)


# ---------------------------------------------------------------------------
# virial quantities
# ---------------------------------------------------------------------------

def _midpoint_offsets(grid: Grid) -> np.ndarray:
    mid = grid.x_min + 0.5 * grid.period
    return grid.periodic_offset(grid.x, mid)


def seam_norm(state: HydroState) -> float:
    """The X-norm of the state over the window of half width period/16
    around the periodic seam x_min, where the sawtooth weight jumps."""
    return window_norm(state, state.grid.x_min, state.grid.period / 16.0)


def virial_U(state: HydroState) -> float:
    """U = int x v w with x measured from the domain midpoint.

    The sawtooth weight jumps at the seam, so U and its identities are
    exact only while :func:`seam_norm` of the state is negligible.
    """
    xt = _midpoint_offsets(state.grid)
    return integrate(xt * state.v.values * state.w.values, state.grid)


def _pair_inner(a: FieldPair, b_vals: tuple[np.ndarray, np.ndarray], grid: Grid) -> float:
    return integrate(a[0].values * b_vals[0] + a[1].values * b_vals[1], grid)


def _weighted_rate_terms(state: HydroState, f: FieldPair) -> float:
    """-<f, s> - <f, x d/dx s> with the sawtooth applied pointwise."""
    grid = state.grid
    v = state.v.values
    w = state.w.values
    xt = _midpoint_offsets(grid)
    dv = deriv_array(v, grid, 1)
    dw = deriv_array(w, grid, 1)
    return -(_pair_inner(f, (v, w), grid) + _pair_inner(f, (xt * dv, xt * dw), grid))


def virial_linear_identity(state: HydroState) -> tuple[float, float]:
    """Both sides of the linear virial identity.

    Returns (-<Ls, s> - <Ls, x s'>, int 3/2 (v')^2 + 1/2 v^2 + 1/2 w^2);
    the two agree to rounding for seam-centered band-limited data.
    """
    grid = state.grid
    v = state.v.values
    w = state.w.values
    lhs = _weighted_rate_terms(state, apply_L(state))
    dv = deriv_array(v, grid, 1)
    rhs = integrate(1.5 * dv * dv + 0.5 * v * v + 0.5 * w * w, grid)
    return lhs, rhs


def virial_rate(state: HydroState) -> float:
    """Assembled dU/dt along the flow:

        -<Ls, s> - <Ls, x s'> + <x (Bs)', s>,

    the linear identity part plus the superlinear correction carried by B.
    The sawtooth x enters pointwise only; the derivative falls on the smooth
    field Bs.
    """
    grid = state.grid
    ls = apply_L(state)
    b1, b2 = apply_B(state)
    xt = _midpoint_offsets(grid)
    db1 = deriv_array(b1.values, grid, 1)
    db2 = deriv_array(b2.values, grid, 1)
    nonlinear = integrate(xt * (db1 * state.v.values + db2 * state.w.values), grid)
    return _weighted_rate_terms(state, ls) + nonlinear

