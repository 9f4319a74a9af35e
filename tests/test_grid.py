"""Grid, field containers, and the spectral calculus helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ll_lab import (Grid, HydroState, RealField, SpinState, VacuumBreakdown,
                    VACUUM_GUARD, energy_hydro, integrate, spin_derivative,
                    window_norm, x_norm)
from ll_lab.grid import antiderivative_array, complex_deriv_array, deriv_array

from field_oracle import shift_array


class TestGrid:
    def test_basic_layout(self):
        grid = Grid(n=8, dx=0.5, x_min=-2.0)
        assert grid.period == 4.0
        assert np.allclose(grid.x, -2.0 + 0.5 * np.arange(8))
        assert grid.wavenumbers.shape == (8,)
        assert grid.rfft_wavenumbers.shape == (5,)
        assert grid.rfft_wavenumbers[1] == pytest.approx(2.0 * math.pi / 4.0)

    def test_centered(self):
        grid = Grid.centered(16, 0.25)
        assert grid.x_min == -2.0
        assert grid.x[0] == -2.0
        assert abs(grid.x[8]) < 1e-15

    def test_rejects_odd_and_tiny_n(self):
        with pytest.raises(ValueError):
            Grid(n=7, dx=0.1)
        with pytest.raises(ValueError):
            Grid(n=2, dx=0.1)
        with pytest.raises(ValueError):
            Grid(n=16, dx=-0.1)

    def test_allows_non_power_of_two(self):
        grid = Grid(n=4000, dx=0.05, x_min=-100.0)
        assert grid.period == pytest.approx(200.0)

    def test_periodic_offset_range(self):
        grid = Grid.centered(64, 0.5)
        offs = grid.periodic_offset(grid.x, 13.7)
        assert np.all(offs >= -grid.period / 2 - 1e-12)
        assert np.all(offs < grid.period / 2 + 1e-12)


# dyadic grids hold their points exactly, so a center x_j +- period/2 puts
# a grid point exactly on the wrap; the third grid is not dyadic
OFFSET_GRIDS = (Grid(n=64, dx=0.125, x_min=-4.0), Grid(n=64, dx=0.125, x_min=1.5),
                Grid(n=100, dx=0.3, x_min=-7.3))


@st.composite
def offset_centers(draw, grid):
    """A center within five periods of the grid, or one that puts a grid
    point exactly on the wrap, shifted by a whole number of periods."""
    period = grid.period
    if draw(st.booleans()):
        return draw(st.floats(grid.x_min - 5.0 * period, grid.x_min + 6.0 * period))
    j = draw(st.integers(0, grid.n - 1))
    side = draw(st.sampled_from((-0.5, 0.5)))
    return float(grid.x[j]) + side * period + draw(st.integers(-5, 5)) * period


def _mod_offset(grid, x, center):
    half = 0.5 * grid.period
    return np.mod(np.asarray(x, dtype=float) - center + half, grid.period) - half


@st.composite
def grid_and_centers(draw):
    grid = draw(st.sampled_from(OFFSET_GRIDS))
    centers = draw(st.lists(offset_centers(grid), min_size=1, max_size=4))
    return grid, centers


@settings(max_examples=300, deadline=None)
@given(grid_and_centers())
def test_periodic_offset_is_np_mod_bit_for_bit(case):
    """The in-place wrap equals the np.mod formula bit for bit, for scalar
    and (N, 1) centers."""
    grid, centers = case
    for center in (centers[0], np.array(centers)[:, None]):
        got = grid.periodic_offset(grid.x, center)
        want = _mod_offset(grid, grid.x, center)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSpectralCalculus:
    """deriv/antiderivative/shift are exact on band-limited data."""

    def setup_method(self):
        self.grid = Grid.centered(128, 0.25)

    def test_derivative_of_trig(self):
        k = 2.0 * math.pi * 3 / self.grid.period
        f = np.sin(k * self.grid.x)
        df = deriv_array(f, self.grid, 1)
        assert np.max(np.abs(df - k * np.cos(k * self.grid.x))) < 1e-12

    def test_higher_orders(self):
        k = 2.0 * math.pi * 5 / self.grid.period
        f = np.cos(k * self.grid.x)
        d2 = deriv_array(f, self.grid, 2)
        d3 = deriv_array(f, self.grid, 3)
        assert np.max(np.abs(d2 + k * k * f)) < 1e-10
        assert np.max(np.abs(d3 - k ** 3 * np.sin(k * self.grid.x))) < 1e-9

    def test_antiderivative_inverts_derivative(self):
        rng = np.random.default_rng(5)
        coef = np.zeros(self.grid.n // 2 + 1, dtype=complex)
        coef[1:20] = rng.standard_normal(19) + 1j * rng.standard_normal(19)
        f = np.fft.irfft(coef, n=self.grid.n)  # mean-free by construction
        back = antiderivative_array(deriv_array(f, self.grid, 1), self.grid)
        assert np.max(np.abs(back - f)) < 1e-12

    def test_shift_matches_resample(self):
        k = 2.0 * math.pi * 4 / self.grid.period
        f = np.sin(k * self.grid.x)
        shifted = shift_array(f, self.grid, 0.7)
        assert np.max(np.abs(shifted - np.sin(k * (self.grid.x - 0.7)))) < 1e-12

    def test_integrate_constants_and_waves(self):
        assert integrate(np.ones(self.grid.n), self.grid) == pytest.approx(self.grid.period)
        k = 2.0 * math.pi * 2 / self.grid.period
        assert abs(integrate(np.sin(k * self.grid.x), self.grid)) < 1e-13

    def test_complex_derivative(self):
        k = 2.0 * math.pi * 3 / self.grid.period
        f = np.exp(1j * k * self.grid.x)
        df = complex_deriv_array(f, self.grid, 1)
        assert np.max(np.abs(df - 1j * k * f)) < 1e-12


class TestRealField:
    def test_requires_matching_length(self):
        grid = Grid.centered(16, 0.5)
        with pytest.raises(ValueError):
            RealField(grid, np.zeros(8))

    def test_rejects_non_finite(self):
        grid = Grid.centered(16, 0.5)
        bad = np.zeros(16)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            RealField(grid, bad)

    def test_values_read_only(self):
        grid = Grid.centered(16, 0.5)
        field = RealField(grid, np.zeros(16))
        with pytest.raises(ValueError):
            field.values[0] = 1.0


class TestHydroState:
    def setup_method(self):
        self.grid = Grid.centered(256, 0.25)

    def test_vacuum_guard_fires_in_operations(self):
        """Construction tolerates |v| near 1; evaluating a functional does not."""
        v = np.zeros(self.grid.n)
        v[10] = 1.0 - VACUUM_GUARD / 4
        state = HydroState.from_arrays(self.grid, v, np.zeros(self.grid.n))
        assert state.vacuum_margin() < VACUUM_GUARD
        with pytest.raises(VacuumBreakdown):
            energy_hydro(state)

    def test_vacuum_margin(self):
        v = 0.5 * np.exp(-self.grid.x ** 2)
        state = HydroState.from_arrays(self.grid, v, np.zeros(self.grid.n))
        assert state.vacuum_margin() == pytest.approx(0.75)

    def test_x_norm_on_gaussian(self):
        # int v^2 + (v')^2 for v = exp(-x^2/2): sqrt(pi) + sqrt(pi)/2
        v = np.exp(-self.grid.x ** 2 / 2.0)
        w = np.zeros(self.grid.n)
        state = HydroState.from_arrays(self.grid, 0.5 * v, w)
        exact = 0.25 * (math.sqrt(math.pi) + 0.5 * math.sqrt(math.pi))
        assert x_norm(state) == pytest.approx(math.sqrt(exact), rel=1e-12)

    def test_window_norm_covers_everything(self):
        rng = np.random.default_rng(17)
        v = 0.3 * np.exp(-(self.grid.x - 5.0) ** 2)
        w = 0.2 * np.exp(-(self.grid.x + 3.0) ** 2) * rng.standard_normal()
        state = HydroState.from_arrays(self.grid, v, w)
        full = window_norm(state, 0.0, self.grid.period)
        assert full == pytest.approx(x_norm(state), rel=1e-12)

    def test_window_norm_localizes(self):
        v = 0.3 * np.exp(-self.grid.x ** 2)
        state = HydroState.from_arrays(self.grid, v, np.zeros(self.grid.n))
        near = window_norm(state, 0.0, 6.0)
        far = window_norm(state, self.grid.period / 2.0, 6.0)
        assert near == pytest.approx(x_norm(state), rel=1e-10)
        assert far < 1e-12

    def test_window_norm_continuous_in_center(self):
        """An edge on a grid point: moving the center by 1e-12 moves the
        norm by rounding, not by the density of a whole cell."""
        v = 0.3 * np.exp(-(self.grid.x - 2.0) ** 2 / 8.0)
        state = HydroState.from_arrays(self.grid, v, np.zeros(self.grid.n))
        center = 0.0
        half_width = float(self.grid.x[np.argmin(np.abs(self.grid.x - 3.0))]) - center
        base = window_norm(state, center, half_width)
        for shift in (1e-12, -1e-12):
            assert abs(window_norm(state, center + shift, half_width) - base) <= 1e-9


class TestSpinState:
    def setup_method(self):
        self.grid = Grid.centered(256, 0.25)

    def _tilted_components(self, angle):
        theta = angle * np.exp(-self.grid.x ** 2 / 8.0)
        return np.cos(theta), np.sin(theta), np.zeros(self.grid.n)

    def test_unit_norm_enforced(self):
        m1, m2, m3 = self._tilted_components(0.4)
        m2 = m2.copy()
        m2[5] += 0.01
        with pytest.raises(ValueError):
            SpinState.from_components(self.grid, m1, m2, m3)

    def test_phase_sector_values(self):
        m1, m2, m3 = self._tilted_components(0.4)
        state = SpinState.from_components(self.grid, m1, m2, m3, phase_sector=0)
        assert state.phase_sector == 0
        with pytest.raises(ValueError):
            SpinState.from_components(self.grid, m1, m2, m3, phase_sector=2)

    def test_transverse(self):
        m1, m2, m3 = self._tilted_components(0.3)
        state = SpinState.from_components(self.grid, m1, m2, m3)
        assert np.allclose(state.transverse, m1 + 1j * m2)

    def test_spin_derivative_tangency(self):
        """d(m)/dx is pointwise orthogonal to m for a unit field."""
        m1, m2, m3 = self._tilted_components(0.5)
        state = SpinState.from_components(self.grid, m1, m2, m3)
        d1 = spin_derivative(state, 1)
        dots = np.sum(state.m * d1, axis=1)
        assert np.max(np.abs(dots)) < 1e-10
