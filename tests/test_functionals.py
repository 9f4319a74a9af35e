"""Conserved functionals, the smoothed-step weight, localized momentum, and
virial quantities.

Hand-computed references used here:
  Gaussian pair v = a exp(-xi^2/2), w = b xi exp(-xi^2/2) about the domain
  midpoint gives U = int xi v w = a b sqrt(pi)/2.
"""

import csv
import math
import warnings

import numpy as np
import pytest

from ll_lab import (Grid, HydroState, IntegratorConfig,
                    energy_hydro, energy_spin, evolve,
                    localized_momentum, localized_momentum_rate, momentum,
                    multi_soliton_sum, phi_bump, phi_bump_d1, phi_bump_d3,
                    reconstruct_spin, seam_norm, soliton_energy, soliton_hydro,
                    soliton_momentum, virial_U, virial_linear_identity,
                    virial_rate, x_norm)
from ll_lab import MultiSolitonConfig, SolitonParams
from ll_lab.scenarios import random_smooth_pair, write_table


def soliton_state(c, grid, a=0.0):
    v, w = soliton_hydro(c, grid.periodic_offset(grid.x, a))
    return HydroState.from_arrays(grid, v, w)


class TestConservedFunctionals:
    def setup_method(self):
        self.grid = Grid(n=4096, dx=0.05, x_min=-102.4)

    def test_energy_matches_closed_form(self):
        for c in (-0.7, 0.25, 0.8):
            state = soliton_state(c, self.grid)
            assert energy_hydro(state) == pytest.approx(soliton_energy(c), abs=1e-11)

    def test_momentum_matches_closed_form(self):
        for c in (-0.7, 0.4, 0.8):
            state = soliton_state(c, self.grid)
            assert momentum(state) == pytest.approx(soliton_momentum(c), abs=1e-6)

    def test_spin_and_hydro_energies_agree(self):
        cfg = MultiSolitonConfig((SolitonParams(-0.5, -30.0), SolitonParams(0.7, 30.0)),
                                 min_separation=40.0)
        hydro = multi_soliton_sum(cfg, self.grid)
        spin = reconstruct_spin(hydro)
        assert energy_spin(spin) == pytest.approx(energy_hydro(hydro), rel=1e-10)

    def test_energy_additivity_far_apart(self):
        cfg = MultiSolitonConfig((SolitonParams(-0.5, -50.0), SolitonParams(0.7, 50.0)),
                                 min_separation=60.0)
        state = multi_soliton_sum(cfg, self.grid)
        expected = soliton_energy(-0.5) + soliton_energy(0.7)
        assert energy_hydro(state) == pytest.approx(expected, abs=1e-9)


class TestPhiBump:
    def test_limits_and_midpoint(self):
        for nu in (0.3, 0.8, 1.0):
            assert phi_bump(-1e4, nu) == pytest.approx(0.0, abs=1e-12)
            assert phi_bump(1e4, nu) == pytest.approx(1.0, abs=1e-12)
            assert phi_bump(0.0, nu) == pytest.approx(0.5)

    def test_d1_positive_and_matches_fd(self):
        x = np.linspace(-60.0, 60.0, 241)
        for nu in (0.4, 0.9):
            d1 = phi_bump_d1(x, nu)
            assert np.all(d1 > 0.0)
            h = 1e-5
            fd = (phi_bump(x + h, nu) - phi_bump(x - h, nu)) / (2.0 * h)
            assert np.max(np.abs(d1 - fd)) < 1e-9

    def test_d3_matches_fd_of_d1(self):
        x = np.linspace(-60.0, 60.0, 241)
        for nu in (0.4, 0.9):
            h = 1e-4
            fd2 = (phi_bump_d1(x + h, nu) - 2.0 * phi_bump_d1(x, nu)
                   + phi_bump_d1(x - h, nu)) / h ** 2
            assert np.max(np.abs(phi_bump_d3(x, nu) - fd2)) < 1e-8

    def test_third_derivative_bound(self):
        """|Phi'''| <= (nu^2/64) Phi' pointwise, the bound the monotonicity
        argument needs."""
        x = np.linspace(-200.0, 200.0, 4001)
        for nu in (0.2, 0.5, 1.0):
            d1 = phi_bump_d1(x, nu)
            d3 = phi_bump_d3(x, nu)
            assert np.all(np.abs(d3) <= (nu ** 2 / 64.0) * d1 * (1.0 + 1e-12))

    def test_nu_validation(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                phi_bump(0.0, bad)


class TestLocalizedMomentum:
    def setup_method(self):
        self.grid = Grid(n=2048, dx=0.1, x_min=-102.4)

    def test_spec_validation(self):
        state = soliton_state(0.6, self.grid)
        with pytest.raises(ValueError, match="nu"):
            localized_momentum(state, 5.0, 0.0)
        with pytest.raises(ValueError, match="nu"):
            localized_momentum_rate(state, 5.0, 1.5, center_speed=0.0)
        for center in (math.inf, math.nan):
            with pytest.raises(ValueError, match="center"):
                localized_momentum(state, center, 0.5)
            with pytest.raises(ValueError, match="center"):
                localized_momentum_rate(state, center, 0.5, center_speed=0.0)

    def test_step_far_right_recovers_zero_and_far_left_total(self):
        state = soliton_state(0.6, self.grid)
        p_total = momentum(state)
        assert abs(localized_momentum(state, 80.0, 0.8)) < 1e-3 * abs(p_total)
        assert localized_momentum(state, -80.0, 0.8) == pytest.approx(
            p_total, rel=1e-3)

    def test_comoving_rate_vanishes_on_traveling_wave(self):
        """With the weight advected at speed c, I is constant along the wave,
        so the assembled rate must vanish to quadrature accuracy."""
        for c in (0.45, -0.45, 0.8):
            nu = math.sqrt(1.0 - c * c)
            state = soliton_state(c, self.grid)
            for y0 in (5.0, -10.0):
                rate = localized_momentum_rate(state, y0, nu, center_speed=c)
                assert abs(rate) < 1e-12, f"c={c}, y0={y0}"

    def test_rate_matches_finite_difference_along_flow(self):
        """dI/dt from the formula against a centered difference of I along an
        actual integration, sampled before any radiation wraps around."""
        cfg = MultiSolitonConfig((SolitonParams(0.5, 0.0),), min_separation=10.0)
        state = multi_soliton_sum(cfg, self.grid)
        dv, dw = random_smooth_pair(self.grid, amplitude=0.01, seed=3)
        state = HydroState.from_arrays(self.grid, state.v.values + dv,
                                       state.w.values + dw)
        dt = 1e-3
        traj = evolve(state, IntegratorConfig(dt=dt, t_end=0.02, sample_stride=1))
        k = 10

        def center(i):  # the step rides b(t) = 0.5 t, offset by y0 = 5
            return 0.5 * traj.times[i] + 5.0

        i_plus = localized_momentum(traj.states[k + 1], center(k + 1), 0.8)
        i_minus = localized_momentum(traj.states[k - 1], center(k - 1), 0.8)
        fd = (i_plus - i_minus) / (2.0 * dt)
        i_mid = localized_momentum(traj.states[k], center(k), 0.8)
        rate = localized_momentum_rate(traj.states[k], center(k), 0.8, center_speed=0.5)
        assert abs(fd - rate) <= 1e-6 * (1.0 + abs(i_mid))


class TestVirial:
    def setup_method(self):
        self.grid = Grid.centered(2048, 0.1)

    def _gauss_pair(self, a, b, width=1.0):
        xi = self.grid.x / width
        v = a * np.exp(-xi ** 2 / 2.0)
        w = b * xi * np.exp(-xi ** 2 / 2.0)
        return HydroState.from_arrays(self.grid, v, w)

    def test_virial_u_gaussian_oracle(self):
        # U = int xi * (a e^{-xi^2/2}) (b xi e^{-xi^2/2}) = a b sqrt(pi)/2
        for a, b in ((0.3, 0.2), (0.1, -0.4), (-0.25, -0.15)):
            state = self._gauss_pair(a, b)
            assert virial_U(state) == pytest.approx(a * b * math.sqrt(math.pi) / 2.0,
                                                    rel=1e-12)

    def test_linear_identity_on_gaussian_suite(self):
        for a, b, width in ((0.2, 0.1, 1.0), (0.3, -0.2, 2.0), (-0.1, 0.25, 0.7),
                            (0.05, 0.05, 3.0)):
            state = self._gauss_pair(a, b, width)
            lhs, rhs = virial_linear_identity(state)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs), f"a={a}, b={b}, width={width}"

    def test_linear_identity_on_random_smooth_states(self):
        sigma = self.grid.period / 14.0  # keep tails clear of the seam window
        for seed in range(5):
            dv, dw = random_smooth_pair(self.grid, amplitude=0.05, seed=seed,
                                        sigma=sigma)
            state = HydroState.from_arrays(self.grid, dv, dw)
            lhs, rhs = virial_linear_identity(state)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_rate_matches_finite_difference(self):
        dv, dw = random_smooth_pair(self.grid, amplitude=0.02, seed=11,
                                    sigma=self.grid.period / 14.0)
        state = HydroState.from_arrays(self.grid, dv, dw)
        dt = 1e-3
        traj = evolve(state, IntegratorConfig(dt=dt, t_end=0.02, sample_stride=1))
        k = 10
        u_plus = virial_U(traj.states[k + 1])
        u_minus = virial_U(traj.states[k - 1])
        fd = (u_plus - u_minus) / (2.0 * dt)
        mid = traj.states[k]
        rate = virial_rate(mid)
        assert abs(fd - rate) <= 1e-6 * (1.0 + x_norm(mid) ** 2)

    def test_seam_support_is_measured_not_warned(self):
        v = 0.2 * np.exp(-(self.grid.periodic_offset(self.grid.x, self.grid.x_min)) ** 2)
        state = HydroState.from_arrays(self.grid, v, np.zeros(self.grid.n))
        assert seam_norm(state) > 1e-8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            virial_U(state)


class TestDiagnosticsCsv:
    """diagnostics.csv is written from named columns by ``write_table``."""

    def _columns(self):
        return {"t": np.array([0.0, 0.1]),
                "E": np.array([1.6, 1.6 + 1e-16]),
                "P": np.array([0.5, 0.5]),
                "U": np.array([0.01, 0.02]),
                "I_a1_y+5": np.array([0.125, 1.0 / 3.0]),
                "I_a1_y+10": np.array([-0.0625, 0.1]),
                "win_between": np.array([0.001953125, 0.002]),
                "seam": np.array([0.0, 1e-12])}

    def test_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "diag.csv"
        with open(path, "w", newline="") as fh:
            write_table(fh, self._columns())
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "E", "P", "U", "I_a1_y+5", "I_a1_y+10", "win_between",
                           "seam"]
        assert len(rows) == 3
        # 17 significant digits round-trip doubles exactly
        assert float(rows[2][4]) == 1.0 / 3.0
        assert float(rows[1][1]) == 1.6
        assert float(rows[2][1]) == 1.6 + 1e-16

    def test_empty_rejected(self, tmp_path):
        with open(tmp_path / "nope.csv", "w", newline="") as fh:
            with pytest.raises(ValueError):
                write_table(fh, {})
            with pytest.raises(ValueError, match="differ in length"):
                write_table(fh, {"t": np.array([0.0, 0.1]), "E": np.array([1.6])})
