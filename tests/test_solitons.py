"""Dark-soliton profiles, multi-soliton assembly, and frame conversions.

Closed-form reference values used below:
  nu = sqrt(1 - c^2)
  v(x) = nu * sech(nu x),   w(x) = c v / (1 - v^2)
  E(c) = 2 nu,              P(c) = 2 atan(nu / c)   (odd in c)
"""

import math

import numpy as np
import pytest

from ll_lab import (Grid, MultiSolitonConfig, SolitonParams, VacuumBreakdown,
                    energy_hydro, extract_hydro, integrate, momentum,
                    multi_soliton_sum, reconstruct_spin, soliton_energy,
                    soliton_hydro, soliton_momentum, soliton_nu, soliton_spin,
                    soliton_spin_state, traveling_wave_residual,
                    winding_number)
from ll_lab.grid import deriv_array
from ll_lab.solitons import soliton_hydro_jet

import dynamics_oracle

SPEEDS = (-0.9, -0.6, -0.3, 0.3, 0.6, 0.9)


def closed_form_hydro(c, x):
    """(v, w) = (nu/cosh(nu x), c v/(1 - v^2)) written out, as one (2, n) array."""
    nu = math.sqrt(1.0 - c * c)
    v = nu / np.cosh(nu * x)
    return np.stack([v, c * v / (1.0 - v * v)])


class TestClosedForms:
    def test_nu(self):
        for c in SPEEDS:
            assert soliton_nu(c) == pytest.approx(math.sqrt(1.0 - c * c), rel=1e-15)
        with pytest.raises(ValueError):
            soliton_nu(1.0)
        with pytest.raises(ValueError):
            soliton_nu(-1.2)

    def test_nu_is_the_jet_nu(self):
        """nu squares c as c*c, as the hydrodynamic jet does; c**2 rounds
        one ulp away from the jet's nu at this speed."""
        c = 0.7342857363024624
        nu = float(soliton_hydro_jet(c, np.array([0.0])).nu)
        assert soliton_nu(c) == nu
        assert soliton_energy(c) / 2.0 == nu

    def test_profile_peak_values(self):
        for c in SPEEDS:
            nu = soliton_nu(c)
            v, w = soliton_hydro(c, np.array([0.0]))
            assert v[0] == pytest.approx(nu, rel=1e-14)
            assert w[0] == pytest.approx(nu / c, rel=1e-14)

    @pytest.mark.parametrize("c", [0.95, -0.95, 0.4, -0.4, 0.2, -0.05])
    def test_hydro_profile_is_the_closed_form(self, c):
        """soliton_hydro equals the written-out closed form bit for bit, on
        a grid and at a single point."""
        x = Grid(n=1024, dx=0.1, x_min=-51.2).x - 3.7
        assert np.array_equal(soliton_hydro(c, x), closed_form_hydro(c, x))
        v0, w0 = soliton_hydro(c, 0.0)
        assert np.ndim(v0) == 0
        assert np.array_equal(np.stack([v0, w0]), closed_form_hydro(c, np.array([0.0]))[:, 0])

    def test_spin_components(self):
        x = np.linspace(-20.0, 20.0, 401)
        for c in SPEEDS:
            nu = soliton_nu(c)
            m = soliton_spin(c, x)
            sech = 1.0 / np.cosh(nu * x)
            assert np.max(np.abs(m[:, 0] - c * sech)) < 1e-14
            assert np.max(np.abs(m[:, 1] - np.tanh(nu * x))) < 1e-14
            assert np.max(np.abs(m[:, 2] - nu * sech)) < 1e-14
            norms = np.linalg.norm(m, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-14

    def test_energy_closed_form_against_quadrature(self):
        grid = Grid(n=4000, dx=0.05, x_min=-100.0)
        for c in SPEEDS:
            v, w = soliton_hydro(c, grid.x)
            state = grid_state(grid, v, w)
            assert soliton_energy(c) == pytest.approx(2.0 * soliton_nu(c), rel=1e-15)
            assert energy_hydro(state) == pytest.approx(soliton_energy(c), abs=1e-10)

    def test_momentum_closed_form_and_oddness(self):
        grid = Grid(n=4000, dx=0.05, x_min=-100.0)
        for c in (0.3, 0.6, 0.9):
            expected = 2.0 * math.atan(soliton_nu(c) / c)
            assert soliton_momentum(c) == pytest.approx(expected, rel=1e-15)
            assert soliton_momentum(-c) == pytest.approx(-expected, rel=1e-15)
            v, w = soliton_hydro(c, grid.x)
            state = grid_state(grid, v, w)
            assert momentum(state) == pytest.approx(soliton_momentum(c), abs=2e-5)


def grid_state(grid, v, w):
    from ll_lab import HydroState

    return HydroState.from_arrays(grid, v, w)


class TestTravelingWaveResidual:
    """The profile solves the traveling-wave equation to spectral accuracy."""

    def test_residual_small_both_signs(self):
        grid = Grid(n=4096, dx=0.05, x_min=-102.4)
        for c in SPEEDS:
            state = soliton_spin_state(c, 0.0, grid)
            assert traveling_wave_residual(state, c) < 1e-8, f"c={c}"

    def test_residual_detects_wrong_speed(self):
        grid = Grid(n=4096, dx=0.05, x_min=-102.4)
        state = soliton_spin_state(0.6, 0.0, grid)
        assert traveling_wave_residual(state, 0.3) > 1e-3

    @pytest.mark.parametrize("c", [0.3, -0.6, 0.9])
    def test_residual_bits_match_oracle(self, c):
        """The residual through rhs_spin equals the written-out
        -c*m' + m x (m'' - m3 e3) bit for bit, in both sectors."""
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        pair = MultiSolitonConfig((SolitonParams(-0.4, -15.0), SolitonParams(0.4, 15.0)), 10.0)
        for state in (soliton_spin_state(c, 2.5, grid),
                      reconstruct_spin(multi_soliton_sum(pair, grid))):
            want = dynamics_oracle.traveling_wave_residual(state.m, grid, state.phase_sector, c)
            assert traveling_wave_residual(state, c) == want


class TestFrameRoundTrips:
    def setup_method(self):
        self.grid = Grid(n=2048, dx=0.05, x_min=-51.2)

    def test_extract_matches_closed_form(self):
        # soliton_spin_state samples the line profile without wrapping, so the
        # reference is soliton_hydro on the raw offsets; the only deviation is
        # the exp(-nu * L/2) seam mismatch leaking through the spectral phase
        # derivative.
        for c in SPEEDS:
            spin = soliton_spin_state(c, 3.0, self.grid)
            hydro = extract_hydro(spin)
            v_ref, w_ref = soliton_hydro(c, self.grid.x - 3.0)
            assert np.max(np.abs(hydro.v.values - v_ref)) < 1e-8
            assert np.max(np.abs(hydro.w.values - w_ref)) < 1e-7

    def test_reconstruct_then_extract(self):
        cfg = MultiSolitonConfig((SolitonParams(-0.5, -10.0), SolitonParams(0.7, 10.0)),
                                 min_separation=20.0)
        hydro = multi_soliton_sum(cfg, self.grid)
        spin = reconstruct_spin(hydro)
        back = extract_hydro(spin)
        assert np.max(np.abs(back.v.values - hydro.v.values)) < 1e-10
        assert np.max(np.abs(back.w.values - hydro.w.values)) < 1e-10

    def test_extract_rejects_vacuum_touching(self):
        m1 = np.zeros(self.grid.n)
        m2 = np.zeros(self.grid.n)
        m3 = np.ones(self.grid.n)
        from ll_lab import SpinState

        state = SpinState.from_components(self.grid, m1, m2, m3)
        with pytest.raises(VacuumBreakdown):
            extract_hydro(state)


class TestProfileJet:
    """Each entry of the closed-form jet against an independent oracle: the
    spectral derivative of the sampled profile for x, a central difference
    in c for c.  The grid resolves the profiles and their tails to the
    tolerance for |c| <= 0.6."""

    grid = Grid(n=4096, dx=0.025, x_min=-51.2)

    @pytest.mark.parametrize("c", [-0.6, -0.3, 0.2, 0.5])
    def test_entries_match_oracles(self, c):
        xi = self.grid.periodic_offset(self.grid.x, 1.3)
        jet = soliton_hydro_jet(c, xi)
        v, w = closed_form_hydro(c, xi)
        h = 1e-5
        up = soliton_hydro_jet(c + h, xi)
        down = soliton_hydro_jet(c - h, xi)
        oracles = {
            "q": np.stack([v, w]),
            "dx": np.stack([deriv_array(v, self.grid, 1), deriv_array(w, self.grid, 1)]),
            "dxx": np.stack([deriv_array(v, self.grid, 2), deriv_array(w, self.grid, 2)]),
            "dc": (up.q - down.q) / (2.0 * h),
            "dcdx": (up.dx - down.dx) / (2.0 * h),
        }
        for name, ref in oracles.items():
            err = np.max(np.abs(getattr(jet, name) - ref)) / np.max(np.abs(ref))
            assert err <= 1e-8, (name, err)

    def test_point_x_is_refused(self):
        # the jet writes Q and Q' along a last (grid) axis of x
        with pytest.raises(ValueError, match="x needs a last"):
            soliton_hydro_jet(0.5, 0.0)


class TestMultiSoliton:
    def setup_method(self):
        self.grid = Grid(n=2048, dx=0.1, x_min=-102.4)

    def test_sign_flips_whole_profile(self):
        base = MultiSolitonConfig((SolitonParams(0.4, -15.0, s=1),), min_separation=10.0)
        flip = MultiSolitonConfig((SolitonParams(0.4, -15.0, s=-1),), min_separation=10.0)
        a = multi_soliton_sum(base, self.grid)
        b = multi_soliton_sum(flip, self.grid)
        assert np.array_equal(a.v.values, -b.v.values)
        assert np.array_equal(a.w.values, -b.w.values)

    def test_far_separated_sum_is_additive(self):
        cfg = MultiSolitonConfig((SolitonParams(-0.4, -40.0), SolitonParams(0.4, 40.0)),
                                 min_separation=80.0)
        pair = multi_soliton_sum(cfg, self.grid)
        v1, w1 = soliton_hydro(-0.4, self.grid.x + 40.0)
        v2, w2 = soliton_hydro(0.4, self.grid.x - 40.0)
        # Tail overlap at separation 80 with nu ~ 0.92 is far below 1e-12.
        assert np.max(np.abs(pair.v.values - v1 - v2)) < 1e-12
        assert np.max(np.abs(pair.w.values - w1 - w2)) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MultiSolitonConfig((), min_separation=10.0)
        with pytest.raises(ValueError):
            MultiSolitonConfig((SolitonParams(0.0, 0.0),), min_separation=10.0)
        with pytest.raises(ValueError):
            MultiSolitonConfig((SolitonParams(1.0, 0.0),), min_separation=10.0)
        with pytest.raises(ValueError):
            SolitonParams(0.5, 0.0, s=2)
        with pytest.raises(ValueError):
            MultiSolitonConfig((SolitonParams(0.3, 0.0), SolitonParams(0.6, 5.0)),
                               min_separation=10.0)
        with pytest.raises(ValueError):
            # centers out of order
            MultiSolitonConfig((SolitonParams(0.3, 10.0), SolitonParams(0.6, -10.0)),
                               min_separation=5.0)

    def test_seeded_random_configs_build(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            speeds = np.sort(rng.uniform(0.2, 0.95, size=n)
                             * rng.choice([-1.0, 1.0], size=n))
            if np.min(np.abs(np.diff(speeds, prepend=-2.0))) < 1e-3:
                speeds = np.linspace(-0.8, 0.8, n) + 0.05
            centers = np.linspace(-50.0, 50.0, n) if n > 1 else rng.uniform(-40.0, 40.0, 1)
            params = tuple(SolitonParams(float(c), float(a))
                           for c, a in zip(speeds, centers))
            cfg = MultiSolitonConfig(params, min_separation=20.0)
            state = multi_soliton_sum(cfg, self.grid)
            assert state.vacuum_margin() > 0.01


class TestWindingNumber:
    def test_single_soliton_winding(self):
        # int w dx = pi * sign(c) exactly for one dark soliton, so the
        # winding in units of pi is +/-1 independent of |c|.
        grid = Grid(n=2048, dx=0.05, x_min=-51.2)
        for c in (0.4, -0.4, 0.85):
            v, w = soliton_hydro(c, grid.x)
            state = grid_state(grid, v, w)
            assert winding_number(state) == pytest.approx(math.copysign(1.0, c),
                                                          abs=1e-10)

    def test_vacuum_has_zero_winding(self):
        grid = Grid.centered(256, 0.25)
        state = grid_state(grid, np.zeros(grid.n), np.zeros(grid.n))
        assert winding_number(state) == 0.0
