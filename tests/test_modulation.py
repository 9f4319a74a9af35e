"""Hessian spectral structure and Newton modulation tracking.

The eigenvalue references below were frozen from converged runs on the
period-102.4 grid at dx = 0.05; halving dx moves them by less than 1e-9,
so they are grid-stable to the quoted digits.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ll_lab import (ChiCache, Grid, HessianOperator, HydroState, IntegratorConfig,
                    ModulationError, MultiSolitonConfig, RealField, SolitonParams,
                    Trajectory, evolve, hessian_apply, integrate, modulate,
                    multi_soliton_sum, negative_mode, soliton_hydro, track_modulation,
                    write_table, x_norm)
from ll_lab import modulation
from ll_lab.grid import lowpass_array
from ll_lab.modulation import CHI_LATTICE_STEP, _jacobian, _residual
from ll_lab.scenarios import random_smooth_pair
from ll_lab.solitons import soliton_hydro_jet

import modulation_oracle
from field_oracle import shift_array, soliton_hydro_derivative

# Frozen lowest eigenvalues of H_c on the period-102.4 grid (see module
# docstring); the eigensolver certifies residuals below 2e-7.
LAMBDA_MINUS = {
    0.3: -0.4041194186,
    0.6: -0.8391458307,
    0.9: -0.2921440723,
}

ORACLE_GRID = Grid(n=2048, dx=0.05, x_min=-51.2)


def pair_l2(h):
    return math.sqrt(integrate(h[0].values ** 2 + h[1].values ** 2, h[0].grid))


def pair_dot(a, b, grid):
    return integrate(a[0].values * b[0].values + a[1].values * b[1].values, grid)


def conditions(p, state, grid, signs, cache):
    """(F, J, eps) at p: the residual pass, then the Jacobian pass."""
    f, eps, point = _residual(p, state, grid, signs, cache)
    return f, _jacobian(point, eps, grid, signs), eps


def count_jacobians(monkeypatch):
    """Record every Jacobian pass the Newton iteration makes."""
    calls = []

    def spy(*args):
        calls.append(1)
        return _jacobian(*args)

    monkeypatch.setattr(modulation, "_jacobian", spy)
    return calls


class TestNegativeMode:
    @pytest.mark.parametrize("speed", [0.3, 0.6, 0.9])
    def test_frozen_eigenvalues_both_signs(self, speed):
        for c in (speed, -speed):
            mode = negative_mode(c, ORACLE_GRID)
            assert mode.negative_count == 1
            assert mode.residual <= 2e-7
            assert mode.rayleigh == pytest.approx(LAMBDA_MINUS[speed], abs=2e-7), f"c={c}"

    def test_chi_normalization_and_sign(self):
        mode = negative_mode(0.6, ORACLE_GRID)
        assert pair_l2(mode.chi) == pytest.approx(1.0, rel=1e-12)
        v0, _ = soliton_hydro(0.6, ORACLE_GRID.periodic_offset(ORACLE_GRID.x,
                                                               mode.center))
        assert integrate(mode.chi[0].values * v0, ORACLE_GRID) > 0.0

    def test_chi_is_an_approximate_eigenvector(self):
        mode = negative_mode(0.6, ORACLE_GRID)
        op = HessianOperator(0.6, ORACLE_GRID)
        h1, h2 = hessian_apply(op, mode.chi)
        r1 = h1.values - mode.rayleigh * mode.chi[0].values
        r2 = h2.values - mode.rayleigh * mode.chi[1].values
        res = math.sqrt(integrate(r1 * r1 + r2 * r2, ORACLE_GRID))
        assert res < 1e-6

    def test_speed_validation(self):
        with pytest.raises(ValueError):
            negative_mode(1.0, ORACLE_GRID)
        with pytest.raises(ValueError):
            negative_mode(0.0, ORACLE_GRID)

    def test_uncertified_mode_is_a_modulation_error(self, monkeypatch):
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        monkeypatch.setattr(modulation, "CHI_MAXITER", 1)
        with pytest.raises(ModulationError, match="did not certify"):
            negative_mode(0.4, grid)


class TestHessianOperator:
    def setup_method(self):
        self.grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        self.op = HessianOperator(0.6, self.grid)

    def _smooth_pair(self, seed, amplitude=0.05):
        dv, dw = random_smooth_pair(self.grid, amplitude=amplitude, seed=seed)
        return RealField(self.grid, dv), RealField(self.grid, dw)

    def test_symmetry(self):
        for seed in (1, 2, 3):
            h1 = self._smooth_pair(seed)
            h2 = self._smooth_pair(seed + 100)
            lhs = pair_dot(hessian_apply(self.op, h1), h2, self.grid)
            rhs = pair_dot(h1, hessian_apply(self.op, h2), self.grid)
            assert abs(lhs - rhs) <= 1e-12 * pair_l2(h1) * pair_l2(h2)

    def test_homogeneity(self):
        h = self._smooth_pair(7)
        out1 = hessian_apply(self.op, h)
        scaled = (RealField(self.grid, 3.0 * h[0].values),
                  RealField(self.grid, 3.0 * h[1].values))
        out3 = hessian_apply(self.op, scaled)
        assert np.max(np.abs(out3[0].values - 3.0 * out1[0].values)) < 1e-9
        assert np.max(np.abs(out3[1].values - 3.0 * out1[1].values)) < 1e-9
        # additivity: H(a + b) = Ha + Hb
        g = self._smooth_pair(8)
        out_g = hessian_apply(self.op, g)
        total = (RealField(self.grid, h[0].values + g[0].values),
                 RealField(self.grid, h[1].values + g[1].values))
        out_sum = hessian_apply(self.op, total)
        diff = (RealField(self.grid, out_sum[0].values - out1[0].values - out_g[0].values),
                RealField(self.grid, out_sum[1].values - out1[1].values - out_g[1].values))
        assert pair_l2(diff) <= 1e-12 * (pair_l2(out1) + pair_l2(out_g))

    @pytest.mark.parametrize("c", [0.3, -0.6, 0.9])
    def test_matches_central_difference_of_grad(self, c):
        """The closed form against the 2-point central difference of grad E,
        with P'' applied exactly and the step scaled to the profile."""
        op = HessianOperator(c, self.grid)
        v0, w0 = op.profile
        h = self._smooth_pair(11)
        d = 1e-5 * math.sqrt(integrate(v0 * v0 + w0 * w0, self.grid)) / pair_l2(h)
        plus = HydroState.from_arrays(self.grid, v0 + d * h[0].values, w0 + d * h[1].values)
        minus = HydroState.from_arrays(self.grid, v0 - d * h[0].values, w0 - d * h[1].values)
        (gp1, gp2), _ = modulation_oracle.grad_EP(plus)
        (gm1, gm2), _ = modulation_oracle.grad_EP(minus)
        fd1 = (gp1.values - gm1.values) / (2.0 * d) - c * h[1].values
        fd2 = (gp2.values - gm2.values) / (2.0 * d) - c * h[0].values
        out = hessian_apply(op, h)
        err = math.sqrt(integrate((out[0].values - fd1) ** 2 + (out[1].values - fd2) ** 2,
                                  self.grid))
        assert err <= 1e-7 * math.sqrt(integrate(fd1 * fd1 + fd2 * fd2, self.grid))

    @pytest.mark.parametrize("c", [0.3, -0.6, 0.9])
    def test_profile_is_soliton_hydro_at_the_center(self, c):
        """The operator samples Q_c and Q_c' from one jet at the offsets
        from its center: Q_c is soliton_hydro there, bit for bit."""
        op = HessianOperator(c, self.grid)
        offsets = self.grid.periodic_offset(self.grid.x, op.center)
        assert np.array_equal(op.profile, soliton_hydro(c, offsets))
        assert np.array_equal(op.profile_derivative, soliton_hydro_jet(c, offsets).dx)

    def test_translation_mode_in_kernel(self):
        op = HessianOperator(0.6, ORACLE_GRID)
        dv, dw = op.profile_derivative
        dq = (RealField(ORACLE_GRID, dv), RealField(ORACLE_GRID, dw))
        h = hessian_apply(op, dq)
        ratio = pair_l2(h) / pair_l2(dq)
        assert ratio <= 1e-6

    def test_zero_input(self):
        z = (RealField(self.grid, np.zeros(self.grid.n)),
             RealField(self.grid, np.zeros(self.grid.n)))
        out = hessian_apply(self.op, z)
        assert np.all(out[0].values == 0.0)
        assert np.all(out[1].values == 0.0)


MIRROR_GRID = Grid(n=256, dx=0.1, x_min=-12.8)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 0.99), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.none(), st.floats(-20.0, 20.0)))
def test_hessian_mirror_is_exact(c, seed, center):
    """H_{-c} S h = S H_c h bit for bit, with S(h1, h2) = (h1, -h2): four
    coefficients are even in c and the coupling -2 v w - c is odd."""
    h1, h2 = np.random.default_rng(seed).standard_normal((2, MIRROR_GRID.n))
    o1, o2 = HessianOperator(c, MIRROR_GRID, center).apply_arrays(h1, h2)
    m1, m2 = HessianOperator(-c, MIRROR_GRID, center).apply_arrays(h1, -h2)
    assert m1.tobytes() == o1.tobytes()
    assert m2.tobytes() == (-o2).tobytes()


class TestGradEP:
    def test_first_variation_matches_finite_difference(self):
        from ll_lab import energy_hydro, momentum

        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        v, w = soliton_hydro(0.5, grid.x)
        state = HydroState.from_arrays(grid, v, w)
        hv, hw = random_smooth_pair(grid, amplitude=0.02, seed=5)
        gradE, gradP = modulation_oracle.grad_EP(state)
        d = 1e-6
        plus = HydroState.from_arrays(grid, v + d * hv, w + d * hw)
        minus = HydroState.from_arrays(grid, v - d * hv, w - d * hw)
        fd_e = (energy_hydro(plus) - energy_hydro(minus)) / (2.0 * d)
        fd_p = (momentum(plus) - momentum(minus)) / (2.0 * d)
        pair_e = integrate(gradE[0].values * hv + gradE[1].values * hw, grid)
        pair_p = integrate(gradP[0].values * hv + gradP[1].values * hw, grid)
        # the FD quotient carries ~eps/d cancellation noise on top of the
        # d^2 truncation, so a 1e-8 absolute band is the honest target
        assert fd_e == pytest.approx(pair_e, abs=1e-8)
        assert fd_p == pytest.approx(pair_p, abs=1e-8)
        # grad P is exactly (w, v); no differencing needed for that claim
        assert np.array_equal(gradP[0].values, w)
        assert np.array_equal(gradP[1].values, v)

    def test_grad_vanishes_along_soliton_combination(self):
        """grad E - c grad P annihilates Q_c, the traveling-wave equation in
        variational form."""
        grid = Grid(n=2048, dx=0.05, x_min=-51.2)
        for c in (0.4, -0.7):
            v, w = soliton_hydro(c, grid.x)
            state = HydroState.from_arrays(grid, v, w)
            gradE, gradP = modulation_oracle.grad_EP(state)
            r1 = gradE[0].values - c * gradP[0].values
            r2 = gradE[1].values - c * gradP[1].values
            assert math.sqrt(integrate(r1 * r1 + r2 * r2, grid)) < 1e-8


SPLICE_PAIR = MultiSolitonConfig((SolitonParams(-0.41, -15.0), SolitonParams(0.41, 15.0)),
                                 min_separation=10.0)
SPLICE_AT = 5


@functools.lru_cache(maxsize=None)
def spliced_pair() -> tuple[Grid, Trajectory]:
    """The pair SPLICE_PAIR with a `random_smooth` perturbation (amplitude
    0.01, seed 11), evolved to t = 1 and stored every 0.1; from snapshot
    SPLICE_AT on, the snapshots come from the same evolution of another
    perturbation (amplitude 0.05, seed 48).  The speeds stay inside one
    chi lattice cell."""
    grid = Grid(n=1024, dx=0.1, x_min=-51.2)
    base = multi_soliton_sum(SPLICE_PAIR, grid)
    runs = []
    for amplitude, seed in ((0.01, 11), (0.05, 48)):
        dv, dw = random_smooth_pair(grid, amplitude=amplitude, seed=seed)
        state = HydroState.from_arrays(grid, base.v.values + dv, base.w.values + dw)
        runs.append(evolve(state, IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=100)))
    first, second = runs
    return grid, Trajectory(frame="hydro", grid=grid, times=first.times,
                            states=first.states[:SPLICE_AT] + second.states[SPLICE_AT:])


class TestModulate:
    def setup_method(self):
        self.grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        self.cfg = MultiSolitonConfig((SolitonParams(-0.5, -15.0),
                                       SolitonParams(0.5, 15.0)),
                                      min_separation=30.0)

    def test_exact_sum_needs_no_iterations(self):
        state = multi_soliton_sum(self.cfg, self.grid)
        result = modulate(state, self.cfg)
        assert result.newton_iters == 0
        assert result.orthogonality <= 1e-12
        assert result.residual_norm <= 1e-10
        assert np.allclose(result.speeds, [-0.5, 0.5], atol=1e-12)
        assert np.allclose(result.centers, [-15.0, 15.0], atol=1e-12)

    def test_translated_state_recovered(self):
        shifted = MultiSolitonConfig((SolitonParams(-0.5, -15.0 + 0.3),
                                      SolitonParams(0.5, 15.0 + 0.3)),
                                     min_separation=30.0)
        state = multi_soliton_sum(shifted, self.grid)
        result = modulate(state, self.cfg)  # guess still at -15/15
        assert result.newton_iters <= 8
        assert np.allclose(result.centers, [-15.0 + 0.3, 15.0 + 0.3], atol=1e-8)
        assert np.allclose(result.speeds, [-0.5, 0.5], atol=1e-8)

    def test_far_guess_fails_loudly(self):
        """A cold start well outside the Newton basin must raise, not return
        a wrong decomposition."""
        shifted = MultiSolitonConfig((SolitonParams(-0.5, -14.0),
                                      SolitonParams(0.5, 16.0)),
                                     min_separation=30.0)
        state = multi_soliton_sum(shifted, self.grid)
        with pytest.raises(ModulationError):
            modulate(state, self.cfg)

    def test_perturbed_state_orthogonality(self):
        state = multi_soliton_sum(self.cfg, self.grid)
        dv, dw = random_smooth_pair(self.grid, amplitude=0.01, seed=7)
        state = HydroState.from_arrays(self.grid, state.v.values + dv,
                                       state.w.values + dw)
        cache = ChiCache(self.grid)
        result = modulate(state, self.cfg, chi=cache)
        eps = result.epsilon
        assert result.orthogonality <= 1e-10 * (1.0 + x_norm(eps))
        assert x_norm(eps) <= 10.0 * 0.01
        assert np.max(np.abs(result.speeds - [-0.5, 0.5])) <= 10.0 * x_norm(eps)
        # recheck both orthogonality families; chi_j is the linear
        # interpolant of the two lattice nodes around c_j, translated to a_j
        h = CHI_LATTICE_STEP
        for j in range(2):
            c, a = result.speeds[j], result.centers[j]
            xi = self.grid.periodic_offset(self.grid.x, a)
            dvj, dwj = soliton_hydro_derivative(c, xi)
            t_dot = integrate(eps.v.values * dvj + eps.w.values * dwj, self.grid)
            k = math.floor(c / h)
            lo = negative_mode(k * h, self.grid)
            hi = negative_mode((k + 1) * h, self.grid)
            theta = (c - k * h) / h
            chi = [(1.0 - theta) * lo.chi[i].values + theta * hi.chi[i].values
                   for i in range(2)]
            c1 = shift_array(chi[0], self.grid, a - lo.center)
            c2 = shift_array(chi[1], self.grid, a - lo.center)
            n_dot = integrate(eps.v.values * c1 + eps.w.values * c2, self.grid)
            assert abs(t_dot) <= 1e-9
            assert abs(n_dot) <= 1e-9

    def test_chi_looked_up_only_at_newton_points(self):
        """One chi lookup per soliton per evaluated point: the initial guess
        and one trial point per Newton step when no step is halved."""
        grid = self.grid
        truth = MultiSolitonConfig((SolitonParams(-0.5, -14.9),
                                    SolitonParams(0.503, 15.1)), min_separation=10.0)
        guess = MultiSolitonConfig((SolitonParams(-0.5, -15.0),
                                    SolitonParams(0.5, 15.0)), min_separation=10.0)
        state = multi_soliton_sum(truth, grid)
        dv, dw = random_smooth_pair(grid, amplitude=0.01, seed=7)
        state = HydroState.from_arrays(grid, state.v.values + dv, state.w.values + dw)
        lookups = []

        class CountingCache(ChiCache):
            def mode_for(self, c):
                lookups.append(c)
                return super().mode_for(c)

        cache = CountingCache(grid)
        result = modulate(state, guess, chi=cache)
        assert result.newton_iters >= 2
        assert result.backtracks == 0
        assert len(lookups) == 2 * (result.newton_iters + 1)
        assert result.condition_evals == result.newton_iters + 1

    @pytest.mark.parametrize("shift, dc, halved", [(0.3, 0.0, False), (0.4, 0.02, True)])
    def test_jacobian_builds_counted(self, monkeypatch, shift, dc, halved):
        """``jacobian_builds`` counts every exact Jacobian the iteration
        builds, the first step of a cold start included, and every trial
        point is one evaluation: condition_evals = newton_iters + 1 +
        backtracks."""
        truth = MultiSolitonConfig((SolitonParams(-0.5 + dc, -15.0 + shift),
                                    SolitonParams(0.5 + dc, 15.0 + shift)), min_separation=30.0)
        state = multi_soliton_sum(truth, self.grid)
        jacobians = count_jacobians(monkeypatch)
        result = modulate(state, self.cfg)
        assert result.newton_iters >= 2
        assert (result.backtracks > 0) == halved
        assert 1 <= result.jacobian_builds == len(jacobians) <= result.newton_iters
        assert result.condition_evals == result.newton_iters + 1 + result.backtracks

    def test_returned_jacobian_meets_the_secant_condition(self, monkeypatch):
        """The Jacobian handed on is Broyden-updated at the last step:
        J (p_n - p_n-1) = F(p_n) - F(p_n-1), to the rounding of p_n - p_n-1
        (|J| |p| 2.2e-16 is about 1e-14 here).  Without the update it would
        miss by F(p_n) alone."""
        truth = MultiSolitonConfig((SolitonParams(-0.5, -14.9),
                                    SolitonParams(0.503, 15.1)), min_separation=10.0)
        state = multi_soliton_sum(truth, self.grid)
        points = []

        def spy(params, *args):
            out = _residual(params, *args)
            points.append((params.copy(), out[0]))
            return out

        monkeypatch.setattr(modulation, "_residual", spy)
        result, jac = modulation._modulate_raw(
            state.v.values, state.w.values, self.grid, self.cfg.speeds, self.cfg.centers,
            self.cfg.signs.astype(float), ChiCache(self.grid))
        assert result.newton_iters >= 2 and result.backtracks == 0
        (p_prev, f_prev), (p_last, f_last) = points[-2:]
        secant = np.max(np.abs(jac @ (p_last - p_prev) - (f_last - f_prev)))
        assert secant <= 1e-13 < np.max(np.abs(f_last))

    def test_inadmissible_trials_are_backtracks_not_evaluations(self):
        """From a guess 0.5 inside the pair, some line-search trial points
        leave the admissible speeds: each counts as a backtrack but not as
        an evaluation, so newton_iters + 1 + backtracks only bounds
        condition_evals."""
        guess = MultiSolitonConfig((SolitonParams(-0.5, -14.5),
                                    SolitonParams(0.5, 14.5)), min_separation=29.0)
        result = modulate(multi_soliton_sum(self.cfg, self.grid), guess)
        assert result.backtracks > 0
        assert result.condition_evals < result.newton_iters + 1 + result.backtracks

    def test_speed_out_of_range_reason(self):
        state = multi_soliton_sum(self.cfg, self.grid)
        racy = MultiSolitonConfig((SolitonParams(-0.5, -15.0),
                                   SolitonParams(0.9995, 15.0)),
                                  min_separation=30.0)
        with pytest.raises(ModulationError, match="speed out of range") as info:
            modulate(state, racy)
        assert "np.float64" not in str(info.value)

    def test_no_convergence_reason(self, monkeypatch):
        # at the default cap this state leaves the speed range instead
        monkeypatch.setattr(modulation, "MAX_NEWTON_ITERS", 2)
        dv, dw = random_smooth_pair(self.grid, amplitude=0.05, seed=3)
        state = HydroState.from_arrays(self.grid, dv, dw)  # no soliton content
        guess = MultiSolitonConfig((SolitonParams(0.5, 0.0),), min_separation=10.0)
        with pytest.raises(ModulationError, match="no convergence"):
            modulate(state, guess)


CONFIGURATIONS = [
    [(0.4, 0.0, 1)],
    [(-0.6, 0.0, -1)],
    [(-0.5, -15.0, 1), (0.5, 15.0, 1)],
    [(-0.5, -15.0, 1), (0.5, 15.0, -1)],
    [(-0.6, -25.0, 1), (0.3, 0.0, 1), (0.7, 25.0, 1)],
    [(-0.6, -25.0, -1), (0.3, 0.0, 1), (0.7, 25.0, -1)],
]


class TestConditionsJacobian:
    """The residual and Jacobian passes against the one-soliton-at-a-time
    reference evaluation, and the Jacobian against a central difference of
    the conditions, the c-column of the chi rows included: chi is linear in
    c within a lattice cell, and no point here leaves its cell."""

    grid = Grid(n=1024, dx=0.1, x_min=-51.2)

    def _setup(self, params):
        cfg = MultiSolitonConfig(tuple(SolitonParams(c, a, s) for c, a, s in params),
                                 min_separation=10.0)
        state = multi_soliton_sum(cfg, self.grid)
        dv, dw = random_smooth_pair(self.grid, amplitude=0.02, seed=5)
        perturbed = np.stack([state.v.values + dv, state.w.values + dw])
        # off the solution, so that every eps-weighted term is exercised
        p0 = np.concatenate([cfg.speeds + 3e-3, cfg.centers + 0.05])
        return perturbed, cfg.signs.astype(float), p0

    @pytest.mark.parametrize("params", CONFIGURATIONS)
    def test_matches_reference_conditions(self, params):
        perturbed, signs, p0 = self._setup(params)
        cache = ChiCache(self.grid)
        f, jac, eps = conditions(p0, perturbed, self.grid, signs, cache)
        f_ref, jac_ref, eps_ref = modulation_oracle.conditions(
            p0, perturbed, self.grid, signs, cache, 1e-3)
        assert np.max(np.abs(f - f_ref)) <= 1e-14 * np.max(np.abs(f_ref))
        assert np.max(np.abs(eps - eps_ref)) <= 1e-14 * np.max(np.abs(eps_ref))
        assert np.max(np.abs(jac - jac_ref)) <= 1e-13 * np.max(np.abs(jac_ref))

    @pytest.mark.parametrize("params", CONFIGURATIONS)
    def test_matches_central_difference(self, params):
        perturbed, signs, p0 = self._setup(params)
        cache = ChiCache(self.grid)

        def residual(p):
            return _residual(p, perturbed, self.grid, signs, cache)[0]

        _, jac, _ = conditions(p0, perturbed, self.grid, signs, cache)
        h = 1e-5
        fd = np.column_stack([(residual(p0 + h * e) - residual(p0 - h * e)) / (2.0 * h)
                              for e in np.eye(len(p0))])
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))
        # one solve per distinct |k| of the nodes c_k bracketing each speed:
        # a node c_k < 0 is the mirror image of node -k
        h = CHI_LATTICE_STEP
        nodes = {abs(math.floor(c / h) + i) for c in p0[:len(params)] for i in (0, 1)}
        assert len(cache.nodes) == len(nodes)


class TestTrackModulation:
    def _tw_trajectory(self):
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        cfg = MultiSolitonConfig((SolitonParams(0.5, 0.0),), min_separation=10.0)
        state = multi_soliton_sum(cfg, grid)
        traj = evolve(state, IntegratorConfig(dt=1e-3, t_end=2.0, sample_stride=500))
        return traj, cfg

    def test_traveling_wave_track(self):
        traj, cfg = self._tw_trajectory()
        track = track_modulation(traj, cfg)
        assert track.error is None
        assert track.n_solitons == 1
        assert np.max(np.abs(track.speeds - 0.5)) < 1e-6
        expected_centers = 0.5 * track.times
        assert np.max(np.abs(track.centers[:, 0] - expected_centers)) < 1e-6
        assert np.max(np.abs(track.center_rates[:, 0] - 0.5)) < 1e-4
        assert np.all(track.newton_iters <= 5)
        assert track.newton_iters[0] == 0
        assert np.max(track.eps_norms) < 1e-5

    def test_jacobian_builds_counted(self, monkeypatch):
        """The track's ``jacobian_builds`` is the number of exact Jacobians
        built, fewer than its Newton steps once the Jacobian is carried, and
        condition_evals = newton_iters + snapshots + backtracks."""
        traj = spliced_pair()[1]
        jacobians = count_jacobians(monkeypatch)
        track = track_modulation(traj, SPLICE_PAIR)
        assert track.error is None
        counters = track.counters
        assert counters["jacobian_builds"] == track.jacobian_builds == len(jacobians)
        assert 1 <= len(jacobians) < counters["newton_iters"]
        assert counters["condition_evals"] == (counters["newton_iters"] + len(traj)
                                               + counters["backtracks"])

    def test_carried_track_matches_exact_newton(self):
        """Every snapshot of a track with the carried Jacobian matches the
        decomposition of plain Newton with the exact Jacobian at every step,
        started from the same predictor, within 1e-10 in c and a; the
        spliced trajectory includes a refused carried step."""
        grid, traj = spliced_pair()
        track = track_modulation(traj, SPLICE_PAIR)
        assert track.error is None
        signs = SPLICE_PAIR.signs.astype(float)
        cache = ChiCache(grid)
        speeds, centers = SPLICE_PAIR.speeds, SPLICE_PAIR.centers
        for i, snap in enumerate(traj.states):
            if i > 0:
                speeds = track.speeds[i - 1]
                centers = track.centers[i - 1] + speeds * (traj.times[i] - traj.times[i - 1])
            state = np.stack([snap.v.values, snap.w.values])
            exact = modulation_oracle.exact_newton(np.concatenate([speeds, centers]),
                                                   state, grid, signs, cache)
            assert np.max(np.abs(track.speeds[i] - exact[:2])) <= 1e-10, i
            assert np.max(np.abs(track.centers[i] - exact[2:])) <= 1e-10, i

    def test_carried_step_refused_at_splice(self):
        """Where the trajectory jumps to another perturbation, the carried
        Jacobian falls short: its trial is refused, counted as one
        backtrack, and the snapshot builds the exact Jacobian once.  Before
        the splice only the first snapshot builds one."""
        grid, traj = spliced_pair()

        def track_to(m):
            head = Trajectory(frame="hydro", grid=grid, times=traj.times[:m],
                              states=traj.states[:m])
            return track_modulation(head, SPLICE_PAIR)

        before, through = track_to(SPLICE_AT), track_to(SPLICE_AT + 1)
        assert before.error is None and through.error is None
        assert (before.jacobian_builds, before.backtracks) == (1, 0)
        assert through.jacobian_builds - before.jacobian_builds == 1
        assert through.backtracks - before.backtracks == 1

    def test_snapshot_decomposition_independent_of_track_start(self):
        """Decomposing snapshot k gives the same (c, a) whether the track
        started at snapshot 0 or at snapshot k from another guess."""
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        cfg = MultiSolitonConfig((SolitonParams(-0.5, -15.0), SolitonParams(0.5, 15.0)),
                                 min_separation=10.0)
        base = multi_soliton_sum(cfg, grid)
        dv, dw = random_smooth_pair(grid, amplitude=0.02, seed=11)
        state = HydroState.from_arrays(grid, base.v.values + dv, base.w.values + dw)
        traj = evolve(state, IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=250))
        full = track_modulation(traj, cfg)
        assert full.error is None
        k = 3
        late = Trajectory(frame="hydro", grid=grid, times=traj.times[k:],
                          states=traj.states[k:])
        guess = MultiSolitonConfig(tuple(
            SolitonParams(c + 4e-3, a + c * traj.times[k])
            for c, a in zip(cfg.speeds, cfg.centers)), min_separation=10.0)
        restarted = track_modulation(late, guess)
        assert restarted.error is None
        assert np.max(np.abs(restarted.speeds[0] - full.speeds[k])) <= 1e-9
        assert np.max(np.abs(restarted.centers[0] - full.centers[k])) <= 1e-9

    def test_error_carries_snapshot_position(self):
        """A lost decomposition ends the track: the rows before it are kept
        and the error names the time of the failing snapshot."""
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        cfg = MultiSolitonConfig((SolitonParams(0.5, 0.0),), min_separation=10.0)
        good = multi_soliton_sum(cfg, grid)
        vacuum = HydroState.from_arrays(grid, np.zeros(grid.n), np.zeros(grid.n))
        traj = Trajectory(frame="hydro", grid=grid, times=np.array([0.0, 0.25]),
                          states=(good, vacuum))
        track = track_modulation(traj, cfg)
        assert len(track.times) == 1
        assert track.speeds.shape == (1, 1)
        assert track.error.startswith("at t = 0.25")

    def test_prepared_cache_gives_the_cold_track(self):
        """A track given a cache already prepared for the guess speeds
        returns the track of a new cache bit for bit, its counters and chi
        nodes included: the track's first residual pass looks up exactly
        the prepared cells."""
        grid, traj = spliced_pair()
        cold = track_modulation(traj, SPLICE_PAIR)
        chi = ChiCache(grid)
        chi.prepare(SPLICE_PAIR.speeds)
        warm = track_modulation(traj, SPLICE_PAIR, chi)
        assert cold.error is None and warm.error is None
        for name in ("times", "speeds", "centers", "eps_norms", "orthogonality",
                     "newton_iters"):
            assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name
        assert warm.counters == cold.counters
        assert warm.chi_nodes == cold.chi_nodes

    def test_cache_on_another_grid_rejected(self):
        grid, traj = spliced_pair()
        other = Grid(n=grid.n, dx=grid.dx, x_min=grid.x_min + grid.dx)
        with pytest.raises(ValueError, match="chi cache is on"):
            track_modulation(traj, SPLICE_PAIR, ChiCache(other))

    def test_cache_with_nodes_off_the_guess_cells_rejected(self):
        """A cache that served c = 0.605 holds the nodes 0.6 and 0.62, which
        a c = 0.5 track does not look up: the track refuses it rather than
        list those nodes in its ``chi_nodes``.  A new cache gives the two
        nodes of the cell of 0.5."""
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        cfg = MultiSolitonConfig((SolitonParams(0.5, 0.0),), min_separation=10.0)
        traj = evolve(multi_soliton_sum(cfg, grid),
                      IntegratorConfig(dt=1e-3, t_end=0.5, sample_stride=250))
        used = ChiCache(grid)
        used.mode_for(0.605)
        with pytest.raises(ValueError, match="off the guess speeds' cells"):
            track_modulation(traj, cfg, used)
        cold = track_modulation(traj, cfg)
        assert [node["c"] for node in cold.chi_nodes] == [0.5, 0.52]
        assert cold.counters["chi_solves"] == 2

    def test_empty_trajectory_rejected(self):
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        cfg = MultiSolitonConfig((SolitonParams(0.5, 0.0),), min_separation=10.0)
        traj = Trajectory(frame="hydro", grid=grid, times=np.array([]), states=())
        with pytest.raises(ValueError):
            track_modulation(traj, cfg)

    def test_track_csv_columns(self, tmp_path):
        traj, cfg = self._tw_trajectory()
        track = track_modulation(traj, cfg)
        assert list(track.columns) == ["t", "c_1", "a_1", "eps_xnorm", "iters"]
        path = tmp_path / "track.csv"
        with open(path, "w", newline="") as fh:
            write_table(fh, track.columns)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,c_1,a_1,eps_xnorm,iters"
        assert len(lines) == len(track.times) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.5, abs=1e-8)
        # the Newton iteration count is written as an integer
        assert [int(line.split(",")[-1]) for line in lines[1:]] == list(track.newton_iters)
        assert all("." not in line.split(",")[-1] for line in lines[1:])


class TestChiCache:
    grid = Grid(n=1024, dx=0.1, x_min=-51.2)

    def test_reuse_within_cell(self):
        """Speeds in one lattice cell share its two nodes; a speed in the
        next cell solves only the node it adds."""
        cache = ChiCache(self.grid)
        cache.mode_for(0.605)
        assert len(cache.nodes) == 2
        cache.mode_for(0.617)
        assert len(cache.nodes) == 2
        cache.mode_for(0.625)
        assert len(cache.nodes) == 3
        assert sum(node.iterations for node in cache.nodes) >= len(cache.nodes)

    @pytest.mark.parametrize("order", [(-0.41, 0.41), (0.41, -0.41)])
    def test_lookup_order_does_not_matter(self, order):
        """The positive node is solved whichever sign is looked up first, so
        the spectra, the solved nodes and the count are bit-identical."""
        fresh, used = ChiCache(self.grid), ChiCache(self.grid)
        want = {c: fresh.mode_for(c) for c in (-0.41, 0.41)}
        got = {c: used.mode_for(c) for c in order}
        for c in (-0.41, 0.41):
            for a, b in zip(got[c], want[c]):
                assert a.tobytes() == b.tobytes()
        assert len(used.nodes) == len(fresh.nodes) == 2
        assert [node.c for node in used.nodes] == [0.4, 0.42]
        for a, b in zip(used.nodes, fresh.nodes):
            assert (a.rayleigh, a.residual, a.iterations) == (b.rayleigh, b.residual,
                                                              b.iterations)
            assert a.chi[0].values.tobytes() == b.chi[0].values.tobytes()
            assert a.chi[1].values.tobytes() == b.chi[1].values.tobytes()

    def test_prepare_solves_what_mode_for_looks_up(self, monkeypatch):
        """``prepare`` solves the nodes of the cells that ``mode_for`` looks
        up, so the later lookups solve nothing and serve the spectra of a
        new cache bit for bit."""
        speeds = (-0.41, 0.605)
        fresh = ChiCache(self.grid)
        want = [fresh.mode_for(c) for c in speeds]
        prepared = ChiCache(self.grid)
        prepared.prepare(speeds)
        assert [node.c for node in prepared.nodes] == [node.c for node in fresh.nodes]

        def no_solve(*args, **kwargs):
            raise AssertionError("a prepared cell was solved again")

        monkeypatch.setattr(modulation, "negative_mode", no_solve)
        for c, (hat, slope) in zip(speeds, want):
            got_hat, got_slope = prepared.mode_for(c)
            assert got_hat.tobytes() == hat.tobytes()
            assert got_slope.tobytes() == slope.tobytes()

    @pytest.mark.parametrize("speeds", [(0.0005,), (0.5, 0.3), (0.4, 0.9995)])
    def test_prepare_skips_speeds_that_fail_the_guard(self, monkeypatch, speeds):
        """Speeds out of range or out of order fail the residual pass's guard
        before any lookup, so ``prepare`` solves nothing for them."""
        calls = []
        monkeypatch.setattr(modulation, "negative_mode", lambda *args: calls.append(args))
        cache = ChiCache(self.grid)
        cache.prepare(speeds)
        assert calls == [] and cache.nodes == []

    def test_prepare_leaves_a_failed_solve_to_the_track(self, monkeypatch):
        """A solve that fails inside ``prepare`` is not raised, and no node
        past it is solved: the track's first pass meets it at the same
        node."""
        calls = []

        def failing(c, grid, center=None):
            calls.append(c)
            raise ModulationError("negative direction not certified")

        monkeypatch.setattr(modulation, "negative_mode", failing)
        cache = ChiCache(self.grid)
        cache.prepare((-0.41, 0.605))
        assert calls == [pytest.approx(0.42)] and cache.nodes == []

    def test_mirrored_node_is_certified(self):
        """The spectrum of a node c_k < 0 is that of S chi_{|c_k|}, equal bit
        for bit to the rfft of S chi; transformed back, its eigen-residual
        under the low-pass H_{c_k}, recomputed here, meets the solver's
        2e-7 and its Rayleigh quotient is the solved node's."""
        cache = ChiCache(self.grid)
        mirror = cache._spectrum(-20)
        assert [node.c for node in cache.nodes] == [0.4]
        node = cache.nodes[0]
        s_chi = np.stack([node.chi[0].values, -node.chi[1].values])
        assert mirror.tobytes() == np.fft.rfft(s_chi).tobytes()
        grid, n = self.grid, self.grid.n
        op = HessianOperator(-20 * CHI_LATTICE_STEP, grid)
        x = np.fft.irfft(mirror, n=n).reshape(-1)
        x /= np.linalg.norm(x)
        h1, h2 = op.apply_arrays(x[:n], x[n:])
        hx = np.concatenate([lowpass_array(h1, grid), lowpass_array(h2, grid)])
        theta = float(x @ hx)
        assert theta < 0.0
        assert np.linalg.norm(hx - theta * x) <= 2e-7
        assert theta == pytest.approx(node.rayleigh, abs=1e-10)

    def test_node_speed_gives_the_node_mode(self):
        node = negative_mode(0.6, self.grid)
        cache = ChiCache(self.grid)
        assert cache.center == node.center
        rows = np.fft.irfft(cache.mode_for(0.6)[0], n=self.grid.n)
        assert rows.shape == (2, self.grid.n)
        assert np.max(np.abs(rows[0] - node.chi[0].values)) < 1e-12
        assert np.max(np.abs(rows[1] - node.chi[1].values)) < 1e-12

    def test_conditions_bit_identical_after_other_speeds(self):
        """chi depends on c alone: the conditions at p do not depend on which
        speeds the cache served before."""
        cfg = MultiSolitonConfig((SolitonParams(-0.5, -15.0), SolitonParams(0.5, 15.0)),
                                 min_separation=10.0)
        state = multi_soliton_sum(cfg, self.grid)
        dv, dw = random_smooth_pair(self.grid, amplitude=0.02, seed=5)
        perturbed = np.stack([state.v.values + dv, state.w.values + dw])
        signs = cfg.signs.astype(float)
        p = np.concatenate([cfg.speeds + 3e-3, cfg.centers + 0.05])
        used = ChiCache(self.grid)
        for c in (0.47, -0.53, 0.51, -0.49, 0.3):
            used.mode_for(c)
        f_fresh, j_fresh, _ = conditions(p, perturbed, self.grid, signs, ChiCache(self.grid))
        f_used, j_used, _ = conditions(p, perturbed, self.grid, signs, used)
        assert np.array_equal(f_fresh, f_used)
        assert np.array_equal(j_fresh, j_used)

    @pytest.mark.parametrize("c", [-0.42, 0.38, 0.6])
    def test_adjacent_nodes_overlap(self, c):
        lo = negative_mode(c, self.grid)
        hi = negative_mode(c + CHI_LATTICE_STEP, self.grid)
        assert pair_dot(lo.chi, hi.chi, self.grid) > 0.9

    @pytest.mark.parametrize("c", [0.9985, -0.9985, 0.0015, -0.0015])
    def test_edge_cells_stay_admissible(self, c):
        """Near |c| = 0 and |c| = 1 the cell extrapolates from admissible
        nodes, so a lookup yields finite rows or a ModulationError."""
        try:
            rows = np.fft.irfft(np.concatenate(ChiCache(self.grid).mode_for(c)), n=self.grid.n)
        except ModulationError:
            return
        assert np.all(np.isfinite(rows))
