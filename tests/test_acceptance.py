"""End-to-end acceptance gate.

Ten criteria, each printing one PASS/FAIL line with the measured numbers
(run ``pytest tests/test_acceptance.py -v -s`` to see them).  The heavy
shared runs (the ordered pair, the between-bump scenario, T = 50 each)
execute once per module.  Whole file runs in a few minutes.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from ll_lab import (
    Grid,
    HydroState,
    HessianOperator,
    IntegratorConfig,
    MultiSolitonConfig,
    RealField,
    SolitonParams,
    apply_B,
    apply_L,
    energy_hydro,
    evolve,
    extract_hydro,
    hessian_apply,
    integrate,
    load_scenario,
    modulate,
    momentum,
    multi_soliton_sum,
    negative_mode,
    random_smooth_pair,
    reconstruct_spin,
    rhs_hll,
    run_scenario,
    run_virial_audit,
    soliton_energy,
    soliton_hydro,
    soliton_momentum,
    soliton_nu,
    virial_linear_identity,
    x_norm,
)

from dynamics_oracle import apply_J
from field_oracle import shift_array

CONFIG_DIR = Path(__file__).resolve().parents[1] / "demos" / "configs"


def _verdict(tag, ok, detail):
    line = f"{tag}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


def _by_name(report, name):
    for v in report.verdicts:
        if v.name == name:
            return v
    raise AssertionError(f"no verdict named {name!r} in {[v.name for v in report.verdicts]}")


@pytest.fixture(scope="module")
def pair_report():
    report = run_scenario(load_scenario(CONFIG_DIR / "pair-ordered.json"))
    assert report.error is None, report.error
    return report


@pytest.fixture(scope="module")
def between_report():
    report = run_scenario(load_scenario(CONFIG_DIR / "between-bump.json"))
    assert report.error is None, report.error
    return report


@pytest.fixture(scope="module")
def single_report():
    report = run_scenario(load_scenario(CONFIG_DIR / "single-free.json"))
    assert report.error is None, report.error
    return report


def test_ac01_closed_forms():
    """Soliton energy 2nu and momentum 2*arctan(nu/c) match quadrature to
    1e-8 at dx = 0.05 on a period-200 box, in under a second."""
    grid = Grid(n=4000, dx=0.05, x_min=-100.0)
    t0 = time.perf_counter()
    worst = 0.0
    for c in (0.3, 0.6, 0.9):
        nu = soliton_nu(c)
        v, w = soliton_hydro(c, grid.x)
        state = HydroState.from_arrays(grid, v, w)
        worst = max(
            worst,
            abs(soliton_energy(c) - 2.0 * nu),
            abs(soliton_momentum(c) - 2.0 * math.atan(nu / c)),
            abs(energy_hydro(state) - soliton_energy(c)),
            abs(momentum(state) - soliton_momentum(c)),
        )
    elapsed = time.perf_counter() - t0
    _verdict("AC01 closed forms", worst <= 1e-8 and elapsed < 1.0,
             f"max |error| {worst:.3e} <= 1e-08, {elapsed:.2f}s")


def test_ac02_traveling_wave_transport():
    """Q_0.6 rides to Q(. - 6) at T = 10 in both frames with conserved
    energy and momentum."""
    grid = Grid(n=1024, dx=0.1, x_min=-51.2)
    v0, w0 = soliton_hydro(0.6, grid.x)
    hydro0 = HydroState.from_arrays(grid, v0, w0)
    config = IntegratorConfig(dt=1e-3, t_end=10.0, sample_stride=10000)
    vt = shift_array(v0, grid, 6.0)
    wt = shift_array(w0, grid, 6.0)
    ref = math.sqrt(integrate(vt * vt + wt * wt, grid))
    e0 = energy_hydro(hydro0)
    p0 = momentum(hydro0)

    worst_shape = 0.0
    worst_drift = 0.0
    for state0 in (hydro0, reconstruct_spin(hydro0)):
        traj = evolve(state0, config)
        assert traj.error is None, traj.error
        final = traj.states[-1]
        if not isinstance(final, HydroState):
            final = extract_hydro(final)
        dv = final.v.values - vt
        dw = final.w.values - wt
        worst_shape = max(worst_shape,
                          math.sqrt(integrate(dv * dv + dw * dw, grid)) / ref)
        worst_drift = max(worst_drift,
                          abs(energy_hydro(final) - e0) / (1.0 + abs(e0)),
                          abs(momentum(final) - p0) / (1.0 + abs(p0)))
    _verdict("AC02 traveling wave", worst_shape <= 1e-3 and worst_drift <= 1e-8,
             f"shape error {worst_shape:.3e} <= 1e-03, drift {worst_drift:.3e} <= 1e-08")


def test_ac03_hamiltonian_splitting():
    """rhs agrees with J(L + B) to 1e-12 relative sup-norm on 100 random
    smooth states."""
    grid = Grid(n=512, dx=0.2, x_min=-51.2)
    worst = 0.0
    for seed in range(100):
        amplitude = 0.05 + 0.35 * (seed % 7) / 6.0
        dv, dw = random_smooth_pair(grid, amplitude, seed)
        state = HydroState.from_arrays(grid, dv, dw)
        r1, r2 = rhs_hll(state)
        l1, l2 = apply_L(state)
        b1, b2 = apply_B(state)
        s1, s2 = apply_J((RealField(grid, l1.values + b1.values),
                          RealField(grid, l2.values + b2.values)))
        scale = 1.0 + max(np.max(np.abs(r1.values)), np.max(np.abs(r2.values)))
        err = max(np.max(np.abs(r1.values - s1.values)),
                  np.max(np.abs(r2.values - s2.values)))
        worst = max(worst, err / scale)
    _verdict("AC03 J(L+B) splitting", worst <= 1e-12,
             f"max relative sup error {worst:.3e} <= 1e-12 over 100 states")


def test_ac04_virial_identity_and_coercivity():
    """The linear virial identity holds to 1e-9 on a Gaussian suite and the
    rate clears the quarter-X-norm floor along ten small random flows."""
    grid = Grid(n=2048, dx=0.05, x_min=-51.2)
    worst_rel = 0.0
    for a, b, width in ((0.3, 0.2, 1.0), (0.5, -0.4, 2.0), (-0.45, 0.35, 1.5),
                        (0.25, 0.5, 0.7), (0.6, 0.1, 3.0)):
        xi = grid.x / width
        env = np.exp(-0.5 * xi * xi)
        state = HydroState.from_arrays(grid, a * env, b * xi * env)
        lhs, rhs = virial_linear_identity(state)
        worst_rel = max(worst_rel, abs(lhs - rhs) / (1.0 + abs(rhs)))

    # the shipped audit at its defaults: ll-lab virial-audit
    report, _ = run_virial_audit(0.01, 7, 10, 10.0)
    assert report.error is None, report.error
    assert len(report.verdicts) == 10
    margin_min = min(v.measured for v in report.verdicts)
    _verdict("AC04 virial identity + coercivity",
             worst_rel <= 1e-9 and margin_min >= 0.0,
             f"identity mismatch {worst_rel:.3e} <= 1e-09, "
             f"min margin {margin_min:.3e} >= 0 over 10 runs x T=10")


def test_ac05_single_negative_direction():
    """H_c has exactly one certified negative eigenvalue for six speeds, its
    kernel contains the translation mode, and the Rayleigh quotient moves by
    less than 1e-4 under halving dx.

    The kernel residual is measured on the refined grid: the near-vacuum
    1/(1-v^2)^2 terms of the deep |c| = 0.3 profile (core margin 0.09) alias
    at the 7e-6 level at dx = 0.05 and drop below 1e-7 at dx = 0.025.
    """
    coarse = Grid(n=2048, dx=0.05, x_min=-51.2)
    fine = Grid(n=4096, dx=0.025, x_min=-51.2)
    counts_ok = True
    worst_kernel = 0.0
    worst_shift = 0.0
    for c in (0.3, -0.3, 0.6, -0.6, 0.9, -0.9):
        mode_c = negative_mode(c, coarse)
        mode_f = negative_mode(c, fine)
        counts_ok = counts_ok and mode_c.negative_count == 1 and mode_f.negative_count == 1
        worst_shift = max(worst_shift, abs(mode_f.rayleigh - mode_c.rayleigh))
        op = HessianOperator(c, fine)
        dv, dw = op.profile_derivative
        h = (RealField(fine, dv), RealField(fine, dw))
        hv, hw = hessian_apply(op, h)
        num = math.sqrt(integrate(hv.values ** 2 + hw.values ** 2, fine))
        den = math.sqrt(integrate(dv * dv + dw * dw, fine))
        worst_kernel = max(worst_kernel, num / den)
    _verdict("AC05 negative direction",
             counts_ok and worst_kernel <= 1e-6 and worst_shift <= 1e-4,
             f"count 1 at all speeds: {counts_ok}, kernel ratio {worst_kernel:.3e} "
             f"<= 1e-06, Rayleigh shift {worst_shift:.3e} <= 1e-04")


def test_ac06_modulation_decomposition(pair_report, between_report, single_report):
    """Newton modulation: exact sums are fixed points to 1e-12, a translated
    sum is recovered to 1e-8, and warm-started tracking along every shipped
    scenario needs at most five iterations per snapshot."""
    grid = Grid(n=2048, dx=0.1, x_min=-102.4)
    guess = MultiSolitonConfig(
        params=(SolitonParams(c=-0.4, a=-20.0), SolitonParams(c=0.4, a=20.0)),
        min_separation=40.0)

    exact = modulate(multi_soliton_sum(guess, grid), guess)
    exact_err = max(np.max(np.abs(exact.speeds - np.array([-0.4, 0.4]))),
                    np.max(np.abs(exact.centers - np.array([-20.0, 20.0]))),
                    exact.orthogonality,
                    x_norm(exact.epsilon))

    moved = MultiSolitonConfig(
        params=(SolitonParams(c=-0.4, a=-19.75), SolitonParams(c=0.4, a=20.25)),
        min_separation=40.0)
    recovered = modulate(multi_soliton_sum(moved, grid), guess)
    moved_err = max(np.max(np.abs(recovered.speeds - np.array([-0.4, 0.4]))),
                    np.max(np.abs(recovered.centers - np.array([-19.75, 20.25]))))

    iters_max = max(int(np.max(report.track.newton_iters))
                    for report in (pair_report, between_report, single_report))
    _verdict("AC06 modulation",
             exact_err <= 1e-12 and moved_err <= 1e-8 and iters_max <= 5,
             f"exact-sum error {exact_err:.3e} <= 1e-12, translated recovery "
             f"{moved_err:.3e} <= 1e-08, warm-start iters max {iters_max} <= 5")


def test_ac07_ordered_pair_stability(pair_report):
    """Perturbed ordered pair over T = 50: epsilon stays below 10x the
    initial amplitude, ordering keeps a gap >= L - 1, and center rates track
    the speeds within 10 ||eps||_X."""
    eps = _by_name(pair_report, "eps_sup")
    gap = _by_name(pair_report, "ordering_gap")
    rate = _by_name(pair_report, "center_rate_margin")
    ok = eps.passed and gap.passed and rate.passed
    _verdict("AC07 pair stability", ok,
             f"sup eps {eps.measured:.3e} <= {eps.threshold:g}, "
             f"min gap {gap.measured:.4g} >= {gap.threshold:g}, "
             f"rate margin {rate.measured:.3e} <= 0")


def test_ac08_momentum_monotonicity(pair_report):
    """Localized momentum is almost monotone for y0 in {5, 10, 20} on both
    soliton-centered and midpoint weights, and the finite-difference rate
    matches the closed formula to 1e-6."""
    nu = soliton_nu(0.4)
    defects = [_by_name(pair_report, f"monotonicity_y{y0:g}") for y0 in (5.0, 10.0, 20.0)]
    fd = _by_name(pair_report, "rate_fd_match")
    ok = all(v.passed for v in defects) and fd.passed
    amplitudes = ", ".join(
        f"y0={y0:g}: A={abs(v.measured) / math.exp(-nu * y0 / 16.0):.2f}"
        for y0, v in zip((5.0, 10.0, 20.0), defects))
    _verdict("AC08 monotonicity", ok,
             f"{amplitudes} (A <= 10), rate FD mismatch {fd.measured:.3e} <= 1e-06")


def test_ac09_between_bump_decay(between_report):
    """A bump seeded between the pair loses at least half of its windowed
    X-norm by T = 50."""
    decay = _by_name(between_report, "between_decay")
    _verdict("AC09 between-bump decay", decay.passed,
             f"window norm ratio {decay.measured:.3e} <= {decay.threshold:g}")


def test_ac10_frame_equivalence():
    """A perturbed soliton evolved in the spin frame and in the hydrodynamic
    frame lands on the same fields at T = 5 to 1e-6 sup-norm."""
    grid = Grid(n=2048, dx=0.05, x_min=-51.2)
    v0, w0 = soliton_hydro(0.6, grid.x)
    dv, dw = random_smooth_pair(grid, 0.01, seed=7, max_mode=16,
                                sigma=grid.period / 10.0)
    state0 = HydroState.from_arrays(grid, v0 + dv, w0 + dw)
    config = IntegratorConfig(dt=2.5e-4, t_end=5.0, sample_stride=20000)

    hydro_traj = evolve(state0, config)
    spin_traj = evolve(reconstruct_spin(state0), config)
    assert hydro_traj.error is None, hydro_traj.error
    assert spin_traj.error is None, spin_traj.error

    hydro_final = hydro_traj.states[-1]
    spin_final = extract_hydro(spin_traj.states[-1])
    sup = max(np.max(np.abs(hydro_final.v.values - spin_final.v.values)),
              np.max(np.abs(hydro_final.w.values - spin_final.w.values)))
    _verdict("AC10 frame equivalence", sup <= 1e-6,
             f"sup |hydro - spin| {sup:.3e} <= 1e-06 at T=5")
