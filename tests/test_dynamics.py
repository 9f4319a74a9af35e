"""Time integration: right-hand sides, the J/L/B decomposition, RK4 stepping,
trajectory bookkeeping, and the on-disk format."""

import csv
import math

import numpy as np
import pytest

from ll_lab import (BlowupError, Grid, HydroState, IntegratorConfig,
                    MultiSolitonConfig, SolitonParams, Trajectory, apply_B,
                    apply_L, energy_hydro, evolve, load_trajectory,
                    momentum, multi_soliton_sum, reconstruct_spin, rhs_hll,
                    rhs_spin, save_trajectory, soliton_hydro, soliton_spin_state,
                    step_rk4)
from ll_lab import dynamics
from ll_lab.grid import VACUUM_GUARD, VacuumBreakdown
from ll_lab.scenarios import random_smooth_pair

import dynamics_oracle as oracle
from dynamics_oracle import apply_J
from field_oracle import shift_array


def soliton_state(c, grid, a=0.0):
    v, w = soliton_hydro(c, grid.periodic_offset(grid.x, a))
    return HydroState.from_arrays(grid, v, w)


class TestIntegratorConfig:
    def test_accepts_sane_values(self):
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-3, t_end=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=0)


class TestRhsDecomposition:
    """rhs_hll must equal J applied to (L + B) exactly; this is the flux-form
    versus operator-form consistency check."""

    def test_seeded_states(self):
        grid = Grid.centered(512, 0.2)
        rng = np.random.default_rng(2024)
        for trial in range(20):
            amp = rng.uniform(0.05, 0.4)
            dv, dw = random_smooth_pair(grid, amplitude=amp, seed=int(rng.integers(1 << 30)))
            state = HydroState.from_arrays(grid, dv, dw)
            r1, r2 = rhs_hll(state)
            lv, lw = apply_L(state)
            bv, bw = apply_B(state)
            from ll_lab import RealField

            j1, j2 = apply_J((RealField(grid, lv.values + bv.values),
                              RealField(grid, lw.values + bw.values)))
            scale = 1.0 + max(np.max(np.abs(r1.values)), np.max(np.abs(r2.values)))
            err = max(np.max(np.abs(r1.values - j1.values)),
                      np.max(np.abs(r2.values - j2.values)))
            assert err <= 1e-12 * scale, f"trial {trial}"

    def test_vacuum_rhs_is_zero(self):
        grid = Grid.centered(128, 0.25)
        state = HydroState.from_arrays(grid, np.zeros(grid.n), np.zeros(grid.n))
        r1, r2 = rhs_hll(state)
        assert np.max(np.abs(r1.values)) == 0.0
        assert np.max(np.abs(r2.values)) == 0.0

    def test_spin_rhs_tangency(self):
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        state = reconstruct_spin(soliton_state(0.6, grid))
        rhs = rhs_spin(state)
        dots = np.sum(state.m * rhs, axis=1)
        assert np.max(np.abs(dots)) < 1e-10


class TestTravelingWaveTransport:
    def setup_method(self):
        self.grid = Grid(n=1024, dx=0.1, x_min=-51.2)

    def test_profile_translates_at_speed_c(self):
        c = 0.5
        state = soliton_state(c, self.grid)
        traj = evolve(state, IntegratorConfig(dt=1e-3, t_end=1.0, sample_stride=1000))
        final = traj.states[-1]
        v_ref = shift_array(state.v.values, self.grid, c * 1.0)
        w_ref = shift_array(state.w.values, self.grid, c * 1.0)
        rel = (np.linalg.norm(final.v.values - v_ref)
               / np.linalg.norm(v_ref))
        assert rel < 1e-8
        assert np.max(np.abs(final.w.values - w_ref)) < 1e-6

    def test_invariants_drift(self):
        state = soliton_state(-0.7, self.grid)
        e0, p0 = energy_hydro(state), momentum(state)
        traj = evolve(state, IntegratorConfig(dt=1e-3, t_end=2.0, sample_stride=2000))
        final = traj.states[-1]
        assert abs(energy_hydro(final) - e0) <= 1e-10 * e0
        assert abs(momentum(final) - p0) <= 1e-10 * (1.0 + abs(p0))


class TestSymmetries:
    def setup_method(self):
        self.grid = Grid.centered(512, 0.2)

    def test_time_reversal_via_w_flip(self):
        """(v, w) -> (v, -w) conjugates the forward and backward flows, so
        evolve, flip, evolve, flip returns the initial data."""
        dv, dw = random_smooth_pair(self.grid, amplitude=0.1, seed=9)
        state = HydroState.from_arrays(self.grid, dv, dw)
        cfg = IntegratorConfig(dt=2e-3, t_end=0.5, sample_stride=250)
        fwd = evolve(state, cfg).states[-1]
        flipped = HydroState.from_arrays(self.grid, fwd.v.values, -fwd.w.values)
        back = evolve(flipped, cfg).states[-1]
        assert np.max(np.abs(back.v.values - dv)) < 1e-8
        assert np.max(np.abs(back.w.values + dw)) < 1e-8

    def test_step_rk4_negative_dt_inverts(self):
        dv, dw = random_smooth_pair(self.grid, amplitude=0.1, seed=21)
        state = HydroState.from_arrays(self.grid, dv, dw)
        ahead = step_rk4(state, 1e-3)
        back = step_rk4(ahead, -1e-3)
        assert np.max(np.abs(back.v.values - state.v.values)) < 1e-9
        assert np.max(np.abs(back.w.values - state.w.values)) < 1e-9

    def test_spin_norm_preserved(self):
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        state = reconstruct_spin(soliton_state(0.6, grid))
        traj = evolve(state, IntegratorConfig(dt=1e-3, t_end=0.5, sample_stride=100))
        for snap in traj.states:
            norms = np.linalg.norm(snap.m, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestFusedPathBits:
    """The batched transforms and buffered stage sums of ``dynamics`` give
    the same bits as the reference in ``dynamics_oracle``, which makes one
    transform per derivative and one temporary per operation.  The hydro RK4
    carries the rfft spectrum of the state, which is exact in exact
    arithmetic, so its snapshots match the reference to rounding."""

    def _perturbed_pair(self):
        grid = Grid(n=2048, dx=0.1, x_min=-102.4)
        cfg = MultiSolitonConfig((SolitonParams(-0.4, -20.0), SolitonParams(0.4, 20.0)),
                                 min_separation=40.0)
        base = multi_soliton_sum(cfg, grid)
        dv, dw = random_smooth_pair(grid, amplitude=0.01, seed=7)
        return HydroState.from_arrays(grid, base.v.values + dv, base.w.values + dw)

    def _assert_rhs_equal(self, state):
        """rhs_hll is the irfft of the reference's spectral right-hand side
        at the rfft of (v, w), bit for bit."""
        grid = state.grid
        got = rhs_hll(state)
        want = oracle._spectral_rhs(np.fft.rfft(state.v.values), np.fft.rfft(state.w.values),
                                    grid)
        for field, spectrum in zip(got, want):
            assert np.array_equal(field.values, np.fft.irfft(spectrum, n=grid.n))

    def test_rhs_on_perturbed_pair(self):
        self._assert_rhs_equal(self._perturbed_pair())

    def test_rhs_near_vacuum_guard(self):
        grid = Grid.centered(512, 0.1)
        state = soliton_state(0.002, grid)
        assert VACUUM_GUARD < state.vacuum_margin() < 5.0 * VACUUM_GUARD
        self._assert_rhs_equal(state)
        below = soliton_state(0.0009, grid)
        assert below.vacuum_margin() < VACUUM_GUARD
        with pytest.raises(VacuumBreakdown):
            rhs_hll(below)
        with pytest.raises(VacuumBreakdown):
            oracle._spectral_rhs(np.fft.rfft(below.v.values), np.fft.rfft(below.w.values), grid)

    def test_hydro_steps(self):
        state = self._perturbed_pair()
        for _ in range(200):
            ahead = step_rk4(state, 1e-3)
            v, w = oracle._rk4_hydro(state.v.values, state.w.values, state.grid, 1e-3)
            assert np.max(np.abs(ahead.v.values - v)) <= 1e-12
            assert np.max(np.abs(ahead.w.values - w)) <= 1e-12
            state = ahead

    def test_spectral_steps(self):
        """The spectral RK4 gives the bits of the one-transform reference.
        Since i*k vanishes at the DC and Nyquist bins, the flux form leaves
        those bins of (v^, w^) exactly as they started: the integrals of v
        and w are conserved to the last bit."""
        state = self._perturbed_pair()
        stepper = dynamics._HydroStepper(state)
        vhat, what = stepper.y
        edges = stepper.y[:, [0, -1]].copy()
        for _ in range(200):
            stepper.advance(1e-3)
            vhat, what = oracle._rk4_spectral(vhat, what, state.grid, 1e-3)
            assert np.array_equal(stepper.y[0], vhat)
            assert np.array_equal(stepper.y[1], what)
            assert np.array_equal(stepper.y[:, [0, -1]], edges)

    def test_hydro_evolve_snapshots(self):
        """A stable strided run stores the irfft of the spectral reference's
        iterates, bit for bit."""
        state = self._perturbed_pair()
        grid = state.grid
        traj = evolve(state, IntegratorConfig(dt=1e-3, t_end=0.05, sample_stride=7))
        assert traj.error is None
        vhat, what = np.fft.rfft(state.v.values), np.fft.rfft(state.w.values)
        snaps = iter(traj.states[1:])
        for step in range(1, 51):
            vhat, what = oracle._rk4_spectral(vhat, what, grid, 1e-3)
            if step % 7 == 0 or step == 50:
                snap = next(snaps)
                assert np.array_equal(snap.v.values, np.fft.irfft(vhat, n=grid.n))
                assert np.array_equal(snap.w.values, np.fft.irfft(what, n=grid.n))
        assert next(snaps, None) is None

    @pytest.mark.parametrize("c, sector", [((-0.4, 0.4), 0), ((0.6,), 1)])
    def test_spin_rhs(self, c, sector):
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        params = tuple(SolitonParams(cj, 15.0 * (j - 0.5 * (len(c) - 1)))
                       for j, cj in enumerate(c))
        spin = reconstruct_spin(multi_soliton_sum(MultiSolitonConfig(params, 10.0), grid))
        assert spin.phase_sector == sector
        assert np.array_equal(rhs_spin(spin), oracle._spin_rhs_arrays(spin.m, grid, sector))

    @pytest.mark.parametrize("c, sector", [((-0.4, 0.4), 0), ((0.6,), 1)])
    def test_spin_steps(self, c, sector):
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        params = tuple(SolitonParams(cj, 15.0 * (j - 0.5 * (len(c) - 1)))
                       for j, cj in enumerate(c))
        spin = reconstruct_spin(multi_soliton_sum(MultiSolitonConfig(params, 10.0), grid))
        assert spin.phase_sector == sector
        m = spin.m
        for _ in range(200):
            ahead = step_rk4(spin, 2e-3)
            m = oracle._rk4_spin(m, grid, sector, 2e-3)
            assert np.array_equal(ahead.m, m)
            spin = ahead

    @pytest.mark.parametrize("c, sector", [((-0.4, 0.4), 0), ((0.6,), 1)])
    def test_spin_evolve_snapshots(self, c, sector):
        """A strided spin-frame run stores the reference's iterates, bit for
        bit, in the sector of its initial state."""
        grid = Grid(n=1024, dx=0.1, x_min=-51.2)
        params = tuple(SolitonParams(cj, 15.0 * (j - 0.5 * (len(c) - 1)))
                       for j, cj in enumerate(c))
        spin = reconstruct_spin(multi_soliton_sum(MultiSolitonConfig(params, 10.0), grid))
        assert spin.phase_sector == sector
        traj = evolve(spin, IntegratorConfig(dt=2e-3, t_end=0.1, sample_stride=7))
        assert traj.error is None
        m = spin.m
        snaps = iter(traj.states[1:])
        for step in range(1, 51):
            m = oracle._rk4_spin(m, grid, sector, 2e-3)
            if step % 7 == 0 or step == 50:
                snap = next(snaps)
                assert snap.phase_sector == sector
                assert np.array_equal(snap.m, m)
        assert next(snaps, None) is None

    def test_vacuum_crossing_inside_a_stage(self):
        """The stiff pair of ``test_blowup_recorded_not_raised`` passes the
        guard at every step start and crosses it inside a stage of step 12;
        the run must end with the same text and snapshots as the spectral
        reference, and the physical reference must break in the same step.
        The run is unstable, so rounding grows about tenfold per step and
        the two references part by 8e-8 at step 11."""
        grid = Grid(n=512, dx=0.1, x_min=-25.6)
        cfg = MultiSolitonConfig((SolitonParams(-0.4, -12.0), SolitonParams(0.4, 12.0)),
                                 min_separation=20.0)
        state = multi_soliton_sum(cfg, grid)
        dt = 2.5e-3
        traj = evolve(state, IntegratorConfig(dt=dt, t_end=2.0, sample_stride=1))
        assert traj.error == ("VacuumBreakdown at t = 0.03: "
                              "1 - v^2 fell below the vacuum guard during evaluation")
        assert len(traj) == 12
        assert traj.states[-1].vacuum_margin() > VACUUM_GUARD
        v, w = state.v.values, state.w.values
        vhat, what = np.fft.rfft(v), np.fft.rfft(w)
        for snap in traj.states[1:]:
            v, w = oracle._rk4_hydro(v, w, grid, dt)
            vhat, what = oracle._rk4_spectral(vhat, what, grid, dt)
            assert np.array_equal(snap.v.values, np.fft.irfft(vhat, n=grid.n))
            assert np.array_equal(snap.w.values, np.fft.irfft(what, n=grid.n))
        with pytest.raises(VacuumBreakdown):
            oracle._rk4_hydro(v, w, grid, dt)
        with pytest.raises(VacuumBreakdown):
            oracle._rk4_spectral(vhat, what, grid, dt)


class TestEvolveBookkeeping:
    def setup_method(self):
        self.grid = Grid.centered(256, 0.2)

    def _small_state(self):
        dv, dw = random_smooth_pair(self.grid, amplitude=0.05, seed=4)
        return HydroState.from_arrays(self.grid, dv, dw)

    def test_snapshot_times_with_stride(self):
        traj = evolve(self._small_state(),
                      IntegratorConfig(dt=1e-3, t_end=0.1, sample_stride=7))
        steps = [0] + list(range(7, 100, 7)) + [100]
        assert np.allclose(traj.times, 1e-3 * np.array(steps))

    def test_hooks_see_every_snapshot(self):
        seen = []
        traj = evolve(self._small_state(),
                      IntegratorConfig(dt=1e-3, t_end=0.05, sample_stride=10),
                      hooks=[lambda t, s: seen.append(t)])
        assert seen == list(traj.times)

    def test_initial_state_is_first_snapshot(self):
        state = self._small_state()
        traj = evolve(state, IntegratorConfig(dt=1e-3, t_end=0.01, sample_stride=10))
        assert traj.times[0] == 0.0
        assert traj.states[0] is state

    def test_cfl_rejection(self):
        with pytest.raises(ValueError, match="stability limit"):
            evolve(self._small_state(), IntegratorConfig(dt=0.5, t_end=1.0))

    def test_t_end_must_be_multiple_of_dt(self):
        with pytest.raises(ValueError, match="integer multiple"):
            evolve(self._small_state(), IntegratorConfig(dt=3e-3, t_end=0.01))

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            evolve(np.zeros(4), IntegratorConfig(dt=1e-3, t_end=0.01))

    def test_blowup_recorded_not_raised(self):
        """An over-long step on a stiff pair dies quickly; the trajectory must
        keep its early snapshots and describe the failure."""
        grid = Grid(n=512, dx=0.1, x_min=-25.6)
        cfg = MultiSolitonConfig((SolitonParams(-0.4, -12.0), SolitonParams(0.4, 12.0)),
                                 min_separation=20.0)
        state = multi_soliton_sum(cfg, grid)
        traj = evolve(state, IntegratorConfig(dt=2.5e-3, t_end=2.0, sample_stride=5))
        assert traj.error is not None
        assert "t =" in traj.error
        assert len(traj) >= 1
        assert np.all(np.isfinite(traj.states[-1].v.values))

    def test_nonfinite_step_is_a_blowup(self):
        """A step that overflows is a BlowupError in step_rk4 as in evolve,
        not a malformed state."""
        state = soliton_spin_state(0.5, 0.0, Grid.centered(512, 0.1))
        with np.errstate(all="ignore"), pytest.raises(BlowupError, match="at step 1$"):
            step_rk4(state, 1e300)

    @pytest.mark.parametrize("stride", [1, 10])
    def test_vacuum_at_a_stored_snapshot_recorded(self, stride):
        """A c = 0.002 soliton at dt = 2e-3 lands on max|v| > 1 in its first
        step.  Whether that step is a stored snapshot (stride 1) or the next
        step's right-hand side sees it (stride 10), the run ends with a
        VacuumBreakdown and keeps the initial snapshot."""
        grid = Grid.centered(512, 0.1)
        state = soliton_state(0.002, grid)
        traj = evolve(state, IntegratorConfig(dt=2e-3, t_end=0.1, sample_stride=stride))
        assert traj.error.startswith("VacuumBreakdown at t = ")
        assert len(traj) == 1
        assert traj.states[0] is state


class TestTrajectoryIO:
    def _make_traj(self, frame):
        grid = Grid.centered(256, 0.2)
        if frame == "hydro":
            dv, dw = random_smooth_pair(grid, amplitude=0.05, seed=13)
            state = HydroState.from_arrays(grid, dv, dw)
        else:
            state = reconstruct_spin(soliton_state(0.5, grid))
        return evolve(state, IntegratorConfig(dt=2e-3, t_end=0.02, sample_stride=5))

    @pytest.mark.parametrize("frame", ["hydro", "spin"])
    def test_roundtrip_bitwise(self, frame, tmp_path):
        traj = self._make_traj(frame)
        path = tmp_path / "run.traj"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert back.frame == traj.frame
        assert back.error == traj.error
        assert np.array_equal(back.times, traj.times)
        for a, b in zip(traj.states, back.states):
            if frame == "hydro":
                assert np.array_equal(a.v.values, b.v.values)
                assert np.array_equal(a.w.values, b.w.values)
            else:
                assert np.array_equal(a.m, b.m)
                assert a.phase_sector == b.phase_sector

    def test_index_file_written(self, tmp_path):
        traj = self._make_traj("hydro")
        path = tmp_path / "run.traj"
        save_trajectory(traj, path)
        index = tmp_path / "run.traj.index.csv"
        assert index.exists()
        lines = index.read_text().strip().splitlines()
        assert len(lines) == len(traj) + 1

    @pytest.mark.parametrize("frame", ["hydro", "spin"])
    def test_index_offsets_are_record_starts(self, frame, tmp_path):
        """Offset i is the header length (56 bytes and the error string)
        plus i records of 8 bytes of t and the raw fields; the spin case is
        a single soliton, in phase sector 1."""
        traj = self._make_traj(frame)
        traj = Trajectory(frame=traj.frame, grid=traj.grid, times=traj.times,
                          states=traj.states, error="BlowupError at t = 0.01: test")
        path = tmp_path / "run.traj"
        save_trajectory(traj, path)
        n = traj.grid.n
        itemsize = 8 + 8 * (2 * n if frame == "hydro" else 3 * n)
        header = 56 + len(traj.error)
        with open(tmp_path / "run.traj.index.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        data = path.read_bytes()
        assert len(data) == header + len(traj) * itemsize
        for i, (snapshot, t, offset) in enumerate(rows):
            assert (int(snapshot), int(offset)) == (i, header + i * itemsize)
            assert float(t) == traj.times[i]
            assert np.frombuffer(data, "<f8", count=1, offset=int(offset))[0] == traj.times[i]
        back = load_trajectory(path)
        if frame == "spin":
            assert back.states[0].phase_sector == 1
        assert back.error == traj.error

    def test_truncated_file_rejected(self, tmp_path):
        """A file cut short inside a record, inside the header or inside the
        error string, or whose header counts more snapshots than it holds,
        is a ValueError."""
        traj = self._make_traj("hydro")
        path = tmp_path / "run.traj"
        save_trajectory(traj, path)
        data = path.read_bytes()
        count = np.array(10**12, dtype="<u8").tobytes()   # bytes 40-47 of the header
        # no snapshots and a 1000-byte error string, of which 5 bytes are there
        cut_error = (data[:40] + np.array([0, 1000], dtype="<u8").tobytes()
                     + b"short")
        for broken in (data[:-8], data[:40], data[:40] + count + data[48:], cut_error):
            path.write_bytes(broken)
            with pytest.raises(ValueError):
                load_trajectory(path)

    def test_error_string_survives(self, tmp_path):
        traj = self._make_traj("hydro")
        broken = Trajectory(frame=traj.frame, grid=traj.grid, times=traj.times,
                            states=traj.states, error="BlowupError at t = 0.01: test")
        path = tmp_path / "broken.traj"
        save_trajectory(broken, path)
        assert load_trajectory(path).error == broken.error

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.traj"
        path.write_bytes(b"NOTATRAJ" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_trajectory(path)
