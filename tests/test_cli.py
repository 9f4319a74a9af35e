"""End-to-end checks of the command line interface.

Exit code contract: 0 all verdicts pass, 1 runtime failure or failed verdict
(reports still written), 2 malformed configuration (nothing written).  Every
subcommand that writes a report writes the same report.json schema.
"""

import copy
import filecmp
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ll_lab import (Grid, HydroState, IntegratorConfig, MultiSolitonConfig,
                    SolitonParams, SpinState, Trajectory, evolve, modulation,
                    multi_soliton_sum, reconstruct_spin, save_trajectory,
                    soliton_hydro)
from ll_lab import cli
from ll_lab.cli import main

REPORT_KEYS = {"scenario", "config", "verdicts", "timings", "counters", "chi_nodes",
               "threads", "error"}

TINY = {
    "name": "tiny",
    "frame": "hydro",
    "solitons": {"params": [{"c": 0.5, "a": 0.0}], "min_separation": 10.0},
    "perturbation": {"kind": "none"},
    "grid": {"n": 512, "dx": 0.1},
    "integrator": {"dt": 0.001, "t_end": 1.0, "sample_stride": 250},
    "diagnostics": {"y0_list": [5.0], "window_half_width": 8.0},
}


def write_config(tmp_path, data, filename="scenario.json"):
    path = tmp_path / filename
    path.write_text(json.dumps(data))
    return path


class TestSimulate:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert (out / "tiny" / "report.json").is_file()
        assert (out / "tiny" / "diagnostics.csv").is_file()
        assert (out / "tiny" / "modulation.csv").is_file()
        stdout = capsys.readouterr().out
        assert "tiny" in stdout
        assert "PASS" in stdout
        # the localized-momentum verdicts are judged with every other gate
        payload = json.loads((out / "tiny" / "report.json").read_text())
        names = {d["name"] for d in payload["verdicts"]}
        assert {"monotonicity_y5", "rate_fd_match", "energy_drift"} <= names

    def test_outputs_bit_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        assert main(["simulate", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", str(cfg), "--out", str(out2)]) == 0
        for name in ("diagnostics.csv", "modulation.csv"):
            assert filecmp.cmp(out1 / "tiny" / name, out2 / "tiny" / name,
                               shallow=False), name

    def test_missing_config_exit_two(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "ghost.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_json_names_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "frame": }')
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_unknown_key_named(self, tmp_path, capsys):
        data = copy.deepcopy(TINY)
        data["extra"] = True
        cfg = write_config(tmp_path, data)
        assert main(["simulate", str(cfg)]) == 2
        assert "extra" in capsys.readouterr().err

    def test_duplicate_scenario_names_rejected(self, tmp_path, capsys):
        a = write_config(tmp_path, TINY, "a.json")
        b = write_config(tmp_path, TINY, "b.json")
        assert main(["simulate", str(a), str(b)]) == 2
        assert "duplicate" in capsys.readouterr().err.lower()

    def test_batch_with_one_bad_config_writes_nothing(self, tmp_path):
        good = write_config(tmp_path, TINY, "good.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        out = tmp_path / "out"
        assert main(["simulate", str(good), str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_runtime_failure_exit_one_report_written(self, tmp_path, capsys):
        # a stiff pair whose step is over the bound at the soliton cores is
        # refused up front
        stiff = copy.deepcopy(TINY)
        stiff["name"] = "stiff"
        stiff["solitons"] = {
            "params": [{"c": -0.4, "a": -12.0}, {"c": 0.4, "a": 12.0}],
            "min_separation": 20.0}
        stiff["integrator"] = {"dt": 0.0025, "t_end": 2.0, "sample_stride": 5}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, stiff, "stiff.json")),
                     "--out", str(out)]) == 2
        assert "stiff.json.integrator.dt: 0.0025 exceeds the stability limit" in \
            capsys.readouterr().err
        assert not out.exists()
        # a slow soliton pushed along its negative direction deepens until
        # it breaks down at t = 1.494, at a step that validates
        doomed = copy.deepcopy(TINY)
        doomed["name"] = "doomed"
        doomed["solitons"] = {"params": [{"c": 0.2, "a": 0.0}], "min_separation": 10.0}
        doomed["perturbation"] = {"kind": "chi_direction", "amplitude": 0.2}
        doomed["integrator"] = {"dt": 0.001, "t_end": 2.0, "sample_stride": 250}
        cfg = write_config(tmp_path, doomed)
        assert main(["simulate", str(cfg), "--out", str(out)]) == 1
        payload = json.loads((out / "doomed" / "report.json").read_text())
        assert payload["error"]
        assert set(payload) == REPORT_KEYS

    def test_unexpected_exception_recorded(self, tmp_path, capsys, monkeypatch):
        """An exception that run_scenario does not expect is the report's
        error: the report is written and the exit code is 1."""
        def crash(cfg):
            raise RuntimeError("an unexpected failure")

        monkeypatch.setattr(cli, "run_scenario", crash)
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, TINY)), "--out", str(out)]) == 1
        payload = json.loads((out / "tiny" / "report.json").read_text())
        assert set(payload) == REPORT_KEYS
        assert payload["error"] == "an unexpected failure"
        assert payload["verdicts"] == [] and payload["counters"] == {}
        assert "tiny: ERROR" in capsys.readouterr().out

    def test_each_report_written_when_its_run_ends(self, tmp_path, capsys, monkeypatch):
        """A batch writes and prints each scenario's report before the next
        scenario runs."""
        second = copy.deepcopy(TINY)
        second["name"] = "second"
        paths = [write_config(tmp_path, TINY, "a.json"), write_config(tmp_path, second, "b.json")]
        out = tmp_path / "out"
        seen = []
        run_scenario = cli.run_scenario

        def spy(cfg):
            seen.append((cfg.name, (out / "tiny" / "report.json").is_file(),
                         "tiny:" in capsys.readouterr().out))
            return run_scenario(cfg)

        monkeypatch.setattr(cli, "run_scenario", spy)
        assert main(["simulate", *map(str, paths), "--out", str(out)]) == 0
        assert seen == [("tiny", False, False), ("second", True, True)]
        assert (out / "second" / "report.json").is_file()

    @pytest.mark.parametrize("integrator", [
        {"dt": 0.005, "t_end": 1.0, "sample_stride": 250},    # over the step bound
        {"dt": 0.001, "t_end": 1.0005, "sample_stride": 250},  # dt does not divide t_end
    ])
    def test_bad_dt_exit_two_nothing_written(self, tmp_path, capsys, integrator):
        data = copy.deepcopy(TINY)
        data["name"] = "bad-dt"
        data["integrator"] = integrator
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert "integrator.dt" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_two_nothing_written(self, tmp_path, capsys):
        data = copy.deepcopy(TINY)
        data["perturbation"] = {"kind": "random_smooth", "amplitude": 0.01, "seed": -1}
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, data)), "--out", str(out)]) == 2
        assert "perturbation.seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_runs_every_config(self, tmp_path):
        a = copy.deepcopy(TINY)
        a["name"] = "first"
        b = copy.deepcopy(TINY)
        b["name"] = "second"
        pa = write_config(tmp_path, a, "a.json")
        pb = write_config(tmp_path, b, "b.json")
        out = tmp_path / "out"
        assert main(["simulate", str(pa), str(pb), "--out", str(out)]) == 0
        assert (out / "first" / "report.json").is_file()
        assert (out / "second" / "report.json").is_file()


class TestSolitonTable:
    def test_stdout_table(self, capsys):
        assert main(["soliton-table", "--c", "0.6", "--xmax", "2.0",
                     "--dx", "1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,u1,u2,u3,v,w"
        assert len(lines) == 6  # x = -2,-1,0,1,2
        mid = lines[3].split(",")
        assert float(mid[0]) == 0.0
        nu = math.sqrt(1.0 - 0.36)
        assert float(mid[4]) == pytest.approx(nu, rel=1e-15)
        assert float(mid[5]) == pytest.approx(nu / 0.6, rel=1e-15)

    def test_file_output(self, tmp_path):
        assert main(["soliton-table", "--c", "-0.4", "--xmax", "5.0",
                     "--dx", "0.5", "--out", str(tmp_path)]) == 0
        table = tmp_path / "soliton_table.csv"
        assert table.is_file()
        rows = table.read_text().strip().splitlines()
        assert len(rows) == 22
        # spot-check row values against the closed forms
        x, u1, u2, u3, v, w = map(float, rows[1].split(","))
        assert x == -5.0
        ref = soliton_hydro(-0.4, np.array([-5.0]))
        assert v == pytest.approx(ref[0][0], rel=1e-15)
        assert w == pytest.approx(ref[1][0], rel=1e-15)

    def test_speed_validation(self, capsys):
        assert main(["soliton-table", "--c", "1.0", "--xmax", "2.0",
                     "--dx", "0.5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestModulateTrack:
    def _trajectory(self):
        grid = Grid(n=512, dx=0.1, x_min=-25.6)
        cfg = MultiSolitonConfig((SolitonParams(0.5, 0.0),), min_separation=10.0)
        state = multi_soliton_sum(cfg, grid)
        return evolve(state, IntegratorConfig(dt=1e-3, t_end=0.5, sample_stride=250))

    def _trajectory_file(self, tmp_path, traj=None):
        path = tmp_path / "run.traj"
        save_trajectory(self._trajectory() if traj is None else traj, path)
        return path

    def _guess_file(self, tmp_path):
        guess = {"params": [{"c": 0.5, "a": 0.0}], "min_separation": 10.0}
        path = tmp_path / "guess.json"
        path.write_text(json.dumps(guess))
        return path

    def test_roundtrip(self, tmp_path, capsys):
        traj = self._trajectory_file(tmp_path)
        guess = self._guess_file(tmp_path)
        out = tmp_path / "out"
        assert main(["modulate-track", str(traj), str(guess),
                     "--out", str(out)]) == 0
        run_dir = out / "run"
        assert (run_dir / "modulation.csv").is_file()
        payload = json.loads((run_dir / "report.json").read_text())
        names = {d["name"] for d in payload["verdicts"]}
        assert "newton_iterations" in names
        assert "orthogonality" in names
        assert set(payload) == REPORT_KEYS
        assert payload["error"] is None
        assert payload["config"] == {"trajectory": str(traj), "guess": str(guess)}

    def test_vacuum_snapshot_recorded(self, tmp_path):
        """A spin snapshot with m = e3 at one point has no hydrodynamic view:
        tracking stops there, and the run is still reported."""
        good = reconstruct_spin(self._trajectory().states[0])
        m = np.array(good.m)
        m[0] = (0.0, 0.0, 1.0)
        bad = SpinState(good.grid, m, good.phase_sector)
        traj = Trajectory(frame="spin", grid=good.grid, times=np.array([0.0, 0.25]),
                          states=(good, bad))
        path = self._trajectory_file(tmp_path, traj)
        out = tmp_path / "out"
        assert main(["modulate-track", str(path), str(self._guess_file(tmp_path)),
                     "--out", str(out)]) == 1
        payload = json.loads((out / "run" / "report.json").read_text())
        assert payload["error"].startswith("at t = 0.25")
        assert set(payload) == REPORT_KEYS
        rows = (out / "run" / "modulation.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    def test_failing_snapshot_decomposed_once(self, tmp_path, monkeypatch):
        """Each snapshot is decomposed once, the failing last one included;
        the rows before the failure are not recomputed."""
        good = self._trajectory()
        vacuum = HydroState.from_arrays(good.grid, np.zeros(good.grid.n),
                                        np.zeros(good.grid.n))
        traj = Trajectory(frame="hydro", grid=good.grid,
                          times=np.append(good.times, 0.75),
                          states=good.states + (vacuum,))
        path = self._trajectory_file(tmp_path, traj)
        calls = []
        raw = modulation._modulate_raw

        def counted(*args, **kwargs):
            calls.append(1)
            return raw(*args, **kwargs)

        monkeypatch.setattr(modulation, "_modulate_raw", counted)
        out = tmp_path / "out"
        assert main(["modulate-track", str(path), str(self._guess_file(tmp_path)),
                     "--out", str(out)]) == 1
        assert len(calls) == len(traj)
        rows = (out / "run" / "modulation.csv").read_text().strip().splitlines()
        assert len(rows) == len(traj)

    def test_counters_repeat_and_add_up(self, tmp_path):
        """report.json counts the track's work deterministically: one
        evaluation per snapshot start and per Newton trial point."""
        traj = self._trajectory()
        path = self._trajectory_file(tmp_path, traj)
        guess = self._guess_file(tmp_path)
        counters = []
        for out in (tmp_path / "first", tmp_path / "second"):
            assert main(["modulate-track", str(path), str(guess), "--out", str(out)]) == 0
            counters.append(json.loads((out / "run" / "report.json").read_text())["counters"])
        assert counters[0] == counters[1]
        c = counters[0]
        assert set(c) == {"newton_iters", "jacobian_builds", "condition_evals", "backtracks",
                          "chi_solves", "davidson_iters"}
        assert c["jacobian_builds"] <= c["newton_iters"]
        assert c["condition_evals"] == c["newton_iters"] + len(traj) + c["backtracks"]
        assert c["chi_solves"] >= 1
        assert c["davidson_iters"] >= c["chi_solves"]

    def test_chi_nodes_repeat_and_are_certified(self, tmp_path):
        """report.json lists every negative-mode solve of the track by node
        speed, identically from run to run, each certified negative."""
        path = self._trajectory_file(tmp_path)
        guess = self._guess_file(tmp_path)
        payloads = []
        for out in (tmp_path / "first", tmp_path / "second"):
            assert main(["modulate-track", str(path), str(guess), "--out", str(out)]) == 0
            payloads.append(json.loads((out / "run" / "report.json").read_text()))
        nodes = payloads[0]["chi_nodes"]
        assert nodes == payloads[1]["chi_nodes"]
        assert len(nodes) == payloads[0]["counters"]["chi_solves"]
        assert [node["c"] for node in nodes] == sorted(node["c"] for node in nodes)
        assert sum(node["iterations"] for node in nodes) == payloads[0]["counters"]["davidson_iters"]
        for node in nodes:
            assert set(node) == {"c", "rayleigh", "residual", "iterations"}
            assert node["rayleigh"] < 0.0
            assert node["residual"] <= 2e-7

    def test_guess_through_the_seam_exit_two(self, tmp_path, capsys):
        """A pair guess 30 apart on the line but 21.2 apart through the seam
        of the trajectory's period-51.2 grid, below its min_separation 22,
        is refused as ``simulate`` refuses such a scenario."""
        guess = tmp_path / "pair.json"
        guess.write_text(json.dumps({"params": [{"c": -0.4, "a": -15.0}, {"c": 0.4, "a": 15.0}],
                                     "min_separation": 22.0}))
        out = tmp_path / "out"
        assert main(["modulate-track", str(self._trajectory_file(tmp_path)), str(guess),
                     "--out", str(out)]) == 2
        assert (f"{guess}: gap a_1 + period - a_N = 21.2 through the periodic seam is below "
                f"min_separation 22.0") in capsys.readouterr().err
        assert not out.exists()

    def test_missing_trajectory_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.traj"
        out = tmp_path / "out"
        assert main(["modulate-track", str(missing), str(self._guess_file(tmp_path)),
                     "--out", str(out)]) == 2
        assert f"{missing}: no such trajectory file" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_magic_exit_two(self, tmp_path, capsys):
        junk = tmp_path / "junk.traj"
        junk.write_bytes(b"NOTATRAJ" + b"\x00" * 32)
        guess = self._guess_file(tmp_path)
        assert main(["modulate-track", str(junk), str(guess)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_trajectory_exit_two(self, tmp_path, capsys):
        """A header-only trajectory file is refused up front, with nothing
        written."""
        full = self._trajectory_file(tmp_path).read_bytes()
        path = tmp_path / "empty.traj"
        # the header with snapshot count and error length (bytes 40-55) zero
        path.write_bytes(full[:40] + np.array([0, 0], dtype="<u8").tobytes())
        out = tmp_path / "out"
        assert main(["modulate-track", str(path), str(self._guess_file(tmp_path)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "empty.traj" in err and "no snapshots" in err
        assert not out.exists()

    def test_bad_guess_exit_two(self, tmp_path, capsys):
        traj = self._trajectory_file(tmp_path)
        bad = tmp_path / "guess.json"
        bad.write_text('{"params": []}')
        assert main(["modulate-track", str(traj), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("guess,field", [
        ({"params": [{"c": "0.5", "a": 0, "junk": 1}], "min_separation": 10.0}, "params[0].junk"),
        ({"params": [{"c": 0.5, "a": 0.0, "s": -1.7}], "min_separation": 10.0}, "params[0].s"),
        ({"params": [{"c": 0.5, "a": 0.0, "s": True}], "min_separation": 10.0}, "params[0].s"),
        ({"params": [{"c": 0.5, "a": 0.0}], "min_separation": "10"}, "min_separation"),
        ({"params": {"c": 0.5, "a": 0.0}, "min_separation": 10.0}, "params"),
    ])
    def test_guess_read_strictly(self, tmp_path, capsys, guess, field):
        """The guess file is the solitons section of a scenario config and is
        read as strictly: a wrong type or an unknown key is named."""
        traj = self._trajectory_file(tmp_path)
        path = tmp_path / "guess.json"
        path.write_text(json.dumps(guess))
        out = tmp_path / "out"
        assert main(["modulate-track", str(traj), str(path), "--out", str(out)]) == 2
        assert f"guess.json.{field}:" in capsys.readouterr().err
        assert not out.exists()


class TestVirialAudit:
    def test_short_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["virial-audit", "--runs", "1", "--t-end", "0.5",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        audit = out / "virial-audit"
        assert (audit / "virial.csv").is_file()
        rows = (audit / "virial.csv").read_text().strip().splitlines()
        assert rows[0] == "run,t,U,rate,quarter_xnorm2,margin,seam"
        seam = [float(row.split(",")[-1]) for row in rows[1:]]
        assert seam and all(math.isfinite(m) and m >= 0.0 for m in seam)
        payload = json.loads((audit / "report.json").read_text())
        verdicts = payload["verdicts"]
        assert all(d["pass"] for d in verdicts)
        assert set(payload) == REPORT_KEYS
        assert payload["config"] == {"amplitude": 0.01, "seed": 3, "runs": 1,
                                     "t_end": 0.5}
        stdout = capsys.readouterr().out
        assert "PASS" in stdout

    def test_bad_amplitude_exit_two(self, capsys):
        assert main(["virial-audit", "--amplitude", "-0.5", "--runs", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_runs_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["virial-audit", "--runs", "0", "--out", str(out)]) == 2
        assert "--runs must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["virial-audit", "--seed", "-1", "--runs", "1", "--out", str(out)]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude,needle", [
        (20.0, "run 0: non-vacuum constraint violated"),   # max|v| = 1.58
        (12.0, "run 0: dt: 0.002 exceeds the stability limit"),  # min(1 - v^2) = 0.098
        (6.0, "run 1: non-vacuum constraint violated"),  # run 0 alone would run
    ])
    def test_datum_refused_up_front(self, tmp_path, capsys, amplitude, needle):
        out = tmp_path / "out"
        assert main(["virial-audit", "--amplitude", str(amplitude), "--runs", "2",
                     "--t-end", "0.1", "--out", str(out)]) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["soliton-table", "--c", "0.5", "--xmax", "10", "--dx", "nan"],
    ["soliton-table", "--c", "0.5", "--xmax", "inf", "--dx", "0.5"],
    ["soliton-table", "--c", "0.5", "--xmax", "nan", "--dx", "0.5"],
    ["virial-audit", "--runs", "1", "--t-end", "nan"],
    ["virial-audit", "--runs", "1", "--t-end", "inf"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_option_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "modulate-track", "virial-audit"])
def test_report_records_thread_settings(tmp_path, monkeypatch, command):
    """Every subcommand records the OpenMP and BLAS thread variables as the
    run saw them under one key, null when unset, and does not change them."""
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out"
    if command == "simulate":
        argv, name = ["simulate", str(write_config(tmp_path, TINY))], "tiny"
    elif command == "modulate-track":
        cli = TestModulateTrack()
        argv = ["modulate-track", str(cli._trajectory_file(tmp_path)),
                str(cli._guess_file(tmp_path))]
        name = "run"
    else:
        argv, name = ["virial-audit", "--runs", "1", "--t-end", "0.1"], "virial-audit"
    assert main(argv + ["--out", str(out)]) == 0
    payload = json.loads((out / name / "report.json").read_text())
    assert payload["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2",
                                  "MKL_NUM_THREADS": None}
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "MKL_NUM_THREADS" not in os.environ


def test_cli_import_leaves_scipy_unloaded():
    """scipy adds about a third of a second to every launch, so the CLI's
    import path must not load it; a scipy import inside a function is fine."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", "import ll_lab.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
