"""Smoke test of the benchmark harness: one traced ``simulate`` round and
one traced ``modulate-track`` round.

The tracer in ``perfbench/tracing.py`` rebinds public names of ``ll_lab``
(``evolve``, ``track_modulation``, ``negative_mode``, ``ChiCache.mode_for``)
and counts ``numpy.fft`` calls inside ``evolve``.  A refactor that renames or
bypasses one of them leaves its counter at zero, which this test catches.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

from ll_lab import (Grid, IntegratorConfig, MultiSolitonConfig, SolitonParams, evolve,
                    multi_soliton_sum, save_trajectory)

ROOT = Path(__file__).resolve().parents[1]


def _trace_round(tmp_path, cli_args):
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace-round", str(trace),
         "--", *cli_args, "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(trace.read_text())


def test_traced_round_counts_every_layer(tmp_path):
    cfg = json.loads((ROOT / "demos" / "configs" / "pair-ordered.json").read_text())
    cfg = copy.deepcopy(cfg)
    cfg["name"] = "smoke"
    cfg["integrator"].update({"t_end": 0.05, "sample_stride": 10})
    cfg["diagnostics"].update({"y0_list": [5.0], "window_half_width": 5.0})
    config = tmp_path / "smoke.json"
    config.write_text(json.dumps(cfg))

    totals = _trace_round(tmp_path, ["simulate", str(config)])
    for key in ("dynamics.rk4_steps", "dynamics.fft_calls", "modulation.chi_lookups",
                "modulation.negative_mode.calls"):
        assert totals.get(key, 0) > 0, f"{key} missing from trace: {sorted(totals)}"
    # a hydro RK4 step is four right-hand sides of 2 numpy.fft calls each;
    # evolve adds one rfft of the initial state and one irfft per stored
    # snapshot after it
    steps = totals["dynamics.rk4_steps"]
    stride = cfg["integrator"]["sample_stride"]
    stored = -(-steps // stride)
    assert totals["dynamics.fft_calls"] == 8 * steps + 1 + stored
    # the chi warm-up before evolve solves without a lookup, so lookups / N
    # still counts condition evaluations, and every solve is one the report
    # counts
    report = json.loads((tmp_path / "out" / "smoke" / "report.json").read_text())
    nsol = len(cfg["solitons"]["params"])
    assert totals["modulation.chi_lookups"] == nsol * report["counters"]["condition_evals"]
    assert totals["modulation.negative_mode.calls"] == report["counters"]["chi_solves"]


def test_traced_modulate_track_counts_one_track(tmp_path):
    """The tracer rebinds ``scenarios.track_modulation``, which
    ``run_track`` calls; one modulate-track round is one traced call that
    sees every snapshot."""
    grid = Grid(n=512, dx=0.1, x_min=-25.6)
    guess = MultiSolitonConfig((SolitonParams(0.5, 0.0),), min_separation=10.0)
    traj = evolve(multi_soliton_sum(guess, grid),
                  IntegratorConfig(dt=1e-3, t_end=0.5, sample_stride=250))
    path = tmp_path / "run.traj"
    save_trajectory(traj, path)
    guess_path = tmp_path / "guess.json"
    guess_path.write_text(json.dumps({"params": [{"c": 0.5, "a": 0.0}],
                                      "min_separation": 10.0}))

    totals = _trace_round(tmp_path, ["modulate-track", str(path), str(guess_path)])
    assert totals.get("modulation.track_modulation.calls") == 1, sorted(totals)
    assert totals.get("modulation.snapshots") == len(traj)
    # one chi lookup per soliton per condition evaluation, so the
    # benchmark's residual_evals (lookups / N) counts evaluations
    report = json.loads((tmp_path / "out" / "run" / "report.json").read_text())
    nsol = guess.n_solitons
    assert totals.get("modulation.chi_lookups", 0) == nsol * report["counters"]["condition_evals"]
    assert report["counters"]["condition_evals"] > 0
    # every negative-mode solve is one the track counts
    assert totals.get("modulation.negative_mode.calls", 0) == report["counters"]["chi_solves"]
