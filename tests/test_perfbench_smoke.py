"""Smoke test of the benchmark harness: one traced ``simulate`` round.

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

ROOT = Path(__file__).resolve().parents[1]


def test_traced_round_counts_every_layer(tmp_path):
    cfg = json.loads((ROOT / "demos" / "configs" / "pair-ordered.json").read_text())
    cfg = copy.deepcopy(cfg)
    cfg["name"] = "smoke"
    cfg["integrator"].update({"t_end": 0.05, "sample_stride": 10})
    cfg["diagnostics"].update({"y0_list": [5.0], "window_half_width": 5.0})
    config = tmp_path / "smoke.json"
    config.write_text(json.dumps(cfg))
    trace = tmp_path / "trace.json"

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace-round", str(trace),
         "--", "simulate", str(config), "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    totals = json.loads(trace.read_text())
    for key in ("dynamics.rk4_steps", "dynamics.fft_calls", "modulation.chi_lookups",
                "modulation.negative_mode.calls"):
        assert totals.get(key, 0) > 0, f"{key} missing from trace: {sorted(totals)}"
