"""Program-side stages of the benchmark, each run in its own pinned process.

    python3 perfbench/child.py setup -- <ll-lab arguments>
    python3 perfbench/child.py build-track <out.lltraj> [<trace.json>]
    python3 perfbench/child.py shift-track <in.lltraj> <out.lltraj> <cells>
    python3 perfbench/child.py trace-round <trace.json> -- <ll-lab arguments>
    python3 perfbench/child.py probes <work dir> <probes.json>

``setup`` imports ll_lab and parses and loads the workload's inputs, and
nothing else; its launch-to-exit time is one ``setup_s`` sample.
``trace-round`` runs the ll-lab command in-process with the tracer of
``tracing.py`` installed.  ``probes`` times single layer calls on fixed
inputs.  ``run.py`` starts these with ``workloads.pinned_env()``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path


def _setup(args: list[str]) -> None:
    import ll_lab.cli  # noqa: F401 -- the whole package, as ll-lab imports it
    from ll_lab import dynamics, scenarios, solitons

    if args[0] == "simulate":
        for path in args[1:]:
            scenarios.build_initial(scenarios.load_scenario(path))
        return
    traj_path, guess_path = args[1], args[2]
    data = json.loads(Path(guess_path).read_text())
    solitons.MultiSolitonConfig(
        tuple(solitons.SolitonParams(e["c"], e["a"], e.get("s", 1)) for e in data["params"]),
        data["min_separation"])
    dynamics.load_trajectory(traj_path)


def _build_track(out_path: str, trace_path: str | None) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import TRACK_CHI

    tracer = None
    if trace_path:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    from ll_lab import dynamics, scenarios

    cfg = scenarios.scenario_from_dict(TRACK_CHI)
    traj = dynamics.evolve(scenarios.build_initial(cfg), cfg.integrator)
    if traj.error is not None:
        raise SystemExit(f"track-chi build failed: {traj.error}")
    tmp = out_path + ".part"
    dynamics.save_trajectory(traj, tmp)
    Path(tmp + ".index.csv").replace(out_path + ".index.csv")
    Path(tmp).replace(out_path)
    if tracer is not None:
        tracer.dump(trace_path)


def _shift_track(src: str, dst: str, cells: int) -> None:
    import numpy as np
    from ll_lab import dynamics, grid

    traj = dynamics.load_trajectory(src)
    states = tuple(grid.HydroState.from_arrays(traj.grid, np.roll(s.v.values, cells),
                                               np.roll(s.w.values, cells))
                   for s in traj.states)
    dynamics.save_trajectory(dynamics.Trajectory(frame=traj.frame, grid=traj.grid,
                                                 times=traj.times, states=states), dst)


def _trace_round(trace_path: str, args: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    from ll_lab import cli

    code = tracer.call("cli.main", cli.main, args)
    tracer.dump(trace_path)
    return code


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _probes(work_dir: str, out_path: str) -> None:
    """Median wall time of single layer calls on fixed inputs."""
    import numpy as np
    from ll_lab import dynamics, grid, modulation, scenarios, solitons

    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    pair = solitons.MultiSolitonConfig(
        (solitons.SolitonParams(-0.4, -20.0), solitons.SolitonParams(0.4, 20.0)), 40.0)
    out: dict[str, float] = {}

    for n in (1024, 2048, 4096):
        g = grid.Grid.centered(n, 0.1)
        hydro = solitons.multi_soliton_sum(pair, g)
        spin = solitons.reconstruct_spin(hydro)
        dynamics.rhs_hll(hydro)
        dynamics.rhs_spin(spin)
        out[f"dynamics.rhs_hydro_us.n{n}"] = 1e6 * _median_time(lambda: dynamics.rhs_hll(hydro), 201)
        out[f"dynamics.rhs_spin_us.n{n}"] = 1e6 * _median_time(lambda: dynamics.rhs_spin(spin), 201)
        out[f"dynamics.step_hydro_us.n{n}"] = 1e6 * _median_time(
            lambda: dynamics.step_rk4(hydro, 1e-3), 61)
        out[f"dynamics.step_spin_us.n{n}"] = 1e6 * _median_time(
            lambda: dynamics.step_rk4(spin, 2e-3), 61)

    g = grid.Grid.centered(2048, 0.1)
    dv, dw = scenarios.random_smooth_pair(g, 0.01, 7)
    base = solitons.multi_soliton_sum(pair, g)
    state = grid.HydroState.from_arrays(g, base.v.values + dv, base.w.values + dw)

    op = modulation.HessianOperator(0.4, g)
    h = (grid.RealField(g, dv), grid.RealField(g, dw))
    modulation.hessian_apply(op, h)
    out["modulation.hessian_apply_us"] = 1e6 * _median_time(
        lambda: modulation.hessian_apply(op, h), 101)
    out["modulation.negative_mode_ms"] = 1e3 * _median_time(
        lambda: modulation.negative_mode(0.4, g), 3)

    guess = solitons.MultiSolitonConfig(
        (solitons.SolitonParams(-0.4, -19.95), solitons.SolitonParams(0.4, 20.05)), 40.0)
    cache = modulation.ChiCache(g)
    modulation.modulate(state, guess, chi=cache)   # warms chi for both speeds
    out["modulation.modulate_ms"] = 1e3 * _median_time(
        lambda: modulation.modulate(state, guess, chi=cache), 7)

    spin = solitons.reconstruct_spin(state)
    out["solitons.reconstruct_spin_s"] = _median_time(lambda: solitons.reconstruct_spin(state), 21)
    out["solitons.extract_hydro_s"] = _median_time(lambda: solitons.extract_hydro(spin), 21)

    # a trajectory of the size of track-chi's input: 501 snapshots, n = 2048
    times = 0.1 * np.arange(501)
    states = tuple(solitons.multi_soliton_sum(solitons.MultiSolitonConfig(
        (solitons.SolitonParams(-0.4, -20.0 - 0.4 * t), solitons.SolitonParams(0.4, 20.0 + 0.4 * t)),
        40.0), g) for t in times)
    path = work / "probe.lltraj"
    dynamics.save_trajectory(dynamics.Trajectory("hydro", g, times, states), path)
    out["dynamics.load_trajectory_s"] = _median_time(lambda: dynamics.load_trajectory(path), 3)

    cfg = scenarios.scenario_from_dict({
        "name": "probe", "frame": "hydro",
        "solitons": {"params": [{"c": -0.4, "a": -20.0}, {"c": 0.4, "a": 20.0}],
                     "min_separation": 40.0},
        "perturbation": {"kind": "random_smooth", "amplitude": 0.01, "seed": 7},
        "grid": {"n": 2048, "dx": 0.1},
        "integrator": {"dt": 0.001, "t_end": 1.0, "sample_stride": 100},
        "diagnostics": {"y0_list": [5.0, 10.0, 20.0], "window_half_width": 10.0}})
    report = scenarios.run_scenario(cfg)
    if not report.all_passed:
        raise SystemExit(f"probe scenario failed: {report.error or report.verdicts}")
    out["scenarios.diagnostics_s"] = report.timings["diagnostics"]
    # a fresh directory per write: truncating an existing file can cost
    # more than the write itself on some filesystems
    dirs = iter(range(5))
    out["scenarios.write_report_s"] = _median_time(
        lambda: scenarios.write_report(report, work / f"report-{next(dirs)}"), 5)

    bad = [k for k, v in out.items() if not (math.isfinite(v) and v > 0.0)]
    if bad:
        raise SystemExit(f"probe produced no time for {bad}")
    units = {"_us": "us", "_ms": "ms", "_s": "s"}
    Path(out_path).write_text(json.dumps(
        {k: [v, next(u for suf, u in units.items() if k.split(".")[1].endswith(suf))]
         for k, v in out.items()}, indent=1, sort_keys=True))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if "--" in rest:
        cut = rest.index("--")
        rest, cli_args = rest[:cut], rest[cut + 1:]
    if mode == "setup":
        _setup(cli_args)
    elif mode == "build-track":
        _build_track(rest[0], rest[1] if len(rest) > 1 else None)
    elif mode == "shift-track":
        _shift_track(rest[0], rest[1], int(rest[2]))
    elif mode == "trace-round":
        return _trace_round(rest[0], cli_args)
    elif mode == "probes":
        _probes(rest[0], rest[1])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
