"""Benchmark of ll_lab, driven from outside through the ll-lab CLI.

    python3 perfbench/run.py --workload pair-hydro --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones (median over the run's rounds);
with --trace 1 a separate traced run reports the per-layer ones.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
# setup launches are short (about 0.1 s) and jitter by 10-50% each, so every
# round is followed by several
SETUP_PER_ROUND = 4
CHILD_TIMEOUT_S = 150.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def launch(cmd: list[str], out_dir: Path, tag: str) -> tuple[int, float, float, float]:
    """Run one pinned program process to its exit.

    Returns (exit code, wall s launch to exit, user + system CPU s, peak RSS
    MB); CPU and RSS come from wait4 and cover the process and the children
    it waited for.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{tag}.stdout", "wb") as so, open(out_dir / f"{tag}.stderr", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=W.pinned_env(), stdout=so, stderr=se, cwd=W.ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def child(*args: str) -> list[str]:
    return [sys.executable, str(CHILD), *args]


def prepare(workload: str, seed: int, run_dir: Path) -> list[str]:
    """Write the seeded inputs (untimed) and return the ll-lab arguments."""
    in_dir = run_dir / "inputs"
    cli_args = W.write_inputs(workload, seed, in_dir)
    if workload == "track-chi":
        cache = W.WORK / "cache" / f"track-chi-{W.source_digest()}.lltraj"
        if not cache.is_file():
            cache.parent.mkdir(parents=True, exist_ok=True)
            log(f"building the track-chi trajectory into {cache}")
            code, wall, _, _ = launch(child("build-track", str(cache)), run_dir, "build")
            if code != 0 or not cache.is_file():
                raise SystemExit(f"track-chi build failed (exit {code}), see {run_dir}/build.stderr")
            log(f"built in {wall:.1f} s")
        code, _, _, _ = launch(child("shift-track", str(cache), cli_args[1],
                                     str(W.track_shift(seed))), run_dir, "shift")
        if code != 0:
            raise SystemExit(f"track-chi shift failed (exit {code}), see {run_dir}/shift.stderr")
    return cli_args


class Checker:
    """Per-round operation accounting and the benchmark's correctness checks."""

    def __init__(self, workload: str, seed: int, cli_args: list[str]):
        self.workload = workload
        self.seed = seed
        self.cli_args = cli_args
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_csvs: dict[str, bytes] | None = None

    def round(self, out: Path, exit_code: int) -> None:
        names = W.job_names(self.workload, self.seed)
        self.attempted += len(names)
        failed = [n for n in names if W.check_report(out / n)]
        if exit_code != 0 and not failed:
            failed = names
        self.failed += len(failed)
        if exit_code != 0:
            log(f"{out}: exit code {exit_code}")
        errors = []
        for name in names:
            if name in failed:
                log("; ".join(W.check_report(out / name)) or f"{name}: failed")
            elif self.workload == "track-chi":
                errors += W.check_track_job(out / name, Path(self.cli_args[1]),
                                            json.loads(Path(self.cli_args[2]).read_text()))
            else:
                cfg = next(c for c in W.simulate_configs(self.seed)
                           if c["name"] == name)
                errors += W.check_simulate_job(out / name, cfg)
        if not failed:
            csvs = W.csv_bytes(out)
            if self.first_csvs is None:
                self.first_csvs = csvs
            elif csvs != self.first_csvs:
                errors.append(f"{out}: CSVs differ from the first round's")
        for err in errors:
            log(f"check failed: {err}")
        self.errors += errors


def ll_lab_cmd(cli_args: list[str], out: Path) -> list[str]:
    return [sys.executable, "-m", "ll_lab.cli", *cli_args, "--out", str(out)]


def time_setup(cli_args: list[str], run_dir: Path, count: int) -> list[float]:
    """Launch-to-exit times of `count` setup-only processes."""
    samples = []
    for _ in range(count):
        code, wall, _, _ = launch(child("setup", "--", *cli_args), run_dir, "setup")
        if code != 0:
            raise SystemExit(f"setup failed (exit {code}), see {run_dir}/setup.stderr")
        samples.append(wall)
    return samples


def untraced_run(workload: str, seed: int, seconds: float, cli_args: list[str],
                 run_dir: Path, checker: Checker) -> dict:
    # setup samples are spread over the run, between rounds, so that their
    # median sees the same machine as the rounds; the first launch only
    # warms caches
    time_setup(cli_args, run_dir, 1)
    setups = time_setup(cli_args, run_dir, SETUP_PER_ROUND)
    walls, cpus, rss = [], [], []
    t_start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - t_start < seconds:
        out = run_dir / f"r{k}"
        code, wall, cpu, peak = launch(ll_lab_cmd(cli_args, out), out, "ll-lab")
        checker.round(out, code)
        setups += time_setup(cli_args, run_dir, SETUP_PER_ROUND)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        k += 1
    log(f"{workload}: {k} rounds, wall {[round(w, 3) for w in walls]}, "
        f"{len(setups)} setups, median {statistics.median(setups):.4f}")
    return {"setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB")}


def _job_times(out: Path, names: list[str]) -> list[float]:
    return [json.loads((out / n / "report.json").read_text())["timings"]["total"] for n in names]


def traced_run(workload: str, seed: int, cli_args: list[str], run_dir: Path,
               checker: Checker) -> dict:
    out_u = run_dir / "untraced"
    code, wall_u, _, _ = launch(ll_lab_cmd(cli_args, out_u), out_u, "ll-lab")
    checker.round(out_u, code)

    out_t = run_dir / "traced"
    trace_path = run_dir / "trace-round.json"
    code, wall_t, _, _ = launch(child("trace-round", str(trace_path), "--",
                                      *ll_lab_cmd(cli_args, out_t)[3:]), out_t, "trace")
    checker.round(out_t, code)
    if not trace_path.is_file():
        raise SystemExit(f"traced round wrote no trace, see {out_t}/trace.stderr")
    trace = json.loads(trace_path.read_text())

    # evolve, steps and transforms: from the round, or for track-chi (whose
    # command never evolves) from a traced rebuild of its untimed input
    evo = trace
    if workload == "track-chi":
        build_trace = run_dir / "trace-build.json"
        code, _, _, _ = launch(child("build-track", str(run_dir / "rebuilt.lltraj"),
                                     str(build_trace)), run_dir, "trace-build")
        if code != 0:
            raise SystemExit(f"traced build failed, see {run_dir}/trace-build.stderr")
        evo = json.loads(build_trace.read_text())

    probes_path = run_dir / "probes.json"
    code, _, _, _ = launch(child("probes", str(run_dir / "probes"), str(probes_path)),
                           run_dir, "probes")
    if code != 0:
        raise SystemExit(f"probes failed, see {run_dir}/probes.stderr")
    probes = json.loads(probes_path.read_text())

    steps = evo.get("dynamics.rk4_steps", 0)
    evolve_s = evo.get("dynamics.evolve.s", 0.0)
    track_s = trace.get("modulation.track_modulation.s", 0.0)
    names = W.job_names(workload, seed)
    iters = 0
    for n in names:
        header, rows = W.read_csv(out_t / n / "modulation.csv")
        iters += int(rows[:, header.index("iters")].sum())
    nsol = len(W.PAIR)
    residual_evals = trace.get("modulation.chi_lookups", 0) // nsol
    job_times = _job_times(out_t, names)
    batch_s = trace["cli.main.s"]

    metrics = {
        "dynamics.evolve_s": (evolve_s, "s"),
        "dynamics.rk4_steps": (steps, "count"),
        "dynamics.steps_per_s": (steps / evolve_s if evolve_s else 0.0, "1/s"),
        "dynamics.fft_calls_per_step": (evo["dynamics.fft_calls"] / steps if steps else 0.0,
                                        "count"),
        "dynamics.fft_points_per_step": (evo["dynamics.fft_points"] / steps if steps else 0.0,
                                         "count"),
        "modulation.track_s": (track_s, "s"),
        "modulation.snapshots_per_s": (trace.get("modulation.snapshots", 0) / track_s, "1/s"),
        "modulation.newton_iters": (iters, "count"),
        "modulation.residual_evals": (residual_evals, "count"),
        "modulation.residual_evals_per_iter": (residual_evals / iters if iters else 0.0, "ratio"),
        "modulation.chi_solves": (trace.get("modulation.negative_mode.calls", 0), "count"),
        "modulation.chi_s": (trace.get("modulation.negative_mode.s", 0.0), "s"),
        "cli.job_s": (statistics.median(job_times), "s"),
        "cli.jobs_in_flight": (sum(job_times) / batch_s, "ratio"),
        "trace.overhead_s": (wall_t - wall_u, "s"),
    }
    metrics.update({name: tuple(vu) for name, vu in probes.items()})
    (W.WORK / f"trace-{workload}.json").write_text(json.dumps(
        {"seed": seed, "untraced_wall_s": wall_u, "traced_wall_s": wall_t,
         "metrics": {k: v[0] for k, v in metrics.items()},
         "trace": trace}, indent=1, sort_keys=True))
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "pinned": {k: v for k, v in W.pinned_env().items() if k.endswith("_THREADS")}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (W.SRC / "ll_lab" / "cli.py").is_file():
        log(f"error: {W.SRC / 'll_lab'} not found; run from the root of an ll_lab checkout")
        return 2

    run_dir = W.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cli_args = prepare(args.workload, args.seed, run_dir)
    checker = Checker(args.workload, args.seed, cli_args)
    if args.trace:
        metrics = traced_run(args.workload, args.seed, cli_args, run_dir, checker)
    else:
        metrics = untraced_run(args.workload, args.seed, args.seconds, cli_args, run_dir, checker)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    result = {"correct": not checker.errors, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    # a run directory is kept only when something failed, for inspection
    if result["correct"] and not checker.failed:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
