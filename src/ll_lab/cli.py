"""Command-line surface: scenario batches, modulation tracking of saved
trajectories, the virial audit, and soliton tables.

The CLI parses options, prints, and maps errors to exit codes; the runs
are library calls.  Every subcommand but ``soliton-table`` is one entry of
:mod:`ll_lab.scenarios` (``run_scenario``, ``run_track``,
``run_virial_audit``), which builds the run's verdicts and returns its
:class:`~ll_lab.scenarios.RunReport`, or raises ``ConfigError`` for input
it refuses.  The CLI writes the report with ``write_report`` to
``<out>/<name>/report.json`` (keys scenario, config, verdicts, timings,
counters, chi_nodes, threads, error).  Exit codes:

- ``simulate``: 0 when every scenario passes every verdict, the
  ``monotonicity_y<y0>`` and ``rate_fd_match`` ones included; 1 when any
  scenario fails a verdict or stops on a runtime failure (dynamics
  breakdown, loss of modulation, a datum too near vacuum for dt, any other
  exception), each report still written; 2 for a missing or malformed
  config (a dt over the step bound at the soliton sum, or not dividing
  t_end, included) or duplicate scenario names, with nothing written.
- ``modulate-track``: 0 when every snapshot is decomposed and the Newton
  iteration and orthogonality verdicts pass; 1 when the decomposition is
  lost at some snapshot (the report and the rows before it are written) or
  a verdict fails; 2 for a missing or unreadable trajectory or guess file
  (a trajectory cut inside its header, error string or records, or one
  with no snapshots, included), or a guess of two or more solitons closer
  than its min_separation through the seam of the trajectory's grid, with
  nothing written.  The guess file is a scenario's ``solitons`` section,
  read as strictly as a scenario config.
- ``virial-audit``: 0 when every run keeps U' >= 1/4 ||.||_X^2; 1 when a
  run breaks down (the runs before it are written) or a margin is negative;
  2 for an invalid option (a non-finite number included), or a run whose
  datum is not a non-vacuum state or is too near vacuum for dt (every datum
  is drawn and checked before the first run starts), with nothing written.
  Each row of its virial.csv carries the ``seam`` mass of its state, as
  ``simulate``'s diagnostics.csv does: U and the rate are exact only while
  it is negligible.
- ``soliton-table``: 0 on success; 2 for an invalid option (a non-finite
  number included), with nothing written.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dynamics import write_table
from .scenarios import (
    ConfigError,
    RunReport,
    ScenarioConfig,
    load_scenario,
    run_scenario,
    run_track,
    run_virial_audit,
    write_report,
)
from .solitons import soliton_hydro, soliton_spin


def _fail_config(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _print_report(report: RunReport) -> None:
    n_pass = sum(1 for v in report.verdicts if v.passed)
    status = "PASS" if report.all_passed else ("ERROR" if report.error else "FAIL")
    line = (f"{report.name}: {status} "
            f"({n_pass}/{len(report.verdicts)} verdicts, "
            f"{report.timings.get('total', 0.0):.1f}s)")
    if report.error:
        line += f"  [{report.error}]"
    print(line)


def _run(cfg: ScenarioConfig) -> RunReport:
    """run_scenario, with any exception it raises recorded on the report."""
    try:
        return run_scenario(cfg)
    except Exception as exc:  # noqa: BLE001 -- report, do not crash the batch
        return RunReport(name=cfg.name, config=cfg.to_dict(), verdicts=(),
                         timings={}, error=f"{exc}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        configs = [load_scenario(p) for p in args.configs]
    except ConfigError as exc:
        return _fail_config(str(exc))
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        return _fail_config(f"duplicate scenario names in batch: {', '.join(dup)}")

    exit_code = 0
    for report in map(_run, configs):   # each report written when its run ends
        write_report(report, args.out)
        _print_report(report)
        if not report.all_passed:
            exit_code = 1
    return exit_code


def _cmd_modulate_track(args: argparse.Namespace) -> int:
    try:
        report = run_track(args.trajectory, args.guess)
    except ConfigError as exc:
        return _fail_config(str(exc))
    write_report(report, args.out)
    _print_report(report)
    return 0 if report.all_passed else 1


def _cmd_virial_audit(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.amplitude) and args.amplitude > 0.0):
        return _fail_config(f"--amplitude must be finite and positive, got {args.amplitude}")
    if args.runs < 1:
        return _fail_config(f"--runs must be >= 1, got {args.runs}")
    if args.seed < 0:
        return _fail_config(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.t_end) and args.t_end > 0.0):
        return _fail_config(f"--t-end must be finite and positive, got {args.t_end}")
    try:
        report, table = run_virial_audit(args.amplitude, args.seed, args.runs, args.t_end)
    except ConfigError as exc:
        return _fail_config(str(exc))
    out_dir = write_report(report, args.out)
    with open(out_dir / "virial.csv", "w", newline="") as fh:
        write_table(fh, table)
    _print_report(report)
    return 0 if report.all_passed else 1


def _cmd_soliton_table(args: argparse.Namespace) -> int:
    if not (0.0 < abs(args.c) < 1.0):
        return _fail_config(f"--c must lie in (-1, 1) excluding 0, got {args.c}")
    if not (math.isfinite(args.xmax) and args.xmax > 0.0):
        return _fail_config(f"--xmax must be finite and positive, got {args.xmax}")
    if not (math.isfinite(args.dx) and 0.0 < args.dx <= 2.0 * args.xmax):
        return _fail_config(f"--dx must lie in (0, 2*xmax], got {args.dx}")

    count = int(math.floor(2.0 * args.xmax / args.dx + 0.5)) + 1
    x = -args.xmax + args.dx * np.arange(count)
    u = soliton_spin(args.c, x)
    v, w = soliton_hydro(args.c, x)

    table = {"x": x, "u1": u[:, 0], "u2": u[:, 1], "u3": u[:, 2], "v": v, "w": w}
    if args.out is None:
        write_table(sys.stdout, table)
        return 0
    path = Path(args.out) / "soliton_table.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        write_table(fh, table)
    print(f"wrote {path} ({count} rows)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ll-lab",
        description="Dark multi-soliton laboratory for the easy-plane "
                    "Landau-Lifshitz equation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one or more scenario configs")
    p.add_argument("configs", nargs="+", metavar="config.json")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("modulate-track",
                       help="track modulation parameters of a saved trajectory")
    p.add_argument("trajectory", help="trajectory file written by save_trajectory")
    p.add_argument("guess", metavar="guess.json",
                   help="the solitons section of a scenario config: "
                        "params [{c, a, s}] and min_separation")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.set_defaults(func=_cmd_modulate_track)

    p = sub.add_parser("virial-audit",
                       help="check U' >= 1/4 ||.||_X^2 along seeded small-data runs")
    p.add_argument("--amplitude", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.set_defaults(func=_cmd_virial_audit)

    p = sub.add_parser("soliton-table",
                       help="emit closed-form profile samples as CSV")
    p.add_argument("--c", type=float, required=True, help="wave speed in (-1, 1), not 0")
    p.add_argument("--xmax", type=float, required=True, help="half width of the table")
    p.add_argument("--dx", type=float, required=True, help="sample spacing")
    p.add_argument("--out", default=None,
                   help="output directory (default: write CSV to stdout)")
    p.set_defaults(func=_cmd_soliton_table)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
