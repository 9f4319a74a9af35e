"""Check that the outputs of ll-lab at a git revision equal those of the
working tree.

    python tools/same_outputs.py <rev> [--quick]

``<rev>`` is exported with ``git archive`` into a temporary directory (the
repository's worktree list is not touched).  One suite of runs is made on
that tree and then on the working tree, each command in its own process
with one BLAS/OpenMP thread, and every output file is compared.  One line is
printed per file: "identical", or, for a CSV, the columns added and removed
and the largest absolute and relative difference of each column that the
two files share (matched by name) and that differs.  ``report.json`` is
compared without its ``timings``.  The exit code is 0 when every file is
identical and every command exited 0 or 1, 2 when ``<rev>`` cannot be
exported, else 1.

The suite is ``simulate`` on a hydro pair, a sector-0 spin pair, a sector-1
spin soliton, a pair with fixed-speed paths and a pair pushed along its
faster soliton's negative direction (and, in the full suite, on the three
shipped configs and on a spin soliton whose track is lost at t = 2.65);
a saved pair trajectory, that trajectory saved again after a load, and
``modulate-track`` on it; the saved trajectory of the negative-direction
pair and ``modulate-track`` on it, the path of the benchmark's track-chi
workload; ``virial-audit``; and ``soliton-table``.
Both trees load and track the trajectories the revision saved, so reading
and tracking are compared on one input.
``--quick`` shortens the runs (T = 1, one virial run to T = 0.5) to a few
seconds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PAIR = {"params": [{"c": -0.4, "a": -15.0}, {"c": 0.4, "a": 15.0}], "min_separation": 30.0}
CHI_PAIR = {"params": [{"c": -0.4, "a": -20.0}, {"c": 0.4, "a": 20.0}], "min_separation": 40.0}

# argv: a scenario config and the output path; the config's initial datum
# evolved and saved
TRAJECTORY_SCRIPT = """
import sys
from ll_lab import evolve, load_scenario, save_trajectory
from ll_lab.scenarios import build_initial
cfg = load_scenario(sys.argv[1])
save_trajectory(evolve(build_initial(cfg), cfg.integrator), sys.argv[2])
"""

# argv: a saved trajectory and the path to save it to again after a load
RESAVE_SCRIPT = """
import sys
from ll_lab import load_trajectory, save_trajectory
save_trajectory(load_trajectory(sys.argv[1]), sys.argv[2])
"""


def pair_run(quick: bool) -> dict:
    """The unperturbed pair of PAIR stored every 0.05, to save and track
    (it is not simulated)."""
    return {"name": "pair", "frame": "hydro", "solitons": PAIR,
            "perturbation": {"kind": "none"}, "grid": {"n": 1024, "dx": 0.1},
            "integrator": {"dt": 1e-3, "t_end": 1.0 if quick else 10.0, "sample_stride": 50},
            "diagnostics": {"y0_list": [], "window_half_width": 8.0}}


def chi_pair(quick: bool) -> dict:
    """The benchmark's track-chi source: the ordered pair at +-20 pushed
    along the faster soliton's negative direction, stored every 0.1."""
    return {"name": "chi-pair", "frame": "hydro", "solitons": CHI_PAIR,
            "perturbation": {"kind": "chi_direction", "amplitude": 0.05, "index": 1},
            "grid": {"n": 2048, "dx": 0.1},
            "integrator": {"dt": 1e-3, "t_end": 1.0 if quick else 10.0, "sample_stride": 100},
            "diagnostics": {"y0_list": [], "window_half_width": 10.0}}


def scenarios(quick: bool) -> list[dict]:
    """The suite's own scenario configs."""
    single = {"params": [{"c": 0.6, "a": 0.0}], "min_separation": 10.0}
    cases = [("hydro-pair", "hydro", PAIR), ("spin-pair", "spin", PAIR),
             ("spin-soliton", "spin", single), ("fixed-speed", "hydro", PAIR)]
    configs = [{"name": name, "frame": frame, "solitons": solitons,
                "perturbation": {"kind": "none"}, "grid": {"n": 1024, "dx": 0.1},
                "integrator": {"dt": 1e-3 if frame == "hydro" else 2e-3,
                               "t_end": 1.0 if quick else 5.0, "sample_stride": 100},
                "diagnostics": {"y0_list": [5.0, -10.0], "window_half_width": 8.0}}
               for name, frame, solitons in cases]
    configs[-1]["diagnostics"]["gammas"] = [0.0]
    return configs + [chi_pair(quick)] + ([] if quick else [lost_track()])


def lost_track() -> dict:
    """A spin soliton pushed along its negative direction until its track
    is lost at t = 2.65, so the report keeps a cut track."""
    return {"name": "lost-track", "frame": "spin",
            "solitons": {"params": [{"c": 0.3, "a": 0.0}], "min_separation": 10.0},
            "perturbation": {"kind": "chi_direction", "amplitude": 0.4},
            "grid": {"n": 512, "dx": 0.1},
            "integrator": {"dt": 1e-3, "t_end": 3.0, "sample_stride": 50},
            "diagnostics": {"y0_list": [5.0], "window_half_width": 5.0}}


def _run(tree: Path, side: Path, name: str, argv: list[str]) -> int:
    """One Python process on the ll_lab of ``tree``, run in ``side``, its
    output streams kept in ``side/logs``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{key: "1" for key in PINNED})
    logs = side / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    with open(logs / f"{name}.out", "wb") as so, open(logs / f"{name}.err", "wb") as se:
        return subprocess.run([sys.executable, *argv], cwd=side, env=env, stdout=so,
                              stderr=se, check=False).returncode


def run_suite(tree: Path, side: Path, quick: bool, trajectories: Path | None = None) -> dict:
    """Run the suite on the ll_lab of ``tree``, with inputs in ``side/inputs``
    and outputs in ``side/out``, and return each command's exit code.
    The resave and the modulate-tracks read the trajectories saved in the
    directory ``trajectories`` when it is given, else those this run saved
    in ``side/out/trajectory``."""
    inputs, out = side / "inputs", side / "out"
    inputs.mkdir(parents=True)
    saved = out / "trajectory"
    saved.mkdir(parents=True)
    # before gammas alone chose fixed-speed paths, a b_path key selected them
    legacy = "b_path: str" in (tree / "src" / "ll_lab" / "scenarios.py").read_text()
    configs = [] if quick else sorted(str(p) for p in (tree / "demos" / "configs").glob("*.json"))
    for cfg in scenarios(quick):
        if legacy and "gammas" in cfg["diagnostics"]:
            cfg["diagnostics"]["b_path"] = "fixed_speed"
        (inputs / f"{cfg['name']}.json").write_text(json.dumps(cfg))
        configs.append(f"inputs/{cfg['name']}.json")
    (inputs / "pair.json").write_text(json.dumps(pair_run(quick)))
    (inputs / "guess.json").write_text(json.dumps(PAIR))
    (inputs / "chi-guess.json").write_text(json.dumps(CHI_PAIR))
    cli = ["-m", "ll_lab.cli"]
    codes = {"simulate": _run(tree, side, "simulate",
                              [*cli, "simulate", *configs, "--out", "out"]),
             "trajectory": _run(tree, side, "trajectory",
                                ["-c", TRAJECTORY_SCRIPT, "inputs/pair.json",
                                 "out/trajectory/pair.lltraj"]),
             "chi-trajectory": _run(tree, side, "chi-trajectory",
                                    ["-c", TRAJECTORY_SCRIPT, "inputs/chi-pair.json",
                                     "out/trajectory/chi-pair.lltraj"])}
    for name, stem in (("pair", "track"), ("chi-pair", "chi-track")):
        source = (trajectories or saved) / f"{name}.lltraj"
        if source.is_file():
            shutil.copyfile(source, inputs / f"{stem}.lltraj")
    codes["resave"] = _run(tree, side, "resave",
                           ["-c", RESAVE_SCRIPT, "inputs/track.lltraj",
                            "out/trajectory/resaved.lltraj"])
    for name, guess in (("track", "guess"), ("chi-track", "chi-guess")):
        codes[f"modulate-{name}"] = _run(tree, side, f"modulate-{name}",
                                         [*cli, "modulate-track", f"inputs/{name}.lltraj",
                                          f"inputs/{guess}.json", "--out", "out"])
    codes["virial-audit"] = _run(tree, side, "virial-audit",
                                 [*cli, "virial-audit", "--out", "out",
                                  *(["--runs", "1", "--t-end", "0.5"] if quick else
                                    ["--runs", "2"])])
    codes["soliton-table"] = _run(tree, side, "soliton-table",
                                  [*cli, "soliton-table", "--c", "0.6", "--xmax", "20",
                                   "--dx", "0.1", "--out", "out/soliton-table"])
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    return codes


def _report(path: Path) -> dict:
    """report.json without its timings, and without the b_path key that a
    config echo carried before gammas alone chose fixed-speed paths."""
    data = json.loads(path.read_text())
    data.pop("timings", None)
    diagnostics = data.get("config", {}).get("diagnostics")
    if isinstance(diagnostics, dict):
        diagnostics.pop("b_path", None)
    return data


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _csv_differences(a: Path, b: Path) -> str:
    """The columns removed and added, then the largest absolute and relative
    difference of each column that both files carry, matched by name."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b:
        return "one file is empty"
    head_a, head_b = rows_a[0], rows_b[0]
    if (len(rows_a) != len(rows_b) or any(len(r) != len(head_a) for r in rows_a)
            or any(len(r) != len(head_b) for r in rows_b)):
        return f"{len(rows_a) - 1} rows against {len(rows_b) - 1}, or ragged rows"
    where = {name: j for j, name in enumerate(head_b)}
    common = [(i, where[name], name) for i, name in enumerate(head_a) if name in where]
    parts = [f"{label} {', '.join(names)}" for label, names in
             [("removed", [name for name in head_a if name not in where]),
              ("added", [name for name in head_b if name not in head_a])] if names]
    if not parts and head_a != head_b:
        parts.append("columns reordered")
    header_parts = len(parts)
    for i, j, name in common:
        pairs = [(ra[i], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:]) if ra[i] != rb[j]]
        if not pairs:
            continue
        values = [(_number(x), _number(y)) for x, y in pairs]
        if any(x is None or y is None or not math.isfinite(x - y) for x, y in values):
            parts.append(f"{name} text differs")
            continue
        abs_max = max(abs(x - y) for x, y in values)
        rel_max = max(abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0 for x, y in values)
        parts.append(f"{name} abs {abs_max:.3g} rel {rel_max:.3g}")
    if header_parts and len(parts) == header_parts:
        parts.append(f"{len(common)} common columns identical")
    return "; ".join(parts) or "bytes differ, cells equal"


def compare(a: Path, b: Path) -> list[str]:
    """One line per file found under either output directory."""
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            verdict = f"only in {'the revision' if fa.is_file() else 'the working tree'}"
        elif name.name == "report.json":
            ra, rb = _report(fa), _report(fb)
            verdict = "identical" if ra == rb else "differs in " + ", ".join(
                sorted(k for k in ra.keys() | rb.keys() if ra.get(k) != rb.get(k)))
        elif fa.read_bytes() == fb.read_bytes():
            verdict = "identical"
        elif name.suffix == ".csv":
            verdict = _csv_differences(fa, fb)
        else:
            verdict = f"differs ({fa.stat().st_size} bytes against {fb.stat().st_size})"
        lines.append(f"{name}: {verdict}")
    return lines


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` under ``dest`` through ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=False)
    if tar.returncode != 0:
        print(f"error: git archive {rev}: {tar.stderr.decode().strip()}", file=sys.stderr)
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--quick", action="store_true", help="the short suite")
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        export(args.rev, work / "tree")
        saved = work / "rev" / "out" / "trajectory"
        for side, tree, trajectories in [("rev", work / "tree", None), ("work", ROOT, saved)]:
            for name, code in run_suite(tree, work / side, args.quick, trajectories).items():
                if code not in (0, 1):   # a refused input or a crash: nothing to compare
                    failed = True
                    err = (work / side / "logs" / f"{name}.err").read_text().splitlines()
                    print(f"error: {name} on the {'revision' if side == 'rev' else 'working tree'}"
                          f" exited {code}: {err[-1] if err else ''}", file=sys.stderr)
        lines = compare(work / "rev" / "out", work / "work" / "out")
    print("\n".join(lines))
    return 1 if failed or not all(line.endswith(": identical") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
