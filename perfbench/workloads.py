"""Workload inputs and the benchmark's own correctness checks.

Nothing here imports ``ll_lab``: the inputs are written as plain files (the
track-chi trajectory is built by a pinned child, see ``child.py``), and every
check reads the program's outputs and recomputes what it needs from closed
forms.  The parent process therefore measures the program only from outside.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The ordered pair behind every workload (demos/configs/pair-ordered.json).
PAIR = [{"c": -0.4, "a": -20.0}, {"c": 0.4, "a": 20.0}]
MIN_SEPARATION = 40.0
GRID = {"n": 2048, "dx": 0.1}
Y0_LIST = [5.0, 10.0, 20.0]
AMPLITUDE = 0.01

# pair-hydro: the pair-ordered config, shortened to T_HYDRO.
T_HYDRO = 10.0
# track-chi: the ordered pair perturbed along the faster soliton's negative
# direction, evolved to T = 50 and stored every 0.1 (501 snapshots).
TRACK_CHI = {
    "name": "track-chi-source",
    "frame": "hydro",
    "solitons": {"params": PAIR, "min_separation": MIN_SEPARATION},
    "perturbation": {"kind": "chi_direction", "amplitude": 0.05, "index": 1},
    "grid": GRID,
    "integrator": {"dt": 0.001, "t_end": 50.0, "sample_stride": 100},
    "diagnostics": {"y0_list": [], "window_half_width": 10.0},
}
# the seed translates the track-chi trajectory by a whole number of grid
# cells in [-SHIFT_CELLS, SHIFT_CELLS]; a whole-cell roll is exact on the grid
SHIFT_CELLS = 25


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = ("pair-hydro", "track-chi")


def pinned_env() -> dict:
    """Environment of every program process: one BLAS/OpenMP thread, the
    checkout's source tree on the path, and LL_LAB_THREADS left unset."""
    env = dict(os.environ)
    env.pop("LL_LAB_THREADS", None)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def source_digest() -> str:
    """Hash of the program's sources; keys the cached track-chi trajectory."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ll_lab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    h.update(json.dumps(TRACK_CHI, sort_keys=True).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def scenario(name: str, frame: str, seed: int, t_end: float, dt: float,
             stride: int) -> dict:
    return {
        "name": name,
        "frame": frame,
        "solitons": {"params": PAIR, "min_separation": MIN_SEPARATION},
        "perturbation": {"kind": "random_smooth", "amplitude": AMPLITUDE, "seed": seed},
        "grid": GRID,
        "integrator": {"dt": dt, "t_end": t_end, "sample_stride": stride},
        "diagnostics": {"y0_list": Y0_LIST, "window_half_width": 10.0},
    }


def simulate_configs(seed: int) -> list[dict]:
    return [scenario("pair-hydro", "hydro", seed % 2 ** 31, T_HYDRO, 1e-3, 100)]


def track_shift(seed: int) -> int:
    rng = np.random.default_rng(seed % 2 ** 32)
    return int(rng.integers(-SHIFT_CELLS, SHIFT_CELLS + 1))


def track_guess(seed: int) -> dict:
    shift = track_shift(seed) * GRID["dx"]
    return {"params": [{"c": p["c"], "a": p["a"] + shift} for p in PAIR],
            "min_separation": MIN_SEPARATION}


def write_inputs(workload: str, seed: int, in_dir: Path) -> list[str]:
    """Write the workload's seeded inputs and return the ll-lab arguments
    (without --out).  The track-chi trajectory is written by the caller."""
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload == "track-chi":
        (in_dir / "guess.json").write_text(json.dumps(track_guess(seed), indent=1))
        return ["modulate-track", str(in_dir / "track-chi.lltraj"), str(in_dir / "guess.json")]
    paths = []
    for cfg in simulate_configs(seed):
        path = in_dir / f"{cfg['name']}.json"
        path.write_text(json.dumps(cfg, indent=1))
        paths.append(str(path))
    return ["simulate", *paths]


def job_names(workload: str, seed: int) -> list[str]:
    if workload == "track-chi":
        return ["track-chi"]
    return [cfg["name"] for cfg in simulate_configs(seed)]


# ---------------------------------------------------------------------------
# reading the program's outputs, apart from the program
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def read_trajectory(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Parse the documented LLTRAJ01 layout of a hydro-frame trajectory:
    returns (grid, times, states[T, 2, n])."""
    raw = Path(path).read_bytes()
    if raw[:8] != b"LLTRAJ01":
        raise ValueError(f"{path}: not a trajectory file")
    n, dx, x_min, tag, count, errlen = struct.unpack_from("<QddQQQ", raw, 8)
    if tag != 0:
        raise ValueError(f"{path}: expected a hydro-frame trajectory, got tag {tag}")
    off = 8 + 48 + errlen
    rec = np.dtype([("t", "<f8"), ("vw", "<f8", (2, n))])
    data = np.frombuffer(raw, dtype=rec, count=count, offset=off)
    return {"n": n, "dx": dx, "x_min": x_min}, data["t"].copy(), data["vw"].copy()


def profile(c: float, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form dark soliton (v, w) = (nu sech(nu x), c v/(1 - v^2)) and
    its x-derivative."""
    nu = math.sqrt(1.0 - c * c)
    sech = 1.0 / np.cosh(nu * xi)
    v = nu * sech
    w = c * v / (1.0 - v * v)
    dv = -nu * v * np.tanh(nu * xi)
    dw = c * dv * (1.0 + v * v) / (1.0 - v * v) ** 2
    return v, w, dv, dw


def closed_forms(params: list[dict]) -> tuple[float, float]:
    """E = sum 2 nu_j and P = sum 2 arctan(nu_j / c_j) of the unperturbed sum."""
    e = sum(2.0 * math.sqrt(1.0 - p["c"] ** 2) for p in params)
    m = sum(2.0 * math.atan(math.sqrt(1.0 - p["c"] ** 2) / p["c"]) for p in params)
    return e, m


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_report(job_dir: Path) -> list[str]:
    """The program's own gates: no error and every verdict passing."""
    path = job_dir / "report.json"
    if not path.is_file():
        return [f"{job_dir.name}: report.json missing"]
    report = json.loads(path.read_text())
    errors = []
    if report.get("error"):
        errors.append(f"{job_dir.name}: error {report['error']}")
    if not report.get("verdicts"):
        errors.append(f"{job_dir.name}: no verdicts")
    for v in report.get("verdicts", []):
        if not v["pass"]:
            errors.append(f"{job_dir.name}: verdict {v['name']} failed "
                          f"({v['measured']} vs {v['threshold']})")
    return errors


def check_centre_slopes(header: list[str], rows: np.ndarray, where: str) -> list[str]:
    """Least-squares slope of each a_j(t) equals the tracked c_j within
    10 max eps."""
    t = rows[:, header.index("t")]
    bound = 10.0 * float(np.max(rows[:, header.index("eps_xnorm")]))
    errors = []
    nsol = sum(1 for h in header if h.startswith("a_"))
    for j in range(1, nsol + 1):
        a = rows[:, header.index(f"a_{j}")]
        c = rows[:, header.index(f"c_{j}")]
        slope = float(np.polyfit(t, a, 1)[0])
        for cj in (float(np.min(c)), float(np.max(c))):
            if abs(slope - cj) > bound:
                errors.append(f"{where}: slope of a_{j} is {slope:.6g}, "
                              f"tracked c_{j} reaches {cj:.6g} (bound {bound:.3g})")
    return errors


def check_simulate_job(job_dir: Path, cfg: dict) -> list[str]:
    errors = check_report(job_dir)
    diag = job_dir / "diagnostics.csv"
    if not diag.is_file():
        return errors + [f"{job_dir.name}: diagnostics.csv missing"]
    header, rows = read_csv(diag)
    energy = rows[:, header.index("E")]
    mom = rows[:, header.index("P")]
    e_ref, p_ref = closed_forms(cfg["solitons"]["params"])
    # the perturbation has energy-space norm alpha, so E and P move by
    # <E'(Q), eps> and <P'(Q), eps> at first order, each at most C alpha
    tol = 10.0 * cfg["perturbation"]["amplitude"]
    if abs(energy[0] - e_ref) > tol:
        errors.append(f"{job_dir.name}: E(0) = {energy[0]:.12g}, closed form {e_ref:.12g}")
    if abs(mom[0] - p_ref) > tol:
        errors.append(f"{job_dir.name}: P(0) = {mom[0]:.12g}, closed form {p_ref:.12g}")
    e_drift = float(np.max(np.abs(energy - energy[0]))) / abs(energy[0])
    p_drift = float(np.max(np.abs(mom - mom[0]))) / (1.0 + abs(mom[0]))
    if e_drift > 1e-8 or p_drift > 1e-8:
        errors.append(f"{job_dir.name}: drift E {e_drift:.3e}, P {p_drift:.3e} above 1e-8")
    mod = job_dir / "modulation.csv"
    if not mod.is_file():
        return errors + [f"{job_dir.name}: modulation.csv missing"]
    header, rows = read_csv(mod)
    return errors + check_centre_slopes(header, rows, job_dir.name)


def check_track_job(job_dir: Path, traj_path: Path, guess: dict) -> list[str]:
    errors = check_report(job_dir)
    mod = job_dir / "modulation.csv"
    if not mod.is_file():
        return errors + [f"{job_dir.name}: modulation.csv missing"]
    header, rows = read_csv(mod)
    errors += check_centre_slopes(header, rows, job_dir.name)
    grid, times, states = read_trajectory(traj_path)
    if len(times) != len(rows) or np.any(times != rows[:, 0]):
        return errors + [f"{job_dir.name}: modulation.csv does not follow the trajectory"]
    n, dx = grid["n"], grid["dx"]
    period = n * dx
    x = grid["x_min"] + dx * np.arange(n)
    signs = [p.get("s", 1) for p in guess["params"]]
    nsol = len(signs)
    worst = 0.0
    for i in range(len(times)):
        speeds = [rows[i, header.index(f"c_{j + 1}")] for j in range(nsol)]
        centres = [rows[i, header.index(f"a_{j + 1}")] for j in range(nsol)]
        ev = states[i, 0].copy()
        ew = states[i, 1].copy()
        derivs = []
        for c, a, s in zip(speeds, centres, signs):
            xi = np.mod(x - a + 0.5 * period, period) - 0.5 * period
            v, w, dv, dw = profile(c, xi)
            ev -= s * v
            ew -= s * w
            derivs.append((s, dv, dw))
        for s, dv, dw in derivs:
            worst = max(worst, abs(s * float(np.sum(ev * dv + ew * dw)) * dx))
    if worst > 1e-8:
        errors.append(f"{job_dir.name}: <eps, dQ/dx> reaches {worst:.3e} (bound 1e-8)")
    return errors


def csv_bytes(out_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*.csv"))}

