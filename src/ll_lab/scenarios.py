"""Scenario configs, the experiment pipeline, and verdict reports.

A scenario bundles a multi-soliton configuration, an optional perturbation,
a grid, integrator settings, and the diagnostics to record.  ``run_scenario``
builds the initial state, evolves it in the requested frame, tracks the
modulation parameters, samples the conserved and localized functionals along
the tracked soliton paths, and turns the recorded series into pass/fail
verdicts.  ``write_report`` emits diagnostics.csv, modulation.csv, and
report.json for every subcommand's ``RunReport``; verdicts are pure
functions of the emitted series.

Configs are strict JSON: unknown keys are rejected with the offending field
path, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from .dynamics import IntegratorConfig, Trajectory, evolve, step_rk4
from .functionals import (
    DiagnosticsSample,
    LocalizedMomentumSpec,
    SeamSupportWarning,
    diagnostics_to_csv,
    energy_hydro,
    localized_momentum,
    localized_momentum_rate,
    momentum,
    virial_U,
)
from .grid import Grid, HydroState, SpinState, deriv_array, integrate, window_norm, x_norm
from .modulation import (
    ModulationTrack,
    negative_mode,
    track_modulation,
    track_to_csv,
)
from .solitons import (
    MultiSolitonConfig,
    SolitonParams,
    extract_hydro,
    multi_soliton_sum,
    reconstruct_spin,
    speed_gaps,
)


class ConfigError(ValueError):
    """Malformed scenario config; the message names the offending field."""


# ---------------------------------------------------------------------------
# strict JSON parsing
# ---------------------------------------------------------------------------

def _expect_object(obj: Any, path: str, required: Sequence[str],
                   optional: Sequence[str] = ()) -> Mapping[str, Any]:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")
    return obj


def _real(obj: Any, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(obj).__name__}")
    val = float(obj)
    if not np.isfinite(val):
        raise ConfigError(f"{path}: must be finite, got {val}")
    return val


def _integer(obj: Any, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {type(obj).__name__}")
    return obj


def _string(obj: Any, path: str, choices: Optional[Sequence[str]] = None) -> str:
    if not isinstance(obj, str):
        raise ConfigError(f"{path}: expected a string, got {type(obj).__name__}")
    if choices is not None and obj not in choices:
        raise ConfigError(f"{path}: expected one of {sorted(choices)}, got {obj!r}")
    return obj


def _real_list(obj: Any, path: str) -> tuple[float, ...]:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list, got {type(obj).__name__}")
    return tuple(_real(item, f"{path}[{i}]") for i, item in enumerate(obj))


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------

PERTURBATION_KINDS = ("none", "random_smooth", "chi_direction", "between_bump")


@dataclass(frozen=True)
class Perturbation:
    """Initial-datum perturbation: a kind plus its numeric knobs.

    ``seed`` feeds the random generator of random_smooth, ``index`` picks the
    soliton whose negative direction chi_direction follows, and ``width`` is
    the Gaussian width of between_bump.
    """

    kind: str
    amplitude: float = 0.0
    seed: int = 0
    index: int = 0
    width: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in PERTURBATION_KINDS:
            raise ConfigError(
                f"perturbation.kind: expected one of {list(PERTURBATION_KINDS)}, got {self.kind!r}")
        if self.amplitude < 0.0 or not np.isfinite(self.amplitude):
            raise ConfigError(f"perturbation.amplitude: must be >= 0, got {self.amplitude}")
        if self.kind == "none" and self.amplitude != 0.0:
            raise ConfigError("perturbation.amplitude: must be 0 for kind 'none'")
        if self.kind != "none" and self.amplitude == 0.0:
            raise ConfigError(f"perturbation.amplitude: must be > 0 for kind {self.kind!r}")
        if self.index < 0:
            raise ConfigError(f"perturbation.index: must be >= 0, got {self.index}")
        if self.width <= 0.0 or not np.isfinite(self.width):
            raise ConfigError(f"perturbation.width: must be > 0, got {self.width}")


@dataclass(frozen=True)
class DiagnosticsConfig:
    """What to record: localized-momentum offsets y0, the half width of the
    window norms, and how the between-soliton reference paths move."""

    y0_list: tuple[float, ...]
    window_half_width: float
    b_path: str = "midpoints"
    gammas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.window_half_width <= 0.0:
            raise ConfigError(
                f"diagnostics.window_half_width: must be > 0, got {self.window_half_width}")
        if self.b_path not in ("midpoints", "fixed_speed"):
            raise ConfigError(
                f"diagnostics.b_path: expected 'midpoints' or 'fixed_speed', got {self.b_path!r}")
        if self.b_path == "fixed_speed" and not self.gammas:
            raise ConfigError("diagnostics.gammas: required when b_path is 'fixed_speed'")
        if self.b_path == "midpoints" and self.gammas:
            raise ConfigError("diagnostics.gammas: only valid when b_path is 'fixed_speed'")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    frame: str
    solitons: MultiSolitonConfig
    perturbation: Perturbation
    grid: Grid
    integrator: IntegratorConfig
    diagnostics: DiagnosticsConfig

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("name: must be a non-empty string")
        if self.frame not in ("spin", "hydro"):
            raise ConfigError(f"frame: expected 'spin' or 'hydro', got {self.frame!r}")
        nsol = self.solitons.n_solitons
        if self.perturbation.kind == "chi_direction" and self.perturbation.index >= nsol:
            raise ConfigError(
                f"perturbation.index: {self.perturbation.index} out of range for {nsol} solitons")
        if self.perturbation.kind == "between_bump" and nsol < 2:
            raise ConfigError("perturbation.kind: between_bump needs at least two solitons")
        gam = self.diagnostics.gammas
        if gam:
            speeds = self.solitons.speeds
            if len(gam) != nsol - 1:
                raise ConfigError(
                    f"diagnostics.gammas: expected {nsol - 1} values (one per gap), got {len(gam)}")
            for j, g in enumerate(gam):
                if not (speeds[j] < g < speeds[j + 1]):
                    raise ConfigError(
                        f"diagnostics.gammas[{j}]: {g} does not lie strictly between "
                        f"speeds {speeds[j]} and {speeds[j + 1]}")

    def to_dict(self) -> dict:
        """Echo of the config in the JSON schema (used in report.json)."""
        out: dict[str, Any] = {
            "name": self.name,
            "frame": self.frame,
            "solitons": {
                "params": [{"c": p.c, "a": p.a, "s": p.s} for p in self.solitons.params],
                "min_separation": self.solitons.min_separation,
            },
            "perturbation": {"kind": self.perturbation.kind,
                             "amplitude": self.perturbation.amplitude,
                             "seed": self.perturbation.seed,
                             "index": self.perturbation.index,
                             "width": self.perturbation.width},
            "grid": {"n": self.grid.n, "dx": self.grid.dx, "x_min": self.grid.x_min},
            "integrator": {"dt": self.integrator.dt, "t_end": self.integrator.t_end,
                           "sample_stride": self.integrator.sample_stride},
            "diagnostics": {"y0_list": list(self.diagnostics.y0_list),
                            "window_half_width": self.diagnostics.window_half_width,
                            "b_path": self.diagnostics.b_path},
        }
        if self.diagnostics.gammas:
            out["diagnostics"]["gammas"] = list(self.diagnostics.gammas)
        return out


def scenario_from_dict(data: Any, path: str = "config") -> ScenarioConfig:
    top = _expect_object(data, path, required=(
        "name", "frame", "solitons", "perturbation", "grid", "integrator", "diagnostics"))

    name = _string(top["name"], f"{path}.name")
    frame = _string(top["frame"], f"{path}.frame", choices=("spin", "hydro"))

    sol = _expect_object(top["solitons"], f"{path}.solitons",
                         required=("params", "min_separation"))
    raw_params = sol["params"]
    if not isinstance(raw_params, list) or not raw_params:
        raise ConfigError(f"{path}.solitons.params: expected a non-empty list")
    params = []
    for i, item in enumerate(raw_params):
        ppath = f"{path}.solitons.params[{i}]"
        entry = _expect_object(item, ppath, required=("c", "a"), optional=("s",))
        sign = _integer(entry["s"], f"{ppath}.s") if "s" in entry else 1
        try:
            params.append(SolitonParams(_real(entry["c"], f"{ppath}.c"),
                                        _real(entry["a"], f"{ppath}.a"), sign))
        except ValueError as exc:
            raise ConfigError(f"{ppath}: {exc}") from exc
    try:
        solitons = MultiSolitonConfig(tuple(params),
                                      _real(sol["min_separation"],
                                            f"{path}.solitons.min_separation"))
    except ValueError as exc:
        raise ConfigError(f"{path}.solitons: {exc}") from exc

    pert_obj = _expect_object(top["perturbation"], f"{path}.perturbation",
                              required=("kind",),
                              optional=("amplitude", "seed", "index", "width"))
    perturbation = Perturbation(
        kind=_string(pert_obj["kind"], f"{path}.perturbation.kind"),
        amplitude=_real(pert_obj.get("amplitude", 0.0), f"{path}.perturbation.amplitude"),
        seed=_integer(pert_obj.get("seed", 0), f"{path}.perturbation.seed"),
        index=_integer(pert_obj.get("index", 0), f"{path}.perturbation.index"),
        width=_real(pert_obj.get("width", 5.0), f"{path}.perturbation.width"))

    grid_obj = _expect_object(top["grid"], f"{path}.grid",
                              required=("n", "dx"), optional=("x_min",))
    n = _integer(grid_obj["n"], f"{path}.grid.n")
    dx = _real(grid_obj["dx"], f"{path}.grid.dx")
    if "x_min" in grid_obj:
        x_min = _real(grid_obj["x_min"], f"{path}.grid.x_min")
    else:
        x_min = -0.5 * n * dx
    try:
        grid = Grid(n=n, dx=dx, x_min=x_min)
    except ValueError as exc:
        raise ConfigError(f"{path}.grid: {exc}") from exc

    int_obj = _expect_object(top["integrator"], f"{path}.integrator",
                             required=("dt", "t_end"),
                             optional=("sample_stride", "cfl_factor"))
    kwargs: dict[str, Any] = {"dt": _real(int_obj["dt"], f"{path}.integrator.dt"),
                              "t_end": _real(int_obj["t_end"], f"{path}.integrator.t_end")}
    if "sample_stride" in int_obj:
        kwargs["sample_stride"] = _integer(int_obj["sample_stride"],
                                           f"{path}.integrator.sample_stride")
    if "cfl_factor" in int_obj:
        kwargs["cfl_factor"] = _real(int_obj["cfl_factor"], f"{path}.integrator.cfl_factor")
    try:
        integrator = IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.integrator: {exc}") from exc

    diag_obj = _expect_object(top["diagnostics"], f"{path}.diagnostics",
                              required=("y0_list", "window_half_width"),
                              optional=("b_path", "gammas"))
    diagnostics = DiagnosticsConfig(
        y0_list=_real_list(diag_obj["y0_list"], f"{path}.diagnostics.y0_list"),
        window_half_width=_real(diag_obj["window_half_width"],
                                f"{path}.diagnostics.window_half_width"),
        b_path=_string(diag_obj.get("b_path", "midpoints"), f"{path}.diagnostics.b_path"),
        gammas=_real_list(diag_obj.get("gammas", []), f"{path}.diagnostics.gammas"))

    return ScenarioConfig(name=name, frame=frame, solitons=solitons,
                          perturbation=perturbation, grid=grid,
                          integrator=integrator, diagnostics=diagnostics)


def scenario_from_json(text: str, path: str = "config") -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    return scenario_from_dict(data, path)


def load_scenario(file_path) -> ScenarioConfig:
    p = Path(file_path)
    if not p.is_file():
        raise ConfigError(f"{p}: no such config file")
    return scenario_from_json(p.read_text(), path=str(p))


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def _pair_x_norm(dv: np.ndarray, dw: np.ndarray, grid: Grid) -> float:
    ddv = deriv_array(dv, grid, 1)
    return math.sqrt(max(integrate(dv * dv + ddv * ddv + dw * dw, grid), 0.0))


def random_smooth_pair(grid: Grid, amplitude: float, seed: int,
                       max_mode: Optional[int] = None,
                       sigma: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Band-limited random (dv, dw) under a Gaussian envelope, scaled to the
    requested energy-space norm.

    Modes 1..max_mode (default n/8) get independent complex-normal
    coefficients; the result is multiplied by exp(-((x-mid)/sigma)^2) with
    sigma defaulting to period/8.  dw is projected to zero integral so the
    perturbation cannot change the winding sector of the reconstructed spin
    field.
    """
    if amplitude <= 0.0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if max_mode is None:
        max_mode = max(1, grid.n // 8)
    if sigma is None:
        sigma = grid.period / 8.0
    max_mode = min(int(max_mode), grid.n // 2 - 1)
    rng = np.random.default_rng(seed)
    mid = grid.x_min + 0.5 * grid.period
    env = np.exp(-(((grid.x - mid) / sigma) ** 2))

    def draw() -> np.ndarray:
        coef = np.zeros(grid.n // 2 + 1, dtype=complex)
        coef[1:max_mode + 1] = (rng.standard_normal(max_mode)
                                + 1j * rng.standard_normal(max_mode))
        return np.fft.irfft(coef, n=grid.n) * env

    dv = draw()
    dw = draw()
    dw = dw - (integrate(dw, grid) / integrate(env, grid)) * env
    norm = _pair_x_norm(dv, dw, grid)
    if norm == 0.0:
        raise ValueError("degenerate draw: zero perturbation")
    return dv * (amplitude / norm), dw * (amplitude / norm)


def _perturbation_arrays(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    grid = cfg.grid
    pert = cfg.perturbation
    if pert.kind == "none":
        zero = np.zeros(grid.n)
        return zero, zero.copy()
    if pert.kind == "random_smooth":
        return random_smooth_pair(grid, pert.amplitude, pert.seed)
    if pert.kind == "chi_direction":
        par = cfg.solitons.params[pert.index]
        mode = negative_mode(par.c, grid, center=par.a)
        dv = mode.chi[0].values.copy()
        dw = mode.chi[1].values.copy()
        norm = _pair_x_norm(dv, dw, grid)
        return dv * (pert.amplitude / norm), dw * (pert.amplitude / norm)
    # between_bump: a Gaussian bump in v between the first two solitons
    centers = cfg.solitons.centers
    mid = 0.5 * (centers[0] + centers[1])
    xi = grid.periodic_offset(grid.x, mid)
    dv = pert.amplitude * np.exp(-((xi / pert.width) ** 2))
    return dv, np.zeros(grid.n)


def build_initial(cfg: ScenarioConfig) -> HydroState:
    """Multi-soliton sum plus the configured perturbation, in hydro form."""
    base = multi_soliton_sum(cfg.solitons, cfg.grid)
    dv, dw = _perturbation_arrays(cfg)
    try:
        return HydroState.from_arrays(cfg.grid, base.v.values + dv, base.w.values + dw)
    except ValueError as exc:
        raise ConfigError(f"perturbed initial datum is invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# verdicts and the report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """One named check: pass iff measured is on the right side of threshold."""

    name: str
    passed: bool
    measured: float
    threshold: float

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": bool(self.passed),
                "measured": float(self.measured), "threshold": float(self.threshold)}


@dataclass(frozen=True)
class RunReport:
    """The record of one run of any subcommand, written by ``write_report``.

    ``name`` names the output directory, ``config`` echoes the run's inputs
    as JSON, and ``samples`` and ``track`` feed diagnostics.csv and
    modulation.csv when the run has them; the track's work counts are the
    report's ``counters`` and its negative-mode solves its ``chi_nodes``,
    both empty for a run without a track.
    """

    name: str
    config: Mapping[str, Any]
    verdicts: tuple
    timings: Mapping[str, float]
    samples: tuple = ()
    track: Optional[ModulationTrack] = None
    error: Optional[str] = None

    @property
    def all_passed(self) -> bool:
        return self.error is None and all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {"scenario": self.name,
                "config": dict(self.config),
                "verdicts": [v.to_dict() for v in self.verdicts],
                "timings": dict(self.timings),
                "counters": self.track.counters if self.track is not None else {},
                "chi_nodes": list(self.track.chi_nodes) if self.track is not None else [],
                "error": self.error}


def _hydro_view(traj: Trajectory) -> Trajectory:
    if traj.frame == "hydro":
        return traj
    states = tuple(extract_hydro(s) for s in traj.states)
    return Trajectory(frame="hydro", grid=traj.grid, times=traj.times.copy(),
                      states=states, error=traj.error)


def _path_table(cfg: ScenarioConfig, track: ModulationTrack) -> dict[str, np.ndarray]:
    """Per-snapshot center positions for every monitored path label.

    Labels a1..aN follow the tracked soliton centers; b1..b(N-1) sit between
    consecutive solitons, either live midpoints or fixed-speed rays.
    """
    paths: dict[str, np.ndarray] = {}
    nsol = track.n_solitons
    for j in range(nsol):
        paths[f"a{j + 1}"] = track.centers[:, j].copy()
    if nsol >= 2:
        if cfg.diagnostics.b_path == "midpoints":
            for j in range(nsol - 1):
                paths[f"b{j + 1}"] = 0.5 * (track.centers[:, j] + track.centers[:, j + 1])
        else:
            t = track.times
            for j, gam in enumerate(cfg.diagnostics.gammas):
                b0 = 0.5 * (track.centers[0, j] + track.centers[0, j + 1])
                paths[f"b{j + 1}"] = b0 + gam * (t - t[0])
    return paths


def _path_rates(cfg: ScenarioConfig, track: ModulationTrack,
                paths: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    rates: dict[str, np.ndarray] = {}
    nsol = track.n_solitons
    for j in range(nsol):
        rates[f"a{j + 1}"] = track.center_rates[:, j]
    if nsol >= 2:
        if cfg.diagnostics.b_path == "midpoints":
            for j in range(nsol - 1):
                rates[f"b{j + 1}"] = 0.5 * (track.center_rates[:, j]
                                            + track.center_rates[:, j + 1])
        else:
            for j, gam in enumerate(cfg.diagnostics.gammas):
                rates[f"b{j + 1}"] = np.full(len(track.times), gam)
    return rates


def _collect_samples(cfg: ScenarioConfig, hydro_traj: Trajectory,
                     paths: Mapping[str, np.ndarray]) -> tuple[DiagnosticsSample, ...]:
    nu = speed_gaps(cfg.solitons.speeds).nu
    hw = cfg.diagnostics.window_half_width
    samples = []
    for i, state in enumerate(hydro_traj.states):
        t = float(hydro_traj.times[i])
        localized: dict[tuple[str, float], float] = {}
        windows: dict[str, float] = {}
        for label, centers in paths.items():
            b = float(centers[i])
            for y0 in cfg.diagnostics.y0_list:
                spec = LocalizedMomentumSpec(center_path=lambda _t, b=b: b, y0=y0, nu=nu)
                localized[(label, y0)] = localized_momentum(state, spec, t)
            windows[label] = window_norm(state, b, hw)
        with warnings.catch_warnings():
            # the virial column is recorded for every state, including ones
            # whose radiation has reached the seam; the identity checks that
            # need seam-free data run on their own compactly-centered states
            warnings.simplefilter("ignore", SeamSupportWarning)
            uval = virial_U(state)
        samples.append(DiagnosticsSample(t=t, energy=energy_hydro(state),
                                         momentum=momentum(state),
                                         virial=uval,
                                         localized=localized, window_norms=windows))
    return tuple(samples)


def _monotonicity_defect(series: np.ndarray) -> float:
    """min over t0 <= t1 of I(t1) - I(t0): zero for a monotone series."""
    running_max = np.maximum.accumulate(series)
    return float(np.min(series - running_max))


def _rate_fd_check(cfg: ScenarioConfig, traj: Trajectory, hydro_traj: Trajectory,
                  track: ModulationTrack, paths: Mapping[str, np.ndarray],
                  rates: Mapping[str, np.ndarray]) -> float:
    """Worst |finite difference - formula| for dI/dt over a few spot checks.

    The comparison runs along frozen constant-speed rays through the sampled
    (b, b') so the weight path is exact on both sides of the difference.
    Spot checks use the first few interior snapshots: the rate formula is a
    statement on the line, and on the torus the step weight has to jump back
    to zero at the antipode of its center.  Once fast radiation has wrapped
    around and crosses that seam, the measured rate picks up a genuine flux
    (about density times jump, 1e-7 and growing in the reference runs) that
    no implementation of the line formula can reproduce.  Early snapshots
    keep the seam quiet while still exercising genuinely evolved data.
    """
    if not cfg.diagnostics.y0_list or len(traj.times) < 4:
        return 0.0
    nu = speed_gaps(cfg.solitons.speeds).nu
    dt_fd = min(cfg.integrator.dt, 1e-4)
    worst = 0.0
    for i in (1, 2, 3):
        t = float(traj.times[i])
        snap = traj.states[i]
        plus = step_rk4(snap, dt_fd)
        minus = step_rk4(snap, -dt_fd)
        if not isinstance(plus, HydroState):
            plus = extract_hydro(plus)
            minus = extract_hydro(minus)
        for label in paths:
            b0 = float(paths[label][i])
            gam = float(rates[label][i])
            for y0 in cfg.diagnostics.y0_list:
                spec = LocalizedMomentumSpec(
                    center_path=lambda s, b0=b0, gam=gam, t0=t: b0 + gam * (s - t0),
                    y0=y0, nu=nu)
                formula = localized_momentum_rate(hydro_traj.states[i], spec, t,
                                                  center_speed=gam)
                fd = (localized_momentum(plus, spec, t + dt_fd)
                      - localized_momentum(minus, spec, t - dt_fd)) / (2.0 * dt_fd)
                worst = max(worst, abs(fd - formula))
    return worst


def _build_verdicts(cfg: ScenarioConfig, samples: Sequence[DiagnosticsSample],
                    track: Optional[ModulationTrack],
                    rate_fd_err: Optional[float]) -> list[Verdict]:
    verdicts: list[Verdict] = []
    nsol = cfg.solitons.n_solitons
    alpha = cfg.perturbation.amplitude
    nu = speed_gaps(cfg.solitons.speeds).nu

    if samples:
        e0 = samples[0].energy
        p0 = samples[0].momentum
        e_drift = max(abs(s.energy - e0) for s in samples) / abs(e0)
        p_drift = max(abs(s.momentum - p0) for s in samples) / (1.0 + abs(p0))
        verdicts.append(Verdict("energy_drift", e_drift <= 1e-8, e_drift, 1e-8))
        verdicts.append(Verdict("momentum_drift", p_drift <= 1e-8, p_drift, 1e-8))

    if track is not None and len(track.times) >= 2:
        if nsol == 1 and cfg.perturbation.kind == "none":
            t_span = float(track.times[-1] - track.times[0])
            predicted = track.centers[0, 0] + cfg.solitons.speeds[0] * t_span
            err = abs(float(track.centers[-1, 0]) - predicted)
            verdicts.append(Verdict("translation_error", err <= 1e-3, err, 1e-3))
        if alpha > 0.0:
            sup_eps = float(np.max(track.eps_norms))
            verdicts.append(Verdict("eps_sup", sup_eps <= 10.0 * alpha,
                                    sup_eps, 10.0 * alpha))
        if nsol >= 2:
            gaps = np.diff(track.centers, axis=1)
            min_gap = float(np.min(gaps))
            bound = cfg.solitons.min_separation - 1.0
            verdicts.append(Verdict("ordering_gap", min_gap >= bound, min_gap, bound))
        if alpha > 0.0:
            margin = float(np.max(np.abs(track.center_rates - track.speeds)
                                  - 10.0 * track.eps_norms[:, None]))
            verdicts.append(Verdict("center_rate_margin", margin <= 0.0, margin, 0.0))

    if samples and cfg.diagnostics.y0_list:
        by_key: dict[tuple[str, float], np.ndarray] = {}
        for key in samples[0].localized:
            by_key[key] = np.array([s.localized[key] for s in samples])
        for y0 in cfg.diagnostics.y0_list:
            defect = min(_monotonicity_defect(series)
                         for (label, yy), series in by_key.items() if yy == y0)
            bound = -10.0 * math.exp(-nu * abs(y0) / 16.0)
            verdicts.append(Verdict(f"monotonicity_y{y0:g}", defect >= bound,
                                    defect, bound))

    if rate_fd_err is not None:
        verdicts.append(Verdict("rate_fd_match", rate_fd_err <= 1e-6, rate_fd_err, 1e-6))

    if cfg.perturbation.kind == "between_bump" and samples and "b1" in samples[0].window_norms:
        w0 = samples[0].window_norms["b1"]
        wT = samples[-1].window_norms["b1"]
        ratio = wT / w0 if w0 > 0.0 else 0.0
        verdicts.append(Verdict("between_decay", ratio <= 0.5, ratio, 0.5))
    return verdicts


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Build, evolve, track, diagnose, and judge one scenario.

    Dynamics and modulation failures are recorded on the report (with the
    time of failure) instead of raised; whatever series were recorded up to
    the failure still feed the verdicts.
    """
    timings: dict[str, float] = {}
    error: Optional[str] = None
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    state0 = build_initial(cfg)
    start = reconstruct_spin(state0) if cfg.frame == "spin" else state0
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    traj = evolve(start, cfg.integrator)
    timings["evolve"] = time.perf_counter() - t0
    if traj.error is not None:
        error = f"dynamics: {traj.error}"

    t0 = time.perf_counter()
    hydro_traj = _hydro_view(traj)
    track: Optional[ModulationTrack] = track_modulation(hydro_traj, cfg.solitons)
    if track.error is not None:
        error = error or f"modulation: {track.error}"
        cut = len(track.times)
        if cut < 2:  # rate estimates need at least two tracked snapshots
            track = None
        else:
            hydro_traj = Trajectory(frame="hydro", grid=hydro_traj.grid,
                                    times=hydro_traj.times[:cut],
                                    states=hydro_traj.states[:cut])
            traj = Trajectory(frame=traj.frame, grid=traj.grid,
                              times=traj.times[:cut], states=traj.states[:cut],
                              error=traj.error)
    timings["track"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    samples: tuple = ()
    rate_fd_err: Optional[float] = None
    if track is not None:
        paths = _path_table(cfg, track)
        samples = _collect_samples(cfg, hydro_traj, paths)
        if cfg.diagnostics.y0_list and len(track.times) >= 2:
            rates = _path_rates(cfg, track, paths)
            rate_fd_err = _rate_fd_check(cfg, traj, hydro_traj, track, paths, rates)
    timings["diagnostics"] = time.perf_counter() - t0

    verdicts = _build_verdicts(cfg, samples, track, rate_fd_err)
    timings["total"] = time.perf_counter() - t_total
    return RunReport(name=cfg.name, config=cfg.to_dict(), verdicts=tuple(verdicts),
                     timings=timings, samples=samples, track=track, error=error)


def write_report(report: RunReport, out_root) -> Path:
    """Write report.json, plus diagnostics.csv and modulation.csv when the
    report carries samples and a track, under out_root/<report name>/ and
    return that directory."""
    out_dir = Path(out_root) / report.name
    out_dir.mkdir(parents=True, exist_ok=True)
    if report.samples:
        diagnostics_to_csv(report.samples, out_dir / "diagnostics.csv")
    if report.track is not None:
        track_to_csv(report.track, out_dir / "modulation.csv")
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir
