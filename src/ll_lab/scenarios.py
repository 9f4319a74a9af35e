"""Scenario configs, the experiment pipeline, and verdict reports.

Every run is one of three library entries, each returning the
:class:`RunReport` that holds its verdicts: ``run_scenario`` runs a scenario
config, ``run_track`` tracks a saved trajectory from a guess file, and
``run_virial_audit`` checks the virial bound along seeded small random flows.
Each raises ``ConfigError`` for input it refuses, before any run starts.

A scenario bundles a multi-soliton configuration, an optional perturbation,
a grid, integrator settings, and the diagnostics to record.  ``run_scenario``
runs five stages in order: it builds the initial state; solves the negative
directions chi of the guess speeds' lattice cells (the chi warm-up); evolves
the state in the requested frame; tracks the modulation parameters; and
samples the conserved and localized functionals at the positions of the
tracked soliton paths, snapshot by snapshot.  It then turns the recorded
series into pass/fail verdicts.  The warm-up solves the cells that the
track's first decomposition looks up, so the eigensolver's working set of
those solves is freed before the trajectory is allocated.
A track lost mid-run keeps its rows when it has two or more, and the
diagnostics stop where it stops.  A track lost before its second row is
dropped whole, with its counters and chi nodes: its rates need two rows.

A run's diagnostics are one dict of named columns, keyed by the
diagnostics.csv header names in header order, and the verdicts read those
columns, so they are pure functions of the emitted series.
``write_report`` emits diagnostics.csv, modulation.csv, and report.json for
every entry's ``RunReport``; every CSV of a run, these two, the
virial and soliton tables and a saved trajectory's ``.index.csv``,
goes through the one ``write_table``, which lives in ``dynamics`` beside
the trajectory format.

Configs are strict JSON read by ``read_config``, for which the config
dataclasses are the schema: unknown keys are rejected with the offending
field path, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .dynamics import IntegratorConfig, evolve, load_trajectory, step_rk4, write_table
from .functionals import (
    energy_hydro,
    localized_momentum,
    localized_momentum_rate,
    momentum,
    seam_norm,
    virial_U,
    virial_rate,
)
from .grid import Grid, HydroState, integrate, window_norm, x_norm, x_norm_arrays
from .modulation import (
    ChiCache,
    ModulationTrack,
    negative_mode,
    track_modulation,
)
from .solitons import MultiSolitonConfig, as_hydro, multi_soliton_sum, reconstruct_spin


class ConfigError(ValueError):
    """Malformed config; the message names the offending field."""


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------
#
# Every __post_init__ check of a config dataclass (these three, Grid,
# SolitonParams, MultiSolitonConfig and IntegratorConfig) raises a ValueError
# whose message starts with the offending field's path relative to that
# dataclass ("amplitude: ...", "diagnostics.gammas[0]: ..."); read_config
# prefixes the path of the dataclass itself.

PERTURBATION_KINDS = ("none", "random_smooth", "chi_direction", "between_bump")
BUMP_WIDTH = 5.0  # Gaussian width of the between_bump bump


@dataclass(frozen=True)
class Perturbation:
    """Initial-datum perturbation: a kind plus its numeric knobs.

    ``seed`` feeds the random generator of random_smooth, and ``index`` picks
    the soliton whose negative direction chi_direction follows.
    """

    kind: str
    amplitude: float = 0.0
    seed: int = 0
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PERTURBATION_KINDS:
            raise ConfigError(
                f"kind: expected one of {list(PERTURBATION_KINDS)}, got {self.kind!r}")
        if self.amplitude < 0.0 or not np.isfinite(self.amplitude):
            raise ConfigError(f"amplitude: must be >= 0, got {self.amplitude}")
        if self.kind == "none" and self.amplitude != 0.0:
            raise ConfigError("amplitude: must be 0 for kind 'none'")
        if self.kind != "none" and self.amplitude == 0.0:
            raise ConfigError(f"amplitude: must be > 0 for kind {self.kind!r}")
        if self.index < 0:
            raise ConfigError(f"index: must be >= 0, got {self.index}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class DiagnosticsConfig:
    """What to record: localized-momentum offsets y0, the half width of the
    window norms, and ``gammas``, one speed per gap: given, the between-soliton
    paths are rays at those speeds; empty, they are the live midpoints."""

    y0_list: tuple[float, ...]
    window_half_width: float
    gammas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        tags = [f"{y0:+g}" for y0 in self.y0_list]
        if len(set(tags)) != len(tags):
            raise ConfigError(f"y0_list: offsets name the I_<label>_y<y0> columns and "
                              f"must differ in %+g form, got {list(self.y0_list)}")
        if self.window_half_width <= 0.0:
            raise ConfigError(f"window_half_width: must be > 0, got {self.window_half_width}")


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
        if nsol >= 2:
            # on the torus the last soliton's next neighbour is the first
            params = self.solitons.params
            wrap_gap = params[0].a + self.grid.period - params[-1].a
            if wrap_gap < self.solitons.min_separation:
                raise ConfigError(
                    f"solitons.params: gap a_1 + period - a_N = {wrap_gap:g} through the "
                    f"periodic seam is below min_separation {self.solitons.min_separation}")
        # the step bound at the soliton sum's margin; the spin frame keeps m = 1
        try:
            margin = multi_soliton_sum(self.solitons, self.grid).vacuum_margin()
        except ValueError as exc:
            raise ConfigError(f"solitons: soliton sum on the grid: {exc}") from exc
        try:
            self.integrator.n_steps(self.grid, margin if self.frame == "hydro" else 1.0)
        except ValueError as exc:
            raise ConfigError(f"integrator.{exc}") from exc
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
        return asdict(self)


# ---------------------------------------------------------------------------
# strict JSON reading
# ---------------------------------------------------------------------------

# JSON types accepted for each scalar field annotation (bool never counts)
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _read_value(annotation: Any, value: Any, path: str) -> Any:
    if is_dataclass(annotation):
        return read_config(annotation, value, path)
    if get_origin(annotation) is tuple:
        # a JSON array; a tuple as well, so a to_dict echo reads back
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        item = get_args(annotation)[0]
        return tuple(_read_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    accepted, noun = _SCALARS[annotation]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}: expected {noun}, got {type(value).__name__}")
    if annotation is float and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    return annotation(value)


def read_config(cls: type, data: Any, path: str = "config") -> Any:
    """Build the config dataclass ``cls`` from parsed JSON, strictly.

    The dataclass is the schema: its fields are the keys, a field without a
    default is required, and the field's annotation (float, int, str, a
    config dataclass, or a tuple of one of these) is the type its value must
    have.  Ranges and cross-field rules are the dataclass's own checks.
    Every error names the dotted ``path`` of the offending field.  The one
    default not stated on a dataclass: a grid without ``x_min`` is centered
    on the origin (:meth:`Grid.centered`).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    schema = fields(cls)
    names = {f.name for f in schema}
    for key in data:
        if key not in names:
            raise ConfigError(f"{path}.{key}: unknown key")
    for f in schema:
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}: missing required key")
    hints = get_type_hints(cls)
    kwargs = {f.name: _read_value(hints[f.name], data[f.name], f"{path}.{f.name}")
              for f in schema if f.name in data}
    build = Grid.centered if cls is Grid and "x_min" not in kwargs else cls
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _parse_json(text: str, path: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc


def load_config(cls: type, file_path) -> Any:
    """Read the config dataclass ``cls`` from a JSON file: a scenario, or
    the ``solitons`` section (a :class:`MultiSolitonConfig`) as a guess."""
    p = Path(file_path)
    if not p.is_file():
        raise ConfigError(f"{p}: no such config file")
    return read_config(cls, _parse_json(p.read_text(), str(p)), str(p))


def scenario_from_dict(data: Any, path: str = "config") -> ScenarioConfig:
    return read_config(ScenarioConfig, data, path)


def load_scenario(file_path) -> ScenarioConfig:
    return load_config(ScenarioConfig, file_path)


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

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
    norm = x_norm_arrays(dv, dw, grid)
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
        dv, dw = mode.chi[0].values, mode.chi[1].values
        scale = pert.amplitude / x_norm_arrays(dv, dw, grid)
        return dv * scale, dw * scale
    # between_bump: a Gaussian bump in v between the first two solitons
    centers = cfg.solitons.centers
    mid = 0.5 * (centers[0] + centers[1])
    xi = grid.periodic_offset(grid.x, mid)
    dv = pert.amplitude * np.exp(-((xi / BUMP_WIDTH) ** 2))
    return dv, np.zeros(grid.n)


def build_initial(cfg: ScenarioConfig) -> HydroState:
    """Multi-soliton sum plus the configured perturbation, in hydro form; in
    the hydro frame dt is checked again at the datum's vacuum margin."""
    base = multi_soliton_sum(cfg.solitons, cfg.grid)
    dv, dw = _perturbation_arrays(cfg)
    try:
        state = HydroState.from_arrays(cfg.grid, base.v.values + dv, base.w.values + dw)
        if cfg.frame == "hydro":
            cfg.integrator.n_steps(cfg.grid, state.vacuum_margin())
        return state
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


THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
"""The environment variables that set the OpenMP and BLAS thread counts;
``ll-lab`` leaves them as it finds them and records them in every report."""


@dataclass(frozen=True)
class RunReport:
    """The record of one run of any subcommand, written by ``write_report``.

    ``name`` names the output directory, and ``config`` echoes the run's
    inputs as JSON.  ``diagnostics`` holds the diagnostics.csv columns by
    header name, in header order (empty for a run without them), and
    ``track`` the modulation parameters that feed modulation.csv; the
    track's work counts are the report's ``counters`` and its negative-mode
    solves its ``chi_nodes``, both empty for a run without a track.  ``threads`` records each of
    THREAD_VARIABLES as the process saw it, None when unset.
    """

    name: str
    config: Mapping[str, Any]
    verdicts: tuple
    timings: Mapping[str, float]
    diagnostics: Mapping[str, np.ndarray] = field(default_factory=dict)
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
                "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
                "error": self.error}


def _paths(cfg: ScenarioConfig, track: ModulationTrack
           ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Per-snapshot positions and rates of every monitored path label.

    Labels a1..aN follow the tracked soliton centers; b1..b(N-1) sit between
    consecutive solitons: the live midpoints, or, when ``gammas`` is given,
    rays from the initial midpoints at those speeds.
    """
    paths: dict[str, np.ndarray] = {}
    rates: dict[str, np.ndarray] = {}
    nsol = track.n_solitons
    for j in range(nsol):
        paths[f"a{j + 1}"] = track.centers[:, j].copy()
        rates[f"a{j + 1}"] = track.center_rates[:, j]
    if not cfg.diagnostics.gammas:
        for j in range(nsol - 1):
            paths[f"b{j + 1}"] = 0.5 * (track.centers[:, j] + track.centers[:, j + 1])
            rates[f"b{j + 1}"] = 0.5 * (track.center_rates[:, j] + track.center_rates[:, j + 1])
    else:
        t = track.times
        for j, gam in enumerate(cfg.diagnostics.gammas):
            b0 = 0.5 * (track.centers[0, j] + track.centers[0, j + 1])
            paths[f"b{j + 1}"] = b0 + gam * (t - t[0])
            rates[f"b{j + 1}"] = np.full(len(t), gam)
    return paths, rates


def _localized_name(label: str, y0: float) -> str:
    """The diagnostics column of the localized momentum of path ``label``
    with its step at offset y0."""
    return f"I_{label}_y{y0:+g}"


def _collect_diagnostics(cfg: ScenarioConfig, times: np.ndarray, states: Sequence,
                         paths: Mapping[str, np.ndarray], nu: float) -> dict[str, np.ndarray]:
    """The diagnostics.csv columns, one row per tracked snapshot: ``times``
    are the track's, ``states`` the trajectory's snapshots in either frame,
    and the functionals are taken at each path's position in that row.

    The keys are the header, in order: t, E, P, U, then I_<label>_y<y0> by
    label and y0, win_<label> by label, and seam.
    """
    labels = sorted(paths)
    y0s = sorted(cfg.diagnostics.y0_list)
    hw = cfg.diagnostics.window_half_width
    names = (["E", "P", "U"] + [_localized_name(label, y0) for label in labels for y0 in y0s]
             + [f"win_{label}" for label in labels] + ["seam"])
    diag = {"t": np.array(times, dtype=float)}
    diag.update((name, np.empty(len(times))) for name in names)
    for i in range(len(times)):
        state = as_hydro(states[i])
        diag["E"][i] = energy_hydro(state)
        diag["P"][i] = momentum(state)
        # the virial column is recorded for every state, including ones
        # whose radiation has reached the seam, with the seam's mass next to
        # it; the identity checks that need seam-free data run on their own
        # compactly-centered states
        diag["U"][i] = virial_U(state)
        for label in labels:
            b = float(paths[label][i])
            for y0 in y0s:
                diag[_localized_name(label, y0)][i] = localized_momentum(state, b + y0, nu)
            diag[f"win_{label}"][i] = window_norm(state, b, hw)
        diag["seam"][i] = seam_norm(state)
    return diag


def _monotonicity_defect(series: np.ndarray) -> float:
    """min over t0 <= t1 of I(t1) - I(t0): zero for a monotone series."""
    running_max = np.maximum.accumulate(series)
    return float(np.min(series - running_max))


def _rate_fd_check(cfg: ScenarioConfig, times: np.ndarray, states: Sequence,
                   paths: Mapping[str, np.ndarray],
                   rates: Mapping[str, np.ndarray], nu: float) -> float:
    """Worst |finite difference - formula| for dI/dt over a few spot checks.

    The comparison runs along frozen constant-speed rays through the sampled
    (b, b') so the weight path is exact on both sides of the difference.
    Spot checks use snapshots 1, 2 and 3, so the caller needs four tracked
    snapshots.  They are the first interior snapshots: the rate formula is a
    statement on the line, and on the torus the step weight has to jump back
    to zero at the antipode of its center.  Once fast radiation has wrapped
    around and crosses that seam, the measured rate picks up a genuine flux
    (about density times jump, 1e-7 and growing in the reference runs) that
    no implementation of the line formula can reproduce.  Early snapshots
    keep the seam quiet while still exercising genuinely evolved data.
    """
    dt_fd = min(cfg.integrator.dt, 1e-4)
    worst = 0.0
    for i in (1, 2, 3):
        t = float(times[i])
        snap = states[i]
        here = as_hydro(snap)
        plus = as_hydro(step_rk4(snap, dt_fd))
        minus = as_hydro(step_rk4(snap, -dt_fd))
        for label in paths:
            b0 = float(paths[label][i])
            gam = float(rates[label][i])
            # b0 + gam (s - t) at s = t +- dt_fd; gam * dt_fd rounds differently
            b_plus = b0 + gam * ((t + dt_fd) - t)
            b_minus = b0 + gam * ((t - dt_fd) - t)
            for y0 in cfg.diagnostics.y0_list:
                formula = localized_momentum_rate(here, b0 + y0, nu, center_speed=gam)
                fd = (localized_momentum(plus, b_plus + y0, nu)
                      - localized_momentum(minus, b_minus + y0, nu)) / (2.0 * dt_fd)
                worst = max(worst, abs(fd - formula))
    return worst


def _build_verdicts(cfg: ScenarioConfig, diag: Mapping[str, np.ndarray],
                    track: Optional[ModulationTrack],
                    rate_fd_err: Optional[float], nu: float) -> list[Verdict]:
    """The verdicts of a run, from the diagnostics columns ``diag`` (empty
    without a track), the track, and the rate check's worst error.  A track
    lost before its second row is None here, but a clean run to t_end = 0
    keeps its one row, so the track verdicts still ask for two rows."""
    verdicts: list[Verdict] = []
    nsol = cfg.solitons.n_solitons
    alpha = cfg.perturbation.amplitude

    if diag:
        energy, mom = diag["E"], diag["P"]
        e_drift = float(np.max(np.abs(energy - energy[0]))) / abs(float(energy[0]))
        p_drift = float(np.max(np.abs(mom - mom[0]))) / (1.0 + abs(float(mom[0])))
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

    if diag and cfg.diagnostics.y0_list:
        labels = [name[len("win_"):] for name in diag if name.startswith("win_")]
        for y0 in cfg.diagnostics.y0_list:
            defect = min(_monotonicity_defect(diag[_localized_name(label, y0)])
                         for label in labels)
            bound = -10.0 * math.exp(-nu * abs(y0) / 16.0)
            verdicts.append(Verdict(f"monotonicity_y{y0:g}", defect >= bound,
                                    defect, bound))

    if rate_fd_err is not None:
        verdicts.append(Verdict("rate_fd_match", rate_fd_err <= 1e-6, rate_fd_err, 1e-6))

    if cfg.perturbation.kind == "between_bump" and "win_b1" in diag:
        w0 = float(diag["win_b1"][0])
        wT = float(diag["win_b1"][-1])
        ratio = wT / w0 if w0 > 0.0 else 0.0
        verdicts.append(Verdict("between_decay", ratio <= 0.5, ratio, 0.5))
    return verdicts


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Build, warm the chi cache, evolve, track, diagnose, and judge one
    scenario; ``timings["track"]`` includes the warm-up.

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

    # the chi warm-up: the cells the track's first residual pass looks up,
    # solved before the trajectory exists
    t0 = time.perf_counter()
    chi = ChiCache(cfg.grid)
    chi.prepare(cfg.solitons.speeds)
    warm_up = time.perf_counter() - t0

    t0 = time.perf_counter()
    traj = evolve(start, cfg.integrator)
    timings["evolve"] = time.perf_counter() - t0
    if traj.error is not None:
        error = f"dynamics: {traj.error}"

    t0 = time.perf_counter()
    track: Optional[ModulationTrack] = track_modulation(traj, cfg.solitons, chi)
    if track.error is not None:
        error = error or f"modulation: {track.error}"
        if len(track.times) < 2:  # rate estimates need at least two tracked snapshots
            track = None
    timings["track"] = warm_up + time.perf_counter() - t0

    t0 = time.perf_counter()
    # the step width of the localized momenta: nu = min_j sqrt(1 - c_j^2)
    speeds = cfg.solitons.speeds
    nu = float(np.min(np.sqrt(1.0 - speeds * speeds)))
    diag: dict[str, np.ndarray] = {}
    rate_fd_err: Optional[float] = None
    if track is not None:
        paths, rates = _paths(cfg, track)
        # the track's rows are the snapshots the diagnostics cover
        diag = _collect_diagnostics(cfg, track.times, traj.states, paths, nu)
        if cfg.diagnostics.y0_list and len(track.times) >= 4:
            rate_fd_err = _rate_fd_check(cfg, track.times, traj.states, paths, rates, nu)
    timings["diagnostics"] = time.perf_counter() - t0

    verdicts = _build_verdicts(cfg, diag, track, rate_fd_err, nu)
    timings["total"] = time.perf_counter() - t_total
    return RunReport(name=cfg.name, config=cfg.to_dict(), verdicts=tuple(verdicts),
                     timings=timings, diagnostics=diag, track=track, error=error)


def run_track(trajectory_path, guess_path) -> RunReport:
    """Track a saved trajectory from a guess file (a scenario's solitons
    section) and judge the Newton iteration count and the orthogonality.

    The report is named after the trajectory file's stem and echoes both
    paths.  A bad guess, or a trajectory file that is missing, unreadable
    or empty, raises ConfigError; a lost decomposition is recorded.
    """
    guess = load_config(MultiSolitonConfig, guess_path)
    if not Path(trajectory_path).is_file():
        raise ConfigError(f"{trajectory_path}: no such trajectory file")
    try:
        traj = load_trajectory(trajectory_path)
    except ValueError as exc:
        raise ConfigError(f"{trajectory_path}: {exc}") from exc
    if len(traj) == 0:
        raise ConfigError(f"{trajectory_path}: trajectory holds no snapshots")

    t0 = time.perf_counter()
    track = track_modulation(traj, guess)
    wall = time.perf_counter() - t0

    verdicts = ()
    if len(track.times):
        max_iters = int(np.max(track.newton_iters))
        max_ortho = float(np.max(track.orthogonality))
        verdicts = (Verdict("newton_iterations", max_iters <= 5, max_iters, 5),
                    Verdict("orthogonality", max_ortho <= 1e-9, max_ortho, 1e-9))
    return RunReport(name=Path(trajectory_path).stem,
                     config={"trajectory": str(trajectory_path), "guess": str(guess_path)},
                     verdicts=verdicts, timings={"total": wall}, track=track,
                     error=track.error)


def run_virial_audit(amplitude: float, seed: int, runs: int,
                     t_end: float) -> tuple[RunReport, dict[str, list]]:
    """Check the virial bound U' >= 1/4 ||(v, w)||_X^2 along ``runs`` small
    random flows (run k seeded ``seed`` + k), and return the report with
    the virial.csv columns.  Each run earns one ``coercivity_run<k>``
    verdict, its least margin over the samples.

    Every datum is drawn and checked first: one that is not a non-vacuum
    state, or is too near vacuum for dt, raises ConfigError naming its run.
    A run that breaks down ends the audit; the runs before it are kept.
    """
    grid = Grid(n=2048, dx=0.1, x_min=-102.4)
    integ = IntegratorConfig(dt=2e-3, t_end=t_end, sample_stride=50)
    t0 = time.perf_counter()
    data = []
    for k in range(runs):
        dv, dw = random_smooth_pair(grid, amplitude, seed + k,
                                    max_mode=8, sigma=grid.period / 10.0)
        try:
            state = HydroState.from_arrays(grid, dv, dw)
            integ.n_steps(grid, state.vacuum_margin())
        except ValueError as exc:
            raise ConfigError(f"run {k}: {exc}") from exc
        data.append(state)

    table: dict[str, list] = {"run": [], "t": [], "U": [], "rate": [], "quarter_xnorm2": [],
                              "margin": [], "seam": []}
    verdicts = []
    error = None
    for k, state0 in enumerate(data):
        traj = evolve(state0, integ)
        if traj.error is not None:
            error = f"run {k}: {traj.error}"
            break
        margin_min = math.inf
        for t, state in zip(traj.times, traj.states):
            rate = virial_rate(state)
            quarter = 0.25 * x_norm(state) ** 2
            margin = rate - quarter
            margin_min = min(margin_min, margin)
            for col, value in zip(table.values(),
                                  (k, float(t), virial_U(state), rate, quarter, margin,
                                   seam_norm(state))):
                col.append(value)
        verdicts.append(Verdict(f"coercivity_run{k}", margin_min >= 0.0, margin_min, 0.0))

    report = RunReport(name="virial-audit",
                       config={"amplitude": amplitude, "seed": seed, "runs": runs,
                               "t_end": t_end},
                       verdicts=tuple(verdicts),
                       timings={"total": time.perf_counter() - t0}, error=error)
    return report, table


def write_report(report: RunReport, out_root) -> Path:
    """Write report.json, plus diagnostics.csv when the report carries
    diagnostics and modulation.csv when it carries a track, under
    out_root/<report name>/ and return that directory."""
    out_dir = Path(out_root) / report.name
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {"diagnostics.csv": report.diagnostics,
              "modulation.csv": report.track.columns if report.track is not None else {}}
    for file_name, columns in tables.items():
        if columns:
            with open(out_dir / file_name, "w", newline="") as fh:
                write_table(fh, columns)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir
