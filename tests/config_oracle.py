"""The scenario reader as it was before the config dataclasses became the
schema: hand-chained calls per section, one helper per JSON type.

``ll_lab.scenarios.read_config`` walks the dataclass fields instead, and the
tests assert that both readers build equal configs from every config in use
and reject the same malformed ones.
"""

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from ll_lab.dynamics import IntegratorConfig
from ll_lab.grid import Grid
from ll_lab.scenarios import (ConfigError, DiagnosticsConfig, Perturbation,
                              ScenarioConfig)
from ll_lab.solitons import MultiSolitonConfig, SolitonParams


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
                              optional=("amplitude", "seed", "index"))
    seed = _integer(pert_obj.get("seed", 0), f"{path}.perturbation.seed")
    if seed < 0:
        raise ConfigError(f"{path}.perturbation.seed: must be >= 0, got {seed}")
    perturbation = Perturbation(
        kind=_string(pert_obj["kind"], f"{path}.perturbation.kind"),
        amplitude=_real(pert_obj.get("amplitude", 0.0), f"{path}.perturbation.amplitude"),
        seed=seed,
        index=_integer(pert_obj.get("index", 0), f"{path}.perturbation.index"))

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
                             optional=("sample_stride",))
    kwargs: dict[str, Any] = {"dt": _real(int_obj["dt"], f"{path}.integrator.dt"),
                              "t_end": _real(int_obj["t_end"], f"{path}.integrator.t_end")}
    if "sample_stride" in int_obj:
        kwargs["sample_stride"] = _integer(int_obj["sample_stride"],
                                           f"{path}.integrator.sample_stride")
    try:
        integrator = IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.integrator: {exc}") from exc

    diag_obj = _expect_object(top["diagnostics"], f"{path}.diagnostics",
                              required=("y0_list", "window_half_width"),
                              optional=("gammas",))
    diagnostics = DiagnosticsConfig(
        y0_list=_real_list(diag_obj["y0_list"], f"{path}.diagnostics.y0_list"),
        window_half_width=_real(diag_obj["window_half_width"],
                                f"{path}.diagnostics.window_half_width"),
        gammas=_real_list(diag_obj.get("gammas", []), f"{path}.diagnostics.gammas"))

    return ScenarioConfig(name=name, frame=frame, solitons=solitons,
                          perturbation=perturbation, grid=grid,
                          integrator=integrator, diagnostics=diagnostics)
