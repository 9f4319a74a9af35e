"""Scenario configs, perturbation construction, and the run pipeline."""

import copy
import csv
import importlib.util
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ll_lab import (ChiCache, ConfigError, Grid, HydroState, IntegratorConfig,
                    ModulationError, MultiSolitonConfig, SolitonParams, evolve, integrate,
                    load_scenario, modulation, multi_soliton_sum, run_scenario, run_track,
                    save_trajectory, scenario_from_dict, scenarios, write_report,
                    write_table, x_norm)
from ll_lab.dynamics import STEP_SAFETY
from ll_lab.scenarios import (DiagnosticsConfig, Perturbation, ScenarioConfig,
                              _monotonicity_defect, build_initial, load_config,
                              random_smooth_pair, read_config)

import config_oracle

BASE = {
    "name": "tiny",
    "frame": "hydro",
    "solitons": {"params": [{"c": 0.5, "a": 0.0}], "min_separation": 10.0},
    "perturbation": {"kind": "none"},
    "grid": {"n": 512, "dx": 0.1},
    "integrator": {"dt": 0.001, "t_end": 1.0, "sample_stride": 250},
    "diagnostics": {"y0_list": [5.0], "window_half_width": 8.0},
}


def variant(**updates):
    data = copy.deepcopy(BASE)
    for dotted, value in updates.items():
        node = data
        parts = dotted.split("__")
        for part in parts[:-1]:
            node = node[part]
        if value is ...:
            del node[parts[-1]]
        else:
            node[parts[-1]] = value
    return data


MALFORMED = [
    ({"name": ...}, "config.name: missing required key"),
    ({"frame": "lab"}, "config.frame"),
    ({"bogus": 1}, "config.bogus: unknown key"),
    ({"solitons__params": []}, "solitons.params"),
    ({"solitons__params": [{"c": 1.5, "a": 0.0}]}, "params[0]"),
    ({"solitons__min_separation": -1.0}, "solitons"),
    ({"perturbation__kind": "sneeze"}, "perturbation.kind"),
    ({"perturbation__amplitude": 0.1}, "perturbation.amplitude"),
    ({"grid__n": 511}, "config.grid"),
    ({"grid__dx": "thin"}, "config.grid.dx: expected a number"),
    ({"integrator__dt": -0.001}, "config.integrator"),
    ({"integrator__sample_stride": 2.5}, "sample_stride: expected an integer"),
    ({"diagnostics__window_half_width": 0.0}, "window_half_width"),
    # b_path is a removed key; the case keeps the id it had while the key existed
    pytest.param({"diagnostics__b_path": "zigzag"}, "config.diagnostics.b_path: unknown key",
                 id="updates13-b_path"),
    ({"diagnostics__gammas": [0.1]}, "gammas"),
    ({"integrator__scheme": "rk4"}, "integrator.scheme: unknown key"),
    ({"integrator__dealias": True}, "integrator.dealias: unknown key"),
    ({"integrator__renormalize_spin": True},
     "integrator.renormalize_spin: unknown key"),
    # the same path is named once, not once per enclosing section
    ({"solitons__params": [{"c": 0.5, "a": "x"}]},
     "config.solitons.params[0].a: expected a number"),
    ({"solitons__params": [{"c": 0.5, "a": 0.0, "s": -1.7}]},
     "config.solitons.params[0].s: expected an integer"),
    ({"solitons__params": [{"c": 0.5, "a": 0.0, "s": 2}]}, "config.solitons.params[0].s"),
    ({"solitons__params": {"c": 0.5, "a": 0.0}}, "config.solitons.params: expected a list"),
    ({"grid": []}, "config.grid: expected an object"),
    ({"diagnostics__y0_list": [5.0, True]}, "config.diagnostics.y0_list[1]"),
    # dt is checked against the grid's step bound and against t_end
    ({"integrator__dt": 0.005}, "config.integrator.dt: 0.005 exceeds the stability limit"),
    ({"integrator__t_end": 1.0005}, "config.integrator.dt: t_end = 1.0005"),
    # the step bound is taken at the cores of the soliton sum
    ({"name": "doomed", "solitons__params": [{"c": -0.4, "a": -12.0}, {"c": 0.4, "a": 12.0}],
      "solitons__min_separation": 20.0, "integrator__dt": 0.0025, "integrator__t_end": 2.0,
      "integrator__sample_stride": 5},
     "config.integrator.dt: 0.0025 exceeds the stability limit"),
    # the spin frame keeps the vacuum bound 0.258 dx^2
    ({"frame": "spin", "integrator__dt": 0.003, "integrator__t_end": 3.0},
     "config.integrator.dt: 0.003 exceeds the stability limit 0.00257922 for dx = 0.1 "
     "and min(1 - v^2) = 1"),
    ({"solitons__params": [{"c": 0.1, "a": 0.0}, {"c": 0.2, "a": 0.5}],
      "solitons__min_separation": 0.5},
     "config.solitons: soliton sum on the grid: non-vacuum constraint violated"),
    # the between_bump width is a constant, not a key
    ({"perturbation__width": 5.0}, "perturbation.width: unknown key"),
    # two offsets that print alike would write one column name twice
    ({"diagnostics__y0_list": [5.0, 5.0000001]}, "config.diagnostics.y0_list: offsets name"),
    # numpy's generator takes no negative seed
    ({"perturbation__kind": "random_smooth", "perturbation__amplitude": 0.01,
      "perturbation__seed": -1}, "config.perturbation.seed: must be >= 0"),
    ({"perturbation__amplitude": -0.01}, "config.perturbation.amplitude: must be >= 0"),
    ({"perturbation__index": -1}, "config.perturbation.index: must be >= 0, got -1"),
    ({"name": ""}, "config.name: must be a non-empty string"),
    ({"integrator__t_end": math.inf}, "config.integrator.t_end: must be finite"),
    ({"solitons__params": [{"c": 0.5, "a": -15.0}, {"c": 0.3, "a": 15.0}],
      "solitons__min_separation": 30.0},
     "config.solitons.params: speeds must be strictly increasing"),
    # 200 apart on the line, 4.8 apart through the seam of the period-204.8 torus
    ({"solitons__params": [{"c": -0.4, "a": -100.0, "s": 1}, {"c": 0.4, "a": 100.0, "s": -1}],
      "solitons__min_separation": 40.0, "grid__n": 2048},
     "config.solitons.params: gap a_1 + period - a_N = 4.8 through the periodic seam"),
]


class TestConfigParsing:
    def test_roundtrip_through_to_dict(self):
        cfg = scenario_from_dict(BASE)
        again = scenario_from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_grid_defaults_to_centered(self):
        cfg = scenario_from_dict(BASE)
        assert cfg.grid.x_min == pytest.approx(-25.6)

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{bad json]")
        with pytest.raises(ConfigError, match="line 1, column 2"):
            load_config(ScenarioConfig, path)

    @pytest.mark.parametrize("updates,needle", MALFORMED)
    def test_malformed_configs_name_the_field(self, updates, needle):
        with pytest.raises(ConfigError, match=None) as info:
            scenario_from_dict(variant(**updates))
        assert needle in str(info.value), f"wanted {needle!r} in {info.value}"

    def test_chi_index_bounds(self):
        data = variant(perturbation__kind="chi_direction",
                       perturbation__amplitude=0.01)
        data["perturbation"]["index"] = 3
        with pytest.raises(ConfigError, match="index"):
            scenario_from_dict(data)

    def test_between_bump_needs_two_solitons(self):
        data = variant(perturbation__kind="between_bump",
                       perturbation__amplitude=0.05)
        with pytest.raises(ConfigError, match="between_bump"):
            scenario_from_dict(data)

    def test_fixed_speed_gammas_interlace(self):
        data = variant(
            solitons__params=[{"c": -0.4, "a": -15.0}, {"c": 0.4, "a": 15.0}],
            solitons__min_separation=30.0, grid__n=1024)
        data["diagnostics"]["gammas"] = [0.0]
        cfg = scenario_from_dict(data)
        assert cfg.diagnostics.gammas == (0.0,)
        data["diagnostics"]["gammas"] = [0.7]
        with pytest.raises(ConfigError, match="gammas"):
            scenario_from_dict(data)

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            load_scenario(tmp_path / "absent.json")

    @pytest.mark.parametrize("updates,needle", MALFORMED)
    def test_errors_name_the_path_once(self, updates, needle):
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(variant(**updates))
        message = str(info.value)
        assert message.startswith("config.") and message.count("config.") == 1, message


# The pairs at +-15 run on n = 1024 (period 102.4): their gap through the
# periodic seam, period - 30, must reach min_separation 30.
PAIR = {"params": [{"c": -0.4, "a": -15.0}, {"c": 0.4, "a": 15.0}], "min_separation": 30.0}

# every config the tests of this module accept
ACCEPTED = [
    BASE,
    variant(perturbation__kind="random_smooth", perturbation__amplitude=0.01),
    variant(perturbation__kind="random_smooth", perturbation__amplitude=0.02,
            perturbation__seed=9),
    variant(perturbation__kind="chi_direction", perturbation__amplitude=0.01),
    variant(frame="spin"),
    # the stiff pair of MALFORMED, in the spin frame
    variant(frame="spin", solitons__params=[{"c": -0.4, "a": -12.0}, {"c": 0.4, "a": 12.0}],
            solitons__min_separation=20.0, integrator__dt=0.0025, integrator__t_end=2.0),
    # c = 0.95 at dt = 0.25 dx^2, 0.994 of its step bound
    variant(solitons__params=[{"c": 0.95, "a": 0.0}], grid__n=1024, integrator__dt=0.0025,
            integrator__t_end=10.0),
    variant(solitons=PAIR, grid__n=1024, diagnostics__gammas=[0.0]),
    variant(solitons=PAIR, grid__n=1024, perturbation__kind="between_bump",
            perturbation__amplitude=0.05),
    variant(solitons__params=[{"c": -0.3, "a": -15.0}, {"c": 0.3, "a": 15.0}],
            solitons__min_separation=30.0, grid__n=1024, perturbation__kind="between_bump",
            perturbation__amplitude=1.2),
]


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReaderMatchesOracle:
    """The dataclass-driven reader against the hand-chained one it replaced."""

    def configs_in_use(self):
        shipped = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))
        assert len(shipped) == 3
        bench = _perfbench_workloads()
        return ([json.loads(p.read_text()) for p in shipped] + ACCEPTED + [bench.TRACK_CHI]
                + [cfg for seed in (0, 1, 2 ** 31 + 5) for cfg in bench.simulate_configs(seed)])

    def test_configs_in_use_build_equal_dataclasses(self):
        for data in self.configs_in_use():
            assert scenario_from_dict(data) == config_oracle.scenario_from_dict(data), data["name"]

    def test_bench_guesses_read_as_before(self):
        bench = _perfbench_workloads()
        for seed in (0, 1, 2, 3):
            guess = bench.track_guess(seed)
            params = tuple(SolitonParams(float(e["c"]), float(e["a"]), int(e.get("s", 1)))
                           for e in guess["params"])
            expected = MultiSolitonConfig(params, float(guess["min_separation"]))
            assert read_config(MultiSolitonConfig, guess) == expected

    @pytest.mark.parametrize("updates,needle", MALFORMED)
    def test_oracle_rejects_the_same(self, updates, needle):
        with pytest.raises(ConfigError):
            config_oracle.scenario_from_dict(variant(**updates))


CONFIG_DATACLASSES = (ScenarioConfig, MultiSolitonConfig, SolitonParams, Perturbation,
                      Grid, IntegratorConfig, DiagnosticsConfig)


def test_schema_doc_names_every_field():
    """demos/config-schema.md names every field of every config dataclass,
    as a `code` span or, for a top-level key, as its own section heading."""
    doc = (Path(__file__).resolve().parents[1] / "demos" / "config-schema.md").read_text()
    missing = [f"{cls.__name__}.{f.name}" for cls in CONFIG_DATACLASSES for f in fields(cls)
               if f"`{f.name}`" not in doc and f"\n## {f.name}\n" not in doc]
    assert not missing, missing


class TestRandomSmoothPair:
    def setup_method(self):
        self.grid = Grid(n=1024, dx=0.1, x_min=-51.2)

    def test_deterministic_in_seed(self):
        a = random_smooth_pair(self.grid, 0.01, seed=12)
        b = random_smooth_pair(self.grid, 0.01, seed=12)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        c = random_smooth_pair(self.grid, 0.01, seed=13)
        assert not np.array_equal(a[0], c[0])

    def test_norm_equals_amplitude(self):
        for amp in (0.01, 0.2):
            dv, dw = random_smooth_pair(self.grid, amp, seed=5)
            state = HydroState.from_arrays(self.grid, dv, dw)
            assert x_norm(state) == pytest.approx(amp, rel=1e-12)

    def test_dw_has_zero_integral(self):
        dv, dw = random_smooth_pair(self.grid, 0.05, seed=8)
        assert abs(integrate(dw, self.grid)) < 1e-15

    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            random_smooth_pair(self.grid, 0.0, seed=1)


class TestBuildInitial:
    def test_none_perturbation_is_pure_sum(self):
        cfg = scenario_from_dict(BASE)
        state = build_initial(cfg)
        from ll_lab import multi_soliton_sum

        ref = multi_soliton_sum(cfg.solitons, cfg.grid)
        assert np.array_equal(state.v.values, ref.v.values)
        assert np.array_equal(state.w.values, ref.w.values)

    def test_random_smooth_perturbation_size(self):
        data = variant(perturbation__kind="random_smooth",
                       perturbation__amplitude=0.02)
        data["perturbation"]["seed"] = 9
        cfg = scenario_from_dict(data)
        state = build_initial(cfg)
        from ll_lab import multi_soliton_sum

        ref = multi_soliton_sum(cfg.solitons, cfg.grid)
        diff = HydroState.from_arrays(cfg.grid, state.v.values - ref.v.values,
                                      state.w.values - ref.w.values)
        assert x_norm(diff) == pytest.approx(0.02, rel=1e-12)

    def test_between_bump_sits_at_midpoint(self):
        data = variant(
            solitons__params=[{"c": -0.4, "a": -15.0}, {"c": 0.4, "a": 15.0}],
            solitons__min_separation=30.0, grid__n=1024,
            perturbation__kind="between_bump",
            perturbation__amplitude=0.05)
        cfg = scenario_from_dict(data)
        state = build_initial(cfg)
        from ll_lab import multi_soliton_sum

        ref = multi_soliton_sum(cfg.solitons, cfg.grid)
        dv = state.v.values - ref.v.values
        peak = cfg.grid.x[np.argmax(dv)]
        assert abs(peak) < cfg.grid.dx
        assert np.max(dv) == pytest.approx(0.05, rel=1e-12)
        assert np.array_equal(state.w.values, ref.w.values)

    def test_oversized_perturbation_rejected(self):
        data = variant(perturbation__kind="between_bump",
                       perturbation__amplitude=0.9,
                       solitons__params=[{"c": -0.3, "a": -15.0},
                                         {"c": 0.3, "a": 15.0}],
                       solitons__min_separation=30.0, grid__n=1024)
        cfg = scenario_from_dict(data)
        # amplitude 0.9 on top of tails stays below 1; push it over instead
        data["perturbation"]["amplitude"] = 1.2
        with pytest.raises(ConfigError, match="initial datum"):
            build_initial(scenario_from_dict(data))

    def test_datum_margin_checked_against_dt(self):
        """chi_direction 0.5 deepens the c = 0.5 core to min(1 - v^2) = 0.0036,
        where dt = 1e-3 is 1.59 times the step bound: the datum is refused."""
        data = variant(perturbation__kind="chi_direction", perturbation__amplitude=0.5)
        cfg = scenario_from_dict(data)
        with pytest.raises(ConfigError, match="initial datum is invalid: dt: 0.001 exceeds "
                                              "the stability limit"):
            build_initial(cfg)
        build_initial(scenario_from_dict(variant(frame="spin", perturbation=data["perturbation"])))


LAW = 2.0 * math.sqrt(2.0) / math.pi ** 2  # RK4's span on the imaginary axis over pi^2
HORIZON = 400  # steps; dt = 1.2 times the law breaks down within about 30


@st.composite
def bound_cases(draw, c_max):
    """(speeds, n, dx, random_smooth amplitude, seed): one soliton or an
    ordered pair, each |c| in [0.2, c_max]."""
    mags = draw(st.lists(st.floats(0.2, c_max), min_size=1, max_size=2))
    speeds = [draw(st.sampled_from((-1.0, 1.0))) * mags[0]] + mags[1:]
    assume(len(speeds) == 1 or speeds[0] < speeds[1])
    return (speeds, draw(st.sampled_from((256, 512))), draw(st.floats(0.05, 0.2)),
            draw(st.floats(0.0, 0.01)), draw(st.integers(0, 2 ** 31 - 1)))


def _bound_config(speeds, n, dx, amplitude, seed, dt):
    """A hydro config of HORIZON steps of dt, with its soliton sum and
    perturbed datum."""
    period = n * dx
    centers = [0.0] if len(speeds) == 1 else [-period / 4, period / 4]
    perturbation = ({"kind": "random_smooth", "amplitude": amplitude, "seed": seed}
                    if amplitude > 0.0 else {"kind": "none"})
    return variant(solitons__params=[{"c": c, "a": a} for c, a in zip(speeds, centers)],
                   solitons__min_separation=period / 2, perturbation=perturbation,
                   grid__n=n, grid__dx=dx, integrator__dt=dt,
                   integrator__t_end=HORIZON * dt, integrator__sample_stride=HORIZON)


def _margin(case) -> float:
    """min(1 - v^2) over the soliton sum and the perturbed datum."""
    dx = case[2]
    try:
        cfg = scenario_from_dict(_bound_config(*case, dt=1e-3 * dx * dx))
    except ConfigError as exc:
        assume("soliton sum" not in str(exc))
        raise
    return min(multi_soliton_sum(cfg.solitons, cfg.grid).vacuum_margin(),
               build_initial(cfg).vacuum_margin())


@settings(max_examples=20, deadline=None)
@given(bound_cases(c_max=0.95), st.floats(0.5, 1.0))
def test_validated_step_runs_stably(case, f):
    """A config whose dt is f <= 1 times the bound validates, builds, and
    evolves HORIZON steps without breaking down."""
    dx = case[2]
    dt = f * STEP_SAFETY * LAW * dx * dx * _margin(case) ** 0.25
    cfg = scenario_from_dict(_bound_config(*case, dt=dt))
    traj = evolve(build_initial(cfg), cfg.integrator)
    assert traj.error is None
    assert len(traj) == 2


@settings(max_examples=10, deadline=None)
@given(bound_cases(c_max=0.5))
def test_unsafe_step_breaks_within_the_horizon(case):
    """Negative control: 1.2 times the law without its safety factor is
    refused, and, stepped anyway, breaks down within HORIZON steps."""
    dx = case[2]
    dt = 1.2 * LAW * dx * dx * _margin(case) ** 0.25
    data = _bound_config(*case, dt=dt)
    with pytest.raises(ConfigError, match="exceeds the stability limit"):
        build_initial(scenario_from_dict(data))
    data["integrator"]["dt"] = data["integrator"]["t_end"] = 1e-3 * dx * dx
    state = build_initial(scenario_from_dict(data))
    traj = evolve(state, IntegratorConfig(dt=dt, t_end=HORIZON * dt, sample_stride=HORIZON))
    assert traj.error is not None


class TestMonotonicityDefect:
    def test_hand_series(self):
        assert _monotonicity_defect(np.array([0.0, 1.0, 0.5, 2.0])) == -0.5
        assert _monotonicity_defect(np.array([0.0, 1.0, 2.0])) == 0.0
        assert _monotonicity_defect(np.array([3.0])) == 0.0

    def test_worst_drop_not_first_drop(self):
        series = np.array([0.0, 5.0, 4.9, 1.0, 6.0])
        assert _monotonicity_defect(series) == -4.0


class TestRunScenario:
    def test_unperturbed_single_soliton(self):
        report = run_scenario(scenario_from_dict(BASE))
        assert report.error is None
        names = [v.name for v in report.verdicts]
        assert "energy_drift" in names
        assert "translation_error" in names
        assert "monotonicity_y5" in names
        assert "rate_fd_match" in names
        assert "eps_sup" not in names  # unperturbed: no amplitude to compare to
        assert report.all_passed, [(v.name, v.measured) for v in report.verdicts]

    def test_rate_check_needs_four_tracked_snapshots(self):
        """The rate spot checks take snapshots 1, 2 and 3: a run that tracks
        three has no rate_fd_match verdict, and the five of BASE have one."""
        report = run_scenario(scenario_from_dict(variant(integrator__t_end=0.5)))
        assert report.error is None
        assert len(report.track.times) == 3
        assert "rate_fd_match" not in {v.name for v in report.verdicts}
        assert "monotonicity_y5" in {v.name for v in report.verdicts}

    def test_zero_length_run(self):
        """t_end = 0 tracks one snapshot, which has samples but no rates."""
        report = run_scenario(scenario_from_dict(variant(integrator__t_end=0.0)))
        assert report.error is None
        assert len(report.diagnostics["t"]) == 1
        assert {v.name for v in report.verdicts} == {"energy_drift", "momentum_drift",
                                                     "monotonicity_y5"}

    def test_reports_are_deterministic(self):
        data = variant(perturbation__kind="random_smooth",
                       perturbation__amplitude=0.01)
        r1 = run_scenario(scenario_from_dict(data))
        r2 = run_scenario(scenario_from_dict(data))
        assert np.array_equal(r1.track.speeds, r2.track.speeds)
        assert np.array_equal(r1.track.centers, r2.track.centers)
        assert list(r1.diagnostics) == list(r2.diagnostics)
        for name, column in r1.diagnostics.items():
            assert np.array_equal(column, r2.diagnostics[name]), name

    def test_spin_frame_run(self):
        data = variant(frame="spin")
        report = run_scenario(scenario_from_dict(data))
        assert report.error is None
        assert report.all_passed, [(v.name, v.measured) for v in report.verdicts]

    def test_perturbed_run_has_stability_verdicts(self):
        data = variant(perturbation__kind="random_smooth",
                       perturbation__amplitude=0.01)
        report = run_scenario(scenario_from_dict(data))
        names = [v.name for v in report.verdicts]
        assert "eps_sup" in names
        assert "center_rate_margin" in names
        assert report.all_passed, [(v.name, v.measured) for v in report.verdicts]

    def test_blowup_recorded_and_report_written(self, tmp_path):
        stiff = variant(
            name="doomed",
            solitons__params=[{"c": -0.4, "a": -12.0}, {"c": 0.4, "a": 12.0}],
            solitons__min_separation=20.0,
            grid__n=512,
            integrator__dt=0.0025,
            integrator__t_end=2.0,
            integrator__sample_stride=5)
        with pytest.raises(ConfigError, match="config.integrator.dt"):
            scenario_from_dict(stiff)
        # the negative direction deepens the slow soliton until it breaks
        # down at t = 1.494, at a step that validates
        data = variant(
            name="doomed",
            solitons__params=[{"c": 0.2, "a": 0.0}],
            perturbation__kind="chi_direction",
            perturbation__amplitude=0.2,
            integrator__t_end=2.0)
        report = run_scenario(scenario_from_dict(data))
        assert report.error is not None
        assert not report.all_passed or report.error  # failed run must be visible
        out = write_report(report, tmp_path)
        assert (out / "report.json").is_file()
        payload = json.loads((out / "report.json").read_text())
        assert payload["error"] is not None
        assert payload["scenario"] == "doomed"

    def test_lost_track_cuts_the_diagnostics(self, tmp_path):
        """A track lost mid-run keeps its rows; the diagnostics cover exactly
        those rows and the rate check still runs on the early ones."""
        data = variant(
            name="lost",
            frame="spin",
            solitons__params=[{"c": 0.3, "a": 0.0}],
            perturbation__kind="chi_direction",
            perturbation__amplitude=0.4,
            integrator__t_end=3.0,
            integrator__sample_stride=50,
            diagnostics__window_half_width=5.0)
        report = run_scenario(scenario_from_dict(data))
        assert report.error.startswith("modulation: at t = 2.65: no convergence"), report.error
        assert "rate_fd_match" in {v.name for v in report.verdicts}
        out = write_report(report, tmp_path)
        columns = {}
        for name in ("diagnostics.csv", "modulation.csv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0][0] == "t"
            columns[name] = [row[0] for row in rows[1:]]
        assert len(columns["diagnostics.csv"]) == 53
        assert columns["diagnostics.csv"] == columns["modulation.csv"]

    def test_track_lost_at_second_snapshot_is_kept(self, monkeypatch, tmp_path):
        """A track lost at its second snapshot keeps its one row, with its
        diagnostics row, counters and chi nodes, as ``run_track`` keeps the
        same track of the same saved trajectory; its rates need two rows, so
        no track verdict is taken."""
        decompose = modulation._modulate_raw
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ModulationError("lost here")
            return decompose(*args, **kwargs)

        monkeypatch.setattr(modulation, "_modulate_raw", second_fails)
        cfg = scenario_from_dict(BASE)
        report = run_scenario(cfg)
        assert report.error == "modulation: at t = 0.25: lost here"
        assert len(report.track.times) == 1
        assert list(report.diagnostics["t"]) == [0.0]
        assert {v.name for v in report.verdicts} == {"energy_drift", "momentum_drift",
                                                     "monotonicity_y5"}
        payload = report.to_dict()
        assert payload["counters"]["newton_iters"] == int(report.track.newton_iters[0])
        assert payload["counters"]["chi_solves"] == len(payload["chi_nodes"]) == 2

        save_trajectory(evolve(build_initial(cfg), cfg.integrator), tmp_path / "tiny.lltraj")
        (tmp_path / "guess.json").write_text(json.dumps(BASE["solitons"]))
        calls.clear()
        tracked = run_track(tmp_path / "tiny.lltraj", tmp_path / "guess.json")
        assert tracked.error == "at t = 0.25: lost here"
        for name, column in report.track.columns.items():
            assert column.tobytes() == tracked.track.columns[name].tobytes(), name
        assert tracked.to_dict()["counters"] == payload["counters"]
        assert tracked.to_dict()["chi_nodes"] == payload["chi_nodes"]

    def _spy_evolve(self, monkeypatch, events):
        run = scenarios.evolve

        def spy(*args, **kwargs):
            events.append("evolve")
            return run(*args, **kwargs)

        monkeypatch.setattr(scenarios, "evolve", spy)

    def test_guess_cells_solved_before_evolve(self, monkeypatch):
        """The chi nodes of the guess speeds' cells are solved before evolve
        starts, once each, and the report lists them."""
        cfg = scenario_from_dict(variant(solitons=PAIR, grid__n=1024))
        step = modulation.CHI_LATTICE_STEP
        probe = ChiCache(cfg.grid)
        for c in cfg.solitons.speeds:
            probe.mode_for(c)
        guess_nodes = {round(node.c / step) for node in probe.nodes}
        events = []
        solve = modulation.negative_mode

        def spy_solve(c, grid, center=None):
            events.append(c)
            return solve(c, grid, center)

        monkeypatch.setattr(modulation, "negative_mode", spy_solve)
        self._spy_evolve(monkeypatch, events)
        report = run_scenario(cfg)
        assert report.error is None
        start = events.index("evolve")
        before = [round(c / step) for c in events[:start]]
        after = [round(c / step) for c in events[start + 1:]]
        assert sorted(before) == sorted(guess_nodes)
        assert not guess_nodes & set(after)
        assert {round(node["c"] / step) for node in report.to_dict()["chi_nodes"]} >= guess_nodes

    def test_warm_up_failure_is_met_by_the_track(self, monkeypatch):
        """A chi solve that fails in the warm-up fails again at the track's
        first residual pass: the run still evolves, and the error is the
        track's at t = 0."""
        events = []

        def refuse(c, grid, center=None):
            raise ModulationError(f"refused at c = {c:g}")

        monkeypatch.setattr(modulation, "negative_mode", refuse)
        self._spy_evolve(monkeypatch, events)
        report = run_scenario(scenario_from_dict(BASE))
        assert report.error.startswith("modulation: at t = 0: refused at c = "), report.error
        assert events == ["evolve"]
        assert list(report.timings) == ["build", "evolve", "track", "diagnostics", "total"]
        assert len(report.track.times) == 0 and report.diagnostics == {}
        assert report.verdicts == ()
        assert set(report.track.counters.values()) == {0} and report.track.chi_nodes == ()

    def test_ordering_gap_reads_the_wrap_gap(self):
        """On the period-51.2 torus a pair at -+15 moving apart at -+0.4
        starts 30 apart on the line and 21.2 through the seam; by T = 3 the
        wrap gap a_1 + period - a_2 has closed to 18.8, below the bound
        min_separation - 1 = 19, while the line gap has opened to 32.4."""
        cfg = scenario_from_dict(variant(
            solitons__params=[{"c": -0.4, "a": -15.0}, {"c": 0.4, "a": 15.0}],
            solitons__min_separation=20.0, integrator__t_end=3.0, diagnostics__y0_list=[]))
        report = run_scenario(cfg)
        assert report.error is None
        centers = report.track.centers
        wrap = centers[:, 0] + cfg.grid.period - centers[:, 1]
        assert np.min(centers[:, 1] - centers[:, 0]) > 29.9
        gap = {v.name: v for v in report.verdicts}["ordering_gap"]
        assert gap.measured == np.min(wrap) == wrap[-1]
        assert gap.measured == pytest.approx(18.8, abs=1e-6)
        assert not gap.passed and gap.threshold == 19.0

    def test_write_report_layout(self, tmp_path):
        report = run_scenario(scenario_from_dict(BASE))
        out = write_report(report, tmp_path)
        assert out == tmp_path / "tiny"
        assert (out / "diagnostics.csv").is_file()
        assert (out / "modulation.csv").is_file()
        payload = json.loads((out / "report.json").read_text())
        assert payload["scenario"] == "tiny"
        assert {d["name"] for d in payload["verdicts"]} == {v.name for v in report.verdicts}
        assert all(k in payload["timings"] for k in ("build", "evolve", "total"))

    def test_fixed_speed_paths(self):
        data = variant(
            solitons__params=[{"c": -0.4, "a": -15.0}, {"c": 0.4, "a": 15.0}],
            solitons__min_separation=30.0, grid__n=1024)
        data["diagnostics"]["gammas"] = [0.0]
        report = run_scenario(scenario_from_dict(data))
        assert report.error is None
        assert list(report.diagnostics) == [
            "t", "E", "P", "U", "I_a1_y+5", "I_a2_y+5", "I_b1_y+5",
            "win_a1", "win_a2", "win_b1", "seam"]


class TestWriteTable:
    def test_header_order_roundtrip_and_integers(self, tmp_path):
        rng = np.random.default_rng(5)
        doubles = np.concatenate([rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50),
                                  [0.1, 1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308]])
        columns = {"zeta": doubles, "alpha": np.arange(len(doubles)) + 1,
                   "mid": doubles[::-1].copy()}
        path = tmp_path / "table.csv"
        with open(path, "w", newline="") as fh:
            write_table(fh, columns)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["zeta", "alpha", "mid"]  # insertion order, not sorted
        assert len(rows) == len(doubles) + 1
        assert [float(row[0]) for row in rows[1:]] == doubles.tolist()
        assert [float(row[2]) for row in rows[1:]] == doubles[::-1].tolist()
        assert rows[3][1] == "3"
        assert all(row[1] == str(i + 1) for i, row in enumerate(rows[1:]))
        assert path.read_bytes().startswith(b"zeta,alpha,mid\r\n")

    def test_empty_columns_write_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        with open(path, "w", newline="") as fh:
            write_table(fh, {"t": np.array([]), "iters": np.array([], dtype=int)})
        assert path.read_bytes() == b"t,iters\r\n"


class TestVerdictsFromWrittenSeries:
    def test_drifts_and_monotonicity_from_diagnostics_csv(self, tmp_path):
        """energy_drift, momentum_drift and every monotonicity_y* recompute
        exactly from the written diagnostics.csv."""
        data = variant(
            name="pair",
            solitons__params=[{"c": -0.4, "a": -12.0}, {"c": 0.4, "a": 12.0}],
            solitons__min_separation=20.0,
            perturbation__kind="random_smooth",
            perturbation__amplitude=0.01,
            diagnostics__y0_list=[5.0, -3.0])
        report = run_scenario(scenario_from_dict(data))
        assert report.error is None
        out = write_report(report, tmp_path)
        with open(out / "diagnostics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        series = {name: [float(row[j]) for row in rows[1:]]
                  for j, name in enumerate(rows[0])}
        assert len(series["t"]) == 5

        def defect(values):
            worst, running_max = 0.0, -math.inf
            for value in values:
                running_max = max(running_max, value)
                worst = min(worst, value - running_max)
            return worst

        e, p = series["E"], series["P"]
        expected = {
            "energy_drift": max(abs(x - e[0]) for x in e) / abs(e[0]),
            "momentum_drift": max(abs(x - p[0]) for x in p) / (1.0 + abs(p[0])),
        }
        for y0, tag in ((5.0, "+5"), (-3.0, "-3")):
            expected[f"monotonicity_y{y0:g}"] = min(
                defect(values) for name, values in series.items()
                if name.startswith("I_") and name.endswith(f"_y{tag}"))
        measured = {v.name: v.measured for v in report.verdicts}
        assert {name: measured[name] for name in expected} == expected


class TestPerturbationDataclass:
    def test_none_kind_amplitude_must_be_zero(self):
        with pytest.raises(ConfigError):
            Perturbation(kind="none", amplitude=0.1)

    def test_active_kind_needs_amplitude(self):
        with pytest.raises(ConfigError):
            Perturbation(kind="random_smooth", amplitude=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            Perturbation(kind="gust", amplitude=0.1)
