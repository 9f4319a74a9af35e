"""Localized momentum along soliton-attached and between-soliton paths.

The weighted momenta I(label, y0) should be almost monotone in time: any
decrease stays within a defect that is exponentially small in the offset
y0. Prints the measured series and the worst backward step for each y0.
"""

from ll_lab import run_scenario, scenario_from_dict
from ll_lab.scenarios import _monotonicity_defect

CONFIG = {
    "name": "pair-monotonicity",
    "frame": "hydro",
    "solitons": {"params": [{"c": -0.4, "a": -20.0}, {"c": 0.4, "a": 20.0}],
                 "min_separation": 40.0},
    "perturbation": {"kind": "random_smooth", "amplitude": 0.01, "seed": 11},
    "grid": {"n": 2048, "dx": 0.1},
    "integrator": {"dt": 0.001, "t_end": 20.0, "sample_stride": 500},
    "diagnostics": {"y0_list": [5.0, 10.0, 20.0], "window_half_width": 10.0},
}


def main():
    report = run_scenario(scenario_from_dict(CONFIG))
    diag = report.diagnostics
    names = [name for name in diag if name.startswith("I_")]
    print(f"{'t':>6}  " + " ".join(f"{name:>12}" for name in names))
    for i, t in enumerate(diag["t"]):
        row = " ".join(f"{diag[name][i]:12.6f}" for name in names)
        print(f"{t:6.1f}  {row}")
    print("\nworst backward step (0 means monotone):")
    for name in names:
        print(f"  {name}: {_monotonicity_defect(diag[name]):+.3e}")


if __name__ == "__main__":
    main()
