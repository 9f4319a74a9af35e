"""Numerical laboratory for dark multi-solitons of the easy-plane
Landau-Lifshitz equation on the line, in its spin and hydrodynamic frames."""

from .grid import (
    VACUUM_GUARD,
    Grid,
    HydroState,
    RealField,
    SpinState,
    VacuumBreakdown,
    integrate,
    spin_derivative,
    window_norm,
    x_norm,
)
from .solitons import (
    MultiSolitonConfig,
    SolitonParams,
    extract_hydro,
    multi_soliton_sum,
    reconstruct_spin,
    soliton_energy,
    soliton_hydro,
    soliton_momentum,
    soliton_nu,
    soliton_spin,
    soliton_spin_state,
    traveling_wave_residual,
    winding_number,
)
from .functionals import (
    energy_hydro,
    energy_spin,
    localized_momentum,
    localized_momentum_rate,
    momentum,
    phi_bump,
    phi_bump_d1,
    phi_bump_d3,
    seam_norm,
    virial_U,
    virial_linear_identity,
    virial_rate,
)
from .dynamics import (
    BlowupError,
    IntegratorConfig,
    Trajectory,
    apply_B,
    apply_L,
    evolve,
    load_trajectory,
    rhs_hll,
    rhs_spin,
    save_trajectory,
    step_rk4,
    write_table,
)
from .modulation import (
    ChiCache,
    HessianOperator,
    ModulationError,
    ModulationResult,
    ModulationTrack,
    NegativeMode,
    hessian_apply,
    modulate,
    negative_mode,
    track_modulation,
)
from .scenarios import (
    ConfigError,
    DiagnosticsConfig,
    Perturbation,
    RunReport,
    ScenarioConfig,
    Verdict,
    build_initial,
    load_scenario,
    random_smooth_pair,
    run_scenario,
    run_track,
    run_virial_audit,
    scenario_from_dict,
    write_report,
)

__version__ = "0.1.0"
