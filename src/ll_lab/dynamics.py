"""Time evolution in both frames, and the operators behind the flow.

Spin frame (unit field m, easy-plane anisotropy):

    dm/dt = -m x (d2m/dx2 - m3*e3)

Hydrodynamic frame (v = m3, w = phase gradient):

    dv/dt = d/dx( (v^2 - 1) w )
    dw/dt = d/dx( v''/(1-v^2) + v*(v')^2/(1-v^2)^2 + v*(w^2 - 1) )

The hydrodynamic right-hand side factors exactly as J(L + B) applied to the
state, where J(f1, f2) = (f2', f1') is the skew symplectic operator,
L(v, w) = (-v + v'', -w) is the linearization around vacuum, and B collects
the remaining superlinear terms.  ``rhs_hll`` is the stepper's flux form;
its agreement with the factored form is a grid-exact identity.

Integration is classical RK4 through one stepper per frame, built by
``_stepper`` and driven by both ``evolve`` and ``step_rk4``.  The hydro
stepper carries the rfft spectrum (v^, w^) and a (4, n//2 + 1) work buffer;
the spin stepper carries the (n, 3) field m in its phase sector, takes m''
from the grid's ``complex_deriv_array`` and ``deriv_array``, and
renormalizes m to unit length pointwise after every step.

The step bound dt <= S*(2*sqrt(2)/pi^2)*dx^2*m^(1/4), m = min(1 - v^2), is
S = ``STEP_SAFETY`` times the measured hydro stability limit (within 2% for
c = 0.2 ... 0.95).  ``evolve`` checks m = 1, which refuses only steps that
are unstable for every datum; scenario validation passes its data's m.

In the hydrodynamic frame a right-hand side makes 2 ``numpy.fft`` calls
and 6 real transforms: one 4-row irfft of (v^, w^, i*k*v^, -k^2*v^) gives
v, w, v' and v'', and one 2-row rfft of the two fluxes, times i*k, is the
spectrum of the right-hand side.  An RK4 step makes 8 calls, and
``evolve`` adds one rfft of the initial state and one 2-row irfft per
stored snapshot.  Since i*k is zero at the DC and Nyquist bins, those bins
of v^ and w^, and with them the integrals of v and w, stay exactly as they
started.  ``rhs_hll`` is this right-hand side between one rfft of (v, w)
and one irfft (4 calls, 10 real transforms).  The stage sums run in place
with the operand order of the textbook formula.  The transforms stay on
``numpy.fft`` (importing ``scipy.fft`` raised ``python -c "import
ll_lab.cli"`` from 0.22 s to 0.51 s on a 2-core x86-64 host, for
transforms only about 10% faster) and are looked up as ``np.fft.<name>``
at call time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .grid import (
    Grid,
    HydroState,
    RealField,
    SpinState,
    VacuumBreakdown,
    _check_vacuum,
    complex_deriv_array,
    deriv_array,
)

FieldPair = tuple[RealField, RealField]
State = Union[HydroState, SpinState]
STEP_SAFETY = 0.9  # 0.9 times the law ran stably to T = 10, 1.05 times it broke


class BlowupError(RuntimeError):
    """The integration produced non-finite values."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-stepping parameters.

    dt must respect the step bound of :meth:`n_steps` and divide t_end;
    ``sample_stride`` controls how many steps separate stored snapshots.
    """

    dt: float
    t_end: float
    sample_stride: int = 1

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt: must be positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end: must be non-negative, got {self.t_end}")
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride: must be >= 1, got {self.sample_stride}")

    def n_steps(self, grid: Grid, margin: float = 1.0) -> int:
        """The number of steps to t_end on this grid, once dt is checked
        against t_end and the step bound S*(2*sqrt(2)/pi^2)*dx^2*margin^(1/4),
        where margin in (0, 1] is min(1 - v^2) of the data to be stepped."""
        limit = STEP_SAFETY * 2.0 * math.sqrt(2.0) / math.pi ** 2 * grid.dx ** 2 * margin**0.25
        if self.dt > limit * (1.0 + 1e-12):
            raise ValueError(f"dt: {self.dt} exceeds the stability limit {limit:.6g} "
                             f"for dx = {grid.dx} and min(1 - v^2) = {margin:.6g}")
        ratio = self.t_end / self.dt
        nsteps = int(round(ratio))
        if abs(ratio - nsteps) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(f"dt: t_end = {self.t_end} is not an integer multiple of "
                             f"dt = {self.dt}")
        return nsteps


def _flux_spectrum(v: np.ndarray, w: np.ndarray, dv: np.ndarray, d2v: np.ndarray,
                   grid: Grid) -> np.ndarray:
    """i*k times the rfft of the fluxes: the (2, n//2 + 1) spectrum of
    (dv/dt, dw/dt).  Checks the vacuum guard, then makes one 2-row rfft."""
    om = 1.0 - v * v
    _check_vacuum(om)
    flux = np.empty((2, grid.n))
    f, g = flux
    # f = (v^2 - 1) w and g = (d2v/om + ((v dv) dv)/(om om)) + v (w w - 1),
    # each in exactly this order of operations, so the bits do not depend
    # on the buffering
    np.multiply(v, v, out=f)
    f -= 1.0
    f *= w
    np.divide(d2v, om, out=g)
    t = v * dv
    t *= dv
    om *= om
    t /= om
    g += t
    np.multiply(w, w, out=t)
    t -= 1.0
    t *= v
    g += t
    spec = np.fft.rfft(flux)
    spec *= grid.ik
    return spec


def _spectral_rhs(yhat: np.ndarray, grid: Grid, buf: np.ndarray) -> np.ndarray:
    """Spectrum of (dv/dt, dw/dt) from the spectral state yhat = (v^, w^),
    in 2 transform calls; buf is a (4, n//2 + 1) complex work array."""
    buf[:2] = yhat
    np.multiply(grid.ik_k2, yhat[0], out=buf[2:])
    v, w, dv, d2v = np.fft.irfft(buf, n=grid.n)
    return _flux_spectrum(v, w, dv, d2v, grid)


def _spin_rhs_arrays(m: np.ndarray, grid: Grid, sector: int) -> np.ndarray:
    d2c = complex_deriv_array(m[:, 0] + 1j * m[:, 1], grid, 2, sector)
    heff = np.empty_like(m)
    heff[:, 0] = d2c.real
    heff[:, 1] = d2c.imag
    heff[:, 2] = deriv_array(m[:, 2], grid, 2) - m[:, 2]
    return -np.cross(m, heff)


def rhs_spin(state: SpinState) -> np.ndarray:
    """-m x (m'' - m3 e3) as an (n, 3) array, tangent to m pointwise."""
    return _spin_rhs_arrays(state.m, state.grid, state.phase_sector)


def rhs_hll(state: HydroState) -> FieldPair:
    """Hydrodynamic right-hand side: the hydro stepper's ``_spectral_rhs`` at
    the stepper's rfft of (v, w), then one irfft."""
    hydro = _HydroStepper(state)
    vdot, wdot = np.fft.irfft(_spectral_rhs(hydro.y, hydro.grid, hydro._buf), n=hydro.grid.n)
    return RealField(state.grid, vdot), RealField(state.grid, wdot)


# ---------------------------------------------------------------------------
# the operators L and B
# ---------------------------------------------------------------------------

def apply_L(state: HydroState) -> FieldPair:
    """Vacuum linearization L(v, w) = (-v + v'', -w)."""
    grid = state.grid
    d2v = deriv_array(state.v.values, grid, 2)
    return RealField(grid, -state.v.values + d2v), RealField(grid, -state.w.values)


def apply_B(state: HydroState) -> FieldPair:
    """Superlinear remainder so that the flow is J(L + B).

    B1 = v'' v^2/(1-v^2) + (v')^2 v/(1-v^2)^2 + v w^2,   B2 = v^2 w.
    Both components scale cubically near zero.
    """
    grid = state.grid
    v = state.v.values
    w = state.w.values
    dv, d2v = np.fft.irfft(grid.ik_k2 * np.fft.rfft(v), n=grid.n)
    om = 1.0 - v * v
    _check_vacuum(om)
    b1 = d2v * v * v / om + dv * dv * v / (om * om) + v * w * w
    return RealField(grid, b1), RealField(grid, v * v * w)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _rk4_sum(y, rhs, dt):
    """Classical RK4 from y, with the stages formed in one buffer.

    Stages are y + (dt/2) k and y + dt k, and the update is
    y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), summed into k1's array.
    """
    half = 0.5 * dt
    k1 = rhs(y)
    stage = np.multiply(k1, half)
    stage += y
    k2 = rhs(stage)
    np.multiply(k2, half, out=stage)
    stage += y
    k3 = rhs(stage)
    np.multiply(k3, dt, out=stage)
    stage += y
    k4 = rhs(stage)
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += y
    return k1


class _Stepper:
    """RK4 in one frame on the working array ``y``, stepped by the subclass's
    ``_rk4``; ``advance`` names non-finite values a :class:`BlowupError`."""

    steps = 0

    def advance(self, dt: float) -> None:
        y = self._rk4(dt)
        self.steps += 1
        if not np.all(np.isfinite(y)):
            raise BlowupError(f"non-finite {self._values} values at step {self.steps}")
        self.y = y


class _HydroStepper(_Stepper):
    frame, _values = "hydro", "hydrodynamic"

    def __init__(self, state: HydroState) -> None:
        self.grid = state.grid
        self.y = np.fft.rfft((state.v.values, state.w.values))
        self._buf = np.empty((4, self.grid.n // 2 + 1), dtype=complex)

    def _rk4(self, dt: float) -> np.ndarray:
        return _rk4_sum(self.y, lambda s: _spectral_rhs(s, self.grid, self._buf), dt)

    def snapshot(self) -> HydroState:
        """max|v| >= 1 is a :class:`VacuumBreakdown`, not a malformed state."""
        v, w = np.fft.irfft(self.y, n=self.grid.n)
        vmax = float(np.max(np.abs(v)))
        if vmax >= 1.0:
            raise VacuumBreakdown(f"max|v| = {vmax:.6g} >= 1 at a stored snapshot")
        return HydroState.from_arrays(self.grid, v, w)


class _SpinStepper(_Stepper):
    frame, _values = "spin", "spin"

    def __init__(self, state: SpinState) -> None:
        self.grid = state.grid
        self.y = state.m
        self.sector = state.phase_sector

    def _rk4(self, dt: float) -> np.ndarray:
        m = _rk4_sum(self.y, lambda s: _spin_rhs_arrays(s, self.grid, self.sector), dt)
        m /= np.sqrt(np.sum(m * m, axis=1))[:, None]
        return m

    def snapshot(self) -> SpinState:
        return SpinState(self.grid, self.y, self.sector)


def _stepper(state: State) -> _Stepper:
    if isinstance(state, HydroState):
        return _HydroStepper(state)
    if isinstance(state, SpinState):
        return _SpinStepper(state)
    raise TypeError(f"cannot step object of type {type(state).__name__}")


def step_rk4(state: State, dt: float) -> State:
    """One classical RK4 step of the appropriate flow."""
    stepper = _stepper(state)
    stepper.advance(dt)
    return stepper.snapshot()


@dataclass(eq=False)
class Trajectory:
    """Snapshots of one run: strictly increasing times, states in one frame.

    ``error`` is None for a clean run, otherwise a short description of the
    failure that ended the run early (the stored snapshots remain valid).
    """

    frame: str
    grid: Grid
    times: np.ndarray
    states: tuple
    error: Optional[str] = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.states = tuple(self.states)
        if self.frame not in ("hydro", "spin"):
            raise ValueError(f"frame must be 'hydro' or 'spin', got {self.frame!r}")
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.times) and np.any(np.diff(self.times) <= 0.0):
            raise ValueError("snapshot times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


DiagnosticHook = Callable[[float, State], None]


def evolve(state: State, config: IntegratorConfig,
           hooks: Sequence[DiagnosticHook] = ()) -> Trajectory:
    """Integrate the state to t_end, storing every sample_stride-th step.

    The initial state is always the first snapshot.  Hooks are called at
    every stored snapshot with (t, state).  Vacuum breakdown (in a
    right-hand side, or max|v| >= 1 at a stored snapshot) or non-finite
    values end the run early with ``Trajectory.error`` set, keeping the
    snapshots collected so far.
    """
    stepper = _stepper(state)
    nsteps = config.n_steps(state.grid)

    times = [0.0]
    snapshots = [state]
    for hook in hooks:
        hook(0.0, state)
    error = None
    for step in range(1, nsteps + 1):
        try:
            stepper.advance(config.dt)
            if step % config.sample_stride and step != nsteps:
                continue
            snap = stepper.snapshot()
        except (VacuumBreakdown, BlowupError) as exc:
            error = f"{type(exc).__name__} at t = {step * config.dt:.6g}: {exc}"
            break
        t = step * config.dt
        times.append(t)
        snapshots.append(snap)
        for hook in hooks:
            hook(t, snap)

    return Trajectory(frame=stepper.frame, grid=state.grid, times=np.array(times),
                      states=tuple(snapshots), error=error)


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

_MAGIC = b"LLTRAJ01"
_FRAME_TAGS = {("hydro", 0): 0, ("spin", 0): 1, ("spin", 1): 3}
_HEADER = np.dtype([("magic", "S8"), ("n", "<u8"), ("dx", "<f8"), ("x_min", "<f8"),
                    ("tag", "<u8"), ("count", "<u8"), ("errlen", "<u8")])


def _record(frame: str, n: int) -> np.dtype:
    """A snapshot record: t, then the fields as rows (v, w) or m as (n, 3)."""
    return np.dtype([("t", "<f8"), ("fields", "<f8", (2, n) if frame == "hydro" else (n, 3))])


def write_table(fh, columns: Mapping[str, Sequence]) -> None:
    """Write named columns of equal length to the open text file ``fh`` as
    RFC-4180 CSV: a header row of the names, in order, then one row per
    index, every value as ``f"{x:.17g}"``.  Seventeen significant digits
    read back to the same double, and an integer is written as one."""
    if not columns:
        raise ValueError("a table needs at least one column")
    values = [np.asarray(col).tolist() for col in columns.values()]
    if len({len(col) for col in values}) != 1:
        raise ValueError(f"columns differ in length: {[len(col) for col in values]}")
    writer = csv.writer(fh)
    writer.writerow(columns)
    writer.writerows([f"{x:.17g}" for x in row] for row in zip(*values))


def save_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as little-endian binary plus a CSV snapshot index.

    Layout: the ``_HEADER`` record (magic, n, dx, x_min, frame tag,
    snapshot count, error length), the error string, then one ``_record``
    per snapshot.  The index file ``<path>.index.csv``, a :func:`write_table`
    table, lists snapshot number, time, and byte offset of each record.
    """
    path = str(path)
    grid = traj.grid
    sector = traj.states[0].phase_sector if traj.frame == "spin" else 0
    err = (traj.error or "").encode("utf-8")
    header = np.array((_MAGIC, grid.n, grid.dx, grid.x_min, _FRAME_TAGS[(traj.frame, sector)],
                       len(traj), len(err)), dtype=_HEADER)
    records = np.empty(len(traj), dtype=_record(traj.frame, grid.n))
    records["t"] = traj.times
    records["fields"] = [(s.v.values, s.w.values) if traj.frame == "hydro" else s.m
                         for s in traj.states]
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(err)
        fh.write(records.tobytes())
    snapshots = np.arange(len(traj))
    with open(path + ".index.csv", "w", newline="") as fh:
        write_table(fh, {"snapshot": snapshots, "t": traj.times,
                         "byte_offset": header.itemsize + len(err) + snapshots * records.itemsize})


def load_trajectory(path) -> Trajectory:
    """Read a trajectory written by :func:`save_trajectory`; a file too
    short for its header, its error string or its records raises ValueError."""
    with open(str(path), "rb") as fh:
        header = fh.read(_HEADER.itemsize)
        if header[:len(_MAGIC)] != _MAGIC:
            raise ValueError(f"not a trajectory file: bad magic {header[:len(_MAGIC)]!r}")
        _, n, dx, x_min, tag, count, errlen = np.frombuffer(header, _HEADER, count=1).item()
        size = os.fstat(fh.fileno()).st_size
        if size < fh.tell() + errlen:
            raise ValueError(f"truncated trajectory file: {errlen}-byte error string cut")
        error = fh.read(errlen).decode("utf-8") or None
        frames = {v: k for k, v in _FRAME_TAGS.items()}
        if tag not in frames:
            raise ValueError(f"unknown frame tag {tag}")
        frame, sector = frames[tag]
        grid = Grid(n=n, dx=dx, x_min=x_min)
        record = _record(frame, n)
        if size < fh.tell() + count * record.itemsize:
            raise ValueError(f"truncated trajectory file: {count} snapshots do not fit")
        make = ((lambda f: HydroState.from_arrays(grid, *f)) if frame == "hydro"
                else (lambda f: SpinState(grid, f, sector)))
        times, states = np.empty(count), []
        for start in range(0, count, 64):   # hold the snapshots once, plus 64 records
            block = np.fromfile(fh, record, count=min(64, count - start))
            times[start:start + len(block)] = block["t"]
            states.extend(map(make, block["fields"]))
    return Trajectory(frame=frame, grid=grid, times=times, states=tuple(states), error=error)
