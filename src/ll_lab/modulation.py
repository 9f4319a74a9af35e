"""Spectral decomposition of the soliton Hessian and modulation tracking.

Around a profile Q_c the relevant self-adjoint operator is the constrained
Hessian H_c = E''(Q_c) - c P''(Q_c).  It is applied matrix-free in closed
form, as the exact Jacobian of the discrete first variation grad E - c grad P
(see :func:`hessian_apply`); its kernel contains the translation mode dQ_c/dx
and it has exactly one negative direction chi_c, computed here by a
preconditioned block Davidson iteration whose Rayleigh-Ritz values are
certified by explicit residual norms.

``modulate`` decomposes a state s = sum_j s_j Q_{c_j}(. - a_j) + eps with eps
orthogonal (in L^2) to every translation mode and every negative direction,
solving the 2N orthogonality conditions F_2j = s_j <eps, Q_j'> and
F_2j+1 = s_j <eps, chi_j> for (c_j, a_j) by Newton iteration.  chi_c is a
function of c alone: :class:`ChiCache` knows it at the nodes c_k = k h of a
fixed speed lattice and interpolates linearly within the cell that holds
c.  With S(h1, h2) = (h1, -h2), Q_{-c} = S Q_c and H_{-c} = S H_c S exactly,
so chi_{-c} = S chi_c: a Davidson solve is made once per |c_k|, at the
positive node, whose rfft the cache keeps; the spectrum of the negative
node is that rfft with its chi_w row negated, the rfft of S chi bit for
bit.  Each point is
evaluated by one residual pass over all N solitons at once: (Q_j, Q_j')
from one cosh and one tanh over (N, n), eps, and F from the N pairings of
eps with Q_j' and, by Parseval, the 2N pairings of one rfft of eps with
the translated chi spectra (their phase ramps are products of two short
exp tables), so no inverse transform is made.
The iteration steps with a Jacobian carried from step to step and kept
current by Broyden's rank-one update; a step with it is accepted when it
cuts max|F| by JACOBIAN_CONTRACTION.  Otherwise the exact Jacobian is built
at the point (see :func:`_modulate_raw`): eps moves by d eps/d a_k = s_k Q_k'
and d eps/d c_k = -s_k dQ_k/dc; the translation rows add s_j <eps, dQ_j'/dc>
in c_j and -s_j <eps, Q_j''> in a_j, and the chi rows add
s_j <eps, d chi_j/dc> in c_j (the slope of the cell) and -s_j <eps, chi_j'>
in a_j.  Its profile derivatives come from the closed-form jet
``soliton_hydro_jet``, the pairings of eps with chi_j' and d chi_j/dc reuse
the residual pass's rfft of eps, and the cross terms pair Q_k' and dQ_k/dc
with the physical chi_j of one inverse transform of the 2N chi rows.
``track_modulation`` runs this along a trajectory, starting each snapshot
from the previous speeds and from the previous centers advanced by c_j dt,
with the Jacobian the previous snapshot ended on, so that exact builds are
rare; the snapshot where the decomposition is lost ends the track and is
recorded on ``ModulationTrack.error``.
"""
from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import FieldPair, Trajectory
from .grid import (
    Grid,
    HydroState,
    RealField,
    VacuumBreakdown,
    deriv_array,
    integrate,
    lowpass_array,
    x_norm,
    x_norm_arrays,
)
from .solitons import (
    MultiSolitonConfig,
    ProfileJet,
    _sum_profile_arrays,
    as_hydro,
    soliton_hydro_jet,
    soliton_nu,
)


class ModulationError(RuntimeError):
    """Newton decomposition failed (no convergence, ordering lost, a speed
    left the admissible range, or no certified negative direction)."""


# ---------------------------------------------------------------------------
# the Hessian
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HessianOperator:
    """Matrix-free H_c = E''(Q_c) - c P''(Q_c) at the profile centered at
    ``center`` (the domain midpoint when not given), in the closed form of
    :func:`hessian_apply`."""

    c: float
    grid: Grid
    center: Optional[float] = None

    def __post_init__(self) -> None:
        soliton_nu(self.c)  # validates the speed range
        if self.center is None:
            object.__setattr__(self, "center", self.grid.x_min + 0.5 * self.grid.period)

    @cached_property
    def _jet(self) -> ProfileJet:
        return soliton_hydro_jet(self.c, self.grid.periodic_offset(self.grid.x, self.center))

    @property
    def profile(self) -> np.ndarray:
        """Q_c at the grid points, as a (2, n) array (v, w)."""
        return self._jet.q

    @property
    def profile_derivative(self) -> np.ndarray:
        """Q_c' at the grid points, as a (2, n) array (v', w')."""
        return self._jet.dx

    @cached_property
    def coefficients(self) -> tuple[np.ndarray, ...]:
        """(1/om, 2 v v'/om^2, potential, -2 v w - c, om) at the sampled
        profile, with v' its spectral derivative and om = 1 - v^2."""
        v, w = self.profile
        dv = deriv_array(v, self.grid, 1)
        om = 1.0 - v * v
        inv = 1.0 / om
        drift = 2.0 * v * dv * inv * inv
        potential = dv * dv * (inv * inv + 4.0 * v * v * inv ** 3) - w * w + 1.0
        return inv, drift, potential, -2.0 * v * w - self.c, om

    def apply_arrays(self, h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """H_c (h1, h2) on raw sample arrays; x is the last axis, so stacked
        rows are transformed together."""
        inv, drift, potential, coupling, om = self.coefficients
        dh1 = deriv_array(h1, self.grid, 1)
        flux = deriv_array(inv * dh1 + drift * h1, self.grid, 1)
        return (-flux + drift * dh1 + potential * h1 + coupling * h2,
                coupling * h1 + om * h2)


def hessian_apply(op: HessianOperator, h: FieldPair) -> FieldPair:
    """H_c h as the exact Jacobian of the discrete grad E - c grad P at Q_c
    (the tests' ``modulation_oracle.grad_EP`` spells out grad E and grad P
    and checks this closed form against their central difference).

    With D the spectral derivative, v' = D v and om = 1 - v^2 at the profile,

        (H h)_1 = -D(D h1/om + 2 v v' h1/om^2) + 2 v v' D h1/om^2
                  + [v'^2 (1/om^2 + 4 v^2/om^3) - w^2 + 1] h1 - 2 v w h2 - c h2,
        (H h)_2 = -2 v w h1 + om h2 - c h1.

    D is skew on the grid, so the operator is linear and symmetric to
    rounding.
    """
    o1, o2 = op.apply_arrays(h[0].values, h[1].values)
    return RealField(op.grid, o1), RealField(op.grid, o2)


# ---------------------------------------------------------------------------
# lowest eigenpairs: preconditioned block Davidson with thick restart
# ---------------------------------------------------------------------------

def _mapped_columns(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) column-major float array in its own anonymous memory
    map, which is unmapped when the array is released.  The Davidson basis
    and its image live in two of these, so their pages go back to the
    operating system at the end of every solve.  From malloc they would
    not: glibc raises its mmap threshold to the size of the first such
    buffer freed, so the next solve's buffers come from its heap, where a
    small allocation above them can keep them resident for the rest of the
    run."""
    return np.ndarray((rows, cols), dtype=float, buffer=mmap.mmap(-1, rows * cols * 8),
                      order="F")


def _davidson_lowest(apply_block, precond_block, x0: np.ndarray):
    """Lowest CHI_NEV Ritz pairs of a symmetric operator on column vectors.

    ``apply_block(X)`` applies the operator to every column of X, and
    ``precond_block(R, thetas)`` preconditions each residual column R[:, j]
    for its Ritz value thetas[j].

    Convergence demands the first residual below CHI_TOL_FIRST and the
    others below CHI_TOL_CERTIFY (Euclidean norms, unit Ritz vectors) within
    CHI_MAXITER iterations; the basis restarts at CHI_MAXDIM columns.
    Returns (thetas, vectors, residual_norms, iterations).
    """

    def orth_against(block, basis):
        for _ in range(2):
            block = block - basis @ (basis.T @ block)
        q, r = np.linalg.qr(block)
        keep = np.abs(np.diag(r)) > 1e-10
        return q[:, keep]

    # the basis V and its image HV fill preallocated column-major buffers,
    # and the Gram matrix V^T H V grows by the new block's rows and columns
    basis = _mapped_columns(x0.shape[0], CHI_MAXDIM)
    image = _mapped_columns(x0.shape[0], CHI_MAXDIM)
    V, _ = np.linalg.qr(x0)
    dim = V.shape[1]
    basis[:, :dim] = V
    image[:, :dim] = apply_block(V)
    gram = basis[:, :dim].T @ image[:, :dim]
    last = None
    for it in range(1, CHI_MAXITER + 1):
        V, HV = basis[:, :dim], image[:, :dim]
        thetas, S = np.linalg.eigh(0.5 * (gram + gram.T))
        m = min(CHI_NEV, len(thetas))
        U = V @ S[:, :m]
        HU = HV @ S[:, :m]
        R = HU - U * thetas[:m]
        res = np.sqrt(np.sum(R * R, axis=0))
        last = (thetas[:m], U, res, it)
        tols = np.full(m, CHI_TOL_CERTIFY)
        tols[0] = CHI_TOL_FIRST
        if np.all(res <= tols):
            return last
        unconverged = res > tols
        W = precond_block(R[:, unconverged], thetas[:m][unconverged])
        if dim + W.shape[1] > CHI_MAXDIM:
            dim = min(8 * CHI_NEV, dim)
            basis[:, :dim] = V @ S[:, :dim]
            image[:, :dim] = HV @ S[:, :dim]
            V, HV = basis[:, :dim], image[:, :dim]
            gram = V.T @ HV
        W = orth_against(W, V)
        if W.shape[1] == 0:
            return last
        HW = apply_block(W)
        gram = np.block([[gram, V.T @ HW], [W.T @ HV, W.T @ HW]])
        basis[:, dim:dim + W.shape[1]] = W
        image[:, dim:dim + W.shape[1]] = HW
        dim += W.shape[1]
    return last


@dataclass(frozen=True, eq=False)
class NegativeMode:
    """The certified negative direction of H_c, as solved at one node.

    ``chi`` is L^2-normalized with positive overlap against (v_c, 0);
    ``rayleigh`` is its (negative) Rayleigh quotient, ``residual`` the
    Euclidean eigenresidual, ``negative_count`` the certified number of
    eigenvalues below -1e-6 (always 1 on successful construction) and
    ``iterations`` the Davidson iterations of the solve.
    """

    c: float
    grid: Grid
    center: float
    chi: FieldPair
    rayleigh: float
    residual: float
    negative_count: int
    iterations: int


def negative_mode(c: float, grid: Grid, center: Optional[float] = None) -> NegativeMode:
    """Compute chi_c by a block Davidson iteration preconditioned with the
    inverse vacuum symbol [[k^2+1, -c], [-c, 1]]^(-1).

    The iteration runs on the low-pass subspace of the two-thirds rule.
    The unfiltered grid operator carries a spurious family of bound states
    rooted at the Nyquist mode: odd-order spectral derivatives annihilate
    the sawtooth carrier while the w-block has no derivatives at all, so a
    near-Nyquist wavepacket sees only the pointwise potential well of the
    core, which is deep enough at small |c| to bind below zero with an
    eigenvalue of size O(1/period).  No continuum counterpart exists (the
    essential spectrum of the line operator is bounded below by
    min(c^2, 1-|c|) > 0), and the genuine eigenvectors are spectrally
    smooth, so the projection leaves them unchanged to machine precision.

    Tracks the three lowest Ritz pairs; eigenvalues are counted as negative
    below -1e-6 and only residual-certified pairs participate in the count.
    Raises :class:`ModulationError` when the lowest pair is not certified,
    when the count differs from one, or when an uncertified pair sits below
    the counting threshold.
    """
    op = HessianOperator(c, grid, center)
    n = grid.n
    k2 = grid.k2
    keep = grid.lowpass

    # blocks are (2n, m) arrays of columns (h1, h2); the transforms run on
    # all m columns at once, as rows of the transposed halves
    def lowpass_block(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
        return np.concatenate([lowpass_array(f1, grid), lowpass_array(f2, grid)], axis=-1).T

    def apply_block(x: np.ndarray) -> np.ndarray:
        return lowpass_block(*op.apply_arrays(x[:n].T, x[n:].T))

    def precond_block(r: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        # inverse of the shifted vacuum symbol [[k^2+1-t, -c], [-c, 1-t]];
        # the shift is only applied safely below the symbol's spectrum
        t = np.where(thetas < -0.05, thetas, 0.0)[:, None]
        det = (k2 + 1.0 - t) * (1.0 - t) - c * c
        r1 = np.fft.rfft(r[:n].T)
        r2 = np.fft.rfft(r[n:].T)
        g1 = ((1.0 - t) * r1 + c * r2) / det
        g2 = (c * r1 + (k2 + 1.0 - t) * r2) / det
        return np.concatenate([np.fft.irfft(keep * g1, n=n),
                               np.fft.irfft(keep * g2, n=n)], axis=-1).T

    v0, w0 = op.profile
    dv0, dw0 = op.profile_derivative
    rng = np.random.default_rng(2024)
    rand = rng.standard_normal((2 * n, 2))
    x0 = np.column_stack([
        lowpass_block(v0, w0),
        lowpass_block(dv0, dw0),
        precond_block(rand, np.zeros(2)),
    ])
    thetas, U, res, iters = _davidson_lowest(apply_block, precond_block, x0)
    if res[0] > CHI_TOL_FIRST:
        raise ModulationError(
            f"eigensolver did not certify the lowest pair: residual {res[0]:.3e} "
            f"after {iters} iterations at c = {c}")
    certified = res <= CHI_TOL_CERTIFY
    below = thetas < -1e-6
    if np.any(below & ~certified):
        raise ModulationError(
            f"uncertified Ritz value below the counting threshold at c = {c}: "
            f"thetas {thetas}, residuals {res}")
    count = int(np.sum(below & certified))
    if count != 1:
        raise ModulationError(
            f"expected exactly one negative eigenvalue at c = {c}, found {count} "
            f"(thetas {thetas}, residuals {res})")

    x = U[:, 0]
    l2 = math.sqrt(grid.dx) * float(np.linalg.norm(x))
    x = x / l2
    if integrate(x[:n] * v0, grid) < 0.0:
        x = -x
    chi = (RealField(grid, x[:n]), RealField(grid, x[n:]))
    return NegativeMode(c=c, grid=grid, center=op.center, chi=chi,
                        rayleigh=float(thetas[0]), residual=float(res[0]),
                        negative_count=count, iterations=int(iters))


CHI_LATTICE_STEP = 0.02
"""Spacing h of the speed lattice c_k = k h on which :class:`ChiCache`
solves the negative directions."""

# negative_mode's Davidson: residuals of the lowest and of a certified pair,
# the iteration cap, the Ritz pairs tracked, and the basis size of a restart
CHI_TOL_FIRST, CHI_TOL_CERTIFY, CHI_MAXITER, CHI_NEV = 2e-7, 1e-4, 200, 3
CHI_MAXDIM = 90


class ChiCache:
    """Negative directions as a function of the speed alone.

    chi is known at the nodes c_k = k h of the fixed lattice
    h = ``CHI_LATTICE_STEP``, at the grid midpoint ``center``, and chi_c is
    the linear interpolant chi_k + (c - c_k) (chi_{k+1} - chi_k)/h on the
    cell that holds c, so d chi/dc is the slope of the cell.
    :func:`negative_mode` is solved once per |c_k|, at the positive node
    k >= 1, and the rfft of its rows (chi_v, chi_w) is kept.  A node
    k <= -1 is the mirror image S chi_{|c_k|} (H_{-c} = S H_c S holds bit
    for bit in :class:`HessianOperator`: the coupling -2 v w - c is odd in
    c and the other coefficients even): its spectrum is the kept one with
    the chi_w row negated, equal bit for bit to the rfft of S chi.  The
    positive node is solved whichever sign is looked up first, so chi
    depends on c alone and not on the order of the lookups.  Nodes keep to
    h <= |c_k| <= 1 - h: where a bracketing node would leave that range,
    the two nearest admissible nodes of the same sign are used (linear
    extrapolation).  The interpolant is not renormalized; its L^2 norm is
    1 - O(h^2), and the orthogonality conditions are homogeneous in chi.
    ``nodes`` lists the solves, at the positive nodes, by speed.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.center = grid.x_min + 0.5 * grid.period
        self._nodes: dict[int, tuple[NegativeMode, np.ndarray]] = {}
        self._cells: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def nodes(self) -> list[NegativeMode]:
        return [self._nodes[k][0] for k in sorted(self._nodes)]

    def _spectrum(self, k: int) -> np.ndarray:
        """The rfft of the rows (chi_v, chi_w) at c_k: solved at |k|, and
        mirrored for k <= -1."""
        if abs(k) not in self._nodes:
            mode = negative_mode(abs(k) * CHI_LATTICE_STEP, self.grid)
            rows = np.stack([mode.chi[0].values, mode.chi[1].values])
            self._nodes[abs(k)] = (mode, np.fft.rfft(rows))
        spectrum = self._nodes[abs(k)][1]
        if k > 0:
            return spectrum
        # 0 - z, not -z: the zero imaginary parts of the DC and Nyquist bins
        # stay +0, as in the rfft of S chi
        return np.stack([spectrum[0], 0.0 - spectrum[1]])

    def _cell(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(chi spectrum at c_k, slope) of the cell [c_k, c_k+1]."""
        cell = self._cells.get(k)
        if cell is None:
            lo, hi = self._spectrum(k), self._spectrum(k + 1)
            cell = (lo, (hi - lo) / CHI_LATTICE_STEP)
            self._cells[k] = cell
        return cell

    @staticmethod
    def _cell_index(c: float) -> int:
        """The k of the cell [c_k, c_k+1] that serves c, kept to admissible
        nodes of the sign of c."""
        if not 0.0 < abs(c) < 1.0:
            raise ModulationError(f"speed out of range: no negative direction at c = {c}")
        top = round(1.0 / CHI_LATTICE_STEP) - 1   # the last admissible node index
        k = math.floor(c / CHI_LATTICE_STEP)
        return min(max(k, 1), top - 1) if c > 0.0 else min(max(k, -top), -2)

    def prepare(self, speeds) -> None:
        """Solve now the nodes that the first residual pass from ``speeds``
        looks up: none for speeds that fail :func:`_speed_guard`, as that
        pass looks nothing up.  A failed solve ends this unraised, for that
        pass to meet again at the same node; chi is the same either way."""
        cs = np.asarray(speeds, dtype=float).tolist()
        try:
            _speed_guard(cs)
            for c in cs:
                self._cell(self._cell_index(c))
        except ModulationError:
            pass

    def mode_for(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        """The rfft of the rows (chi_v, chi_w) at c and of their slope
        (d chi_v/dc, d chi_w/dc), centered at ``center``: two arrays of
        shape (2, n//2 + 1)."""
        k = self._cell_index(c)
        lo, slope = self._cell(k)
        return lo + (c - k * CHI_LATTICE_STEP) * slope, slope


# ---------------------------------------------------------------------------
# Newton decomposition
# ---------------------------------------------------------------------------

MAX_NEWTON_ITERS = 25
"""Newton iterations a decomposition may take before it fails."""

SPEED_MARGIN = 1e-3
"""Newton iterates keep SPEED_MARGIN < |c_j| < 1 - SPEED_MARGIN; a point
outside fails the speed guard of :func:`_guarded_sum`."""

JACOBIAN_CONTRACTION = 1e-2
"""A step with the carried Jacobian is accepted when its trial point has
max|F| at most JACOBIAN_CONTRACTION times that of the current point;
otherwise the exact Jacobian is built there (:func:`_modulate_raw`)."""


@dataclass(frozen=True, eq=False)
class ModulationResult:
    """Decomposition s = sum_j s_j Q_{c_j}(. - a_j) + eps with eps orthogonal
    to the translation modes and negative directions of every soliton.

    ``newton_iters`` counts the accepted steps, each of which updates the
    Jacobian, and ``jacobian_builds`` the exact Jacobians built on the way.
    ``condition_evals`` counts the residual passes, evaluations of the
    conditions (one at the starting point and one per trial point, each
    looking up chi once per soliton).  ``backtracks`` counts the refused
    trial points: the step halvings of the line search, and each step with
    the carried Jacobian that fell short of JACOBIAN_CONTRACTION or whose
    solve was singular.  A trial point that fails the speed guard ends its
    residual pass early and counts as a backtrack but not as an evaluation,
    as does a singular carried solve, so ``condition_evals <= newton_iters
    + 1 + backtracks``, with equality when every trial point is admissible.
    """

    speeds: np.ndarray
    centers: np.ndarray
    epsilon: HydroState
    residual_norm: float
    orthogonality: float
    newton_iters: int
    condition_evals: int
    backtracks: int
    jacobian_builds: int


def _speed_guard(cs: list[float]) -> None:
    """The ordering and range guards of the speeds ``cs``: a ModulationError
    unless they increase and keep SPEED_MARGIN < |c| < 1 - SPEED_MARGIN."""
    # on Python floats: N is small, and these run at every residual pass
    if any(b <= a for a, b in zip(cs, cs[1:])):
        raise ModulationError(f"ordering lost: speeds {cs} are not increasing")
    if any(abs(c) >= 1.0 - SPEED_MARGIN or abs(c) <= SPEED_MARGIN for c in cs):
        raise ModulationError(
            f"speed out of range: speeds {cs} left "
            f"[{SPEED_MARGIN}, {1.0 - SPEED_MARGIN}] in magnitude")


def _guarded_sum(speeds, centers, signs, grid: Grid) -> tuple[np.ndarray, ProfileJet]:
    """The superposition sum_k s_k Q_k as a (2, n) array, with the profile
    jet of all solitons, once the speeds pass :func:`_speed_guard`."""
    _speed_guard(speeds.tolist())
    return _sum_profile_arrays(speeds, centers, signs, grid)


_RAMP_BLOCK = 32
"""Block length B of the two exp tables in :func:`_phase_ramps`."""


def _phase_ramps(grid: Grid, shifts: np.ndarray) -> np.ndarray:
    """The rfft phase ramps exp(-i k_m d) for each shift d, as an
    (N, n//2 + 1) array.  With m = B q + r, each ramp is the outer product
    exp(-i k_{Bq} d) exp(-i k_r d) of a table of B entries and one of about
    n/(2B), so it costs about B + n/(2B) complex exponentials instead of
    n/2 + 1 (65 instead of 1025 at n = 2048); the product differs from
    exp(-i k_m d) by the rounding already present in k_m d."""
    k = grid.rfft_wavenumbers
    d = shifts[:, None]
    low = np.exp(-1j * (k[:_RAMP_BLOCK] * d))
    high = np.exp(-1j * (k[::_RAMP_BLOCK] * d))
    return (high[:, :, None] * low[:, None, :]).reshape(len(shifts), -1)[:, :len(k)]


class _Point(NamedTuple):
    """What the Jacobian pass reuses from the residual pass at one point."""

    jet: ProfileJet          # the N profiles over (N, n)
    ramp: np.ndarray         # (N, n//2 + 1) phase ramps translating to a_j
    ramped: np.ndarray       # (N, 2, n//2 + 1) chi_j spectra, translated
    slopes: np.ndarray       # (N, 2, n//2 + 1) d chi_j/dc spectra at the center
    eps_hat: np.ndarray      # rfft of eps times the Parseval weights, as floats


def _residual(params: np.ndarray, state: np.ndarray, grid: Grid, signs: np.ndarray,
              chi: ChiCache) -> tuple[np.ndarray, np.ndarray, _Point]:
    """The conditions F and eps at p = params for the state (v, w) given as
    a (2, n) array, with the :class:`_Point` that :func:`_jacobian` needs.
    Q and Q' come from one cosh and one tanh over (N, n); eps is paired with
    the translated chi_j by Parseval, from one 2-row rfft of eps."""
    nsol = len(signs)
    speeds = params[:nsol]
    centers = params[nsol:]
    total, jet = _guarded_sum(speeds, centers, signs, grid)
    eps = state - total
    modes = [chi.mode_for(c) for c in speeds]
    ramp = _phase_ramps(grid, centers - chi.center)
    ramped = ramp[:, None, :] * np.stack([hat for hat, _ in modes])
    # Re sum_k w_k conj(eps^_k) chi^_k is the dot product of the
    # interleaved real and imaginary parts
    eps_hat = (np.fft.rfft(eps) * grid.rfft_pairing).reshape(-1).view(float)
    f = np.empty(2 * nsol)
    f[0::2] = (jet.dx.reshape(nsol, -1) @ eps.reshape(-1)) * (grid.dx * signs)
    f[1::2] = (ramped.reshape(nsol, -1).view(float) @ eps_hat) * signs
    return f, eps, _Point(jet, ramp, ramped, np.stack([slope for _, slope in modes]), eps_hat)


def _jacobian(point: _Point, eps: np.ndarray, grid: Grid, signs: np.ndarray) -> np.ndarray:
    """The exact Jacobian of the conditions (formulas in
    :func:`_modulate_raw`) at the point of a residual pass that left eps:
    dQ'/dc, Q'' and dQ/dc from the jet, the pairings of eps with
    (chi_j', d chi_j/dc) by Parseval against the pass's rfft of eps, and
    the physical chi_j of the cross terms from one inverse transform."""
    nsol = len(signs)
    jet = point.jet
    rows = np.concatenate([grid.ik * point.ramped, point.ramp[:, None, :] * point.slopes], axis=1)
    eps_flat = eps.reshape(-1)
    weight = grid.dx * signs
    # s_j <eps, .> of dQ_j'/dc, Q_j'', chi_j', d chi_j/dc; the last two by
    # Parseval, as the chi pairings of the residual pass
    dcdx = (jet.dcdx.reshape(nsol, -1) @ eps_flat) * weight
    dxx = (jet.dxx.reshape(nsol, -1) @ eps_flat) * weight
    dchi = (rows.reshape(nsol, 2, -1).view(float) @ point.eps_hat) * signs[:, None]
    # the rows Q_j', chi_j against the columns d eps/d c_k, d eps/d a_k
    fields = np.empty((nsol, 2, 2, grid.n))
    fields[:, 0] = jet.dx
    fields[:, 1] = np.fft.irfft(point.ramped, n=grid.n)
    cols = np.concatenate([-signs[:, None, None] * jet.dc, signs[:, None, None] * jet.dx])
    jac = (fields.reshape(2 * nsol, -1) @ cols.reshape(2 * nsol, -1).T) * grid.dx
    jac *= np.repeat(signs, 2)[:, None]
    j = np.arange(nsol)
    jac[2 * j, j] += dcdx
    jac[2 * j, nsol + j] -= dxx
    jac[2 * j + 1, nsol + j] -= dchi[:, 0]
    jac[2 * j + 1, j] += dchi[:, 1]
    return jac


def _modulate_raw(sv: np.ndarray, sw: np.ndarray, grid: Grid,
                  speeds0: np.ndarray, centers0: np.ndarray, signs: np.ndarray,
                  chi: ChiCache, jacobian: Optional[np.ndarray] = None
                  ) -> tuple[ModulationResult, Optional[np.ndarray]]:
    """Newton iteration on the 2N conditions, p = (c_1..c_N, a_1..a_N),

        F_2j = s_j <eps, Q_j'>,   F_2j+1 = s_j <eps, chi_j>,
        eps = s - sum_k s_k Q_k,  Q_k = Q_{c_k}(. - a_k),

    with chi_j the lattice interpolant of chi_{c_j} translated to a_j.  The
    start and every trial point are one residual pass (:func:`_residual`).

    A step first solves with the carried Jacobian J, which is ``jacobian``
    at the start (None when there is none).  Its trial point is accepted
    when it cuts max|F| by JACOBIAN_CONTRACTION.  Otherwise, or when J is
    singular, the trial is refused (a backtrack) and the exact Jacobian
    (:func:`_jacobian`) is built at the current point, with
    d eps/d a_k = s_k Q_k' and d eps/d c_k = -s_k dQ_k/dc,

        dF_2j/dc_k   = -s_j s_k <dQ_k/dc, Q_j'> + [k = j] s_j <eps, dQ_j'/dc>,
        dF_2j/da_k   =  s_j s_k <Q_k', Q_j'>    - [k = j] s_j <eps, Q_j''>,
        dF_2j+1/dc_k = -s_j s_k <dQ_k/dc, chi_j> + [k = j] s_j <eps, d chi_j/dc>,
        dF_2j+1/da_k =  s_j s_k <Q_k', chi_j>   - [k = j] s_j <eps, chi_j'>,

    and its step is damped by the backtracking line search.  J is carried
    only while the iteration contracts: a step after one that cut max|F| by
    less than JACOBIAN_CONTRACTION, and the first step without a given
    ``jacobian``, build the exact Jacobian at once.  Every accepted
    step dp, with dF the change of F, updates J by Broyden's rank-one
    formula J += (dF - J dp) dp^T / (dp^T dp) (C. G. Broyden, Math. Comp.
    19 (1965) 577).  Returns the result and the last J, to be carried to
    the next decomposition.
    """
    nsol = len(speeds0)
    state = np.stack([sv, sw])
    evals = 0

    def residual(params: np.ndarray):
        nonlocal evals
        out = _residual(params, state, grid, signs, chi)
        evals += 1
        return out

    jac = jacobian
    # after a step slower than JACOBIAN_CONTRACTION a carried trial would
    # be wasted, so the exact Jacobian is built at once
    carry = jac is not None
    p = np.concatenate([speeds0, centers0]).astype(float)
    f, eps, point = residual(p)
    fmax = np.max(np.abs(f))
    iters = 0
    backtracks = 0
    builds = 0
    # drive the conditions to an absolute 1e-10, the floor of every
    # normalized tolerance below; near the solution a step cuts max|F| by
    # JACOBIAN_CONTRACTION or more, so this costs at most one iteration
    # beyond the stated criterion
    while fmax > 1e-10 and iters < MAX_NEWTON_ITERS:
        trial = None
        scale = 1.0
        if carry:
            try:
                step = np.linalg.solve(jac, f)
                trial = residual(p - step)
            except (np.linalg.LinAlgError, ModulationError):
                pass
            if trial is None or np.max(np.abs(trial[0])) > JACOBIAN_CONTRACTION * fmax:
                trial = None
                backtracks += 1
        if trial is None:
            jac = _jacobian(point, eps, grid, signs)
            builds += 1
            try:
                step = np.linalg.solve(jac, f)
            except np.linalg.LinAlgError as exc:
                raise ModulationError(f"no convergence: singular Jacobian ({exc})") from exc
            # backtracking: a full step that reduces max|f| is accepted
            # as-is, otherwise halve until it does or the damping floor is
            # reached; trial points outside the admissible speed region count
            # as non-reducing
            while True:
                try:
                    trial = residual(p - scale * step)
                except ModulationError:
                    trial = None
                if trial is not None and (np.max(np.abs(trial[0])) < fmax
                                          or scale <= 1.0 / 256.0):
                    break
                if scale <= 1.0 / 256.0:
                    # even the floor-damped point is inadmissible; surface
                    # the guard failure of the undamped step
                    full = p - step
                    _guarded_sum(full[:nsol], full[nsol:], signs, grid)
                    raise ModulationError("no convergence: damping floor reached")
                scale *= 0.5
                backtracks += 1
        dp = -scale * step
        jac = jac + np.outer(trial[0] - f - jac @ dp, dp / (dp @ dp))
        p = p + dp
        f, eps, point = trial
        fmax_new = np.max(np.abs(f))
        carry = fmax_new <= JACOBIAN_CONTRACTION * fmax
        fmax = fmax_new
        iters += 1

    ortho = float(fmax)
    # both tolerances are at least 1e-10, so the X-norm of the state is
    # needed only when the loop stopped above that floor
    if ortho > 1e-10 and ortho > 1e-10 * (1.0 + x_norm_arrays(sv, sw, grid)):
        raise ModulationError(
            f"no convergence: orthogonality residual {ortho:.3e} after {iters} iterations")
    epsilon = HydroState.from_arrays(grid, eps[0], eps[1])
    eps_norm = x_norm(epsilon)
    if ortho > 1e-10 * (1.0 + eps_norm):
        raise ModulationError(
            f"no convergence: orthogonality residual {ortho:.3e} after {iters} iterations")
    result = ModulationResult(speeds=p[:nsol].copy(), centers=p[nsol:].copy(), epsilon=epsilon,
                              residual_norm=eps_norm, orthogonality=ortho,
                              newton_iters=iters, condition_evals=evals,
                              backtracks=backtracks, jacobian_builds=builds)
    return result, jac


def modulate(state: HydroState, guess: MultiSolitonConfig,
             chi: Optional[ChiCache] = None) -> ModulationResult:
    """Solve the orthogonality conditions for (c_j, a_j) by Newton iteration
    starting from the guess configuration, in at most MAX_NEWTON_ITERS steps;
    the first step builds the exact Jacobian.

    Raises :class:`ModulationError` with reason "no convergence", "ordering
    lost", or "speed out of range".
    """
    if chi is None:
        chi = ChiCache(state.grid)
    result, _ = _modulate_raw(state.v.values, state.w.values, state.grid,
                              guess.speeds, guess.centers, guess.signs.astype(float),
                              chi)
    return result


# ---------------------------------------------------------------------------
# tracking along a trajectory
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModulationTrack:
    """Modulation parameters along a trajectory, with centered-difference
    estimates of the parameter rates.

    ``error`` is None when every snapshot was decomposed, otherwise the
    reason the decomposition was lost at the first snapshot that failed;
    the rows stop just before that snapshot.  ``condition_evals``,
    ``backtracks`` and ``jacobian_builds`` total the counts of the
    decomposed snapshots (see :class:`ModulationResult`), and
    ``chi_nodes`` lists the negative-mode solves of the whole track by node
    speed, each with its Rayleigh quotient, its eigen-residual and its
    Davidson iterations: one per |c_k| the track visits, at the positive
    node, whose mirror image serves the node -|c_k|.
    """

    times: np.ndarray
    speeds: np.ndarray        # (T, N)
    centers: np.ndarray       # (T, N)
    eps_norms: np.ndarray
    orthogonality: np.ndarray
    newton_iters: np.ndarray
    error: Optional[str] = None
    condition_evals: int = 0
    backtracks: int = 0
    jacobian_builds: int = 0
    chi_nodes: tuple[dict, ...] = ()

    @property
    def n_solitons(self) -> int:
        return self.speeds.shape[1]

    @property
    def counters(self) -> dict[str, int]:
        """The deterministic work counts of the track, for the run report."""
        return {"newton_iters": int(np.sum(self.newton_iters)),
                "jacobian_builds": self.jacobian_builds,
                "condition_evals": self.condition_evals,
                "backtracks": self.backtracks,
                "chi_solves": len(self.chi_nodes),
                "davidson_iters": sum(node["iterations"] for node in self.chi_nodes)}

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The modulation.csv columns: t, c_1..c_N, a_1..a_N, eps_xnorm, iters."""
        nsol = self.n_solitons
        cols = {"t": self.times}
        cols.update((f"c_{j + 1}", self.speeds[:, j]) for j in range(nsol))
        cols.update((f"a_{j + 1}", self.centers[:, j]) for j in range(nsol))
        cols["eps_xnorm"] = self.eps_norms
        cols["iters"] = self.newton_iters
        return cols

    @cached_property
    def center_rates(self) -> np.ndarray:
        """da_j/dt by differences; NaN when fewer than two rows leave no rate."""
        if len(self.times) < 2:
            return np.full_like(self.centers, np.nan)
        return np.gradient(self.centers, self.times, axis=0)


def track_modulation(traj: Trajectory, guess: MultiSolitonConfig,
                     chi: Optional[ChiCache] = None) -> ModulationTrack:
    """Run the Newton decomposition at every snapshot, sharing one
    :class:`ChiCache`: ``chi`` when given (it must be on the trajectory's
    grid), else a new one.  Each solve after the first starts from a
    predictor: the previous speeds c_j and the previous centers advanced by
    c_j times the time step between the snapshots, and from the Jacobian the
    previous solve ended on, so that the exact Jacobian is built only where
    a carried step falls short (:func:`_modulate_raw`).

    A given cache may hold only nodes of the guess speeds' cells, which the
    first residual pass looks up, as a new cache or one prepared for those
    speeds by :meth:`ChiCache.prepare` does; any other node raises
    ValueError.  So ``chi_nodes``, every node the cache holds at the end,
    are the nodes of the cold track.

    Tracking stops at the first snapshot that cannot be decomposed (a
    :class:`ModulationError`, or a :class:`VacuumBreakdown` of the snapshot
    or of its hydro view :func:`as_hydro`); the track keeps the rows before
    it and names the failure and its time in ``error``.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    grid = traj.grid
    if chi is None:
        chi = ChiCache(grid)
    elif chi.grid != grid:
        raise ValueError(f"chi cache is on {chi.grid}, the trajectory on {grid}")
    elif not set(chi._nodes) <= {abs(k + j) for k in map(chi._cell_index, guess.speeds)
                                 for j in (0, 1)}:
        raise ValueError(f"chi cache holds nodes at {[m.c for m in chi.nodes]}, "
                         "off the guess speeds' cells")
    nsol = guess.n_solitons
    times = np.asarray(traj.times, dtype=float)
    speeds = np.empty((len(traj), nsol))
    centers = np.empty((len(traj), nsol))
    eps_norms = np.empty(len(traj))
    ortho = np.empty(len(traj))
    iters = np.empty(len(traj), dtype=int)
    error = None
    done = len(traj)
    evals = 0
    backtracks = 0
    builds = 0
    jac = None

    warm_speeds = np.array(guess.speeds, dtype=float)
    warm_centers = np.array(guess.centers, dtype=float)
    signs_f = guess.signs.astype(float)
    for i, snap in enumerate(traj.states):
        if i > 0:
            warm_centers = warm_centers + warm_speeds * (times[i] - times[i - 1])
        try:
            hydro = as_hydro(snap)
            result, jac = _modulate_raw(hydro.v.values, hydro.w.values, grid,
                                        warm_speeds, warm_centers, signs_f, chi, jac)
        except (ModulationError, VacuumBreakdown) as exc:
            error = f"at t = {times[i]:.6g}: {exc}"
            done = i
            break
        speeds[i] = result.speeds
        centers[i] = result.centers
        eps_norms[i] = result.residual_norm
        ortho[i] = result.orthogonality
        iters[i] = result.newton_iters
        evals += result.condition_evals
        backtracks += result.backtracks
        builds += result.jacobian_builds
        warm_speeds = result.speeds
        warm_centers = result.centers
    return ModulationTrack(times=times[:done], speeds=speeds[:done], centers=centers[:done],
                           eps_norms=eps_norms[:done], orthogonality=ortho[:done],
                           newton_iters=iters[:done], error=error,
                           condition_evals=evals, backtracks=backtracks,
                           jacobian_builds=builds,
                           chi_nodes=tuple({"c": mode.c, "rayleigh": mode.rayleigh,
                                            "residual": mode.residual,
                                            "iterations": mode.iterations}
                                           for mode in chi.nodes))
