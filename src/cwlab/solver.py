"""Pseudo-spectral solver for u_tt = Lap u + P(y, u) on a periodic 2D box.

Linear propagation is exact per Fourier mode (unitary in the wave energy),
so the only time-discretization error comes from the nonlinear kick, applied
by Strang splitting with 2/3-rule dealiasing of the powers.  P is gated by
a SourceGate, a separable space-time bump whose space factor a solve
evaluates once on the gate's box; steps whose midpoint lies outside its
time support are not kicked, and each closed stretch is crossed in one
exact propagation.  One loop, solve, integrates every problem: a forcing,
a P that does not read u, solved from zero data gives the forward
fundamental solution; a response w = u - u_lin is the zero-data solve
of a coupling that adds the free wave u_lin to u itself, and its
trilinear channel the zero-data solve of a forcing, a3 times the product
of the three unit waves.

Every spectrum is rfft2's own array, indexed [kx, ky], and every spectrum
the solver propagates is held as its half-wave pair: Y+- = (uh -+ i vh/|k|)/2
of u's and u_t's spectra uh and vh, the amplitudes on the two characteristic
sheets, which free flow over tau only multiplies by exp(+-i |k| tau), so a
free step is one complex multiply by a phase table (module _halfwave).  The
mean, |k| = 0, has no phase and no 1/|k|, so it is carried apart as
(uh0, vh0), and free flow shears it: uh0 += tau vh0.  The stepping loop
touches only what a kick can read or write (FFT pruning): the dealiased
block of the spectrum, an index set of that array.  Every kick is cut to
the block and reads u only through it, so the data's spectrum outside the
block, its free part, is free flow throughout: each record turns it by one
exact jump, writes the loop's block into its rows and makes each field by
one inverse transform (zero data have no free part).  P is evaluated only
on the box, the index box of the grid holding the gate's spatial support
(the whole grid for an ungated coupling), so a kick maps the block's
u = Y+ + Y- onto the box and P back, and never touches the whole grid; a
forcing's kick maps back only, and the kick adds dt P to u_t, that is
-+ i dt P / 2|k| to Y+- and dt P to vh0.
Each map is a matrix product per axis with partial DFT matrices, and the
loop holds the block folded about the centre of P's box, which makes the
maps along x1 real and half their height; the module _kick holds the fold
and the maps.  The fold's odd part W vanishes for a field even about that
centre.  So when a zero-data solve's P is provably even under x1 -> -x1
(the interaction's wave couplings, a response's and its channel's, of
mirror-symmetric waves, on a centred grid with a gate, whose box is then
centred on x1 = 0), the loop holds the even
part alone, half the state, and each kick evaluates P and maps on the
box's rows at and above x1 = 0 alone, half the rows.  The parity is
decided from the inputs, never measured, and no option selects it.  The
block, the box, the maps and the loop's step table are built once per
solve, and nothing is kept between solves: a solve is a pure function of
its inputs.

Every FFT is numpy.fft (pocketfft), the package's only FFT library: the
data's spectra, their free flow and the records.  The module keeps it
under the name sfft, which the benchmark's tracer replaces by name to
count and time the solver's FFTs; the kick's products make none.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy import fft as sfft

from ._halfwave import _HalfWaves, _phases
from ._kick import _fold, _kick_macs, _kick_maps, _to_block, _to_box, _unfold
from .spectral import Grid1D, GridND, _wavenumbers, plateau_window

__all__ = [
    "BlowupError",
    "CharFrame",
    "NonlinearitySpec",
    "cubic_nonlinearity",
    "SolverConfig",
    "SourceGate",
    "SpaceTimeField",
    "WaveState",
    "energy",
    "grid2d",
    "linear_propagate",
    "solve",
    "z_cutoff",
]


class BlowupError(RuntimeError):
    """Nonlinear term overflowed; the local smallness assumption failed."""


def grid2d(points: int, extent: float) -> GridND:
    g = Grid1D(points, extent)
    return GridND((g, g))


@dataclass(frozen=True)
class CharFrame:
    """Three characteristic plane directions and the (t,x) -> y chart.

    y_j = t - x . omega_j, so each {y_j = 0} is a forward light-cone tangent
    plane of the standard wave operator.
    """

    omegas: tuple

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.shape != (3, 2):
            raise ValueError("need three 2D direction vectors")
        norms = np.hypot(om[:, 0], om[:, 1])
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("directions must be unit vectors (characteristic planes)")
        for i in range(3):
            for j in range(i + 1, 3):
                if np.hypot(*(om[i] - om[j])) < 1e-12:
                    raise ValueError("directions must be pairwise distinct")
        if abs(np.linalg.det(self.map)) < 1e-12:
            raise ValueError("coordinate map is singular")
        object.__setattr__(self, "omegas", tuple(tuple(row) for row in om))

    @property
    def map(self) -> np.ndarray:
        """Rows send (t, x1, x2) to (y1, y2, y3)."""
        om = np.asarray(self.omegas, dtype=float)
        return np.column_stack([np.ones(3), -om])


@dataclass(frozen=True)
class SourceGate:
    """Separable space-time gate: a plateau bump in t times one in |x|.

    Equal to 1 on {|t| < flat, |x| < flat} and 0 once |t| >= edge or
    |x| >= edge.  The time factor is one scalar per time, the space factor
    depends on the grid alone, so a solve evaluates it once, and the gate
    vanishes identically outside the open time interval ``support``, so a
    solver can skip the source there without changing the solution.
    """

    flat: float
    edge: float

    def __post_init__(self):
        if not 0.0 < self.flat < self.edge < math.inf:
            raise ValueError("need finite 0 < flat < edge")

    @property
    def support(self) -> tuple[float, float]:
        return -self.edge, self.edge

    def time_factor(self, t):
        return plateau_window(t, self.flat, self.edge)

    def space_factor(self, x1, x2):
        r = np.hypot(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
        return plateau_window(r, self.flat, self.edge)

    def __call__(self, t, x1, x2):
        return self.time_factor(t) * self.space_factor(x1, x2)


# The source gate of the experiments; it vanishes for t < -1 with margin.
z_cutoff = SourceGate(flat=0.4, edge=0.9)


@dataclass(frozen=True)
class NonlinearitySpec:
    """P(y, u) = cutoff(y) * sum_j coeffs[j] * u^j.

    Coefficients are reals or callables of (t, X1, X2), at least four of them
    (degree >= 3); cutoff is a SourceGate, which lets the solver skip the
    source outside its support, or None, which disables the gate (only
    appropriate for manufactured solutions and forcings).  Any other
    space-time factor belongs in a callable coefficient.
    """

    coeffs: tuple
    cutoff: SourceGate | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) < 4:
            raise ValueError("need at least four coefficients (degree >= 3)")
        for a in self.coeffs:
            if not callable(a) and not np.isfinite(a):
                raise ValueError("coefficients must be finite")
        if self.cutoff is not None and not isinstance(self.cutoff, SourceGate):
            raise TypeError("cutoff must be a SourceGate or None")

    def __call__(self, t, x1, x2, u, cutoff_value=None):
        """P at time t for u sampled on the meshes (x1, x2); cutoff_value,
        when given, is the cutoff already evaluated there (the solver passes
        the gate it evaluated once for the solve).

        Horner's rule runs from the highest live coefficient, one that is
        callable or nonzero.  A P whose only live coefficient is the constant
        (a forcing), or that has none, never reads u, which may then be None;
        its value is a new array of the meshes' broadcast shape, and a
        callable's own array is never changed.
        """
        top, *rest = reversed(self.coeffs[: max(_live_top(self.coeffs), 0) + 1])
        acc = top(t, x1, x2) if callable(top) else top
        for k, a in enumerate(rest):
            # In place after the first product; adding a zero real
            # coefficient changes no value and is skipped.
            acc = np.multiply(acc, u, out=acc if k else None)
            if callable(a):
                acc = acc + a(t, x1, x2)
            elif a != 0.0:
                acc += a
        if not rest:
            # u was never read; acc, maybe the callable's own array, is copied
            acc = np.broadcast_to(acc, np.broadcast_shapes(np.shape(x1), np.shape(x2))).astype(float)
        if cutoff_value is None and self.cutoff is not None:
            cutoff_value = self.cutoff(t, x1, x2)
        if cutoff_value is not None:
            acc *= cutoff_value
        return acc

    @property
    def _x1_even(self) -> bool:
        """Whether P(t, x, u) is even under x1 -> -x1 for every u even in
        it, on a grid centred on x1 = 0; a zero-data solve of such a P holds
        the fold's even part alone (see solve).  A plain P does not say:
        only a coupling that knows the waves it reads can, as the
        interaction's wave couplings do, by one rule."""
        return False


def _live_top(coeffs) -> int:
    """Index of the highest live coefficient, callable or nonzero; -1 if none is."""
    return max((j for j, a in enumerate(coeffs) if callable(a) or a != 0.0), default=-1)


def cubic_nonlinearity(a3=1.0, cutoff=z_cutoff) -> NonlinearitySpec:
    return NonlinearitySpec(coeffs=(0.0, 0.0, 0.0, a3), cutoff=cutoff)


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping window and discretization controls.

    dt is nudged so an integer number of steps lands exactly on t1 (see
    lattice); solve() checks the step bound dt <= h / (DEALIAS pi) of the
    splitting, one radian per step of the fastest mode it steps, and that
    the source gate of P is still closed at t0.
    """

    dt: float
    t0: float
    t1: float
    record_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1) and self.t0 < self.t1):
            raise ValueError("need finite t0 < t1")
        if not 0.0 < self.dt <= (self.t1 - self.t0):
            raise ValueError("dt must be positive and at most the run length")
        stride = self.record_stride
        if not (math.isfinite(stride) and stride >= 1 and int(stride) == stride):
            raise ValueError("record_stride must be a positive integer")

    def lattice(self) -> tuple[int, int, float]:
        """(steps, record stride, dt) of a run: a whole number of strides of
        the nudged dt spans t0 to t1, so the last record lands on t1."""
        n_steps = max(1, int(round((self.t1 - self.t0) / self.dt)))
        stride = min(int(self.record_stride), n_steps)
        n_steps = stride * max(1, round(n_steps / stride))
        return n_steps, stride, (self.t1 - self.t0) / n_steps

    def record_times(self) -> np.ndarray:
        """The times a run records: every stride-th step of the lattice."""
        n_steps, stride, dt = self.lattice()
        return self.t0 + np.arange(0, n_steps + 1, stride) * dt


@dataclass(frozen=True)
class WaveState:
    """Physical-space snapshot (u, u_t) at one time."""

    grid: GridND
    t: float
    u: np.ndarray
    ut: np.ndarray


def _time_index(times, t: float) -> int | None:
    """Index of the time in times equal to t up to roundoff; None if none
    is, as for a t that is not finite."""
    i = int(np.argmin(np.abs(times - t)))
    return i if math.isfinite(t) and abs(times[i] - t) <= 1e-9 + 1e-9 * abs(t) else None


@dataclass
class SpaceTimeField:
    """Equally spaced recorded slices of a run.

    energies, per slice, is optional: the solver does not compute it (call
    energy on a slice for the wave energy).
    """

    grid: GridND
    times: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    energies: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isfinite(self.times)):
            raise ValueError("record times must be finite")
        steps = np.diff(self.times)
        if steps.size and not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("recorded slices must be equally spaced")

    def index_of(self, t: float) -> int:
        i = _time_index(self.times, t)
        if i is None:
            raise ValueError(f"time {t} was not recorded")
        return i

    def state_at(self, t: float) -> WaveState:
        i = self.index_of(t)
        return WaveState(self.grid, float(self.times[i]), self.u[i], self.ut[i])


class _Block(NamedTuple):
    """The part of a grid's rfft2 spectrum the solver steps.

    The block keeps kx rows -K..K, which rfft2's layout holds at rows 0..K
    and n1-K..n1-1 (the Nyquist row lies outside it), and ky columns
    0..cols-1: in that layout it is (2K+1, cols).  The loop holds it folded
    (see _fold), (2, K+1, cols), and k is |k| on the folded rows, kx = 0..K,
    shaped (1, K+1, cols) to broadcast against them.
    """

    K: int
    cols: int
    k: np.ndarray


# Every kick is cut to |kx|, |ky| <= DEALIAS times the Nyquist frequency K
# (the 2/3 rule of Orszag, J. Atmos. Sci. 28, 1971).  The square of a field
# on that block then aliases onto no mode strictly inside the cut, its cube
# only from its band above 4K/3 per axis, and the loop holds the block
# alone, 4/9 of the spectrum.
DEALIAS = 2.0 / 3.0


def _block(grid: GridND, cut=None) -> _Block:
    """The block |kx|, |ky| <= cut of grid's spectrum, by default the
    dealiased one, cut at DEALIAS * nyquist per axis."""
    kx, ky = _wavenumbers(grid)
    cut_x, cut_y = (DEALIAS * g.nyquist for g in grid.axes) if cut is None else (cut, cut)
    # kx >= 0 grows from row 0, and fftfreq's kx < 0 rows are their exact
    # negatives, so the kept rows are kx = -K..K; ky >= 0 grows with the
    # column index, so the kept columns are a run.
    K = int(np.count_nonzero((kx[:, 0] > 0) & (kx[:, 0] <= cut_x)))
    cols = int(np.count_nonzero(ky <= cut_y))
    return _Block(K, cols, np.hypot(kx[: K + 1], ky[:, :cols])[None])


def _field(spec, n2: int, out=None):
    """The real field of n2 columns whose rfft2 is spec (any missing ky
    columns zero), written into out when given; spec is overwritten.  Two
    1D transforms, the first in place, since numpy's irfft2 returns a new
    array and leaves its out argument unwritten (numpy 2.4), and the solver
    writes its records in place."""
    return sfft.irfft(sfft.ifft(spec, axis=0, out=spec), n=n2, axis=-1, out=out)


def _index_box(nodes, masks):
    """(box, x1, x2): the index box, a slice per axis, from the first to the
    last of the nodes each mask keeps (empty if it keeps none), and its
    meshes x1[:, None] and x2[None, :]."""
    box = tuple(slice(int(i[0]), int(i[-1]) + 1) if i.size else slice(0, 0)
                for i in map(np.flatnonzero, masks))
    x1, x2 = (x[b] for x, b in zip(nodes, box))
    return box, x1[:, None], x2[None, :]


def _gate_box(gate: SourceGate | None, grid: GridND):
    """(box, x1, x2, space): the index box of grid holding the gate's spatial
    support (|x| < edge), its meshes x1[:, None] and x2[None, :], and the
    gate's space factor on it.  For gate None the box is the whole grid and
    space is None."""
    edge = math.inf if gate is None else gate.edge
    nodes = grid.nodes()
    box, x1, x2 = _index_box(nodes, (np.abs(x) < edge for x in nodes))
    return box, x1, x2, None if gate is None else gate.space_factor(x1, x2)


def _even_path(P: NonlinearitySpec, grid: GridND, box) -> bool:
    """Whether the response of zero data to P is even under x1 -> -x1, so
    the loop may hold the fold's even part E alone (W = 0): P says so
    (NonlinearitySpec._x1_even), grid is centred on x1 = 0, so the mirror
    sends x1 row i to row n1 - i, and P's box is symmetric about row n1/2,
    the fold's centre then; an ungated P's box, the whole grid, is not.
    Decided from the inputs alone, never by measuring a field."""
    g, rows = grid.axes[0], box[0]
    return P._x1_even and 2.0 * g.start == -g.extent and rows.start + rows.stop - 1 == g.points


def _check_grid(grid: GridND, *fields):
    if grid.ndim != 2:
        raise ValueError("solver grids are 2D")
    for f in fields:
        if f.shape != grid.shape:
            raise ValueError("field shape does not match grid")


def linear_propagate(u, ut, grid: GridND, dt: float):
    """Exact free evolution over dt; unconditionally stable for any dt."""
    _check_grid(grid, u, ut)
    if not all(math.isfinite(_abs_max(f)) for f in (u, ut)):
        raise ValueError("fields must be finite")
    k = np.hypot(*_wavenumbers(grid))
    free = _HalfWaves(np.stack((sfft.rfft2(u), sfft.rfft2(ut))), k)
    free.jump(dt)
    return _field(free.u(), grid.shape[1]), _field(free.ut(), grid.shape[1])


def _abs_max(a) -> float:
    """max |a|; not finite exactly when some entry of a is not."""
    return max(float(a.max()), -float(a.min())) if a.size else 0.0


def energy(u, ut, grid: GridND) -> float:
    """Wave energy integral of (u_t^2 + |grad u|^2), spectral gradient.

    Reads inf when the energy of a finite field exceeds the float range, as
    it can on the last slice a run records before P overflows.
    """
    _check_grid(grid, u, ut)
    uh = sfft.rfft2(u)
    kx, ky = _wavenumbers(grid)
    ux = sfft.irfft2(1j * kx * uh, s=grid.shape)
    uy = sfft.irfft2(1j * ky * uh, s=grid.shape)
    with np.errstate(over="ignore"):
        return float(grid.cell_volume * np.sum(ut**2 + ux**2 + uy**2))




def solve(u0, ut0, grid: GridND, config: SolverConfig,
          P: NonlinearitySpec | None = None) -> SpaceTimeField:
    """Integrate u_tt = Lap u + P(y, u) from (u0, ut0) at t0 up to t1.

    Strang splitting: step i kicks u_t by dt * P(t_mid, u) at its midpoint
    t_mid when the time support of P's gate holds t_mid (every step for an
    ungated P); elsewhere P vanishes and the step is free flow, so a gated
    P costs a kick only while the gate is open, and the gate must still be
    closed at t0.  Free flow is exact for any length, so the state is
    propagated once per gap between events (kicks and record times): one
    step by the solve's step table between consecutive kicks, one jump
    across every other gap (a half step to or from a record, or a closed
    stretch).  Data that are not finite are refused.

    The loop holds u and u_t on the dealiased block of the rfft2 spectrum
    alone, kx rows -K..K and ky columns 0..cols-1 (see _block), and holds
    it folded about the centre c of P's box: the state of each is
    (E, W), E = s[kappa] + s[-kappa] and W = i (s[kappa] - s[-kappa]) for
    kappa = 0..K, with s the block shifted by exp(2 pi i kappa c / n1).
    The fold is exact because the block's kx rows and the box's x1 rows
    are both symmetric, about 0 and about c; it is applied once, when the
    data's block moves into the loop at t0 and leaves zeros in the data's
    spectrum (zero for zero data), and undone once per record.  The loop
    holds the folded (E, W) of u and u_t as their half-wave pair
    Y+- = (u -+ i u_t / |k|) / 2, stacked (2, 2, K+1, cols) (see
    _HalfWaves): free flow depends on |k| alone, the same at +-kappa, so a
    step multiplies the whole pair once by the step table exp(+-i |k| dt),
    built once per solve, and a jump turns each half by phases built for it.
    The mean, |k| = 0, has no phase and no 1/|k|: it is carried apart as
    (u0, v0), which free flow shears, u0 += tau v0, and a kick adds dt P's
    mean to v0.  Every kick is cut to the block and reads u = Y+ + Y- only
    through it.  The rest of the data's spectrum, its free part, is
    therefore free flow throughout, held as its half-wave pair too.  A
    record has one rule: it turns the free part from the last record by
    one jump of the record spacing, takes its u and u_t spectra (zeros for
    zero data), writes the unfolded block into their block rows, where the
    free part holds zeros, and makes each field by one inverse transform
    straight into the record.  P is evaluated on its box, the index box
    of grid holding the gate's spatial support (the whole grid without a
    gate), with the gate's space factor evaluated there once.  A kick of
    a P that reads u (a live coefficient of a positive power of u; see
    NonlinearitySpec.__call__) maps the folded block onto the box
    (_to_box): real cosine and sine products
    along x1 onto the box's rows at c +- d, then a real one along x2 onto
    its x2 columns.  A P that does not read u, a forcing, skips that
    forward half.  P goes back to the folded block (_to_block) by a real
    product along x2 onto the block's ky columns and the transposed x1
    products, and the kick adds dt P to u_t: -+ i dt P / 2|k| to Y+-.
    The maps are built for the solve and every product writes
    into a buffer allocated with them (see _KickMaps); one path serves a
    gated box, an off-centre box and the whole grid alike.

    The even half: a field even under x1 -> -x1 about the fold's centre
    has W = 0.  When the data are zero and the parity is proved from the
    inputs (_even_path: P says it is even for every even u, the grid is
    centred on x1 = 0, and P's box is symmetric about row n1/2, which an
    ungated P's box, the whole grid, is not), every kick keeps W = 0, and
    the loop holds E alone, (2, 1, K+1, cols).  The forward map is then
    the cos product and the x2 product onto the box's rows at and above
    x1 = 0, P is evaluated on those rows alone, the back map is the x2
    product and one product by 2 back_cos, and a record unfolds E with
    W = 0 (the x1-even maps of _kick).  Every other solve takes the path
    above: of data, of callable coefficients, of a response to unequal eps
    on a mirrored pair (a channel reads the unit waves, whatever the data's
    eps), of a frame no mirror maps onto itself, on an off-centre grid or
    ungated.

    The t0 record is the data, and one event loop writes the others.  A
    run that never kicks (P None, or a gate that never opens) has no loop
    to turn and takes no time steps: its records are the free flow of the
    whole spectrum by the same record rule, and from zero data it returns
    read-only zero records.

    metadata["stats"] records steps, kicks applied and skipped, exact jumps
    (free flows longer than one step), max |P|, dt_margin (dt over the step
    bound h / (DEALIAS pi)), the shapes of the spectral block the loop
    carried, (2K+1, cols) in rfft2's layout, and of the box P was evaluated
    on ((0, 0) each when no step was kicked), kick_macs, the real
    multiply-adds of one kick's products (0 when no step was kicked),
    path, "even" when the loop held the even half alone and "general"
    otherwise, and wall_s, the wall time in seconds of the loop's kicks,
    propagations and records.
    """
    u0, ut0 = (np.asarray(f, dtype=float) for f in (u0, ut0))
    _check_grid(grid, u0, ut0)
    # Each field apart: max() drops a NaN or keeps it by argument order.
    peaks = [_abs_max(f) for f in (u0, ut0)]
    if not all(map(math.isfinite, peaks)):
        raise ValueError("data must be finite")
    gate = None if P is None else P.cutoff
    lo, hi = (-math.inf, math.inf) if gate is None else gate.support
    if gate is not None and lo < config.t0:
        # The data must be a free wave: the gate may not have opened yet.
        raise ValueError(f"source gate is open at t0 = {config.t0}; start at or before {lo}")
    h = min(g.spacing for g in grid.axes)
    n_steps, stride, dt = config.lattice()
    # The method's step bound: at most one radian per step of the fastest axis
    # mode the loop steps, |k| = DEALIAS * pi/h at the block's edge; the
    # free flow of every mode is exact, so the modes beyond it bound nothing.
    bound = h / (DEALIAS * np.pi)
    if dt > bound + 1e-12:
        raise ValueError(f"dt = {dt:.3e} exceeds the step bound {bound:.3e}")

    # Events on the half-step lattice: kick i at 2i + 1, record j at 2j.
    mids = config.t0 + np.arange(n_steps) * dt + 0.5 * dt
    kicked = np.flatnonzero((lo < mids) & (mids < hi)) if P is not None else []
    kicks = [2 * int(i) + 1 for i in kicked]
    records = list(range(0, 2 * n_steps + 1, 2 * stride))
    # The gate's time factor at every kick, evaluated once.
    gains = {} if gate is None else dict(zip(kicks, gate.time_factor(mids[kicked])))

    reads_u = P is not None and _live_top(P.coeffs) > 0
    data = any(peaks)
    n1, n2 = grid.shape
    # Zero data that are never kicked stay zero: their records are then one
    # read-only zero, which takes no memory.
    shape = (len(records),) + grid.shape
    if kicks or data:
        us, uts = np.zeros(shape), np.zeros(shape)
    else:
        us = uts = np.broadcast_to(0.0, shape)
    if data:
        specs = np.empty((2, n1, n2 // 2 + 1), complex)
        for spec, f in zip(specs, (u0, ut0)):
            sfft.rfft2(f, out=spec)

    if kicks:
        K, cols, k = block = _block(grid)
        box, x1, x2, space = _gate_box(gate, grid)
        even = not data and _even_path(P, grid, box)
        maps = _kick_maps(grid.shape, block, box, even)
        if even:  # P is evaluated on the box's rows at c + d, d >= 0
            x1, space = x1[-len(maps.u):], space[-len(maps.u):]
        step = _phases(k, dt)
        if data:  # the data's block moves into the loop, leaving zeros behind
            loop = _HalfWaves(np.stack([_fold(maps, spec) for spec in specs]), k)
        else:
            loop = _HalfWaves(np.zeros((2,) + maps.spec.shape, complex), k)

    if data:
        # The rest of the data's spectrum, free flow throughout.
        us[0], uts[0] = u0, ut0
        free = _HalfWaves(specs, np.hypot(*_wavenumbers(grid)))

    def kick(t, gain):
        """Kick u_t by dt * P(t, u), with gain the gate's time factor at t;
        returns max |P|.  u is summed into maps.spec, which the back map
        then overwrites."""
        u = _to_box(maps, loop.u(out=maps.spec)) if reads_u else None
        cut = None if gate is None else gain * space
        with np.errstate(over="ignore", invalid="ignore"):
            p = P(t, x1, x2, u, cutoff_value=cut)
            peak = _abs_max(p)
        if not math.isfinite(peak):
            raise BlowupError(f"nonlinear term overflowed at t = {t:.6g}")
        p *= dt  # P's value is a new array, the kick's own
        loop.kick(_to_block(maps, p))
        return peak

    def record(j):
        """Write record j, one field at a time: the spectrum of the data's
        free part, turned to record j by one jump of the record spacing
        (zeros for zero data), with the unfolded block of a kicked run in
        the block's rows, where the free part holds zeros.  Records are
        written in order, and the block passes through maps.spec."""
        if data:
            free.jump(stride * dt)
        for stack, part in ((us, _HalfWaves.u), (uts, _HalfWaves.ut)):
            spec = part(free) if data else np.zeros((n1, n2 // 2 + 1), complex)
            if kicks:
                _unfold(maps, part(loop, out=maps.spec), spec)
            _field(spec, n2, out=stack[j])
            del spec  # so u_t's spectrum is not built beside u's

    pos, jumps, p_max = 0, 0, 0.0
    wall = dict.fromkeys(("kicks", "propagate", "records"), 0.0)
    for event in sorted(kicks + records[1:]) if kicks or data else []:
        start = time.perf_counter()
        if kicks:  # only a kicked run has a loop to turn
            gap, pos = event - pos, event
            if gap == 2:  # one step
                loop.flow(step, dt)
            else:  # a half step to or from a record, or a closed stretch
                loop.jump(0.5 * gap * dt)
            jumps += gap > 2
            propagated = time.perf_counter()
            wall["propagate"] += propagated - start
            start = propagated
        if event % 2:
            p_max = max(p_max, kick(mids[event // 2], gains.get(event)))
            phase = "kicks"
        else:
            record(event // (2 * stride))
            phase = "records"
        wall[phase] += time.perf_counter() - start

    stats = {
        "steps": n_steps,
        "kicks_applied": len(kicks),
        "kicks_skipped": n_steps - len(kicks),
        "exact_jumps": jumps,
        "max_abs_p": p_max,
        "dt_margin": dt / bound,
        "block": (2 * K + 1, cols) if kicks else (0, 0),
        "box": maps.u.shape if kicks else (0, 0),
        "kick_macs": _kick_macs(maps, reads_u) if kicks else 0,
        "path": "even" if kicks and even else "general",
        "wall_s": wall,
    }
    return SpaceTimeField(
        grid=grid,
        times=config.record_times(),
        u=us,
        ut=uts,
        metadata={"dt": dt, "t0": config.t0, "t1": config.t1,
                  "record_stride": stride, "stats": stats},
    )
