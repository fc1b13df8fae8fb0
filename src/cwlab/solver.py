"""Pseudo-spectral solver for u_tt = Lap u + P(y, u) on a periodic 2D box.

Linear propagation is exact per Fourier mode (unitary in the wave energy),
so the only time-discretization error comes from the nonlinear kick, applied
by Strang splitting with 2/3-rule dealiasing of the powers.  P is gated by
a SourceGate, a separable space-time bump whose space factor is cached per
grid; steps whose midpoint lies outside its time support are not kicked,
and each closed stretch is crossed in one exact propagation.  One loop,
solve, integrates every problem: a forcing, a P that does not read u,
solved from zero data gives the forward fundamental solution, and a
response w = u - u_lin is the zero-data solve of a coupling that adds the
free wave u_lin to u itself.

The stepping loop touches only what a kick can read or write (FFT pruning).
It holds one state, u on the dealiased block of the spectrum: every kick
is cut to the block and reads u only through it, so the data's spectrum
outside the block is free flow throughout, propagated exactly from record
to record and written into the records in place, to which the loop adds
the block (zero data skip it).  P is evaluated only on the box, the index
box of the grid holding the gate's spatial support (the whole grid for an
ungated coupling), so a kick maps the block onto the box and back and
never touches the whole grid; a forcing's kick maps back only.  A DFT
with few inputs or outputs kept is cheaper as a direct product than as a
full FFT (Sorensen & Burrus, IEEE Trans. Signal Process. 41, 1993), so
each map is two matrix products, one per axis, with partial DFT matrices
built once per solve (_kick_maps).

Every FFT is numpy.fft (pocketfft), the package's only FFT library: the
data's spectra, their free flow and the records.  The module keeps it
under the name sfft, which the benchmark's tracer replaces by name to
count and time the solver's FFTs; the kick's products make none.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy import fft as sfft

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
    depends on the grid alone and is cached per grid, and the gate vanishes
    identically outside the open time interval ``support``, so a solver can
    skip the source there without changing the solution.
    """

    flat: float
    edge: float

    def __post_init__(self):
        if not 0.0 < self.flat < self.edge:
            raise ValueError("need 0 < flat < edge")

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
        its cached gate).

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
        if not self.t0 < self.t1:
            raise ValueError("need t0 < t1")
        if not 0.0 < self.dt <= (self.t1 - self.t0):
            raise ValueError("dt must be positive and at most the run length")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
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
    """Index of the time in times equal to t up to roundoff; None if none is."""
    i = int(np.argmin(np.abs(times - t)))
    return i if abs(times[i] - t) <= 1e-9 + 1e-9 * abs(t) else None


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
    """The part of a grid's rfft2 spectrum the solver steps, in its layout.

    A spectrum in block layout is the rfft2 spectrum transposed, indexed
    [ky, kx], so the free flow's transforms along x1 run on contiguous data
    and the kick's x1 maps are plain matrix products with it.  The block
    keeps ky columns 0..cols-1 and kx rows 0..nlo-1 (kx >= 0) and
    n-nhi..n-1 (kx < 0), stored side by side: shape (cols, nlo + nhi).
    k is |k| there.
    """

    nlo: int
    nhi: int
    cols: int
    k: np.ndarray


# Every kick is cut to |kx|, |ky| <= DEALIAS times the Nyquist frequency K
# (the 2/3 rule of Orszag, J. Atmos. Sci. 28, 1971).  The square of a field
# on that block then aliases onto no mode strictly inside the cut, its cube
# only from its band above 4K/3 per axis, and the loop holds the block
# alone, 4/9 of the spectrum.
DEALIAS = 2.0 / 3.0


@lru_cache(maxsize=32)
def _block(grid: GridND, fraction: float | None) -> _Block:
    """The dealiased block of grid's spectrum, |kx|, |ky| <= fraction * nyquist;
    the whole spectrum when fraction is None."""
    kx, ky = (a.ravel() for a in _wavenumbers(grid))
    n = kx.size
    if fraction is None:
        keep_x, keep_y = np.ones(n, bool), np.ones(ky.size, bool)
    else:
        gx, gy = grid.axes
        keep_x = np.abs(kx) <= fraction * gx.nyquist
        keep_y = np.abs(ky) <= fraction * gy.nyquist
    # |kx| grows away from index 0 in both halves, so each kept part is a run.
    nlo, nhi = int(keep_x[: n // 2].sum()), int(keep_x[n // 2 :].sum())
    cols = int(keep_y.sum())
    rows = np.r_[0:nlo, n - nhi : n]
    return _Block(nlo, nhi, cols, np.hypot(ky[:cols, None], kx[None, rows]))


def _spectrum(f):
    """rfft2 of the real 2D field f, in block layout, C-contiguous (numpy.fft
    lays its output out like its input, and _propagate views it as floats)."""
    return sfft.fft(np.ascontiguousarray(sfft.rfft(f, axis=-1).T), axis=-1)


def _field(spec, n2: int, out=None):
    """The real field of n2 columns whose rfft2 is spec (block layout, with
    any missing ky columns zero), written into out when given."""
    return sfft.irfft(sfft.ifft(spec, axis=-1).T, n=n2, axis=-1, out=out)


def _free_propagator(k, dt: float):
    """(cos, sinc, ksin) of |k| dt, each value twice in a row: they act on a
    complex spectrum viewed as (real, imaginary) pairs of floats."""
    cos = np.cos(k * dt)
    sinc = dt * np.sinc(k * dt / np.pi)  # sin(k dt)/k with the k=0 limit dt
    ksin = k * np.sin(k * dt)
    return tuple(np.repeat(f, 2, axis=-1) for f in (cos, sinc, ksin))


@lru_cache(maxsize=64)
def _propagator(grid: GridND, fraction: float | None, dt: float):
    """The loop's step and half-step propagators on the block, and the free
    flow's record spacing on the whole spectrum, are reused; a jump across a
    closed stretch of the gate is computed chunk by chunk for that jump and
    never cached."""
    return _free_propagator(_block(grid, fraction).k, dt)


@lru_cache(maxsize=8)
def _gate_box(gate: SourceGate | None, grid: GridND):
    """(box, x1, x2, space): the index box of grid holding the gate's spatial
    support (|x| < edge), its meshes x1[:, None] and x2[None, :], and the
    gate's space factor on it.  For gate None the box is the whole grid and
    space is None."""
    edge = math.inf if gate is None else gate.edge
    nodes = grid.nodes()
    box = tuple(
        slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0)
        for idx in (np.flatnonzero(np.abs(x) < edge) for x in nodes)
    )
    x1, x2 = (x[b] for x, b in zip(nodes, box))
    x1, x2 = x1[:, None], x2[None, :]
    return box, x1, x2, None if gate is None else gate.space_factor(x1, x2)


class _KickMaps(NamedTuple):
    """The partial DFT matrices between a block and a box of one grid, and
    the buffers their products write into; built once per solve.

    to_x1 is exp(2 pi i kx x1 / n1) for the box's x1 rows and the block's
    kx, from_x1 its conjugate.  Along x2 the maps are real and act on a
    complex array viewed as (real, imaginary) pairs of floats: from_x2 is
    the rfft along x2 of the box's x2 columns cut to the block's ky, and
    to_x2 its inverse, which carries the Hermitian weights (1 at ky = 0,
    else 2; the block holds no Nyquist column) and 1 / (n1 n2).
    """

    to_x1: np.ndarray  # (nb1, nlo + nhi) complex
    from_x1: np.ndarray
    to_x2: np.ndarray  # (2 cols, nb2)
    from_x2: np.ndarray  # (nb2, 2 cols)
    lines: np.ndarray  # (nb1, cols) complex: the ky spectra of the box's x1 rows
    u: np.ndarray  # (nb1, nb2): a field on the box
    spec: np.ndarray  # (cols, nlo + nhi) complex: a spectrum in block layout


def _kick_maps(shape, block: _Block, box) -> _KickMaps:
    """The maps between block (its nlo, nhi and cols) and the index box
    (a slice per axis) of a grid of the given shape."""
    (n1, n2), (b1, b2) = shape, box
    kx = np.r_[0 : block.nlo, n1 - block.nhi : n1]
    ky = np.arange(block.cols)
    # Index products are reduced mod n while exact, so every exponent lies
    # in [0, 2 pi) and every entry is as accurate as an FFT twiddle factor.
    to_x1 = np.exp(2j * np.pi / n1 * (np.multiply.outer(np.arange(b1.start, b1.stop), kx) % n1))
    e2 = np.exp(-2j * np.pi / n2 * (np.multiply.outer(np.arange(b2.start, b2.stop), ky) % n2))
    from_x2 = e2.view(float)  # columns (cos, -sin) per ky
    weights = np.repeat(np.where(ky == 0, 1.0, 2.0) / (n1 * n2), 2)
    to_x2 = np.ascontiguousarray((from_x2 * weights).T)
    return _KickMaps(
        to_x1, to_x1.conj(), to_x2, from_x2,
        lines=np.empty((to_x1.shape[0], block.cols), dtype=complex),
        u=np.empty((to_x1.shape[0], from_x2.shape[0])),
        spec=np.empty((block.cols, kx.size), dtype=complex),
    )


def _to_box(maps: _KickMaps, spec) -> np.ndarray:
    """The field on the box whose rfft2 is spec (block layout, zero outside
    the block), in maps.u."""
    np.matmul(maps.to_x1, spec.T, out=maps.lines)
    return np.matmul(maps.lines.view(float), maps.to_x2, out=maps.u)


def _to_block(maps: _KickMaps, f) -> np.ndarray:
    """The rfft2 of the field that is f on the box and zero elsewhere, cut to
    the block, in block layout, in maps.spec."""
    np.matmul(f, maps.from_x2, out=maps.lines.view(float))
    return np.matmul(maps.lines.T, maps.from_x1, out=maps.spec)


def _check_grid(grid: GridND, *fields):
    if grid.ndim != 2:
        raise ValueError("solver grids are 2D")
    for f in fields:
        if f.shape != grid.shape:
            raise ValueError("field shape does not match grid")


# Rows of a spectrum propagated at a time: the operands of a chunk of a
# 512-point grid stay in a core's L2 cache.
_CHUNK_ROWS = 32


def _propagate(uh, vh, grid: GridND, fraction: float | None, dt: float, cached=True):
    """Advance spectra (uh, vh) on the block of grid for fraction, shaped
    (..., cols, nlo + nhi), in place by free flow over dt.  Works a chunk of
    rows at a time, so the operands stay in cache and the scratch stays
    small; an uncached propagator is only ever built one chunk at a time."""
    rows = _CHUNK_ROWS
    k = _block(grid, fraction).k
    full = _propagator(grid, fraction, float(dt)) if cached else None
    uf, vf = uh.view(uh.real.dtype), vh.view(vh.real.dtype)
    a = np.empty(uf.shape[:-2] + (min(rows, uf.shape[-2]),) + uf.shape[-1:], dtype=uf.dtype)
    b = np.empty_like(a)
    for r in range(0, uf.shape[-2], rows):
        c = slice(r, r + rows)
        cos, sinc, ksin = (f[c] for f in full) if cached else _free_propagator(k[c], dt)
        u, v = uf[..., c, :], vf[..., c, :]
        sa, sb = a[..., : u.shape[-2], :], b[..., : u.shape[-2], :]
        np.multiply(sinc, v, out=sa)
        np.multiply(ksin, u, out=sb)
        u *= cos
        u += sa
        v *= cos
        v -= sb


def linear_propagate(u, ut, grid: GridND, dt: float):
    """Exact free evolution over dt; unconditionally stable for any dt."""
    _check_grid(grid, u, ut)
    uh, vh = _spectrum(u), _spectrum(ut)
    _propagate(uh, vh, grid, None, dt)
    return _field(uh, grid.shape[1]), _field(vh, grid.shape[1])


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
    full step between consecutive kicks, one jump across each closed
    stretch.

    The loop holds u on the dealiased block of the rfft2 spectrum alone
    (see _block): at t0 the block holds the data's block part, zero for
    zero data, and every kick is cut to the block and reads u only through
    it.  The rest of the data's spectrum is therefore free flow throughout:
    it is propagated exactly from record to record and written into the
    records, to which the loop adds the block.  P is evaluated on its box,
    the index box of grid holding the gate's spatial support (the whole
    grid without a gate), with the gate's cached space factor.  A kick of a
    P that reads u (a live coefficient of a positive power of u; see
    NonlinearitySpec.__call__) maps the block onto the box (_to_box): a
    complex product along x1 onto the box's x1 rows, then a real one along
    x2 onto its x2 columns.  A P that does not read u, a forcing, skips
    that forward half.  P goes back to the block (_to_block) by a real
    product along x2 onto the block's ky columns and the conjugate x1
    product.  The maps are built for the solve and every product writes
    into a buffer allocated with them (see _KickMaps); one path serves a
    gated box and the whole grid alike.  The t0 record is the data.  A run
    that never kicks (P None, or a gate that never opens) is the free flow
    of the whole spectrum, reached without time steps, and from zero data
    it returns read-only zero records.

    metadata["stats"] records steps, kicks applied and skipped, exact jumps
    (free flows longer than one step), max |P|, dt_margin (dt over the step
    bound h / (DEALIAS pi)), the shapes of the spectral block the loop
    carried and of the box P was evaluated on ((0, 0) each when no step was
    kicked), and wall_s, the wall time in seconds of the loop's kicks,
    propagations and records.
    """
    u0, ut0 = (np.asarray(f, dtype=float) for f in (u0, ut0))
    _check_grid(grid, u0, ut0)
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
    data = bool(u0.any() or ut0.any())
    n1, n2 = grid.shape
    # Zero data that are never kicked stay zero: their records are then one
    # read-only zero, which takes no memory.
    shape = (len(records),) + grid.shape
    if kicks or data:
        us, uts = np.zeros(shape), np.zeros(shape)
    else:
        us = uts = np.broadcast_to(0.0, shape)
    specs = (_spectrum(u0), _spectrum(ut0)) if data else ()

    if kicks:
        block = _block(grid, DEALIAS)
        nlo, nhi, cols, _ = block
        box, x1, x2, space = _gate_box(gate, grid)
        maps = _kick_maps(grid.shape, block, box)
        uh = np.zeros((cols, nlo + nhi), dtype=complex)
        vh = np.zeros_like(uh)
        # The data's block moves into the loop and leaves zeros behind.
        for dst, spec in zip((uh, vh), specs):
            halves = (dst[:, :nlo], spec[:cols, :nlo]), (dst[:, nlo:], spec[:cols, n1 - nhi :])
            for part, src in halves:
                part[...], src[...] = src, 0.0

    if data:
        # The rest of the data's spectrum, free flow at every record.
        us[0], uts[0] = u0, ut0
        for j in range(1, len(records)):
            # One record interval is a one-off jump: its propagator is not cached.
            _propagate(*specs, grid, None, stride * dt, cached=len(records) > 2)
            _field(specs[0], n2, out=us[j])
            _field(specs[1], n2, out=uts[j])

    def kick(t, gain):
        """Kick u_t by dt * P(t, u), with gain the gate's time factor at t;
        returns max |P|."""
        u = _to_box(maps, uh) if reads_u else None
        cut = None if gate is None else gain * space
        with np.errstate(over="ignore", invalid="ignore"):
            p = P(t, x1, x2, u, cutoff_value=cut)
            peak = _abs_max(p)
        if not math.isfinite(peak):
            raise BlowupError(f"nonlinear term overflowed at t = {t:.6g}")
        p *= dt  # P's value is a new array, the kick's own
        np.add(vh, _to_block(maps, p), out=vh)
        return peak

    def record(j):
        """Add the fields of the block into record j, which holds the data's
        free flow; zero data have none, and the fields are written there."""
        for stack, w in ((us, uh), (uts, vh)):
            spec = np.zeros((n2 // 2 + 1, n1), complex)
            spec[:cols, :nlo] = w[:, :nlo]
            spec[:cols, n1 - nhi :] = w[:, nlo:]
            if data:
                stack[j] += _field(spec, n2)
            else:
                _field(spec, n2, out=stack[j])

    pos, jumps, p_max = 0, 0, 0.0
    wall = dict.fromkeys(("kicks", "propagate", "records"), 0.0)
    for event in sorted(kicks + records[1:]) if kicks else []:
        gap = event - pos
        start = time.perf_counter()
        _propagate(uh, vh, grid, DEALIAS, 0.5 * gap * dt, cached=gap <= 2)
        propagated = time.perf_counter()
        wall["propagate"] += propagated - start
        jumps += gap > 2
        pos = event
        if event % 2:
            p_max = max(p_max, kick(mids[event // 2], gains.get(event)))
            phase = "kicks"
        else:
            record(event // (2 * stride))
            phase = "records"
        wall[phase] += time.perf_counter() - propagated

    stats = {
        "steps": n_steps,
        "kicks_applied": len(kicks),
        "kicks_skipped": n_steps - len(kicks),
        "exact_jumps": jumps,
        "max_abs_p": p_max,
        "dt_margin": dt / bound,
        "block": (nlo + nhi, cols) if kicks else (0, 0),
        "box": maps.u.shape if kicks else (0, 0),
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
