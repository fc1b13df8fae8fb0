"""Pseudo-spectral solver for u_tt = Lap u + P(y, u) on a periodic 2D box.

Linear propagation is exact per Fourier mode (unitary in the wave energy),
so the only time-discretization error comes from the nonlinear kick, applied
by Strang splitting with 2/3-rule dealiasing of the powers.  The splitting
runs in the interaction picture: the free flow u_lin of the data is carried
exactly, and only w = u - u_lin is kicked, by P(u_lin + w).  P is gated by a
SourceGate, a separable space-time bump whose space factor is cached per
grid; steps whose midpoint lies outside its time support are not kicked,
and each closed stretch is crossed in one exact propagation.  The stepping
loop computes w alone: solve_response returns it, solve adds the exact free
flow of the data at the same record times, and the forced variant with zero
data realizes the forward fundamental solution.

The stepping loop touches only what a kick can read or write (FFT pruning).
Between records it carries u_lin and w on the dealiased block of the
spectrum alone: every kick is cut to the block, so nothing outside it is
ever needed.  P is evaluated only on the box, the index box of the grid
holding the gate's spatial support (the whole grid for an ungated coupling),
so a kick transforms from the block onto the box and back, one axis at a
time, and never over the whole grid.

Every transform is numpy.fft (pocketfft), the package's only FFT library.
The module keeps it under the name sfft, which the benchmark's tracer
replaces by name to count and time the solver's FFTs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy import fft as sfft

from .spectral import Grid1D, GridND, plateau_window

__all__ = [
    "BlowupError",
    "CharFrame",
    "NonlinearitySpec",
    "cubic_nonlinearity",
    "SolverConfig",
    "SourceGate",
    "SpaceTimeField",
    "WaveState",
    "duhamel_apply",
    "energy",
    "grid2d",
    "linear_propagate",
    "solve",
    "solve_response",
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
        return plateau_window(np.abs(np.asarray(t, dtype=float)), self.flat, self.edge)

    def space_factor(self, x1, x2):
        r = np.hypot(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
        return plateau_window(r, self.flat, self.edge)

    def __call__(self, t, x1, x2):
        return self.time_factor(t) * self.space_factor(x1, x2)


# The source gate of the experiments; it vanishes for t < -1 with margin.
z_cutoff = SourceGate(flat=0.4, edge=0.9)


@dataclass(frozen=True)
class NonlinearitySpec:
    """P(y, u) = cutoff(y) * sum_j coeffs[j] * u^j, of degree len(coeffs) - 1.

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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t, x1, x2, u, cutoff_value=None):
        """P at time t for u sampled on the meshes (x1, x2); cutoff_value,
        when given, is the cutoff already evaluated there (the solver passes
        its cached gate)."""
        # Horner's rule, in place after the first product; adding a zero
        # real coefficient changes no value and is skipped.
        top, *rest = reversed(self.coeffs)
        acc = np.multiply(top(t, x1, x2) if callable(top) else top, u)
        for k, a in enumerate(rest):
            if k:
                acc *= u
            if callable(a):
                acc = acc + a(t, x1, x2)
            elif a != 0.0:
                acc += a
        if cutoff_value is None and self.cutoff is not None:
            cutoff_value = self.cutoff(t, x1, x2)
        if cutoff_value is not None:
            acc *= cutoff_value
        return acc


def cubic_nonlinearity(a3=1.0, cutoff=z_cutoff) -> NonlinearitySpec:
    return NonlinearitySpec(coeffs=(0.0, 0.0, 0.0, a3), cutoff=cutoff)


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping window and discretization controls.

    dt is nudged so an integer number of steps lands exactly on t1 (see
    lattice); solve() checks the step bound dt <= h / (DEALIAS pi) of the
    splitting, one radian per step of the fastest mode it carries, and that
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


@lru_cache(maxsize=32)
def _wavenumbers(grid: GridND):
    gx, gy = grid.axes
    kx = 2.0 * np.pi * np.fft.fftfreq(gx.points, d=gx.spacing)
    ky = 2.0 * np.pi * np.fft.rfftfreq(gy.points, d=gy.spacing)
    return kx[:, None], ky[None, :]


class _Block(NamedTuple):
    """The part of a grid's rfft2 spectrum the solver carries, in its layout.

    A spectrum in block layout is the rfft2 spectrum transposed, indexed
    [ky, kx], so transforms along x1 run on contiguous data.  The block keeps
    ky columns 0..cols-1 and kx rows 0..nlo-1 (kx >= 0) and n-nhi..n-1
    (kx < 0), stored side by side: shape (cols, nlo + nhi).  k is |k| there.
    """

    nlo: int
    nhi: int
    cols: int
    k: np.ndarray


# Every kick is cut to |kx|, |ky| <= DEALIAS times the Nyquist frequency K
# (the 2/3 rule of Orszag, J. Atmos. Sci. 28, 1971).  The square of a field
# on that block then aliases onto no mode strictly inside the cut, its cube
# only from its band above 4K/3 per axis, and the loop carries the block
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


def _field(spec, n2: int):
    """The real field of n2 columns whose rfft2 is spec (block layout, with
    any missing ky columns zero)."""
    return sfft.irfft(sfft.ifft(spec, axis=-1).T, n=n2, axis=-1)


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


def _free_flow(u0, ut0, grid: GridND, step: float, count: int, cached=True):
    """The exact free flow of the data (u0, ut0) at count + 1 times step
    apart, the data itself first: one propagation of the whole spectrum
    per interval (see _propagate for cached)."""
    _check_grid(grid, u0, ut0)
    uh, vh = _spectrum(u0), _spectrum(ut0)
    us, uts = [u0], [ut0]
    for _ in range(count):
        _propagate(uh, vh, grid, None, step, cached)
        us.append(_field(uh, grid.shape[1]))
        uts.append(_field(vh, grid.shape[1]))
    return np.asarray(us, dtype=float), np.asarray(uts, dtype=float)


def linear_propagate(u, ut, grid: GridND, dt: float):
    """Exact free evolution over dt; unconditionally stable for any dt."""
    us, uts = _free_flow(u, ut, grid, dt, 1)
    return us[1], uts[1]


def _abs_max(a) -> float:
    """max |a|; not finite exactly when some entry of a is not."""
    return max(float(a.max()), -float(a.min())) if a.size else 0.0


def _nonlinear_source(P: NonlinearitySpec, grid: GridND):
    """(source, support, box): source(t, u) returns (p, max |p|), P at time t
    for u sampled on the index box of grid, raising BlowupError where P
    overflows; P vanishes identically outside the open time interval support.

    The box and its meshes are _gate_box(P.cutoff, grid).  For a SourceGate
    cutoff, support is its time support and P uses its cached space factor
    on the box, so p is zero off the box; an ungated coupling has the whole
    grid as its box and is evaluated at all times.
    """
    gate = P.cutoff
    box, x1, x2, space = _gate_box(gate, grid)
    support = (-math.inf, math.inf) if gate is None else gate.support

    def source(t, u):
        cut = None if gate is None else gate.time_factor(t) * space
        with np.errstate(over="ignore", invalid="ignore"):
            p = P(t, x1, x2, u, cutoff_value=cut)
            peak = _abs_max(p)
        if not math.isfinite(peak):
            raise BlowupError(f"nonlinear term overflowed at t = {t:.6g}")
        return p, peak

    return source, support, box


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


def _run(data, grid, config, source=None, support=(-math.inf, math.inf), box=None):
    """Strang splitting in the interaction picture, kicking only where needed.

    Returns the response w = u - u_lin, where u_lin is the exact free flow
    of data.  source(t, u) returns the source term on the index box of grid
    for u sampled there, and its max modulus; source None never kicks.  Step
    i kicks w by dt * source(t_mid, u_lin + w) at its midpoint t_mid when
    support holds t_mid; elsewhere the source vanishes and the step is free
    flow.  Free flow is exact for any length, so the state is propagated
    once per gap between events (kicks and record times): one full step
    between consecutive kicks, one jump across each closed stretch.

    The loop carries u_lin and w only on the dealiased block of the rfft2
    spectrum (see _block): w starts at zero, every kick is cut to the block,
    and a kick reads u_lin + w only through it, so nothing outside the block
    is ever needed.  A kick scatters the block onto x1 lines, transforms
    along x1, keeps the box's x1 rows and transforms along x2 onto the box
    only; its source, nonzero on the box alone, goes back by a real
    transform of the box rows along x2, cut to the block's ky columns, and a
    transform along x1.  Each record after t0 scatters w from the block; the
    t0 record is the zero response, and so is every record of a run that
    never kicks.
    """
    _check_grid(grid)
    h = min(g.spacing for g in grid.axes)
    n_steps, stride, dt = config.lattice()
    # The method's step bound: at most one radian per step of the fastest axis
    # mode the loop carries, |k| = DEALIAS * pi/h at the block's edge; the
    # free flow of every mode is exact, so the modes beyond it bound nothing.
    bound = h / (DEALIAS * np.pi)
    if dt > bound + 1e-12:
        raise ValueError(f"dt = {dt:.3e} exceeds the step bound {bound:.3e}")

    # Events on the half-step lattice: kick i at 2i + 1, record j at 2j.
    lo, hi = support
    kicks = [] if source is None else [
        2 * i + 1 for i in range(n_steps) if lo < config.t0 + i * dt + 0.5 * dt < hi
    ]
    records = list(range(0, 2 * n_steps + 1, 2 * stride))

    n1, n2 = grid.shape
    u0, ut0 = (np.asarray(f, dtype=float) for f in data)
    _check_grid(grid, u0, ut0)
    # Without a kick w stays zero: its records are then one read-only zero,
    # which takes no memory.
    shape = (len(records),) + grid.shape
    us, uts = (np.zeros(shape), np.zeros(shape)) if kicks else (np.broadcast_to(0.0, shape),) * 2

    if kicks:
        nlo, nhi, cols, _ = _block(grid, DEALIAS)
        b1, b2 = box
        # uh[0], vh[0] hold u_lin, uh[1], vh[1] hold w.
        uh = np.zeros((2, cols, nlo + nhi), dtype=complex)
        vh = np.zeros_like(uh)
        for dst, f in zip((uh, vh), (u0, ut0)):
            spec = _spectrum(f)
            dst[0, :, :nlo] = spec[:cols, :nlo]
            dst[0, :, nlo:] = spec[:cols, n1 - nhi:]
        lines = np.empty((cols, n1), dtype=complex)  # x1 lines of the block's ky
        box_lines = np.empty((b1.stop - b1.start, cols), dtype=complex)
        box_rows = np.zeros((b1.stop - b1.start, n2))  # x2 rows of the box's x1

    def kick(t):
        """Kick w_t by dt * source(t, u_lin + w); returns max |source|."""
        np.add(uh[0, :, :nlo], uh[1, :, :nlo], out=lines[:, :nlo])
        np.add(uh[0, :, nlo:], uh[1, :, nlo:], out=lines[:, n1 - nhi :])
        lines[:, nlo : n1 - nhi] = 0.0
        # The x1 transforms run in place (numpy.fft's out=); the x2 transform
        # reads the box's x1 rows copied contiguous, as numpy.fft runs slower
        # on a strided input and lays its output out like it.
        sfft.ifft(lines, axis=-1, out=lines)
        box_lines[...] = lines[:, b1].T
        p, peak = source(t, sfft.irfft(box_lines, n=n2, axis=-1)[:, b2])
        np.multiply(p, dt, out=box_rows[:, b2])
        lines[:, : b1.start] = 0.0
        lines[:, b1.stop :] = 0.0
        lines[:, b1] = sfft.rfft(box_rows, axis=-1)[:, :cols].T
        sfft.fft(lines, axis=-1, out=lines)
        vh[1, :, :nlo] += lines[:, :nlo]
        vh[1, :, nlo:] += lines[:, n1 - nhi :]
        return peak

    def recorded(w):
        """The field whose spectrum is w, scattered from the block."""
        spec = np.zeros((n2 // 2 + 1, n1), complex)
        spec[:cols, :nlo] = w[:, :nlo]
        spec[:cols, n1 - nhi :] = w[:, nlo:]
        return _field(spec, n2)

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
            p_max = max(p_max, kick(config.t0 + (event // 2) * dt + 0.5 * dt))
            phase = "kicks"
        else:
            j = event // (2 * stride)
            us[j], uts[j] = recorded(uh[1]), recorded(vh[1])
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
        "box": (b1.stop - b1.start, b2.stop - b2.start) if kicks else (0, 0),
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


def solve(u0, ut0, grid: GridND, config: SolverConfig,
          P: NonlinearitySpec | None = None) -> SpaceTimeField:
    """Integrate u_tt = Lap u + P(y, u) from (u0, ut0) at t0 up to t1.

    Records u = u_lin + w: the exact free flow u_lin of the data at the
    record times of the response w (see solve_response), plus w.  With P
    None, u is the free flow alone, reached without time steps.
    """
    out = solve_response(u0, ut0, grid, config, P)
    step, count = out.metadata["record_stride"] * out.metadata["dt"], out.times.size - 1
    # One record interval is a one-off jump: its propagator is not cached.
    u, ut = _free_flow(u0, ut0, grid, step, count, cached=count > 1)
    out.u, out.ut = (u, ut) if P is None else (u + out.u, ut + out.ut)
    return out


def solve_response(u0, ut0, grid: GridND, config: SolverConfig,
                   P: NonlinearitySpec | None = None) -> SpaceTimeField:
    """The nonlinear response w = u - u_lin of the data (u0, ut0) at t0.

    w solves w_tt = Lap w + P(y, u_lin + w) from zero data, with u_lin the
    exact free flow of the data (integrating-factor, or Lawson, form of the
    splitting).  Only steps whose midpoint lies in P's gate support are
    kicked, so a gated P costs a kick only while the gate is open; the
    response is the same as solve(P) - solve(None) without the cancellation
    of the O(eps) free waves.  A run that never kicks (P None, or a gate
    that never opens) returns read-only zero records.  metadata["stats"]
    records steps, kicks applied and skipped, exact jumps (free flows longer
    than one step), max |P|, dt_margin (dt over the step bound
    h / (DEALIAS pi)), the shapes of the spectral block the loop carried and
    of the box P was evaluated on ((0, 0) each when no step was kicked), and
    wall_s, the wall time in seconds of the loop's kicks, propagations and
    records.
    """
    if P is None:
        return _run((u0, ut0), grid, config)
    source, support, box = _nonlinear_source(P, grid)
    if -math.inf < support[0] < config.t0:
        # The data must be a free wave: the gate may not have opened yet.
        raise ValueError(f"source gate is open at t0 = {config.t0}; start at or before {support[0]}")
    return _run((u0, ut0), grid, config, source, support, box)


def duhamel_apply(forcing: Callable, grid: GridND, config: SolverConfig) -> SpaceTimeField:
    """Forward solution operator: zero data driven by forcing(t, X1, X2).

    The response of zero data to the ungated coupling P = forcing, which does
    not depend on u: solve_response realizes
    u(t) = int sin(|k|(t-s))/|k| F^(s) ds per mode through the same splitting
    loop as solve, so both sides of a cross-check share one discretization.
    Every step is kicked, with forcing evaluated on the whole grid.
    """
    zero = np.zeros(grid.shape)
    P = NonlinearitySpec((forcing, 0.0, 0.0, 0.0))
    return solve_response(zero, zero, grid, config, P=P)
