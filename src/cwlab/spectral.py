"""Periodic grids, discrete Fourier conventions, windows, slices, and the
log-log decay-exponent estimator.

Conventions
-----------
All transforms use the Riemann-sum normalization

    spectrum(eta_k) = h * sum_j f(s_j) * exp(-i * s_j * eta_k),

with h the grid spacing and eta_k the FFT frequency lattice (integer
multiples of 2*pi/extent).  Spectra therefore approximate the continuum
Fourier transform of the sampled field, and Parseval reads

    h * sum |f|^2 = (delta_eta / (2*pi)) * sum |spectrum|^2.

Grids are centered at zero unless an explicit start is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative amplitude below which a value counts as roundoff debris of the
# largest one: the noise floor of every spectral and amplitude reading.
NOISE_FLOOR = 1e3 * np.finfo(float).eps
_SUPERPOLY_SLOPE = -10.0


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid with a power-of-two number of points."""

    points: int
    extent: float
    start: float | None = None

    def __post_init__(self):
        if not _is_pow2(self.points) or self.points < 4:
            raise ValueError(f"points must be a power of two >= 4, got {self.points}")
        if not self.extent > 0:
            raise ValueError("extent must be positive")
        if self.start is None:
            object.__setattr__(self, "start", -0.5 * self.extent)

    @property
    def spacing(self) -> float:
        return self.extent / self.points

    @property
    def nyquist(self) -> float:
        """Largest resolved angular frequency pi/h."""
        return np.pi / self.spacing

    def nodes(self) -> np.ndarray:
        return self.start + self.spacing * np.arange(self.points)

    def freqs(self) -> np.ndarray:
        """Angular frequencies in FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    def freq_spacing(self) -> float:
        return 2.0 * np.pi / self.extent


@dataclass(frozen=True)
class GridND:
    """Tensor product of 1D periodic grids."""

    axes: tuple[Grid1D, ...]

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(g.points for g in self.axes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod([g.spacing for g in self.axes]))

    def nodes(self) -> list[np.ndarray]:
        return [g.nodes() for g in self.axes]

    def meshes(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.nodes(), indexing="ij"))


def grid3d(points: int, extent: float) -> GridND:
    g = Grid1D(points, extent)
    return GridND((g, g, g))


def dft_forward(samples: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Forward transform, h * sum f(s_j) exp(-i s_j eta_k)."""
    samples = np.asarray(samples)
    if samples.shape[-1] != grid.points:
        raise ValueError("sample count does not match grid")
    phase = np.exp(-1j * grid.start * grid.freqs())
    return grid.spacing * np.fft.fft(samples, axis=-1) * phase


def dft_inverse(spectrum: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Inverse of :func:`dft_forward`; returns complex samples."""
    spectrum = np.asarray(spectrum)
    phase = np.exp(1j * grid.start * grid.freqs())
    return np.fft.ifft(spectrum * phase, axis=-1) / grid.spacing


def dft_forward_nd(samples: np.ndarray, grid: GridND) -> np.ndarray:
    out = np.fft.fftn(np.asarray(samples)) * grid.cell_volume
    for ax, g in enumerate(grid.axes):
        shape = [1] * grid.ndim
        shape[ax] = g.points
        out = out * np.exp(-1j * g.start * g.freqs()).reshape(shape)
    return out


def bump_window(s):
    """Smooth bump exp(1 - 1/(1-s^2)) on |s|<1, zero outside, peak value 1."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out[0] if scalar else out


def _smooth_edge(t):
    """C-infinity step: 0 for t<=0, 1 for t>=1."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    a = np.zeros_like(t)
    pos = t > 0
    a[pos] = np.exp(-1.0 / t[pos])
    b = np.zeros_like(t)
    neg = t < 1
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    out = a / (a + b)
    return out[0] if scalar else out


def plateau_window(s, inner: float, outer: float) -> np.ndarray:
    """Smooth window equal to 1 on |s|<=inner and 0 on |s|>=outer."""
    if not 0 < inner < outer:
        raise ValueError("need 0 < inner < outer")
    return _smooth_edge((outer - np.abs(np.asarray(s, dtype=float))) / (outer - inner))


@dataclass
class DecayFit:
    """Least-squares power-law fit of a spectrum's high-frequency tail."""

    slope: float
    n_bins: int
    band: tuple[float, float]
    flags: frozenset[str] = field(default_factory=frozenset)

    @property
    def superpolynomial(self) -> bool:
        return "superpolynomial" in self.flags


class TooFewBins(ValueError):
    """A decay fit had fewer than min_bins bins to work with.

    noise_floor tells the two causes apart.  It is True when the noise
    floor took the bins: the band held min_bins or more, or every bin it
    held sits at the floor, which is itself a measurement of fast decay.
    It is False when the band is short: it holds fewer than min_bins bins
    and some of them, or none at all, are above the floor.
    """

    def __init__(self, message: str, band: tuple[float, float], noise_floor: bool):
        super().__init__(message)
        self.band = band
        self.noise_floor = noise_floor


def decay_exponent(
    samples: np.ndarray,
    grid: Grid1D,
    band: tuple[float, float] | None = None,
    min_bins: int = 8,
) -> DecayFit:
    """Fit log|spectrum| against log(eta) over a positive-frequency band.

    The default band is [8, nyquist/4].  Bins whose magnitude sits below
    NOISE_FLOOR * max|spectrum| are treated as noise floor and excluded; if
    fewer than ``min_bins`` usable bins remain the fit is rejected with
    TooFewBins, which says whether the band or the noise floor was short.
    """
    spec = dft_forward(np.asarray(samples, dtype=float), grid)
    eta = grid.freqs()
    if band is None:
        band = (8.0, grid.nyquist / 4.0)
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError(f"invalid band {band}")
    if hi > grid.nyquist:
        raise ValueError("band exceeds grid Nyquist frequency")

    amp = np.abs(spec)
    floor = NOISE_FLOOR * amp.max()
    sel = (eta >= lo) & (eta <= hi)
    flags = set()
    usable = sel & (amp > floor)
    n_band, n_usable = int(np.count_nonzero(sel)), int(np.count_nonzero(usable))
    if n_usable < n_band:
        flags.add("noise_floor")
    if n_usable < min_bins:
        short_band = n_band == 0 or (n_band < min_bins and n_usable > 0)
        raise TooFewBins(
            f"only {n_usable} usable of {n_band} bins in band {band}, "
            f"need at least {min_bins}",
            (float(lo), float(hi)),
            noise_floor=not short_band,
        )

    x = np.log(eta[usable])
    y = np.log(amp[usable])
    design = np.column_stack([x, np.ones_like(x)])
    slope = float(np.linalg.lstsq(design, y, rcond=None)[0][0])
    if slope < _SUPERPOLY_SLOPE:
        flags.add("superpolynomial")
    band = (float(lo), float(hi))
    return DecayFit(slope=slope, n_bins=n_usable, band=band, flags=frozenset(flags))


def trig_modes(values: np.ndarray) -> np.ndarray:
    """Coefficients of the trigonometric interpolant of real periodic samples.

    The FFT over every axis divided by the sample count, with the Nyquist
    entries zeroed: fields resolved on the grid lose nothing, and the
    interpolant stays real.
    """
    coef = np.fft.fftn(np.asarray(values, dtype=float)) / np.size(values)
    for axis, n in enumerate(coef.shape):
        nyquist = [slice(None)] * coef.ndim
        nyquist[axis] = n // 2
        coef[tuple(nyquist)] = 0.0
    return coef


def _trig_phases(s, start: float, eta) -> np.ndarray:
    """exp(i (s - start) eta): one row per point s, one column per frequency."""
    phases = 1j * np.outer(np.asarray(s, dtype=float) - start, eta)
    return np.exp(phases, out=phases)  # in place: the table is held once


def evaluate_trig(values: np.ndarray, grid: GridND, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of a real 2D field at points.

    ``points`` has shape (m, 2).  The interpolant is the one of trig_modes,
    summed over the half spectrum of rfft2: the interpolant is real, so each
    interior x2 frequency stands for itself and its conjugate and is counted
    twice, the zero column once (the Nyquist row and column are zero).
    """
    if grid.ndim != 2:
        raise ValueError("trig evaluation implemented for 2D grids")
    g1, g2 = grid.axes
    coef = np.fft.rfft2(np.asarray(values, dtype=float)) / np.size(values)
    coef[g1.points // 2] = 0.0
    coef[:, -1] = 0.0
    coef[:, 1:-1] *= 2.0
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tmp = _trig_phases(pts[:, 0], g1.start, g1.freqs()) @ coef
    eta2 = 2.0 * np.pi * np.fft.rfftfreq(g2.points, d=g2.spacing)
    return np.real(np.einsum("mk,mk->m", tmp, _trig_phases(pts[:, 1], g2.start, eta2)))


def _periodic_cubic_spline(values: np.ndarray, i1, i2) -> np.ndarray:
    """The periodic cubic B-spline interpolant of the 2D array values at
    fractional indices (i1, i2), arrays of one shape, wrapped onto the array.

    The spline's coefficients c solve values = c * [1, 4, 1] / 6 along each
    axis, a circular convolution, so they are values divided in rfft2 space
    by the stencil's symbol (4 + 2 cos(2 pi k / n)) / 6 per axis; each point
    then weights the 4 x 4 coefficients around it by the cubic B-spline.
    """
    n1, n2 = values.shape
    sym1 = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(n1))) / 6.0
    sym2 = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.rfftfreq(n2))) / 6.0
    coef = np.fft.irfft2(np.fft.rfft2(values) / np.outer(sym1, sym2), s=values.shape)
    taps = np.arange(-1, 3).reshape((4,) + (1,) * np.ndim(i1))
    axes = []  # per axis: the 4 weights and wrapped indices around each point
    for i, n in ((i1, n1), (i2, n2)):
        base = np.floor(i)
        f = i - base
        g = 1.0 - f
        mid = (4.0 - 3.0 * f * f * (1.0 + g), 4.0 - 3.0 * g * g * (1.0 + f))
        axes.append((np.stack([g**3, *mid, f**3]) / 6.0, (base.astype(int) + taps) % n))
    (w1, j1), (w2, j2) = axes
    return np.einsum("a...,b...,ab...->...", w1, w2, coef[j1[:, None], j2[None, :]])


@dataclass
class SliceProfile:
    """1D windowed restriction of a field along a ray."""

    grid: Grid1D
    values: np.ndarray
    window: np.ndarray

    @property
    def windowed(self) -> np.ndarray:
        return self.values * self.window


def windowed_slice(
    values: np.ndarray,
    grid: GridND,
    center,
    direction,
    half_length: float,
) -> SliceProfile:
    """Sample a field along ``center + s*direction`` and apply a bump window.

    The slice lives on its own periodic grid of extent 2*half_length, with
    the power of two of points (at least 16) that samples it at least as
    finely as the field's grid; the window vanishes for |s| >= half_length,
    the widest smooth window the segment supports (a narrower window's
    tails, slower to open, cost decades of usable dynamic range in the
    slope fit).
    """
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    center = np.asarray(center, dtype=float)
    if not half_length > 0:
        raise ValueError("half_length must be positive")
    for axis, g in enumerate(grid.axes):
        lo = min(center[axis] - half_length * abs(direction[axis]),
                 center[axis] + half_length * abs(direction[axis]))
        hi = 2.0 * center[axis] - lo
        if lo < g.start - 1e-12 or hi > g.start + g.extent + 1e-12:
            raise ValueError("slice segment exits the sampled domain")
    h_min = min(g.spacing for g in grid.axes)
    points = 1 << max(4, int(np.ceil(np.log2(2.0 * half_length / h_min))))
    sgrid = Grid1D(points, 2.0 * half_length)
    s = sgrid.nodes()
    pts = center[None, :] + s[:, None] * direction[None, :]
    vals = evaluate_trig(values, grid, pts)
    return SliceProfile(sgrid, vals, bump_window(s / half_length))
