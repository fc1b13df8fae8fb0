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

_NOISE_FLOOR_FACTOR = 1e3 * np.finfo(float).eps
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

    def freq_meshes(self) -> list[np.ndarray]:
        return list(np.meshgrid(*[g.freqs() for g in self.axes], indexing="ij"))


def grid3d(points: int, extent: float, start: float | None = None) -> GridND:
    g = Grid1D(points, extent, start)
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


def dft_inverse_nd(spectrum: np.ndarray, grid: GridND) -> np.ndarray:
    out = np.asarray(spectrum).copy()
    for ax, g in enumerate(grid.axes):
        shape = [1] * grid.ndim
        shape[ax] = g.points
        out = out * np.exp(1j * g.start * g.freqs()).reshape(shape)
    return np.fft.ifftn(out) / grid.cell_volume


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
    intercept: float
    rms_residual: float
    n_bins: int
    band: tuple[float, float]
    flags: frozenset[str] = field(default_factory=frozenset)
    eta: np.ndarray | None = None
    amplitude: np.ndarray | None = None

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
    1e3 * eps * max|spectrum| are treated as noise floor and excluded; if
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
    floor = _NOISE_FLOOR_FACTOR * amp.max()
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
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    if slope < _SUPERPOLY_SLOPE:
        flags.add("superpolynomial")
    return DecayFit(
        slope=slope,
        intercept=intercept,
        rms_residual=rms,
        n_bins=n_usable,
        band=(float(lo), float(hi)),
        flags=frozenset(flags),
        eta=eta[usable].copy(),
        amplitude=amp[usable].copy(),
    )


def evaluate_trig(values: np.ndarray, grid: GridND, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of a real 2D field at points.

    ``points`` has shape (m, 2).  Nyquist rows are zeroed first; fields
    resolved on the grid lose nothing, and the interpolant stays real.
    """
    if grid.ndim != 2:
        raise ValueError("trig evaluation implemented for 2D grids")
    n1, n2 = grid.shape
    coef = np.fft.fft2(np.asarray(values, dtype=float)) / (n1 * n2)
    coef[n1 // 2, :] = 0.0
    coef[:, n2 // 2] = 0.0
    g1, g2 = grid.axes
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ph1 = np.exp(1j * np.outer(pts[:, 0] - g1.start, g1.freqs()))
    ph2 = np.exp(1j * np.outer(pts[:, 1] - g2.start, g2.freqs()))
    tmp = ph1 @ coef
    return np.real(np.einsum("mk,mk->m", tmp, ph2))


@dataclass
class SliceProfile:
    """1D windowed restriction of a field along a ray."""

    grid: Grid1D
    values: np.ndarray
    window: np.ndarray
    center: tuple[float, ...]
    direction: tuple[float, ...]

    @property
    def windowed(self) -> np.ndarray:
        return self.values * self.window


def windowed_slice(
    values: np.ndarray,
    grid: GridND,
    center,
    direction,
    half_length: float,
    window_width: float | None = None,
    points: int | None = None,
) -> SliceProfile:
    """Sample a field along ``center + s*direction`` and apply a bump window.

    The slice lives on its own periodic grid of extent 2*half_length; the
    window vanishes for |s| >= window_width (default: the full half_length,
    the widest smooth window the segment supports; window tails this slow to
    open cost decades of usable dynamic range in the slope fit).
    """
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    center = np.asarray(center, dtype=float)
    if window_width is None:
        window_width = half_length
    if not 0 < window_width <= half_length:
        raise ValueError("need 0 < window_width <= half_length")
    for axis, g in enumerate(grid.axes):
        lo = min(center[axis] - half_length * abs(direction[axis]),
                 center[axis] + half_length * abs(direction[axis]))
        hi = 2.0 * center[axis] - lo
        if lo < g.start - 1e-12 or hi > g.start + g.extent + 1e-12:
            raise ValueError("slice segment exits the sampled domain")
    if points is None:
        h_min = min(g.spacing for g in grid.axes)
        points = 1 << max(4, int(np.ceil(np.log2(2.0 * half_length / h_min))))
    sgrid = Grid1D(points, 2.0 * half_length)
    s = sgrid.nodes()
    pts = center[None, :] + s[:, None] * direction[None, :]
    vals = evaluate_trig(values, grid, pts)
    win = bump_window(s / window_width)
    return SliceProfile(
        grid=sgrid,
        values=vals,
        window=win,
        center=tuple(center),
        direction=tuple(direction),
    )
