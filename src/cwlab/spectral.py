"""Periodic grids, discrete Fourier conventions, windows, slices, and the
log-log decay-exponent estimator.

The module owns two conventions the rest of the package reads rather than
rebuilds: the angular wavenumbers of an rfftn spectrum (_wavenumbers), and
the C-infinity smooth step behind plateau_window, which every filter, gate
and slice window is built from.  The radial filters of 2D fields,
band_pass and high_pass, are built from both.

The decay fit
-------------
decay_exponent fits a power law to a spectrum's bins in a band, leaving
out the bins at the noise floor, and returns a DecayFit for every valid
band.  Its n_bins is always the count of usable bins.  There are three
outcomes:

- at least min_bins usable bins: the least-squares slope, with its
  standard error slope_stderr, flagged noise_floor if the floor took any
  bin of the band, and superpolynomial if the slope falls below
  _SUPERPOLY_SLOPE;
- the noise floor took the bins (the band held min_bins or more, or every
  bin it held sits at the floor): slope -inf, flagged SUPERPOLYNOMIAL;
- the band is short (it holds no bin, or fewer than min_bins with some
  above the floor): slope NaN, flagged INSUFFICIENT_BINS.

The last two fit nothing, so their slope_stderr is NaN.

A band outside (0, nyquist] and non-finite samples are refused with
ValueError.

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
        if not 0 < self.extent < np.inf:
            raise ValueError("extent must be positive and finite")
        if self.start is None:
            object.__setattr__(self, "start", -0.5 * self.extent)
        elif not np.isfinite(self.start):
            raise ValueError("start must be finite")

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
        """The coordinate arrays np.meshgrid(*nodes, indexing="ij") gives,
        one per axis, each of the grid's shape, as read-only broadcast views
        of the 1D nodes: the same values in O(n) memory.  Copy one before
        writing to it."""
        sparse = np.meshgrid(*self.nodes(), indexing="ij", sparse=True)
        return [np.broadcast_to(m, self.shape) for m in sparse]


def grid3d(points: int, extent: float) -> GridND:
    g = Grid1D(points, extent)
    return GridND((g, g, g))


def _wavenumbers(grid: GridND) -> tuple[np.ndarray, ...]:
    """Angular wavenumbers of grid's rfftn spectrum, one array per axis
    shaped to broadcast against it: the FFT layout on the leading axes, the
    half layout of rfft on the last."""
    *lead, g = grid.axes
    return np.ix_(*(a.freqs() for a in lead), 2.0 * np.pi * np.fft.rfftfreq(g.points, g.spacing))


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
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(np.abs(s) < 1.0, np.exp(1.0 - 1.0 / (1.0 - s * s)), 0.0)[()]


def plateau_window(s, inner: float, outer: float) -> np.ndarray:
    """Smooth window equal to 1 on |s|<=inner and 0 on |s|>=outer.

    The C-infinity step a / (a + b) of t = (outer - |s|) / (outer - inner),
    with a = exp(-1/t) for t > 0 and b = exp(-1/(1-t)) for t < 1, each 0
    elsewhere: 0 for t <= 0, 1 for t >= 1.
    """
    if not 0 < inner < outer < np.inf:
        raise ValueError("need finite 0 < inner < outer")
    s = np.asarray(s, dtype=float)
    t = np.abs(s, out=np.empty(s.shape))  # an array even for 0-d s
    np.subtract(outer, t, out=t)
    t /= outer - inner
    # The exps are taken on the ramp alone, 0 < t < 1 (and at NaN, which
    # stays NaN), a thin shell of a filter's bins; elsewhere the step is
    # exactly the 0 or 1 that a / (a + b) takes there.  t becomes the
    # result, so on the 512-point half spectrum the traced peak is 1.4 times
    # the input's size, against 5 times for a and b over the whole array.
    ramp = ~((t <= 0.0) | (t >= 1.0))
    r = t[ramp]
    a, b = np.exp(-1.0 / r), np.exp(-1.0 / (1.0 - r))
    np.greater_equal(t, 1.0, out=t)
    t[ramp] = a / (a + b)
    return t[()]


@dataclass
class DecayFit:
    """Least-squares power-law fit of a spectrum's high-frequency tail;
    slope_stderr is the slope's standard error, NaN when nothing was fitted."""

    slope: float
    n_bins: int
    band: tuple[float, float]
    flags: frozenset[str] = field(default_factory=frozenset)
    slope_stderr: float = np.nan

    @property
    def superpolynomial(self) -> bool:
        return "superpolynomial" in self.flags


# The verdicts of a fit left with fewer than min_bins usable bins: the noise
# floor took the bins (decay beat the instrument), or the band is short.
SUPERPOLYNOMIAL = frozenset({"superpolynomial", "noise_floor", "inconclusive"})
INSUFFICIENT_BINS = frozenset({"insufficient_bins", "inconclusive"})


def decay_exponent(
    samples: np.ndarray,
    grid: Grid1D,
    band: tuple[float, float],
    min_bins: int = 8,
) -> DecayFit:
    """Fit log|spectrum| against log(eta) over the positive-frequency band.

    Returns one of the module docstring's three verdicts, with n_bins the
    usable-bin count; raises ValueError for an invalid band or non-finite
    samples.
    """
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError(f"invalid band {band}")
    if hi > grid.nyquist:
        raise ValueError("band exceeds grid Nyquist frequency")
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise ValueError("decay fit of non-finite samples")
    spec = dft_forward(samples, grid)
    eta = grid.freqs()

    amp = np.abs(spec)
    floor = NOISE_FLOOR * amp.max()
    sel = (eta >= lo) & (eta <= hi)
    usable = sel & (amp > floor)
    n_band, n_usable = int(np.count_nonzero(sel)), int(np.count_nonzero(usable))
    band = (float(lo), float(hi))
    if n_usable < min_bins:
        if n_band == 0 or (n_band < min_bins and n_usable > 0):
            return DecayFit(slope=np.nan, n_bins=n_usable, band=band, flags=INSUFFICIENT_BINS)
        return DecayFit(slope=-np.inf, n_bins=n_usable, band=band, flags=SUPERPOLYNOMIAL)

    x = np.log(eta[usable])
    y = np.log(amp[usable])
    design = np.column_stack([x, np.ones_like(x)])
    (slope, _), rss, *_ = np.linalg.lstsq(design, y, rcond=None)
    # The residual variance over n - 2 degrees of freedom times the slope's
    # entry of (design^T design)^-1, which is 1 / sum (x - mean x)^2; two
    # bins leave no residual to measure.
    sxx = np.sum((x - x.mean()) ** 2)
    stderr = np.sqrt(rss[0] / (n_usable - 2) / sxx) if n_usable > 2 else np.nan
    flags = {"noise_floor"} if n_usable < n_band else set()
    if slope < _SUPERPOLY_SLOPE:
        flags.add("superpolynomial")
    return DecayFit(slope=float(slope), n_bins=n_usable, band=band, flags=frozenset(flags),
                    slope_stderr=float(stderr))


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

    values is the field's rfft2 spectrum on grid, a complex array of shape
    (n1, n2 // 2 + 1); anything else, a real field among them, raises
    ValueError.  ``points`` has shape (m, 2).  The interpolant is the one
    of trig_modes, summed over the half spectrum of rfft2: the interpolant
    is real, so each interior x2 frequency stands for itself and its
    conjugate and is counted twice, the zero column once (the Nyquist row
    and column are zero).
    """
    if grid.ndim != 2:
        raise ValueError("trig evaluation implemented for 2D grids")
    (g1, g2), (eta1, eta2) = grid.axes, _wavenumbers(grid)
    if not np.iscomplexobj(values) or np.shape(values) != (g1.points, g2.points // 2 + 1):
        raise ValueError("trig evaluation takes the field's rfft2 spectrum on the grid")
    coef = values / (g1.points * g2.points)
    coef[g1.points // 2] = 0.0
    coef[:, -1] = 0.0
    coef[:, 1:-1] *= 2.0
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tmp = _trig_phases(pts[:, 0], g1.start, eta1) @ coef
    return np.real(np.einsum("mk,mk->m", tmp, _trig_phases(pts[:, 1], g2.start, eta2)))


def _radial_spectrum(values, grid: GridND, gain) -> np.ndarray:
    """The rfft2 spectrum of a real 2D field times gain(|k|)."""
    spec = np.fft.rfft2(np.asarray(values, dtype=float))
    spec *= gain(np.hypot(*_wavenumbers(grid)))
    return spec


def _band_gain(band):
    """band_pass's gain, a function of |k|: 1 on the band's middle half, 0
    outside the band."""
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError(f"invalid band {band}")
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return lambda rho: plateau_window(rho - mid, 0.75 * half, half)


def band_pass(values, grid: GridND, band) -> np.ndarray:
    """Smooth radial frequency band-pass of a 2D field."""
    return np.fft.irfft2(_radial_spectrum(values, grid, _band_gain(band)), s=grid.shape)


def _high_spectrum(values, grid: GridND, band) -> np.ndarray:
    """The rfft2 spectrum of high_pass(values, grid, band)."""
    lo_in, lo_out = 0.375 * band[0], 0.75 * band[0]
    return _radial_spectrum(values, grid, lambda rho: 1.0 - plateau_window(rho, lo_in, lo_out))


def high_pass(values, grid: GridND, band) -> np.ndarray:
    """Remove the low-frequency bulk below a fit band: zero below
    0.375 * band[0], flat from 0.75 * band[0] up.

    Slice windows have oscillating spectral tails; the field's O(1) bulk
    leaking through them would bury a power law several decades down.
    Removing the bulk first leaves the slope band untouched (the mask is
    identically 1 there) and makes windowed slope fits clean.
    """
    return np.fft.irfft2(_high_spectrum(values, grid, band), s=grid.shape)


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


def _unit(direction) -> np.ndarray:
    """direction scaled to unit length; refused unless finite and nonzero."""
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if not 0 < norm < np.inf:
        raise ValueError(f"direction {tuple(direction)} is not finite and nonzero")
    return direction / norm


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

    values is the field's rfft2 spectrum; anything else raises ValueError
    (see evaluate_trig).
    The slice lives on its own periodic grid of extent 2*half_length, with
    the power of two of points (at least 16) that samples it at least as
    finely as the field's grid; the window vanishes for |s| >= half_length,
    the widest smooth window the segment supports (a narrower window's
    tails, slower to open, cost decades of usable dynamic range in the
    slope fit).
    """
    direction = _unit(direction)
    center = np.asarray(center, dtype=float)
    if not (half_length > 0 and np.all(np.isfinite(center))):
        raise ValueError("a slice needs a finite center and a positive half_length")
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
