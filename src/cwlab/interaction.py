"""Three-wave interaction experiments on the gated semilinear wave model.

Builds superposed plane-wave data, solves for the nonlinear response
w = u - u_lin directly (the source gate confines the cubic term to the
crossing region, and the solver kicks only while the gate is open),
locates the emitted light circle, estimates the transversal decay order
across it, and recovers the cubic coupling from cone amplitudes.  All
probes carry the band and window they were computed with so reported
numbers stay reproducible, and look up only slices the run recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations
from math import gcd

import numpy as np
from scipy import ndimage

from .profiles import SymbolSpec, synthesize_profile
from .solver import (
    BlowupError,
    CharFrame,
    NonlinearitySpec,
    SolverConfig,
    SpaceTimeField,
    WaveState,
    cubic_nonlinearity,
    energy,  # unused here; bench/tracing.py wraps interaction.energy by name
    grid2d,
    solve,
    solve_response,
    _time_index,
    _wavenumbers,
)
from .spectral import (
    NOISE_FLOOR,
    DecayFit,
    Grid1D,
    GridND,
    TooFewBins,
    decay_exponent,
    dft_forward,
    plateau_window,
    trig_line,
    trig_modes,
    windowed_slice,
)

# Directions must lie on rational lattice lines so that plane translates
# stay exact on the periodic box; 90/225/315 degrees is the symmetric
# lattice-compatible choice (one axis wave, two diagonals).
DEFAULT_FRAME = CharFrame(
    (
        (0.0, 1.0),
        (-np.sqrt(0.5), -np.sqrt(0.5)),
        (np.sqrt(0.5), -np.sqrt(0.5)),
    )
)


def _ang_dist(a, b):
    """Absolute angular distance on the circle."""
    return np.abs(np.mod(np.asarray(a) - b + np.pi, 2.0 * np.pi) - np.pi)


def _omega_angle(omega) -> float:
    return float(np.arctan2(omega[1], omega[0]))


# Minimum angular distance a probe keeps from each plane tangency angle:
# inside it the incoming fronts themselves touch the circle and contaminate
# any cone measurement.
PROBE_EXCLUSION = np.deg2rad(20.0)

# Angular half-width of a probe's statistics window on the circle.
# Amplitudes and band energies are local to the probe, not aggregated around
# the whole circle, where the gate-sized response layers riding each front
# would swamp them.
PROBE_ARC = np.deg2rad(15.0)


@dataclass(frozen=True)
class ConeProbe:
    """Radial probe location on the light circle |x| = t_probe.

    The probe keeps PROBE_EXCLUSION from every plane tangency, and its
    statistics window spans PROBE_ARC to each side of its angle.
    """

    t_probe: float
    angle: float

    def __post_init__(self):
        if not self.t_probe > 0:
            raise ValueError("t_probe must be positive")

    @property
    def direction(self) -> np.ndarray:
        """Radial unit vector of the probe point."""
        return np.array([np.cos(self.angle), np.sin(self.angle)])

    def trace_distance(self, frame: CharFrame) -> float:
        """Angular distance to the nearest plane tangency on the circle."""
        return min(float(_ang_dist(self.angle, _omega_angle(w))) for w in frame.omegas)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one interaction run needs: data, coupling, integrator, probes.

    There is at least one probe; the diagnostics read the first.  Every
    probe time must be one the run records, and every probe angle must keep
    PROBE_EXCLUSION from each plane tangency.
    """

    m: float
    eps: float
    frame: CharFrame
    P: NonlinearitySpec | None
    solver: SolverConfig
    grid: GridND
    probes: tuple

    def __post_init__(self):
        if not self.m < -2.5:
            raise ValueError("profile order must satisfy m < -5/2")
        if not self.eps > 0:
            raise ValueError("data amplitude must be positive")
        object.__setattr__(self, "probes", tuple(self.probes))
        if not self.probes:
            raise ValueError("config carries no probe")
        n_steps, stride, dt = self.solver.lattice()
        record_times = self.solver.t0 + np.arange(0, n_steps + 1, stride) * dt
        for probe in self.probes:
            if _time_index(record_times, probe.t_probe) is None:
                raise ValueError(f"probe time {probe.t_probe} is not recorded in the run's window")
            if probe.trace_distance(self.frame) < PROBE_EXCLUSION - 1e-12:
                raise ValueError(
                    "probe angle is closer than the exclusion angle to a plane tangency"
                )


def _integer_direction(omega) -> tuple[int, int]:
    """Smallest integer lattice vector parallel to a unit direction."""
    w = np.asarray(omega, dtype=float)
    for r in range(1, 65):
        v = w * np.sqrt(r)
        n = np.rint(v)
        if np.max(np.abs(v - n)) < 1e-9 and (n[0] != 0 or n[1] != 0):
            p, q = int(n[0]), int(n[1])
            g = gcd(abs(p), abs(q))
            return p // g, q // g
    raise ValueError(f"direction {tuple(w)} is not parallel to a lattice vector")


def _square_axis(grid: GridND) -> Grid1D:
    if grid.ndim != 2 or grid.axes[0] != grid.axes[1]:
        raise ValueError("interaction experiments run on square 2D grids")
    return grid.axes[0]


# Data profiles keep their symbol-law tail but lose the modes below this
# smooth floor (zero below the first number, untouched above the second).
# The bulk would otherwise dominate the interaction: the off-resonance
# response it drives sits orders of magnitude above the circle wave in
# every measurement band, while the circle wave itself is generated by the
# profiles' singular (high-frequency) content and survives the trim.
# Raising the floor further would deepen the two-wave null (the pair
# detuning grows with the floor squared) but starves the resonant channel
# of its small-frequency factors and visibly distorts the cone law.
PROFILE_TRIM = (2.0, 4.0)

# Fixed physical bandwidth of the data profiles.  Tying the cutoff to the
# grid instead would hand each resolution a different continuum problem, so
# a doubling study would compare different experiments.  48 keeps the cubed
# data's alias images (at 2*nyquist - 3*48) above the retained band on a
# 512-point box of extent 13.5, while leaving self-similar headroom above
# the decay-fit band, which must end below about 0.75 * cutoff before the
# finite data bandwidth steepens the apparent law.
DATA_CUTOFF = 48.0

# Default decay-fit band for probing across the circle.  The gate-sized
# smooth annulus riding on the circle dominates the slice spectrum up to
# eta around 14-16 and would bias the fit shallow; the top stays under
# 0.75 * DATA_CUTOFF.  The incoming-front control is read in the same band
# so the order gap subtracts any bias the band choice shares.
CONE_BAND = (16.0, 36.0)

# Fewest usable bins a slice decay fit accepts: a power law fitted to fewer
# is no measurement (see _slice_fit), and front_order_estimate sizes its
# default slice so this many fall in the band.
MIN_BINS = 6


@lru_cache(maxsize=16)
def _unit_waves(frame: CharFrame, m: float, grid: GridND, t0: float):
    """Unit-amplitude translates (u, ut) of each plane wave at t0.

    Each profile lives on its own 1D grid whose extent is the period of
    x . omega on the box, so the wave is exactly periodic; field values
    come from the trigonometric interpolant evaluated at the (integer-
    indexed) distinct values of t0 - x . omega, which keeps translates
    exact to roundoff.
    """
    g = _square_axis(grid)
    n1, n2 = grid.shape
    pieces = []
    for omega in frame.omegas:
        p, q = _integer_direction(omega)
        rnorm = float(np.hypot(p, q))
        gprof = Grid1D(g.points, g.extent / rnorm)
        cut = min(gprof.nyquist / 2.0, DATA_CUTOFF)
        prof = synthesize_profile(SymbolSpec(m), gprof, cutoff=cut)
        eta = gprof.freqs()
        coef = trig_modes(prof.values) * (1.0 - plateau_window(eta, *PROFILE_TRIM))
        kmesh = np.add.outer(p * np.arange(n1), q * np.arange(n2))
        base = g.start * (omega[0] + omega[1])
        kk = np.arange(kmesh.min(), kmesh.max() + 1)
        s_line = t0 - base - kk * (g.spacing / rnorm)
        u_line = trig_line(coef, gprof, s_line)
        ut_line = trig_line(1j * eta * coef, gprof, s_line)
        idx = kmesh - kmesh.min()
        pieces.append((u_line[idx], ut_line[idx]))
    return tuple(pieces)


def make_three_wave_data(frame, m, eps, grid, t0):
    """Superpose three plane-wave profiles with per-wave amplitudes at t0.

    Returns (u, ut) with u = sum_j eps_j f_j(t0 - x . omega_j): an exact
    free-wave snapshot, at any t0.  Each profile is cut off at DATA_CUTOFF
    (or half its grid's Nyquist frequency, if lower) and loses its modes
    below PROFILE_TRIM.  Whether the source gate is still closed at t0 is
    the solver's check (solve and solve_response reject a later t0).
    """
    eps = tuple(float(e) for e in np.broadcast_to(eps, (3,)))
    waves = _unit_waves(frame, float(m), grid, float(t0))
    u = np.zeros(grid.shape)
    ut = np.zeros(grid.shape)
    for e, (uw, utw) in zip(eps, waves):
        if e != 0.0:
            u += e * uw
            ut += e * utw
    return u, ut


def _data_for(config: ExperimentConfig, eps):
    """(eps, (u0, ut0)): the per-wave amplitudes (config.eps for each wave
    when eps is None) and the run's data at t0."""
    eps = (config.eps,) * 3 if eps is None else tuple(np.broadcast_to(eps, (3,)))
    return eps, make_three_wave_data(config.frame, config.m, eps, config.grid, config.solver.t0)


def nonlinear_response(config: ExperimentConfig, eps=None) -> SpaceTimeField:
    """The source-driven part w = u - u_lin of the field, in one solve.

    The solver carries the free waves u_lin exactly and integrates w in the
    interaction picture, kicking it by P(u_lin + w) only on steps where the
    source gate is open; the closed stretches before and after the crossing
    are single exact propagations.  This is solve(P) - solve(P=None) up to
    roundoff, without subtracting two O(eps) fields.  P=None gives w = 0.
    The field records its config and per-wave eps, and its arrays are
    read-only: the diagnostics extend a response they are handed instead of
    solving it again, so one field may serve several of them.
    """
    eps, (u0, ut0) = _data_for(config, eps)
    out = solve_response(u0, ut0, config.grid, config.solver, P=config.P)
    out.u.flags.writeable = out.ut.flags.writeable = False
    out.metadata.update(config=config, frame=config.frame, eps=eps, kind="nonlinear_response")
    return out


def linear_field(config: ExperimentConfig, eps=None) -> SpaceTimeField:
    """Free evolution of the same data (the control field for front probes)."""
    eps, (u0, ut0) = _data_for(config, eps)
    out = solve(u0, ut0, config.grid, config.solver, P=None)
    out.metadata.update({"frame": config.frame, "eps": eps, "kind": "linear"})
    return out


def polarization_isolate(resp: SpaceTimeField, *known: SpaceTimeField) -> SpaceTimeField:
    """Inclusion-exclusion over data subsets, keeping only triple products.

    sum over nonempty S of (-1)^(3-|S|) w_S over the nonlinear responses
    w_S: every contribution built from one or two of the waves enters
    through subsets whose signs sum to zero (1 - 2 + 1), so single- and
    pairwise-interaction terms cancel at leading order and the genuinely
    three-wave part stands out.  The free waves never enter the sum.

    resp, a nonlinear_response, is w for the full subset; each other w_S is
    taken from known when one of them records resp's config and the subset's
    per-wave eps, and solved on that config otherwise.
    """
    config, eps = _recorded(resp, "config"), resp.metadata["eps"]
    held = {k.metadata.get("eps"): k for k in (resp, *known) if k.metadata.get("config") == config}
    acc_u, acc_ut = np.zeros_like(resp.u), np.zeros_like(resp.ut)
    for size in (1, 2, 3):
        sign = (-1) ** (3 - size)
        for subset in combinations(range(3), size):
            sub = tuple(eps[j] if j in subset else 0.0 for j in range(3))
            sol = held[sub] if sub in held else nonlinear_response(config, sub)
            acc_u += sign * sol.u
            acc_ut += sign * sol.ut
    meta = {"frame": config.frame, "eps": eps, "kind": "polarization"}
    return SpaceTimeField(resp.grid, resp.times.copy(), acc_u, acc_ut, metadata=meta)


@dataclass(frozen=True)
class ConeCircle:
    """Light circle at one probe time, with plane tangency angles marked."""

    radius: float
    trace_angles: tuple

    def clear_angles(self, n: int, exclusion: float) -> np.ndarray:
        """Sample angles keeping the given distance from every tangency."""
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        keep = np.ones(n, dtype=bool)
        for a in self.trace_angles:
            keep &= _ang_dist(angles, a) >= exclusion
        return angles[keep]


def locate_cone(frame: CharFrame, t_probe: float) -> ConeCircle:
    """Unit-speed light circle emitted from the triple crossing at the origin.

    Each incoming plane is tangent to the circle at the angle of its
    direction vector; those arcs are where front and circle measurements
    overlap and probes should stay away from.
    """
    if not t_probe > 0:
        raise ValueError("t_probe must be positive")
    return ConeCircle(
        float(t_probe), tuple(_omega_angle(w) for w in frame.omegas)
    )


def default_band(grid: GridND) -> tuple[float, float]:
    """Fit band for decay-rate estimates: CONE_BAND, top clipped to half
    the grid nyquist so refined grids fit over identical frequencies."""
    hi = min(CONE_BAND[1], _square_axis(grid).nyquist / 2.0)
    if hi <= CONE_BAND[0]:
        raise ValueError(f"grid too coarse for the fit band {CONE_BAND}: it needs a "
                         f"spacing below pi/{2.0 * CONE_BAND[0]:g}")
    return CONE_BAND[0], hi


def amplitude_band(grid: GridND) -> tuple[float, float]:
    """Statistics band for tube amplitude and energy: (8, nyquist/4).

    Unlike the fit band this one scales with the grid, so amplitude and
    null-energy readings integrate everything the grid resolves above the
    smooth bulk rather than a fixed window.  Decay fits keep default_band:
    comparing slopes across refinements needs a frequency range common to
    both grids.
    """
    lo = 8.0
    hi = _square_axis(grid).nyquist / 4.0
    if hi <= lo:
        raise ValueError(f"grid too coarse for the amplitude band ({lo:g}, nyquist/4): it "
                         f"needs a spacing below pi/{4.0 * lo:g}")
    return lo, hi


def _radial_filter(values, grid: GridND, gain) -> np.ndarray:
    """A real 2D field with its spectrum multiplied by gain(|k|)."""
    kx, ky = _wavenumbers(grid)
    spec = np.fft.rfft2(np.asarray(values, dtype=float))
    spec *= gain(np.hypot(kx, ky))
    return np.fft.irfft2(spec, s=grid.shape)


def band_pass(values, grid: GridND, band) -> np.ndarray:
    """Smooth radial frequency band-pass of a 2D field."""
    lo, hi = band
    if not 0 < lo < hi:
        raise ValueError(f"invalid band {band}")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return _radial_filter(values, grid, lambda rho: plateau_window(rho - mid, 0.75 * half, half))


def high_pass(values, grid: GridND, lo_in: float, lo_out: float) -> np.ndarray:
    """Remove the low-frequency bulk below lo_in, flat above lo_out.

    Slice windows have oscillating spectral tails; the field's O(1) bulk
    leaking through them would bury a power law several decades down.
    Removing the bulk first leaves the slope band untouched (the mask is
    identically 1 there) and makes windowed slope fits clean.
    """
    if not 0 < lo_in < lo_out:
        raise ValueError("need 0 < lo_in < lo_out")
    return _radial_filter(values, grid, lambda rho: 1.0 - plateau_window(rho, lo_in, lo_out))


def _without_bulk(state: WaveState, band) -> np.ndarray:
    """state.u less its smooth bulk: zero below 0.375 * band[0], untouched
    from 0.75 * band[0] up, so the fit band passes unchanged."""
    lo = band[0]
    return high_pass(state.u, state.grid, 0.375 * lo, 0.75 * lo)


def _recorded(fld: SpaceTimeField, key: str):
    """fld.metadata[key], which the diagnostics need the field to carry."""
    value = fld.metadata.get(key)
    if value is None:
        raise ValueError(f"no {key} recorded with the field")
    return value


@lru_cache(maxsize=8)
def _tube_mask(grid: GridND, t: float, probe: ConeProbe, frame: CharFrame) -> np.ndarray:
    """The tube cone_amplitude describes, on grid at time t (read-only)."""
    x1, x2 = grid.meshes()
    theta = np.arctan2(x2, x1)
    mask = np.abs(np.hypot(x1, x2) - t) <= 4.0 * _square_axis(grid).spacing
    mask &= _ang_dist(theta, probe.angle) <= PROBE_ARC
    for w in frame.omegas:
        mask &= _ang_dist(theta, _omega_angle(w)) >= PROBE_EXCLUSION
    if not np.any(mask):
        raise ValueError("probe tube contains no grid points")
    mask.flags.writeable = False
    return mask


def _tube(fld: SpaceTimeField, probe: ConeProbe):
    """(field band-passed to amplitude_band, tube mask) on the slice at the
    probe time."""
    state = fld.state_at(probe.t_probe)
    mask = _tube_mask(fld.grid, float(state.t), probe, _recorded(fld, "frame"))
    return band_pass(state.u, fld.grid, amplitude_band(fld.grid)), mask


def crossing_angle(frame: CharFrame, i: int, j: int) -> float:
    """Direction along which the crossing point of fronts i and j travels."""
    a = np.array([frame.omegas[i], frame.omegas[j]], dtype=float)
    x = np.linalg.solve(a, np.ones(2))
    return float(np.arctan2(x[1], x[0]))


def two_wave_probe(frame: CharFrame, probe: ConeProbe):
    """Pair choice and probe placement for the two-wave null check.

    Each pair's crossing point moves faster than the wave speed, so its
    wake grazes the circle on the whole arc between the pair's two
    tangencies, centered on the crossing direction; the response layers
    riding the pair's fronts contaminate a wide shoulder around each
    tangency as well.  Measuring at the antipode of the crossing direction
    of the pair whose crossing lies farthest from the probe puts the null
    statistic as far from all of that as the geometry allows.
    """
    best, best_dist = None, -1.0
    for i in range(3):
        for j in range(i + 1, 3):
            d = _ang_dist(crossing_angle(frame, i, j), probe.angle)
            if d > best_dist:
                best, best_dist = (i, j), d
    null_angle = crossing_angle(frame, *best) + np.pi
    return best, replace(probe, angle=float(np.arctan2(np.sin(null_angle), np.cos(null_angle))))


def cone_amplitude(fld: SpaceTimeField, probe: ConeProbe) -> float:
    """Peak band-passed magnitude in the probe's arc tube around the circle.

    The raw response is dominated by its smooth low-frequency bulk; the
    amplitude band keeps the singular part.  The tube is 8h wide, spans
    PROBE_ARC to each side of the probe angle, and drops angles within
    PROBE_EXCLUSION of a plane tangency of the field's frame.
    """
    bp, mask = _tube(fld, probe)
    return float(np.max(np.abs(bp[mask])))


def probe_band_energy(fld: SpaceTimeField, probe: ConeProbe) -> float:
    """Band-passed squared mass in the probe tube (the two-wave null metric)."""
    bp, mask = _tube(fld, probe)
    return float(np.sum(bp[mask] ** 2) * fld.grid.cell_volume)


def _clean_half_length(grid, probe, frame, r0, t_traces):
    """Largest radial slice half-length clear of fronts and box edges.

    Fronts sit at x . omega = t_traces (mod the direction's box period);
    crossings of the slice line x(s) = (r0 + s) * direction are kept out of
    the window with a 10% margin, as is the antipodal cone crossing.
    """
    g = _square_axis(grid)
    half_box = 0.5 * g.extent
    nu = probe.direction
    bound = min(
        (0.98 * half_box) / max(abs(nu[0]), abs(nu[1])) - r0,
        0.30 * g.extent,
    )
    clearances = [1.8 * r0]
    for omega in frame.omegas:
        p, q = _integer_direction(omega)
        period = g.extent / float(np.hypot(p, q))
        c = float(nu[0] * omega[0] + nu[1] * omega[1])
        if abs(c) < 1e-12:
            continue
        span = abs(bound) + r0 + period
        kmax = int(np.ceil(span / period)) + 1
        for k in range(-kmax, kmax + 1):
            s = (t_traces + k * period) / c - r0
            if abs(s) > 1e-9:
                clearances.append(0.9 * abs(s))
    ell = min(bound, min(clearances))
    if ell < 10.0 * g.spacing:
        raise ValueError("probe geometry leaves no room for a slice window")
    return ell


def _under_window_leakage(profile, band) -> bool:
    """Whether every bin in band lies within what the window leaks into it.

    Bin k of a windowed slice can receive up to
    sum_j |S(eta_j)| |W(eta_k - eta_j)| / |W(0)| from the slice content S
    below the band, with W the window's spectrum.  A band whose bins all sit
    under that bound shows nothing the window resolves.
    """
    g = profile.grid
    eta = g.freqs()
    spec = np.abs(dft_forward(profile.windowed, g))
    win = np.abs(dft_forward(profile.window, g))
    below = np.flatnonzero(np.abs(eta) < band[0])
    inside = np.flatnonzero((eta >= band[0]) & (eta <= band[1]))
    leak = win[(inside[:, None] - below[None, :]) % g.points] @ spec[below] / win[0]
    return inside.size > 0 and bool(np.all(spec[inside] <= leak))


def _slice_fit(profile, band) -> DecayFit:
    """Power-law fit of a windowed slice, flagging fits the data cannot support.

    A fit left with too few bins reads superpolynomial (slope -inf) only when
    the band shows nothing above the instrument's floor: the bins sit at the
    roundoff floor, or, in a band too short to fit, every bin lies within
    the window's leakage of the content below the band.  Otherwise too few
    bins is no measurement (slope NaN, flagged insufficient_bins).
    """
    try:
        return decay_exponent(profile.windowed, profile.grid, band=band, min_bins=MIN_BINS)
    except TooFewBins as err:
        if err.noise_floor or _under_window_leakage(profile, err.band):
            # Decay beat the instrument, which is itself evidence that
            # nothing of finite order crossed the window.
            slope, flags = -np.inf, {"superpolynomial", "noise_floor", "inconclusive"}
        else:
            slope, flags = np.nan, {"insufficient_bins", "inconclusive"}
        return DecayFit(
            slope=slope,
            intercept=np.nan,
            rms_residual=np.nan,
            n_bins=0,
            band=err.band,
            flags=frozenset(flags),
        )


def cone_order_estimate(
    fld: SpaceTimeField, probe: ConeProbe, half_length=None, center_radius=None
) -> DecayFit:
    """Transversal decay slope across the cone at one probe angle.

    Takes a windowed radial slice through the probe point (the smooth bulk
    below the fit band, default_band of the grid, removed first) and fits
    the log-log decay of its DFT.  Exactly one conormal crossing sits
    inside the window (fronts of the field's frame and the antipodal
    crossing are kept out by the half-length choice), so the fitted slope
    reads off the transversal symbol order of the circle wave directly; no
    curvature correction is needed in this representation.  center_radius
    moves the window off the circle, e.g. onto a smooth region as a
    control.
    """
    state = fld.state_at(probe.t_probe)
    r0 = float(state.t) if center_radius is None else float(center_radius)
    if half_length is None:
        half_length = _clean_half_length(fld.grid, probe, _recorded(fld, "frame"), r0, state.t)
    band = default_band(fld.grid)
    sl = windowed_slice(
        _without_bulk(state, band),
        fld.grid,
        center=r0 * probe.direction,
        direction=probe.direction,
        half_length=half_length,
    )
    return _slice_fit(sl, band)


def front_order_estimate(fld: SpaceTimeField, omega, t=None, half_length=None) -> DecayFit:
    """Decay slope across one plane front (the incoming-wave control).

    Slices along omega through the front line {x . omega = t} at its point
    t * omega and fits in the band default_band of the grid.  The slice's
    bins sit pi / half_length apart; the default half_length is the
    shortest one of at least 1.2 whose spacing puts MIN_BINS bins in the
    band wherever the bins fall, so a bin never has to sit on the band's
    edge to make up the count.
    """
    t = float(fld.times[-1]) if t is None else float(t)
    state = fld.state_at(t)
    w = np.asarray(omega, dtype=float)
    w = w / np.hypot(*w)
    band = default_band(fld.grid)
    if half_length is None:
        half_length = max(1.2, MIN_BINS * np.pi / (band[1] - band[0]))
    sl = windowed_slice(
        _without_bulk(state, band), fld.grid, center=state.t * w, direction=w,
        half_length=half_length,
    )
    return _slice_fit(sl, band)


# The ridge is sampled on RIDGE_ANGLES rays, and each ray's peak is sought
# within RIDGE_SPAN times t.  Rays within RIDGE_EXCLUSION of a plane tangency
# are skipped: a front crosses a ray at radius t / cos(angle to its tangency),
# under 1.1 t there, so the front's response layer would compete with the
# circle for the ray's peak.  The median over the other rays absorbs the rest.
RIDGE_ANGLES = 64
RIDGE_EXCLUSION = np.deg2rad(25.0)
RIDGE_SPAN = (0.4, 1.6)


def ridge_radius(fld: SpaceTimeField, t: float) -> float:
    """Median radius of the high-passed intensity ridge on one time slice.

    RIDGE_ANGLES radial rays clear of the tangencies of the field's frame
    sample |high-pass u| by cubic interpolation; each ray reports the radius
    of its peak inside RIDGE_SPAN * t and the median over rays is returned.
    High-passing keeps all resolved frequencies above the bulk, so the peak
    tightens onto the layer as the grid refines instead of sitting a fixed
    fraction of a band wavelength off it.
    """
    state = fld.state_at(t)
    grid = fld.grid
    g = _square_axis(grid)
    bp = np.abs(_without_bulk(state, default_band(grid)))
    cone = locate_cone(_recorded(fld, "frame"), state.t)
    angles = cone.clear_angles(RIDGE_ANGLES, RIDGE_EXCLUSION)
    lo, hi = RIDGE_SPAN
    n_r = max(16, int(np.ceil((hi - lo) * state.t / (0.25 * g.spacing))))
    radii = np.linspace(lo * state.t, hi * state.t, n_r)
    x1 = np.outer(np.cos(angles), radii)
    x2 = np.outer(np.sin(angles), radii)
    i1 = (x1 - g.start) / g.spacing
    i2 = (x2 - g.start) / g.spacing
    vals = ndimage.map_coordinates(bp, [i1, i2], order=3, mode="grid-wrap")
    best = radii[np.argmax(vals, axis=1)]
    return float(np.median(best))


@dataclass(frozen=True)
class EpsScaling:
    """Result of the amplitude-vs-data-strength regression."""

    exponent: float
    eps: tuple
    amplitudes: tuple
    dropped: tuple
    band: tuple


def amplitude_scaling(resp: SpaceTimeField, factors) -> EpsScaling:
    """Log-log regression of cone amplitude against data strength.

    Each rung scales the data of resp, a nonlinear_response, by one of
    factors: factor 1 is resp itself, the others are solved on its config.
    A rung's data strength is its largest per-wave eps.  Amplitudes are read
    at the config's first probe.  Needs at least three factors spanning a
    factor of 4.  Runs that blow up are dropped (recorded in ``dropped``);
    amplitudes at the noise floor are dropped too, and the regression is
    refused outright if nothing measurable is left.
    """
    factors = sorted(float(f) for f in factors)
    if len(factors) < 3:
        raise ValueError("need at least three data strengths")
    if factors[-1] < 4.0 * factors[0]:
        raise ValueError("data strengths must span at least a factor of 4")
    config, eps = _recorded(resp, "config"), resp.metadata["eps"]
    probe = config.probes[0]
    used, amps, dropped = [], [], []
    for f in factors:
        strength = f * max(eps)
        try:
            rung = resp if f == 1.0 else nonlinear_response(config, tuple(f * e for e in eps))
        except BlowupError:
            dropped.append(strength)
            continue
        amps.append(cone_amplitude(rung, probe))
        used.append(strength)
    amps = np.asarray(amps)
    if amps.size == 0 or np.max(amps) <= 0.0:
        raise ValueError("cone amplitudes sit at the noise floor; nothing to fit")
    alive = amps > NOISE_FLOOR * np.max(amps)
    dropped.extend(e for e, ok in zip(used, alive) if not ok)
    if np.count_nonzero(alive) < 3:
        raise ValueError("fewer than three amplitudes above the noise floor")
    x = np.log(np.asarray(used)[alive])
    y = np.log(amps[alive])
    exponent = float(np.polyfit(x, y, 1)[0])
    return EpsScaling(
        exponent=exponent,
        eps=tuple(np.asarray(used)[alive]),
        amplitudes=tuple(amps[alive]),
        dropped=tuple(dropped),
        band=amplitude_band(config.grid),
    )


@dataclass(frozen=True)
class CoeffEstimate:
    """Cone-amplitude ratio and signed overlap against the baseline run."""

    c_hat: float
    correlation: float
    band: tuple


def coefficient_recovery(resp: SpaceTimeField, trials):
    """Cone-amplitude ratios of trial couplings against a baseline response.

    resp, a nonlinear_response, is the baseline.  Each trial is a coupling
    (a NonlinearitySpec) run on the baseline's config and data.  Amplitudes
    are read at the config's first probe.  The ratio estimates the trial's
    cubic coefficient relative to the baseline's, the common propagation
    factor cancelling; the signed correlation over the probe tube
    distinguishes a flipped coefficient from a rescaled one.  A baseline
    amplitude at the noise floor is rejected.
    """
    config, eps = _recorded(resp, "config"), resp.metadata["eps"]
    probe = config.probes[0]
    band = amplitude_band(config.grid)
    bp0, mask = _tube(resp, probe)
    a = bp0[mask]
    amp0 = float(np.max(np.abs(a)))
    if amp0 <= NOISE_FLOOR * float(np.max(np.abs(bp0))):
        raise ValueError("baseline cone amplitude is at the noise floor")
    out = []
    for trial in trials:
        bp, _ = _tube(nonlinear_response(replace(config, P=trial), eps), probe)
        b = bp[mask]
        amp = float(np.max(np.abs(b)))
        denom = np.sqrt(np.sum(a**2) * np.sum(b**2))
        corr = float(np.sum(a * b) / denom) if denom != 0.0 else 0.0
        out.append(CoeffEstimate(c_hat=amp / amp0, correlation=corr, band=band))
    return out


@dataclass
class ExperimentReport:
    """Summary numbers of one interaction experiment, with their windows."""

    cone_fit: DecayFit
    incoming_fit: DecayFit
    cone_amplitude: float
    eps_exponent: float | None
    coeff_estimates: list
    null_energies: dict
    band: tuple
    probe: ConeProbe
    notes: dict = field(default_factory=dict)


def default_experiment(points=512) -> ExperimentConfig:
    """Standard configuration on a points^2 grid: symmetric frame, gated
    cubic coupling; change anything else with dataclasses.replace.

    Profiles of order m = -2.6 on a box of extent 13.5, run from t0 = -1.125
    (the gate is still closed) to t1 = 3.8 with dt = 0.9 h / pi, recording
    only the two end slices.  The probe at t1 and 157.5 degrees sits 67.5
    degrees from the nearest plane tangency, and the late probe time
    matters: the circle wave accumulates through the resonance while the
    smooth forced response does not, so the contrast between them grows with
    propagation distance.  At t1 = 3.8 on this box the fronts cross the probe
    ray far outside the slice window and wrap around influence has not
    arrived.  eps = 0.05 keeps the run firmly in the weak regime (the
    response stays far below the data).  At 512 points the run takes about
    650 steps.
    """
    grid = grid2d(points, 13.5)
    h = grid.axes[0].spacing
    t1 = 3.8
    solver = SolverConfig(dt=0.9 * h / np.pi, t0=-1.125, t1=t1, record_stride=1_000_000_000)
    return ExperimentConfig(
        m=-2.6,
        eps=0.05,
        frame=DEFAULT_FRAME,
        P=cubic_nonlinearity(1.0),
        solver=solver,
        grid=grid,
        probes=(ConeProbe(t_probe=t1, angle=np.deg2rad(157.5)),),
    )


def run_experiment(
    config: ExperimentConfig,
    eps_factors=(0.25, 0.5, 1.0),
    trials=(),
    polarization=False,
    two_wave_check=True,
) -> ExperimentReport:
    """Full pipeline: nulls, cone slope and amplitude, scaling, recovery.

    The cone slope is read from the plain nonlinear response, solved
    directly in the interaction picture once: the scaling, recovery and
    polarization controls extend that response, and the polarization takes
    the two-wave field from the null check, so no input is solved twice.
    polarization=True adds the seven-subset isolated trilinear field's
    slope to the notes as a cross-check.  Removing the pair and self
    content reshapes the slice spectrum (the result is insensitive to the
    step size), so the polarized slope is an independent reading with its
    own scatter, not the plain slope minus noise; expect it to sit
    shallower at a single probe angle.
    """
    probe = config.probes[0]

    resp = nonlinear_response(config)
    cone_fit = cone_order_estimate(resp, probe)
    incoming_fit = front_order_estimate(
        linear_field(config), config.frame.omegas[0], t=config.solver.t0
    )
    amp = cone_amplitude(resp, probe)

    nulls = {"p_zero_peak": float(np.max(np.abs(nonlinear_response(replace(config, P=None)).u)))}
    known = ()
    if two_wave_check:
        pair, null_probe = two_wave_probe(config.frame, probe)
        eps_two = tuple(config.eps if k in pair else 0.0 for k in range(3))
        two = nonlinear_response(config, eps=eps_two)
        e_two = probe_band_energy(two, null_probe)
        e_three = probe_band_energy(resp, null_probe)
        nulls["two_wave_pair"] = pair
        nulls["two_wave_angle"] = null_probe.angle
        nulls["two_wave_energy"] = e_two
        nulls["three_wave_energy"] = e_three
        nulls["two_wave_ratio"] = e_two / e_three if e_three > 0 else np.inf
        known = (two,)

    notes = {}
    if polarization:
        iso = polarization_isolate(resp, *known)
        notes["polarization_slope"] = cone_order_estimate(iso, probe).slope

    eps_exponent = amplitude_scaling(resp, eps_factors).exponent if eps_factors else None
    estimates = coefficient_recovery(resp, trials) if trials else []

    return ExperimentReport(
        cone_fit=cone_fit,
        incoming_fit=incoming_fit,
        cone_amplitude=amp,
        eps_exponent=eps_exponent,
        coeff_estimates=estimates,
        null_energies=nulls,
        band=default_band(config.grid),
        probe=probe,
        notes=notes,
    )
