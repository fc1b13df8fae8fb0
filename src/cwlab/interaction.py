"""Three-wave interaction experiments on the gated semilinear wave model.

Builds superposed plane-wave data, solves for the nonlinear response
w = u - u_lin directly, as one solver.solve of zero data (the source gate
confines the cubic term to the crossing region, the solver kicks only
while the gate is open, and the free wave u_lin is read under the gate,
never carried), locates the emitted light circle, estimates the
transversal decay order across it, and recovers the cubic coupling from
cone amplitudes.  All probes carry the band and window they were computed
with so reported numbers stay reproducible, and look up only slices the
run recorded.

A plane wave f(t - x . omega) on a lattice direction (p, q) takes one
value per p i + q j mod N over the grid's nodes (i, j).  So each wave at
time t is one line of N values, one FFT of its profile's coefficients,
read on any index box through a strided view.  The data read the waves by
that one rule (_waves) on the whole grid.  Both couplings of the waves, the
response's P(u_lin + w) and the trilinear channel's source
6 a3 eps1 eps2 eps3 v1 v2 v3, are one class (_WaveCoupling): it builds
the waves' lines and views once on P's gate box (_wave_lines), reads them
by the same rule at each kick, and states the coupling's x1-parity by one
rule (_x1_even).  No wave is tabulated or cached on the grid.  Each
response records the function that built it, so the diagnostics that
solve a response again at another eps or P solve it as its own kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd

import numpy as np

from ._kick import _fold, _kick_maps, _to_box
from .profiles import SymbolSpec, synthesize_profile
from .solver import (
    BlowupError,
    DEALIAS,
    CharFrame,
    NonlinearitySpec,
    SolverConfig,
    SpaceTimeField,
    WaveState,
    cubic_nonlinearity,
    energy,  # unused here; bench/tracing.py wraps interaction.energy by name
    grid2d,
    solve,
    _block,
    _gate_box,
    _index_box,
    _live_top,
    _time_index,
)
from .spectral import (
    NOISE_FLOOR,
    SUPERPOLYNOMIAL,
    DecayFit,
    Grid1D,
    GridND,
    band_pass,
    decay_exponent,
    dft_forward,
    high_pass,
    plateau_window,
    trig_modes,
    windowed_slice,
    _band_gain,
    _high_spectrum,
    _periodic_cubic_spline,
    _unit,
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


def _tangency_distance(angles, frame: CharFrame) -> np.ndarray:
    """Angular distance from each angle to the nearest plane tangency: each
    incoming plane touches the light circle at the angle of its direction."""
    return np.min([_ang_dist(angles, _omega_angle(w)) for w in frame.omegas], axis=0)


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
        if not (0 < self.t_probe < np.inf and np.isfinite(self.angle)):
            raise ValueError("a probe needs a finite positive t_probe and a finite angle")

    @property
    def direction(self) -> np.ndarray:
        """Radial unit vector of the probe point."""
        return np.array([np.cos(self.angle), np.sin(self.angle)])


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
        if not -np.inf < self.m < -2.5:
            raise ValueError("profile order must be finite and satisfy m < -5/2")
        if not 0 < self.eps < np.inf:
            raise ValueError("data amplitude must be positive and finite")
        object.__setattr__(self, "probes", tuple(self.probes))
        if not self.probes:
            raise ValueError("config carries no probe")
        record_times = self.solver.record_times()
        for probe in self.probes:
            if _time_index(record_times, probe.t_probe) is None:
                raise ValueError(f"probe time {probe.t_probe} is not recorded in the run's window")
            if _tangency_distance(probe.angle, self.frame) < PROBE_EXCLUSION - 1e-12:
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


def _wave_lines(frame: CharFrame, m: float, grid: GridND, box):
    """(eta, coef, views): the spectra of the three waves' lines, row j of
    each (3, N) array for wave j, and where each line is read on the index
    box of grid.  Whoever reads the waves on a box builds these once and
    hands them to _waves.

    A wave of integer direction (p, q) has its profile on its own 1D grid
    gprof, of the grid's point count, whose extent is the period of
    x . omega on the box, so the wave is exactly periodic; eta is gprof's
    frequencies and coef the trig_modes coefficients of the profile, cut off
    at DATA_CUTOFF (or half gprof's Nyquist frequency, if lower), without
    its modes below PROFILE_TRIM.  The values -x . omega at the grid's nodes
    are gprof's nodes plus one constant shift: node (i, j) sits at
    gprof.start + shift - k h' with k = p i + q j and h' gprof's spacing, so
    coef carries exp(i eta shift) and the wave reads its line at k mod N,
    through the view views[j] (_lattice_geometry).
    """
    g = _square_axis(grid)
    lines = []
    for omega in frame.omegas:
        p, q = _integer_direction(omega)
        gprof = Grid1D(g.points, g.extent / float(np.hypot(p, q)))
        cut = min(gprof.nyquist / 2.0, DATA_CUTOFF)
        prof = synthesize_profile(SymbolSpec(m), gprof, cutoff=cut)
        eta = gprof.freqs()
        coef = trig_modes(prof.values) * (1.0 - plateau_window(eta, *PROFILE_TRIM))
        shift = -g.start * (omega[0] + omega[1]) - gprof.start
        lines.append((eta, coef * np.exp(1j * eta * shift), _lattice_geometry(p, q, g.points, box)))
    eta, coef, views = zip(*lines)
    return np.array(eta), np.array(coef), views


def _lattice_geometry(p: int, q: int, n: int, box):
    """(copies, offset, shape, (p, q)): the view of a line of n values on the
    index box of the grid in which node (i, j) reads line[(p i + q j) mod n],
    a view of that many copies of the line laid end to end (_lattice_view)."""
    rows, cols = box
    corners = [p * i + q * j for i in (rows.start, rows.stop - 1)
               for j in (cols.start, cols.stop - 1)]
    base = min(corners) // n * n  # the view's span[k - base] = line[k mod n]
    return ((max(corners) - base) // n + 1, p * rows.start + q * cols.start - base,
            (rows.stop - rows.start, cols.stop - cols.start), (p, q))


def _lattice_view(line, geometry) -> np.ndarray:
    """line on a box, as a read-only strided view of its copies laid end to
    end; geometry is the box's _lattice_geometry."""
    copies, offset, shape, (p, q) = geometry
    span = np.concatenate((line,) * copies)
    item = span.itemsize
    view = np.ndarray(shape, span.dtype, span, offset=offset * item,
                      strides=(p * item, q * item))
    view.flags.writeable = False
    return view


def _waves(lines, t, eps, order=0, rows=None) -> list:
    """The waves eps_j v_j with nonzero eps_j at time t (their t-derivatives
    for order 1) on the box of lines, the waves' _wave_lines, each a lattice
    view of its line (_lattice_view): entry k of a line is the wave's value
    at the nodes with p i + q j = k mod N.  The lines are one exp and one
    length-N FFT of the stacked coefficients carried to t.  rows, when
    given, keeps the box's last rows alone: an x1-even solve evaluates P on
    the rows of its box at and above the centre (solver.solve)."""
    eta, coef, views = lines
    live = [j for j, e in enumerate(eps) if e != 0.0]
    if len(live) < len(eps):  # with every wave live, no row is copied out
        eta, coef = eta[live], coef[live]
    c = coef * np.exp(1j * eta * t)
    lines = np.real(np.fft.fft(c if order == 0 else 1j * eta * c))
    waves = [_lattice_view(eps[j] * line, views[j]) for j, line in zip(live, lines)]
    return waves if rows is None else [v[len(v) - rows :] for v in waves]


def _mirror_even(frame: CharFrame, eps) -> bool:
    """Whether the waves sum_j eps_j v_j of frame are even under x1 -> -x1
    on a grid centred on x1 = 0: the mirror (p, q) -> (-p, q) of each
    wave's integer direction is a direction of frame, and its wave has the
    same eps.  Node (i, j) of wave (p, q) reads its line at p i + q j and
    the mirrored node (N - i, j) at -p i + q j mod N, where wave (-p, q)
    reads the same profile's line at (i, j)."""
    dirs = [_integer_direction(w) for w in frame.omegas]
    return all((-p, q) in dirs and eps[dirs.index((-p, q))] == e
               for (p, q), e in zip(dirs, eps))


def make_three_wave_data(frame, m, eps, grid, t0):
    """Superpose three plane-wave profiles with per-wave amplitudes at t0.

    Returns (u, ut) with u = sum_j eps_j f_j(t0 - x . omega_j): an exact
    free-wave snapshot, at any t0.  Each profile is cut off at DATA_CUTOFF
    (or half its grid's Nyquist frequency, if lower) and loses its modes
    below PROFILE_TRIM.  Each wave is its line at t0 scaled by its eps,
    laid onto the grid as a lattice view (_waves) and added in: the build
    holds no 2D array but u and ut.  Whether the
    source gate is still closed at t0 is the solver's check (solve
    rejects a later t0).
    """
    eps = tuple(float(e) for e in np.broadcast_to(eps, (3,)))
    lines = _wave_lines(frame, m, grid, tuple(slice(0, n) for n in grid.shape))
    u, ut = np.zeros(grid.shape), np.zeros(grid.shape)
    for out, order in ((u, 0), (ut, 1)):
        for wave in _waves(lines, t0, eps, order):
            out += wave
    return u, ut


@dataclass(frozen=True, kw_only=True)
class _WaveCoupling(NonlinearitySpec):
    """A P of coeffs and cutoff that reads the three-wave data of frame, m
    and per-wave eps on grid: each kick reads the waves eps_j v_j on P's
    box, _gate_box(cutoff, grid) (the whole grid without a gate), by the
    data's rule (_waves), from their lines on that box, built once, with
    the coupling.  P is evaluated by NonlinearitySpec.__call__, looked up at
    call time, so whatever wraps that sees every kick; the repr names every
    field but the lines, which those fields determine, so two problems never
    read alike.

    A coupling is even under x1 -> -x1 (_x1_even) when every coefficient is
    a constant and the frame is closed under the mirror of its integer
    directions, (p, q) -> (-p, q), with equal eps on each mirrored pair
    (_mirror_even): the standard frame with eps1 = eps2 is.  A zero-data
    solve of it on a centred grid with a gate then holds the even half of
    its folded block alone and evaluates P, and reads the waves, on the
    rows of the box at and above its centre, the last of its rows
    (solver.solve).
    """

    frame: CharFrame
    m: float
    grid: GridND
    eps: tuple
    lines: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        box = _gate_box(self.cutoff, self.grid)[0]
        object.__setattr__(self, "lines", _wave_lines(self.frame, self.m, self.grid, box))

    @property
    def _x1_even(self) -> bool:
        return not any(map(callable, self.coeffs)) and _mirror_even(self.frame, self.eps)


class _ShiftedCoupling(_WaveCoupling):
    """P(t, x, u_lin + w), the coupling of the response w to the data: it
    adds the free flow u_lin = sum_j eps_j v_j of the waves to u.  Solved
    from zero data by solve, it gives the data's response, with the loop's
    block holding w alone."""

    def __call__(self, t, x1, x2, u, cutoff_value=None):
        if u is not None:  # P reads u, on the box or on its last rows
            u = sum(_waves(self.lines, t, self.eps, rows=len(u)), u)
        return NonlinearitySpec.__call__(self, t, x1, x2, u, cutoff_value)


class _TripleForcing(_WaveCoupling):
    """The trilinear channel's coupling, a forcing: P's value for coeffs
    (6 eps1 eps2 eps3 a3, 0, 0, 0), a constant, or a callable for a callable
    a3, times the product v1 v2 v3 of the unit waves (eps = (1, 1, 1)), on
    P's box or on the last rows of it that the meshes cover.  It never reads
    u, and it is even in x1 (_x1_even) for a constant a3 on a frame closed
    under the mirror, at any eps of the data."""

    def __call__(self, t, x1, x2, u, cutoff_value=None):
        v1, v2, v3 = _waves(self.lines, t, self.eps, rows=len(x1))
        return NonlinearitySpec.__call__(self, t, x1, x2, None, cutoff_value) * v1 * v2 * v3


def _eps_of(config: ExperimentConfig, eps) -> tuple:
    """Per-wave amplitudes: config.eps for each wave when eps is None."""
    return (config.eps,) * 3 if eps is None else tuple(np.broadcast_to(eps, (3,)))


def _response(config: ExperimentConfig, P, eps, build) -> SpaceTimeField:
    """The solve of zero data under P on config's grid and run, read-only,
    recording the config and per-wave eps it stands for and build, the
    function of (config, eps) that made it, through which the diagnostics
    solve it again at another eps or P.  solve is looked up as this
    module's global at call time, so whatever wraps that sees every
    response."""
    zero = np.broadcast_to(0.0, config.grid.shape)
    out = solve(zero, zero, config.grid, config.solver, P=P)
    out.u.flags.writeable = out.ut.flags.writeable = False
    out.metadata.update(config=config, frame=config.frame, eps=eps, build=build)
    return out


def nonlinear_response(config: ExperimentConfig, eps=None) -> SpaceTimeField:
    """The source-driven part w = u - u_lin of the field, in one solve.

    w is the solve of zero data under P(t, x, u_lin + w), with u_lin the
    free waves of the data: the coupling (_ShiftedCoupling) reads u_lin
    exactly on P's box at each kick by the data's one line rule (_waves),
    so the loop's block holds w alone.  It kicks only on steps where the
    source gate is open; the closed stretches before and after the crossing
    are single exact propagations.  This is solve(P) - solve(P=None) up to
    roundoff, without subtracting two O(eps) fields.  P=None gives w = 0.
    The field records its config, per-wave eps and this function, and its
    arrays are read-only: the diagnostics extend a response they are handed
    instead of solving it again, so one field may serve several of them.
    """
    eps, P = _eps_of(config, eps), config.P
    if P is not None:
        P = _ShiftedCoupling(P.coeffs, P.cutoff, frame=config.frame, m=config.m,
                             grid=config.grid, eps=eps)
    return _response(config, P, eps, nonlinear_response)


def linear_field(config: ExperimentConfig, eps=None) -> SpaceTimeField:
    """Free evolution of the same data, at the run's record times."""
    eps = _eps_of(config, eps)
    u0, ut0 = make_three_wave_data(config.frame, config.m, eps, config.grid, config.solver.t0)
    out = solve(u0, ut0, config.grid, config.solver, P=None)
    out.metadata.update(frame=config.frame, eps=eps)
    return out


def _trilinear_response(config: ExperimentConfig, eps) -> SpaceTimeField:
    """The trilinear channel of the data at per-wave eps under config's P
    (polarization_isolate), recorded as a nonlinear_response is, with this
    function as its build.  P None, or a P with a live coefficient above
    the cubic, raises ValueError; zero coefficients above it, which P
    itself never reads, do not."""
    P = config.P
    if P is None or _live_top(P.coeffs) > 3:
        raise ValueError("the trilinear channel needs a cubic coupling")
    a3, scale = P.coeffs[3], 6.0 * eps[0] * eps[1] * eps[2]
    source = (lambda t, x1, x2: scale * a3(t, x1, x2)) if callable(a3) else scale * a3
    channel = _TripleForcing((source, 0.0, 0.0, 0.0), P.cutoff, frame=config.frame,
                             m=config.m, grid=config.grid, eps=(1.0, 1.0, 1.0))
    return _response(config, channel, eps, _trilinear_response)


def polarization_isolate(resp: SpaceTimeField) -> SpaceTimeField:
    """The trilinear channel of resp, a nonlinear_response of a cubic P.

    This is the first-Picard eps1 eps2 eps3 term of the response: the
    forward solution, from zero data, of the source
    6 a3 eps1 eps2 eps3 v1 v2 v3 under P's gate, with v_j the unit free
    waves.  It is one solve of zero data whose coupling (_TripleForcing)
    is that source alone: the same class of coupling as the response's,
    so it reads the waves by the data's rule from lines built once on P's
    box, has P's box and kick skipping and states its x1-parity by the one
    rule (_WaveCoupling); as the source does not read u, each kick
    transforms only the source.  A callable a3 is evaluated in the source,
    and a3 = 0 gives exactly zero.  With a constant a3 and a frame closed
    under the mirror x1 -> -x1 of its directions, as the standard frame
    is, the source is even in x1 at any eps, and the solve holds the even
    half of its folded block alone (solver.solve).
    It carries no single- or pairwise-interaction term, the part that rides
    the incoming fronts.

    The inclusion-exclusion sum of the seven data-subset responses,
    sum over nonempty S of (-1)^(3-|S|) w_S, has the same leading term plus
    the higher Picard iterates of the triple products (and, for a P with
    terms below the cubic, their iterated products of all three waves): on
    the default 256-point run the two differ at t1 by 3.8e-5 of the maximum
    in u and 3.5e-5 in u_t, and the gap falls as eps^2 (4.00 times smaller
    at eps/2).

    The field records resp's config, frame and eps, and its build, so
    amplitude_scaling and coefficient_recovery re-solve it as a channel;
    metadata["stats"] is the solve's.  P None, or a P with a live
    coefficient above the cubic, raises ValueError; zero coefficients above
    it, which P itself never reads, do not.
    """
    return _trilinear_response(_recorded(resp, "config"), resp.metadata["eps"])


def _band(grid: GridND, lo: float, top: float, share: float) -> tuple[float, float]:
    """(lo, min(top, share * nyquist)) on the square grid; refused when empty."""
    hi = min(top, share * _square_axis(grid).nyquist)
    if hi <= lo:
        raise ValueError(f"grid too coarse for the band ({lo:g}, {hi:g}): it needs a "
                         f"spacing below pi/{lo / share:g}")
    return lo, hi


def default_band(grid: GridND) -> tuple[float, float]:
    """Fit band for decay-rate estimates: CONE_BAND, top clipped to half
    the grid nyquist so refined grids fit over identical frequencies."""
    return _band(grid, *CONE_BAND, 0.5)


def amplitude_band(grid: GridND) -> tuple[float, float]:
    """Statistics band for tube amplitude and energy: (8, nyquist/4).

    Unlike the fit band this one scales with the grid, so amplitude and
    null-energy readings integrate everything the grid resolves above the
    smooth bulk rather than a fixed window.  Decay fits keep default_band:
    comparing slopes across refinements needs a frequency range common to
    both grids.
    """
    return _band(grid, 8.0, np.inf, 0.25)


def _recorded(fld: SpaceTimeField, key: str):
    """fld.metadata[key], which the diagnostics need the field to carry."""
    value = fld.metadata.get(key)
    if value is None:
        raise ValueError(f"no {key} recorded with the field")
    return value


def _tube_mask(grid: GridND, t: float, probe: ConeProbe, frame: CharFrame):
    """(box, mask): the tube cone_amplitude describes, on grid at time t, as
    a mask on its index box.

    The tube lies in the annular sector |r - t| <= 4h, angle within
    PROBE_ARC of the probe, so its box is the index box of that sector,
    padded by two nodes.
    """
    h = _square_axis(grid).spacing
    radii = np.array([max(t - 4.0 * h, 0.0), t + 4.0 * h])
    # r cos and r sin reach their extremes over the sector at its radii and
    # at the arc's ends or the axis directions inside it.
    lo, hi = probe.angle - PROBE_ARC, probe.angle + PROBE_ARC
    quarters = 0.5 * np.pi * np.arange(np.ceil(lo / (0.5 * np.pi)), np.floor(hi / (0.5 * np.pi)) + 1)
    angles = np.r_[lo, hi, quarters]
    ends = np.outer(radii, np.cos(angles)), np.outer(radii, np.sin(angles))
    nodes = grid.nodes()
    box, x1, x2 = _index_box(nodes, ((x >= e.min() - 2.0 * h) & (x <= e.max() + 2.0 * h)
                                     for x, e in zip(nodes, ends)))
    theta = np.arctan2(x2, x1)
    tube = np.abs(np.hypot(x1, x2) - t) <= 4.0 * h
    tube &= _ang_dist(theta, probe.angle) <= PROBE_ARC
    tube &= _tangency_distance(theta, frame) >= PROBE_EXCLUSION
    if not np.any(tube):
        raise ValueError("probe tube contains no grid points")
    return box, tube


def _tube(fld: SpaceTimeField, probe: ConeProbe):
    """(u band-passed to amplitude_band on the tube's box, tube mask on that
    box) on the slice at the probe time.

    The band's gain vanishes from |k| = band[1] up, so only the block
    |kx|, |ky| <= band[1] of the slice's spectrum is band-passed and mapped
    onto the box, by the kick's maps (cwlab._kick): no grid-sized field is
    built.
    """
    state, grid = fld.state_at(probe.t_probe), fld.grid
    box, mask = _tube_mask(grid, float(state.t), probe, _recorded(fld, "frame"))
    band = amplitude_band(grid)
    block = _block(grid, band[1])
    maps = _kick_maps(grid.shape, block, box)
    folded = _fold(maps, np.fft.rfft2(state.u))
    folded *= _band_gain(band)(block.k)
    return _to_box(maps, folded), mask


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


def _slice_fit(state: WaveState, center, direction, half_length) -> DecayFit:
    """decay_exponent's fit of state's windowed slice in default_band of the
    grid, the smooth bulk below the band removed first.

    The slice runs through center along direction, half_length either side.
    A band too short to fit whose every bin lies within the window's leakage
    of the content below it shows nothing above the instrument's floor, so
    it reads superpolynomial, not insufficient_bins.
    """
    band = default_band(state.grid)
    # the high-passed spectrum is sampled as it stands, with no field between
    profile = windowed_slice(_high_spectrum(state.u, state.grid, band), state.grid,
                             center=center, direction=direction, half_length=half_length)
    fit = decay_exponent(profile.windowed, profile.grid, band=band, min_bins=MIN_BINS)
    if "insufficient_bins" in fit.flags and _under_window_leakage(profile, fit.band):
        return replace(fit, slope=-np.inf, flags=SUPERPOLYNOMIAL)
    return fit


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
    return _slice_fit(state, r0 * probe.direction, probe.direction, half_length)


def front_order_estimate(fld: SpaceTimeField, omega, t, half_length=None) -> DecayFit:
    """Decay slope across one plane front (the incoming-wave control).

    Slices along omega through the front line {x . omega = t} at its point
    t * omega and fits in the band default_band of the grid.  The slice's
    bins sit pi / half_length apart; the default half_length is the
    shortest one of at least 1.2 whose spacing puts MIN_BINS bins in the
    band wherever the bins fall, so a bin never has to sit on the band's
    edge to make up the count.
    """
    w = _unit(omega)
    state = fld.state_at(t)
    if half_length is None:
        lo, hi = default_band(fld.grid)
        half_length = max(1.2, MIN_BINS * np.pi / (hi - lo))
    return _slice_fit(state, state.t * w, w, half_length)


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
    sample |high-pass u| by its periodic cubic B-spline interpolant, knotted
    at the grid's nodes; each ray reports the radius of its peak inside
    RIDGE_SPAN * t and the median over rays is returned.
    High-passing keeps all resolved frequencies above the bulk, so the peak
    tightens onto the layer as the grid refines instead of sitting a fixed
    fraction of a band wavelength off it.  A t whose rays would leave the
    box, where the spline reads the periodic image, is refused.
    """
    state = fld.state_at(t)
    if not state.t > 0:
        raise ValueError("the light circle has positive radius only for t > 0")
    grid = fld.grid
    g = _square_axis(grid)
    if RIDGE_SPAN[1] * state.t > min(-g.start, g.start + g.extent) + 1e-12:
        raise ValueError(f"rays to radius {RIDGE_SPAN[1] * state.t:g} leave the box")
    bp = np.abs(high_pass(state.u, grid, default_band(grid)))
    angles = np.linspace(0.0, 2.0 * np.pi, RIDGE_ANGLES, endpoint=False)
    angles = angles[_tangency_distance(angles, _recorded(fld, "frame")) >= RIDGE_EXCLUSION]
    lo, hi = RIDGE_SPAN
    n_r = max(16, int(np.ceil((hi - lo) * state.t / (0.25 * g.spacing))))
    radii = np.linspace(lo * state.t, hi * state.t, n_r)
    x1 = np.outer(np.cos(angles), radii)
    x2 = np.outer(np.sin(angles), radii)
    i1 = (x1 - g.start) / g.spacing
    i2 = (x2 - g.start) / g.spacing
    vals = _periodic_cubic_spline(bp, i1, i2)
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

    Each rung scales the data of resp, a nonlinear_response or a channel
    (polarization_isolate), by one of factors: factor 1 is resp itself, the
    others are solved on its config by the build it records.
    A rung's data strength is its factor times the largest per-wave |eps|,
    so data of either polarity read the same.  Amplitudes are read at the
    config's first probe.  Needs at least three finite positive factors
    spanning a factor of 4.  Runs that blow up are dropped (recorded in
    ``dropped``); amplitudes at the noise floor are dropped too, and the
    regression is refused outright if nothing measurable is left.
    """
    factors = sorted(float(f) for f in factors)
    if len(factors) < 3:
        raise ValueError("need at least three data strengths")
    if not all(0.0 < f < np.inf for f in factors):  # a NaN sorts anywhere
        raise ValueError(f"data strength factors must be positive and finite, got {factors}")
    if factors[-1] < 4.0 * factors[0]:
        raise ValueError("data strengths must span at least a factor of 4")
    config, eps, build = _recorded(resp, "config"), resp.metadata["eps"], _recorded(resp, "build")
    probe = config.probes[0]
    peak = max(abs(e) for e in eps)
    used, amps, dropped = [], [], []
    for f in factors:
        strength = f * peak
        try:
            # Each rung is read and dropped before the next one solves.
            rung = resp if f == 1.0 else build(config, tuple(f * e for e in eps))
        except BlowupError:
            dropped.append(strength)
            continue
        amps.append(cone_amplitude(rung, probe))
        used.append(strength)
        del rung
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

    resp, a nonlinear_response or a channel (polarization_isolate), is the
    baseline.  Each trial is a coupling (a NonlinearitySpec) run on the
    baseline's config and data by the build the baseline records, so a
    channel's trials are channels.  Amplitudes
    are read at the config's first probe.  The ratio estimates the trial's
    cubic coefficient relative to the baseline's, the common propagation
    factor cancelling; the signed correlation over the probe tube
    distinguishes a flipped coefficient from a rescaled one.  A baseline
    amplitude at the noise floor of the whole band-passed slice, its largest
    value anywhere, is rejected: the tube's box alone could not tell a
    baseline that is roundoff beside the response elsewhere.
    """
    config, eps = _recorded(resp, "config"), resp.metadata["eps"]
    probe = config.probes[0]
    band = amplitude_band(config.grid)
    bp0, mask = _tube(resp, probe)
    a = bp0[mask]
    amp0 = float(np.max(np.abs(a)))
    peak = np.max(np.abs(band_pass(resp.state_at(probe.t_probe).u, config.grid, band)))
    if amp0 <= NOISE_FLOOR * float(peak):
        raise ValueError("baseline cone amplitude is at the noise floor")
    out = []
    for trial in trials:
        b = _tube(_recorded(resp, "build")(replace(config, P=trial), eps), probe)[0][mask]
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
    (the gate is still closed) to t1 = 3.8 with dt 0.9 of the solver's step
    bound h / (DEALIAS pi), that is 1.35 h / pi, recording
    only the two end slices.  The probe at t1 and 157.5 degrees sits 67.5
    degrees from the nearest plane tangency, and the late probe time
    matters: the circle wave accumulates through the resonance while the
    smooth forced response does not, so the contrast between them grows with
    propagation distance.  At t1 = 3.8 on this box the fronts cross the probe
    ray far outside the slice window and wrap around influence has not
    arrived.  eps = 0.05 keeps the run firmly in the weak regime (the
    response stays far below the data).  At 512 points the run takes 435
    steps, 159 of them kicked.
    """
    grid = grid2d(points, 13.5)
    h = grid.axes[0].spacing
    t1 = 3.8
    dt = 0.9 * h / (DEALIAS * np.pi)
    solver = SolverConfig(dt=dt, t0=-1.125, t1=t1, record_stride=1_000_000_000)
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

    The cone slope is read from the plain nonlinear response, one solve of
    zero data (nonlinear_response): the scaling, recovery and polarization
    controls extend that response, so no input is solved twice.
    polarization=True adds the cone slope of the trilinear channel
    (polarization_isolate: the first-Picard eps1 eps2 eps3 term, one linear
    solve, not the seven-subset sum, from which it differs by 3.8e-5 of the
    maximum at 256 points, an O(eps^2) remainder) to the notes as a
    cross-check.  The channel lacks the pair and self content, which
    reshapes the slice spectrum, so its slope is an independent reading
    with its own scatter, not the plain slope minus noise; expect it to sit
    shallower at a single probe angle.

    The incoming-front control is read on the data itself, the free field
    at t0, so it needs no solve.  null_energies["p_zero_peak"] is 0 by
    construction, not a measurement: with P None the solver never kicks and
    returns a zero response without stepping.  The linearity null proper,
    a zero coupling that is kicked and still gives the free flow, is
    test_zero_nonlinearity_matches_linear in tests/test_solver.py.
    """
    probe = config.probes[0]
    t0 = config.solver.t0

    # Every field but resp is reduced to its numbers as soon as it is read.
    resp = nonlinear_response(config)
    cone_fit = cone_order_estimate(resp, probe)
    u0, ut0 = make_three_wave_data(config.frame, config.m, config.eps, config.grid, t0)
    data = SpaceTimeField(config.grid, np.array([t0]), u0[None], ut0[None])
    incoming_fit = front_order_estimate(data, config.frame.omegas[0], t=t0)
    del u0, ut0, data
    amp = cone_amplitude(resp, probe)

    nulls = {"p_zero_peak": float(np.max(np.abs(nonlinear_response(replace(config, P=None)).u)))}
    if two_wave_check:
        pair, null_probe = two_wave_probe(config.frame, probe)
        eps_two = tuple(config.eps if k in pair else 0.0 for k in range(3))
        e_two = probe_band_energy(nonlinear_response(config, eps=eps_two), null_probe)
        e_three = probe_band_energy(resp, null_probe)
        nulls["two_wave_pair"] = pair
        nulls["two_wave_angle"] = null_probe.angle
        nulls["two_wave_energy"] = e_two
        nulls["three_wave_energy"] = e_three
        nulls["two_wave_ratio"] = e_two / e_three if e_three > 0 else np.inf

    notes = {}
    if polarization:
        notes["polarization_slope"] = cone_order_estimate(polarization_isolate(resp), probe).slope

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
