import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwlab import beals, interaction, solver, spectral
from cwlab.spectral import (
    Grid1D,
    GridND,
    SliceProfile,
    bump_window,
    decay_exponent,
    dft_forward,
    dft_forward_nd,
    dft_inverse,
    evaluate_trig,
    plateau_window,
    trig_modes,
    windowed_slice,
    _trig_phases,
)
from cwlab.profiles import SymbolSpec, synthesize_profile


@settings(max_examples=30)  # a cheap predicate; the explicit examples add the old cases
@given(
    st.one_of(st.integers(-16, 2048), st.sampled_from([2**k for k in range(12)])),
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, np.nan])),
)
@example(100, 1.0)
@example(64, -1.0)
@example(64, 4.0)
def test_grid_validation(points, extent):
    # exactly the powers of two >= 4 with a positive extent are grids
    valid = points >= 4 and points & (points - 1) == 0 and extent > 0
    if not valid:
        with pytest.raises(ValueError):
            Grid1D(points, extent)
        return
    g = Grid1D(points, extent)
    assert g.start == -0.5 * extent
    assert np.isclose(g.spacing, extent / points)
    assert np.isclose(g.nyquist, np.pi / g.spacing)


@pytest.mark.parametrize("extent, start", [(np.inf, None), (8.0, np.nan), (8.0, np.inf)])
def test_grid_refuses_a_non_finite_extent_or_start(extent, start):
    # each was accepted and gave NaN or inf nodes
    with pytest.raises(ValueError, match="finite"):
        Grid1D(64, extent, start=start)


@st.composite
def grids_and_samples(draw):
    """A grid of 4..1024 points with any extent and start, and standard
    normal samples on it."""
    g = Grid1D(
        2 ** draw(st.integers(2, 10)),
        draw(st.floats(0.5, 20.0)),
        draw(st.floats(-10.0, 10.0)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g, rng.standard_normal(g.points)


@given(grids_and_samples(), st.data())
def test_round_trip(case, data):
    g, f = case
    back = dft_inverse(dft_forward(f, g), g)
    assert np.max(np.abs(back - f)) < 1e-12
    # the phase convention: a unit sample at node s_j has spectrum
    # h * exp(-i s_j eta), whatever the grid's start
    j = data.draw(st.integers(0, g.points - 1))
    delta = np.zeros(g.points)
    delta[j] = 1.0
    expected = g.spacing * np.exp(-1j * g.nodes()[j] * g.freqs())
    assert np.max(np.abs(dft_forward(delta, g) - expected)) < 1e-9 * g.spacing


@given(grids_and_samples())
def test_parseval(case):
    g, f = case
    spec = dft_forward(f, g)
    lhs = g.spacing * np.sum(f * f)
    rhs = g.freq_spacing() / (2.0 * np.pi) * np.sum(np.abs(spec) ** 2)
    assert abs(lhs - rhs) < 1e-10 * lhs


def test_delta_has_flat_spectrum():
    g = Grid1D(128, 4.0)
    f = np.zeros(g.points)
    f[17] = 1.0
    amp = np.abs(dft_forward(f, g))
    assert np.max(np.abs(amp - g.spacing)) < 1e-14


def test_constant_concentrates_at_zero_bin():
    g = Grid1D(128, 4.0)
    spec = dft_forward(np.full(g.points, 3.0), g)
    assert np.isclose(spec[0].real, 3.0 * g.extent)
    assert np.max(np.abs(spec[1:])) < 1e-10


def test_parseval_nd():
    g = GridND((Grid1D(16, 2.0), Grid1D(16, 5.0)))
    rng = np.random.default_rng(4)
    f = rng.standard_normal(g.shape)
    spec = dft_forward_nd(f, g)
    lhs = g.cell_volume * np.sum(f * f)
    dvol = np.prod([ax.freq_spacing() for ax in g.axes])
    rhs = dvol / (2.0 * np.pi) ** 2 * np.sum(np.abs(spec) ** 2)
    assert abs(lhs - rhs) < 1e-10 * lhs


@pytest.mark.parametrize("axes", [
    (Grid1D(64, 12.0),) * 3,
    (Grid1D(16, 12.0), Grid1D(32, 10.0, 1.5), Grid1D(64, 8.0)),
])
def test_meshes_are_read_only_broadcast_views_of_the_nodes(axes):
    grid = GridND(axes)
    tracemalloc.start()
    try:
        meshes = grid.meshes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # O(n): the sparse nodes and the views, against 2 MiB for one dense
    # 64^3 mesh
    assert peak < 16 * 1024
    dense = np.meshgrid(*grid.nodes(), indexing="ij")
    assert len(meshes) == len(dense) == 3
    for m, d in zip(meshes, dense):
        assert m.shape == grid.shape and m.dtype == d.dtype
        assert m.tobytes() == d.tobytes()
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0, 0] = 0.0


def test_power_law_slope_recovery():
    # build the spectrum directly, fit it back
    g = Grid1D(2048, 8.0)
    eta = g.freqs()
    for p in [-1.3, -2.6, -4.5]:
        spec = np.where(np.abs(eta) > 0, np.abs(eta), 1.0) ** p
        spec[0] = 2.0 * spec[np.abs(eta) > 0].max()
        f = np.real(dft_inverse(spec, g))
        fit = decay_exponent(f, g, band=(8.0, g.nyquist / 4.0))
        assert abs(fit.slope - p) < 0.02
        assert fit.n_bins >= 8


def test_gaussian_flagged_superpolynomial():
    g = Grid1D(256, 8.0)
    s = g.nodes()
    f = np.exp(-0.5 * (s / 0.3) ** 2)
    fit = decay_exponent(f, g, band=(8.0, g.nyquist / 4.0))
    assert fit.superpolynomial


def test_white_noise_slope_near_zero():
    g = Grid1D(4096, 4.0)
    rng = np.random.default_rng(12345)
    f = rng.standard_normal(g.points)
    fit = decay_exponent(f, g, band=(8.0, g.nyquist / 4.0))
    assert abs(fit.slope) < 0.2
    # no bin sits at the floor, so the fitted bins are the band's; the
    # slope's standard error is polyfit's, whose residual has n - 2 degrees
    # of freedom
    eta, amp = g.freqs(), np.abs(dft_forward(f, g))
    sel = (eta >= 8.0) & (eta <= g.nyquist / 4.0)
    assert fit.n_bins == np.count_nonzero(sel) and "noise_floor" not in fit.flags
    (slope, _), cov = np.polyfit(np.log(eta[sel]), np.log(amp[sel]), 1, cov=True)
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.slope_stderr == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-9)


def test_band_validation():
    g = Grid1D(64, 4.0)
    f = np.ones(g.points)
    with pytest.raises(ValueError):
        decay_exponent(f, g, band=(8.0, 2.0 * g.nyquist))
    with pytest.raises(ValueError):
        decay_exponent(f, g, band=(-1.0, 8.0))
    # constant field: every bin above 8 is noise floor, which the fit reads
    # as decay beating the instrument
    fit = decay_exponent(f, g, band=(8.0, g.nyquist / 4.0))
    assert fit.slope == -np.inf and fit.n_bins == 0 and np.isnan(fit.slope_stderr)
    assert fit.flags == {"superpolynomial", "noise_floor", "inconclusive"}


def test_short_band_is_no_measurement():
    # bins sit pi/2 apart: (8, 12) holds 9.42 and 11.0, (8, 9) none
    g = Grid1D(64, 4.0)
    f = g.nodes()  # a sawtooth: every bin above the floor
    for band, n_bins in (((8.0, 12.0), 2), ((8.0, 9.0), 0)):
        fit = decay_exponent(f, g, band=band)
        assert np.isnan(fit.slope) and fit.n_bins == n_bins and np.isnan(fit.slope_stderr)
        assert fit.flags == {"insufficient_bins", "inconclusive"}
        assert not fit.superpolynomial


def test_non_finite_samples_rejected():
    g = Grid1D(64, 4.0)
    f = g.nodes()
    f[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        decay_exponent(f, g, band=(8.0, g.nyquist / 4.0))


def test_windows():
    assert bump_window(0.0) == 1.0
    assert bump_window(1.0) == 0.0
    assert bump_window(-2.0) == 0.0
    s = np.linspace(-3, 3, 301)
    w = plateau_window(s, 1.0, 2.0)
    assert np.all(w[np.abs(s) <= 1.0] == 1.0)
    assert np.all(w[np.abs(s) >= 2.0] == 0.0)
    assert np.all((w >= 0) & (w <= 1))
    # every edge must be finite: an infinite outer edge read NaN everywhere
    edges = ((1.0, np.inf), (np.inf, np.inf), (np.nan, 2.0), (1.0, np.nan), (0.0, 2.0), (2.0, 1.0))
    for inner, outer in edges:
        with pytest.raises(ValueError, match="finite 0 < inner < outer"):
            plateau_window(s, inner, outer)


def _masked_bump(s):
    """bump_window as a masked scatter with a scalar fork: the oracle for
    the single-expression window."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out[0] if scalar else out


def _masked_step(t):
    """The C-infinity step 0 for t<=0, 1 for t>=1 as a masked scatter with a
    scalar fork: the oracle for plateau_window's step."""
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


def _masked_plateau(s, inner, outer):
    return _masked_step((outer - np.abs(np.asarray(s, dtype=float))) / (outer - inner))


def _same_bits(a, b):
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


@pytest.mark.parametrize("inner, outer", [(0.4, 0.9), (1.0, 2.0), (0.75 * 10.0, 10.0)])
def test_windows_keep_the_masked_values_bit_for_bit(inner, outer):
    # Warnings are errors in this suite: a divide or overflow warning from
    # the branch np.where discards would fail here.
    rng = np.random.default_rng(7)
    edges = np.array([0.0, inner, outer, 1.0, np.inf])
    points = [rng.uniform(-3.0, 3.0, 100_000) * outer, np.concatenate([edges, -edges])]
    for s in points + [s.reshape(-1, 2) for s in points]:
        assert _same_bits(bump_window(s), _masked_bump(s))
        assert _same_bits(plateau_window(s, inner, outer), _masked_plateau(s, inner, outer))
    for x in np.concatenate([edges, -edges, [0.3, -0.95 * outer]]):
        for s in (x, float(x), np.array(x)):
            assert type(bump_window(s)) is np.float64
            assert _same_bits(bump_window(s), _masked_bump(s))
            assert type(plateau_window(s, inner, outer)) is np.float64
            assert _same_bits(plateau_window(s, inner, outer), _masked_plateau(s, inner, outer))


def test_filter_windows_keep_their_bits_on_the_512_point_half_spectrum():
    grid = solver.grid2d(512, 13.5)
    rho = np.hypot(*spectral._wavenumbers(grid))
    lo, hi = interaction.default_band(grid)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for s, inner, outer in ((rho - mid, 0.75 * half, half), (rho, 0.375 * lo, 0.75 * lo)):
        assert _same_bits(plateau_window(s, inner, outer), _masked_plateau(s, inner, outer))
    assert _same_bits(bump_window(rho / hi), _masked_bump(rho / hi))


@pytest.mark.parametrize("grid", [
    GridND((Grid1D(16, 5.0), Grid1D(8, 3.0, 1.0))),
    GridND((Grid1D(8, 2.0), Grid1D(4, 7.0, -1.0), Grid1D(16, 3.5))),
])
def test_one_wavenumber_rule_for_every_rfftn_spectrum(grid):
    ks = spectral._wavenumbers(grid)
    assert len(ks) == grid.ndim
    assert np.broadcast_shapes(*(k.shape for k in ks)) == np.fft.rfftn(np.zeros(grid.shape)).shape
    for axis, (k, g) in enumerate(zip(ks, grid.axes)):
        freq = np.fft.rfftfreq if axis == grid.ndim - 1 else np.fft.fftfreq
        eta = 2.0 * np.pi * freq(g.points, g.spacing)
        assert k.shape == tuple(eta.size if a == axis else 1 for a in range(grid.ndim))
        assert np.array_equal(k.ravel(), eta)
    # interaction's radial filters are spectral's own, so it reads none itself
    for module in (solver, beals):
        assert module._wavenumbers is spectral._wavenumbers
    assert interaction.band_pass is spectral.band_pass


def _plane_wave_field(n=256, ext=8.0, m=-2.6, direction=(0.0, 1.0)):
    g1 = Grid1D(n, ext)
    prof = synthesize_profile(SymbolSpec(m), g1, cutoff=g1.nyquist / 2.0)
    grid = GridND((g1, g1))
    x, y = grid.meshes()
    arg = direction[0] * x + direction[1] * y
    # direction must be a lattice axis here so arg lands on profile nodes
    vals = np.interp(arg, g1.nodes(), prof.values, period=ext)
    return grid, vals, prof


def test_trig_evaluation_exact_on_nodes():
    grid, vals, _ = _plane_wave_field(n=64)
    x, y = grid.meshes()
    pts = np.column_stack([x.ravel()[::13], y.ravel()[::13]])
    out = evaluate_trig(np.fft.rfft2(vals), grid, pts)
    assert np.max(np.abs(out - vals.ravel()[::13])) < 1e-9


def test_trig_evaluation_refuses_a_real_field():
    # the reader takes the rfft2 spectrum alone; a real array is refused,
    # not transformed
    grid, vals, _ = _plane_wave_field(n=64)
    pts = np.random.default_rng(2).uniform(-4.0, 4.0, (50, 2))
    with pytest.raises(ValueError, match="rfft2 spectrum"):
        evaluate_trig(vals, grid, pts)
    with pytest.raises(ValueError, match="rfft2 spectrum"):
        windowed_slice(vals, grid, (0.0, 0.0), (0.0, 1.0), half_length=1.0)


@pytest.mark.parametrize("cut", ["full_fft2", "transposed", "one_row_short"])
def test_trig_evaluation_refuses_a_spectrum_of_another_shape(cut):
    # a complex array must be the grid's rfft2 shape, (n1, n2 // 2 + 1)
    grid = GridND((Grid1D(32, 8.0), Grid1D(64, 8.0)))
    vals = np.random.default_rng(4).standard_normal(grid.shape)
    spec = {"full_fft2": np.fft.fft2(vals), "transposed": np.fft.rfft2(vals.T),
            "one_row_short": np.fft.rfft2(vals)[:-1]}[cut]
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError, match="rfft2 spectrum"):
        evaluate_trig(spec, grid, pts)
    with pytest.raises(ValueError, match="rfft2 spectrum"):
        windowed_slice(spec, grid, (0.0, 0.0), (0.0, 1.0), half_length=1.0)


@given(
    st.integers(2, 7), st.integers(2, 7), st.floats(0.5, 20.0), st.floats(0.5, 20.0),
    st.floats(-10.0, 10.0), st.integers(0, 2**32 - 1),
)
def test_trig_evaluation_matches_complex_fft_reference(k1, k2, ext1, ext2, start, seed):
    # the half-spectrum sum against the interpolant summed over the whole
    # complex spectrum of trig_modes, at points anywhere in the plane
    grid = GridND((Grid1D(2**k1, ext1, start), Grid1D(2**k2, ext2)))
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    pts = rng.uniform(-30.0, 30.0, size=(40, 2))
    coef = trig_modes(vals)
    phases = [np.exp(1j * np.outer(pts[:, a] - g.start, g.freqs()))
              for a, g in enumerate(grid.axes)]
    ref = np.real(np.einsum("mk,mk->m", phases[0] @ coef, phases[1]))
    got = evaluate_trig(np.fft.rfft2(vals), grid, pts)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_trig_phases_reproduce_nodes_and_band_limited_cosine():
    g = Grid1D(64, 8.0, start=-3.0)  # off-center, so the phase rule counts

    def line(coef, s):
        return np.real(_trig_phases(s, g.start, g.freqs()) @ coef)

    prof = synthesize_profile(SymbolSpec(-2.6), g, cutoff=g.nyquist / 2.0)
    assert np.max(np.abs(line(trig_modes(prof.values), g.nodes()) - prof.values)) < (
        1e-12 * np.max(np.abs(prof.values))
    )
    k = 5 * g.freq_spacing()
    coef = trig_modes(np.cos(k * g.nodes() + 0.4))
    s = np.random.default_rng(3).uniform(-20.0, 20.0, 50)  # off the grid, off the period
    assert np.max(np.abs(line(coef, s) - np.cos(k * s + 0.4))) < 1e-12
    du = line(1j * g.freqs() * coef, s)
    assert np.max(np.abs(du + k * np.sin(k * s + 0.4))) < 1e-12 * k


def test_slice_across_front_recovers_profile_order():
    # window leakage scales like exp(-c*sqrt(w*eta)); width >= ~3 keeps the
    # smooth bulk of the profile below its |eta|^-2.6 tail over [8, 64]
    grid, vals, prof = _plane_wave_field(n=1024, ext=24.0, m=-2.6)
    sl = windowed_slice(np.fft.rfft2(vals), grid, (0.0, 0.0), (0.0, 1.0), half_length=10.0)
    assert isinstance(sl, SliceProfile)
    fit = decay_exponent(sl.windowed, sl.grid, band=(8.0, 64.0))
    assert abs(fit.slope - (-2.6)) < 0.15


def test_slice_window_halving_stability():
    grid, vals, _ = _plane_wave_field(n=1024, ext=24.0, m=-2.6)
    slopes = []
    for half in (10.0, 5.0):
        sl = windowed_slice(np.fft.rfft2(vals), grid, (0.0, 0.0), (0.0, 1.0), half_length=half)
        fit = decay_exponent(sl.windowed, sl.grid, band=(8.0, 64.0))
        slopes.append(fit.slope)
    assert abs(slopes[0] - slopes[1]) < 0.1


def test_slice_along_front_is_smooth():
    grid, vals, _ = _plane_wave_field(n=1024, ext=24.0, m=-2.6)
    # offset from the singular line, directed along it
    sl = windowed_slice(np.fft.rfft2(vals), grid, (0.0, 0.7), (1.0, 0.0), half_length=10.0)
    windowed = sl.windowed + 1e-30  # fully constant slice would have no usable bins
    fit = decay_exponent(windowed, sl.grid, band=(8.0, 64.0), min_bins=4)
    assert fit.superpolynomial or "noise_floor" in fit.flags


def test_slice_rejects_segment_leaving_domain():
    grid, vals, _ = _plane_wave_field(n=64, ext=8.0, m=-3.0)
    with pytest.raises(ValueError):
        windowed_slice(np.fft.rfft2(vals), grid, (3.0, 0.0), (1.0, 0.0), half_length=2.0)


@pytest.mark.parametrize("direction", [(0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0)])
def test_slice_rejects_a_direction_with_no_geometry(direction):
    grid, vals, _ = _plane_wave_field(n=64, ext=8.0, m=-3.0)
    with pytest.raises(ValueError, match="finite and nonzero"):
        windowed_slice(np.fft.rfft2(vals), grid, (0.0, 0.0), direction, half_length=1.0)


@pytest.mark.parametrize("center", [(np.nan, 0.0), (0.0, np.inf)])
def test_slice_rejects_a_non_finite_center(center):
    grid, vals, _ = _plane_wave_field(n=64, ext=8.0, m=-3.0)
    with pytest.raises(ValueError, match="finite center"):
        windowed_slice(np.fft.rfft2(vals), grid, center, (1.0, 0.0), half_length=1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: dft_forward(np.zeros(7), Grid1D(8, 2.0 * np.pi)),
                     "sample count does not match grid", id="dft of the wrong sample count"),
        pytest.param(lambda: evaluate_trig(np.zeros((8, 8, 5), complex),
                                           GridND((Grid1D(8, 2.0 * np.pi),) * 3), np.zeros((1, 2))),
                     "trig evaluation implemented for 2D grids", id="trig evaluation on a 3D grid"),
        pytest.param(lambda: spectral.band_pass(np.zeros((16, 16)),
                                                GridND((Grid1D(16, 2.0 * np.pi),) * 2), (5.0, 2.0)),
                     r"invalid band \(5.0, 2.0\)", id="inverted band"),
    ],
)
def test_spectral_refusals_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
