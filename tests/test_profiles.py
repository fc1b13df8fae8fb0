from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma

from cwlab import profiles
from cwlab.profiles import (
    ConormalProfile,
    PsiMollifier,
    SymbolSpec,
    _moments,
    chi_window,
    extremal_profile,
    k_of_m,
    mollifier_polynomial,
    piriou_decompose,
    profile_power,
    synthesize_profile,
)
from cwlab.spectral import Grid1D, decay_exponent

GRID = Grid1D(1024, 12.0)


def symbol_mass(m):
    # integral of (1+eta^2)^(m/2) over the line, via the beta function
    return np.sqrt(np.pi) * gamma(-0.5 * m - 0.5) / gamma(-0.5 * m)


def test_value_at_zero_matches_symbol_mass():
    prof = synthesize_profile(SymbolSpec(-3.0), GRID)
    i0 = np.argmin(np.abs(GRID.nodes()))
    assert abs(prof.values[i0] - 2.0) < 1e-3  # closed form for m = -3
    prof2 = synthesize_profile(SymbolSpec(-2.6), GRID)
    assert abs(prof2.values[np.argmin(np.abs(GRID.nodes()))] - symbol_mass(-2.6)) < 1e-3


def test_zero_symbol_gives_zero_profile():
    prof = synthesize_profile(lambda eta: np.zeros_like(eta), GRID)
    assert np.all(prof.values == 0.0)


def test_symbol_validation():
    with pytest.raises(ValueError):
        SymbolSpec(-1.0)
    with pytest.raises(ValueError):
        SymbolSpec(0.5)
    # an order of -inf was accepted, and k_of_m(-inf) overflowed
    with pytest.raises(ValueError, match="finite"):
        SymbolSpec(-np.inf)
    with pytest.raises(ValueError, match="finite"):
        profiles.k_of_m(-np.inf)


def test_profile_spectrum_slope():
    prof = synthesize_profile(SymbolSpec(-2.6), GRID)
    fit = decay_exponent(prof.values, GRID, band=(8.0, 64.0))
    assert abs(fit.slope - (-2.6)) < 0.1


def test_profile_slope_stable_under_refinement():
    fits = []
    for n in (1024, 2048):
        g = Grid1D(n, 12.0)
        prof = synthesize_profile(SymbolSpec(-2.6), g, cutoff=np.pi * 1024 / 12.0)
        fits.append(decay_exponent(prof.values, g, band=(8.0, 64.0)).slope)
    assert abs(fits[0] - fits[1]) < 0.05


def test_k_of_m():
    assert k_of_m(-2.6) == 1
    assert k_of_m(-1.5) == 0
    assert k_of_m(-4.5) == 3
    for bad in (-1.0, -3.0, -0.5, 0.2):
        with pytest.raises(ValueError):
            k_of_m(bad)


def test_profile_jet_matches_closed_form():
    prof = synthesize_profile(SymbolSpec(-2.6), GRID)
    jets = _moments(prof, 1)[0]
    assert abs(jets[0] - symbol_mass(-2.6)) < 1e-3
    assert abs(jets[1]) < 1e-8  # even profile


def test_moments_equal_the_per_order_sums_bitwise():
    prof = synthesize_profile(SymbolSpec(-4.7), GRID)
    spec, eta, deta = prof.spectrum(), GRID.freqs(), GRID.freq_spacing()
    jets, scales = _moments(prof, 3)
    for j in range(4):
        assert jets[j] == np.real(np.sum((1j * eta) ** j * spec)) * deta / (2.0 * np.pi)
        assert scales[j] == np.sum(np.abs(eta) ** j * np.abs(spec)) * deta / (2.0 * np.pi)


def test_piriou_reconstruction_and_vanishing():
    prof = synthesize_profile(SymbolSpec(-2.6), GRID)
    split = piriou_decompose(prof)
    assert split.k == 1
    recon = split.taylor.values + split.singular.values
    assert np.max(np.abs(recon - prof.values)) < 1e-12 * np.max(np.abs(prof.values))
    jets = _moments(split.singular, split.k)[0]
    scale = np.max(np.abs(prof.values))
    assert np.all(np.abs(jets) < 1e-8 * scale)


def test_piriou_idempotent():
    prof = synthesize_profile(SymbolSpec(-2.6), GRID)
    split = piriou_decompose(prof)
    again = piriou_decompose(split.singular, k=split.k)
    assert np.all(again.taylor.values == 0.0)
    assert np.all(again.coefficients == 0.0)


def test_piriou_singular_keeps_order():
    prof = synthesize_profile(SymbolSpec(-2.6), GRID)
    split = piriou_decompose(prof)
    fit = decay_exponent(split.singular.values, GRID, band=(8.0, 64.0))
    assert abs(fit.slope - (-2.6)) < 0.15


def test_piriou_higher_vanishing_order():
    prof = synthesize_profile(SymbolSpec(-4.5), GRID)
    split = piriou_decompose(prof)
    assert split.k == 3
    jets = _moments(split.singular, 3)[0]
    scale = np.max(np.abs(prof.values))
    assert np.all(np.abs(jets) < 1e-7 * scale)
    recon = split.taylor.values + split.singular.values
    assert np.max(np.abs(recon - prof.values)) < 1e-12 * scale


def test_power_orders_attained_on_extremal_element():
    # powers of f = ramp^k * g carry convolution corrections of relative size
    # eta^(m+k+1) ~ eta^-0.6, so the predicted slopes need a band in the
    # asymptotic regime; [32, 256] on a 4096-point grid keeps the bias < 0.1
    grid = Grid1D(4096, 12.0)
    band = (32.0, 256.0)
    v = extremal_profile(-2.6, grid)
    assert abs(decay_exponent(v.values, grid, band=band).slope + 2.6) < 0.15
    p2 = profile_power(v, 2)
    p3 = profile_power(v, 3)
    assert np.isclose(p2.order, -3.6)
    assert np.isclose(p3.order, -4.6)
    assert abs(decay_exponent(p2.values, grid, band=band).slope + 3.6) < 0.3
    assert abs(decay_exponent(p3.values, grid, band=band).slope + 4.6) < 0.3


def test_power_of_jet_killed_remainder_decays_faster():
    # removing the full jet 0..k leaves vanishing order -m-1 > k, so powers
    # decay strictly faster than the class bound m-(j-1)k
    grid = Grid1D(4096, 12.0)
    prof = synthesize_profile(SymbolSpec(-2.6), grid)
    v = piriou_decompose(prof).singular
    band = (32.0, 256.0)
    s2 = decay_exponent(profile_power(v, 2).values, grid, band=band).slope
    s3 = decay_exponent(profile_power(v, 3).values, grid, band=band).slope
    assert s2 < -3.6
    assert s3 < -4.6


def test_power_validation():
    prof = synthesize_profile(SymbolSpec(-2.6), GRID)
    with pytest.raises(ValueError):
        profile_power(extremal_profile(-2.6, GRID), 1)
    with pytest.raises(ValueError):
        # raw profile has a nonzero value at 0: not in the product class
        profile_power(prof, 2)


# ---------------------------------------------------------------------------
# mollifier family
# ---------------------------------------------------------------------------


def test_mollifier_amplitudes():
    assert mollifier_polynomial(1).amplitude == Fraction(4)
    assert mollifier_polynomial(2).amplitude == Fraction(-20)


def test_mollifier_first_coefficients():
    fam = mollifier_polynomial(1)
    assert fam.c_coeffs[0] == Fraction(1, 2)
    assert fam.d_coeffs[0] == Fraction(1, 2)


def test_mollifier_r1_ramp_is_sigma_squared_times_sigma_minus_two_squared():
    # G' = 4 sigma (sigma-1)(sigma-2) integrated from 2: G = sigma^2 (sigma-2)^2
    assert mollifier_polynomial(1).ramp_poly == (0, 0, 4, -4, 1)


def test_mollifier_exact_identities():
    for r in range(1, 21):
        checks = mollifier_polynomial(r).verify()
        assert set(checks) == {
            "plateau_value_one",
            "endpoint_value_zero",
            "joint_derivatives_vanish",
            "derivative_identity",
            "closed_form",
        }
        assert all(checks.values()), (r, checks)


def test_closed_form_flag_catches_a_wrong_coefficient():
    fam = mollifier_polynomial(3)
    c0, *rest = fam.c_coeffs
    checks = replace(fam, c_coeffs=(c0 + 1, *rest)).verify()
    assert not checks.pop("closed_form")
    assert all(checks.values()), checks


TINY = Fraction(1, 10**60)


def _bump(values, i):
    values = list(values)
    values[i] += TINY
    return tuple(values)


@pytest.mark.parametrize(
    "flag, corrupt",
    [
        ("plateau_value_one", lambda f: replace(f, ramp_poly=_bump(f.ramp_poly, 0))),
        ("endpoint_value_zero", lambda f: replace(f, ramp_poly=_bump(f.ramp_poly, 0))),
        ("joint_derivatives_vanish", lambda f: replace(f, ramp_poly=_bump(f.ramp_poly, 1))),
        ("derivative_identity", lambda f: replace(f, amplitude=f.amplitude + TINY)),
        ("closed_form", lambda f: replace(f, ramp_poly=_bump(f.ramp_poly, -1))),
        ("closed_form", lambda f: replace(f, d_coeffs=_bump(f.d_coeffs, -1))),
    ],
    ids=["plateau-G_0", "endpoint-G_0", "joints-G_1", "slope-A", "closed-G_top", "closed-D_r"],
)
def test_each_flag_catches_a_tiny_rational_corruption(flag, corrupt):
    # 1e-60 is far below the resolution of any float comparison of these
    # coefficients, so only exact arithmetic flags it
    fam = mollifier_polynomial(20)
    assert fam.verify()[flag]
    assert not corrupt(fam).verify()[flag]


def test_mollifier_validation():
    for bad in (0, 21, -2):
        with pytest.raises(ValueError):
            mollifier_polynomial(bad)
    with pytest.raises(ValueError):
        mollifier_polynomial(1.5)


def test_ramp_endpoint_values():
    fam = mollifier_polynomial(3)
    n = 40.0
    assert abs(fam.ramp_derivative(0, n, n) - 1.0) < 1e-12
    assert abs(fam.ramp_derivative(0, 2 * n, n)) < 1e-12


def test_chi_window_properties():
    s = np.linspace(-0.99, 0.99, 41)
    assert np.max(np.abs(chi_window(s) - 1.0)) < 1e-12
    assert np.all(chi_window(np.array([-2.5, 2.01, 3.0])) == 0.0)
    fine = np.linspace(-2.2, 2.2, 200001)
    mass = np.trapezoid(chi_window(fine), fine)
    assert abs(mass - 1.0) < 1e-6
    assert chi_window(fine).min() < -1e-3  # must dip negative


def test_psi_plateau_and_support():
    psi = PsiMollifier(64.0, 2)
    assert abs(psi.derivative(0, 60.0) - 1.0) < 1e-9  # below N-2
    assert abs(psi.derivative(0, 62.0) - 1.0) < 1e-9
    assert abs(psi.derivative(0, 131.0)) < 1e-9  # above 2N+2
    mid = psi.derivative(0, 96.0)
    assert 0.0 < mid < 1.0


def test_psi_scaled_derivative_uniformity():
    r = 2
    sup = {q: [] for q in range(1, r + 1)}
    for n in (16.0, 64.0, 256.0, 1024.0):
        psi = PsiMollifier(n, r)
        eta = np.linspace(0.7 * n, 2.4 * n, 160)
        for q in range(1, r + 1):
            vals = np.abs(eta**q * psi.derivative(q, eta))
            sup[q].append(vals.max())
    for q, sups in sup.items():
        ratio = max(sups) / min(sups)
        assert ratio < 1.25, (q, sups)


@pytest.mark.parametrize("shape", [(), (1,), (0,), (2, 3)])
def test_psi_keeps_the_shape_of_eta(shape):
    psi = PsiMollifier(64.0, 2)
    eta = np.full(shape, 96.0)
    for q in range(3):
        got = psi.derivative(q, eta)
        if shape == ():
            assert isinstance(got, float)
        else:
            assert isinstance(got, np.ndarray) and got.shape == shape
            assert np.all(got == psi.derivative(q, 96.0))


@pytest.mark.parametrize("n_cut, r", [(64.0, 3), (1024.0, 2)])
def test_psi_matches_adaptive_quadrature(n_cut, r):
    # psi^(q)(eta) = integral chi(t) ramp^(q)(eta - t) dt, integrated by
    # scipy's adaptive rule with chi's breaks and the ramp's kinks as points
    psi = PsiMollifier(n_cut, r)
    breaks = [-1.75, -1.25, -1.0, 1.0, 1.25, 1.75]
    offsets = [-2.5, -1.75, -1.25, -1.0, 0.3, 1.0, 1.25, 1.75, 2.5]
    eta = [c * n_cut + o for c in (1.0, 2.0) for o in offsets] + [1.5 * n_cut]

    def ramp(q, s):
        if s <= n_cut:
            return float(q == 0)
        if s <= 2.0 * n_cut:
            return float(psi.family.ramp_derivative(q, s, n_cut))
        return 0.0

    for q in range(r + 1):
        ref = []
        for e in eta:
            kinks = [k for k in (e - n_cut, e - 2.0 * n_cut) if -2.0 < k < 2.0]
            ref.append(quad(
                lambda t: float(chi_window(t)) * ramp(q, e - t), -2.0, 2.0,
                points=sorted(set(breaks + kinks)), epsabs=1e-11, epsrel=1e-10,
            )[0])
        got = psi.derivative(q, np.array(eta))
        assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(got)), q


def _all_panel_psi(psi, q, eta):
    """psi^(q)(eta) by the panel rule with every panel evaluated, the empty
    ones (a kink clipped onto chi's end) included."""
    eta = np.asarray(eta, dtype=float)[..., None]
    kinks = np.concatenate([eta - psi.n_cut, eta - 2.0 * psi.n_cut], axis=-1)
    breaks = np.broadcast_to(profiles._CHI_BREAKS, eta.shape[:-1] + profiles._CHI_BREAKS.shape)
    breaks = np.sort(np.clip(np.concatenate([breaks, kinks], axis=-1), -2.0, 2.0))
    a, b = breaks[..., :-1, None], breaks[..., 1:, None]
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    t = mid + half * profiles._GAUSS_NODES
    g = profiles._GAUSS_WEIGHTS * chi_window(t) * psi._ramp_piece(eta[..., None] - t, q)
    panels = half[..., 0] * np.sum(g, axis=-1)
    total = 0.0
    for panel in np.moveaxis(panels, -1, 0):
        total = total + panel
    return total / profiles._CHI_MASS


@pytest.mark.parametrize("n_cut", [64.0, 256.0, 1024.0, 4096.0])
def test_psi_skips_empty_panels_bitwise(n_cut):
    # the benchmark's kind of eta: seeded points on the plateau (-2, N-2),
    # on the ramp (0.7 N, 2.4 N) and beyond the support (2N+2, 3N+2); most
    # of them clip both kinks onto chi's ends, leaving two empty panels
    rng = np.random.default_rng(1)
    psi = PsiMollifier(n_cut, 3)
    plateau = (n_cut - 2.0) - n_cut * rng.uniform(0.0, 1.0, 10)
    ramp = n_cut * rng.uniform(0.7, 2.4, 100)
    beyond = (2.0 * n_cut + 2.0) + n_cut * rng.uniform(0.0, 1.0, 10)
    for q in range(4):
        for eta in (plateau, ramp, beyond):
            assert psi.derivative(q, eta).tobytes() == _all_panel_psi(psi, q, eta).tobytes()


@pytest.mark.parametrize("n_cut", [64.0, 256.0, 1024.0, 4096.0])
def test_psi_short_cut_equals_the_full_quadrature_bitwise(n_cut):
    # eta straddling both ends of the short cut, N-2 and 2N+2, a few ulps
    # and a few units on either side: the exact 1.0 and +0.0 it returns off
    # the ramp are the bits the full quadrature gives there, sign included
    psi = PsiMollifier(n_cut, 3)
    edges = np.array([[n_cut - 2.0], [2.0 * n_cut + 2.0]])
    offsets = np.array([-5.0, -2.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 2.0, 5.0])
    eta = np.concatenate(
        [edges + offsets, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)], axis=1
    ).ravel()
    for q in range(4):
        assert psi.derivative(q, eta).tobytes() == _all_panel_psi(psi, q, eta).tobytes()


@st.composite
def psi_cases(draw):
    n_cut = draw(st.floats(4.0, 1e4, exclude_min=True))
    r = draw(st.integers(1, 5))
    return PsiMollifier(n_cut, r), draw(st.integers(0, r))


@given(psi_cases(), st.lists(st.floats(0.0, 1e4), min_size=1, max_size=5))
def test_psi_is_exactly_one_below_and_zero_beyond_its_ramp(case, depths):
    psi, q = case
    below = psi.n_cut - 2.0 - np.array(depths)
    beyond = 2.0 * psi.n_cut + 2.0 + np.array(depths)
    assert np.all(psi.derivative(q, below) == (1.0 if q == 0 else 0.0))
    assert np.all(psi.derivative(q, beyond) == 0.0)


@given(psi_cases(), st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8))
def test_psi_array_call_equals_scalar_calls_bitwise(case, sigma):
    psi, q = case
    eta = psi.n_cut * np.array(sigma)
    scalars = np.array([psi.derivative(q, e) for e in eta])
    assert psi.derivative(q, eta).tobytes() == scalars.tobytes()
