import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cwlab.beals import (
    BealsWeight,
    INF_EXPONENT_PROXY,
    algebra_check,
    algebra_scan,
    beals_norm,
    membership_scan,
)
from cwlab.profiles import SymbolSpec, synthesize_profile
from cwlab.spectral import (
    NOISE_FLOOR,
    Grid1D,
    GridND,
    dft_forward,
    grid3d,
    plateau_window,
)

EXTENT = 12.0


def separable_cutoff(grid):
    parts = [plateau_window(np.abs(g.nodes()), 3.0, 5.0) for g in grid.axes]
    return parts[0][:, None, None] * parts[1][None, :, None] * parts[2][None, None, :]


def plane_wave_field(n, m=-2.6):
    """Conormal profile in y1 extended constantly along y2, y3."""
    g1 = Grid1D(n, EXTENT)
    prof = synthesize_profile(SymbolSpec(m), g1)
    grid = GridND((g1, g1, g1))
    vals = np.broadcast_to(prof.values[:, None, None], grid.shape).copy()
    return vals, grid


def gaussian_field(n, width=0.8):
    # narrow enough that the box-edge value cannot feed weighted tails
    grid = grid3d(n, EXTENT)
    y1, y2, y3 = grid.meshes()
    return np.exp(-(y1**2 + y2**2 + y3**2) / (2.0 * width**2)), grid


def test_zero_field_gives_zero_norm():
    grid = grid3d(16, EXTENT)
    w = BealsWeight(0.5, 1.0, 2.0, 0.3)
    assert beals_norm(np.zeros(grid.shape), grid, w) == 0.0


def test_weightless_norm_is_plain_l2():
    vals, grid = gaussian_field(32, width=1.3)
    vals += 0.4 * np.sin(vals)
    c = separable_cutoff(grid)
    got = beals_norm(vals, grid, BealsWeight(0.0, 0.0, 0.0, 0.0), c)
    expect = np.sqrt(grid.cell_volume * np.sum((c * vals) ** 2))
    assert abs(got - expect) <= 1e-10 * expect


def test_separable_field_factorizes_at_s_zero():
    g1 = Grid1D(64, EXTENT)
    y = g1.nodes()
    factors = [
        np.exp(-0.5 * y**2),
        np.exp(-((y - 0.5) ** 2) / 1.3),
        np.cos(y) * np.exp(-(y**2) / 2.4),
    ]
    ks = (1.5, 2.0, 0.7)
    cut1 = plateau_window(np.abs(y), 3.0, 5.0)
    grid = GridND((g1, g1, g1))
    vals = (
        factors[0][:, None, None]
        * factors[1][None, :, None]
        * factors[2][None, None, :]
    )
    got = beals_norm(vals, grid, BealsWeight(0.0, *ks), separable_cutoff(grid))
    oracle = 1.0
    deta = g1.freq_spacing()
    for f, k in zip(factors, ks):
        spec = dft_forward(cut1 * f, g1)
        oracle *= np.sqrt(
            deta / (2.0 * np.pi) * np.sum((1.0 + g1.freqs() ** 2) ** k * np.abs(spec) ** 2)
        )
    assert abs(got - oracle) <= 1e-8 * oracle


def full_spectrum_norm(values, grid, weight):
    """The norm from the full complex fftn with the start phase applied,
    each bin once, under the same noise-floor rule."""
    spec = np.fft.fftn(values) * grid.cell_volume
    for ax, g in enumerate(grid.axes):
        shape = [1, 1, 1]
        shape[ax] = g.points
        spec = spec * np.exp(-1j * g.start * g.freqs()).reshape(shape)
    p = np.abs(spec) ** 2
    p[p < (NOISE_FLOOR * np.sqrt(p.max())) ** 2] = 0.0
    e1, e2, e3 = np.meshgrid(*(g.freqs() for g in grid.axes), indexing="ij")
    w2 = (
        (1.0 + e1**2) ** weight.k1
        * (1.0 + e2**2) ** weight.k2
        * (1.0 + e3**2) ** weight.k3
        * (1.0 + e1**2 + e2**2 + e3**2) ** weight.s
    )
    deta = np.prod([g.freq_spacing() for g in grid.axes])
    return np.sqrt(deta / (2.0 * np.pi) ** 3 * np.sum(w2 * p))


@given(
    n=st.sampled_from([4, 8, 16, 32]),
    s=st.floats(-1.0, 2.0),
    ks=st.tuples(*[st.floats(0.0, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
    near_floor=st.booleans(),
)
# s != 0 on the largest grid, with a spectrum that reaches the noise floor:
# a trigonometric polynomial plus white noise at 1e-11 of its maximum, whose
# bins straddle the floor.  There the floor moves the norm by about 1e-8.
@example(n=32, s=1.5, ks=(3.0, 2.5, 3.0), seed=7, near_floor=True)
def test_half_spectrum_norm_matches_full_spectrum(n, s, ks, seed, near_floor):
    rng = np.random.default_rng(seed)
    grid = grid3d(n, EXTENT)
    vals = rng.standard_normal(grid.shape)
    if near_floor:
        modes = np.abs(np.fft.fftfreq(n, 1.0 / n)) <= 1
        mask = modes[:, None, None] & modes[None, :, None] & modes[None, None, :]
        vals = np.real(np.fft.ifftn(mask * np.fft.fftn(vals)))
        vals += 1e-11 * np.abs(vals).max() * rng.standard_normal(grid.shape)
    w = BealsWeight(s, *ks)
    got = beals_norm(vals, grid, w)
    expect = full_spectrum_norm(vals, grid, w)
    assert abs(got - expect) <= 1e-12 * expect


def test_norm_monotone_in_each_exponent():
    vals, grid = gaussian_field(32)
    vals *= np.cos(grid.meshes()[0] * 2.0)
    ladder = [
        BealsWeight(0.0, 0.0, 0.0, 0.0),
        BealsWeight(0.3, 0.5, 0.0, 0.2),
        BealsWeight(0.8, 1.0, 0.4, 0.6),
        BealsWeight(0.8, 2.5, 0.4, 0.6),
    ]
    norms = [beals_norm(vals, grid, w) for w in ladder]
    for a, b in zip(norms, norms[1:]):
        assert b >= a


def test_permutation_equivariance():
    g1 = Grid1D(32, EXTENT)
    y = g1.nodes()
    factors = [
        np.exp(-0.5 * y**2),
        np.exp(-((y - 0.8) ** 2)),
        np.sin(y) * np.exp(-(y**2) / 3.0),
    ]
    grid = GridND((g1, g1, g1))
    vals = (
        factors[0][:, None, None]
        * factors[1][None, :, None]
        * factors[2][None, None, :]
    )
    w = BealsWeight(0.7, 1.3, 0.4, 2.1)
    ks = (w.k1, w.k2, w.k3)
    base = beals_norm(vals, grid, w)
    for perm in [(1, 2, 0), (2, 1, 0), (0, 2, 1)]:
        permuted_vals = np.transpose(vals, perm)
        # the k exponents follow the permuted axes
        got = beals_norm(permuted_vals, grid, BealsWeight(w.s, *(ks[i] for i in perm)))
        assert abs(got - base) <= 1e-12 * base


@pytest.mark.parametrize("with_cutoff", [False, True])
def test_norm_leaves_its_inputs_untouched(with_cutoff):
    # the transform writes into a buffer of its own: read-only, transposed
    # (non-contiguous) values and a read-only cutoff come back byte for byte
    vals, grid = gaussian_field(32, width=1.3)
    vals = np.transpose(vals * np.cos(grid.meshes()[1]), (2, 0, 1))
    cutoff = separable_cutoff(grid) if with_cutoff else None
    inputs = [a for a in (vals, cutoff) if a is not None]
    for a in inputs:
        a.flags.writeable = False
    before = [a.tobytes() for a in inputs]
    w = BealsWeight(0.4, 1.0, 2.0, 0.5)
    got = beals_norm(vals, grid, w, cutoff)
    assert [a.tobytes() for a in inputs] == before
    assert not vals.flags.c_contiguous
    expect = beals_norm(np.ascontiguousarray(vals), grid, w, cutoff)
    assert abs(got - expect) <= 1e-13 * expect


def test_weight_validation():
    with pytest.raises(ValueError):
        BealsWeight(np.inf, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        BealsWeight(0.0, -0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        BealsWeight(0.0, np.nan, 0.0, 0.0)
    grid = grid3d(8, EXTENT)
    with pytest.raises(ValueError):
        beals_norm(np.ones(grid.shape), grid, BealsWeight(0.0, np.inf, 0.0, 0.0))
    with pytest.raises(ValueError):
        beals_norm(np.ones((4, 4, 4)), grid, BealsWeight())


def test_membership_flip_across_borderline_weight():
    # s + k1 < -m - 1/2 = 2.1 separates member from non-member for f(y1)
    # of order m = -2.6.
    ladder = (32, 64, 128)
    member = membership_scan(
        plane_wave_field, BealsWeight(0.0, 2.0, 0.0, 0.0), ladder,
        cutoff=separable_cutoff,
    )
    assert member.verdict == "member"
    assert member.growth_exponent <= 0.25
    non = membership_scan(
        plane_wave_field, BealsWeight(0.0, 2.3, 0.0, 0.0), ladder,
        cutoff=separable_cutoff,
    )
    assert non.verdict == "non-member"
    assert non.growth_exponent > 0.25
    assert member.resolutions == ladder
    assert len(member.norms) == len(ladder)


def test_smooth_field_member_at_infinite_weight():
    # Nyquist must clear the peak of <eta>^12 exp(-eta^2) before norms settle
    scan = membership_scan(
        gaussian_field,
        BealsWeight(0.0, np.inf, np.inf, np.inf),
        (32, 64, 128),
    )
    assert scan.verdict == "member"
    assert scan.weight.k1 == INF_EXPONENT_PROXY


def test_scan_flags_wildly_oscillating_norms():
    def broken(n):
        vals, grid = plane_wave_field(n)
        return vals * (32.0 / n) ** 2, grid

    scan = membership_scan(
        broken, BealsWeight(0.0, 1.0, 0.0, 0.0), (32, 64, 128),
        cutoff=separable_cutoff,
    )
    assert scan.verdict == "inconclusive"


def test_scan_input_validation():
    with pytest.raises(ValueError):
        membership_scan(plane_wave_field, BealsWeight(), (64, 32))
    with pytest.raises(ValueError):
        membership_scan(plane_wave_field, BealsWeight(), (64,))

    def empty(n):
        grid = grid3d(n, EXTENT)
        return np.zeros(grid.shape), grid

    with pytest.raises(ValueError):
        membership_scan(empty, BealsWeight(), (16, 32))


def test_inclusion_trades_s_for_k():
    # membership at (s+1, k) must imply it at (s, k+a) with a summing to 1
    upper = membership_scan(
        plane_wave_field, BealsWeight(1.0, 0.7, 0.0, 0.0), (32, 64, 128),
        cutoff=separable_cutoff,
    )
    lower = membership_scan(
        plane_wave_field, BealsWeight(0.0, 1.2, 0.25, 0.25), (32, 64, 128),
        cutoff=separable_cutoff,
    )
    assert upper.verdict == "member"
    if upper.verdict == "member":
        assert lower.verdict == "member"


def test_product_ratio_stable_under_doubling():
    def pair(n):
        vals, grid = plane_wave_field(n)
        return vals, vals, grid

    ratios = algebra_scan(
        pair, BealsWeight(0.0, 2.0, 2.0, 2.0), (32, 64), cutoff=separable_cutoff
    )
    assert np.all(ratios > 0.0)
    assert abs(ratios[1] / ratios[0] - 1.0) <= 0.2


def test_smooth_factor_obeys_sup_bound():
    vals, grid = plane_wave_field(64)
    y1, y2, y3 = grid.meshes()
    smooth = np.exp(-(y1**2 + y2**2 + y3**2) / 256.0)
    c = separable_cutoff(grid)
    w = BealsWeight(0.0, 2.0, 0.0, 0.0)
    nv = beals_norm(vals, grid, w, c)
    nuv = beals_norm(smooth * vals, grid, w, c)
    assert nuv <= 1.1 * np.max(np.abs(smooth)) * nv
    assert nuv >= 0.5 * nv


def test_zero_product_ratio():
    grid = grid3d(16, EXTENT)
    z = np.zeros(grid.shape)
    assert algebra_check(z, z, grid, BealsWeight(0.0, 1.0, 1.0, 1.0)) == 0.0
