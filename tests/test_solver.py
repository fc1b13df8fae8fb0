from dataclasses import replace

import numpy as np
import pytest

from cwlab.solver import (
    BlowupError,
    CharFrame,
    NonlinearitySpec,
    SolverConfig,
    SourceGate,
    WaveState,
    cubic_nonlinearity,
    duhamel_apply,
    energy,
    grid2d,
    linear_propagate,
    solve,
    solve_response,
    step_semilinear,
    z_cutoff,
)
from cwlab.spectral import bump_window

L = 8.0


def meshes(grid):
    x1, x2 = grid.nodes()
    return x1[:, None], x2[None, :]


def band_limited_noise(grid, seed=0, modes=6):
    rng = np.random.default_rng(seed)
    x1, x2 = meshes(grid)
    u = np.zeros(grid.shape)
    for _ in range(modes):
        k = rng.integers(-5, 6, size=2)
        u += rng.normal() * np.cos(
            2.0 * np.pi * (k[0] * x1 + k[1] * x2) / L + rng.uniform(0, 2 * np.pi)
        )
    return u


# ---------------------------------------------------------------- CharFrame


def test_char_frame_accepts_experiment_directions():
    s = 1.0 / np.sqrt(2.0)
    fr = CharFrame(((0.0, 1.0), (-s, -s), (s, -s)))
    assert abs(np.linalg.det(fr.map)) > 0.1
    # map rows really compute t - x . omega
    y = fr.char_coords(0.3, 0.2, -0.5)
    assert np.isclose(y[0], 0.3 + 0.5)
    # round trip through the inverse chart
    pt = np.array([y[0], y[1], y[2]])
    txx = fr.spacetime_coords(pt)
    assert np.allclose(txx, [0.3, 0.2, -0.5], atol=1e-12)


def test_char_frame_rejects_bad_directions():
    s = 1.0 / np.sqrt(2.0)
    with pytest.raises(ValueError):
        CharFrame(((0.0, 2.0), (-s, -s), (s, -s)))  # not unit
    with pytest.raises(ValueError):
        CharFrame(((0.0, 1.0), (0.0, 1.0), (s, -s)))  # repeated plane


# ------------------------------------------------------- linear propagation


def test_plane_wave_translates():
    grid = grid2d(128, L)
    x1, x2 = meshes(grid)
    for omega in [(0.0, 1.0), (1.0 / np.sqrt(2), 1.0 / np.sqrt(2))]:
        if omega[0] == 0.0:
            f = lambda s: np.cos(3 * 2.0 * np.pi * s / L + 0.4)
            fp = lambda s: -3 * 2.0 * np.pi / L * np.sin(3 * 2.0 * np.pi * s / L + 0.4)
        else:
            w = 2.0 * np.pi * np.sqrt(2.0) / L
            f = lambda s: np.cos(w * s + 0.4)
            fp = lambda s: -w * np.sin(w * s + 0.4)
        phase = -(x1 * omega[0] + x2 * omega[1])
        u0, ut0 = f(phase), fp(phase)
        dt = 0.37
        u1, ut1 = linear_propagate(u0, ut0, grid, dt)
        assert np.max(np.abs(u1 - f(phase + dt))) < 1e-10
        assert np.max(np.abs(ut1 - fp(phase + dt))) < 1e-10


def test_single_mode_oscillates_at_its_frequency():
    grid = grid2d(64, L)
    x1, x2 = meshes(grid)
    xi = np.array([2, 5]) * 2.0 * np.pi / L
    u0 = np.cos(xi[0] * x1 + xi[1] * x2)
    for t in [0.21, 0.9, 2.7]:
        u, _ = linear_propagate(u0, np.zeros_like(u0), grid, t)
        expect = np.cos(np.hypot(*xi) * t) * u0
        assert np.max(np.abs(u - expect)) < 1e-10


def test_energy_conserved_over_many_steps():
    grid = grid2d(64, L)
    u = band_limited_noise(grid, seed=1)
    ut = band_limited_noise(grid, seed=2)
    e0 = energy(u, ut, grid)
    dt = 0.013
    for _ in range(10_000):
        u, ut = linear_propagate(u, ut, grid, dt)
    assert abs(energy(u, ut, grid) - e0) < 1e-10 * e0


def test_time_reversal_composes_to_identity():
    grid = grid2d(64, L)
    u0 = band_limited_noise(grid, seed=3)
    ut0 = band_limited_noise(grid, seed=4)
    u, ut = u0.copy(), ut0.copy()
    for _ in range(100):
        u, ut = linear_propagate(u, ut, grid, 0.05)
    for _ in range(100):
        u, ut = linear_propagate(u, ut, grid, -0.05)
    scale = np.max(np.abs(u0))
    assert np.max(np.abs(u - u0)) < 1e-10 * scale
    assert np.max(np.abs(ut - ut0)) < 1e-10 * scale


def test_finite_propagation_speed():
    grid = grid2d(256, 12.0)
    x1, x2 = meshes(grid)
    r2 = x1**2 + x2**2
    u0 = np.exp(-r2 / (2 * 0.35**2))  # below 1e-13 outside radius 2.72
    t = 1.5
    u, _ = linear_propagate(u0, np.zeros_like(u0), grid, t)
    outside = np.sqrt(r2) > 2.72 + t + 2 * grid.axes[0].spacing
    assert np.max(np.abs(u[outside])) < 1e-9


# ------------------------------------------------------------ nonlinear step


def test_zero_nonlinearity_matches_linear():
    grid = grid2d(64, L)
    u0 = band_limited_noise(grid, seed=5)
    ut0 = band_limited_noise(grid, seed=6)
    P = NonlinearitySpec(degree=3, coeffs=(0.0, 0.0, 0.0, 0.0), cutoff=z_cutoff)
    s = step_semilinear(WaveState(grid, 0.0, u0, ut0), 0.02, P)
    ul, utl = linear_propagate(u0, ut0, grid, 0.02)
    assert np.max(np.abs(s.u - ul)) < 1e-13
    assert np.max(np.abs(s.ut - utl)) < 1e-13


def test_manufactured_solution_second_order_in_dt():
    # u* = cos(w t) cos(xi x1) forced by (xi^2 - w^2) u*, an exact solution
    grid = grid2d(64, L)
    x1, _ = meshes(grid)
    xi = 2.0 * 2.0 * np.pi / L
    w = 2.3

    forcing = lambda t, X1, X2: (xi**2 - w**2) * np.cos(w * t) * np.cos(xi * X1)
    P = NonlinearitySpec(degree=3, coeffs=(forcing, 0.0, 0.0, 0.0), cutoff=None)

    mode = np.cos(xi * x1) * np.ones(grid.shape)

    def error_at(dt, t_end=1.0):
        state = WaveState(grid, 0.0, mode.copy(), np.zeros(grid.shape))
        n = int(round(t_end / dt))
        for _ in range(n):
            state = step_semilinear(state, t_end / n, P)
        exact = np.cos(w * t_end) * mode
        return np.max(np.abs(state.u - exact))

    e1, e2 = error_at(0.02), error_at(0.01)
    order = np.log2(e1 / e2)
    assert 1.7 < order < 2.3


def test_blow_up_raises():
    grid = grid2d(32, L)
    x1, x2 = meshes(grid)
    u0 = 1e3 * np.exp(-(x1**2 + x2**2))
    P = cubic_nonlinearity(a3=50.0, cutoff=None)
    state = WaveState(grid, 0.0, u0, np.zeros(grid.shape))
    with pytest.raises(BlowupError):
        for _ in range(200):
            state = step_semilinear(state, 0.05, P)


# -------------------------------------------------------------------- solve


def three_wave_modes(grid):
    """Band-limited pulses on the three characteristic planes."""
    x1, x2 = meshes(grid)
    s = 1.0 / np.sqrt(2.0)
    omegas = ((0.0, 1.0), (-s, -s), (s, -s))
    ks = [3 * 2.0 * np.pi / L, 2 * np.sqrt(2.0) * 2.0 * np.pi / L,
          2 * np.sqrt(2.0) * 2.0 * np.pi / L]

    def f(j, s_arr):
        return np.cos(ks[j] * s_arr + 0.3 * j)

    def fp(j, s_arr):
        return -ks[j] * np.sin(ks[j] * s_arr + 0.3 * j)

    return omegas, f, fp, (x1, x2)


def test_linear_three_waves_superpose():
    grid = grid2d(64, L)
    omegas, f, fp, (x1, x2) = three_wave_modes(grid)
    cfg = SolverConfig(dt=0.03, t0=-1.2, t1=0.5, record_stride=8)
    u0 = sum(f(j, cfg.t0 - (x1 * w[0] + x2 * w[1])) for j, w in enumerate(omegas))
    ut0 = sum(fp(j, cfg.t0 - (x1 * w[0] + x2 * w[1])) for j, w in enumerate(omegas))
    out = solve(u0, ut0, grid, cfg, P=None)
    assert out.times[0] == -1.2 and np.isclose(out.times[-1], 0.5)
    for i, t in enumerate(out.times):
        expect = sum(
            f(j, t - (x1 * w[0] + x2 * w[1])) for j, w in enumerate(omegas)
        )
        assert np.max(np.abs(out.u[i] - expect)) < 1e-8


def _dbump(s_arr, width=0.35):
    # derivative of bump_window(s/width) by centered difference
    eps = 1e-5
    return (bump_window((s_arr + eps) / width) - bump_window((s_arr - eps) / width)) / (2 * eps)


def test_gate_keeps_solution_linear_while_disjoint():
    # fronts stay at distance >= 1.6 from the gate ball for the whole run,
    # so the gated cubic term never sees the waves; pulses are Gaussian so
    # both their spatial tails and their dealiasing ringing sit below the
    # tolerance once cubed
    grid = grid2d(64, L)
    omegas, _, _, (x1, x2) = three_wave_modes(grid)
    shift, w0 = 2.5, 0.3
    g = lambda s_arr: np.exp(-(s_arr**2) / (2 * w0**2))
    gp = lambda s_arr: -s_arr / w0**2 * np.exp(-(s_arr**2) / (2 * w0**2))
    # periodize each pulse along its wave coordinate (period L for the axis
    # wave, L/sqrt(2) for diagonals) so the box seam carries no jump
    periods = (L, L / np.sqrt(2.0), L / np.sqrt(2.0))

    def per(fn, s_arr, period):
        return sum(fn(s_arr + k * period) for k in range(-2, 3))

    u0 = sum(
        per(g, shift - (x1 * w[0] + x2 * w[1]), periods[j])
        for j, w in enumerate(omegas)
    )
    ut0 = sum(
        per(gp, shift - (x1 * w[0] + x2 * w[1]), periods[j])
        for j, w in enumerate(omegas)
    )
    cfg = SolverConfig(dt=0.03, t0=-1.1, t1=0.2, record_stride=16)

    nl = solve(u0, ut0, grid, cfg, P=cubic_nonlinearity(a3=5.0))
    lin = solve(u0, ut0, grid, cfg, P=None)
    scale = np.max(np.abs(lin.u[-1]))
    assert np.max(np.abs(nl.u[-1] - lin.u[-1])) < 1e-8 * scale


def test_cubic_response_scales_like_amplitude_cubed():
    grid = grid2d(128, L)
    x1, x2 = meshes(grid)
    base = np.exp(-(x1**2 + x2**2) / (2 * 0.3**2))
    cfg = SolverConfig(dt=0.015, t0=-1.05, t1=0.4, record_stride=32)
    P = cubic_nonlinearity(a3=1.0)

    def response(eps):
        nl = solve(eps * base, np.zeros(grid.shape), grid, cfg, P=P)
        lin = solve(eps * base, np.zeros(grid.shape), grid, cfg, P=None)
        return nl.u[-1] - lin.u[-1]

    r1, r2 = response(0.05), response(0.10)
    ratio = np.max(np.abs(r2)) / np.max(np.abs(r1))
    assert abs(ratio - 8.0) < 0.15 * 8.0


def _pulse(grid):
    x1, x2 = meshes(grid)
    return 0.3 * np.exp(-(x1**2 + x2**2) / (2 * 0.3**2))


def test_gate_that_never_opens_is_free_flow():
    # no step midpoint (-1.185 + 0.03 i) falls inside |t| < 2e-4
    grid = grid2d(64, L)
    u0 = _pulse(grid)
    cfg = SolverConfig(dt=0.03, t0=-1.2, t1=0.6, record_stride=10**6)
    P = cubic_nonlinearity(a3=1e6, cutoff=SourceGate(flat=1e-4, edge=2e-4))
    out = solve(u0, np.zeros(grid.shape), grid, cfg, P=P)
    stats = out.metadata["stats"]
    assert stats["kicks_applied"] == 0 and stats["kicks_skipped"] == stats["steps"] == 60
    u1, ut1 = linear_propagate(u0, np.zeros(grid.shape), grid, cfg.t1 - cfg.t0)
    assert np.max(np.abs(out.u[-1] - u1)) < 1e-12 * np.max(np.abs(u0))
    assert np.max(np.abs(out.ut[-1] - ut1)) < 1e-12 * np.max(np.abs(u0))


def test_generic_cutoff_kicks_on_every_step():
    # the same gate behind a plain callable: every step kicks, and the
    # kicks outside the gate's support add exactly nothing
    grid = grid2d(64, L)
    u0 = _pulse(grid)
    cfg = SolverConfig(dt=0.03, t0=-1.2, t1=0.6, record_stride=20)
    gated = solve(u0, np.zeros(grid.shape), grid, cfg, P=cubic_nonlinearity(5.0))
    opaque = cubic_nonlinearity(5.0, cutoff=lambda t, X1, X2: z_cutoff(t, X1, X2))
    every = solve(u0, np.zeros(grid.shape), grid, cfg, P=opaque)
    assert every.metadata["stats"]["kicks_applied"] == 60
    assert gated.metadata["stats"]["kicks_applied"] == 50  # t_mid > -0.9 from i = 10
    assert np.max(np.abs(every.u - gated.u)) < 1e-12 * np.max(np.abs(gated.u))


def lawson_reference(u0, ut0, grid, cfg, P, response):
    """Records of a plain full-grid Strang/Lawson stepper: u_lin and w on the
    whole rfft2 spectrum, every step kicked (the gate's own zeros stand in
    for skipped kicks), no box, no block, no jumps."""
    n = int(round((cfg.t1 - cfg.t0) / cfg.dt))
    dt = (cfg.t1 - cfg.t0) / n
    g = grid.axes[0]
    kx, ky = g.freqs()[:, None], np.abs(g.freqs()[None, : g.points // 2 + 1])
    k = np.hypot(kx, ky)
    mask = (np.abs(kx) <= cfg.dealias * g.nyquist) & (ky <= cfg.dealias * g.nyquist)
    c, s = np.cos(0.5 * k * dt), np.sin(0.5 * k * dt)
    sinc = np.where(k > 0, s / np.where(k > 0, k, 1.0), 0.5 * dt)
    x1, x2 = meshes(grid)
    lin = [np.fft.rfft2(u0), np.fft.rfft2(ut0)]
    w = [np.zeros_like(lin[0]), np.zeros_like(lin[0])]

    def half(f):
        return [c * f[0] + sinc * f[1], c * f[1] - k * s * f[0]]

    def record(i):
        return [np.fft.irfft2(w[i] if response else lin[i] + w[i], s=grid.shape)]

    us, uts = record(0), record(1)
    for i in range(n):
        lin, w = half(lin), half(w)
        u = np.fft.irfft2(mask * (lin[0] + w[0]), s=grid.shape)
        w[1] = w[1] + dt * mask * np.fft.rfft2(P(cfg.t0 + (i + 0.5) * dt, x1, x2, u))
        lin, w = half(lin), half(w)
        if (i + 1) % cfg.record_stride == 0:
            us, uts = us + record(0), uts + record(1)
    return np.array(us), np.array(uts)


_OPAQUE_GATE = cubic_nonlinearity(5.0, cutoff=lambda t, X1, X2: z_cutoff(t, X1, X2))


@pytest.mark.parametrize("points", [64, 128])
@pytest.mark.parametrize(
    "case, P, dealias, stride, response",
    [
        ("gated response", cubic_nonlinearity(5.0), 2.0 / 3.0, 10**6, True),
        ("plain-callable cutoff", _OPAQUE_GATE, 2.0 / 3.0, 10**6, True),
        ("undealiased", cubic_nonlinearity(5.0), 1.0, 10**6, True),
        ("solve, every step recorded", cubic_nonlinearity(5.0), 2.0 / 3.0, 1, False),
    ],
)
def test_pruned_loop_matches_full_grid_stepper(points, case, P, dealias, stride, response):
    grid = grid2d(points, L)
    h = grid.axes[0].spacing
    u0 = _pulse(grid)
    ut0 = 0.5 * np.roll(u0, points // 16, axis=1)  # no mirror symmetry
    cfg = SolverConfig(dt=0.9 * h / np.pi, t0=-1.2, t1=0.6, dealias=dealias,
                       record_stride=stride)
    n = int(round((cfg.t1 - cfg.t0) / cfg.dt))
    cfg = replace(cfg, dt=(cfg.t1 - cfg.t0) / n, record_stride=min(stride, n))
    out = (solve_response if response else solve)(u0, ut0, grid, cfg, P=P)
    ref_u, ref_ut = lawson_reference(u0, ut0, grid, cfg, P, response)
    for got, ref in ((out.u, ref_u), (out.ut, ref_ut)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    stats = out.metadata["stats"]
    kx, ky = grid.axes[0].freqs(), 2.0 * np.pi * np.fft.rfftfreq(points, d=h)
    cut = dealias * grid.axes[0].nyquist
    assert stats["block"] == (np.count_nonzero(np.abs(kx) <= cut), np.count_nonzero(ky <= cut))
    inside = np.count_nonzero(np.abs(grid.axes[0].nodes()) < z_cutoff.edge)
    assert stats["box"] == ((points, points) if P is _OPAQUE_GATE else (inside, inside))
    assert stats["dt_margin"] == pytest.approx(cfg.dt * np.pi / h, rel=1e-12)
    if not response:
        assert np.array_equal(out.u[0], u0) and np.array_equal(out.ut[0], ut0)


# ------------------------------------------------------------------ duhamel


def test_duhamel_zero_forcing_is_zero():
    grid = grid2d(32, L)
    cfg = SolverConfig(dt=0.05, t0=-1.1, t1=0.3)
    out = duhamel_apply(lambda t, X1, X2: np.zeros(grid.shape), grid, cfg)
    assert np.max(np.abs(out.u)) == 0.0


def test_duhamel_single_step_matches_mode_kernel():
    # forcing = one lattice mode during one step acts like a velocity impulse
    grid = grid2d(64, L)
    x1, x2 = meshes(grid)
    xi = np.array([1, 2]) * 2.0 * np.pi / L
    mode = np.cos(xi[0] * x1 + xi[1] * x2)
    cfg = SolverConfig(dt=0.02, t0=-1.1, t1=0.5)
    n = int(round((cfg.t1 - cfg.t0) / cfg.dt))
    dt = (cfg.t1 - cfg.t0) / n
    s_mid = cfg.t0 + 0.5 * dt  # first step's kick time

    def forcing(t, X1, X2):
        if abs(t - s_mid) < 0.25 * dt:
            return mode
        return np.zeros(grid.shape)

    out = duhamel_apply(forcing, grid, cfg)
    kmag = np.hypot(*xi)
    # a one-step impulse is exact: only the kick touches the zero state and
    # afterwards the mode evolves by the exact multiplier
    expect = dt * np.sin(kmag * (cfg.t1 - s_mid)) / kmag * mode
    err = np.max(np.abs(out.u[-1] - expect))
    assert err < 1e-10 * np.max(np.abs(expect))


def test_small_amplitude_first_order_duhamel_matches_solve():
    grid = grid2d(128, L)
    x1, x2 = meshes(grid)
    eps = 0.05
    u0 = eps * np.exp(-(x1**2 + x2**2) / (2 * 0.3**2))
    cfg = SolverConfig(dt=0.015, t0=-1.05, t1=0.4, record_stride=32)
    P = cubic_nonlinearity(a3=1.0)

    nl = solve(u0, np.zeros(grid.shape), grid, cfg, P=P)
    lin = solve(u0, np.zeros(grid.shape), grid, cfg, P=None)
    delta = nl.u[-1] - lin.u[-1]

    # the exact linear flow reproduces u_lin at the kick times
    def u_lin(t):
        u, _ = linear_propagate(u0, np.zeros(grid.shape), grid, t - cfg.t0)
        return u

    forcing = lambda t, X1, X2: z_cutoff(t, X1, X2) * u_lin(t) ** 3
    duh = duhamel_apply(forcing, grid, cfg)

    probe = np.unravel_index(np.argmax(np.abs(duh.u[-1])), grid.shape)
    assert abs(delta[probe] - duh.u[-1][probe]) < 0.05 * abs(duh.u[-1][probe])


# -------------------------------------------------------------- refinement


def test_grid_refinement_is_cauchy():
    cfg = SolverConfig(dt=8.0 / 256 / np.pi * 0.9, t0=-1.05, t1=0.3, record_stride=10 ** 6)
    P = cubic_nonlinearity(a3=1.0)
    sols = {}
    for n in (64, 128, 256):
        grid = grid2d(n, L)
        x1, x2 = meshes(grid)
        u0 = 0.3 * np.exp(-(x1**2 + x2**2) / (2 * 0.12**2))
        sols[n] = solve(u0, np.zeros(grid.shape), grid, cfg, P=P).u[-1]

    d1 = np.linalg.norm(sols[64] - sols[128][::2, ::2]) / np.linalg.norm(sols[128][::2, ::2])
    d2 = np.linalg.norm(sols[128] - sols[256][::2, ::2]) / np.linalg.norm(sols[256][::2, ::2])
    assert d1 / d2 >= 3.0


def test_config_validation():
    grid = grid2d(32, L)
    late = SolverConfig(dt=0.05, t0=-0.5, t1=0.5)  # t0 must precede the gate
    with pytest.raises(ValueError, match="gate"):
        solve(np.zeros(grid.shape), np.zeros(grid.shape), grid, late, P=cubic_nonlinearity())
    for t0 in (0.5, 0.6):
        with pytest.raises(ValueError, match="t0 < t1"):
            SolverConfig(dt=0.1, t0=t0, t1=0.5)
    with pytest.raises(ValueError):
        SolverConfig(dt=-0.1, t0=-1.2, t1=0.5)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t0=-1.2, t1=0.5, record_stride=0)
    cfg = SolverConfig(dt=0.2, t0=-1.2, t1=0.5)  # dt far above h/pi
    with pytest.raises(ValueError):
        solve(np.zeros(grid.shape), np.zeros(grid.shape), grid, cfg)
