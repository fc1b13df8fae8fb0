"""Three-wave interaction experiments: data, response isolation, cone probes."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from cwlab import interaction
from cwlab.interaction import (
    DEFAULT_FRAME,
    ConeProbe,
    amplitude_band,
    amplitude_scaling,
    band_pass,
    coefficient_recovery,
    cone_amplitude,
    cone_order_estimate,
    crossing_angle,
    default_band,
    default_experiment,
    front_order_estimate,
    high_pass,
    linear_field,
    locate_cone,
    make_three_wave_data,
    nonlinear_response,
    polarization_isolate,
    probe_band_energy,
    ridge_radius,
    run_experiment,
    two_wave_probe,
)
from cwlab.solver import (
    CharFrame,
    NonlinearitySpec,
    SolverConfig,
    SpaceTimeField,
    cubic_nonlinearity,
    grid2d,
    solve,
    z_cutoff,
)
from cwlab.spectral import plateau_window

M = -2.6
EPS = 0.05


def quartic_coupling(a4=1.0):
    return NonlinearitySpec(4, (0.0, 0.0, 0.0, 0.0, a4), z_cutoff)


# ---------------------------------------------------------------- data


def test_single_wave_keeps_profile_shape_under_free_flow(cfg256):
    cfg = replace(
        cfg256,
        solver=SolverConfig(
            dt=cfg256.solver.dt, t0=cfg256.solver.t0, t1=0.5, record_stride=10**9
        ),
        probes=(ConeProbe(t_probe=0.5, angle=np.deg2rad(157.5)),),
    )
    lin = linear_field(cfg, eps=(1.0, 0.0, 0.0))
    t_end = float(lin.times[-1])
    u_ref, _ = make_three_wave_data(cfg.frame, cfg.m, (1.0, 0.0, 0.0), cfg.grid, t_end)
    err = np.max(np.abs(lin.u[-1] - u_ref)) / np.max(np.abs(u_ref))
    assert err < 1e-8


def test_three_fronts_cross_at_origin(cfg256):
    tot = np.zeros(cfg256.grid.shape)
    for j in range(3):
        eps = tuple(1.0 if k == j else 0.0 for k in range(3))
        uj, _ = make_three_wave_data(cfg256.frame, cfg256.m, eps, cfg256.grid, 0.0)
        tot += np.abs(uj)
    idx = np.unravel_index(np.argmax(tot), tot.shape)
    x1, x2 = cfg256.grid.meshes()
    assert abs(x1[idx]) < 1e-12 and abs(x2[idx]) < 1e-12


def test_incoming_front_slopes_match_profile_order(data512):
    for omega in DEFAULT_FRAME.omegas:
        fit = front_order_estimate(data512, omega, t=float(data512.times[0]))
        assert abs(fit.slope - M) < 0.15


def test_data_overlapping_source_gate_rejected(cfg256):
    with pytest.raises(ValueError, match="gate"):
        nonlinear_response(replace(cfg256, solver=replace(cfg256.solver, t0=0.0)))


# ------------------------------------------------------- response nulls


def test_no_coupling_means_no_response(cfg256):
    null = nonlinear_response(replace(cfg256, P=None))
    assert np.max(np.abs(null.u)) < 1e-10
    assert not null.u.any() and not null.ut.any()
    assert null.metadata["stats"]["kicks_applied"] == 0


@pytest.mark.parametrize("points", [128, 256])
def test_response_matches_solver_differencing(points, cfg256, resp256):
    cfg = cfg256 if points == 256 else default_experiment(points=points)
    resp = resp256 if points == 256 else nonlinear_response(cfg)
    u0, ut0 = make_three_wave_data(cfg.frame, cfg.m, (cfg.eps,) * 3, cfg.grid, cfg.solver.t0)
    nl = solve(u0, ut0, cfg.grid, cfg.solver, P=cfg.P)
    lin = solve(u0, ut0, cfg.grid, cfg.solver, P=None)
    assert np.array_equal(resp.times, nl.times)
    for got, a, b in ((resp.u, nl.u, lin.u), (resp.ut, nl.ut, lin.ut)):
        assert np.max(np.abs(got - (a - b))) <= 1e-9 * np.max(np.abs(got))


def test_default_response_kicks_only_while_gate_open(resp256):
    # midpoints of the 326 steps from -1.125 to 3.8 inside |t| < 0.9
    stats = resp256.metadata["stats"]
    assert stats["steps"] == 326
    assert stats["kicks_applied"] == 119
    assert stats["kicks_skipped"] == 326 - 119
    assert stats["exact_jumps"] == 2
    assert 0.0 < stats["max_abs_p"] < np.inf


def test_lookup_of_unrecorded_time_raises(resp256):
    # slices sit at t0 = -1.125 and t1 = 3.8 only
    with pytest.raises(ValueError, match="not recorded"):
        ridge_radius(resp256, 2.0)
    with pytest.raises(ValueError, match="not recorded"):
        cone_amplitude(resp256, ConeProbe(t_probe=2.0, angle=np.deg2rad(157.5)))


def test_two_wave_data_leave_the_cone_probe_silent(cfg256, resp256):
    # with one wave absent the cubic channel needs all three factors, so
    # the probe away from both pair wakes should read essentially nothing
    pair, null_probe = two_wave_probe(cfg256.frame, cfg256.probes[0])
    eps_two = tuple(cfg256.eps if k in pair else 0.0 for k in range(3))
    two = nonlinear_response(cfg256, eps=eps_two)
    e_two = probe_band_energy(two, null_probe)
    e_three = probe_band_energy(resp256, null_probe)
    assert e_two < 1e-3 * e_three


def test_response_is_read_only_and_records_its_input(cfg256, resp256):
    # the diagnostics share one response and extend it from what it records
    assert resp256.metadata["config"] == cfg256
    assert resp256.metadata["eps"] == (cfg256.eps,) * 3
    with pytest.raises(ValueError):
        resp256.u[-1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        resp256.ut[-1] += 1.0


def test_response_confined_to_causal_region_of_the_gate(resp256):
    state = resp256.u[-1]
    t = float(resp256.times[-1])
    x1, x2 = resp256.grid.meshes()
    outside = np.hypot(x1, x2) > 0.9 + (t + 0.9) + 0.3
    assert outside.any()
    assert np.max(np.abs(state[outside])) < 1e-9


# ---------------------------------------------------------- polarization


def test_polarization_of_linear_solve_vanishes(cfg256):
    cfg = replace(cfg256, P=NonlinearitySpec(3, (0.0, 1.0, 0.0, 0.0), z_cutoff))
    iso = polarization_isolate(nonlinear_response(cfg))
    assert np.max(np.abs(iso.u)) < 1e-10


def test_polarization_reuses_a_known_subset_response(monkeypatch, cfg256, resp256, iso256):
    pair, _ = two_wave_probe(cfg256.frame, cfg256.probes[0])
    two = nonlinear_response(cfg256, eps=tuple(cfg256.eps if k in pair else 0.0 for k in range(3)))
    solves = _traced_solves(monkeypatch)
    iso = polarization_isolate(resp256, two)
    # seven subsets: the full one is resp256 and the pair is two
    assert len(solves) == 5
    assert np.array_equal(iso.times, iso256.times)
    assert np.array_equal(iso.u, iso256.u) and np.array_equal(iso.ut, iso256.ut)


def test_polarization_strips_front_riding_energy(cfg256, resp256, iso256):
    def trace_energy(fld):
        t = float(fld.times[-1])
        x1, x2 = fld.grid.meshes()
        bp = band_pass(fld.u[-1], fld.grid, default_band(fld.grid))
        mask = np.zeros_like(bp, dtype=bool)
        for om in cfg256.frame.omegas:
            mask |= np.abs(x1 * om[0] + x2 * om[1] - t) <= 0.4
        return float(np.sum(bp[mask] ** 2))

    assert trace_energy(resp256) > 10.0 * trace_energy(iso256)


# -------------------------------------------------------------- filters


def test_radial_filters_match_complex_fft_reference():
    grid = grid2d(128, 13.5)
    u = np.random.default_rng(7).normal(size=grid.shape)
    rho = np.hypot(*grid.freq_meshes())

    def reference(mask):
        return np.real(np.fft.ifft2(np.fft.fft2(u) * mask))

    lo, hi = 8.0, 20.0
    band = plateau_window(rho - 0.5 * (lo + hi), 0.75 * 0.5 * (hi - lo), 0.5 * (hi - lo))
    bulk = 1.0 - plateau_window(rho, 3.0, 6.0)
    tol = 1e-12 * np.max(np.abs(u))
    assert np.max(np.abs(band_pass(u, grid, (lo, hi)) - reference(band))) <= tol
    assert np.max(np.abs(high_pass(u, grid, 3.0, 6.0) - reference(bulk))) <= tol


# ------------------------------------------------------------- geometry


def test_cone_circle_radius_is_probe_time():
    circle = locate_cone(DEFAULT_FRAME, 0.5)
    assert circle.radius == 0.5


def test_cone_circle_marks_three_tangencies():
    circle = locate_cone(DEFAULT_FRAME, 1.0)
    got = sorted(np.rad2deg(a) % 360 for a in circle.trace_angles)
    assert np.allclose(got, [90.0, 225.0, 315.0], atol=1e-9)


def test_crossing_directions():
    got = {
        (i, j): np.rad2deg(crossing_angle(DEFAULT_FRAME, i, j)) % 360
        for i, j in [(0, 1), (0, 2), (1, 2)]
    }
    assert np.allclose(
        [got[(0, 1)], got[(0, 2)], got[(1, 2)]], [157.5, 22.5, 270.0], atol=1e-9
    )


def test_ridge_sits_on_the_light_circle(cfg256):
    cfg = replace(
        cfg256,
        solver=SolverConfig(
            dt=cfg256.solver.dt, t0=cfg256.solver.t0, t1=0.5, record_stride=10**9
        ),
        probes=(ConeProbe(t_probe=0.5, angle=np.deg2rad(157.5)),),
    )
    resp = nonlinear_response(cfg)
    h = cfg.grid.axes[0].spacing
    assert abs(ridge_radius(resp, 0.5) - 0.5) <= 2.0 * h


# ------------------------------------------------------------ cone order


def test_cone_slope_near_predicted_order(resp256, cfg256):
    fit = cone_order_estimate(resp256, cfg256.probes[0])
    assert abs(fit.slope - (3 * M - 0.5)) < 0.5
    assert not fit.flags


def test_incoming_control_slope(data512):
    fit = front_order_estimate(data512, DEFAULT_FRAME.omegas[0], t=float(data512.times[0]))
    assert abs(fit.slope - M) < 0.15


def test_order_gap_matches_two_m_minus_half(resp512, data512, cfg512):
    cone = cone_order_estimate(resp512, cfg512.probes[0])
    front = front_order_estimate(
        data512, DEFAULT_FRAME.omegas[0], t=float(data512.times[0])
    )
    assert abs((cone.slope - front.slope) - (2 * M - 0.5)) < 0.6


def test_smooth_region_reads_superpolynomial(resp256, cfg256):
    # window radii 0.7..2.3: inside the light disk, clear of the gated
    # emission annulus (its sources sit at |x|<0.9, |t|<0.9, so singular
    # content at t=3.8 lives in radii about 2.56..5.04)
    fit = cone_order_estimate(
        resp256, cfg256.probes[0], center_radius=1.5, half_length=0.8
    )
    assert fit.superpolynomial
    assert fit.slope == -np.inf
    assert "noise_floor" in fit.flags and "insufficient_bins" not in fit.flags


def test_front_fit_with_too_few_bins_is_no_measurement(cfg256):
    # the 64-point slice of half-length 1.2 puts 5 bins in (16, 29.8)
    t0 = cfg256.solver.t0
    u0, ut0 = make_three_wave_data(cfg256.frame, M, (EPS,) * 3, cfg256.grid, t0)
    data = SpaceTimeField(cfg256.grid, np.array([t0]), u0[None], ut0[None], np.zeros(1))
    fit = front_order_estimate(data, DEFAULT_FRAME.omegas[0], t=t0, half_length=1.2)
    assert np.isnan(fit.slope)
    assert "insufficient_bins" in fit.flags
    assert not fit.superpolynomial


def test_front_fit_sizes_its_slice_from_the_band(cfg256, data512):
    # six bins 2.30 apart fill (16, 29.8) wherever they fall: half-length
    # 6 pi / 13.8 = 1.37 at 256; at 512 the band (16, 36) needs only 0.94,
    # so the 1.2 floor stands
    t0 = cfg256.solver.t0
    u0, ut0 = make_three_wave_data(cfg256.frame, M, (EPS,) * 3, cfg256.grid, t0)
    data = SpaceTimeField(cfg256.grid, np.array([t0]), u0[None], ut0[None], np.zeros(1))
    fit = front_order_estimate(data, DEFAULT_FRAME.omegas[0], t=t0)
    assert fit.n_bins >= 6 and not fit.flags
    assert abs(fit.slope - M) < 0.15
    omega, t = DEFAULT_FRAME.omegas[0], float(data512.times[0])
    fit512 = front_order_estimate(data512, omega, t=t)
    assert fit512.slope == front_order_estimate(data512, omega, t=t, half_length=1.2).slope


def test_frame_rotation_leaves_slope_unchanged(cfg256, resp256):
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    omegas = tuple(tuple(rot @ np.array(w)) for w in cfg256.frame.omegas)
    probe = cfg256.probes[0]
    cfg_rot = replace(
        cfg256,
        frame=CharFrame(omegas),
        probes=(replace(probe, angle=probe.angle + np.pi / 2),),
    )
    fit_rot = cone_order_estimate(nonlinear_response(cfg_rot), cfg_rot.probes[0])
    fit = cone_order_estimate(resp256, probe)
    assert abs(fit_rot.slope - fit.slope) < 0.05


# ------------------------------------------------------- amplitude scaling


def test_cubic_coupling_scales_amplitude_cubically(resp256):
    scaling = amplitude_scaling(resp256, [0.25, 0.5, 1.0])
    assert abs(scaling.exponent - 3.0) < 0.15
    assert not scaling.dropped
    assert scaling.eps == (EPS / 4, EPS / 2, EPS)


def test_quartic_coupling_scales_quartically(cfg256):
    resp = nonlinear_response(replace(cfg256, P=quartic_coupling()))
    scaling = amplitude_scaling(resp, [0.25, 0.5, 1.0])
    assert scaling.exponent >= 3.75


def test_scaling_regression_refused_without_coupling(cfg256):
    with pytest.raises(ValueError, match="noise floor"):
        amplitude_scaling(nonlinear_response(replace(cfg256, P=None)), [0.25, 0.5, 1.0])


def test_scaling_needs_three_strengths_spanning_four_fold(resp256):
    with pytest.raises(ValueError):
        amplitude_scaling(resp256, [0.5, 1.0])
    with pytest.raises(ValueError):
        amplitude_scaling(resp256, [0.5, 0.7, 1.0])


# ---------------------------------------------------- coefficient recovery


def test_doubled_coupling_doubles_recovered_coefficient(resp256):
    est = coefficient_recovery(resp256, [NonlinearitySpec(3, (0, 0, 0, 2.0), z_cutoff)])[0]
    assert abs(est.c_hat - 2.0) < 0.10


def test_flipped_coupling_flips_the_cone_wave(resp256):
    est = coefficient_recovery(resp256, [NonlinearitySpec(3, (0, 0, 0, -1.0), z_cutoff)])[0]
    assert abs(est.correlation - (-1.0)) < 0.05


def test_quartic_coupling_recovers_no_cubic_coefficient(cfg256):
    resp_small = nonlinear_response(replace(cfg256, eps=EPS / 4))
    est = coefficient_recovery(resp_small, [quartic_coupling()])[0]
    assert est.c_hat < 0.05


# ------------------------------------------------------------- end to end


def _traced_solves(monkeypatch):
    """Digests of the inputs (kind, data, grid, config, P) of every solve
    interaction makes from here on, in call order."""
    digests = []

    def traced(fn):
        def wrapper(u0, ut0, grid, config, P=None):
            h = hashlib.blake2b(digest_size=16)
            for f in (u0, ut0):
                h.update(f.tobytes())
            h.update(repr((fn.__name__, grid, config, P)).encode())
            digests.append(h.hexdigest())
            return fn(u0, ut0, grid, config, P=P)

        return wrapper

    for name in ("solve", "solve_response"):
        monkeypatch.setattr(interaction, name, traced(getattr(interaction, name)))
    return digests


def test_run_experiment_solves_each_input_once(monkeypatch, cfg256):
    solves = _traced_solves(monkeypatch)
    run_experiment(
        cfg256, trials=(cubic_nonlinearity(2.0), cubic_nonlinearity(-1.0)), polarization=True
    )
    # 12 nonlinear responses (the base run, P = None, the two-wave pair, the
    # five other polarization subsets, two scaling rungs, two trials) and
    # the free field
    assert len(solves) == 13
    assert len(set(solves)) == len(solves)


def test_run_experiment_reproduces_the_claim(cfg256):
    rep = run_experiment(cfg256, trials=(cubic_nonlinearity(2.0),))
    assert abs(rep.eps_exponent - 3.0) < 0.1
    (est,) = rep.coeff_estimates
    assert abs(est.c_hat - 2.0) < 0.05 * 2.0
    assert est.correlation >= 0.95
    assert rep.null_energies["two_wave_ratio"] < 1e-3
    assert rep.null_energies["p_zero_peak"] == 0.0
    assert abs(rep.cone_fit.slope - (3 * M - 0.5)) < 0.5
    incoming = rep.incoming_fit.slope
    assert np.isfinite(incoming) and rep.incoming_fit.n_bins >= 6
    assert abs((rep.cone_fit.slope - incoming) - (2 * M - 0.5)) < 0.6


# ------------------------------------------------------------- validation


def test_probe_inside_exclusion_rejected(cfg256):
    bad = ConeProbe(t_probe=3.8, angle=np.deg2rad(92.0))
    with pytest.raises(ValueError, match="exclusion"):
        replace(cfg256, probes=(bad,))


def test_config_without_a_probe_rejected(cfg256):
    with pytest.raises(ValueError, match="no probe"):
        replace(cfg256, probes=())


def test_order_threshold_enforced(cfg256):
    with pytest.raises(ValueError, match="-5/2"):
        replace(cfg256, m=-2.4)


def test_probe_beyond_run_window_rejected(cfg256):
    late = ConeProbe(t_probe=10.0, angle=np.deg2rad(157.5))
    with pytest.raises(ValueError, match="window"):
        replace(cfg256, probes=(late,))


def test_probe_time_the_run_never_records_rejected(cfg256, resp256):
    # the default run records t0 = -1.125 and t1 = 3.8 only
    n_steps, stride, dt = cfg256.solver.lattice()
    assert n_steps == stride == resp256.metadata["stats"]["steps"]
    assert dt == resp256.metadata["dt"]
    with pytest.raises(ValueError, match="window"):
        replace(cfg256, probes=(ConeProbe(t_probe=2.0, angle=np.deg2rad(157.5)),))
    # recording every step, a step time is accepted and a half step is not
    every = replace(cfg256.solver, record_stride=1)
    t_step = every.t0 + 200 * dt
    replace(cfg256, solver=every, probes=(ConeProbe(t_step, np.deg2rad(157.5)),))
    with pytest.raises(ValueError, match="window"):
        replace(cfg256, solver=every, probes=(ConeProbe(t_step + 0.5 * dt, np.deg2rad(157.5)),))


def test_bands_reject_grids_too_coarse_to_hold_them():
    g128 = grid2d(128, 13.5)
    with pytest.raises(ValueError, match="coarse") as err:
        default_band(g128)
    assert "explicitly" not in str(err.value)
    g64 = grid2d(64, 13.5)
    with pytest.raises(ValueError, match="coarse") as err:
        amplitude_band(g64)
    assert "explicitly" not in str(err.value)


def test_amplitude_band_tracks_the_grid():
    lo, hi = amplitude_band(grid2d(512, 13.5))
    assert lo == 8.0
    assert np.isclose(hi, grid2d(512, 13.5).axes[0].nyquist / 4.0)
