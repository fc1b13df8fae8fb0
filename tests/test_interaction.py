"""Three-wave interaction experiments: data, response isolation, cone probes."""

import hashlib
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from conftest import lawson_reference

from cwlab import interaction, solver
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
    _gate_box,
)
from cwlab.profiles import SymbolSpec, synthesize_profile
from cwlab.spectral import Grid1D, plateau_window, trig_modes

M = -2.6
EPS = 0.05


def quartic_coupling(a4=1.0):
    return NonlinearitySpec((0.0, 0.0, 0.0, 0.0, a4), z_cutoff)


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


@pytest.mark.parametrize("p, q", [(0, 1), (-1, -1), (1, -1), (2, 1), (1, -3)])
def test_lattice_view_reads_the_line_at_p_i_plus_q_j(p, q):
    n = 64
    line = np.random.default_rng(7).standard_normal(n)
    # the whole grid, off-centre boxes (the first spans more than one period
    # of the line for every (p, q) but (0, 1)), a single row and a single node
    boxes = [(slice(0, n), slice(0, n)), (slice(5, 61), slice(17, 60)),
             (slice(40, 41), slice(3, 50)), (slice(9, 10), slice(33, 34))]
    for box in boxes:
        rows, cols = (np.arange(b.start, b.stop) for b in box)
        view = interaction._lattice_view(line, interaction._lattice_geometry(p, q, n, box))
        assert np.array_equal(view, line[np.add.outer(p * rows, q * cols) % n])
        assert not view.flags.writeable


def _phase_table_data(frame, m, eps, grid, t):
    """The data by the phase-table rule the line rule replaced: each wave's
    modes evaluated at every distinct value of -x . omega over the grid, one
    complex exp per value and mode."""
    g = grid.axes[0]
    nodes = np.arange(g.points)
    u, ut = np.zeros(grid.shape), np.zeros(grid.shape)
    for e, omega in zip(eps, frame.omegas):
        p, q = interaction._integer_direction(omega)
        gprof = Grid1D(g.points, g.extent / float(np.hypot(p, q)))
        cut = min(gprof.nyquist / 2.0, interaction.DATA_CUTOFF)
        eta = gprof.freqs()
        coef = trig_modes(synthesize_profile(SymbolSpec(m), gprof, cutoff=cut).values)
        coef = coef * (1.0 - plateau_window(eta, *interaction.PROFILE_TRIM))
        kmesh = np.add.outer(p * nodes, q * nodes)
        kk = np.arange(kmesh.min(), kmesh.max() + 1)
        s = -g.start * (omega[0] + omega[1]) - kk * (g.spacing / float(np.hypot(p, q)))
        phases = np.exp(1j * np.outer(s - gprof.start, eta))
        c = coef * np.exp(1j * eta * t)
        u += e * np.real(phases @ c)[kmesh - kmesh.min()]
        ut += e * np.real(phases @ (1j * eta * c))[kmesh - kmesh.min()]
    return u, ut


def test_data_match_the_phase_table_rule(cfg256):
    skew = CharFrame(((2.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)),
                      (-np.sqrt(0.5), -np.sqrt(0.5)), (0.0, -1.0)))
    eps = (0.05, -0.03, 0.07)
    # t0, a time off the grid's and the run's lattices, and a (2, 1) direction
    for frame, t in ((cfg256.frame, cfg256.solver.t0), (cfg256.frame, 0.7372), (skew, -0.4113)):
        got = make_three_wave_data(frame, cfg256.m, eps, cfg256.grid, t)
        ref = _phase_table_data(frame, cfg256.m, eps, cfg256.grid, t)
        for a, b in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_cold_data_build_holds_only_its_result():
    # nothing 2D is built beside u and ut, and nothing is cached: the build
    # keeps nothing besides the result
    grid = grid2d(512, 13.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        u, ut = make_three_wave_data(DEFAULT_FRAME, M, (EPS,) * 3, grid, 0.25)
        held, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    result = u.nbytes + ut.nbytes
    assert peak < 2 * result
    assert held <= result + 2**16


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


def _varying_a3(t, x1, x2):
    return 1.0 + 0.5 * np.cos(x1 - 2.0 * x2) * np.exp(-t * t)


_COUPLINGS = {
    "cubic": (cubic_nonlinearity(1.0), (EPS,) * 3),
    "callable-a3": (cubic_nonlinearity(_varying_a3), (EPS,) * 3),
    "quartic": (quartic_coupling(), (EPS,) * 3),
    "two-wave": (cubic_nonlinearity(1.0), (EPS, EPS, 0.0)),
    "mixed-sign": (cubic_nonlinearity(-2.0), (EPS, -0.03, 0.07)),
}


@pytest.mark.parametrize(
    "points, coupling", [(128, name) for name in _COUPLINGS] + [(256, "cubic")]
)
def test_response_matches_the_full_grid_stepper(points, coupling, cfg256, resp256):
    # the response solves zero data under P(u_lin + w), with u_lin read on
    # P's box from the data's lines; the reference steps u_lin beside w on
    # the whole spectrum, kicking w by P(u_lin + w) on every step
    P, eps = _COUPLINGS[coupling]
    cfg = replace(cfg256 if points == 256 else default_experiment(points=points), P=P)
    resp = resp256 if cfg == cfg256 and eps == (EPS,) * 3 else nonlinear_response(cfg, eps)
    data = make_three_wave_data(cfg.frame, cfg.m, eps, cfg.grid, cfg.solver.t0)
    # the run records t0 and t1; the reference records every stride-th step
    run = replace(cfg.solver, record_stride=resp.metadata["stats"]["steps"])
    ref_u, ref_ut = lawson_reference(*data, cfg.grid, run, P, response=True)
    for got, ref in ((resp.u, ref_u), (resp.ut, ref_ut)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_default_response_kicks_only_while_gate_open(resp256):
    # midpoints of the 217 steps from -1.125 to 3.8 inside |t| < 0.9
    stats = resp256.metadata["stats"]
    assert stats["steps"] == 217
    assert stats["kicks_applied"] == 79
    assert stats["kicks_skipped"] == 217 - 79
    assert stats["exact_jumps"] == 2
    assert 0.0 < stats["max_abs_p"] < np.inf


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that every call through the attribute is counted."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_response_builds_its_wave_lines_and_gate_box_once(cfg256, monkeypatch):
    # the coupling builds what its kicks read when it is made, not per kick,
    # for the response and for its channel alike
    lines = _count_calls(monkeypatch, interaction, "_wave_lines")
    boxes = _count_calls(monkeypatch, interaction, "_gate_box")
    resp = nonlinear_response(cfg256)
    assert resp.metadata["stats"]["kicks_applied"] == 79
    assert len(lines) == len(boxes) == 1
    iso = polarization_isolate(resp)
    assert iso.metadata["stats"]["kicks_applied"] == 79
    assert len(lines) == len(boxes) == 2


def test_default_step_is_converged_under_halving(cfg256, resp256, iso256):
    # halving the default dt (1.35 h/pi) moves the t1 fields by 3.3e-8 of
    # their maximum in u and 3.8e-8 in u_t (second order: 1.6e-8 and 1.9e-8
    # at 0.9 h/pi), the cone slope by 1.4e-6 and the channel's by 5.4e-7
    half = replace(cfg256, solver=replace(cfg256.solver, dt=0.5 * resp256.metadata["dt"]))
    resp = nonlinear_response(half)
    assert resp.metadata["stats"]["steps"] == 2 * resp256.metadata["stats"]["steps"]
    for a, b in ((resp.u, resp256.u), (resp.ut, resp256.ut)):
        assert np.max(np.abs(a[-1] - b[-1])) <= 2e-7 * np.max(np.abs(b[-1]))
    probe = cfg256.probes[0]
    for fine, coarse in ((resp, resp256), (polarization_isolate(resp), iso256)):
        slope = cone_order_estimate(fine, probe).slope
        assert abs(slope - cone_order_estimate(coarse, probe).slope) <= 1e-5


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
    assert resp256.metadata["build"] is nonlinear_response
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


# ------------------------------------------------------ the x1-even path


def _path(fld):
    return fld.metadata["stats"]["path"]


def _rotated(cfg):
    """cfg with its frame and probe turned by 90 degrees."""
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    omegas = tuple(tuple(rot @ np.array(w)) for w in cfg.frame.omegas)
    probe = cfg.probes[0]
    return replace(cfg, frame=CharFrame(omegas),
                   probes=(replace(probe, angle=probe.angle + np.pi / 2),))


def test_mirror_symmetric_responses_take_the_even_path(resp256, iso256):
    # the standard frame sends wave 0 to itself and swaps waves 1 and 2
    # under x1 -> -x1: with equal eps on the pair, constant coefficients and
    # a gate whose box is centred on x1 = 0, the response and the channel
    # stay even, and the loop holds the fold's even half alone
    cfg = default_experiment(points=128)
    assert _path(resp256) == _path(iso256) == "even"
    assert _path(nonlinear_response(replace(cfg, P=quartic_coupling()))) == "even"
    # the channel's source is a3 times the unit waves' product, even at any
    # eps of the data, so the channels of unequal-eps responses are even too
    for name in ("two-wave", "mixed-sign"):
        P, eps = _COUPLINGS[name]
        assert _path(polarization_isolate(nonlinear_response(replace(cfg, P=P), eps))) == "even"
    # P is evaluated on the 35 x 35 box's rows at and above x1 = 0
    assert resp256.metadata["stats"]["box"] == (18, 35)


def test_responses_without_a_proof_of_symmetry_take_the_general_path():
    cfg = default_experiment(points=128)
    for name in ("callable-a3", "two-wave", "mixed-sign"):
        P, eps = _COUPLINGS[name]
        resp = nonlinear_response(replace(cfg, P=P), eps)
        assert _path(resp) == "general", name
        if name == "callable-a3":  # the channel's source reads a3 too
            assert _path(polarization_isolate(resp)) == "general"
    assert _path(nonlinear_response(_rotated(cfg))) == "general"
    # a grid off centre by h / 20: the gate's box is still index-symmetric
    # about row n / 2, but x1 -> -x1 sends no node to a node
    g = cfg.grid.axes[0]
    off = Grid1D(g.points, g.extent, start=g.start + 0.05 * g.spacing)
    off_cfg = replace(cfg, grid=solver.GridND((off, off)))
    rows = _gate_box(cfg.P.cutoff, off_cfg.grid)[0][0]
    assert rows.start + rows.stop - 1 == g.points
    assert _path(nonlinear_response(off_cfg)) == "general"
    ungated = replace(cfg, P=cubic_nonlinearity(1.0, cutoff=None))
    assert _path(nonlinear_response(ungated)) == "general"
    # data: the coupling says it is even, but the data's block is not
    P = interaction._ShiftedCoupling(cfg.P.coeffs, cfg.P.cutoff, frame=cfg.frame, m=cfg.m,
                                     grid=cfg.grid, eps=(EPS,) * 3)
    assert P._x1_even
    data = make_three_wave_data(cfg.frame, cfg.m, (EPS,) * 3, cfg.grid, cfg.solver.t0)
    assert _path(solve(*data, cfg.grid, cfg.solver, P=P)) == "general"


# The even path and the general one differ by roundoff alone: on the default
# 256-point response at t1 by 6.7e-15 of the maximum in u and 1.1e-14 in u_t,
# the same to two digits with the kick's products summed in another order
# (each inner sum split into even and odd terms) and with numpy's AVX2 and
# AVX-512 loops off.  The bound keeps nine times that.
EVEN_AGREEMENT = 1e-13


def test_even_path_agrees_with_the_general_path(cfg256, resp256):
    # a3 as a constant callable is the same coupling, but no callable is
    # proved even, so it takes the general path
    ref = nonlinear_response(replace(cfg256, P=cubic_nonlinearity(lambda t, x1, x2: 1.0)))
    assert _path(resp256) == "even" and _path(ref) == "general"
    assert resp256.metadata["stats"]["kick_macs"] == 749_232
    assert ref.metadata["stats"]["kick_macs"] == 1_486_424
    for got, want in ((resp256.u[-1], ref.u[-1]), (resp256.ut[-1], ref.ut[-1])):
        assert np.max(np.abs(got - want)) <= EVEN_AGREEMENT * np.max(np.abs(want))


# ---------------------------------------------------------- polarization


def test_polarization_of_linear_solve_vanishes(cfg256):
    cfg = replace(cfg256, P=NonlinearitySpec((0.0, 1.0, 0.0, 0.0), z_cutoff))
    iso = polarization_isolate(nonlinear_response(cfg))
    assert np.max(np.abs(iso.u)) < 1e-10


def _seven_subset_sum(resp):
    """The inclusion-exclusion oracle of the trilinear channel: the sum over
    nonempty data subsets S of (-1)^(3-|S|) w_S, with w_S the nonlinear
    response of the subset's data and resp the full subset's.  Single- and
    pairwise-interaction terms enter with signs summing to zero."""
    config, eps = resp.metadata["config"], resp.metadata["eps"]
    acc_u, acc_ut = np.zeros_like(resp.u), np.zeros_like(resp.ut)
    for size in (1, 2, 3):
        for subset in combinations(range(3), size):
            sub = tuple(eps[j] if j in subset else 0.0 for j in range(3))
            w = resp if sub == eps else nonlinear_response(config, sub)
            acc_u += (-1) ** (3 - size) * w.u
            acc_ut += (-1) ** (3 - size) * w.ut
    meta = {"frame": config.frame}
    return SpaceTimeField(resp.grid, resp.times, acc_u, acc_ut, metadata=meta)


def _t1_gap(iso, oracle):
    """Largest t1 difference of channel and oracle, relative to the
    oracle's maximum, in u and in u_t."""
    return tuple(
        float(np.max(np.abs(a[-1] - b[-1])) / np.max(np.abs(b[-1])))
        for a, b in ((iso.u, oracle.u), (iso.ut, oracle.ut))
    )


def test_channel_matches_the_seven_subset_sum(cfg256, resp256, iso256):
    # the sum adds the higher Picard iterates of the triple products,
    # measured at 3.8e-5 of the maximum in u and 3.5e-5 in u_t; the cone
    # slopes differ by 2.0e-4
    oracle = _seven_subset_sum(resp256)
    assert max(_t1_gap(iso256, oracle)) <= 1e-4
    probe = cfg256.probes[0]
    slope = cone_order_estimate(iso256, probe).slope
    assert abs(slope - cone_order_estimate(oracle, probe).slope) <= 1e-3


def test_channel_gap_to_the_sum_is_second_order_in_eps():
    # the remainder is O(eps^2) relative to the channel: halving eps cuts
    # the gap by 4 (measured 4.00 in u and in u_t, at 128 points as at 256)
    cfg = default_experiment(points=128)
    gaps = []
    for eps in (EPS, EPS / 2):
        resp = nonlinear_response(replace(cfg, eps=eps))
        gaps.append(_t1_gap(polarization_isolate(resp), _seven_subset_sum(resp)))
    for g, g_half in zip(*gaps):
        assert 3.5 <= g / g_half <= 4.5


def test_polarization_is_one_solve(monkeypatch, resp256, iso256):
    solves = _traced_solves(monkeypatch)
    iso = polarization_isolate(resp256)
    assert [name for name, _ in solves] == ["solve"]
    assert np.array_equal(iso.u, iso256.u) and np.array_equal(iso.ut, iso256.ut)


def test_channel_records_its_input_and_the_solve(cfg256, resp256, iso256):
    assert iso256.metadata["config"] == cfg256
    assert iso256.metadata["frame"] == cfg256.frame
    assert iso256.metadata["eps"] == resp256.metadata["eps"]
    assert np.array_equal(iso256.times, resp256.times)
    stats, base = iso256.metadata["stats"], resp256.metadata["stats"]
    for key in ("steps", "kicks_applied", "kicks_skipped", "box"):
        assert stats[key] == base[key]
    assert 0.0 < stats["max_abs_p"] < np.inf
    with pytest.raises(ValueError):
        iso256.u[-1, 0, 0] = 1.0


def test_channel_evaluates_a_callable_coupling(cfg256, resp256, iso256):
    def a3(t, x1, x2):
        return np.full(np.broadcast_shapes(np.shape(x1), np.shape(x2)), -2.0)

    # the channel reads only the config and eps its response records
    meta = dict(resp256.metadata, config=replace(cfg256, P=cubic_nonlinearity(a3)))
    iso = polarization_isolate(replace(resp256, metadata=meta))
    for got, ref in ((iso.u, iso256.u), (iso.ut, iso256.ut)):
        assert np.max(np.abs(got + 2.0 * ref)) <= 1e-13 * np.max(np.abs(ref))


def test_channel_needs_a_cubic_coupling(resp256, cfg256):
    live_quartic = NonlinearitySpec((0.0, 0.0, 0.0, 1.0, 0.5), z_cutoff)
    for P in (None, quartic_coupling(), live_quartic):
        meta = dict(resp256.metadata, config=replace(cfg256, P=P))
        with pytest.raises(ValueError, match="cubic"):
            polarization_isolate(replace(resp256, metadata=meta))


@pytest.mark.parametrize("a3", [None, 0.0], ids=["config-a3", "zero"])
def test_channel_reads_the_highest_live_coefficient(a3, cfg256, resp256, iso256):
    # P evaluates from its highest live coefficient, so a zero coefficient
    # above the cubic changes neither P nor its channel
    a3 = cfg256.P.coeffs[3] if a3 is None else a3
    P = NonlinearitySpec((0.0, 0.0, 0.0, a3, 0.0), cfg256.P.cutoff)
    meta = dict(resp256.metadata, config=replace(cfg256, P=P))
    iso = polarization_isolate(replace(resp256, metadata=meta))
    if a3 == 0.0:
        assert not iso.u.any() and not iso.ut.any()
    else:
        assert np.array_equal(iso.u, iso256.u) and np.array_equal(iso.ut, iso256.ut)


def test_channel_forcing_is_the_product_of_the_data_waves(cfg256):
    # the data and the channel's coupling evaluate the waves by one rule: at
    # unit eps, a3 = 1 and an open gate the coupling is 6 v1 v2 v3 on P's
    # box, with v_j the unit-wave data restricted to that box
    box, x1, x2, _ = _gate_box(cfg256.P.cutoff, cfg256.grid)
    channel = interaction._TripleForcing((6.0, 0.0, 0.0, 0.0), cfg256.P.cutoff,
                                         frame=cfg256.frame, m=cfg256.m, grid=cfg256.grid,
                                         eps=(1.0, 1.0, 1.0))
    for t in (cfg256.solver.t0, cfg256.solver.t1):
        waves = [make_three_wave_data(cfg256.frame, cfg256.m, e, cfg256.grid, t)[0][box]
                 for e in np.eye(3)]
        ref = 6.0 * waves[0] * waves[1] * waves[2]
        got = channel(t, x1, x2, None, cutoff_value=1.0)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_channel_is_solved_again_as_a_channel(cfg256, iso256):
    # the channel records its build, so its scaling rungs and recovery
    # trials are channels: exactly trilinear in eps and linear in a3
    assert iso256.metadata["build"] is interaction._trilinear_response
    assert abs(amplitude_scaling(iso256, [0.25, 0.5, 1.0]).exponent - 3.0) <= 1e-9
    (est,) = coefficient_recovery(iso256, [cubic_nonlinearity(2.0)])
    assert abs(est.c_hat - 2.0) <= 1e-12
    assert abs(est.correlation - 1.0) <= 1e-12
    # a trial without a channel is refused, as polarization_isolate refuses it
    with pytest.raises(ValueError, match="cubic"):
        coefficient_recovery(iso256, [quartic_coupling()])


def test_free_wave_of_a_response_is_the_data_on_the_box(cfg256):
    # the free wave u_lin a response's coupling adds to w is the eps-weighted
    # sum of the waves by the data's rule: at w = 0 a coupling P(u) = u reads
    # the data on P's box, at t0, at a mid-gate time off the run's lattice,
    # at t1 and on a frame with a (2, 1) direction
    skew = CharFrame(((2.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)),
                      (-np.sqrt(0.5), -np.sqrt(0.5)), (0.0, -1.0)))
    eps = (0.05, -0.03, 0.07)
    box, x1, x2, _ = _gate_box(z_cutoff, cfg256.grid)
    zero = np.zeros((box[0].stop - box[0].start, box[1].stop - box[1].start))
    t0, t1 = cfg256.solver.t0, cfg256.solver.t1
    for frame, t in ((cfg256.frame, t0), (cfg256.frame, 0.3137), (cfg256.frame, t1), (skew, t1)):
        coupling = interaction._ShiftedCoupling((0.0, 1.0, 0.0, 0.0), z_cutoff, frame=frame,
                                                m=cfg256.m, grid=cfg256.grid, eps=eps)
        ref = make_three_wave_data(frame, cfg256.m, eps, cfg256.grid, t)[0][box]
        lines = interaction._wave_lines(frame, cfg256.m, cfg256.grid, box)
        waves = sum(interaction._waves(lines, t, eps))
        for got in (waves, coupling(t, x1, x2, zero, cutoff_value=1.0)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert "eps=(0.05, -0.03, 0.07)" in repr(coupling)


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
    k = grid.axes[0].freqs()
    rho = np.hypot(k[:, None], k[None, :])

    def reference(mask):
        return np.real(np.fft.ifft2(np.fft.fft2(u) * mask))

    lo, hi = 8.0, 20.0
    band = plateau_window(rho - 0.5 * (lo + hi), 0.75 * 0.5 * (hi - lo), 0.5 * (hi - lo))
    bulk = 1.0 - plateau_window(rho, 3.0, 6.0)
    tol = 1e-12 * np.max(np.abs(u))
    assert np.max(np.abs(band_pass(u, grid, (lo, hi)) - reference(band))) <= tol
    assert np.max(np.abs(high_pass(u, grid, (8.0, 20.0)) - reference(bulk))) <= tol


# ------------------------------------------------------------- geometry


def test_tangency_distance_vanishes_at_the_three_tangencies():
    angles = np.deg2rad([90.0, 225.0, 315.0, 157.5])
    got = np.rad2deg(interaction._tangency_distance(angles, DEFAULT_FRAME))
    assert np.allclose(got, [0.0, 0.0, 0.0, 67.5], atol=1e-9)


def _full_grid_tube_mask(grid, t, probe, frame):
    """The tube of cone_amplitude built on full-grid meshes: the reference."""
    x1, x2 = grid.meshes()
    theta = np.arctan2(x2, x1)
    mask = np.abs(np.hypot(x1, x2) - t) <= 4.0 * grid.axes[0].spacing
    mask &= interaction._ang_dist(theta, probe.angle) <= interaction.PROBE_ARC
    mask &= interaction._tangency_distance(theta, frame) >= interaction.PROBE_EXCLUSION
    return mask


@pytest.mark.parametrize("points", [128, 256, 512, 1024])
def test_tube_mask_built_on_its_box_is_the_full_grid_mask(points):
    # arcs across the x1 and x2 axes and the angle wrap, and one cut by the
    # exclusion around the 90 degree tangency
    grid = grid2d(points, 13.5)
    for angle in (0.0, 22.5, 60.0, 157.5, 180.0, -90.0):
        for t in (2.0, 3.8):
            probe = ConeProbe(t_probe=t, angle=np.deg2rad(angle))
            box, tube = interaction._tube_mask(grid, t, probe, DEFAULT_FRAME)
            got = np.zeros(grid.shape, dtype=bool)
            got[box] = tube
            assert np.array_equal(got, _full_grid_tube_mask(grid, t, probe, DEFAULT_FRAME))
            assert got.any()


def test_tube_off_the_grid_is_refused():
    probe = ConeProbe(t_probe=30.0, angle=np.deg2rad(157.5))
    with pytest.raises(ValueError, match="no grid points"):
        interaction._tube_mask(grid2d(64, 13.5), 30.0, probe, DEFAULT_FRAME)


def test_cone_amplitude_holds_no_tube_mask(resp256):
    # the tube mask is built per call and dropped with it
    probe = ConeProbe(t_probe=3.8, angle=np.deg2rad(148.25))  # an angle no other test reads
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cone_amplitude(resp256, probe) > 0.0
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 4096


def test_tube_reads_the_band_passed_slice_on_its_box(cfg256, resp256):
    # the amplitude band's block of the slice's spectrum, mapped onto the
    # tube's box alone, is the whole band-passed slice cut to that box
    probe, grid = cfg256.probes[0], cfg256.grid
    got, tube = interaction._tube(resp256, probe)
    box, ref_tube = interaction._tube_mask(grid, probe.t_probe, probe, cfg256.frame)
    ref = band_pass(resp256.state_at(probe.t_probe).u, grid, amplitude_band(grid))[box]
    assert np.array_equal(tube, ref_tube) and got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_recovery_floor_is_the_whole_band_passed_slice(cfg256):
    # The baseline's floor is the largest band-passed value on the whole
    # slice, not on the tube's box.  far is a wave packet's content in lattice
    # modes where the amplitude band's gain is exactly 1, projected to vanish
    # on the box's nodes: O(1) off the box and roundoff on it.  A tube
    # reading 1e-14 of it is roundoff beside it, though it is the largest
    # value on the box, and the baseline is refused; alone it is not.
    t, grid = 0.5, cfg256.grid  # an early probe: a small box
    probe = ConeProbe(t_probe=t, angle=np.deg2rad(157.5))
    cfg = replace(cfg256, solver=replace(cfg256.solver, t1=t), probes=(probe,))
    box, _ = interaction._tube_mask(grid, t, probe, cfg.frame)
    h, (x1, x2) = grid.axes[0].spacing, grid.meshes()
    kx, ky = (2.0 * np.pi * f(256, h) for f in (np.fft.fftfreq, np.fft.rfftfreq))
    i, j = np.nonzero((np.abs(np.hypot(kx[:, None], ky) - 11.5) < 2.5) & (ky > 0))
    a, b = (np.arange(s.start, s.stop) for s in box)
    phase = 2.0 * np.pi * (np.multiply.outer(a, i)[:, None] + np.multiply.outer(b, j)) / 256
    nodes = np.concatenate([np.cos(phase), -np.sin(phase)], axis=-1).reshape(-1, 2 * i.size)
    packet = np.exp(-((x1 - 4.0) ** 2 + (x2 + 4.0) ** 2) / 0.5) * np.cos(8.1 * (x1 + x2))
    coef = np.fft.rfft2(packet)[i, j]
    coef = np.r_[coef.real, coef.imag]
    for _ in range(2):  # the second pass takes off the first one's roundoff
        coef -= np.linalg.lstsq(nodes, nodes @ coef, rcond=None)[0]
    spec = np.zeros((256, 129), complex)
    spec[i, j] = coef[: i.size] + 1j * coef[i.size :]
    far = np.fft.irfft2(spec, s=grid.shape)
    assert np.abs(far[box]).max() <= 1e-14 * np.abs(far).max()
    c = t * probe.direction
    tube = np.exp(-((x1 - c[0]) ** 2 + (x2 - c[1]) ** 2) / 0.18) * np.cos(12.0 * x1)
    for u, refused in ((tube, False), (1e-14 * np.abs(far).max() * tube + far, True)):
        fld = SpaceTimeField(grid, np.array([t]), u[None], u[None],
                             metadata={"config": cfg, "frame": cfg.frame, "eps": (EPS,) * 3})
        if refused:
            with pytest.raises(ValueError, match="noise floor"):
                coefficient_recovery(fld, ())
        else:
            assert coefficient_recovery(fld, ()) == []


def test_tube_mask_build_holds_at_most_one_field():
    grid = grid2d(512, 13.5)
    probe = ConeProbe(t_probe=3.8, angle=np.deg2rad(157.5))
    tracemalloc.start()
    try:
        interaction._tube_mask(grid, 3.8, probe, DEFAULT_FRAME)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * grid.axes[0].points ** 2  # one float field, 2 MiB


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
    data = SpaceTimeField(cfg256.grid, np.array([t0]), u0[None], ut0[None])
    fit = front_order_estimate(data, DEFAULT_FRAME.omegas[0], t=t0, half_length=1.2)
    assert np.isnan(fit.slope)
    assert "insufficient_bins" in fit.flags
    assert not fit.superpolynomial


@pytest.mark.parametrize("omega", [(0.0, 0.0), (np.nan, 1.0)])
def test_front_fit_rejects_an_omega_with_no_geometry(cfg256, omega):
    # unchecked, these read slope -inf, flagged superpolynomial, off a slice
    # of NaN samples
    t0 = cfg256.solver.t0
    u0, ut0 = make_three_wave_data(cfg256.frame, M, (EPS,) * 3, cfg256.grid, t0)
    data = SpaceTimeField(cfg256.grid, np.array([t0]), u0[None], ut0[None])
    with pytest.raises(ValueError, match="finite and nonzero"):
        front_order_estimate(data, omega, t=t0)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_front_fit_refuses_a_time_that_is_not_finite(cfg256, t):
    # t = inf sat within the lookup's tolerance 1e-9 + 1e-9 |t| of the t0
    # record, which was then fitted as if read at t
    t0 = cfg256.solver.t0
    u0, ut0 = make_three_wave_data(cfg256.frame, M, (EPS,) * 3, cfg256.grid, t0)
    data = SpaceTimeField(cfg256.grid, np.array([t0]), u0[None], ut0[None])
    with pytest.raises(ValueError, match="not recorded"):
        front_order_estimate(data, DEFAULT_FRAME.omegas[0], t=t)


def test_front_fit_sizes_its_slice_from_the_band(cfg256, data512):
    # six bins 2.30 apart fill (16, 29.8) wherever they fall: half-length
    # 6 pi / 13.8 = 1.37 at 256; at 512 the band (16, 36) needs only 0.94,
    # so the 1.2 floor stands
    t0 = cfg256.solver.t0
    u0, ut0 = make_three_wave_data(cfg256.frame, M, (EPS,) * 3, cfg256.grid, t0)
    data = SpaceTimeField(cfg256.grid, np.array([t0]), u0[None], ut0[None])
    fit = front_order_estimate(data, DEFAULT_FRAME.omegas[0], t=t0)
    assert fit.n_bins >= 6 and not fit.flags
    assert abs(fit.slope - M) < 0.15
    omega, t = DEFAULT_FRAME.omegas[0], float(data512.times[0])
    fit512 = front_order_estimate(data512, omega, t=t)
    assert fit512.slope == front_order_estimate(data512, omega, t=t, half_length=1.2).slope


def test_incoming_front_order_moves_one_per_unit_m(cfg256):
    # the front's order is m, so its slope moves by 1 per unit m (ROADMAP
    # item 10).  Each slope's stderr over its 6 bins is 0.043; were the two
    # fits' errors independent, the two-point d/dm would carry
    # hypot(0.043, 0.043) / 0.5 = 0.12, and the margin is three of those,
    # 0.37, which still tells the front's 1 from the 0 of a reading blind
    # to m and the 3 of the cone law.  Measured 1.0034: the fits share
    # their bins and their profiles' rule, so their errors largely cancel.
    t0 = cfg256.solver.t0
    fits = []
    for m in (-2.6, -3.1):
        u0, ut0 = make_three_wave_data(cfg256.frame, m, (EPS,) * 3, cfg256.grid, t0)
        data = SpaceTimeField(cfg256.grid, np.array([t0]), u0[None], ut0[None])
        fits.append(front_order_estimate(data, DEFAULT_FRAME.omegas[0], t=t0))
    assert all(fit.n_bins >= 6 and not fit.flags for fit in fits)
    d_dm = (fits[0].slope - fits[1].slope) / 0.5
    margin = 3.0 * np.hypot(*(fit.slope_stderr for fit in fits)) / 0.5
    assert margin < 0.5
    assert abs(d_dm - 1.0) <= margin


def test_frame_rotation_leaves_slope_unchanged(cfg256, resp256):
    cfg_rot = _rotated(cfg256)
    fit_rot = cone_order_estimate(nonlinear_response(cfg_rot), cfg_rot.probes[0])
    fit = cone_order_estimate(resp256, cfg256.probes[0])
    assert abs(fit_rot.slope - fit.slope) < 0.05


# ------------------------------------------------------- amplitude scaling


def test_cubic_coupling_scales_amplitude_cubically(resp256):
    scaling = amplitude_scaling(resp256, [0.25, 0.5, 1.0])
    assert abs(scaling.exponent - 3.0) < 0.15
    assert not scaling.dropped
    assert scaling.eps == (EPS / 4, EPS / 2, EPS)


def test_negative_polarity_data_scale_like_positive(cfg256, resp256):
    negated = nonlinear_response(cfg256, eps=(-EPS,) * 3)
    scaling = amplitude_scaling(negated, [0.25, 0.5, 1.0])
    assert scaling.eps == (EPS / 4, EPS / 2, EPS)
    assert scaling.exponent == amplitude_scaling(resp256, [0.25, 0.5, 1.0]).exponent


def test_scaling_refuses_nonpositive_factors(resp256):
    with pytest.raises(ValueError, match="positive"):
        amplitude_scaling(resp256, [-1.0, 0.5, 1.0, 4.0])
    with pytest.raises(ValueError, match="positive"):
        amplitude_scaling(resp256, [0.0, 0.5, 1.0])
    # a NaN rung was solved and reported as a blow-up; refused before any
    # solve, in either order
    for factors in ([0.25, 0.5, 1.0, np.nan], [np.nan, 0.25, 0.5, 1.0], [0.25, 1.0, np.inf]):
        with pytest.raises(ValueError, match="positive and finite"):
            amplitude_scaling(resp256, factors)


def test_scaling_drops_a_rung_that_blows_up(resp256):
    scaling = amplitude_scaling(resp256, [0.25, 0.5, 1.0, 1e103])
    assert scaling.dropped == (1e103 * EPS,)
    assert scaling.eps == (EPS / 4, EPS / 2, EPS)
    assert scaling.exponent == amplitude_scaling(resp256, [0.25, 0.5, 1.0]).exponent


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
    est = coefficient_recovery(resp256, [NonlinearitySpec((0, 0, 0, 2.0), z_cutoff)])[0]
    assert abs(est.c_hat - 2.0) < 0.10


def test_flipped_coupling_flips_the_cone_wave(resp256):
    est = coefficient_recovery(resp256, [NonlinearitySpec((0, 0, 0, -1.0), z_cutoff)])[0]
    assert abs(est.correlation - (-1.0)) < 0.05


def test_quartic_coupling_recovers_no_cubic_coefficient(cfg256):
    resp_small = nonlinear_response(replace(cfg256, eps=EPS / 4))
    est = coefficient_recovery(resp_small, [quartic_coupling()])[0]
    assert est.c_hat < 0.05


# ------------------------------------------------------------- end to end


def _traced_solves(monkeypatch):
    """(solve name, input digest) of every solve interaction makes from
    here on, in call order; the digest covers the name, data, grid, config
    and P."""
    digests = []

    def traced(fn):
        def wrapper(u0, ut0, grid, config, P=None):
            h = hashlib.blake2b(digest_size=16)
            for f in (u0, ut0):
                h.update(f.tobytes())
            h.update(repr((fn.__name__, grid, config, P)).encode())
            digests.append((fn.__name__, h.hexdigest()))
            return fn(u0, ut0, grid, config, P=P)

        return wrapper

    monkeypatch.setattr(interaction, "solve", traced(interaction.solve))
    return digests


def test_run_experiment_solves_each_input_once(monkeypatch, cfg256):
    solves = _traced_solves(monkeypatch)
    run_experiment(
        cfg256, trials=(cubic_nonlinearity(2.0), cubic_nonlinearity(-1.0)), polarization=True
    )
    # 8 solves, each of zero data: 7 nonlinear responses (the base run,
    # P = None, the two-wave pair, two scaling rungs and two trials), each
    # under a coupling that names its eps, and the trilinear channel; the
    # incoming-front fit reads the data itself
    assert len(solves) == 8
    assert len(set(solves)) == len(solves)
    assert {name for name, _ in solves} == {"solve"}


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


@pytest.mark.parametrize("field, value", [("m", -np.inf), ("eps", np.inf)])
def test_config_refuses_a_non_finite_order_or_amplitude(field, value):
    # m = -inf gave an exactly zero response, eps = inf an overflow at the
    # first kick
    with pytest.raises(ValueError, match="finite"):
        replace(default_experiment(points=128), **{field: value})


@pytest.mark.parametrize("angle", [np.nan, np.inf])
def test_probe_with_a_non_finite_angle_rejected(angle):
    with pytest.raises(ValueError, match="finite angle"):
        ConeProbe(t_probe=3.8, angle=angle)


@pytest.mark.parametrize("t", [np.inf, np.nan, 0.0, -1.0])
def test_probe_needs_a_finite_positive_time(t):
    # an infinite t_probe passed the config's record-time check
    with pytest.raises(ValueError, match="finite positive t_probe"):
        ConeProbe(t_probe=t, angle=np.deg2rad(157.5))


def test_ridge_needs_a_positive_time(resp256, cfg256):
    with pytest.raises(ValueError, match="positive radius"):
        ridge_radius(resp256, cfg256.solver.t0)


def test_ridge_rays_stay_inside_the_box():
    # at t = 4.5 the rays reach 1.6 t = 7.2, past the box's half extent 6.75,
    # where the spline would read the periodic image
    grid = grid2d(256, 13.5)
    zero = np.zeros((1,) + grid.shape)
    fld = SpaceTimeField(grid, np.array([4.5]), zero, zero, metadata={"frame": DEFAULT_FRAME})
    with pytest.raises(ValueError, match="leave the box"):
        ridge_radius(fld, 4.5)


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
    assert np.array_equal(resp256.times, cfg256.solver.record_times())
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
