import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import CUT, lawson_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwlab import _kick, solver
from cwlab.solver import (
    DEALIAS,
    BlowupError,
    CharFrame,
    NonlinearitySpec,
    SolverConfig,
    SourceGate,
    cubic_nonlinearity,
    energy,
    grid2d,
    linear_propagate,
    solve,
    z_cutoff,
)
from cwlab.spectral import Grid1D, GridND, bump_window

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


def _directions(angles):
    return tuple((float(np.cos(a)), float(np.sin(a))) for a in angles)


# three angles at least 0.1 apart on the circle: distinct unit directions,
# never on one line
_SPREAD_ANGLES = st.tuples(
    st.floats(0.0, 2.0 * np.pi), st.floats(0.1, 2.0 * np.pi - 0.3), st.floats(0.1, 1.0)
).filter(lambda a: a[1] + a[2] <= 2.0 * np.pi - 0.1).map(
    lambda a: (a[0], a[0] + a[1], a[0] + a[1] + a[2])
)


@settings(max_examples=30)  # a cheap predicate; 30 examples keep the suite's time
@given(_SPREAD_ANGLES)
@example((np.pi / 2, 5 * np.pi / 4, 7 * np.pi / 4))  # the experiments' frame
def test_char_frame_accepts_experiment_directions(angles):
    fr = CharFrame(_directions(angles))
    # |det| is twice the area of the inscribed triangle, 2.41 for the
    # experiments' frame and at least 5e-4 for angles 0.1 apart
    a1, a2, a3 = angles
    area2 = 4.0 * abs(np.sin((a2 - a1) / 2) * np.sin((a3 - a2) / 2) * np.sin((a1 - a3) / 2))
    assert abs(np.linalg.det(fr.map)) == pytest.approx(area2, rel=1e-9)


@settings(max_examples=30)
@given(_SPREAD_ANGLES, st.permutations(range(3)), st.floats(1e-9, 1.0), st.booleans())
def test_char_frame_rejects_bad_directions(angles, order, dr, longer):
    om = _directions(angles)
    scaled = list(om)
    scaled[order[0]] = tuple(c * (1.0 + dr if longer else 1.0 - dr) for c in om[order[0]])
    with pytest.raises(ValueError, match="unit"):
        CharFrame(tuple(scaled))
    with pytest.raises(ValueError, match="distinct"):
        CharFrame(tuple(om[i] for i in (order[0], order[0], order[1])))  # repeated plane
    # unit and pairwise distinct, but within 2e-5 of one another: the three
    # points lie on one line to roundoff and the coordinate map is singular
    a = angles[0]
    with pytest.raises(ValueError, match="singular"):
        CharFrame(_directions((a, a + 1e-5, a + 2e-5)))


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


# Both kick paths with a zero source: the all-zero P does not read u, the
# zero callable cubic coefficient does.
@pytest.mark.parametrize(
    "P",
    [NonlinearitySpec(coeffs=(0.0, 0.0, 0.0, 0.0), cutoff=None),
     NonlinearitySpec(coeffs=(0.0, 0.0, 0.0, lambda t, X1, X2: 0.0), cutoff=None)],
    ids=["forcing", "reads u"],
)
def test_zero_nonlinearity_matches_linear(P):
    grid = grid2d(64, L)
    u0 = band_limited_noise(grid, seed=5)
    ut0 = band_limited_noise(grid, seed=6)
    # ungated, so the zero source is evaluated and kicked in on the step
    out = solve(u0, ut0, grid, SolverConfig(dt=0.02, t0=0.0, t1=0.02), P=P)
    assert out.metadata["stats"]["kicks_applied"] == 1
    ul, utl = linear_propagate(u0, ut0, grid, 0.02)
    assert np.max(np.abs(out.u[-1] - ul)) < 1e-13
    assert np.max(np.abs(out.ut[-1] - utl)) < 1e-13


def test_manufactured_solution_second_order_in_dt():
    # u* = cos(w t) cos(xi x1) forced by (xi^2 - w^2) u*, an exact solution
    grid = grid2d(64, L)
    x1, _ = meshes(grid)
    xi = 2.0 * 2.0 * np.pi / L
    w = 2.3

    forcing = lambda t, X1, X2: (xi**2 - w**2) * np.cos(w * t) * np.cos(xi * X1)
    P = NonlinearitySpec(coeffs=(forcing, 0.0, 0.0, 0.0), cutoff=None)

    mode = np.cos(xi * x1) * np.ones(grid.shape)

    def error_at(dt, t_end=1.0):
        cfg = SolverConfig(dt=dt, t0=0.0, t1=t_end, record_stride=10**6)
        out = solve(mode, np.zeros(grid.shape), grid, cfg, P=P)
        exact = np.cos(w * t_end) * mode
        return np.max(np.abs(out.u[-1] - exact))

    e1, e2 = error_at(0.02), error_at(0.01)
    order = np.log2(e1 / e2)
    assert 1.7 < order < 2.3


def test_blow_up_raises():
    grid = grid2d(32, L)
    x1, x2 = meshes(grid)
    u0 = 1e3 * np.exp(-(x1**2 + x2**2))
    P = cubic_nonlinearity(a3=50.0, cutoff=None)
    cfg = SolverConfig(dt=0.05, t0=0.0, t1=10.0, record_stride=10**6)
    with pytest.raises(BlowupError):
        solve(u0, np.zeros(grid.shape), grid, cfg, P=P)


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


# The default gate of cubic_nonlinearity(5.0) as a factor of an ungated
# coefficient, which the solver evaluates on the whole grid at every step.
_OPAQUE_GATE = NonlinearitySpec((0, 0, 0, lambda t, X1, X2: 5.0 * z_cutoff(t, X1, X2)))


def test_generic_cutoff_kicks_on_every_step():
    # the same gate as a factor of an ungated coefficient: every step kicks,
    # and the kicks outside the gate's support add exactly nothing
    grid = grid2d(64, L)
    u0 = _pulse(grid)
    cfg = SolverConfig(dt=0.03, t0=-1.2, t1=0.6, record_stride=20)
    gated = solve(u0, np.zeros(grid.shape), grid, cfg, P=cubic_nonlinearity(5.0))
    every = solve(u0, np.zeros(grid.shape), grid, cfg, P=_OPAQUE_GATE)
    assert every.metadata["stats"]["kicks_applied"] == 60
    assert gated.metadata["stats"]["kicks_applied"] == 50  # t_mid > -0.9 from i = 10
    assert np.max(np.abs(every.u - gated.u)) < 1e-12 * np.max(np.abs(gated.u))


def test_source_gate_validation():
    # the edges must be finite: SourceGate(0.4, inf) evaluated to NaN
    edges = ((0.4, np.inf), (np.inf, np.inf), (np.nan, 0.9), (0.4, np.nan), (0.0, 0.9), (0.9, 0.4))
    for flat, edge in edges:
        with pytest.raises(ValueError, match="finite 0 < flat < edge"):
            SourceGate(flat, edge)
    assert SourceGate(0.4, 0.9).support == (-0.9, 0.9)


def test_cutoff_is_a_source_gate_or_none():
    with pytest.raises(TypeError, match="SourceGate"):
        NonlinearitySpec((0.0, 0.0, 0.0, 1.0), lambda t, X1, X2: z_cutoff(t, X1, X2))
    assert NonlinearitySpec((0.0, 0.0, 0.0, 1.0), z_cutoff).cutoff is z_cutoff


def test_each_kicked_solve_builds_its_step_table_once(monkeypatch):
    # a solve keeps nothing between solves: each kicked solve builds its
    # loop's step table once, and every other free flow, a half step to or
    # from a record or a closed stretch of the gate, is a one-off jump
    grid = grid2d(64, L)
    u0 = _pulse(grid)
    calls = {"_phases": 0}
    monkeypatch.setattr(solver, "_phases", _counting(solver._phases, calls, "_phases"))
    cfg = SolverConfig(dt=0.03, t0=-1.2, t1=0.6, record_stride=1)
    for _ in range(2):
        calls["_phases"] = 0
        out = solve(u0, np.zeros(grid.shape), grid, cfg, P=cubic_nonlinearity(5.0))
        assert out.metadata["stats"]["kicks_applied"] == 50
        assert calls["_phases"] == 1


def test_a_jump_turns_by_the_step_tables_values():
    # a jump over tau multiplies by exactly the values of the table
    # _phases(k, tau), so a half step jumped gives the record a stepped
    # half step gave, bit for bit
    block = solver._block(grid2d(64, L))
    rng = np.random.default_rng(5)
    shape = (2, 2, block.K + 1, block.cols)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y[:, 1, 0] = 0.0
    jumped, stepped = (solver._HalfWaves(y.copy(), block.k) for _ in range(2))
    jumped.jump(0.015)
    stepped.flow(solver._phases(block.k, 0.015), 0.015)
    assert np.array_equal(jumped.y, stepped.y) and jumped.mean == stepped.mean


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("P", [None, cubic_nonlinearity(5.0)])
def test_solve_refuses_data_that_are_not_finite(P, bad):
    # one bad entry in either field: NaN records, or a blow-up the run did
    # not measure, would come back otherwise
    grid = grid2d(64, L)
    cfg = SolverConfig(dt=0.03, t0=-1.2, t1=0.6)
    for field in range(2):
        data = [_pulse(grid), np.zeros(grid.shape)]
        data[field][3, 5] = bad
        with pytest.raises(ValueError, match="data must be finite"):
            solve(*data, grid, cfg, P=P)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_linear_propagate_refuses_fields_that_are_not_finite(bad):
    # one NaN spread to every entry of the result, one inf raised numpy's
    # RuntimeWarning
    grid = grid2d(64, L)
    for field in range(2):
        data = [_pulse(grid), np.zeros(grid.shape)]
        data[field][3, 5] = bad
        with pytest.raises(ValueError, match="fields must be finite"):
            linear_propagate(*data, grid, 0.1)


def test_free_flow_writes_the_records_in_place():
    # the data's free flow is written straight into the two record stacks:
    # besides them a run holds the data's two spectra and one transform's
    # scratch, not a second stack of every record
    grid = grid2d(128, L)
    u0 = _pulse(grid)
    cfg = SolverConfig(dt=0.02, t0=-1.2, t1=-0.4, record_stride=10)
    solve(u0, u0, grid, cfg)  # so numpy's FFT plans are built before tracing
    tracemalloc.start()
    try:
        out = solve(u0, u0, grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.times.size == 5
    assert peak - out.u.nbytes - out.ut.nbytes <= 4 * u0.nbytes
    # zero data that are never kicked give one read-only zero, no memory
    zero = solve(np.zeros(grid.shape), np.zeros(grid.shape), grid, cfg)
    assert zero.u.strides == (0, 0, 0) and not zero.u.flags.writeable
    assert not zero.u.any() and not zero.ut.any()


@pytest.mark.parametrize("P", [None, cubic_nonlinearity(5.0)])
def test_each_record_is_written_once(P, monkeypatch):
    # a record's field is one inverse transform of the data's free part
    # with the loop's block in its rows, kicked or not: 2 (R - 1) _field
    # calls for R records, not a second pair per record for the block
    grid = grid2d(64, L)
    u0 = _pulse(grid)
    calls = {"_field": 0}
    monkeypatch.setattr(solver, "_field", _counting(solver._field, calls, "_field"))
    cfg = SolverConfig(dt=0.03, t0=-1.2, t1=0.6, record_stride=6)
    out = solve(u0, 0.5 * u0, grid, cfg, P=P)
    assert out.times.size == 11
    assert out.metadata["stats"]["kicks_applied"] == (0 if P is None else 50)
    assert calls["_field"] == 2 * (out.times.size - 1)


def _smooth_forcing(t, X1, X2):
    return np.cos(2.0 * t) * np.exp(-(X1**2 + 2.0 * X2**2)) * (1.0 + 0.5 * X1)


# A coupling that does not read u: a kick transforms the source back only.
_FORCING = NonlinearitySpec((_smooth_forcing, 0.0, 0.0, 0.0), z_cutoff)

# Couplings that read u and have a source term, so that zero data respond:
# gated, and with the same gate as a factor of ungated coefficients.
_SOURCED = NonlinearitySpec((_smooth_forcing, 0.0, 0.0, 5.0), z_cutoff)
_OPAQUE_SOURCED = NonlinearitySpec(
    (lambda t, X1, X2: z_cutoff(t, X1, X2) * _smooth_forcing(t, X1, X2), 0.0, 0.0,
     _OPAQUE_GATE.coeffs[3])
)


# dt in units of h/pi, h the finer spacing; 1.35 is the default, 0.9 of the
# step bound h/(DEALIAS pi).  Pruning is exact at any dt.  Only a non-square
# grid tells the block's kx rows from its ky columns.
@pytest.mark.parametrize(
    "shape, extents, margin",
    [
        ((64, 64), (L, L), 0.9),
        ((128, 128), (L, L), 0.9),
        ((128, 128), (L, L), 1.35),
        ((64, 128), (8.0, 10.0), 0.9),
        ((128, 64), (10.0, 6.0), 0.9),
    ],
    ids=["64", "128", "128-dt1.35", "64x128", "128x64"],
)
@pytest.mark.parametrize(
    "case, P, stride, data",
    [
        ("gated response", _SOURCED, 10**6, False),
        ("gate in the coefficient", _OPAQUE_SOURCED, 10**6, False),
        ("solve, every step recorded", cubic_nonlinearity(5.0), 1, True),
        ("forcing response", _FORCING, 10**6, False),
        ("forcing solve, every step recorded", _FORCING, 1, True),
    ],
)
def test_pruned_loop_matches_full_grid_stepper(shape, extents, margin, case, P, stride, data):
    # a response is the solve of zero data; a solve of data carries their
    # block in the loop and the rest of their spectrum as free flow
    grid = GridND(tuple(Grid1D(n, e) for n, e in zip(shape, extents)))
    h = min(g.spacing for g in grid.axes)
    u0 = _pulse(grid) if data else np.zeros(grid.shape)
    ut0 = 0.5 * np.roll(u0, shape[1] // 16, axis=1)  # no mirror symmetry
    cfg = SolverConfig(dt=margin * h / np.pi, t0=-1.2, t1=0.6, record_stride=stride)
    n = int(round((cfg.t1 - cfg.t0) / cfg.dt))
    cfg = replace(cfg, dt=(cfg.t1 - cfg.t0) / n, record_stride=min(stride, n))
    out = solve(u0, ut0, grid, cfg, P=P)
    ref_u, ref_ut = lawson_reference(u0, ut0, grid, cfg, P, response=False)
    for got, ref in ((out.u, ref_u), (out.ut, ref_ut)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    stats = out.metadata["stats"]
    g1, g2 = grid.axes
    kx, ky = g1.freqs(), 2.0 * np.pi * np.fft.rfftfreq(g2.points, d=g2.spacing)
    assert stats["block"] == (
        np.count_nonzero(np.abs(kx) <= CUT * g1.nyquist), np.count_nonzero(ky <= CUT * g2.nyquist)
    )
    inside = tuple(np.count_nonzero(np.abs(g.nodes()) < z_cutoff.edge) for g in grid.axes)
    assert stats["box"] == (shape if P.cutoff is None else inside)
    assert stats["dt_margin"] == pytest.approx(cfg.dt * DEALIAS * np.pi / h, rel=1e-12)
    assert np.array_equal(out.u[0], u0) and np.array_equal(out.ut[0], ut0)


@pytest.mark.parametrize("P", [None, cubic_nonlinearity(5.0)])
def test_stats_time_the_loop_phases(P):
    grid = grid2d(64, L)
    u0 = _pulse(grid)
    cfg = SolverConfig(dt=0.03, t0=-1.2, t1=0.6, record_stride=8)
    start = time.perf_counter()
    out = solve(u0, np.zeros(grid.shape), grid, cfg, P=P)
    elapsed = time.perf_counter() - start
    wall = out.metadata["stats"]["wall_s"]
    assert set(wall) == {"kicks", "propagate", "records"}
    assert all(v >= 0.0 for v in wall.values())
    assert sum(wall.values()) <= elapsed
    if P is None:  # a run that never kicks turns no loop, but writes its records
        assert wall["kicks"] == wall["propagate"] == 0.0
        assert wall["records"] > 0.0


def _counting(fn, calls, name):
    """fn, counting its calls in calls[name]."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_forcing_kick_carries_w_alone(monkeypatch):
    # a P that does not read u skips the kick's forward half (block to box):
    # it maps the source back only, 0 and 1 maps per kick against 1 and 1,
    # from data or from zero data
    grid = grid2d(64, L)
    u0 = _pulse(grid)
    calls = dict.fromkeys(("_to_box", "_to_block"), 0)
    for name in calls:
        monkeypatch.setattr(solver, name, _counting(getattr(solver, name), calls, name))

    def per_kick(P, data=u0):
        counts = []
        for t1 in (0.3, 0.6):  # 10 and 20 steps, every one kicked, one record
            calls.update(dict.fromkeys(calls, 0))
            cfg = SolverConfig(dt=0.03, t0=0.0, t1=t1, record_stride=10**6)
            solve(data, 0.5 * data, grid, cfg, P=P)
            counts.append(np.array(list(calls.values())))
        return tuple((counts[1] - counts[0]) / 10)

    forcing, cubic = _smooth_forcing, cubic_nonlinearity(5.0, cutoff=None)
    assert per_kick(NonlinearitySpec((forcing, 0.0, 0.0, 0.0))) == (0, 1)
    assert per_kick(NonlinearitySpec((forcing, 0.0, 0.0, 0.0)), np.zeros(grid.shape)) == (0, 1)
    assert per_kick(cubic) == (1, 1)
    assert per_kick(cubic, np.zeros(grid.shape)) == (1, 1)

    # the forcing hands out one array at every kick, which the gate must
    # not scale in place; the data add their free flow and nothing else
    held = {}
    forcing = NonlinearitySpec(
        (lambda t, X1, X2: held.setdefault("f", _smooth_forcing(0.0, X1, X2)), 0.0, 0.0, 0.0),
        z_cutoff,
    )
    cfg = SolverConfig(dt=0.03, t0=-1.2, t1=0.6, record_stride=20)
    zero = solve(np.zeros(grid.shape), np.zeros(grid.shape), grid, cfg, P=forcing)
    data = solve(u0, 0.5 * u0, grid, cfg, P=forcing)
    free = solve(u0, 0.5 * u0, grid, cfg, P=None)
    assert zero.metadata["stats"]["kicks_applied"] == 50
    for got, ref in ((data.u - free.u, zero.u), (data.ut - free.ut, zero.ut)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(zero.u[-1])) > 0.0
    box = np.abs(grid.axes[0].nodes()) < z_cutoff.edge
    x1, x2 = meshes(grid)
    assert np.array_equal(held["f"], _smooth_forcing(0.0, x1[box], x2[:, box]))


def _kick_case(name):
    """(grid shape, block, box) of a kick map case."""
    if name == "uncentred_96":  # Grid1D takes powers of two only; the maps do not
        # the 2/3 block of a 96 x 80 grid: |kx| <= 32, |ky| <= 26
        return (96, 80), solver._Block(32, 27, None), (slice(7, 40), slice(50, 77))
    if name == "offcentre_even_64":  # 12 rows about c = 10.5: a complex centre phase
        grid = grid2d(64, L)
        return grid.shape, solver._block(grid), (slice(5, 17), slice(3, 40))
    if name.startswith("rows_"):
        # boxes of 0, 1 and 2 x1 rows: nodes at +-h/2 (shifted) or at 0, and
        # a gate edge under 1.5 h; the x2 axis keeps its node at 0
        edge, shift = {"rows_0": (0.4, 0.5), "rows_1": (0.6, 0.0), "rows_2": (1.2, 0.5)}[name]
        h = 8.0 / 64
        grid = GridND((Grid1D(64, 8.0, start=-4.0 + shift * h), Grid1D(64, 8.0)))
        gate = SourceGate(flat=0.5 * edge * h, edge=edge * h)
        return grid.shape, solver._block(grid), solver._gate_box(gate, grid)[0]
    grid = grid2d(256, 13.5)  # the experiments' grid at 256 points
    gate = z_cutoff if name == "gated_256" else None
    return grid.shape, solver._block(grid), solver._gate_box(gate, grid)[0]


def _close(got, ref):
    """got equals ref to 1e-12 of ref's largest entry (an empty box has none)."""
    assert got.shape == ref.shape
    return np.abs(got - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)


@pytest.mark.parametrize(
    "case",
    ["gated_256", "uncentred_96", "whole_grid_256", "offcentre_even_64",
     "rows_0", "rows_1", "rows_2"],
)
def test_kick_maps_are_the_cut_numpy_transforms(case):
    # block to box is irfft2 of the block spectrum cut to the box; box to
    # block is rfft2 of the zero-padded box cut to the block.  The maps act
    # on the block folded about the box's centre, so the forward map takes
    # the fold of a spectrum, and the back map's output is unfolded.
    shape, block, box = _kick_case(case)
    K, cols = block.K, block.cols
    rows = np.r_[0 : K + 1, shape[0] - K : shape[0]]
    rng = np.random.default_rng(3)
    full = np.zeros((shape[0], shape[1] // 2 + 1), dtype=complex)
    kept = (rows.size, cols)
    full[rows, :cols] = rng.standard_normal(kept) + 1j * rng.standard_normal(kept)
    maps = _kick._kick_maps(shape, block, box)
    if case.startswith("rows_"):
        assert maps.u.shape[0] == int(case[-1])
    ref = np.fft.irfft2(full, s=shape)[box]
    got = _kick._to_box(maps, _kick._fold(maps, full))
    assert _close(got, ref)

    f = rng.standard_normal(got.shape)
    padded = np.zeros(shape)
    padded[box] = f
    ref = np.fft.rfft2(padded)[rows, :cols]
    back = np.zeros_like(full)
    _kick._unfold(maps, _kick._to_block(maps, f), back)
    assert _close(back[rows, :cols], ref)


@pytest.mark.parametrize("case", ["gated_256", "uncentred_96", "offcentre_even_64", "rows_1"])
def test_even_kick_maps_are_the_maps_of_an_even_field(case):
    # a block with W = 0 holds a field even about the box's centre c: the
    # x1-even maps give the general maps' field on the box's rows at c + d,
    # d >= 0, and map a field given there, repeated at c - d, back to the
    # general maps' E, with W = 0
    shape, block, box = _kick_case(case)
    maps, even = (_kick._kick_maps(shape, block, box, e) for e in (False, True))
    rng = np.random.default_rng(5)
    kept = (1, block.K + 1, block.cols)
    E = rng.standard_normal(kept) + 1j * rng.standard_normal(kept)
    full = _kick._to_box(maps, np.concatenate((E, np.zeros_like(E)))).copy()
    half = _kick._to_box(even, E)
    nb1, h = len(full), len(half)
    assert h == (nb1 + 1) // 2 and _close(half, full[nb1 - h :])

    f = rng.standard_normal(half.shape)
    back = _kick._to_block(maps, np.concatenate((f[::-1][: nb1 - h], f))).copy()
    assert np.abs(back[1]).max() <= 1e-12 * np.abs(back[0]).max()
    assert _close(_kick._to_block(even, f)[0], back[0])
    assert _kick._kick_macs(even, True) < _kick._kick_macs(maps, True)


@pytest.mark.parametrize("P, macs", [(cubic_nonlinearity(), 1_486_424), (_FORCING, 743_212)])
def test_stats_count_the_kick_multiply_adds(P, macs):
    # the experiments' gated case at 256 points: a 35 x 35 box, kx rows
    # -85..85 folded to 86 of them, 86 ky columns; a P that does not read u
    # runs the back half alone
    grid = grid2d(256, 13.5)
    cfg = SolverConfig(dt=0.02, t0=-1.0, t1=-0.8)
    stats = solve(np.zeros(grid.shape), np.zeros(grid.shape), grid, cfg, P=P).metadata["stats"]
    assert stats["box"] == (35, 35) and stats["block"] == (171, 86)
    assert stats["kick_macs"] == macs
    free = solve(np.zeros(grid.shape), np.zeros(grid.shape), grid, cfg, P=None)
    assert free.metadata["stats"]["kick_macs"] == 0


def test_half_waves_give_back_the_spectra():
    # (uh, vh) -> (Y+, Y-) -> (uh, vh) on a random folded block; the mean
    # (|k| = 0) is carried apart, and W vanishes on the kappa = 0 row
    block = solver._block(grid2d(64, L))
    rng = np.random.default_rng(11)
    shape = (2, 2, block.K + 1, block.cols)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y[:, 1, 0] = 0.0
    uh, vh = y.copy()
    pair = solver._HalfWaves(y, block.k)
    for got, ref in ((pair.u(), uh), (pair.ut(), vh)):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_constant_forcing_drives_the_mean_exactly():
    # the mean has no phase: free flow shears it, u0 += tau v0, so an
    # ungated constant forcing from zero data gives u = F (t - t0)^2 / 2 and
    # u_t = F (t - t0) at every record, the kicks' midpoint rule being exact
    grid, F = grid2d(64, L), 0.7
    cfg = SolverConfig(dt=0.03, t0=-1.2, t1=0.6, record_stride=5)
    zero = np.zeros(grid.shape)
    out = solve(zero, zero, grid, cfg, P=NonlinearitySpec((F, 0.0, 0.0, 0.0)))
    s = (out.times - cfg.t0)[:, None, None]
    assert out.times.size == 13
    assert np.abs(out.u - 0.5 * F * s**2).max() <= 1e-13 * 0.5 * F * s[-1] ** 2
    assert np.abs(out.ut - F * s).max() <= 1e-13 * F * s[-1]


# ------------------------------------------------------------------ duhamel


def duhamel(forcing, grid, cfg):
    """The forward solution of forcing(t, X1, X2): the solve of zero data
    under the ungated coupling that does not read u."""
    zero = np.zeros(grid.shape)
    return solve(zero, zero, grid, cfg, P=NonlinearitySpec((forcing, 0.0, 0.0, 0.0)))


def test_duhamel_zero_forcing_is_zero():
    grid = grid2d(32, L)
    cfg = SolverConfig(dt=0.05, t0=-1.1, t1=0.3)
    out = duhamel(lambda t, X1, X2: np.zeros(grid.shape), grid, cfg)
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

    out = duhamel(forcing, grid, cfg)
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
    duh = duhamel(forcing, grid, cfg)

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


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_time_lookup_refuses_a_time_that_is_not_finite(t):
    # inf sat within the tolerance 1e-9 + 1e-9 |t| of every record, and
    # state_at(inf) handed back the first
    grid = grid2d(32, L)
    zero = np.zeros((3,) + grid.shape)
    fld = solver.SpaceTimeField(grid, np.array([0.0, 0.5, 1.0]), zero, zero)
    assert solver._time_index(fld.times, t) is None
    with pytest.raises(ValueError, match="not recorded"):
        fld.state_at(t)
    assert fld.state_at(0.5).t == 0.5


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_field_refuses_record_times_that_are_not_finite(t):
    # a single slice skips the spacing check, and no lookup could read it
    grid = grid2d(32, L)
    for times in (np.array([t]), np.array([0.0, t])):
        zero = np.zeros(times.shape + grid.shape)
        with pytest.raises(ValueError, match="record times must be finite"):
            solver.SpaceTimeField(grid, times, zero, zero)


def test_config_validation():
    grid = grid2d(32, L)
    late = SolverConfig(dt=0.05, t0=-0.5, t1=0.5)  # t0 must precede the gate
    with pytest.raises(ValueError, match="gate"):
        solve(np.zeros(grid.shape), np.zeros(grid.shape), grid, late, P=cubic_nonlinearity())
    for t0, t1 in ((0.5, 0.5), (0.6, 0.5), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(ValueError, match="t0 < t1"):
            SolverConfig(dt=0.1, t0=t0, t1=t1)
    with pytest.raises(ValueError):
        SolverConfig(dt=-0.1, t0=-1.2, t1=0.5)
    for stride in (0, 1.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="record_stride"):
            SolverConfig(dt=0.1, t0=-1.2, t1=0.5, record_stride=stride)
    cfg = SolverConfig(dt=0.2, t0=-1.2, t1=0.5)  # dt far above h/pi
    with pytest.raises(ValueError):
        solve(np.zeros(grid.shape), np.zeros(grid.shape), grid, cfg)
    # the bound is one radian per step at the carried block's edge; 20 steps
    # keep the lattice from nudging dt across it
    bound = grid.axes[0].spacing / (DEALIAS * np.pi)
    over, under = (SolverConfig(dt=f * bound, t0=-1.2, t1=-1.2 + 20 * f * bound)
                   for f in (1.01, 0.9))
    with pytest.raises(ValueError, match="exceeds the step bound"):
        solve(np.zeros(grid.shape), np.zeros(grid.shape), grid, over, P=cubic_nonlinearity())
    out = solve(np.zeros(grid.shape), np.zeros(grid.shape), grid, under, P=cubic_nonlinearity())
    assert out.metadata["stats"]["dt_margin"] == pytest.approx(0.9, rel=1e-12)
