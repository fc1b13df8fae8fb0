"""Shared expensive fixtures: solver runs reused across test modules."""

import numpy as np
import pytest
from hypothesis import settings

from cwlab.interaction import (
    default_experiment,
    make_three_wave_data,
    nonlinear_response,
    polarization_isolate,
)
from cwlab.solver import SpaceTimeField

# Property tests draw the same examples on every run, write no example
# database and have no per-example deadline (timings on a shared host vary).
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def cfg256():
    return default_experiment(points=256)


@pytest.fixture(scope="session")
def resp256(cfg256):
    return nonlinear_response(cfg256)


@pytest.fixture(scope="session")
def iso256(resp256):
    return polarization_isolate(resp256)


@pytest.fixture(scope="session")
def cfg512():
    return default_experiment(points=512)


@pytest.fixture(scope="session")
def resp512(cfg512):
    return nonlinear_response(cfg512)


@pytest.fixture(scope="session")
def data512(cfg512):
    """Initial three-wave data wrapped as a one-slice field (no solve)."""
    t0 = cfg512.solver.t0
    u0, ut0 = make_three_wave_data(
        cfg512.frame, cfg512.m, (cfg512.eps,) * 3, cfg512.grid, t0
    )
    fld = SpaceTimeField(cfg512.grid, np.array([t0]), u0[None], ut0[None])
    fld.metadata["frame"] = cfg512.frame
    return fld


# The fraction of each axis's Nyquist frequency a kick keeps (the 2/3 rule).
CUT = 2.0 / 3.0


def lawson_reference(u0, ut0, grid, cfg, P, response):
    """Records of a plain full-grid Strang/Lawson stepper: u_lin and w on the
    whole rfft2 spectrum, every step kicked (the gate's own zeros stand in
    for skipped kicks), no box, no block, no jumps.  With response, the
    records hold w = u - u_lin, else u."""
    n = int(round((cfg.t1 - cfg.t0) / cfg.dt))
    dt = (cfg.t1 - cfg.t0) / n
    g1, g2 = grid.axes
    kx, ky = g1.freqs()[:, None], np.abs(g2.freqs()[None, : g2.points // 2 + 1])
    k = np.hypot(kx, ky)
    mask = (np.abs(kx) <= CUT * g1.nyquist) & (ky <= CUT * g2.nyquist)
    c, s = np.cos(0.5 * k * dt), np.sin(0.5 * k * dt)
    sinc = np.where(k > 0, s / np.where(k > 0, k, 1.0), 0.5 * dt)
    x1, x2 = grid.nodes()
    x1, x2 = x1[:, None], x2[None, :]
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
