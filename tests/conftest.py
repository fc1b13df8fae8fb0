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
