"""cwlab runs on numpy alone; scipy is only a test-time reference.

The guard runs the code that used scipy (the solver's FFTs, the ridge
interpolant, the bump mass behind chi and psi) in a fresh interpreter and
checks that no scipy module was loaded.  The oracle tests compare the numpy
replacements with the scipy routines they replace.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy.integrate import quad

from cwlab.profiles import _bump_mass
from cwlab.solver import _field, _spectrum
from cwlab.spectral import _periodic_cubic_spline, bump_window

SRC = Path(__file__).resolve().parents[1] / "src"

_GUARD = """
import sys

import numpy as np

import cwlab
from cwlab.interaction import DEFAULT_FRAME, ridge_radius
from cwlab.profiles import PsiMollifier
from cwlab.solver import SolverConfig, SpaceTimeField, cubic_nonlinearity, grid2d, solve_response

grid = grid2d(64, 3.0)  # spacing below pi/32, as ridge_radius's fit band needs
x1, x2 = grid.nodes()
u0 = np.exp(-(x1[:, None] ** 2 + x2[None, :] ** 2) / 0.05)
cfg = SolverConfig(dt=0.02, t0=-1.2, t1=0.6, record_stride=90)
resp = solve_response(u0, np.zeros(grid.shape), grid, cfg, P=cubic_nonlinearity(5.0))
assert resp.metadata["stats"]["kicks_applied"] > 0
field = SpaceTimeField(grid, resp.times, resp.u, resp.ut, metadata={"frame": DEFAULT_FRAME})
assert np.isfinite(ridge_radius(field, 0.6))
assert np.all(np.isfinite(PsiMollifier(64, 3).derivative(1, np.linspace(50.0, 140.0, 7))))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_running_cwlab_loads_no_scipy():
    out = subprocess.run(
        [sys.executable, "-c", _GUARD],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("shape", [(17, 23), (9, 40), (32, 31), (64, 64)])
def test_periodic_spline_matches_ndimage_grid_wrap(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape)
    # points wrap past both edges of each axis
    i1 = rng.uniform(-4.5, shape[0] + 4.5, (6, 13))
    i2 = rng.uniform(-4.5, shape[1] + 4.5, (6, 13))
    ref = ndimage.map_coordinates(values, [i1, i2], order=3, mode="grid-wrap")
    got = _periodic_cubic_spline(values, i1, i2)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(values))


def test_bump_mass_matches_adaptive_quadrature():
    ref = quad(lambda u: bump_window(u).item(), -1.0, 1.0, epsabs=1e-14)[0]
    assert _bump_mass() == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("shape", [(32, 32), (16, 64)])
def test_spectrum_is_contiguous_and_inverts(shape):
    f = np.random.default_rng(7).standard_normal(shape)
    spec = _spectrum(f)
    assert spec.flags.c_contiguous
    assert spec.shape == (shape[1] // 2 + 1, shape[0])
    assert np.max(np.abs(_field(spec, shape[1]) - f)) <= 1e-13 * np.max(np.abs(f))
