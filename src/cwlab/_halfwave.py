"""Free flow of spectra held as half-wave pairs.

The wave operator factors into the two half-wave propagators exp(+-i t |D|),
whose characteristic sheets carry the singularities (Melrose & Ritter,
Ann. Math. 121, 1985).  A mode's state (uh, vh), the spectra of u and u_t
at |k| = k, splits the same way into

    Y+- = (uh -+ i vh / k) / 2,    uh = Y+ + Y-,    vh = i k (Y+ - Y-),

and free flow over tau only turns each half by its phase, Y+- times
exp(+-i k tau): one complex multiply of the stacked pair by a phase table
(_phases), not a 2 x 2 rotation of (uh, vh) over three tables; a one-off
jump turns each half by its phase in turn (_HalfWaves.jump).  A kick that
adds p to vh adds -+ i p / 2k to Y+-.  The mean, the mode with k = 0, has
no phase and no 1/k: it is carried apart as (uh0, vh0), which free flow
shears, uh0 += tau vh0.  The solver holds its loop's folded block, the
data's free part, which each record turns by one jump of the record
spacing, and linear_propagate's jump by this one rule (_HalfWaves).  A
solve builds one table, its loop's step, and every other free flow is a
jump, so no table outlives the solve that built it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


def _phase(k, tau, out=None):
    """exp(i k tau), written into out (complex, of k's shape) when given;
    built in place, with no scratch."""
    e = np.empty(np.shape(k), complex) if out is None else out
    np.multiply(k, tau, out=e.imag)
    np.cos(e.imag, out=e.real)
    np.sin(e.imag, out=e.imag)
    return e


def _phases(k, tau):
    """exp(+-i k tau), stacked (2,) + k.shape: the table of free flow over
    tau of a half-wave pair on |k| = k."""
    out = np.empty((2,) + np.shape(k), complex)
    np.conjugate(_phase(k, tau, out[0]), out=out[1])
    return out


class _HalfWaves:
    """Spectra (uh, vh) of u and u_t on |k| = k, held as y = (Y+, Y-) and
    the mean (see the module docstring).

    The mean is the first entry of every spectrum here, [0, ..., 0] of uh
    and vh, and the only one with k = 0 (W, the fold's odd part, vanishes on
    the kappa = 0 row of a folded block); y holds 0 wherever k = 0.
    """

    def __init__(self, y, k):
        """y, (2, ...) complex, holds (uh, vh) and is turned into the pair in
        place; k broadcasts against y[0]."""
        self.y, self.k, self.first = y, k, (0,) * (y.ndim - 1)
        self.mean = [y[0][self.first], y[1][self.first]]
        uh, vh = y
        np.divide(vh, k, out=vh, where=k > 0)
        vh *= 0.5j
        uh *= 0.5
        vh += uh  # Y- = uh / 2 + i vh / 2k
        uh *= 2.0
        uh -= vh  # Y+ = uh - Y-
        np.copyto(y, 0.0, where=k == 0)

    @cached_property
    def _i_over_2k(self):
        """i / 2k, 0 at k = 0: built by the first kick, as only the loop kicks."""
        return np.divide(0.5j, self.k, out=np.zeros(self.k.shape, complex), where=self.k > 0)

    def flow(self, phase, tau: float) -> None:
        """Free flow over tau; phase is _phases(k, tau)."""
        self.y *= phase
        self.mean[0] += tau * self.mean[1]

    def jump(self, tau: float) -> None:
        """Free flow over tau, a one-off: its phases are built for it and
        dropped, one half at a time, so the jump holds a table of k's shape."""
        e = _phase(self.k, tau)
        self.y[0] *= e
        self.y[1] *= np.conjugate(e, out=e)
        self.mean[0] += tau * self.mean[1]

    def u(self, out=None):
        """uh, written into out when given."""
        u = np.add(self.y[0], self.y[1], out=out)
        u[self.first] = self.mean[0]
        return u

    def ut(self, out=None):
        """vh, written into out when given."""
        ut = np.subtract(self.y[0], self.y[1], out=out)
        ut.real *= self.k  # by parts: a complex product would cast k whole
        ut.imag *= self.k
        ut *= 1j
        ut[self.first] = self.mean[1]
        return ut

    def kick(self, p) -> None:
        """Add p, shaped like uh, to vh; p is overwritten."""
        self.mean[1] += p[self.first]
        p *= self._i_over_2k
        self.y[0] -= p
        self.y[1] += p
