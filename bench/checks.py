"""Output checkers for the cwlab benchmark.

Each checker takes a program output and the value that output must have,
computed apart from the program or fixed by a property the method must
have, and returns a :class:`Check`.  No checker compares against a stored
copy of an earlier output.  ``selftest.py`` feeds every checker a known-wrong
output and expects it to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    """One checked output: one attempted operation of the benchmark."""

    name: str
    ok: bool
    detail: str


def within(name: str, value: float, target: float, tol: float) -> Check:
    """|value - target| <= tol, with a non-finite value failing."""
    ok = bool(math.isfinite(value) and abs(value - target) <= tol)
    return Check(name, ok, f"{value:.6g} vs {target:.6g} +- {tol:.3g}")


def relative(name: str, value: float, target: float, rtol: float) -> Check:
    """|value - target| <= rtol * |target|."""
    ok = bool(math.isfinite(value) and abs(value - target) <= rtol * abs(target))
    return Check(name, ok, f"{value:.6g} vs {target:.6g} (rel {rtol:.3g})")


def below(name: str, value: float, limit: float) -> Check:
    ok = bool(math.isfinite(value) and value < limit)
    return Check(name, ok, f"{value:.6g} < {limit:.3g}")


def exactly(name: str, value, target) -> Check:
    return Check(name, bool(value == target), f"{value!r} == {target!r}")


def signed_overlap(name: str, correlation: float, sign: float, floor: float = 0.95) -> Check:
    """The correlation carries ``sign`` with magnitude at least ``floor``."""
    ok = bool(math.isfinite(correlation) and math.copysign(1.0, sign) * correlation >= floor)
    return Check(name, ok, f"correlation {correlation:.6g}, expected sign {'+' if sign > 0 else '-'}")


def fields_match(name: str, pairs, rtol: float) -> Check:
    """Largest max-norm relative error over (got, exact) field pairs."""
    err = 0.0
    for got, exact in pairs:
        exact = np.asarray(exact, dtype=float)
        scale = float(np.max(np.abs(exact)))
        diff = float(np.max(np.abs(np.asarray(got, dtype=float) - exact)))
        err = max(err, diff / scale if scale > 0 else math.inf)
    return Check(name, bool(err <= rtol), f"relative error {err:.3g} <= {rtol:.3g}")


def l2_norm(values: np.ndarray, cell_volume: float) -> float:
    """Plain L2 norm of a sampled field: the Parseval side of beals_norm."""
    return float(np.sqrt(cell_volume * np.sum(np.asarray(values, dtype=float) ** 2)))


def loglog_slope(values: np.ndarray, extent: float, band: tuple[float, float]) -> float:
    """Slope of log|FFT| against log(eta) over a band, fitted with plain numpy.

    A second estimator apart from cwlab.spectral.decay_exponent: rfft of the
    samples, angular frequencies 2*pi*k/extent, least squares in log-log.
    """
    values = np.asarray(values, dtype=float)
    amp = np.abs(np.fft.rfft(values))
    eta = 2.0 * np.pi * np.arange(amp.size) / extent
    sel = (eta >= band[0]) & (eta <= band[1]) & (amp > 0.0)
    return float(np.polyfit(np.log(eta[sel]), np.log(amp[sel]), 1)[0])


def uniform_sups(name: str, sups_by_scale: dict, max_ratio: float) -> Check:
    """Largest over smallest sup across cutoff scales stays below max_ratio.

    ``sups_by_scale`` maps a derivative order q to its sups of
    |eta^q psi^(q)| at each cutoff scale N.
    """
    worst = 0.0
    for sups in sups_by_scale.values():
        sups = np.asarray(sups, dtype=float)
        ratio = float(sups.max() / sups.min()) if sups.min() > 0 else math.inf
        worst = max(worst, ratio)
    return Check(name, bool(worst <= max_ratio), f"max/min sup {worst:.4g} <= {max_ratio}")


def all_true(name: str, flags: dict) -> Check:
    bad = sorted(k for k, v in flags.items() if not v)
    return Check(name, not bad, "all true" if not bad else f"false: {', '.join(map(str, bad))}")
