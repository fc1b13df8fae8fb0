"""Weighted Fourier norms on 3D grids and membership scans under refinement.

The norm weights the transform of a localized field by
<eta_1>^k1 <eta_2>^k2 <eta_3>^k3 <eta>^s.  Finiteness of the continuum norm
is decided numerically from the growth of the truncated norm as the grid
refines: a flat tail means the weighted integral converges, steady growth
means it diverges.  This is a declared convention, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .spectral import (
    NOISE_FLOOR,
    GridND,
    _wavenumbers,
    dft_forward_nd,  # unused here; bench/tracing.py wraps beals.dft_forward_nd by name
)

__all__ = [
    "BealsWeight",
    "MembershipScan",
    "INF_EXPONENT_PROXY",
    "beals_norm",
    "membership_scan",
    "algebra_check",
    "algebra_scan",
]

# Stand-in for an infinite k-exponent in scan mode.  On the rapidly decaying
# fields the scans target, growth verdicts are insensitive to k beyond ~6.
INF_EXPONENT_PROXY = 6.0

# Growth exponent of the squared norm above which a scan says non-member.
# The truncated tail of a borderline weight grows like Nyquist^(2(k+m)+1),
# so at m = -2.6 the member/non-member pair k1 = 2.0 / 2.3 grows like 0
# versus 0.4: the threshold sits between them.
GROWTH_THRESHOLD = 0.25


@dataclass(frozen=True)
class BealsWeight:
    """Exponents (s, k1, k2, k3) of the weighted-transform norm.

    k exponents may be +inf, meaning "tests all orders"; such weights are
    accepted by membership_scan (which substitutes INF_EXPONENT_PROXY) but
    rejected by beals_norm, where a single number would be meaningless.
    """

    s: float = 0.0
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError("s exponent must be finite")
        ks = (self.k1, self.k2, self.k3)
        if any(np.isnan(k) for k in ks):
            raise ValueError("k exponents must not be NaN")
        if min(ks) < 0.0:
            raise ValueError("k exponents must be nonnegative")

    def finite(self) -> bool:
        return all(np.isfinite(k) for k in (self.k1, self.k2, self.k3))

    def resolved(self) -> "BealsWeight":
        """Infinite k exponents replaced by the scan proxy value."""
        ks = [
            k if np.isfinite(k) else INF_EXPONENT_PROXY
            for k in (self.k1, self.k2, self.k3)
        ]
        return BealsWeight(self.s, *ks)


def _weighted_power(f: np.ndarray, grid: GridND, weight: BealsWeight) -> float:
    """Sum of |transform of f|^2 times the squared weight over rfftn's half
    spectrum of the last axis, each interior column counted twice.

    The transform writes into one complex buffer, which numpy's passes over
    the leading axes reuse in place, and dies once the power p is formed
    from it.  At s = 0 the squared weight is a product of one factor per
    axis, contracted with p axis by axis; only s != 0 first multiplies p by
    the 3D factor <eta>^(2s).  Beyond p, the floor's boolean mask and that
    factor are the only grid-sized temporaries.

    Bins below the double-precision noise floor are dropped first: a weight
    like <eta_j>^6 on every axis reaches 1e50 at the corner of a 128^3 grid
    and would amplify FFT roundoff debris into fake divergence.
    """
    n1, n2, n3 = grid.shape
    p = np.abs(np.fft.rfftn(f, out=np.empty((n1, n2, n3 // 2 + 1), complex)))
    p *= p
    p *= grid.cell_volume**2
    floor = NOISE_FLOOR * np.sqrt(p.max())
    p[p < floor**2] = 0.0
    e1, e2, e3 = _wavenumbers(grid)
    if weight.s != 0.0:
        p *= (1.0 + e1**2 + e2**2 + e3**2) ** weight.s
    ks = (weight.k1, weight.k2, weight.k3)
    w1, w2, w3 = ((1.0 + e.ravel() ** 2) ** k for e, k in zip((e1, e2, e3), ks))
    # the zero and Nyquist columns stand for themselves, every other column
    # also for its Hermitian mirror
    w3[1:-1] *= 2.0
    return float(w1 @ ((p @ w3) @ w2))


def beals_norm(
    values: np.ndarray,
    grid: GridND,
    weight: BealsWeight,
    cutoff: np.ndarray | None = None,
) -> float:
    """Weighted L2 norm of the transform of cutoff*values.

    With the h-normalized DFT the weight-free case reduces to the plain
    L2(ds) norm of cutoff*values (Parseval).  The cutoff localizes the field
    strictly inside the periodic box; pass None if the field is already
    compactly supported.

    Only |transform|^2 enters the norm, so the grid's start phase
    exp(-i start*eta), of modulus one, is never applied.  The field is real,
    so its transform is Hermitian and rfftn's half spectrum of the last axis
    holds all of it: the interior columns are counted twice, the zero and
    Nyquist columns once, and the weight, even in every eta_j, reads the
    same on a bin and its mirror.  The half spectrum has the full one's
    maximum, so the noise floor is unchanged.
    """
    if grid.ndim != 3:
        raise ValueError("beals_norm expects a 3D grid")
    if values.shape != grid.shape:
        raise ValueError("field shape does not match grid")
    if not weight.finite():
        raise ValueError("infinite exponents are only meaningful in a scan")
    f = values if cutoff is None else values * cutoff
    total = _weighted_power(f, grid, weight)
    deta = 1.0
    for g in grid.axes:
        deta *= g.freq_spacing()
    return float(np.sqrt(deta / (2.0 * np.pi) ** 3 * total))


@dataclass
class MembershipScan:
    """Norms across a resolution ladder and the resulting verdict."""

    weight: BealsWeight
    resolutions: tuple
    norms: np.ndarray
    growth_exponent: float
    verdict: str


def membership_scan(
    generator: Callable[[int], tuple],
    weight: BealsWeight,
    resolutions: Sequence[int],
    cutoff: Callable[[GridND], np.ndarray] | None = None,
) -> MembershipScan:
    """Decide membership from norm growth across consistent refinements.

    generator(n) must return (values, grid) for an n^3 sampling of one fixed
    continuum field.  The growth exponent is the log-log slope of the SQUARED
    norm against resolution, compared with GROWTH_THRESHOLD; unsquared norms
    would put both sides of the borderline pair below it.
    """
    res = tuple(int(n) for n in resolutions)
    if len(res) < 2:
        raise ValueError("need at least two resolutions")
    if any(b <= a for a, b in zip(res, res[1:])):
        raise ValueError("resolutions must be strictly increasing")
    weight = weight.resolved()
    norms = []
    for n in res:
        values, grid = generator(n)
        c = cutoff(grid) if cutoff is not None else None
        norms.append(beals_norm(values, grid, weight, c))
    norms = np.asarray(norms)
    if np.any(norms <= 0.0):
        raise ValueError("vanishing norm in scan; field is empty under the cutoff")
    growth = float(np.polyfit(np.log(res), 2.0 * np.log(norms), 1)[0])
    if np.any(norms[1:] / norms[:-1] < 0.5):
        verdict = "inconclusive"
    elif growth > GROWTH_THRESHOLD:
        verdict = "non-member"
    else:
        verdict = "member"
    return MembershipScan(
        weight=weight,
        resolutions=res,
        norms=norms,
        growth_exponent=growth,
        verdict=verdict,
    )


def algebra_check(
    u: np.ndarray,
    v: np.ndarray,
    grid: GridND,
    weight: BealsWeight,
    cutoff: np.ndarray | None = None,
) -> float:
    """Ratio ||uv|| / (||u|| ||v||) in the weighted norm (0 for zero input).

    For v is u (the square) the one norm serves both factors.
    """
    nu = beals_norm(u, grid, weight, cutoff)
    nv = nu if v is u else beals_norm(v, grid, weight, cutoff)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    nuv = beals_norm(u * v, grid, weight, cutoff)
    return nuv / (nu * nv)


def algebra_scan(
    generator: Callable[[int], tuple],
    weight: BealsWeight,
    resolutions: Sequence[int],
    cutoff: Callable[[GridND], np.ndarray] | None = None,
) -> np.ndarray:
    """Product-norm ratios across resolutions; generator(n) -> (u, v, grid)."""
    out = []
    for n in resolutions:
        u, v, grid = generator(int(n))
        c = cutoff(grid) if cutoff is not None else None
        out.append(algebra_check(u, v, grid, weight, c))
    return np.asarray(out)
