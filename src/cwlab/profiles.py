"""One-dimensional conormal profiles: synthesis from frequency symbols,
jet extraction, Taylor/singular splitting, pointwise powers, and the
exact-rational spectral mollifier family.

A profile of order m is the inverse transform

    f(s) = integral exp(i s eta) a(eta) d eta,

with canonical symbol a(eta) = (1 + eta^2)^(m/2), m < -1.  On a periodic
grid the integral is truncated at the grid Nyquist frequency and evaluated
by the trapezoid rule at DFT bin spacing, which makes the synthesized
samples an exact band-limited periodic field (sum of periodic images of
the continuum profile).

The mollifier family's ramp polynomial G is built from its definition: its
derivative G'(sigma) = A sigma (sigma-1)^r (sigma-2)^r is formed and
integrated from G(2) = 0 with numpy.polynomial on object arrays of
Fractions, so every coefficient is exact.  The C_j/D_j closed form of G is
not a construction path; MollifierFamily.verify checks the stored G against
it.

The soft cutoff psi = (chi * ramp) / mass(chi) has one panel rule,
_chi_integral: the 64-point Gauss rule of chi(t) g(t) on each panel between
chi's breaks, summed in panel order.  For psi^(q)(eta) the panels are also
split at the ramp's kinks eta - N and eta - 2N, so every integrand is smooth
on its panel, and all eta are integrated in one array quadrature.  chi's mass
comes from the same rule, which makes the plateau value exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .spectral import Grid1D, bump_window, dft_forward, dft_inverse, plateau_window

_EPS = np.finfo(float).eps

# The jet matcher keeps the smooth part's spectrum inside |eta| < this limit
# (see piriou_decompose); the grid must resolve twice it.
JET_BAND_LIMIT = 4.0


@dataclass(frozen=True)
class SymbolSpec:
    """Canonical one-dimensional symbol (1+eta^2)^(order/2)."""

    order: float

    def __post_init__(self):
        if not self.order < -1:
            raise ValueError(f"symbol order must be < -1, got {self.order}")

    def __call__(self, eta) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        return (1.0 + eta * eta) ** (0.5 * self.order)


@dataclass
class ConormalProfile:
    """Sampled profile together with its nominal singularity order."""

    grid: Grid1D
    values: np.ndarray
    order: float | None = None

    def spectrum(self) -> np.ndarray:
        return dft_forward(self.values, self.grid)


def synthesize_profile(
    symbol,
    grid: Grid1D,
    cutoff: float | None = None,
) -> ConormalProfile:
    """Synthesize a profile from a symbol by truncated trapezoid quadrature.

    ``symbol`` is a :class:`SymbolSpec` or any vectorized callable of eta.
    Frequencies beyond ``cutoff`` (default: the grid Nyquist pi/h) are
    dropped.
    """
    if cutoff is None:
        cutoff = grid.nyquist
    if cutoff > grid.nyquist + 1e-12:
        raise ValueError("cutoff exceeds grid Nyquist frequency")
    eta = grid.freqs()
    a = np.asarray(symbol(eta), dtype=float)
    a[np.abs(eta) > cutoff] = 0.0
    # trapezoid on the DFT lattice: the single -Nyquist bin carries the same
    # weight as two half-weighted endpoints of a symmetric symbol
    vals = np.real(dft_inverse(2.0 * np.pi * a, grid))
    return ConormalProfile(grid=grid, values=vals, order=getattr(symbol, "order", None))


def k_of_m(m: float) -> int:
    """The unique integer k with -m-2 <= k < -m-1, for non-integer m < -1."""
    if not m < -1:
        raise ValueError(f"order must be < -1, got {m}")
    if abs(m - round(m)) < 1e-9:
        raise ValueError(f"integer order {m} has no admissible vanishing index")
    k = math.ceil(-m - 2.0)
    assert -m - 2.0 <= k < -m - 1.0
    return k


def _moments(profile: ConormalProfile, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Jets f^(j)(0) and their scales, j = 0..k, from spectral moments.

    The jet is f^(j)(0) = (1/2pi) * integral (i eta)^j spectrum(eta) d eta on
    the profile's own frequency lattice; its scale is the same integral of
    |eta|^j |spectrum(eta)|, the size quadrature noise in the jet is judged
    against.
    """
    spec = profile.spectrum()
    eta = profile.grid.freqs()
    deta = profile.grid.freq_spacing()
    j = np.arange(k + 1)[:, None]
    jets = np.real(np.sum((1j * eta) ** j * spec, axis=1)) * deta / (2.0 * np.pi)
    scales = np.sum(np.abs(eta) ** j * np.abs(spec), axis=1) * deta / (2.0 * np.pi)
    return jets, scales


def profile_jet(profile: ConormalProfile, k: int) -> np.ndarray:
    """Derivatives f^(j)(0), j = 0..k, from spectral moments of the profile,
    avoiding finite differences of samples."""
    if k < 0:
        raise ValueError("jet order must be >= 0")
    return _moments(profile, k)[0]


@dataclass
class PiriouSplit:
    """Taylor-plus-singular splitting of a profile at the origin."""

    k: int
    coefficients: np.ndarray
    taylor: ConormalProfile
    singular: ConormalProfile


def piriou_decompose(
    profile: ConormalProfile,
    k: int | None = None,
) -> PiriouSplit:
    """Split a profile into a smooth jet-matching part and a remainder
    vanishing to order k+1 at the origin.

    The smooth part is built in frequency: T_hat = P(eta) * bump(eta/limit),
    with limit = JET_BAND_LIMIT and P a degree-k polynomial solving the
    moment system (1/2pi) sum (i eta)^j T_hat deta = f^(j)(0), j = 0..k, on
    the profile's own frequency lattice.  A spatial polynomial-times-cutoff
    subtraction would plant the cutoff's transform (decay ~exp(-c sqrt(eta)),
    slower than any |eta|^m tail over the usable bands) on top of the
    remainder; keeping the smooth part's spectrum inside |eta| < limit
    leaves the remainder identical to the input on every fit band.  Jets
    below quadrature noise are snapped to exact zero, so decomposing an
    already-vanishing profile returns an identically zero smooth part.
    """
    if k is None:
        if profile.order is None:
            raise ValueError("profile has no order; pass k explicitly")
        k = k_of_m(profile.order)
    if profile.grid.nyquist <= 2.0 * JET_BAND_LIMIT:
        raise ValueError(
            "grid too coarse for the jet matcher: nyquist %.3g <= 2*JET_BAND_LIMIT"
            % profile.grid.nyquist
        )
    jets, scales = _moments(profile, k)
    # noise gate: a jet within 64 eps of its moment scale is zero
    gated = np.where(np.abs(jets) <= 64.0 * _EPS * scales, 0.0, jets)

    eta = profile.grid.freqs()
    deta = profile.grid.freq_spacing()
    if not np.any(gated):
        taylor_vals = np.zeros_like(profile.values)
    else:
        env = bump_window(eta / JET_BAND_LIMIT)
        # moments[j, n] = (1/2pi) sum (i eta)^j eta^n env deta
        j = np.arange(k + 1)
        powers = (1j * eta) ** j[:, None, None] * eta ** j[None, :, None]
        moments = np.sum(powers * env, axis=-1) * deta / (2.0 * np.pi)
        poly = np.linalg.solve(moments, gated.astype(complex))
        t_hat = env * np.polyval(poly[::-1], eta)
        # coefficients alternate real/imaginary, so t_hat is Hermitian
        taylor_vals = np.real(dft_inverse(t_hat, profile.grid))
    singular_vals = profile.values - taylor_vals
    q = gated / np.array([math.factorial(j) for j in range(k + 1)], dtype=float)
    return PiriouSplit(
        k=k,
        coefficients=q,
        taylor=ConormalProfile(grid=profile.grid, values=taylor_vals, order=None),
        singular=ConormalProfile(
            grid=profile.grid, values=singular_vals, order=profile.order
        ),
    )


def profile_power(profile: ConormalProfile, j: int) -> ConormalProfile:
    """Pointwise j-th power of a profile vanishing to order k(m) at 0.

    Records the predicted order m - (j-1)*k(m).  The prediction is a bound on
    singularity strength: it is attained exactly when the input vanishes to
    order k(m) and no further (see extremal_profile); inputs with all jets
    0..k(m) removed vanish one order higher and their powers decay strictly
    faster (j-th power order j*m + j - 1).
    """
    if j < 2:
        raise ValueError("power must be >= 2")
    predicted = None
    if profile.order is not None:
        k = k_of_m(profile.order)
        if k > 0:
            jets, scales = _moments(profile, k - 1)
            if np.any(np.abs(jets) > 1e-6 * scales):
                raise ValueError("profile does not vanish to order k(m) at 0")
        predicted = profile.order - (j - 1) * k
    return ConormalProfile(
        grid=profile.grid, values=profile.values**j, order=predicted
    )


def extremal_profile(m: float, grid: Grid1D) -> ConormalProfile:
    """Conormal profile of order m vanishing to order exactly k(m) at 0.

    Built as ((L/2pi) sin(2pi s/L))^k * g with g synthesized at order m+k:
    the generic element of the product class, whose powers attain the
    predicted orders m-(j-1)k(m).  The sine factor equals s + O(s^3) near
    the origin but stays periodic, so no wrap discontinuity pollutes the
    spectrum.
    """
    k = k_of_m(m)
    g = synthesize_profile(SymbolSpec(m + k), grid)
    s = grid.nodes()
    length = grid.extent
    ramp = (length / (2.0 * np.pi)) * np.sin(2.0 * np.pi * s / length)
    return ConormalProfile(
        grid=grid, values=ramp**k * g.values, order=float(m)
    )


# ---------------------------------------------------------------------------
# exact-rational mollifier family
# ---------------------------------------------------------------------------


def _ramp_slope(r: int, amplitude: Fraction | int) -> np.ndarray:
    """G'(sigma) = A * sigma * (sigma-1)^r * (sigma-2)^r, exact coefficients
    (an object array of A's type, lowest degree first)."""
    sm1, sm2 = np.array([-1, 1], dtype=object), np.array([-2, 1], dtype=object)
    return amplitude * P.polymulx(P.polymul(P.polypow(sm1, r, None), P.polypow(sm2, r, None)))


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integers n_i and the LCM L of the denominators, values_i = n_i / L."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


@dataclass(frozen=True)
class MollifierFamily:
    """Exact polynomial data of the soft frequency-truncation ramp.

    The ramp g on (N, 2N] is g(s) = G(s/N) with the universal degree
    2r+2 polynomial G, defined by its derivative
    G'(sigma) = A * sigma * (sigma-1)^r * (sigma-2)^r and G(2) = 0.
    ramp_poly holds G's coefficients, lowest degree first; the C_j, D_j of
    its closed form are kept so that verify can check G against it.
    """

    r: int
    amplitude: Fraction
    c_coeffs: tuple[Fraction, ...]
    d_coeffs: tuple[Fraction, ...]
    ramp_poly: tuple[Fraction, ...]

    def ramp_derivative(self, q: int, s, n_cut: float) -> np.ndarray:
        coef = P.polyder(self.ramp_poly, q).astype(float)
        return P.polyval(np.asarray(s, dtype=float) / n_cut, coef) / n_cut**q

    def verify(self) -> dict[str, bool]:
        """Exact-arithmetic identities of the stored ramp polynomial G.

        G is scaled by the LCM L of its denominators to integer coefficients
        (an object array of Python ints, on which numpy.polynomial stays
        exact), and each identity is compared after cross-multiplying by the
        denominators of A, C_j and D_j, so no Fraction is normalized.
        """
        r = self.r
        g_int, scale = _over_common_denominator(self.ramp_poly)
        g = np.array(g_int, dtype=object)
        derivs = [g]
        for _ in range(r):
            derivs.append(P.polyder(derivs[-1]))
        # L G' = L A slope with A = a/b: b (L G') = L a slope
        a, b = self.amplitude.numerator, self.amplitude.denominator
        mismatch = P.polysub(b * derivs[1], scale * _ramp_slope(r, a))
        cd_int, den = _over_common_denominator(self.c_coeffs + self.d_coeffs)
        c_int, d_int = cd_int[: len(self.c_coeffs)], cd_int[len(self.c_coeffs) :]

        def closed_form_holds(s: int) -> bool:
            # A (sum C_j ... + sum D_j ...) = G(s), times b den L on both sides
            s1, s2 = s - 1, s - 2
            bracket = sum(
                c * s1 ** (r + 1 - j) * s2 ** (r + j + 1) for j, c in enumerate(c_int)
            ) + sum(d * s1 ** (r - j) * s2 ** (r + j + 1) for j, d in enumerate(d_int))
            return a * bracket * scale == b * den * P.polyval(s, g)

        return {
            "plateau_value_one": P.polyval(1, g) == scale,
            "endpoint_value_zero": P.polyval(2, g) == 0,
            "joint_derivatives_vanish": all(
                P.polyval(1, p) == 0 and P.polyval(2, p) == 0 for p in derivs[1:]
            ),
            "derivative_identity": all(c == 0 for c in mismatch),
            # Both sides are polynomials of degree <= 2r+2, and two such
            # polynomials that agree at 2r+3 points are equal.
            "closed_form": all(closed_form_holds(s) for s in range(2 * r + 3)),
        }


def mollifier_polynomial(r: int) -> MollifierFamily:
    """Exact coefficients of the degree-2r+2 truncation ramp.

    G is the integral of G'(sigma) = A * sigma * (sigma-1)^r * (sigma-2)^r
    from 2, with

    A = (-1)^(r+1) (2r+2)! / (3 (r+1) (r!)^2).

    Its closed form, checked by MollifierFamily.verify, is
    G(sigma) = A * [ sum_j C_j (sigma-1)^(r+1-j) (sigma-2)^(r+j+1)
                   + sum_j D_j (sigma-1)^(r-j)   (sigma-2)^(r+j+1) ],

    C_j = (-1)^j (r+1)!/(r+1-j)! * r!/(r+j+1)!   for j = 0..r+1,
    D_j = (-1)^j r!/(r-j)! * r!/(r+j+1)!          for j = 0..r.
    """
    if not isinstance(r, int) or not 1 <= r <= 20:
        raise ValueError(f"ramp regularity r must be an integer in [1, 20], got {r}")
    rf = math.factorial(r)
    amplitude = Fraction(
        (-1) ** (r + 1) * math.factorial(2 * r + 2), 3 * (r + 1) * rf * rf
    )
    c = tuple(
        Fraction(
            (-1) ** j * math.factorial(r + 1) * rf,
            math.factorial(r + 1 - j) * math.factorial(r + j + 1),
        )
        for j in range(r + 2)
    )
    d = tuple(
        Fraction(
            (-1) ** j * rf * rf,
            math.factorial(r - j) * math.factorial(r + j + 1),
        )
        for j in range(r + 1)
    )
    g = tuple(P.polyint(_ramp_slope(r, amplitude), lbnd=2))
    return MollifierFamily(r=r, amplitude=amplitude, c_coeffs=c, d_coeffs=d, ramp_poly=g)


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


@lru_cache(maxsize=1)
def _bump_mass() -> float:
    """Integral of bump_window over [-1, 1] by the 64-point Gauss rule on 8
    equal panels; the bump is flat to all orders at +-1, so the rule
    converges to roundoff."""
    edges = np.linspace(-1.0, 1.0, 9)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    return float(np.sum(half * _GAUSS_WEIGHTS * bump_window(mid + half * _GAUSS_NODES)))


def chi_window(s) -> np.ndarray:
    """Averaging kernel: 1 on |s|<=1, supported in [-2,2], unit integral.

    Any smooth kernel with these three properties must go negative (the
    plateau alone integrates to more than 2), so a normalized side lobe on
    1 < |s| < 2 is subtracted from a plateau window.
    """
    s = np.asarray(s, dtype=float)
    plateau = plateau_window(s, 1.0, 2.0)
    lobe = bump_window(4.0 * (np.abs(s) - 1.5))
    # integral of plateau is exactly 3; each side lobe integrates to bump_mass/4
    lobe_mass = 0.5 * _bump_mass()
    return plateau - (2.0 / lobe_mass) * lobe


_CHI_BREAKS = np.array([-2.0, -1.75, -1.25, -1.0, 1.0, 1.25, 1.75, 2.0])


def _chi_integral(g, breaks, *params) -> np.ndarray:
    """Integral of chi(t) g(t, *params) by the 64-point Gauss rule on each
    panel between consecutive breaks (last axis), the panels added in order.

    Only nonempty panels are evaluated: g maps their quadrature nodes, shape
    (panels, 64), and each param, broadcast to one value per panel and taken
    at those panels, shape (panels, 1), to values of the nodes' shape.  An
    empty panel (a repeated break) adds exactly 0 without being evaluated.
    """
    a, b = breaks[..., :-1], breaks[..., 1:]
    live = b != a  # NaN breaks stay live and give NaN
    a, b = a[live][:, None], b[live][:, None]
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    t = mid + half * _GAUSS_NODES
    rows = (np.broadcast_to(p, live.shape)[live][:, None] for p in params)
    panels = np.zeros(live.shape)
    panels[live] = half[:, 0] * np.sum(_GAUSS_WEIGHTS * chi_window(t) * g(t, *rows), axis=-1)
    # a running sum from 0.0, not np.sum's pairwise order, fixes every bit
    total = 0.0
    for panel in np.moveaxis(panels, -1, 0):
        total = total + panel
    return total


class PsiMollifier:
    """Soft spectral cutoff psi = chi * ramp, evaluated by panel quadrature.

    psi(eta) = 1 for eta <= N-2 and psi(eta) = 0 for eta >= 2N+2; scaled
    derivatives eta^q psi^(q)(eta), q <= r, are bounded uniformly in N.
    """

    def __init__(self, n_cut: float, r: int):
        if not n_cut > 4:
            raise ValueError("cutoff scale must exceed 4")
        self.n_cut = float(n_cut)
        self.r = r
        self.family = mollifier_polynomial(r)
        # normalize by the chi mass under the same panel rule, so the
        # plateau value is exactly 1 (same nodes, same weights)
        self._chi_mass = _chi_integral(lambda t: 1.0, _CHI_BREAKS)

    def _ramp_piece(self, s: np.ndarray, q: int) -> np.ndarray:
        """q-th derivative of the soft truncation profile at argument s."""
        out = np.zeros_like(s)
        below = s <= self.n_cut
        if q == 0:
            out[below] = 1.0
        mid = (~below) & (s <= 2.0 * self.n_cut)
        if np.any(mid):
            out[mid] = self.family.ramp_derivative(q, s[mid], self.n_cut)
        return out

    def derivative(self, q: int, eta):
        """psi^(q)(eta), valid for 0 <= q <= r: an array of eta's shape, or a
        float for a scalar eta.

        Each eta integrates over chi's panels split at the ramp's kinks
        eta - N and eta - 2N; a kink outside chi's support [-2, 2] is
        clipped onto its end and leaves an empty panel.
        """
        if not 0 <= q <= self.r:
            raise ValueError(f"derivative order must be in [0, {self.r}]")
        eta = np.asarray(eta, dtype=float)[..., None]
        kinks = np.concatenate([eta - self.n_cut, eta - 2.0 * self.n_cut], axis=-1)
        breaks = np.broadcast_to(_CHI_BREAKS, eta.shape[:-1] + _CHI_BREAKS.shape)
        breaks = np.sort(np.clip(np.concatenate([breaks, kinks], axis=-1), -2.0, 2.0))
        integral = _chi_integral(lambda t, e: self._ramp_piece(e - t, q), breaks, eta)
        out = integral / self._chi_mass
        return out if out.ndim else float(out)
