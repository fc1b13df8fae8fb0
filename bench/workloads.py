"""The three benchmark workloads, run through cwlab's public API.

Every workload has ``setup()`` (everything up to the first timed
operation), ``op()`` (one timed unit of work) and ``check(out)`` (the
checked outputs of one operation, each an attempted benchmark operation).
Calls into cwlab go through module attributes (``interaction.solve`` and so
on) at call time, so the traced run can wrap them from outside.

Inputs come from ``seed`` only; see README.md for what each seed draws.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from cwlab import beals, interaction, profiles, solver, spectral

from checks import (
    Check,
    all_true,
    below,
    exactly,
    fields_match,
    l2_norm,
    loglog_slope,
    relative,
    signed_overlap,
    uniform_sups,
    within,
)


# The paper's orders for profiles of order m: the cone wave is 3m - 1/2 and
# sits 2m - 1/2 below the incoming fronts.
def cone_order(m: float) -> float:
    return 3.0 * m - 0.5


def order_gap(m: float) -> float:
    return 2.0 * m - 0.5


SLOPE_TOL = 0.5   # cone slope against 3m - 1/2
GAP_TOL = 0.6     # order gap against 2m - 1/2


class Experiment256:
    """One full run_experiment at 256 points with two seeded trial couplings.

    26 solve calls on 15 distinct inputs: orchestration in ``interaction``
    dominates, and the arrays fit in a core's L2 cache.
    """

    name = "experiment_256"
    eps_factors = (0.25, 0.5, 1.0)
    # At 256 points the incoming-front fit has too few bins in its band and
    # interaction._slice_fit reports it as superpolynomial (slope -inf), so
    # the report's order gap is infinite on every run.
    known_faults = frozenset({"order_gap"})

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.a_scaled = float(rng.uniform(1.25, 3.0))
        self.a_flipped = -float(rng.uniform(0.5, 2.0))
        self.cfg = interaction.default_experiment(points=256)
        self.trials = tuple(
            solver.cubic_nonlinearity(a) for a in (self.a_scaled, self.a_flipped)
        )
        c = self.cfg
        interaction.make_three_wave_data(c.frame, c.m, (c.eps,) * 3, c.grid, c.solver.t0)

    def op(self):
        return interaction.run_experiment(
            self.cfg,
            eps_factors=self.eps_factors,
            trials=self.trials,
            polarization=True,
            two_wave_check=True,
        )

    def check(self, rep):
        m = self.cfg.m
        gap = rep.cone_fit.slope - rep.incoming_fit.slope
        scaled, flipped = rep.coeff_estimates
        nulls = rep.null_energies
        checks = [
            within("eps_exponent", rep.eps_exponent, 3.0, 0.1),
            relative("c_hat_scaled", scaled.c_hat, abs(self.a_scaled), 0.05),
            signed_overlap("correlation_scaled", scaled.correlation, self.a_scaled),
            relative("c_hat_flipped", flipped.c_hat, abs(self.a_flipped), 0.05),
            signed_overlap("correlation_flipped", flipped.correlation, self.a_flipped),
            below("two_wave_ratio", nulls["two_wave_ratio"], 1e-3),
            exactly("p_zero_peak", nulls["p_zero_peak"], 0.0),
            within("cone_slope", rep.cone_fit.slope, cone_order(m), SLOPE_TOL),
            within("order_gap", gap, order_gap(m), GAP_TOL),
        ]
        physics = {
            "cone_slope": rep.cone_fit.slope,
            "incoming_slope": rep.incoming_fit.slope,
            "incoming_bins": rep.incoming_fit.n_bins,
            "order_gap": gap,
            "cone_amplitude": rep.cone_amplitude,
            "eps_exponent": rep.eps_exponent,
            "a3_trials": [self.a_scaled, self.a_flipped],
            "c_hat": [scaled.c_hat, flipped.c_hat],
            "correlation": [scaled.correlation, flipped.correlation],
            "two_wave_ratio": nulls["two_wave_ratio"],
            "p_zero_peak": nulls["p_zero_peak"],
            "polarization_slope": rep.notes.get("polarization_slope"),
        }
        return checks, physics


class Response512:
    """One nonlinear_response at 512 points and its cone, front and ridge
    diagnostics.

    Almost all the time is the solver kernel; the arrays exceed L2 and
    there is nothing to deduplicate.
    """

    name = "response_512"
    known_faults = frozenset()
    RIDGE_SPACINGS = 4.0  # ridge_radius within this many grid spacings of t1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        # The coupling scales the response linearly, which leaves every
        # slope, the ridge and the free solve unchanged.
        self.a3 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        base = interaction.default_experiment(points=512)
        self.cfg = replace(base, P=solver.cubic_nonlinearity(self.a3))
        c = self.cfg
        self.t0, self.t1 = c.solver.t0, c.solver.t1
        self.u0, self.ut0 = interaction.make_three_wave_data(
            c.frame, c.m, (c.eps,) * 3, c.grid, self.t0
        )
        self.data = solver.SpaceTimeField(
            c.grid, np.array([self.t0]), self.u0[None], self.ut0[None], np.zeros(1),
            metadata={"frame": c.frame},
        )
        self.exact_t1 = None

    def op(self):
        c = self.cfg
        probe = c.probes[0]
        resp = interaction.nonlinear_response(c)
        return {
            "cone": interaction.cone_order_estimate(resp, probe),
            "front": interaction.front_order_estimate(
                self.data, c.frame.omegas[0], t=self.t0
            ),
            "amplitude": interaction.cone_amplitude(resp, probe),
            "band_energy": interaction.probe_band_energy(resp, probe),
            "ridge": interaction.ridge_radius(resp, self.t1),
        }

    def free_solve_check(self) -> Check:
        """The free solve at t1 against the data built directly at t1, an
        exact translate of the t0 data."""
        c = self.cfg
        if self.exact_t1 is None:
            self.exact_t1 = interaction.make_three_wave_data(
                c.frame, c.m, (c.eps,) * 3, c.grid, self.t1
            )
        free = solver.solve(self.u0, self.ut0, c.grid, c.solver, P=None).state_at(self.t1)
        u1, ut1 = self.exact_t1
        return fields_match("free_solve_translate", [(free.u, u1), (free.ut, ut1)], 1e-10)

    def check(self, out):
        m = self.cfg.m
        h = self.cfg.grid.axes[0].spacing
        gap = out["cone"].slope - out["front"].slope
        amp, energy = out["amplitude"], out["band_energy"]
        # The tube lies inside the annulus |r - t1| <= 5h, so its band
        # energy is at most the peak squared times the annulus area.
        annulus = 2.0 * math.pi * self.t1 * 10.0 * h
        checks = [
            self.free_solve_check(),
            within("cone_slope", out["cone"].slope, cone_order(m), SLOPE_TOL),
            within("order_gap", gap, order_gap(m), GAP_TOL),
            within("ridge_radius", out["ridge"], self.t1, self.RIDGE_SPACINGS * h),
            Check(
                "band_energy_bound",
                bool(amp > 0.0 and 0.0 < energy <= amp * amp * annulus),
                f"0 < {energy:.4g} <= {amp * amp * annulus:.4g}",
            ),
        ]
        physics = {
            "a3": self.a3,
            "cone_slope": out["cone"].slope,
            "front_slope": out["front"].slope,
            "front_bins": out["front"].n_bins,
            "order_gap": gap,
            "cone_amplitude_per_a3": amp / abs(self.a3),
            "ridge_radius": out["ridge"],
        }
        return checks, physics


EXTENT_3D = 12.0
LADDER = (32, 64, 128)


def separable_cutoff(grid):
    parts = [spectral.plateau_window(np.abs(g.nodes()), 3.0, 5.0) for g in grid.axes]
    return parts[0][:, None, None] * parts[1][None, :, None] * parts[2][None, None, :]


def gaussian_field(n, width=0.8):
    grid = spectral.grid3d(n, EXTENT_3D)
    y1, y2, y3 = grid.meshes()
    return np.exp(-(y1**2 + y2**2 + y3**2) / (2.0 * width**2)), grid


class Calculus3D:
    """Weighted-norm scans on 3D grids up to 128^3, exact-rational mollifier
    identities, mollifier quadrature at seeded points, and the Piriou split.

    Calls no solver code: the 3D FFT path, pure-Python quadrature and
    rational arithmetic.
    """

    name = "calculus_3d"
    known_faults = frozenset()
    M = -2.6           # profile order; s + k1 = -m - 1/2 = 2.1 is the borderline
    SCALES = (64.0, 256.0, 1024.0, 4096.0)   # cutoff scales N of psi
    R = 3              # ramp regularity of psi
    N_SIGMA = 100      # seeded eta/N points per scale on the ramp
    N_EDGE = 10        # seeded points per scale on the plateau and beyond support

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.axis = int(rng.integers(3))
        self.sigma = rng.uniform(0.7, 2.4, self.N_SIGMA)
        self.plateau = rng.uniform(0.0, 1.0, self.N_EDGE)
        self.beyond = rng.uniform(0.0, 1.0, self.N_EDGE)
        self.width = float(rng.uniform(0.9, 1.5))
        self.center = rng.uniform(-0.5, 0.5, 3)
        self.profile_grid = spectral.Grid1D(4096, 12.0)
        # chi's normalizing quadrature is a lazy module cache
        profiles.PsiMollifier(self.SCALES[0], self.R)

    def _weight(self, k: float):
        ks = [0.0, 0.0, 0.0]
        ks[self.axis] = k
        return beals.BealsWeight(0.0, *ks)

    def plane_wave(self, n):
        """Profile of order M along the seeded axis, constant along the others."""
        g1 = spectral.Grid1D(n, EXTENT_3D)
        prof = profiles.synthesize_profile(profiles.SymbolSpec(self.M), g1)
        shape = [1, 1, 1]
        shape[self.axis] = n
        grid = spectral.GridND((g1, g1, g1))
        return np.broadcast_to(prof.values.reshape(shape), grid.shape).copy(), grid

    def parseval_field(self):
        grid = spectral.grid3d(64, EXTENT_3D)
        y = grid.meshes()
        r2 = sum((yi - ci) ** 2 for yi, ci in zip(y, self.center))
        vals = np.exp(-r2 / (2.0 * self.width**2))
        vals += 0.4 * np.sin(3.0 * vals)
        return vals, grid

    def _edges(self, n_cut):
        """Seeded eta in (-2, N-2), where psi = 1, and in (2N+2, 3N+2), where psi = 0."""
        plateau = (n_cut - 2.0) - n_cut * self.plateau
        beyond = (2.0 * n_cut + 2.0) + n_cut * self.beyond
        return plateau, beyond

    def op(self):
        out = {
            "member": beals.membership_scan(
                self.plane_wave, self._weight(2.0), LADDER, cutoff=separable_cutoff
            ),
            "non_member": beals.membership_scan(
                self.plane_wave, self._weight(2.3), LADDER, cutoff=separable_cutoff
            ),
            "smooth": beals.membership_scan(
                gaussian_field, beals.BealsWeight(0.0, math.inf, math.inf, math.inf), LADDER
            ),
        }
        vals, grid = self.parseval_field()
        out["parseval"] = (beals.beals_norm(vals, grid, beals.BealsWeight(), separable_cutoff(grid)),
                           vals, grid)

        def pair(n):
            v, g = self.plane_wave(n)
            return v, v, g

        out["algebra"] = beals.algebra_scan(
            pair, beals.BealsWeight(0.0, 2.0, 2.0, 2.0), LADDER, cutoff=separable_cutoff
        )
        out["verify"] = {r: profiles.mollifier_polynomial(r).verify() for r in range(1, 21)}

        psi_out = []
        for n_cut in self.SCALES:
            psi = profiles.PsiMollifier(n_cut, self.R)
            plateau, beyond = self._edges(n_cut)
            eta = self.sigma * n_cut
            psi_out.append({
                "plateau": psi.derivative(0, plateau),
                "beyond": psi.derivative(0, beyond),
                "scaled": [eta**q * psi.derivative(q, eta) for q in range(self.R + 1)],
            })
        out["psi"] = psi_out

        v = profiles.extremal_profile(self.M, self.profile_grid)
        raw = profiles.synthesize_profile(profiles.SymbolSpec(self.M), self.profile_grid)
        split = profiles.piriou_decompose(raw)
        out["piriou"] = (raw, split)
        out["powers"] = [profiles.profile_power(v, j) for j in (2, 3)]
        out["killed_powers"] = [profiles.profile_power(split.singular, j) for j in (2, 3)]
        return out

    def check(self, out):
        member, non, smooth = out["member"], out["non_member"], out["smooth"]
        norm, vals, grid = out["parseval"]
        l2 = l2_norm(separable_cutoff(grid) * vals, grid.cell_volume)
        ratios = np.asarray(out["algebra"], dtype=float)
        raw, split = out["piriou"]
        k = profiles.k_of_m(self.M)
        band = (32.0, 256.0)
        extent = self.profile_grid.extent
        power_checks = {}
        for j, p in zip((2, 3), out["powers"]):
            predicted = self.M - (j - 1) * k
            power_checks[f"order_{j}"] = bool(np.isclose(p.order, predicted))
            slope = loglog_slope(p.values, extent, band)
            power_checks[f"slope_{j}"] = abs(slope - predicted) < 0.3
        killed = {
            f"slope_{j}": loglog_slope(p.values, extent, band) < self.M - (j - 1) * k
            for j, p in zip((2, 3), out["killed_powers"])
        }
        checks = [
            exactly("membership_k2.0", member.verdict, "member"),
            exactly("membership_k2.3", non.verdict, "non-member"),
            exactly("membership_smooth_inf", smooth.verdict, "member"),
            relative("parseval", norm, l2, 1e-10),
            Check(
                "algebra_ratio_stable",
                bool(np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)
                     and ratios.max() <= 1.2 * ratios.min()),
                f"ratios {np.array2string(ratios, precision=4)}",
            ),
            all_true("mollifier_verify", {
                f"r{r}.{name}": ok for r, flags in out["verify"].items()
                for name, ok in flags.items()
            }),
            below("psi_plateau", max(float(np.max(np.abs(p["plateau"] - 1.0)))
                                     for p in out["psi"]), 1e-9),
            below("psi_support", max(float(np.max(np.abs(p["beyond"])))
                                     for p in out["psi"]), 1e-9),
            uniform_sups("psi_scaled_uniform", {
                q: [float(np.max(np.abs(p["scaled"][q]))) for p in out["psi"]]
                for q in range(self.R + 1)
            }, 1.25),
            self._piriou_check(raw, split, k),
            all_true("power_orders", power_checks),
            all_true("killed_powers_faster", killed),
        ]
        physics = {
            "axis": self.axis,
            "growth_k2.0": member.growth_exponent,
            "growth_k2.3": non.growth_exponent,
            "growth_smooth": smooth.growth_exponent,
            "algebra_ratios": ratios.tolist(),
        }
        return checks, physics

    @staticmethod
    def _piriou_check(raw, split, k) -> Check:
        """Reconstruction to roundoff, and jets 0..k of the singular part
        zero, from numpy spectral moments of the singular samples."""
        g = raw.grid
        scale = float(np.max(np.abs(raw.values)))
        recon = float(np.max(np.abs(split.taylor.values + split.singular.values - raw.values)))
        coef = np.fft.fft(split.singular.values) / g.points
        eta = g.freqs()
        phase = np.exp(-1j * eta * g.start)
        jets = [abs(np.real(np.sum((1j * eta) ** j * coef * phase))) for j in range(k + 1)]
        ok = recon <= 1e-12 * scale and max(jets) <= 1e-8 * scale
        return Check("piriou_split", bool(ok),
                     f"reconstruction {recon:.3g}, max jet {max(jets):.3g} (scale {scale:.3g})")


WORKLOADS = {w.name: w for w in (Experiment256, Response512, Calculus3D)}
