"""Self-test of the benchmark's checkers and of BENCHMARK.json.

    PYTHONPATH=src python3 bench/selftest.py

Each workload's ``check`` is fed outputs that must pass and known-wrong
outputs (an eps-exponent of 2, a correlation of +1 for the flipped trial,
the free solve compared against the data at the wrong time, a membership
verdict swapped, ...) that must fail the named check.  The file name keeps
it out of pytest collection; it runs in about ten seconds.
"""

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from cwlab import interaction
from tracing import PER_LAYER, Tracer
from workloads import Calculus3D, Experiment256, Response512

BENCH_DIR = Path(__file__).resolve().parent
FAILURES = []


def expect(checks, failing: set, case: str):
    """Exactly the checks named in ``failing`` fail."""
    got = {c.name for c in checks if not c.ok}
    if got != failing:
        FAILURES.append(f"{case}: failed {sorted(got)}, expected {sorted(failing)}")


def experiment_cases():
    wl = Experiment256(seed=0)
    wl.setup()
    m = wl.cfg.m

    def report(**kw):
        base = dict(
            eps_exponent=3.0001,
            cone_fit=SimpleNamespace(slope=3 * m - 0.5, n_bins=13),
            incoming_fit=SimpleNamespace(slope=m, n_bins=7),
            coeff_estimates=[
                SimpleNamespace(c_hat=abs(wl.a_scaled), correlation=1.0),
                SimpleNamespace(c_hat=abs(wl.a_flipped), correlation=-1.0),
            ],
            null_energies={"two_wave_ratio": 7e-4, "p_zero_peak": 0.0},
            cone_amplitude=1.5e-9,
            notes={},
        )
        base.update(kw)
        return SimpleNamespace(**base)

    good = report()
    expect(wl.check(good)[0], set(), "experiment: good report")
    expect(wl.check(report(eps_exponent=2.0))[0], {"eps_exponent"}, "eps-exponent 2")
    bad = copy.deepcopy(good)
    bad.coeff_estimates[1].correlation = 1.0
    expect(wl.check(bad)[0], {"correlation_flipped"}, "flipped trial correlates +1")
    bad = copy.deepcopy(good)
    bad.coeff_estimates[0].c_hat = 1.0
    expect(wl.check(bad)[0], {"c_hat_scaled"}, "c_hat of the unscaled baseline")
    expect(wl.check(report(null_energies={"two_wave_ratio": 0.02, "p_zero_peak": 0.0}))[0],
           {"two_wave_ratio"}, "two-wave leak")
    expect(wl.check(report(null_energies={"two_wave_ratio": 7e-4, "p_zero_peak": 1e-300}))[0],
           {"p_zero_peak"}, "nonzero P=None response")
    # the fault the workload carries: an incoming fit read as -inf
    expect(wl.check(report(incoming_fit=SimpleNamespace(slope=-np.inf, n_bins=0)))[0],
           {"order_gap"}, "infinite order gap")
    expect(wl.check(report(cone_fit=SimpleNamespace(slope=-6.3, n_bins=13)))[0],
           {"cone_slope", "order_gap"}, "shallow cone slope")


def response_cases():
    # The same checks on a 64-point box, so the free solve is quick.
    wl = Response512(seed=0)
    cfg = interaction.default_experiment(points=64)
    wl.cfg, wl.a3 = cfg, 1.0
    wl.t0, wl.t1 = cfg.solver.t0, cfg.solver.t1
    wl.u0, wl.ut0 = interaction.make_three_wave_data(
        cfg.frame, cfg.m, (cfg.eps,) * 3, cfg.grid, wl.t0)
    wl.exact_t1 = None
    h = cfg.grid.axes[0].spacing
    m = cfg.m
    good = {
        "cone": SimpleNamespace(slope=3 * m - 0.5, n_bins=13),
        "front": SimpleNamespace(slope=m, n_bins=7),
        "amplitude": 1.0,
        "band_energy": 0.5 * h,
        "ridge": wl.t1 - h,
    }
    expect(wl.check(good)[0], set(), "response: good outputs")
    wl.exact_t1 = (wl.u0, wl.ut0)   # the data at t0 stands in for t1
    expect([wl.free_solve_check()], {"free_solve_translate"}, "free solve vs data at wrong time")
    wl.exact_t1 = None
    expect(wl.check(dict(good, ridge=wl.t1 - 10 * h))[0], {"ridge_radius"}, "ridge off circle")
    expect(wl.check(dict(good, front=SimpleNamespace(slope=m - 1.0, n_bins=7)))[0], {"order_gap"},
           "order gap off by one")
    expect(wl.check(dict(good, band_energy=1e3))[0], {"band_energy_bound"},
           "band energy above peak bound")


def calculus_cases():
    wl = Calculus3D(seed=0)
    wl.setup()
    out = wl.op()
    expect(wl.check(out)[0], set(), "calculus: real outputs")

    def mutated(case, failing, change):
        bad = copy.deepcopy(out)
        change(bad)
        expect(wl.check(bad)[0], failing, case)

    mutated("membership verdicts swapped", {"membership_k2.0", "membership_k2.3"},
            lambda o: o.update(member=o["non_member"], non_member=o["member"]))
    mutated("Parseval norm off by 1e-6", {"parseval"},
            lambda o: o.update(parseval=(o["parseval"][0] * (1 + 1e-6), *o["parseval"][1:])))
    mutated("an identity false", {"mollifier_verify"},
            lambda o: o["verify"][20].update(derivative_identity=False))
    mutated("psi below 1 on the plateau", {"psi_plateau"},
            lambda o: o["psi"][1]["plateau"].__setitem__(0, 0.999))
    mutated("scaled derivative growing with N", {"psi_scaled_uniform"},
            lambda o: [p["scaled"][2].__imul__(1.0 + i) for i, p in enumerate(o["psi"])])
    mutated("algebra ratio doubling", {"algebra_ratio_stable"},
            lambda o: o.update(algebra=np.asarray(o["algebra"]) * [1.0, 1.0, 2.0]))
    mutated("power order mislabelled", {"power_orders"},
            lambda o: setattr(o["powers"][0], "order", -3.0))
    mutated("powers of the raw profile", {"killed_powers_faster"},
            lambda o: o.update(killed_powers=o["powers"]))


def benchmark_json_cases():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if names != list(PER_LAYER):
        FAILURES.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    e2e = {m["name"] for m in spec["end_to_end"]}
    if e2e != {"setup_s", "op_s", "peak_rss_mb"}:
        FAILURES.append(f"BENCHMARK.json end_to_end names {sorted(e2e)}")


def tracer_cases():
    """Self time is a span's duration minus its children's."""
    tr = Tracer()
    tr.spans = [
        [0, None, 0, "bench.op", 0.0, 10.0],
        [1, 0, 0, "interaction.run_experiment", 1.0, 9.0],
        [2, 1, 0, "solver.solve_nl", 2.0, 5.0],
        [3, 1, 0, "solver.solve_lin", 5.0, 6.0],
        [4, 2, 0, "solver.p_eval", 2.5, 3.0],
    ]
    got = tr.metrics([10.0])
    want = {"interaction.run_experiment.self_s": 4.0, "solver.self_s": 4.0,
            "solver.solve.calls": 2, "solver.p_eval.calls": 1, "solver.solve_nl.s": 3.0}
    for name, value in want.items():
        if abs(got[name]["value"] - value) > 1e-12:
            FAILURES.append(f"tracer: {name} = {got[name]['value']}, expected {value}")


def main() -> int:
    for case in (benchmark_json_cases, tracer_cases, experiment_cases, response_cases,
                 calculus_cases):
        case()
    for line in FAILURES:
        print(f"FAIL {line}")
    print("selftest:", "ok" if not FAILURES else f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
