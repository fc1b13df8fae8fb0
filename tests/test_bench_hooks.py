"""The traced benchmark wraps cwlab's callables by name from bench/tracing.py;
renaming or deleting any of them breaks it without touching a bench file."""

from pathlib import Path

import pytest

from cwlab import beals, interaction, solver

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_benchmark_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    originals = (interaction.run_experiment, interaction.solve, solver.sfft)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (interaction.run_experiment, interaction.solve, solver.sfft) == originals


@pytest.mark.parametrize("module", [solver, beals])
def test_every_exported_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_bench_selftest_passes(monkeypatch):
    # The benchmark's checkers and tracer run on cwlab's API; an API change
    # that breaks them fails here rather than in a benchmark run.
    monkeypatch.syspath_prepend(str(BENCH))
    import selftest

    assert selftest.main() == 0


def test_traced_benchmark_counts_every_solve(monkeypatch):
    # every response is a solve looked up as interaction's global, so the
    # tracer's solve spans and step count see a response and its channel
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    cfg = interaction.default_experiment(points=128)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.phase(0, "op"):
            resp = interaction.nonlinear_response(cfg)
            iso = interaction.polarization_isolate(resp)
    finally:
        tracer.uninstall()
    assert [s[3] for s in tracer.spans].count("solver.solve_nl") == 2
    steps = resp.metadata["stats"]["steps"] + iso.metadata["stats"]["steps"]
    assert tracer.counts[0]["solver.steps"] == steps
