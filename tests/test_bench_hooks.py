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
