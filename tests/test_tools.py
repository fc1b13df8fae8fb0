"""The repository's tools: tools/code_lines.py, which every code-line figure
in CHANGES.md comes from, tools/rss_phases.py, which every memory figure
by phase comes from, and tools/physics_record.py, whose committed record
every physics figure is compared with."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
BENCH = TOOLS.parent / "bench"

SAMPLE = '''\
"""Module docstring,
spanning two lines."""

# a comment line
import os  # a code line that ends in a comment

class Sample:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        # an indented comment
        "a string that is not a docstring"
        return os.sep
'''


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def code_lines():
    return _load("code_lines")


def test_sample_counts_only_its_code_lines(code_lines):
    assert len(SAMPLE.splitlines()) == 14
    # docstrings, comment lines and blank lines count 0; the import (ending
    # in a comment), class, def, the bare string and return count 1 each
    assert code_lines.code_lines(SAMPLE) == 5


def test_main_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a", "1"], ["b", "5"], ["total", "6"]]


def test_rss_phases_prints_a_positive_figure_for_every_phase(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    # the tool sets its own thread caps and path, so it runs in a process of its own
    run = subprocess.run([sys.executable, str(TOOLS / "rss_phases.py"), "experiment_256"],
                         capture_output=True, text=True, check=True)
    rows = [line.split() for line in run.stdout.splitlines()]
    # the public interaction calls of the first operation print between its
    # set-up and its end, and none prints once the functions are restored
    calls = [row for row in rows if row[0].startswith("interaction.")]
    phases = [row for row in rows if row not in calls]
    assert [row[0] for row in phases] == ["import", "setup", "op", "check", "traced"]
    assert [row[2] for row in phases] == ["MB"] * 4 + ["MiB"]
    assert rows[2 : 2 + len(calls)] == calls
    assert {row[0] for row in calls} <= {f"interaction.{fn}" for fn in tracing.INTERACTION_FUNCS}
    assert calls[-1][0] == "interaction.run_experiment"
    assert all(row[2] == "MB" for row in calls)
    assert all(float(row[1]) > 0.0 for row in rows)


class _FailingWorkload:
    """A workload whose one check fails, at no cost."""

    def __init__(self, seed):
        pass

    def setup(self):
        pass

    def op(self):
        return None

    def check(self, out):
        return [SimpleNamespace(name="stub_check", ok=False)], {}


def test_rss_phases_exits_1_when_a_check_fails(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))  # undone with the tool's own entries
    import run
    import workloads

    for var in run.THREAD_VARS:  # the tool sets them; restored on teardown
        monkeypatch.setenv(var, run.THREADS)
    monkeypatch.setitem(workloads.WORKLOADS, "failing_stub", _FailingWorkload)
    assert _load("rss_phases").main(["rss_phases.py", "failing_stub"]) == 1
    assert "failed checks: stub_check" in capsys.readouterr().err


# How far a recomputed physics field may sit from tests/physics_record.json,
# relative to the recorded value (ROADMAP item 6).  Fitted slopes and gaps
# get 1e-10: the cone fit amplifies data roundoff about a thousandfold.  The
# counts, the seeded inputs and p_zero_peak (zero by exact cancellation) are
# compared bitwise, and every other field gets 1e-12.  Another machine may
# round a float field differently in two ways: its BLAS may sum a product
# (the kick maps, evaluate_trig, lstsq) in another order, and numpy picks
# its exp, power, sin and cos loops by the CPU's SIMD features.  The figure
# after each bound is the most the field moved when each such product was
# summed in another order (its inner sum split into even and odd terms,
# lstsq's rows reversed) at seeds 1, 3 and 7, or when the tool ran under
# NPY_DISABLE_CPU_FEATURES with the AVX-512 loops off, or with the AVX2 ones
# off too.  No unlisted field moved by more than 2.6e-14.
FITTED, REST = 1e-10, 1e-12
TOLERANCES = {
    "cone_slope": FITTED,  # 6.7e-13
    "order_gap": FITTED,  # 9.9e-13
    "polarization_slope": FITTED,  # 1.0e-13
    "eps_exponent": FITTED,  # 1.3e-15
    "incoming_slope": REST,  # 1.2e-14
    "front_slope": REST,  # 4.9e-14
    "ridge_radius": REST,  # 0: a median of the rays' sample radii
    "algebra_ratios": REST,  # 1.0e-15
    "incoming_bins": 0.0,
    "front_bins": 0.0,
    "a3": 0.0,
    "a3_trials": 0.0,
    "p_zero_peak": 0.0,
    "axis": 0.0,
}
# The growth exponents are lstsq slopes near 0 (growth_smooth is -1.3e-12),
# so their bound is absolute: 1e-12, against 5.1e-14 moved.
GROWTH_ABS = 1e-12


def _within(got, want, rel, abs_=0.0):
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_within(g, w, rel, abs_) for g, w in zip(got, want)))
    return got == want or (math.isfinite(want) and abs(got - want) <= rel * abs(want) + abs_)


def test_physics_record_matches_the_committed_file(tmp_path):
    recorded = json.loads((TOOLS.parent / "tests" / "physics_record.json").read_text())
    out = tmp_path / "record.json"
    # the tool sets its own thread caps and path, so it runs in a process of its own
    subprocess.run([sys.executable, str(TOOLS / "physics_record.py"), "--out", str(out)],
                   capture_output=True, text=True, check=True)
    got = json.loads(out.read_text())
    assert got["seed"] == recorded["seed"]
    assert got["workloads"].keys() == recorded["workloads"].keys()
    moved = []
    for name, fields in recorded["workloads"].items():
        assert got["workloads"][name].keys() == fields.keys()
        for key, want in fields.items():
            value = got["workloads"][name][key]
            ok = (_within(value, want, 0.0, GROWTH_ABS) if key.startswith("growth_")
                  else _within(value, want, TOLERANCES.get(key, REST)))
            if not ok:
                moved.append(f"{name}.{key}: {want!r} -> {value!r}")
    assert not moved, "physics moved: " + "; ".join(moved)
