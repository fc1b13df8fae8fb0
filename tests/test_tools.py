"""The repository's tools: tools/code_lines.py, which every code-line figure
in CHANGES.md comes from, and tools/rss_phases.py, which every memory figure
by phase comes from."""

import importlib.util
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
