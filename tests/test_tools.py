"""The repository's tools: tools/code_lines.py, which every code-line figure
in CHANGES.md comes from, and tools/rss_phases.py, which every memory figure
by phase comes from."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

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


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_rss_phases_prints_a_positive_figure_for_every_phase():
    # the tool sets its own thread caps and path, so it runs in a process of its own
    run = subprocess.run([sys.executable, str(TOOLS / "rss_phases.py"), "experiment_256"],
                         capture_output=True, text=True, check=True)
    rows = [line.split() for line in run.stdout.splitlines()]
    assert [row[0] for row in rows] == ["import", "setup", "op", "check", "traced"]
    assert [row[2] for row in rows] == ["MB"] * 4 + ["MiB"]
    assert all(float(row[1]) > 0.0 for row in rows)
