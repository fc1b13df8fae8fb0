"""The statement lines of cwlab that the benchmark workloads never run.

Runs the named workloads of bench/workloads.py at seed 1 in this process
with tools/physics_record.py's run_workloads (the program's import, then
per workload set-up, one operation and its check), under sys.settrace, with
line events taken only in frames of src/cwlab.  For each module it then
prints the statements inside functions, outside docstrings by
tools/code_lines.py's rule, of which no line ran, each with its line
number, its enclosing function and its first line:

    python tools/line_trace.py                    # all three workloads
    python tools/line_trace.py experiment_256

A module's heading gives how many of its statements in functions did not
run.  Module- and class-level statements are not listed; what they call at
import counts as run.  A statement ran when one of its lines did, or, for a
compound statement, one of the lines of its header (up to its first nested
statement).  BLAS and OpenMP thread counts are capped as bench/run.py caps
them.  The exit status is 1 when a check of a workload's output fails, else
0.  Run from any directory; the program is imported from ./src.  The tool
itself uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from pathlib import Path

from code_lines import docstring_lines  # this file's directory is on sys.path
from physics_record import WORKLOADS, run_workloads

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
PACKAGE = ROOT / "src" / "cwlab"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.ClassDef,)


def statements(source: str):
    """(line, last header line, enclosing function) of each statement
    inside a function of source, docstrings left out."""
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    out = []

    def visit(body, scope, in_function):
        for node in body:
            nested = [s for f in ("body", "orelse", "finalbody", "handlers")
                      for s in getattr(node, f, [])]
            if in_function and node.lineno not in docs:
                header = node.end_lineno if not nested else max(node.lineno, nested[0].lineno - 1)
                out.append((node.lineno, header, scope))
            inner = f"{scope}.{node.name}".lstrip(".") if isinstance(node, _SCOPES) else scope
            visit(nested, inner, in_function or isinstance(node, _FUNCTIONS))

    visit(tree.body, "", False)
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS),
                    help=f"any of {', '.join(WORKLOADS)}; all of them when none is named")
    names = ap.parse_args(argv[1:]).workloads
    if not set(names) <= set(WORKLOADS):
        ap.error(f"unknown workload in {names}")

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(prefix):
            hits.setdefault(name, set())
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _, failed = run_workloads(names, SEED)
    finally:
        sys.settrace(previous)

    print(f"statements not run by {', '.join(names)} (seed {SEED})")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, ran = source.splitlines(), hits.get(str(path), set())
        stmts = statements(source)
        missed = [(line, scope) for line, header, scope in stmts
                  if ran.isdisjoint(range(line, header + 1))]
        print(f"{path.stem}: {len(missed)} of {len(stmts)}")
        for line, scope in missed:
            print(f"  {line:5d}  {scope:<32} {lines[line - 1].strip()}")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
