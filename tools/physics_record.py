"""Write the physics record of the three benchmark workloads.

Runs each workload of bench/workloads.py in this process at one seed, as the
benchmark's worker does (set-up, one operation, its check), and writes the
physics fields its check returns, the ones bench/run.py prints after
``physics=``, to one JSON file:

    {"seed": 7, "workloads": {"experiment_256": {...}, "response_512": {...},
                              "calculus_3d": {...}}}

    python tools/physics_record.py                  # tests/physics_record.json
    python tools/physics_record.py --out record.json

tests/test_tools.py recomputes the record and compares it with the committed
tests/physics_record.json, so a change that moves a physics number on
purpose rewrites that file with this tool.  BLAS and OpenMP thread counts
are capped as bench/run.py caps them.  The exit status is 1 when a check of
a workload's output fails, else 0.  Run from any directory; the program is
imported from ./src.  The tool itself uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "physics_record.json"
SEED = 7


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", type=Path, default=RECORD)
    args = ap.parse_args(argv[1:])

    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    from run import THREAD_VARS, THREADS, WORKLOADS  # stdlib only; numpy is not loaded yet

    for var in THREAD_VARS:
        os.environ[var] = THREADS
    from workloads import WORKLOADS as CLASSES

    record, failed = {}, []
    for name in WORKLOADS:
        wl = CLASSES[name](SEED)
        wl.setup()
        checks, record[name] = wl.check(wl.op())
        failed += [f"{name}.{c.name}" for c in checks if not c.ok]
    args.out.write_text(json.dumps({"seed": SEED, "workloads": record}, indent=2) + "\n")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
