"""Peak resident memory of one benchmark workload, phase by phase.

Runs one workload of bench/workloads.py in this process, as the benchmark's
worker does (set-up, one operation, its check), and prints the process's
peak resident set size (ru_maxrss, in the benchmark's MB of 2**20 bytes)
after each phase: import, set-up, the first operation and the check.  BLAS
and OpenMP thread counts are capped as bench/run.py caps them.

ru_maxrss is a high-water mark of the whole heap, so where the allocator
happens to place a block can move it by a megabyte or more on unchanged
code.  The last line is a figure that placement cannot move: one more
operation, run under tracemalloc, and the peak of the memory it traced
(numpy reports its array buffers to tracemalloc), in MiB.  The exit status
is 1 when a check of the operation's output fails, else 0.

    python tools/rss_phases.py response_512 --seed 21
    python tools/rss_phases.py experiment_256

Run from any directory; the program is imported from ./src.  The tool
itself uses the standard library only.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv[1:])

    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    from run import THREAD_VARS, THREADS  # stdlib only; numpy is not loaded yet

    for var in THREAD_VARS:
        os.environ[var] = THREADS
    from workloads import WORKLOADS

    print(f"import  {peak_rss_mb():8.2f} MB")
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    print(f"setup   {peak_rss_mb():8.2f} MB")
    out = wl.op()
    print(f"op      {peak_rss_mb():8.2f} MB")
    checks, _ = wl.check(out)
    print(f"check   {peak_rss_mb():8.2f} MB")
    tracemalloc.start()
    wl.op()
    traced = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    print(f"traced  {traced:8.3f} MiB")
    failed = [c.name for c in checks if not c.ok]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
