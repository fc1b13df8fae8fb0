"""One workload in one process: set up, run whole rounds, check, report.

Started by run.py with the thread caps already in its environment.  Prints
one JSON object on its last stdout line: set-up seconds, per-operation
seconds, checks attempted and failed, peak resident memory, the physics
outputs of the last round and, in traced mode, the per-layer metrics.
Set-up and operation times are calibrated to the machine's speed (see
calibrate.py); the raw wall times are reported beside them.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from calibrate import Calibrator  # noqa: E402  (imports numpy)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    cal = Calibrator()
    cal.start()
    try:
        return run(args, cal)
    finally:
        cal.stop()


def run(args, cal: Calibrator) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def phase(op, name):
        return tracer.phase(op, name) if tracer is not None else nullcontext()

    with phase("setup", "bench.setup"):
        wl.setup()
    setup = cal.interval((_T0, 0.0, 0))
    if args.setup_only:
        print(json.dumps({"setup_s": setup["calibrated_s"], "setup_wall_s": setup["wall_s"]}))
        return 0

    op_times, op_wall, ref_s, attempted, failed, unexpected = [], [], [], 0, 0, []
    physics = {}
    start = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        try:
            with phase(index, "bench.op"):
                mark = cal.mark()
                out = wl.op()
                iv = cal.interval(mark)
            op_times.append(iv["calibrated_s"])
            op_wall.append(iv["wall_s"])
            ref_s.append(iv["ref_s"])
            checks, physics = wl.check(out)
        except Exception:
            traceback.print_exc()
            print(json.dumps({"error": f"{args.workload} round {index} raised"}))
            return 1
        for c in checks:
            attempted += 1
            if not c.ok:
                failed += 1
                if c.name not in wl.known_faults:
                    unexpected.append(f"{c.name}: {c.detail}")
                print(f"check failed: {args.workload}.{c.name}: {c.detail}", file=sys.stderr)
        if index == 0:
            # Later rounds repeat the same allocations; their peak moves with
            # heap fragmentation and with how many rounds fit, not with the
            # program, so the peak is taken over set-up and the first round.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index += 1
        now = time.perf_counter()
        # whole rounds only; start another only if it should end in time
        if now - start + (now - round_start) > args.seconds:
            break

    result = {
        "setup_s": setup["calibrated_s"],
        "setup_wall_s": setup["wall_s"],
        "op_times": op_times,
        "op_wall": op_wall,
        "ref_s": ref_s,
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "peak_rss_mb": peak_rss_mb,
        "physics": physics,
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics(op_times)
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                           "op_times": op_times})
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
