"""Benchmark of cwlab: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload experiment_256 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root; the program is imported from ./src.  Each
workload runs in one worker process with BLAS/OpenMP thread counts capped;
SETUP_PROBES further worker processes, half before it and half after, only
set up, so set-up time is a median.  Set-up and operation times are
calibrated to the machine's speed by a reference kernel sampled during the
run (calibrate.py).  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("experiment_256", "response_512", "calculus_3d")
SETUP_PROBES = 2
DEADLINE_S = 170.0   # a run must end within 180 s
THREADS = "1"        # at or below nproc; one thread keeps timings steady
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args: list, deadline: float) -> dict:
    """Run one worker to its end (or kill it at the deadline); its last
    stdout line is a JSON object."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}: "
                         f"{lines[-1] if lines else 'no output'}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    # Set-up probes straddle the measuring worker, so their median samples
    # the machine over the whole run rather than one moment of it.
    probes = 0 if trace else SETUP_PROBES
    probe_runs = [_worker(common + ["--setup-only"], deadline) for _ in range(probes // 2)]
    extra = ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        extra += ["--trace-file", str(out_dir / f"trace-{name}-seed{seed}.json")]
    res = _worker(common + extra, deadline)
    probe_runs.append(res)
    probe_runs += [_worker(common + ["--setup-only"], deadline)
                   for _ in range(probes - probes // 2)]
    setups = [p["setup_s"] for p in probe_runs]
    if trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(res["op_times"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for line in res["unexpected"]:
        print(f"{name}: unexpected failure {line}", file=sys.stderr)
    walls = " ".join(f"{t:.3f}" for t in res["op_wall"])
    refs = " ".join(f"{1e3 * t:.3f}" for t in res["ref_s"])
    setup_walls = " ".join(f"{p['setup_wall_s']:.3f}" for p in probe_runs)
    print(f"{name}: ops={len(res['op_times'])} attempted={res['attempted']} "
          f"failed={res['failed']} op_wall_s=[{walls}] ref_ms=[{refs}] "
          f"setup_wall_s=[{setup_walls}] physics={json.dumps(res['physics'])}")
    return {
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cwlab" / "__init__.py").is_file():
        print(f"cwlab sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as err:
            print(f"{name}: {err}", file=sys.stderr)
            return 1
        if args.workload == "all":
            summary = "  ".join(f"{k}={v['value']:.4g} {v['unit']}"
                                for k, v in result["metrics"].items())
            print(f"{name}: {summary}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
