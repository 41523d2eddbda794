"""Run one workload of the benchmark and print every metric with its unit.

    python3 bench/run.py --workload fit-plain --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Lines before it summarise the run: op counts, the tail percentile, set-up
samples, and the thread pinning, NumPy and BLAS versions.

Each set-up sample and the measurement run in a fresh child process
(bench/worker.py), one at a time. Set-up time is taken from the parent:
process start to the worker's `ready`, the median over SETUP_SAMPLES.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0  # every child is killed past this, so a run ends within 180 s
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


class BenchError(Exception):
    pass


def run_worker(args, deadline, setup_only=False):
    """Start a worker; returns (seconds until it was set up, its result or None)."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="selfpaced benchmark, one workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "selfpaced", "__init__.py")):
        print("run from the root of a selfpaced checkout (no src/selfpaced here)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if args.trace:
            _, result = run_worker(args, deadline)
            section = spec["per_layer"]
        else:
            setups = [run_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1)]
            setup_s, result = run_worker(args, deadline)
            setups.append(setup_s)
            result["setup_s"] = statistics.median(setups)
            section = spec["end_to_end"]
    except BenchError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    env = result["environment"]
    print(
        f"{args.workload} seed {args.seed}: {result['attempted']} op runs "
        f"(list of {result['ops_per_list']}); pinned threads {env['pinned_threads']} "
        f"(OpenBLAS reports {env['blas_threads']}), nproc {env['nproc']}, "
        f"numpy {env['numpy']}, {env['blas']}"
    )
    if args.trace:
        print(
            f"  {result['spans']} spans in {result['spans_file']}; "
            f"tracing overhead {result['trace.overhead_frac']:.1%}"
        )
    else:
        print(
            f"  over {result['attempted']} ops: op_p50_cal_s {result['op_p50_cal_s']:.4f}, "
            f"op_tail_cal_s {result['op_tail_cal_s']:.4f} at p{result['tail_percentile']:.1f}; "
            f"raw op_p50_s {result['op_p50_s']:.4f}, op_tail_s {result['op_tail_s']:.4f}, "
            f"ops_per_s {result['ops_per_s']:.3f}; calibration kernel p50 "
            f"{result['kernel_p50_s'] * 1e3:.2f} ms"
        )
        print("  setup_s samples " + ", ".join(f"{s:.3f}" for s in setups))
    missing = [m["name"] for m in section if result.get(m["name"]) is None]
    if missing:
        print(f"{args.workload}: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result[m["name"]], "unit": m["unit"]} for m in section}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
