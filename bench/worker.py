"""One workload in one process: set up, then time its ops or trace them.

    python3 bench/worker.py --workload fit-plain --seed 0 --seconds 25 --trace 0

run.py starts this once per set-up sample and once to measure. BLAS and
OpenMP are pinned to one thread before NumPy is imported. On stdout the
worker prints `ready` once set up (import, inputs, one untimed warm-up op),
then one JSON line with its results unless --setup-only is given.

Untimed mode runs the op list in order, again and again, until the timed
sections add up to --seconds and the list has run at least once. The first
pass is checked against the references in workloads.py and gives the
deterministic figures; later passes must reproduce its outputs bit for bit.

Traced mode runs the first TRACE_OPS ops of the list once each, untraced and
traced back to back (alternating which goes first), and reports per-op layer
counts, self times and the tracing overhead; spans are written under
.bench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

PINNED_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAIL_BEYOND = 10  # the tail percentile is the highest with this many ops above it
TRACE_OPS = 48  # the traced run covers this prefix of the list (spans grow ~1e4 per op)


def blas_threads_in_effect():
    """OpenBLAS's own thread count, read from the loaded library, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in (
                "openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_",
            ):
                if hasattr(lib, sym):
                    return int(getattr(lib, sym)())
    except OSError:
        pass
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "pinned_threads": PINNED_THREADS,
        "blas_threads": blas_threads_in_effect(),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas_name,
    }


class Runner:
    """A workload's ops with their untimed preparation, and how to time one."""

    def __init__(self, wl, ops):
        self.wl = wl
        self.ops = ops
        self.preps = [wl.prepare(op) for op in ops]
        self.timed(0)  # warm-up

    def timed(self, i):
        """Run op i; returns (seconds, output or None if it raised)."""
        op, prep = self.ops[i], self.preps[i]
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = self.wl.run(op, prep)
        except Exception:
            out = None
            traceback.print_exc()
        return time.perf_counter() - t0, out

    def check(self, i, out) -> tuple[bool, str | None]:
        """Full check of op i's output; returns (ok, fingerprint)."""
        if out is None:
            return False, None
        bad = self.wl.check(self.ops[i], self.preps[i], out)
        for msg in bad:
            print(f"op {i} ({self.ops[i].kind}): {msg}", file=sys.stderr)
        return not bad, self.wl.fingerprint(out)


def fit_stats(fits, n_ops) -> dict:
    if not fits:
        return {
            "training.iters_per_fit": 0.0,
            "training.stages_per_fit": 0.0,
            "training.unconverged_frac": 0.0,
            "training.history_mb": 0.0,
        }
    return {
        "training.iters_per_fit": statistics.fmean(f["iters"] for f in fits),
        "training.stages_per_fit": statistics.fmean(f["stages"] for f in fits),
        "training.unconverged_frac": statistics.fmean(not f["converged"] for f in fits),
        "training.history_mb": sum(f["history_mb"] for f in fits) / n_ops,
    }


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[len(ordered) - 1 - beyond], 100.0 * (len(ordered) - beyond) / len(ordered)


def measure(runner, seconds) -> dict:
    """Untraced timing plus the checks and the deterministic figures.

    The calibration kernel runs before every op, outside its timed section.
    """
    import calibrate

    kernel = calibrate.Kernel()
    n = len(runner.ops)
    times, kernel_times, oks, prints, quality, fits = [], [], [], [], [], []
    i = 0
    while i < n or sum(times) < seconds:
        kernel_times.append(kernel())
        dt, out = runner.timed(i % n)
        times.append(dt)
        if i < n:
            ok, fp = runner.check(i, out)
            prints.append(fp)
            if ok:
                quality += runner.wl.quality(runner.ops[i], runner.preps[i], out)
                fits += out.get("fits", [])
        else:  # a repeat must reproduce the first pass exactly
            ok = oks[i % n] and out is not None and runner.wl.fingerprint(out) == prints[i % n]
            if not ok:
                print(f"op {i % n}: repeat differs from its first run", file=sys.stderr)
        oks.append(ok)
        i += 1
    cal = calibrate.calibrated(times, kernel_times)
    count = len(times)
    return {
        "attempted": count,
        "failed": oks.count(False),
        "ops_per_cal_s": count / sum(cal),
        "op_p50_cal_s": statistics.median(cal),
        "op_tail_cal_s": tail(cal)[0],
        "tail_percentile": tail(cal)[1],
        "ops_per_s": count / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "kernel_p50_s": statistics.median(kernel_times),
        "ok_frac": oks.count(True) / count,
        "err_vs_ridge": statistics.median(quality) if quality else None,
        **fit_stats(fits, n),
    }


def trace(runner, tracer_mod, spans_path) -> dict:
    """Each op of the list's prefix untraced and traced back to back; per-op
    layer figures."""
    n = min(len(runner.ops), TRACE_OPS)
    tracer = tracer_mod.Tracer()
    before = tracer_mod.Tracer.originals()
    plain_s = traced_s = 0.0
    failed, fits = 0, []
    for i, op in enumerate(runner.ops[:n]):
        prints = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.current_op = i
                tracer.route = op.kind if op.kind in tracer_mod.V_ROUTES else "elementwise"
                tracer.install()
            try:
                dt, out = runner.timed(i)
            finally:
                tracer.restore()
            ok, prints[traced] = runner.check(i, out)
            failed += not ok
            if traced:
                traced_s += dt
            else:
                plain_s += dt
                fits += out.get("fits", []) if ok else []
        if None not in prints.values() and prints[True] != prints[False]:
            failed += 1
            print(f"op {i}: tracing changed the output", file=sys.stderr)
    restored = tracer_mod.Tracer.originals() == before
    if not restored:
        print("tracer left a patched attribute behind", file=sys.stderr)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.save(spans_path)
    return {
        "attempted": 2 * n,
        "failed": min(2 * n, failed + (not restored)),
        "spans": len(tracer.start),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
        **tracer.per_layer(n),
        **fit_stats(fits, n),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    for var in THREAD_VARS:  # must precede the first NumPy import
        os.environ[var] = str(PINNED_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    runner = Runner(wl, wl.make_ops(args.seed))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        import tracer

        spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.npz")
        result = trace(runner, tracer, spans)
    else:
        result = measure(runner, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops_per_list"] = len(runner.ops)
    result["environment"] = environment(np)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
