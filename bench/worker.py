"""One workload in one fresh process: set up, time whole passes, check.

Started by ``run.py``, which times it from process start to the ``ready``
line (the set-up time) and reads its report, one JSON line, when it exits.
Each pass runs every operation of the workload once, in order, each timed
on its own (a closed loop with one caller).  Passes repeat until the next
one would end after ``--seconds``.  Outputs are checked once, after the
last pass, and every pass must reproduce the first pass's outputs exactly.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
supply the per-layer figures and the untraced ones the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "bench" / "out"
WORKLOADS = ("spectra", "oracle", "points")
#: failure messages kept in the result file
MAX_MESSAGES = 20


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="small inputs, for the tests")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _machine(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _run_pass(ops, tracer=None):
    """Run every operation once; return outputs, errors, latencies, wall time."""
    runs = [op.run for op in ops]
    if tracer is not None:
        runs = [tracer.span("bench.op", run, tag=lambda a, k, i=i: i) for i, run in enumerate(runs)]
    outputs, errors, latency = [None] * len(ops), {}, []
    clock = time.perf_counter
    start = clock()
    for i, run in enumerate(runs):
        t0 = clock()
        try:
            outputs[i] = run()
        except Exception as exc:  # a failed request is counted, not fatal
            errors[i] = f"{type(exc).__name__}: {exc}"
        latency.append(clock() - t0)
    return outputs, errors, latency, clock() - start


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import sshscatter

    if Path(sshscatter.__file__).resolve().parent != ROOT / "src" / "sshscatter":
        print(f"error: imported sshscatter from {sshscatter.__file__}", file=sys.stderr)
        return 2
    import spans

    workload = importlib.import_module(f"{args.workload}_workload")
    scratch = os.path.join(OUT_DIR, f"scratch-{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        ops = workload.build(np.random.default_rng(args.seed), args.short, scratch)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        report = _measure(args, ops, workload, spans, np)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["machine"] = _machine(np)
    print(json.dumps(report), flush=True)
    return 0


def _measure(args, ops, workload, spans, np) -> dict:
    tracer = spans.Tracer() if args.trace else None
    pass_times = {False: [], True: []}
    latencies, layer, errors, differs = array("d"), [], [], []
    first = None
    clock = time.perf_counter
    loop_start = clock()
    while True:
        traced = bool(args.trace) and len(pass_times[False]) > len(pass_times[True])
        if traced:
            tracer.reset()
            tracer.install()
        try:
            outputs, errs, lat, wall = _run_pass(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer.append(spans.per_layer(list(tracer.names), tracer.arrays(), tracer.counts))
        else:
            latencies.extend(lat)
        pass_times[traced].append(wall)
        digest = [workload.digest(op, out) for op, out in zip(ops, outputs)]
        first = first or digest
        differs.append({i for i, (a, b) in enumerate(zip(digest, first)) if a != b})
        errors.append(errs)
        if args.trace and not pass_times[True]:
            continue
        upcoming = pass_times[not traced] if args.trace else pass_times[False]
        if clock() - loop_start + upcoming[-1] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer.save(os.path.join(OUT_DIR, f"{args.workload}.spans.npz"))

    # Checks run once, on the last pass's outputs; every pass must match.
    check_failures = workload.check(ops, outputs)
    attempted = failed = 0
    messages = []
    for p, (errs, diff) in enumerate(zip(errors, differs)):
        for i in range(len(ops)):
            why = errs.get(i) or (check_failures.get(i) and "; ".join(check_failures[i]))
            if not why and i in diff:
                why = "output differs from the first pass"
            attempted += 1
            if why:
                failed += 1
                if len(messages) < MAX_MESSAGES:
                    messages.append(f"pass {p} op {i} ({ops[i].kind}): {why}")
    report = {
        "workload": args.workload, "seed": args.seed, "short": args.short,
        "operations": len(ops), "passes": len(errors), "attempted": attempted,
        "failed": failed, "correct": not check_failures, "failures": messages,
        "pass_s": pass_times[False], "traced_pass_s": pass_times[True],
    }
    if args.trace:
        # times are medians over the traced passes; counts must repeat exactly
        report["per_layer"] = {
            key: (float(np.median([m[key] for m in layer])) if isinstance(value, float)
                  else value)
            for key, value in layer[0].items()
        }
        report["counts_repeat"] = all(
            m[key] == value for m in layer for key, value in layer[0].items()
            if not isinstance(value, float))
        report["per_layer"]["trace.overhead_s"] = float(
            np.median(pass_times[True]) - np.median(pass_times[False]))
    else:
        lat_ms = np.array(latencies) * 1e3
        kinds = np.array([op.kind for op in ops] * len(pass_times[False]))
        report["median_ms_by_kind"] = {
            kind: float(np.median(lat_ms[kinds == kind])) for kind in sorted(set(kinds))
        }
        p50, p90 = np.percentile(lat_ms, [50, 90])
        report["latency_samples"] = len(lat_ms)
        report["end_to_end"] = {
            "run_s": float(np.mean(pass_times[False])), "op_p50_ms": float(p50),
            "op_p90_ms": float(p90), "peak_rss_mb": peak_rss_mb,
        }
    return report


if __name__ == "__main__":
    sys.exit(main())
