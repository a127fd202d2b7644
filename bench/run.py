"""The repository's benchmark: one seeded workload, measured end to end.

Usage, from the root of the repository:

    python3 bench/run.py --workload spectra|oracle|points --seed N \\
        --seconds S --trace 0|1 [--short]

Every measurement runs in a fresh single process (``worker.py``) with the
BLAS thread count pinned to 1.  The set-up time is the median over seven
fresh processes (three before the measuring one, three after), each timed
from process start until the package is imported and the workload's
inputs exist.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``, named and with the units given in ``BENCHMARK.json``.  A
fuller record, with the seed, the thread count and the machine, goes to
``bench/out/<workload>-seed<N>-trace<T>.json``.

This file uses the standard library only; the workers need numpy.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectra", "oracle", "points")
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: set-up-only processes timed before and after the one that runs the
#: workload, so that the median of ``setup_s`` spans the whole run
SETUP_AROUND = 3
#: a worker still running after this long is killed and the run fails
DEADLINE_S = 170.0


def _args(argv=None):
    parser = argparse.ArgumentParser(description="Seeded benchmark of sshscatter.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="small inputs and one set-up sample, for the benchmark's tests")
    return parser.parse_args(argv)


def _worker(args, setup_only: bool, deadline: float):
    """Start a worker; return (seconds until it was ready, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--short"] * args.short + ["--setup-only"] * setup_only
    env = dict(os.environ, **{name: BLAS_THREADS for name in BLAS_ENV})
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker exited with code {code} (setup_only={setup_only})")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "sshscatter" / "__init__.py").is_file():
        print(f"error: no sshscatter sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    around = 0 if args.short else SETUP_AROUND
    setup = []
    try:
        for i in range(2 * around + 1):
            ready, result = _worker(args, setup_only=i != around, deadline=deadline)
            setup.append(ready)
            if i == around:
                report = result
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = report["per_layer"]
    else:
        values = dict(report["end_to_end"], setup_s=statistics.median(setup))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the worker did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report.update(setup_s=setup, blas_env={name: BLAS_THREADS for name in BLAS_ENV},
                  metrics=metrics)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {report['operations']} operations x "
          f"{report['passes']} passes, {report['failed']}/{report['attempted']} failed")
    for message in report["failures"]:
        print(f"  {message}")
    for name, metric in metrics.items():
        value = metric["value"]
        print(f"{name} = {value if isinstance(value, int) else format(value, '.6g')} "
              f"{metric['unit']}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
